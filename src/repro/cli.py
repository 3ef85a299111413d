"""Command-line interface: ``repro-schedule``.

Subcommands:

* ``solve FILE`` — schedule a problem from a ``.json`` or ``.txt``
  (DSL) file; prints the per-stage metrics and the ASCII power-aware
  Gantt chart, optionally writes SVG / schedule JSON.
* ``rover [--case ...]`` — reproduce the Mars-rover schedules
  (Figs. 9-11 / Table 3 rows).
* ``mission [--steps N]`` — run the Table 4 mission comparison.
* ``example`` — walk the paper's nine-task example through the three
  stages (Figs. 2, 5, 7).
* ``sweep FILE`` — batch-solve a (P_max, P_min) sweep, optionally
  across worker processes, with ``--trace`` / ``--instrument`` run
  traces and ``--reuse-schedules`` / ``--store`` validity-range
  schedule reuse (Section 5.3); ``--backend shards|remote`` fans the
  grid out over worker subprocesses or running solve servers.
* ``shard plan|run|merge`` — the sharded-sweep workflow piecewise:
  partition a grid into ``repro-shard-manifest`` files, execute one
  manifest into a self-contained ``repro-shard-artifact``, and fold
  artifacts back into one merged result table / trace / store
  (``docs/sharding.md``).
* ``table show|export PATH`` — inspect a saved schedule store:
  Fig.-7-style validity-range lines, or JSON/CSV conversion.
* ``trace summarize|export PATH`` — digest or convert a saved
  ``repro-trace`` document (Chrome trace-event for Perfetto,
  Prometheus text, JSON Lines).
* ``serve`` — run the async solve server (``docs/serving.md``):
  JSON-over-HTTP solve/sweep endpoints, micro-batching, NDJSON event
  streams, Prometheus ``/metrics``, structured JSONL access logs
  (``--log-file``) and the flight-recorder debug endpoints
  (``docs/observability.md``).
* ``store-serve`` — run the shared schedule-store service
  (``docs/scaling.md``): one authoritative validity-range store that
  N ``serve --store-url`` instances probe and merge into over the
  ``repro-store-request`` v1 protocol.
* ``router`` — run the front-door router over N running solve
  servers (``docs/scaling.md``): balanced solve/sweep/session-open
  dispatch with retry-and-reassignment, sticky ``m{i}-``-prefixed
  job/session routing, health-gated membership.
* ``submit FILE`` — send a problem to a running solve server and
  print the solved points (synchronous single solve, or an
  asynchronous sweep with a live event tail).
* ``session SCRIPT`` — replay a recorded mission arrival script
  (``repro-session-script`` v1, ``docs/online.md``) through the
  online session engine, in-process by default or against a running
  server's ``POST /v1/sessions`` with ``--server``; prints the
  admit/reject/commit/replan event journal.
* ``top`` — live single-screen view of a running solve server:
  queue depth, batch sizes, cache/store hit rates, per-endpoint
  p50/p99 latencies and the most recent/notable requests, polled
  from ``/metrics`` and ``/v1/debug/requests``.

All output is plain text so the tool works over a serial console —
fitting, for a Mars rover scheduler.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .analysis.report import format_table
from .errors import ReproError
from .files import write_json, write_text
from .gantt import chart_result, render_chart, write_svg
from .io import load_problem, load_problem_dsl, save_schedule
from .scheduling import PowerAwareScheduler, SchedulerOptions

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro-schedule",
        description="Power-aware scheduling under timing constraints "
                    "(DAC 2001 reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="schedule a problem file (.json or DSL .txt)")
    solve.add_argument("file", help="problem file path")
    solve.add_argument("--svg", metavar="PATH",
                       help="write the power-aware Gantt chart as SVG")
    solve.add_argument("--out", metavar="PATH",
                       help="write the schedule as JSON")
    solve.add_argument("--seed", type=int, default=2001,
                       help="heuristic seed (default 2001)")
    solve.add_argument("--no-chart", action="store_true",
                       help="skip the ASCII chart")
    solve.add_argument("--dvfs", action="store_true",
                       help="attach a DVFS frequency ladder to every "
                            "task and let the scheduler slow tasks "
                            "(cubic power drop, 1/f stretch) when "
                            "delaying would break timing")
    solve.add_argument("--freq-levels", default="", metavar="F[,F...]",
                       help="comma-separated frequency rungs in (0, 1] "
                            "for --dvfs (must include 1.0; default "
                            "1.0,0.75,0.5,0.25); ignored for problem "
                            "files that already carry operating points")

    rover = sub.add_parser(
        "rover", help="reproduce the Mars rover schedules (Table 3)")
    rover.add_argument("--case", choices=["best", "typical", "worst",
                                          "all"],
                       default="all", help="solar case (default all)")
    rover.add_argument("--svg-dir", metavar="DIR",
                       help="write Figs. 9-11 style SVGs into DIR")

    mission = sub.add_parser(
        "mission", help="run the Table 4 mission comparison")
    mission.add_argument("--steps", type=int, default=48,
                         help="mission distance in steps (default 48)")

    sub.add_parser(
        "example",
        help="walk the paper's 9-task example through Figs. 2/5/7")

    diagnose = sub.add_parser(
        "diagnose",
        help="explain why a problem's timing constraints contradict")
    diagnose.add_argument("file", help="problem file path")

    sweep = sub.add_parser(
        "sweep", help="solve a problem across a P_max budget sweep")
    sweep.add_argument("file", help="problem file path")
    sweep.add_argument("--budgets", default="",
                       help="comma-separated P_max values "
                            "(default: 8 points around the problem's)")
    sweep.add_argument("--levels", default="",
                       help="comma-separated P_min values; with "
                            "--budgets this sweeps the full grid "
                            "(levels are clamped to each budget)")
    sweep.add_argument("--parallel", type=int, default=0, metavar="N",
                       help="solve sweep points across N worker "
                            "processes (0 = in-process serial)")
    sweep.add_argument("--trace", metavar="PATH",
                       help="write a JSON run trace (per-stage solver "
                            "timings, cache hit/miss counters); "
                            "missing parent directories are created, "
                            "an existing file is refused without "
                            "--force")
    sweep.add_argument("--force", action="store_true",
                       help="overwrite an existing --trace file")
    sweep.add_argument("--instrument", action="store_true",
                       help="record hierarchical spans + metrics into "
                            "the run trace (schema v2)")
    sweep.add_argument("--reuse-schedules", action="store_true",
                       help="serve grid points from the validity-range "
                            "schedule store instead of re-solving "
                            "(Section 5.3: a schedule covers every "
                            "P_max >= its peak, P_min <= its floor)")
    sweep.add_argument("--reuse-policy",
                       choices=["identical", "valid"],
                       default="identical",
                       help="'identical' serves only entries that "
                            "reproduce a fresh solve bit-for-bit "
                            "(default); 'valid' serves any covering "
                            "entry, Fig. 7 style")
    sweep.add_argument("--store", metavar="PATH",
                       help="schedule-store JSON: loaded before the "
                            "sweep when it exists, written back after "
                            "(implies --reuse-schedules)")
    sweep.add_argument("--backend",
                       choices=["local", "shards", "remote"],
                       default="local",
                       help="where grid points solve: in this process "
                            "or a pool (local, default), across N "
                            "'shard run' subprocesses (shards), or on "
                            "running solve servers (remote, needs "
                            "--servers)")
    sweep.add_argument("--shards", type=int, default=None, metavar="N",
                       help="shard count for --backend shards/remote "
                            "(default: 2, or one per --servers URL)")
    sweep.add_argument("--shard-strategy",
                       choices=["tile", "round_robin"], default="tile",
                       help="grid partition: contiguous power-plane "
                            "tiles maximizing in-shard schedule reuse "
                            "(default) or round-robin dealing")
    sweep.add_argument("--servers", default="", metavar="URL[,URL...]",
                       help="comma-separated solve-server base URLs "
                            "for --backend remote")
    sweep.add_argument("--freq-levels", default="", metavar="F[,F...]",
                       help="comma-separated DVFS frequency rungs in "
                            "(0, 1], must include 1.0: every task gets "
                            "the ladder and each grid point solves "
                            "with deadline-safe min-energy frequency "
                            "selection (such points bypass the "
                            "schedule store — see DESIGN.md 5f)")

    shard = sub.add_parser(
        "shard",
        help="plan, execute, and merge sharded sweeps "
             "(docs/sharding.md)")
    shard_sub = shard.add_subparsers(dest="shard_command",
                                     required=True)
    shard_plan = shard_sub.add_parser(
        "plan", help="partition a (P_max, P_min) grid into shard "
                     "manifest files")
    shard_plan.add_argument("file", help="problem file path")
    shard_plan.add_argument("--budgets", required=True,
                            help="comma-separated P_max values")
    shard_plan.add_argument("--levels", default="",
                            help="comma-separated P_min values "
                                 "(default: the problem's own P_min)")
    shard_plan.add_argument("--shards", type=int, default=2,
                            metavar="N",
                            help="number of shards (default 2)")
    shard_plan.add_argument("--strategy",
                            choices=["tile", "round_robin"],
                            default="tile",
                            help="partition strategy (default tile)")
    shard_plan.add_argument("--out-dir", required=True, metavar="DIR",
                            help="directory for shard_<i>.json "
                                 "manifests")
    shard_plan.add_argument("--seed", type=int, default=None,
                            help="heuristic seed baked into every "
                                 "planned job")
    shard_plan.add_argument("--reuse-schedules", action="store_true",
                            help="shard workers run with a "
                                 "validity-range schedule store")
    shard_plan.add_argument("--reuse-policy",
                            choices=["identical", "valid"],
                            default="identical",
                            help="store policy for the shard workers")
    shard_plan.add_argument("--instrument", action="store_true",
                            help="shard workers record spans + "
                                 "metrics into their artifacts")
    shard_plan.add_argument("--freq-levels", default="",
                            metavar="F[,F...]",
                            help="comma-separated DVFS frequency rungs "
                                 "attached to every planned job's "
                                 "tasks (must include 1.0)")
    shard_run = shard_sub.add_parser(
        "run", help="execute one shard manifest into an artifact")
    shard_run.add_argument("manifest", help="shard manifest JSON file")
    shard_run.add_argument("--artifact", required=True, metavar="PATH",
                           help="where to write the "
                                "repro-shard-artifact JSON")
    shard_merge = shard_sub.add_parser(
        "merge", help="fold shard artifacts into one merged run")
    shard_merge.add_argument("artifacts", nargs="+",
                             help="shard artifact JSON files")
    shard_merge.add_argument("--reuse-policy",
                             choices=["identical", "valid"],
                             default="identical",
                             help="policy of the merged store")
    shard_merge.add_argument("--trace", metavar="PATH",
                             help="write the merged repro-trace v2 "
                                  "document")
    shard_merge.add_argument("--store", metavar="PATH",
                             help="write the merged schedule store")

    table = sub.add_parser(
        "table",
        help="inspect or convert a saved schedule-store document")
    table_sub = table.add_subparsers(dest="table_command", required=True)
    table_show = table_sub.add_parser(
        "show", help="print every stored schedule's validity range, "
                     "Fig.-7 style")
    table_show.add_argument("path", help="schedule-store JSON file")
    table_export = table_sub.add_parser(
        "export", help="convert a schedule store for external tooling")
    table_export.add_argument("path", help="schedule-store JSON file")
    table_export.add_argument("--format", default="json",
                              choices=["json", "csv"],
                              help="normalized JSON (default) or a "
                                   "flat CSV of entries")
    table_export.add_argument("--out", metavar="PATH",
                              help="output file (default: stdout)")

    trace = sub.add_parser(
        "trace", help="inspect or convert a saved repro-trace document")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize", help="digest a trace: slowest jobs/stages, cache "
                          "effectiveness, histograms")
    summarize.add_argument("path", help="trace JSON file (v1 or v2)")
    summarize.add_argument("--top", type=int, default=5,
                           help="rows per ranking table (default 5)")
    export = trace_sub.add_parser(
        "export", help="convert a trace for external tooling")
    export.add_argument("path", help="trace JSON file (v1 or v2)")
    export.add_argument("--format", required=True,
                        choices=["chrome", "prom", "jsonl"],
                        help="chrome trace-event JSON (Perfetto), "
                             "Prometheus text, or JSON Lines")
    export.add_argument("--out", metavar="PATH",
                        help="output file (default: stdout)")

    serve = sub.add_parser(
        "serve", help="run the async solve server (docs/serving.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="port (default 8080; 0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="engine worker processes per batch "
                            "(0 = solve in the server process)")
    # The batching defaults live in ServingConfig, which this parser
    # does not import; a flag left unset is not passed on.
    serve.add_argument("--max-batch", type=int, default=None,
                       help="most solve jobs per engine batch; a batch "
                            "leaves as soon as the engine is free "
                            "(default: ServingConfig's, listed in "
                            "docs/serving.md)")
    serve.add_argument("--queue-limit", type=int, default=None,
                       help="bound on queued jobs before 429 "
                            "backpressure (default: ServingConfig's, "
                            "listed in docs/serving.md)")
    serve.add_argument("--reuse-schedules", action="store_true",
                       help="serve covered points from the "
                            "validity-range schedule store "
                            "(Section 5.3)")
    serve.add_argument("--reuse-policy",
                       choices=["identical", "valid"],
                       default="identical",
                       help="store policy (see sweep --reuse-policy)")
    serve.add_argument("--store", metavar="PATH",
                       help="schedule-store JSON: loaded at startup "
                            "when it exists, written back on "
                            "shutdown (implies --reuse-schedules)")
    serve.add_argument("--store-url", metavar="URL",
                       help="base URL of a shared schedule-store "
                            "service (repro-schedule store-serve); "
                            "implies --reuse-schedules and shares "
                            "validity-range hits across every "
                            "instance pointed at it "
                            "(docs/scaling.md)")
    serve.add_argument("--session-ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="close and evict mission sessions idle "
                            "for this many seconds (default: keep "
                            "until SESSION_RETENTION pressure)")
    serve.add_argument("--trace", metavar="PATH",
                       help="write the repro-serve-trace JSON "
                            "document (metrics + job summaries) on "
                            "shutdown")
    serve.add_argument("--log-file", metavar="PATH",
                       help="append structured JSONL events (access "
                            "log, retries, store merges) here; the "
                            "REPRO_LOG env var does the same "
                            "process-wide")
    serve.add_argument("--flight-recorder", type=int, default=64,
                       metavar="K",
                       help="request records retained by "
                            "/v1/debug/requests (default 64)")
    serve.add_argument("--slow-ms", type=float, default=1000.0,
                       help="latency past which a request is pinned "
                            "in the notable ring (default 1000)")

    store_serve = sub.add_parser(
        "store-serve",
        help="run the shared schedule-store service "
             "(docs/scaling.md)")
    store_serve.add_argument("--host", default="127.0.0.1",
                             help="bind address (default 127.0.0.1)")
    store_serve.add_argument("--port", type=int, default=8090,
                             help="port (default 8090; "
                                  "0 = ephemeral)")
    store_serve.add_argument("--reuse-policy",
                             choices=["identical", "valid"],
                             default="identical",
                             help="probe policy; every serve "
                                  "instance sharing this store "
                                  "should match it")
    store_serve.add_argument("--store", metavar="PATH",
                             help="schedule-store JSON: loaded at "
                                  "startup when it exists, written "
                                  "back on shutdown")
    store_serve.add_argument("--log-file", metavar="PATH",
                             help="append structured JSONL events "
                                  "(access log, merges) here")

    router = sub.add_parser(
        "router",
        help="run the front-door router over running solve servers "
             "(docs/scaling.md)")
    router.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    router.add_argument("--port", type=int, default=8081,
                        help="port (default 8081; 0 = ephemeral)")
    router.add_argument("--members", required=True,
                        metavar="URL[,URL...]",
                        help="comma-separated base URLs of the serve "
                             "instances behind this router")
    router.add_argument("--retries", type=int, default=2,
                        help="reassignment budget per balanced "
                             "request (default 2)")
    router.add_argument("--timeout", type=float, default=60.0,
                        help="seconds to wait for a member "
                             "connection + response head "
                             "(default 60)")
    router.add_argument("--health-interval", type=float, default=1.0,
                        metavar="SECONDS",
                        help="seconds between background /healthz "
                             "probes per member (default 1)")
    router.add_argument("--fail-threshold", type=int, default=3,
                        help="consecutive failures before a member "
                             "is benched (default 3)")
    router.add_argument("--log-file", metavar="PATH",
                        help="append structured JSONL events "
                             "(access log, retries, membership "
                             "changes) here")

    top = sub.add_parser(
        "top",
        help="live view of a running solve server "
             "(/metrics + /v1/debug/requests)")
    top.add_argument("--server", default="http://127.0.0.1:8080",
                     help="server base URL "
                          "(default http://127.0.0.1:8080)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh period in seconds (default 2)")
    top.add_argument("--once", action="store_true",
                     help="print one frame and exit (no screen "
                          "clearing; scripting-friendly)")

    submit = sub.add_parser(
        "submit",
        help="send a problem to a running solve server")
    submit.add_argument("file", help="problem file path (.json/.txt)")
    submit.add_argument("--server", default="http://127.0.0.1:8080",
                        help="server base URL "
                             "(default http://127.0.0.1:8080)")
    submit.add_argument("--budgets", default="",
                        help="comma-separated P_max values; with "
                             "--levels, sweeps the grid "
                             "asynchronously via /v1/sweep")
    submit.add_argument("--levels", default="",
                        help="comma-separated P_min values")
    submit.add_argument("--seed", type=int, default=None,
                        help="heuristic seed forwarded to the server")
    submit.add_argument("--deadline-ms", type=int, default=None,
                        help="per-request deadline; past it the "
                             "server answers 504 deadline_exceeded")
    submit.add_argument("--events", action="store_true",
                        help="print the NDJSON event stream while a "
                             "sweep runs")
    submit.add_argument("--check", action="store_true",
                        help="exit 1 unless at least one point is "
                             "feasible and every feasible point is "
                             "power-valid (peak <= P_max)")
    submit.add_argument("--freq-levels", default="",
                        metavar="F[,F...]",
                        help="DVFS frequency ladder the server "
                             "attaches before solving (bumps the "
                             "request to version 2; older servers "
                             "answer unsupported_version)")

    session = sub.add_parser(
        "session",
        help="replay a recorded mission arrival script "
             "(repro-session-script v1), locally or against a "
             "running solve server")
    session.add_argument("file",
                        help="session script path (.json)")
    session.add_argument("--server", default=None, metavar="URL",
                        help="replay through POST /v1/sessions on a "
                             "running server instead of in-process")
    session.add_argument("--out", metavar="PATH",
                        help="write the full event journal as JSON")
    session.add_argument("--quiet", action="store_true",
                        help="suppress the per-event lines")
    session.add_argument("--check", action="store_true",
                        help="exit 1 unless the replay ends cleanly "
                             "with every admitted task scheduled, "
                             "and (local replay) the final schedule "
                             "passes the timing and power validators")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """Entry point; returns the process exit code."""
    from .obs import maybe_enable_from_env
    maybe_enable_from_env()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "rover":
            return _cmd_rover(args)
        if args.command == "mission":
            return _cmd_mission(args)
        if args.command == "diagnose":
            return _cmd_diagnose(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "shard":
            return _cmd_shard(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "store-serve":
            return _cmd_store_serve(args)
        if args.command == "router":
            return _cmd_router(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "top":
            return _cmd_top(args)
        if args.command == "session":
            return _cmd_session(args)
        return _cmd_example()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _load(path: str):
    if path.endswith(".json"):
        return load_problem(path)
    return load_problem_dsl(path)


def _numbers(raw: str, flag: str) -> "tuple[float, ...]":
    """Parse a comma-separated number flag (empty string -> ())."""
    if not raw:
        return ()
    try:
        return tuple(float(token) for token in raw.split(","))
    except ValueError as exc:
        raise ReproError(
            f"{flag} must be comma-separated numbers: {exc}") from exc


def _cmd_diagnose(args) -> int:
    from .core.diagnose import explain_infeasibility
    problem = _load(args.file)
    explanation = explain_infeasibility(problem.graph)
    if explanation is None:
        print(f"{problem.name}: timing constraints are consistent")
        reasons = problem.feasible_power_check()
        for reason in reasons:
            print(f"  power warning: {reason}")
        return 0 if not reasons else 1
    print(explanation.render())
    return 1


def _cmd_sweep(args) -> int:
    from .analysis import knee_point, sweep_grid, sweep_p_max
    from .engine import BatchRunner, RunnerConfig, ScheduleStore
    problem = _load(args.file)
    freq_levels = _numbers(args.freq_levels, "--freq-levels")
    if freq_levels:
        from .core.dvfs import attach_ladder
        problem = attach_ladder(problem, freq_levels)
    if args.trace and os.path.exists(args.trace) and not args.force:
        raise ReproError(
            f"trace file {args.trace!r} already exists; "
            "pass --force to overwrite it")
    budgets = _numbers(args.budgets, "--budgets")
    levels = _numbers(args.levels, "--levels")
    if not budgets:
        base = problem.p_max
        budgets = [round(base * factor, 2)
                   for factor in (0.6, 0.75, 0.9, 1.0, 1.2, 1.5, 2.0,
                                  3.0)]
    store = None
    if args.store and os.path.exists(args.store):
        store = ScheduleStore.read(args.store,
                                   policy=args.reuse_policy)
    elif args.reuse_schedules or args.store:
        store = ScheduleStore(policy=args.reuse_policy)
    backend = None
    if args.backend == "shards":
        from .engine.backends import SubprocessShardBackend
        backend = SubprocessShardBackend(
            shards=args.shards if args.shards else 2,
            strategy=args.shard_strategy)
    elif args.backend == "remote":
        from .engine.backends import RemoteBackend
        servers = [token.strip() for token in args.servers.split(",")
                   if token.strip()]
        if not servers:
            raise ReproError("--backend remote requires "
                             "--servers URL[,URL...]")
        backend = RemoteBackend(servers, shards=args.shards,
                                strategy=args.shard_strategy)
    runner = BatchRunner(RunnerConfig(workers=max(0, args.parallel),
                                      instrument=args.instrument),
                         store=store, backend=backend)
    if levels:
        points = sweep_grid(problem, budgets, levels, runner=runner)
        title = f"== {problem.name}: (P_max, P_min) grid sweep =="
    else:
        points = sweep_p_max(problem, budgets, runner=runner)
        title = f"== {problem.name}: P_max sweep =="
    print(format_table([p.row() for p in points], title=title))
    knee = knee_point(points)
    if knee is not None:
        print(f"knee: P_max = {knee.p_max:g} W reaches "
              f"tau = {knee.finish_time} s")
    trace = runner.last_trace
    if trace is not None:
        run, cache = trace.run, trace.cache
        print(f"engine: {run['jobs']} points, "
              f"{run['unique_solved']} solved "
              f"({cache.get('hits', 0)} cache hits), "
              f"mode={run['mode']}, {run['elapsed_s']:.2f}s")
        if trace.reuse is not None:
            r = trace.reuse
            print(f"reuse[{r['policy']}]: {r['range_hits']} range "
                  f"hits, {r['solved']} solved, "
                  f"{r['entries']} stored schedules")
    if args.trace:
        trace.write(args.trace)
        print(f"wrote {args.trace}")
    if args.store and runner.store is not None:
        runner.store.write(args.store)
        print(f"wrote {args.store}")
    return 0


def _cmd_shard(args) -> int:
    if args.shard_command == "plan":
        return _cmd_shard_plan(args)
    if args.shard_command == "run":
        return _cmd_shard_run(args)
    return _cmd_shard_merge(args)


def _cmd_shard_plan(args) -> int:
    from .engine import ScheduleStore
    from .engine.planner import SweepSpec, plan_shards
    from .io.shards import save_manifest
    from .obs import new_trace_id
    problem = _load(args.file)
    budgets = _numbers(args.budgets, "--budgets")
    if not budgets:
        raise ReproError("--budgets needs at least one number")
    levels = _numbers(args.levels, "--levels") or (problem.p_min,)
    options = (SchedulerOptions(seed=args.seed)
               if args.seed is not None else None)
    spec = SweepSpec.grid(problem, budgets, levels, options=options,
                          name=problem.name,
                          freq_levels=_numbers(args.freq_levels,
                                               "--freq-levels"))
    jobs = spec.jobs()
    # One trace id for the whole plan: every shard run adopts it, and
    # so does the merge, so worker logs and the merged trace join.
    runner_doc = {"retries": 1,
                  "instrument": args.instrument,
                  "trace": {"trace_id": new_trace_id()}}
    # The store document names its policy; each shard primes its own.
    store_doc = ScheduleStore(policy=args.reuse_policy).to_dict() \
        if args.reuse_schedules else None
    plan = plan_shards(jobs, max(1, args.shards), args.strategy,
                       sweep=problem.name, runner=runner_doc,
                       store=store_doc)
    for manifest in plan:
        path = os.path.join(args.out_dir,
                            f"shard_{manifest.index}.json")
        save_manifest(manifest, path)
        print(f"wrote {path} ({len(manifest)} jobs)")
    print(f"planned {len(jobs)} jobs "
          f"({len(budgets)}x{len(levels)} grid) into "
          f"{plan.shards} shards, strategy={plan.strategy}")
    return 0


def _cmd_shard_run(args) -> int:
    from .engine.backends.shards import run_manifest
    from .io.shards import load_manifest, save_artifact
    manifest = load_manifest(args.manifest)
    artifact = run_manifest(manifest)
    save_artifact(artifact, args.artifact)
    failed = sum(1 for result in artifact.results if not result.ok)
    new_entries = sum(
        len(((result.stats or {}).get("reuse") or {})
            .get("new_entries") or [])
        for result in artifact.results)
    print(f"shard {manifest.index + 1}/{manifest.of}: "
          f"{len(artifact.results)} jobs, {failed} failed, "
          f"{new_entries} new store entries")
    print(f"wrote {args.artifact}")
    return 0


def _cmd_shard_merge(args) -> int:
    from .engine.merge import merge_artifacts
    from .io.shards import load_artifact
    artifacts = [load_artifact(path) for path in args.artifacts]
    merged = merge_artifacts(artifacts, policy=args.reuse_policy)
    rows = []
    failures = []
    for result in merged.results:
        if result.ok and result.value is not None \
                and hasattr(result.value, "row"):
            rows.append(result.value.row())
        elif not result.ok:
            failures.append(result)
    if rows:
        print(format_table(
            rows, title=f"== merged results "
                        f"({len(artifacts)} shards) =="))
    run = merged.trace.run
    print(f"merged: {run['jobs']} jobs from {len(artifacts)} shards, "
          f"{run['unique_solved']} solved, "
          f"{len(failures)} failed, {run['elapsed_s']:.2f}s slowest "
          f"shard")
    for result in failures:
        print(f"  position {result.position} failed: {result.error}",
              file=sys.stderr)
    if args.trace:
        merged.trace.write(args.trace)
        print(f"wrote {args.trace}")
    if args.store and merged.store is not None:
        merged.store.write(args.store)
        print(f"wrote {args.store}")
    return 0 if not failures else 1


def _cmd_table(args) -> int:
    from .engine import ScheduleStore
    store = ScheduleStore.read(args.path)
    if args.table_command == "show":
        lines = store.describe()
        if not lines:
            print("(empty schedule store)")
            return 0
        print(f"== schedule store: {len(store)} schedules, "
              f"policy={store.policy} ==")
        for line in lines:
            print(line)
        return 0
    # export
    if args.format == "json":
        text = json.dumps(store.to_dict(), indent=2, sort_keys=False)
    else:  # csv — one flat row per stored schedule
        import csv
        import io as _io
        buffer = _io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["base_key", "problem", "label", "stage",
                         "makespan_s", "min_p_max_W", "max_full_p_min_W",
                         "solved_p_max_W", "solved_p_min_W"])
        for base_key, bucket in sorted(store.problems.items()):
            for entry in bucket.entries:
                writer.writerow([
                    base_key, bucket.name, entry.label, entry.stage,
                    entry.makespan, entry.peak, entry.floor,
                    entry.solved_p_max, entry.solved_p_min])
        text = buffer.getvalue().rstrip("\n")
    if args.out:
        write_text(args.out, text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_trace(args) -> int:
    from .engine import read_trace
    from .obs import (chrome_trace, jsonl_lines, metrics_from_doc,
                      prometheus_text, spans_from_doc, summarize_trace)
    trace = read_trace(args.path)
    doc = trace.to_dict()
    if args.trace_command == "summarize":
        print(summarize_trace(doc, top=max(1, args.top)))
        return 0
    # export
    if args.format == "chrome":
        payload = chrome_trace(spans_from_doc(doc),
                               metrics_from_doc(doc))
        text = json.dumps(payload, indent=1, sort_keys=True)
    elif args.format == "prom":
        text = prometheus_text(metrics_from_doc(doc))
    else:  # jsonl
        text = "\n".join(jsonl_lines(spans_from_doc(doc),
                                     metrics_from_doc(doc)))
    if args.out:
        write_text(args.out, text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


# ----------------------------------------------------------------------

def _cmd_solve(args) -> int:
    problem = _load(args.file)
    if getattr(args, "dvfs", False) and not problem.has_operating_points:
        from .core.dvfs import DEFAULT_LADDER, attach_ladder
        freqs = _numbers(args.freq_levels, "--freq-levels") \
            or DEFAULT_LADDER
        problem = attach_ladder(problem, freqs)
    options = SchedulerOptions(seed=args.seed)
    from .core.diagnose import explain_infeasibility
    from .errors import PositiveCycleError
    try:
        pipeline = PowerAwareScheduler(options).solve_pipeline(problem)
    except PositiveCycleError:
        explanation = explain_infeasibility(problem.graph)
        if explanation is not None:
            print(explanation.render(), file=sys.stderr)
            return 1
        raise
    print(format_table(pipeline.stage_rows(),
                       title=f"== {problem.name} =="))
    result = pipeline.final
    dvfs = result.extra.get("dvfs")
    if dvfs:
        slowed = {name: point for name, point
                  in dvfs["assignment"].items()
                  if point["freq"] != 1.0 or point["cores"] != 1}
        chosen = ", ".join(
            f"{name}@f={point['freq']:g}x{point['cores']}"
            for name, point in sorted(slowed.items())) or "all full speed"
        print(f"dvfs: {chosen} "
              f"({dvfs['evaluations']} configurations tried, "
              f"E_ideal={dvfs['energy_ideal_J']:g} J, "
              f"E_rounded={dvfs['energy_rounded_J']:g} J)")
    if not args.no_chart:
        print()
        print(render_chart(chart_result(result)))
    if args.svg:
        write_svg(chart_result(result), args.svg)
        print(f"wrote {args.svg}")
    if args.out:
        save_schedule(result.schedule, args.out,
                      problem_name=problem.name)
        print(f"wrote {args.out}")
    return 0


def _cmd_rover(args) -> int:
    from .mission import MarsRover, SolarCase
    rover = MarsRover.standard()
    cases = list(SolarCase) if args.case == "all" \
        else [SolarCase(args.case)]
    rows = []
    for case in cases:
        jpl = rover.jpl_result(case)
        pa = rover.power_aware_result(case)
        rows.append({"case": case.value, "scheduler": "jpl",
                     **jpl.metrics.row()})
        rows.append({"case": case.value, "scheduler": "power-aware",
                     **pa.metrics.row()})
        if args.svg_dir:
            path = f"{args.svg_dir}/rover_{case.value}.svg"
            write_svg(chart_result(pa, title=f"rover {case.value}"),
                      path)
            print(f"wrote {path}")
    print(format_table(rows, title="== Mars rover (Table 3) =="))
    return 0


def _cmd_mission(args) -> int:
    from .mission import (JPLPolicy, MarsRover, MissionSimulator,
                          PowerAwarePolicy, compare_reports,
                          paper_mission_environment)
    rover = MarsRover.standard()
    jpl = MissionSimulator(paper_mission_environment(),
                           JPLPolicy(rover), args.steps).run()
    pa = MissionSimulator(paper_mission_environment(),
                          PowerAwarePolicy(rover), args.steps).run()
    rows = []
    for report in (jpl, pa):
        for phase in report.phases():
            rows.append({"policy": report.policy,
                         "solar_W": phase.solar,
                         "steps": phase.steps,
                         "time_s": phase.time,
                         "Ec_J": phase.energy_cost})
    print(format_table(rows, title="== Mission scenario (Table 4) =="))
    print(jpl.summary())
    print(pa.summary())
    comparison = compare_reports(jpl, pa)
    print(f"improvement: {comparison['time_improvement_pct']:.1f}% time, "
          f"{comparison['energy_improvement_pct']:.1f}% energy "
          f"(paper: 33.3% / 32.7%)")
    return 0


def _run_http_server(make_server, banner, trailers=()) -> int:
    """Shared serve/store-serve/router loop: start, print the
    listening banner (CI and the benchmarks parse it), run until
    SIGINT/SIGTERM, shut down gracefully."""
    import asyncio

    async def _run() -> None:
        server = make_server()
        await server.start()
        print(banner(server), flush=True)
        # Explicit handlers, not KeyboardInterrupt: a daemonized server
        # (shell `&`, CI step) inherits SIGINT as ignored, and SIGTERM
        # would otherwise kill the process without draining.
        import signal
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread / platforms without support
        serving = asyncio.ensure_future(server.serve_forever())
        stopping = asyncio.ensure_future(stop.wait())
        try:
            await asyncio.wait({serving, stopping},
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in (serving, stopping):
                task.cancel()
            print("draining...", flush=True)
            await server.shutdown()
            for path in trailers:
                if path:
                    print(f"wrote {path}")

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_serve(args) -> int:
    from .serving import ServingConfig, SolveServer

    batching = {name: getattr(args, name)
                for name in ("max_batch", "queue_limit")
                if getattr(args, name) is not None}
    config = ServingConfig(host=args.host, port=args.port, **batching,
                           workers=max(0, args.workers),
                           reuse_schedules=args.reuse_schedules,
                           reuse_policy=args.reuse_policy,
                           store_path=args.store,
                           store_url=args.store_url,
                           session_ttl_s=args.session_ttl,
                           trace_path=args.trace,
                           flight_recorder=args.flight_recorder,
                           slow_ms=args.slow_ms,
                           log_path=args.log_file)
    return _run_http_server(
        lambda: SolveServer(config),
        lambda server: (f"repro solve server listening on "
                        f"http://{config.host}:{server.port}"),
        trailers=(config.store_path, config.trace_path))


def _cmd_store_serve(args) -> int:
    from .serving import StoreService, StoreServiceConfig

    config = StoreServiceConfig(host=args.host, port=args.port,
                                reuse_policy=args.reuse_policy,
                                store_path=args.store,
                                log_path=args.log_file)
    return _run_http_server(
        lambda: StoreService(config),
        lambda server: (f"repro store service listening on "
                        f"http://{config.host}:{server.port}"),
        trailers=(config.store_path,))


def _cmd_router(args) -> int:
    from .serving import Router, RouterConfig

    members = [token.strip() for token in args.members.split(",")
               if token.strip()]
    if not members:
        raise ReproError("--members needs at least one URL")
    config = RouterConfig(host=args.host, port=args.port,
                          members=members,
                          retries=max(0, args.retries),
                          timeout=args.timeout,
                          health_interval_s=args.health_interval,
                          fail_threshold=max(1, args.fail_threshold),
                          log_path=args.log_file)
    return _run_http_server(
        lambda: Router(config),
        lambda server: (f"repro router listening on "
                        f"http://{config.host}:{server.port} "
                        f"over {len(members)} member(s)"))


def _point_row(point: "dict") -> "dict[str, object]":
    utilization = point.get("utilization")
    return {
        "P_max_W": point["p_max"],
        "P_min_W": point["p_min"],
        "feasible": point["feasible"],
        "tau_s": point.get("finish_time"),
        "Ec_J": point.get("energy_cost"),
        "rho_pct": (None if utilization is None
                    else 100.0 * utilization),
        "peak_W": point.get("peak_power"),
        "served": ("cache" if point.get("cached")
                   else "store" if point.get("reused") else "solve"),
    }


def _cmd_submit(args) -> int:
    from .serving import ServingClient
    problem = _load(args.file)
    client = ServingClient(args.server)
    budgets = list(_numbers(args.budgets, "--budgets")) or None
    levels = list(_numbers(args.levels, "--levels")) or None
    freq_levels = list(_numbers(args.freq_levels, "--freq-levels")) \
        or None
    if budgets or levels:
        ack = client.sweep(problem, budgets=budgets, levels=levels,
                           seed=args.seed,
                           deadline_ms=args.deadline_ms,
                           freq_levels=freq_levels)
        job_id = ack["job"]
        print(f"job {job_id} accepted "
              f"({ack.get('points_total', '?')} points)")
        if args.events:
            for event in client.events(job_id):
                print(json.dumps(event))
            response = client.job(job_id)
        else:
            response = client.wait(job_id)
    else:
        response = client.solve(problem, seed=args.seed,
                                deadline_ms=args.deadline_ms,
                                freq_levels=freq_levels)
    points = response.get("points", [])
    title = f"== {problem.name}: served points =="
    print(format_table([_point_row(p) for p in points], title=title))
    print(f"job {response.get('job')}: {response.get('status')}, "
          f"{response.get('cached', 0)} cache hits, "
          f"{response.get('reused', 0)} store reuses, "
          f"{response.get('elapsed_ms', 0):.0f} ms server-side")
    if response.get("status") == "error":
        error = response.get("error") or {}
        print(f"job failed [{error.get('code', 'internal')}]: "
              f"{error.get('message', 'unknown error')}",
              file=sys.stderr)
        return 1
    if args.check:
        feasible = [p for p in points if p.get("feasible")]
        if not feasible:
            print("check: FAILED (no feasible point)",
                  file=sys.stderr)
            return 1
        for point in feasible:
            if point.get("peak_power") is not None \
                    and point["peak_power"] > point["p_max"] + 1e-9:
                print(f"check: FAILED (peak {point['peak_power']} W "
                      f"exceeds P_max {point['p_max']} W)",
                      file=sys.stderr)
                return 1
        print(f"check: ok ({len(feasible)} feasible, "
              "all power-valid)")
    return 0


def _cmd_session(args) -> int:
    """Replay a recorded arrival script, locally or via a server."""
    from .online import load_script, replay_script

    script = load_script(args.file)
    journal: "list[dict]" = []

    if args.server:
        from .serving import ServingClient
        client = ServingClient(args.server)
        ack = client.open_session(
            p_max=script.p_max, p_min=script.p_min,
            baseline=script.baseline, scheduler=script.scheduler,
            seed=script.seed, name=script.name)
        session_id = ack["session"]
        print(f"session {session_id} open on {args.server} "
              f"({script.scheduler}, P_max={script.p_max} W)")
        ended_ok = False
        for event in client.session_send(session_id,
                                         script.commands):
            journal.append(event)
            if event.get("event") == "end":
                ended_ok = bool(event.get("ok"))
            if not args.quiet:
                print(json.dumps(event))
        status = client.session(session_id)
        client.close_session(session_id)
        admitted = status.get("admitted", [])
        rejected = status.get("rejected", [])
        starts = status.get("starts", {})
        makespan = status.get("makespan")
        # The server streams events but runs no final validators;
        # re-run them client-side against the reported starts on the
        # problem the admitted arrivals imply.  Fault replays stretch
        # durations the nominal rebuild cannot see, so for fault
        # scripts --check only covers stream completion and coverage.
        has_faults = any(c.get("event") == "fault"
                         for c in script.commands)
        validated = bool(admitted) and not has_faults \
            and all(name in starts for name in admitted)
        if validated:
            from .core.schedule import Schedule
            from .online import problem_from_script
            local = problem_from_script(script, admitted)
            plan = Schedule(local.graph,
                            {name: starts[name] for name in admitted})
            report_ok = local.check(plan).ok
        else:
            # Nothing to validate (or faults make the nominal rebuild
            # inapplicable); the coverage checks below still run.
            report_ok = True
    else:
        session, events = replay_script(script)
        journal.extend(events)
        if not args.quiet:
            for event in events:
                print(json.dumps(event))
        # A local replay that raises never reaches here, so the
        # stream-level flag is trivially true.
        ended_ok = True
        admitted = session.admitted
        rejected = [name for name, _ in session.rejected]
        starts = (session.schedule.as_dict()
                  if session.schedule is not None else {})
        makespan = (session.schedule.makespan
                    if session.schedule is not None else None)
        report_ok = session.committed_report().ok if admitted \
            else True
        validated = True
    print(f"{script.name}: {len(admitted)} admitted, "
          f"{len(rejected)} rejected"
          + (f", makespan {makespan}" if makespan is not None
             else ""))
    if args.out:
        write_json(args.out, {"format": "repro-session-event",
                              "version": 1, "script": args.file,
                              "events": journal})
        print(f"wrote event journal to {args.out}")
    if args.check:
        missing = [name for name in admitted if name not in starts]
        if not ended_ok or missing or not report_ok:
            reason = ("stream ended with an error"
                      if not ended_ok else
                      f"admitted tasks missing from the schedule: "
                      f"{missing}" if missing else
                      "final schedule failed validation")
            print(f"check: FAILED ({reason})", file=sys.stderr)
            return 1
        if validated:
            print(f"check: ok ({len(admitted)} admitted tasks "
                  "all scheduled, schedule power-valid)")
        else:
            print(f"check: ok ({len(admitted)} admitted tasks "
                  "all scheduled; power validation skipped — "
                  "fault replays stretch durations the client "
                  "cannot reconstruct, replay locally for a "
                  "full check)")
    return 0


def _parse_prometheus(text: str) \
        -> "tuple[dict[str, float], dict[str, dict[str, float]]]":
    """Split exposition text into plain samples and quantile maps."""
    import re
    plain: "dict[str, float]" = {}
    quantiles: "dict[str, dict[str, float]]" = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            number = float(value)
        except ValueError:
            continue
        if "{" in key:
            name, labels = key.split("{", 1)
            match = re.search(r'quantile="([^"]+)"', labels)
            if match:
                quantiles.setdefault(name, {})[match.group(1)] = \
                    number
        else:
            plain[key] = number
    return plain, quantiles


def _top_frame(server_url: str, plain: "dict[str, float]",
               quantiles: "dict[str, dict[str, float]]",
               debug: "dict") -> str:
    """One ``repro-schedule top`` screen, as plain text."""
    def metric(name: str, default: float = 0.0) -> float:
        return plain.get(name, default)

    def rate(hits: float, misses: float) -> str:
        total = hits + misses
        if total <= 0:
            return "-"
        return f"{100.0 * hits / total:.1f}%"

    lines = [f"repro solve server @ {server_url}", ""]
    lines.append(
        f"queue depth {metric('repro_serving_queue_depth'):>6.0f}   "
        f"batches {metric('repro_serving_batches'):>6.0f}   "
        f"jobs accepted "
        f"{metric('repro_serving_jobs_accepted'):>6.0f}")
    lines.append(
        f"http reqs   "
        f"{metric('repro_serving_http_requests'):>6.0f}   "
        f"errors  {metric('repro_serving_http_errors'):>6.0f}   "
        f"batch jobs p50 "
        f"{quantiles.get('repro_serving_batch_jobs', {}).get('0.50', 0):>5.1f}")
    cache_hits = metric("repro_engine_cache_hits")
    cache_misses = metric("repro_engine_cache_misses")
    store_hits = metric("repro_engine_store_range_hits")
    store_misses = metric("repro_engine_store_misses")
    lines.append(
        f"cache hit rate {rate(cache_hits, cache_misses):>7} "
        f"({cache_hits:.0f}/{cache_hits + cache_misses:.0f})   "
        f"store hit rate {rate(store_hits, store_misses):>7} "
        f"({store_hits:.0f}/{store_hits + store_misses:.0f})")
    lines.append("")
    lines.append(f"{'endpoint':<20} {'count':>7} {'p50 ms':>9} "
                 f"{'p99 ms':>9}")
    prefix, suffix = "repro_serving_latency_", "_seconds"
    seen = False
    for name in sorted(quantiles):
        if not name.startswith(prefix) or not name.endswith(suffix):
            continue
        seen = True
        endpoint = name[len(prefix):-len(suffix)].replace("_", ".")
        count = plain.get(f"{name}_count", 0.0)
        p50 = 1000.0 * quantiles[name].get("0.50", 0.0)
        p99 = 1000.0 * quantiles[name].get("0.99", 0.0)
        lines.append(f"{endpoint:<20} {count:>7.0f} {p50:>9.2f} "
                     f"{p99:>9.2f}")
    if not seen:
        lines.append("(no requests observed yet)")
    recent = debug.get("requests") or []
    notable = debug.get("notable") or []
    lines.append("")
    lines.append(f"recent requests (newest first, "
                 f"capacity {debug.get('capacity', '?')}, "
                 f"slow >= {debug.get('slow_ms', '?')} ms):")
    for record in recent[:8]:
        lines.append(
            f"  {record.get('status', '?'):>3} "
            f"{record.get('method', '?'):<6} "
            f"{record.get('path', '?'):<28} "
            f"{record.get('latency_ms', 0):>9.2f} ms  "
            f"trace={record.get('trace_id', '')[:16]}")
    if not recent:
        lines.append("  (none)")
    if notable:
        lines.append(f"notable (slow/errored): {len(notable)} "
                     f"retained; newest: "
                     f"{notable[0].get('method', '?')} "
                     f"{notable[0].get('path', '?')} "
                     f"{notable[0].get('latency_ms', 0):.2f} ms "
                     f"status {notable[0].get('status', '?')}"
                     + (f" error={notable[0]['error']}"
                        if notable[0].get("error") else ""))
    return "\n".join(lines)


def _cmd_top(args) -> int:
    import time as time_module
    from .serving import ServingClient, ServingError

    client = ServingClient(args.server, timeout=5.0)
    while True:
        try:
            plain, quantiles = _parse_prometheus(
                client.metrics_text())
            debug = client.debug_requests()
        except (ServingError, OSError) as exc:
            print(f"error: cannot poll {args.server}: {exc}",
                  file=sys.stderr)
            if args.once:
                return 1
            time_module.sleep(max(0.1, args.interval))
            continue
        frame = _top_frame(args.server, plain, quantiles, debug)
        if args.once:
            print(frame)
            return 0
        # Clear + home, like watch(1); plain text otherwise.
        print(f"\x1b[2J\x1b[H{frame}", flush=True)
        time_module.sleep(max(0.1, args.interval))


def _cmd_example() -> int:
    from .examples_data import fig1_options, fig1_problem
    pipeline = PowerAwareScheduler(fig1_options()).solve_pipeline(
        fig1_problem())
    for label, result in (("Fig. 2 - time-valid", pipeline.timing),
                          ("Fig. 5 - power-valid", pipeline.max_power),
                          ("Fig. 7 - improved", pipeline.min_power)):
        print()
        print(f"### {label}")
        print(render_chart(chart_result(result, title=label)))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
