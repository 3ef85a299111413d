#!/usr/bin/env python3
"""The repository's benchmark: one op kind per workload, every answer checked.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-grid28 --seed 1 --seconds 15
    python3 perfbench/run.py --workload serve-small --seed 1 --trace 1

``--trace 0`` (default) measures the end-to-end metrics with the program
untouched.  ``--trace 1`` alternates untraced and traced ops -- a traced op
runs with every function in ``tracer.TARGETS`` wrapped -- and prints the
per-layer metrics of the traced ops plus the tracing overhead (the
difference of the two halves' median op latency); the spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``.

Times are reported at a fixed reference machine speed.  Right after each
op, off the clock, the run times a fixed pure-Python kernel
(``calibrate.py``); the op's time is multiplied by
``calibrate.REFERENCE_MS`` over that sample.  On a shared machine whose
speed drifts by up to 2x between minutes this keeps a run's medians
within a few percent of each other; the table prints the raw times
beside them.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> ``{"value", "unit"}``).
The lines before it are a stamp (seed, commit, machine, versions) and a
readable table.  Metric names and units match ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: Fresh processes that repeat the set-up; ``setup_s`` is the median of
#: their times and this process's own.
SETUP_REPEATS = 4

#: Calibration samples taken right after each set-up.
SETUP_SAMPLES = 5

END_TO_END = (
    ("setup_s", "s"), ("op_ms.p50", "ms"), ("op_ms.p90", "ms"),
    ("ops_per_s", "1/s"), ("energy_J.mean", "J"),
    ("makespan.mean", "tick"), ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("sched.timing.ms", "ms/op"), ("sched.timing.calls", "1/op"),
    ("sched.maxp.spikes.ms", "ms/op"), ("sched.maxp.compact.ms", "ms/op"),
    ("sched.maxp.serial.ms", "ms/op"), ("sched.maxp.serial.share", "ratio"),
    ("sched.maxp.serial.useful_ratio", "ratio"),
    ("sched.maxp.serial.attempts", "count"),
    ("sched.minp.ms", "ms/op"),
    ("core.lp.ms", "ms/op"), ("core.lp.calls", "1/op"),
    ("core.lp.full_runs", "1/op"), ("core.lp.incremental_runs", "1/op"),
    ("core.lp.cache_hits", "1/op"),
    ("engine.run.overhead_ms", "ms/op"), ("engine.key.ms", "ms/op"),
    ("engine.cache.hit_ratio", "ratio"), ("engine.cache.lookups", "count"),
    ("io.request.encode_ms", "ms/op"), ("io.request.decode_ms", "ms/op"),
    ("serving.overhead_ms", "ms/op"),
    ("online.solve.ms", "ms/op"), ("online.overhead_ms", "ms/op"),
    ("online.admit_ratio", "ratio"), ("online.arrivals", "count"),
    ("layer.core.self_ms", "ms/op"), ("layer.scheduling.self_ms", "ms/op"),
    ("layer.engine.self_ms", "ms/op"), ("layer.io.self_ms", "ms/op"),
    ("layer.serving.self_ms", "ms/op"), ("layer.online.self_ms", "ms/op"),
    ("trace.ops", "count"), ("trace.op_ms.sum", "ms"),
    ("trace.overhead_ms", "ms"),
)


@dataclass
class Record:
    """One timed op; ``scale`` converts its times to reference speed."""

    op: Any
    answer: Any
    error: "str | None"
    latency_s: float
    traced: bool
    scale: float = 1.0


def process_start() -> float:
    """``time.perf_counter()`` reading at this process's start.

    Linux reports the start in clock ticks since boot; elsewhere the
    module's import time stands in for it.
    """
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as handle:
            uptime = float(handle.read().split()[0])
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.perf_counter() - max(0.0, uptime - started)
    except (OSError, ValueError, IndexError):
        return _IMPORTED


_IMPORTED = time.perf_counter()


def stamp(workload: str, seed: int, traced: bool) -> "dict[str, Any]":
    """Seed, code identity, machine and versions for every result."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"workload": workload, "seed": seed, "trace": int(traced),
            "commit": commit, "source_sha256": digest.hexdigest(),
            "cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version}


def decile(values: "list[float]", k: int) -> float:
    """The ``k``-th decile (``k=5`` is the median)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def measure(workload, seconds: float, tracer=None, calibration=None) \
        -> "tuple[list[Record], float]":
    """Run whole passes until ``seconds`` of op time have passed.

    With a ``tracer``, every other op runs with the wrappers installed;
    the parity flips each pass, so each position in a pass is traced as
    often as not.
    Returns the records and the phase's wall time, which leaves out the
    calibration and checks made between ops.
    """
    from calibrate import REFERENCE_MS
    from tracer import installed

    records: "list[Record]" = []
    started = time.perf_counter()
    paused = 0.0
    for number, ops in enumerate(workload.passes()):
        workload.begin_pass()
        for position, op in enumerate(ops):
            traced = tracer is not None and (number + position) % 2 == 1
            with installed(tracer) if traced else nullcontext():
                with tracer.op(len(records), workload.root) if traced \
                        else nullcontext():
                    t0 = time.perf_counter()
                    try:
                        answer, error = workload.run_op(op), None
                    except Exception as exc:  # noqa: BLE001 - counted
                        answer, error = None, f"{type(exc).__name__}: {exc}"
                    latency = time.perf_counter() - t0
            t0 = time.perf_counter()
            scale = REFERENCE_MS / calibration.sample() \
                if calibration is not None else 1.0
            if error is None:
                error = workload.verify(op, answer)
            paused += time.perf_counter() - t0
            workload.after_op(op)
            records.append(Record(op, answer, error, latency, traced,
                                  scale))
        if time.perf_counter() - started - paused >= seconds:
            break
    return records, time.perf_counter() - started - paused


def end_to_end(workload, records, phase_s: float, setup_s: float,
               rss_mb: float, raw: bool = False) -> "dict[str, float]":
    """The end-to-end metrics; ``raw`` leaves the times unscaled."""
    scales = [1.0 if raw else r.scale for r in records]
    latencies = [1e3 * r.latency_s * k for r, k in zip(records, scales)]
    # The phase's wall time scaled by the ops' latency-weighted factor.
    phase_s *= sum(latencies) / sum(1e3 * r.latency_s for r in records)
    quality = [q for q in (workload.quality(r.answer) for r in records
                           if r.error is None) if q is not None]
    return {
        "setup_s": setup_s,
        "op_ms.p50": decile(latencies, 5),
        "op_ms.p90": decile(latencies, 9),
        "ops_per_s": len(records) / phase_s,
        "energy_J.mean": statistics.fmean(e for e, _ in quality)
        if quality else 0.0,
        "makespan.mean": statistics.fmean(m for _, m in quality)
        if quality else 0.0,
        "peak_rss_mb": rss_mb,
    }


def per_layer(workload, records, tracer, lp_delta, cache_delta,
              raw: bool = False) -> "dict[str, float]":
    """The per-layer table of the traced ops (see BENCHMARK.json);
    ``raw`` leaves the times unscaled."""
    from tracer import SpanTable

    scale = {} if raw else {i: r.scale for i, r in enumerate(records)}
    table = SpanTable(tracer.spans, scale)
    traced = [1e3 * r.latency_s * scale.get(i, 1.0)
              for i, r in enumerate(records) if r.traced]
    plain = [1e3 * r.latency_s * scale.get(i, 1.0)
             for i, r in enumerate(records) if not r.traced]
    n = max(1, len(traced))

    def per_op_ms(seconds: float) -> float:
        return 1e3 * seconds / n

    serial = [s for s in table.named("sched.serial")
              if table.has_ancestor(s, "sched.maxp")]
    useful = sum(1 for s in serial if s[6])
    serial_s = sum(table.length(s) for s in serial)
    op_s = table.total(workload.root)
    engine_s = table.total("engine.run")
    codec_s = table.total("io.encode") + table.total("io.decode")
    lookups = cache_delta["hits"] + cache_delta["misses"] \
        if cache_delta else 0
    extras = workload.extras(records)
    out = {
        "sched.timing.ms": per_op_ms(table.total("sched.timing")),
        "sched.timing.calls": len(table.named("sched.timing")) / n,
        "sched.maxp.spikes.ms": per_op_ms(
            table.self_total("sched.maxp.spikes")),
        "sched.maxp.compact.ms": per_op_ms(
            table.total("sched.maxp.compact")),
        "sched.maxp.serial.ms": per_op_ms(serial_s),
        "sched.maxp.serial.share": serial_s / op_s if op_s else 0.0,
        "sched.maxp.serial.useful_ratio": useful / len(serial)
        if serial else 0.0,
        "sched.maxp.serial.attempts": len(serial),
        "sched.minp.ms": per_op_ms(table.total("sched.minp")),
        "core.lp.ms": per_op_ms(table.total("core.lp")),
        "core.lp.calls": len(table.named("core.lp")) / n,
        "core.lp.full_runs": lp_delta.get("full_runs", 0) / len(records),
        "core.lp.incremental_runs":
            lp_delta.get("incremental_runs", 0) / len(records),
        "core.lp.cache_hits": lp_delta.get("cache_hits", 0) / len(records),
        "engine.run.overhead_ms": per_op_ms(
            engine_s - table.total("sched.pipeline", under="engine.run")),
        "engine.key.ms": per_op_ms(table.total("engine.key")),
        "engine.cache.hit_ratio": cache_delta["hits"] / lookups
        if lookups else 0.0,
        "engine.cache.lookups": lookups,
        "io.request.encode_ms": per_op_ms(table.total("io.encode")),
        "io.request.decode_ms": per_op_ms(table.total("io.decode")),
        "serving.overhead_ms": per_op_ms(op_s - engine_s - codec_s)
        if workload.root.startswith("serving.") else 0.0,
        "online.solve.ms": per_op_ms(
            table.total("sched.solve", under="online.apply")),
        "online.overhead_ms": per_op_ms(
            op_s - table.total("sched.solve", under="online.apply"))
        if workload.root.startswith("online.") else 0.0,
        "online.admit_ratio": extras["admitted"] / extras["arrivals"]
        if extras.get("arrivals") else 0.0,
        "online.arrivals": extras.get("arrivals", 0),
        "trace.ops": len(traced),
        "trace.op_ms.sum": sum(traced),
        "trace.overhead_ms": decile(traced, 5) - decile(plain, 5)
        if traced and plain else 0.0,
    }
    for layer, seconds in table.layer_self().items():
        out[f"layer.{layer}.self_ms"] = per_op_ms(seconds)
    assert set(out) == {name for name, _ in PER_LAYER}
    return out


def child_setups(args) -> "list[tuple[float, float]]":
    """``(setup_s, raw setup_s)`` of :data:`SETUP_REPEATS` fresh
    processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        doc = json.loads(done.stdout.strip().splitlines()[-1])
        times.append((doc["setup_s"], doc["raw_setup_s"]))
    return times


def _lp_snapshot() -> "dict[str, int]":
    try:
        from repro.core.longest_path import lp_counter_snapshot
    except ImportError:
        return {}
    return lp_counter_snapshot()


def main(argv=None) -> int:
    t_start = process_start()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from calibrate import REFERENCE_MS, Calibration
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"pick from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        raw_setup_s = time.perf_counter() - t_start
        calibration = Calibration()
        setup_kernel_ms = statistics.median(
            calibration.sample() for _ in range(SETUP_SAMPLES))
        setup_s = raw_setup_s * REFERENCE_MS / setup_kernel_ms
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s,
                              "raw_setup_s": raw_setup_s}))
            return 0
        tracer = Tracer() if args.trace else None
        lp_before = _lp_snapshot()
        cache_before = workload.cache_stats()
        records, phase_s = measure(workload, args.seconds, tracer,
                                   calibration)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.quiesce()
        lp_after = _lp_snapshot()
        cache_after = workload.cache_stats()
        lp_delta = {key: lp_after[key] - lp_before.get(key, 0)
                    for key in lp_after}
        cache_delta = {key: cache_after[key] - cache_before[key]
                       for key in ("hits", "misses")} \
            if cache_before is not None else None
        checked = [r for r in records if r.error is None]
        for record, error in zip(checked, workload.reference(checked)):
            record.error = error
    finally:
        workload.close()

    info = stamp(args.workload, args.seed, bool(args.trace))
    info["kernel_ms"] = statistics.median(calibration.samples)
    if tracer is not None:
        metrics, raw = (per_layer(workload, records, tracer, lp_delta,
                                  cache_delta, raw=flag)
                        for flag in (False, True))
        units = dict(PER_LAYER)
        tracer.write(ROOT / ".perfbench" /
                     f"trace-{args.workload}-seed{args.seed}.json", info)
    else:
        setups = [(setup_s, raw_setup_s)] + child_setups(args)
        metrics, raw = (
            end_to_end(workload, records, phase_s,
                       statistics.median(pair[flag] for pair in setups),
                       rss_mb, raw=flag)
            for flag in (False, True))
        units = dict(END_TO_END)
    failed = [r for r in records if r.error is not None]
    print("stamp " + json.dumps(info, sort_keys=True))
    print(f"{'metric':<34}{'value':>14}{'raw':>14}  unit")
    for name, value in metrics.items():
        print(f"{name:<34}{value:>14.4f}{raw[name]:>14.4f}  {units[name]}")
    print(f"{'failed_ratio':<34}{len(failed) / len(records):>14.4f}  ratio "
          f"({len(failed)} of {len(records)} ops)")
    for record in failed[:5]:
        print(f"failed op {record.op}: {record.error}")
    print(json.dumps({
        "correct": not failed, "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
