"""Distributed tracing, structured logs, and the flight recorder.

The tentpole property is the **stitched trace**: one trace id minted
at the front door (or by the batch runner) must reach every layer —
wire headers to remote servers, shard manifests to subprocess
workers, artifacts back through the merge — so that a single
``GET /v1/debug/trace/{id}`` shows client → server → runner →
scheduler as one span tree.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import (BatchRunner, RemoteBackend, RunnerConfig,
                          SweepSpec, merge_artifacts, plan_shards)
from repro.engine.backends.shards import run_manifest
from repro.errors import ReproError
from repro.examples_data import fig1_problem
from repro.obs import (LOG, EventLog, format_traceparent, new_span_id,
                       new_trace_id, parse_traceparent)
from repro.scheduling import SchedulerOptions
from repro.serving import ServingConfig, ServingError
from tests.test_serving import LiveServer


# ----------------------------------------------------------------------
# traceparent plumbing
# ----------------------------------------------------------------------

class TestTraceContext:
    def test_ids_are_well_formed(self):
        trace_id, span_id = new_trace_id(), new_span_id()
        assert len(trace_id) == 32 and len(span_id) == 16
        int(trace_id, 16), int(span_id, 16)
        assert new_trace_id() != trace_id

    def test_traceparent_round_trip(self):
        trace_id, span_id = new_trace_id(), new_span_id()
        header = format_traceparent(trace_id, span_id)
        assert header == f"00-{trace_id}-{span_id}-01"
        assert parse_traceparent(header) == (trace_id, span_id)

    @pytest.mark.parametrize("bad", [
        None, "", "garbage", "00-short-abcd-01",
        "00-" + "g" * 32 + "-" + "a" * 16 + "-01",
        "00-" + "a" * 32 + "-" + "b" * 16,  # three parts
    ])
    def test_malformed_traceparent_is_ignored(self, bad):
        assert parse_traceparent(bad) is None


# ----------------------------------------------------------------------
# runner + shard propagation
# ----------------------------------------------------------------------

def _grid_jobs(budgets=(8, 10), levels=(2, 4)):
    spec = SweepSpec.grid(fig1_problem(), list(budgets), list(levels),
                          options=SchedulerOptions(seed=2001))
    return spec.jobs()


def test_runner_mints_trace_identity():
    runner = BatchRunner(RunnerConfig(instrument=True))
    runner.run(_grid_jobs()[:2])
    run = runner.last_trace.run
    assert len(run["trace_id"]) == 32
    assert len(run["span_id"]) == 16
    assert "parent_span_id" not in run
    [root] = runner.last_trace.spans
    assert root["attrs"]["trace_id"] == run["trace_id"]


def test_runner_adopts_explicit_context():
    runner = BatchRunner(RunnerConfig(instrument=True))
    trace_id, parent = new_trace_id(), new_span_id()
    runner.trace_context = (trace_id, parent)
    runner.run(_grid_jobs()[:2])
    run = runner.last_trace.run
    assert run["trace_id"] == trace_id
    assert run["parent_span_id"] == parent
    # A second run under the same context keeps the trace id but
    # mints a fresh run span id.
    first_span = run["span_id"]
    runner.run(_grid_jobs()[2:4])
    assert runner.last_trace.run["trace_id"] == trace_id
    assert runner.last_trace.run["span_id"] != first_span


def test_shard_manifest_carries_trace_and_merge_stitches():
    """The parent's context rides the manifest; artifacts of one
    trace stitch back into a merged run carrying that trace id."""
    trace_id, parent = new_trace_id(), new_span_id()
    runner_doc = {"retries": 1, "reuse_schedules": False,
                  "reuse_policy": "identical", "instrument": True,
                  "trace": {"trace_id": trace_id,
                            "parent_span_id": parent}}
    plan = plan_shards(list(enumerate(_grid_jobs())), 2, "tile",
                       runner=runner_doc)
    artifacts = [run_manifest(manifest) for manifest in plan
                 if manifest.jobs]
    assert len(artifacts) == 2
    for artifact in artifacts:
        assert artifact.run["trace_id"] == trace_id
        assert artifact.run["parent_span_id"] == parent
    merged = merge_artifacts(artifacts)
    assert merged.trace.run["trace_id"] == trace_id
    assert merged.trace.run["parent_span_id"] == parent
    [root] = merged.trace.spans
    assert root["attrs"]["trace_id"] == trace_id


def test_cli_shard_plan_stamps_one_trace_id(tmp_path):
    """``shard plan`` mints one trace id; both shard runs and the
    merge adopt it, so worker logs and the merged trace join."""
    from repro.cli import main
    from repro.io import save_problem

    problem = str(tmp_path / "fig1.json")
    save_problem(fig1_problem(), problem)
    assert main(["shard", "plan", problem, "--budgets", "8,12",
                 "--levels", "2,4", "--shards", "2",
                 "--out-dir", str(tmp_path)]) == 0
    manifest_ids = set()
    artifacts = []
    for index in range(2):
        manifest = tmp_path / f"shard_{index}.json"
        manifest_ids.add(json.loads(manifest.read_text())
                         ["runner"]["trace"]["trace_id"])
        artifacts.append(str(tmp_path / f"a{index}.json"))
        assert main(["shard", "run", str(manifest),
                     "--artifact", artifacts[-1]]) == 0
    assert main(["shard", "merge", *artifacts,
                 "--trace", str(tmp_path / "merged.json")]) == 0
    [trace_id] = manifest_ids
    for path in artifacts:
        assert json.loads(open(path).read())["run"]["trace_id"] \
            == trace_id
    merged = json.loads((tmp_path / "merged.json").read_text())
    assert merged["run"]["trace_id"] == trace_id


def test_merge_of_two_plans_is_refused():
    """Two 1-shard plans both claim shard 0 of 1: not one plan's
    complete artifact set, so the merge refuses instead of stitching
    or silently combining them."""
    docs = []
    for trace_id in (new_trace_id(), new_trace_id()):
        docs.append({"retries": 1, "reuse_schedules": False,
                     "reuse_policy": "identical", "instrument": True,
                     "trace": {"trace_id": trace_id}})
    jobs = _grid_jobs()
    artifacts = []
    for index, doc in enumerate(docs):
        plan = plan_shards(list(enumerate(jobs[index * 2:
                                               index * 2 + 2],
                                          start=index * 2)),
                           1, "tile", runner=doc)
        artifacts.extend(run_manifest(manifest) for manifest in plan
                         if manifest.jobs)
    with pytest.raises(ReproError, match=r"repeated \[0\]"):
        merge_artifacts(artifacts)


# ----------------------------------------------------------------------
# the stitched end-to-end trace (differential, live server)
# ----------------------------------------------------------------------

def test_remote_sweep_produces_single_stitched_trace():
    """``sweep --backend remote`` against a live ``serve``: every
    span the server recorded is reachable from the originating
    runner's trace id, covering client → server → runner →
    scheduler."""
    jobs = _grid_jobs()
    with LiveServer(ServingConfig(port=0)) as live:
        runner = BatchRunner(
            RunnerConfig(instrument=True),
            backend=RemoteBackend([live.client], shards=2))
        trace_id = new_trace_id()
        runner.trace_context = (trace_id, None)
        results = runner.run(jobs)
        assert all(result.ok for result in results)
        # The parent runner's trace IS the distributed trace.
        assert runner.last_trace.run["trace_id"] == trace_id

        # The server saw the same trace id on every shard request.
        debug = live.client.debug_requests()
        records = [record for record in debug["requests"]
                   if record["trace_id"] == trace_id]
        assert len(records) >= 2  # two shard sweeps at least
        assert all(record["parent_span_id"] for record in records), \
            "client span ids must arrive via the traceparent header"

        trace_doc = live.client.debug_trace(trace_id)
    assert trace_doc["format"] == "repro-debug-trace"
    assert trace_doc["trace_id"] == trace_id

    names = []

    def walk(span_doc):
        names.append(span_doc["name"])
        for child in span_doc.get("children", []):
            walk(child)

    for span_doc in trace_doc["spans"]:
        walk(span_doc)
    # Stage coverage: server request spans, engine run/job spans,
    # scheduler pipeline/stage spans — one reachable tree per request.
    assert "serving.request" in names
    assert "engine.run" in names
    assert "engine.job" in names
    assert any(name.startswith("sched.") for name in names)


def test_unknown_debug_trace_is_not_found():
    with LiveServer() as live:
        with pytest.raises(ServingError) as excinfo:
            live.client.debug_trace("f" * 32)
        assert excinfo.value.code == "not_found"


# ----------------------------------------------------------------------
# flight recorder rings
# ----------------------------------------------------------------------

def test_flight_recorder_keeps_errors_in_notable_ring():
    config = ServingConfig(port=0, flight_recorder=4)
    with LiveServer(config) as live:
        for _ in range(6):
            live.client.healthz()
        with pytest.raises(ServingError):
            live.client.checked("GET", "/v1/jobs/j-nope")
        for _ in range(6):
            live.client.healthz()
        debug = live.client.debug_requests()
    assert debug["capacity"] == 4
    assert len(debug["requests"]) == 4
    # The 404 has rolled out of the recent ring but is pinned in
    # the notable one, carrying its error code.
    assert all(record["status"] == 200
               for record in debug["requests"])
    notable = [record for record in debug["notable"]
               if record["status"] == 404]
    assert notable and notable[0]["error"] == "not_found"


def test_solve_request_record_links_job_and_trace():
    with LiveServer(ServingConfig(port=0)) as live:
        response = live.client.solve(fig1_problem())
        debug = live.client.debug_requests()
    solves = [record for record in debug["requests"]
              if record["endpoint"] == "v1.solve"]
    assert solves
    record = solves[0]
    assert record["job"] == response["job"]
    assert record["trace_id"] == live.client.trace_context[0]
    assert record["latency_ms"] > 0


# ----------------------------------------------------------------------
# structured event log
# ----------------------------------------------------------------------

class TestEventLog:
    def test_disabled_log_is_a_cheap_no_op(self, tmp_path):
        log = EventLog()
        assert not log.enabled
        log.emit("anything", trace_id="t")  # must not raise or write

    def test_emit_writes_correlated_jsonl(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog()
        log.enable(path=path)
        try:
            log.emit("unit.test", trace_id="t" * 32, span_id="s" * 16,
                     detail=7)
        finally:
            log.disable()
        [line] = open(path).read().splitlines()
        event = json.loads(line)
        assert event["event"] == "unit.test"
        assert event["trace_id"] == "t" * 32
        assert event["span_id"] == "s" * 16
        assert event["detail"] == 7
        assert event["ts"] > 0

    def test_env_knob_enables_global_log(self, tmp_path,
                                         monkeypatch):
        from repro.obs import LOG_ENV, maybe_enable_from_env
        path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv(LOG_ENV, path)
        assert maybe_enable_from_env()
        try:
            LOG.emit("env.test")
        finally:
            LOG.disable()
        assert json.loads(open(path).read())["event"] == "env.test"

    def test_server_writes_access_log(self, tmp_path):
        path = str(tmp_path / "access.jsonl")
        with LiveServer(ServingConfig(port=0,
                                      log_path=path)) as live:
            live.client.healthz()
        events = [json.loads(line)
                  for line in open(path).read().splitlines()]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "server.start"
        assert kinds[-1] == "server.stop"
        access = [event for event in events
                  if event["event"] == "http.access"]
        assert any(event["path"] == "/healthz" for event in access)
        assert all(len(event["trace_id"]) == 32 for event in access)
        assert not LOG.enabled  # shutdown released the global log


# ----------------------------------------------------------------------
# repro-schedule top
# ----------------------------------------------------------------------

def test_cli_top_once_renders_frame(capsys):
    from repro.cli import main

    with LiveServer(ServingConfig(port=0)) as live:
        live.client.solve(fig1_problem())
        url = f"http://127.0.0.1:{live.server.port}"
        assert main(["top", "--server", url, "--once"]) == 0
    out = capsys.readouterr().out
    assert f"repro solve server @ {url}" in out
    assert "queue depth" in out
    assert "v1.solve" in out
    assert "recent requests" in out


def test_cli_top_unreachable_server_fails_cleanly(capsys):
    from repro.cli import main

    assert main(["top", "--server", "http://127.0.0.1:9",
                 "--once"]) == 1
    assert "cannot poll" in capsys.readouterr().err
