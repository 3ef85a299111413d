"""End-to-end tests for the async solve server (``repro.serving``).

Covers the acceptance criteria of the serving layer:

* a served solve is bit-for-bit equal to a direct pipeline solve;
* concurrent clients share one result cache / schedule store (visible
  as ``engine.store.*`` / ``engine.cache.*`` metrics on ``/metrics``);
* deadlines, cancellation, backpressure and drain behave as the
  documented error codes promise;
* **doc conformance**: every JSON example in ``docs/serving.md`` is
  replayed against a live server, in document order, and must match.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import os
import re
import threading
import time

import pytest

from repro import PowerAwareScheduler
from repro.core.graph import ConstraintGraph
from repro.engine import BatchRunner, RunnerConfig
from repro.examples_data import fig1_problem
from repro.io import problem_to_dict, save_problem
from repro.io.requests import ERROR_CODES, solve_request_to_dict
from repro.serving import (ServingClient, ServingConfig, ServingError,
                           SolveServer)

DOC_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                        "serving.md")


class LiveServer:
    """A :class:`SolveServer` on a background thread's event loop."""

    def __init__(self, config: "ServingConfig | None" = None,
                 runner: "BatchRunner | None" = None):
        self.config = config or ServingConfig(port=0)
        self.runner = runner
        self.server: "SolveServer | None" = None
        self.client: "ServingClient | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._stop: "asyncio.Event | None" = None
        self._thread: "threading.Thread | None" = None

    async def _main(self, ready: threading.Event) -> None:
        self.server = SolveServer(self.config, runner=self.runner)
        await self.server.start()
        self._stop = asyncio.Event()
        ready.set()
        await self._stop.wait()
        await self.server.shutdown()

    def __enter__(self) -> "LiveServer":
        ready = threading.Event()

        def run() -> None:
            self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self._main(ready))
            self._loop.close()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        assert ready.wait(10), "server did not come up"
        self.client = ServingClient(
            f"http://127.0.0.1:{self.server.port}")
        return self

    def __exit__(self, *_exc) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)
        assert not self._thread.is_alive()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.port}"

    def run_coro(self, coro):
        """Run a coroutine on the server loop, return its result."""
        return asyncio.run_coroutine_threadsafe(coro,
                                                self._loop).result(30)


# ---------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------


def test_solve_round_trip_matches_direct_pipeline():
    problem = fig1_problem()
    direct = PowerAwareScheduler().solve(problem)
    with LiveServer() as live:
        response = live.client.solve(problem)
    assert response["status"] == "done"
    (point,) = response["points"]
    assert point["feasible"] is True
    assert point["finish_time"] == direct.finish_time
    assert point["energy_cost"] == direct.energy_cost
    assert point["utilization"] == direct.utilization
    assert point["peak_power"] == direct.metrics.peak_power


def test_sweep_round_trip_matches_sweep_grid():
    from repro.analysis import sweep_grid
    problem = fig1_problem()
    budgets, levels = [12.0, 16.0, 25.0], [4.0, 8.0]
    expected = sweep_grid(problem, budgets, levels)
    with LiveServer() as live:
        ack = live.client.sweep(problem, budgets=budgets,
                                levels=levels)
        final = live.client.wait(ack["job"])
    assert final["status"] == "done"
    assert len(final["points"]) == len(expected)
    for got, want in zip(final["points"], expected):
        assert got["p_max"] == want.p_max
        assert got["p_min"] == want.p_min
        assert got["feasible"] == want.feasible
        if want.feasible:
            assert got["finish_time"] == want.finish_time
            assert got["energy_cost"] == want.energy_cost
            assert got["utilization"] == want.utilization
            assert got["peak_power"] == want.peak_power


def test_clients_share_cache_and_store():
    problem = fig1_problem()
    config = ServingConfig(port=0, reuse_schedules=True,
                           reuse_policy="valid")
    with LiveServer(config) as live:
        first = ServingClient(live.url)
        second = ServingClient(live.url)
        cold = first.solve(problem, p_max=16.0, p_min=14.0)
        assert cold["cached"] == 0
        # Identical point from another client: result-cache hit.
        warm = second.solve(problem, p_max=16.0, p_min=14.0)
        assert warm["cached"] == 1
        assert warm["points"][0]["cached"] is True
        assert warm["points"][0]["finish_time"] \
            == cold["points"][0]["finish_time"]
        # Covered-but-not-identical point: schedule-store range hit.
        covered = second.solve(problem, p_max=20.0, p_min=10.0)
        assert covered["reused"] == 1
        assert covered["points"][0]["reused"] is True
        # Counters are absorbed when the batch run returns, a hair
        # after the last response is streamed — poll briefly.
        deadline = time.monotonic() + 5.0
        while True:
            metrics = first.metrics_text()
            if "repro_engine_cache_hits" in metrics \
                    and "repro_engine_store_range_hits" in metrics:
                break
            assert time.monotonic() < deadline, metrics
            time.sleep(0.05)
        hits = re.search(r"^repro_engine_store_range_hits (\d+)",
                         metrics, flags=re.M)
        assert hits and int(hits.group(1)) >= 1


class HeldRunner(BatchRunner):
    """A runner whose batches wait for :attr:`release` once
    :meth:`hold` is called, so a test can queue requests behind a busy
    engine without racing the solver.  The default config is the one a
    default :class:`SolveServer` builds."""

    def __init__(self, config: "RunnerConfig | None" = None,
                 store=None):
        super().__init__(config or RunnerConfig(instrument=True),
                         store=store)
        self.holding = threading.Event()
        self.release = threading.Event()
        self.release.set()

    def hold(self) -> None:
        self.holding.clear()
        self.release.clear()

    def run(self, jobs, on_result=None):
        if not self.release.is_set():
            self.holding.set()
            assert self.release.wait(30), "batch never released"
        return super().run(jobs, on_result=on_result)


def _solve_in_thread(url: str, problem, p_max: float, out: list):
    thread = threading.Thread(target=lambda: out.append(
        ServingClient(url).solve(problem, p_max=p_max, p_min=4.0)))
    thread.start()
    return thread


def _hold_engine(live: LiveServer, runner: HeldRunner, problem,
                 out: list) -> threading.Thread:
    """Start a solve whose batch holds the engine until
    ``runner.release`` is set; its response lands in ``out``."""
    runner.hold()
    thread = _solve_in_thread(live.url, problem, 16.0, out)
    assert runner.holding.wait(10), "held batch never started"
    return thread


def test_requests_queued_behind_a_batch_share_the_next_one():
    """Requests that arrive while a batch holds the engine leave
    together in the next batch."""
    problem = fig1_problem()
    runner = HeldRunner()
    with LiveServer(runner=runner) as live:
        runner.hold()
        responses: "list[dict]" = []
        threads = [_solve_in_thread(live.url, problem, 16.0, responses)]
        assert runner.holding.wait(10), "first batch never started"
        queued = 4
        threads += [_solve_in_thread(live.url, problem, 17.0 + i,
                                     responses)
                    for i in range(queued)]
        deadline = time.monotonic() + 10.0
        while live.client.healthz()["queued_jobs"] < queued:
            assert time.monotonic() < deadline, "requests never queued"
            time.sleep(0.01)
        runner.release.set()
        for thread in threads:
            thread.join(30)
        assert [r["status"] for r in responses] == ["done"] * (queued + 1)
        # The held batch, then one batch for everything that queued.
        assert live.server.batcher.batches == 2


def _live_graphs() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects()
               if isinstance(obj, ConstraintGraph))


def _job_still_answers(client: ServingClient, job_id: str,
                       status: str) -> "list[dict]":
    """The job's status, its event replay and its debug trace; returns
    the engine spans the trace hangs under the job's request."""
    assert client.job(job_id)["status"] == status
    events = list(client.events(job_id))
    assert events[-1]["event"] == "done"
    assert events[-1]["status"] == status
    trace = client.debug_trace(client.trace_context[0])
    (request,) = [span for span in trace["spans"]
                  if span["attrs"].get("job") == job_id
                  and span["attrs"]["method"] == "POST"]
    return request["children"]


def test_served_problem_does_not_outlive_its_response():
    """A finished job keeps its answer, not its parsed problem: live
    constraint graphs do not grow with requests served, and finished,
    cancelled and expired jobs still answer every read endpoint."""
    problem = fig1_problem()
    runner = HeldRunner()
    with LiveServer(runner=runner) as live:
        live.client.solve(problem, p_max=15.0, p_min=4.0)
        before = _live_graphs()
        for i in range(39):
            live.client.solve(problem, p_max=16.0 + i / 4, p_min=4.0)
        finished = ServingClient(live.url)
        done = finished.solve(problem, p_max=30.0, p_min=4.0)
        assert _live_graphs() <= before

        runner.hold()
        held: "list[dict]" = []
        thread = _solve_in_thread(live.url, problem, 31.0, held)
        assert runner.holding.wait(10), "held batch never started"
        cancelled = ServingClient(live.url)
        queued = cancelled.sweep(problem, budgets=[32.0, 33.0],
                                 levels=[4.0])
        assert cancelled.cancel(queued["job"])["status"] == "cancelled"
        expired = ServingClient(live.url)
        status, doc = expired.request("POST", "/v1/solve",
                                      solve_request_to_dict(
                                          problem, p_max=34.0,
                                          deadline_ms=0))
        assert (status, doc["error"]["code"]) \
            == (504, "deadline_exceeded")
        runner.release.set()
        thread.join(30)
        assert held[0]["status"] == "done"
        assert _live_graphs() <= before

        spans = _job_still_answers(finished, done["job"], "done")
        assert [span["name"] for span in spans] == ["engine.run"]
        assert spans[0]["children"], "engine.job spans were dropped"
        assert finished.job(done["job"])["points"] == done["points"]
        assert _job_still_answers(cancelled, queued["job"],
                                  "cancelled") == []
        assert _job_still_answers(expired, doc["job"], "error") == []
        assert expired.job(doc["job"])["error"]["code"] \
            == "deadline_exceeded"


def test_span_forest_lives_while_a_ring_record_names_its_job():
    """A job keeps its engine span forest while a flight-recorder
    record names it: the first job loses it once a dozen solves push
    its record out, a slow job pinned in the notable ring keeps it."""
    problem = fig1_problem()
    runner = HeldRunner()
    config = ServingConfig(port=0, flight_recorder=4, slow_ms=500.0)
    with LiveServer(config, runner=runner) as live:
        first = ServingClient(live.url).solve(problem, p_max=15.0,
                                              p_min=4.0)
        slow: "list[dict]" = []
        thread = _hold_engine(live, runner, problem, slow)
        time.sleep(0.6)  # past slow_ms: the solve is notable
        runner.release.set()
        thread.join(30)
        assert slow[0]["status"] == "done"
        first_job = live.server.jobs[first["job"]]
        slow_job = live.server.jobs[slow[0]["job"]]
        slow_trace = live.client.debug_trace(slow_job.trace_id)
        assert first_job.spans
        for i in range(12):
            live.client.solve(problem, p_max=17.0 + i, p_min=4.0)
        assert first_job.spans is None
        with pytest.raises(ServingError) as err:
            live.client.debug_trace(first_job.trace_id)
        assert err.value.code == "not_found"
        assert live.client.debug_trace(slow_job.trace_id) == slow_trace
        (request,) = slow_trace["spans"]
        (run,) = request["children"]
        assert run["name"] == "engine.run" and run["children"]


# ---------------------------------------------------------------------
# deadlines, cancellation, backpressure, drain
# ---------------------------------------------------------------------


def test_deadline_exceeded_maps_to_504():
    with LiveServer() as live:
        with pytest.raises(ServingError) as err:
            live.client.solve(fig1_problem(), deadline_ms=0)
    assert err.value.code == "deadline_exceeded"
    assert err.value.http_status == 504


def test_queue_full_maps_to_429():
    config = ServingConfig(port=0, queue_limit=1)
    problem = fig1_problem()
    runner = HeldRunner()
    with LiveServer(config, runner=runner) as live:
        held: "list[dict]" = []
        thread = _hold_engine(live, runner, problem, held)
        # The next job queues behind the held batch and fills the queue.
        live.client.sweep(problem, points=[(16.0, 14.0)])
        with pytest.raises(ServingError) as err:
            live.client.sweep(problem, points=[(25.0, 4.0)])
        assert err.value.code == "queue_full"
        assert err.value.http_status == 429
        runner.release.set()
        thread.join(30)
        assert held[0]["status"] == "done"


def test_draining_server_rejects_new_jobs_with_503():
    with LiveServer() as live:
        live._loop.call_soon_threadsafe(
            setattr, live.server.batcher, "draining", True)
        health = live.client.healthz()
        assert health["status"] == "draining"
        with pytest.raises(ServingError) as err:
            live.client.solve(fig1_problem())
        assert err.value.code == "shutting_down"
        assert err.value.http_status == 503
        live._loop.call_soon_threadsafe(
            setattr, live.server.batcher, "draining", False)


def test_drain_completes_every_accepted_job():
    problem = fig1_problem()
    with LiveServer() as live:
        acks = [live.client.sweep(problem,
                                  budgets=[10.0 + i, 20.0 + i],
                                  levels=[4.0, 8.0])
                for i in range(3)]
        # Shut down immediately: drain must finish the accepted jobs.
        live.run_coro(live.server.shutdown())
        for ack in acks:
            submission = live.server.jobs[ack["job"]]
            assert submission.status == "done"
            assert all(point is not None
                       for point in submission.results)


def test_cancel_queued_job():
    problem = fig1_problem()
    runner = HeldRunner()
    with LiveServer(runner=runner) as live:
        held: "list[dict]" = []
        thread = _hold_engine(live, runner, problem, held)
        ack = live.client.sweep(problem, budgets=[10.0, 12.0, 14.0],
                                levels=[4.0, 8.0])
        cancelled = live.client.cancel(ack["job"])
        assert cancelled["status"] == "cancelled"
        assert cancelled["points_done"] == 0
        events = list(live.client.events(ack["job"]))
        assert events[-1]["event"] == "done"
        assert events[-1]["status"] == "cancelled"
        again = live.client.cancel(ack["job"])  # idempotent
        assert again["status"] == "cancelled"
        runner.release.set()
        thread.join(30)
        assert held[0]["status"] == "done"
        deadline = time.monotonic() + 10.0
        while live.client.healthz()["queued_jobs"]:
            assert time.monotonic() < deadline, "queue never emptied"
            time.sleep(0.01)
        # The cancelled sweep left the queue without reaching the
        # engine: the held batch is the only one.
        assert live.client.healthz()["batches"] == 1


# ---------------------------------------------------------------------
# event stream
# ---------------------------------------------------------------------


def test_event_stream_shape():
    problem = fig1_problem()
    with LiveServer() as live:
        ack = live.client.sweep(problem, budgets=[12.0, 16.0],
                                levels=[4.0, 8.0])
        events = list(live.client.events(ack["job"]))
    header = events[0]
    assert header["format"] == "repro-serve-events"
    assert header["version"] == 1
    assert header["job"] == ack["job"]
    names = [event["event"] for event in events[1:]]
    assert names[0] == "accepted"
    assert names[-1] == "done"
    points = [event for event in events if event.get("event")
              == "point"]
    assert sorted(event["index"] for event in points) == [0, 1, 2, 3]
    for event in points:
        assert event["job"] == ack["job"]
        assert {"p_max", "p_min", "feasible"} <= set(event["point"])
        assert isinstance(event["at_ms"], int)


# ---------------------------------------------------------------------
# protocol-level errors
# ---------------------------------------------------------------------


def _raw_request(live: LiveServer, method: str, path: str,
                 body: bytes, headers: "dict[str, str]"):
    connection = http.client.HTTPConnection("127.0.0.1",
                                            live.server.port,
                                            timeout=30)
    try:
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def test_malformed_json_body_is_bad_request():
    with LiveServer() as live:
        status, doc = _raw_request(
            live, "POST", "/v1/solve", b"{not json",
            {"Content-Type": "application/json"})
    assert status == 400
    assert doc["error"]["code"] == "bad_request"


def test_oversized_body_is_payload_too_large():
    with LiveServer(ServingConfig(port=0, max_body=256)) as live:
        status, doc = _raw_request(
            live, "POST", "/v1/solve", b"x" * 1024,
            {"Content-Type": "application/json"})
    assert status == 413
    assert doc["error"]["code"] == "payload_too_large"


def test_chunked_transfer_encoding_is_rejected():
    with LiveServer() as live:
        status, doc = _raw_request(
            live, "POST", "/v1/solve", None,
            {"Transfer-Encoding": "chunked"})
    assert status == 400
    assert doc["error"]["code"] == "bad_request"
    assert "Content-Length" in doc["error"]["message"]


def test_unexpected_exception_maps_to_internal_500():
    with LiveServer() as live:
        live.server._health_doc = lambda: 1 / 0
        status, doc = live.client.request("GET", "/healthz")
    assert status == 500
    assert doc["error"]["code"] == "internal"


def test_unknown_route_is_not_found():
    with LiveServer() as live:
        with pytest.raises(ServingError) as err:
            live.client.checked("GET", "/v2/solve")
    assert err.value.code == "not_found"


# ---------------------------------------------------------------------
# engine hook
# ---------------------------------------------------------------------


def test_runner_on_result_sees_every_job_once():
    from repro.engine import BatchRunner, RunnerConfig, SolveJob
    problem = fig1_problem()
    jobs = [SolveJob(problem=problem.with_power_constraints(p, 4.0),
                     kind="sweep_point")
            for p in (12.0, 16.0, 16.0, 25.0)]
    seen: "list[tuple[int, bool]]" = []
    runner = BatchRunner(RunnerConfig(workers=0))
    results = runner.run(jobs,
                         on_result=lambda r: seen.append(
                             (r.position, r.ok)))
    assert sorted(position for position, _ok in seen) == [0, 1, 2, 3]
    assert all(ok for _position, ok in seen)
    assert len(results) == 4


# ---------------------------------------------------------------------
# serve trace artifact + CLI
# ---------------------------------------------------------------------


def test_serve_trace_artifact(tmp_path):
    trace_path = str(tmp_path / "serve-trace.json")
    with LiveServer(ServingConfig(port=0,
                                  trace_path=trace_path)) as live:
        live.client.solve(fig1_problem())
    with open(trace_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    assert doc["format"] == "repro-serve-trace"
    assert doc["version"] == 1
    assert doc["batches"] >= 1
    assert doc["jobs"] and doc["jobs"][0]["status"] == "done"
    assert doc["metrics"]["serving.http.requests"]["value"] >= 1


def test_cli_submit_solve_and_check(tmp_path, capsys):
    from repro.cli import main
    path = str(tmp_path / "fig1.json")
    save_problem(fig1_problem(), path)
    with LiveServer() as live:
        code = main(["submit", path, "--server", live.url, "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "check: ok" in out
        code = main(["submit", path, "--server", live.url,
                     "--budgets", "12,16", "--levels", "4,8",
                     "--events", "--check"])
        out = capsys.readouterr().out
    assert code == 0
    assert '"event": "done"' in out
    assert "served points" in out


def test_cli_submit_errored_job_exits_nonzero(tmp_path, capsys):
    from repro.cli import main
    path = str(tmp_path / "fig1.json")
    save_problem(fig1_problem(), path)
    with LiveServer() as live:
        code = main(["submit", path, "--server", live.url,
                     "--budgets", "12,16", "--levels", "4,8",
                     "--deadline-ms", "0"])
        captured = capsys.readouterr()
    assert code == 1
    assert "job failed [deadline_exceeded]" in captured.err


def test_cli_serve_store_round_trip(tmp_path, capsys):
    # --store persists the schedule store across server lifetimes.
    store_path = str(tmp_path / "store.json")
    problem = fig1_problem()
    config = ServingConfig(port=0, store_path=store_path,
                           reuse_policy="valid")
    with LiveServer(config) as live:
        live.client.solve(problem, p_max=16.0, p_min=14.0)
    assert os.path.exists(store_path)
    with LiveServer(config) as live:
        served = live.client.solve(problem, p_max=20.0, p_min=10.0)
    assert served["points"][0].get("reused") is True


# ---------------------------------------------------------------------
# doc conformance: replay every example in docs/serving.md
# ---------------------------------------------------------------------

_REQUEST_RE = re.compile(
    r"^Request: `(GET|POST|DELETE) ([^`]+)`(.*)$")
_RESPONSE_RE = re.compile(r"^Response: `(\d+)`")

#: Fields whose values vary run to run; checked by type, not value.
_VOLATILE = {"elapsed_ms", "at_ms", "message"}


def _read_fence(lines: "list[str]", start: int) \
        -> "tuple[str, list[str], int]":
    language = lines[start][3:].strip()
    body = []
    index = start + 1
    while not lines[index].startswith("```"):
        body.append(lines[index])
        index += 1
    return language, body, index + 1


def _parse_doc_examples(text: str):
    """Yield ``(method, path, body, status, language, block)`` for
    every Request/Response pair in the document, in order."""
    lines = text.splitlines()
    index, last_body = 0, None
    while index < len(lines):
        match = _REQUEST_RE.match(lines[index])
        if not match:
            index += 1
            continue
        method, path, suffix = match.groups()
        index += 1
        body = None
        while not _RESPONSE_RE.match(lines[index]):
            if lines[index].startswith("```json"):
                _lang, block, index = _read_fence(lines, index)
                body = json.loads("\n".join(block))
            else:
                index += 1
        if body is None and "same body as above" in suffix:
            body = last_body
        if body is not None:
            last_body = body
        status = int(_RESPONSE_RE.match(lines[index]).group(1))
        index += 1
        while not lines[index].startswith("```"):
            index += 1
        language, block, index = _read_fence(lines, index)
        yield method, path, body, status, language, block


def _assert_like_doc(expected, actual, where: str) -> None:
    """Structural equality with the documented volatility rules."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), where
        assert set(actual) == set(expected), \
            f"{where}: keys {sorted(actual)} != {sorted(expected)}"
        for key, value in expected.items():
            if key in _VOLATILE:
                assert isinstance(
                    actual[key],
                    str if isinstance(value, str) else (int, float)), \
                    f"{where}/{key}"
            else:
                _assert_like_doc(value, actual[key],
                                 f"{where}/{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) \
            and len(actual) == len(expected), where
        for position, (want, got) in enumerate(zip(expected, actual)):
            _assert_like_doc(want, got, f"{where}[{position}]")
    else:
        assert actual == expected, \
            f"{where}: {actual!r} != {expected!r}"


def test_doc_error_table_matches_error_codes():
    with open(DOC_PATH, encoding="utf-8") as handle:
        text = handle.read()
    rows = re.findall(r"^\| `(\w+)` \| (\d+) \|", text, flags=re.M)
    assert dict((code, int(status)) for code, status in rows) \
        == ERROR_CODES


class HeldReplay:
    """The doc replays' engine hold.

    Each ``POST /v1/sweep`` example runs its job's batch on a held
    engine, so the examples after it find the job running: a status
    poll, the event stream's header, a cancel.  Reading that header or
    replaying a ``DELETE`` releases the engine.
    """

    def __init__(self, runner: HeldRunner):
        self.runner = runner

    def request(self, client: ServingClient, method: str, path: str,
                body):
        """Replay one request example; returns ``(status, body)``."""
        sweep = (method, path) == ("POST", "/v1/sweep")
        if sweep:
            self.runner.hold()
        reply = client.request(method, path, body)
        if sweep:
            assert self.runner.holding.wait(10), "sweep never dispatched"
        elif method == "DELETE":
            self.runner.release.set()
        return reply

    def events(self, client: ServingClient, job_id: str) -> "list[dict]":
        """Replay an event-stream example: the header, read while the
        engine is held, then every record after the release."""
        stream = client.events(job_id)
        header = next(stream)
        self.runner.release.set()
        return [header, *stream]


def test_doc_conformance_replay():
    """Replay every example in docs/serving.md against a live server.

    The examples were recorded against ``ServingConfig(port=0)`` with
    each sweep's batch held as :class:`HeldReplay` holds it (as the
    doc states) and are replayed in document order, so job ids, batch
    numbers and cache hits are deterministic.
    """
    with open(DOC_PATH, encoding="utf-8") as handle:
        text = handle.read()
    examples = list(_parse_doc_examples(text))
    assert len(examples) >= 14, "doc lost its examples?"
    paths = {path for _m, path, *_rest in examples}
    for endpoint in ("/healthz", "/v1/solve", "/v1/sweep",
                     "/metrics"):
        assert endpoint in paths, f"no doc example for {endpoint}"

    runner = HeldRunner()
    replay = HeldReplay(runner)
    with LiveServer(runner=runner) as live:
        for method, path, body, status, language, block in examples:
            where = f"{method} {path} -> {status}"
            if language == "ndjson":
                records = [json.loads(line) for line in block if line]
                actual = replay.events(live.client, path.split("/")[3])
                _assert_like_doc(records, actual, where)
            elif language == "text":
                got_status, got_text = replay.request(
                    live.client, method, path, body)
                assert got_status == status, where
                got_lines = set(got_text.splitlines())
                for line in block:
                    if line.startswith("# TYPE"):
                        assert line in got_lines, \
                            f"{where}: missing {line!r}"
            else:
                got_status, got_doc = replay.request(
                    live.client, method, path, body)
                assert got_status == status, \
                    f"{where}: got {got_status} ({got_doc})"
                _assert_like_doc(json.loads("\n".join(block)),
                                 got_doc, where)


def test_doc_demo_problem_parses():
    """The compact demo problem embedded in the doc is a valid
    repro-problem document."""
    from repro.io import problem_from_dict
    with open(DOC_PATH, encoding="utf-8") as handle:
        text = handle.read()
    for _m, _p, body, _s, _lang, _block in _parse_doc_examples(text):
        if isinstance(body, dict) and "problem" in body:
            problem = problem_from_dict(body["problem"])
            assert problem_to_dict(problem)["name"] == \
                body["problem"]["name"]


# ---------------------------------------------------------------------
# truncated event streams
# ---------------------------------------------------------------------

class _OneShotStreamServer:
    """A raw socket server that sends a canned HTTP response and hangs up.

    Stands in for a solve server that dies mid-stream: the status line
    and headers are well-formed, the body is whatever the test wants —
    typically an NDJSON prefix with no terminal ``done`` record.
    """

    def __init__(self, body: bytes):
        import socket

        self._body = body
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(1)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self) -> None:
        connection, _addr = self._sock.accept()
        connection.recv(65536)  # drain the request; content is irrelevant
        head = (b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Content-Length: %d\r\n\r\n" % len(self._body))
        connection.sendall(head + self._body)
        connection.close()

    def __enter__(self) -> "_OneShotStreamServer":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._sock.close()
        self._thread.join(10)


def _stream_lines(*records: dict) -> bytes:
    return b"".join(json.dumps(record).encode() + b"\n"
                    for record in records)


def test_stream_without_terminal_event_raises_typed_error():
    from repro.serving import TruncatedStreamError

    body = _stream_lines(
        {"format": "repro-serve-events", "version": 1, "job": "j1"},
        {"event": "queued", "job": "j1"},
        {"event": "running", "job": "j1"})
    with _OneShotStreamServer(body) as fake:
        client = ServingClient(f"http://127.0.0.1:{fake.port}")
        with pytest.raises(TruncatedStreamError) as excinfo:
            for _event in client.events("j1"):
                pass
    error = excinfo.value
    assert error.code == "truncated_stream"
    assert error.job_id == "j1"
    assert error.events_seen == 3
    assert error.http_status is None
    assert isinstance(error, ServingError)
    assert "without a terminal 'done' event" in str(error)


def test_stream_cut_mid_record_raises_typed_error():
    from repro.serving import TruncatedStreamError

    body = _stream_lines(
        {"format": "repro-serve-events", "version": 1, "job": "j2"},
        {"event": "queued", "job": "j2"})
    body += b'{"event": "running", "jo'  # dies mid-record, no newline
    with _OneShotStreamServer(body) as fake:
        client = ServingClient(f"http://127.0.0.1:{fake.port}")
        seen = []
        with pytest.raises(TruncatedStreamError) as excinfo:
            for event in client.events("j2"):
                seen.append(event)
    # every complete event was still delivered before the error
    assert [record.get("event") for record in seen] == [None, "queued"]
    assert excinfo.value.events_seen == 2
    assert "cut off mid-line" in str(excinfo.value)


def test_wait_surfaces_truncated_stream():
    from repro.serving import TruncatedStreamError

    body = _stream_lines(
        {"format": "repro-serve-events", "version": 1, "job": "j3"},
        {"event": "queued", "job": "j3"})
    with _OneShotStreamServer(body) as fake:
        client = ServingClient(f"http://127.0.0.1:{fake.port}")
        with pytest.raises(TruncatedStreamError):
            client.wait("j3")


def test_live_stream_with_terminal_event_does_not_raise():
    problem = fig1_problem()
    with LiveServer() as live:
        ack = live.client.sweep(problem, points=[(10.0, 4.0)])
        events = list(live.client.events(ack["job"]))
    assert events[-1]["event"] == "done"
