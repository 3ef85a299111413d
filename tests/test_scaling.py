"""Tests for the horizontal-scaling tier (``docs/scaling.md``).

Covers the acceptance criteria of the scaled serving layer:

* the **store service** speaks ``repro-store-request`` v1 correctly
  (get-range / put-delta / snapshot, version gates, validation), and
  concurrent ``put-delta`` merges are order-independent — the service
  store equals an in-process :class:`ScheduleStore` fed the same
  deltas in any order (DESIGN.md 5e);
* two serve instances sharing one store service **reuse each other's
  validity-range entries**, and the reused rows are bit-identical;
* a sweep through the **router** over a shared-store fleet is
  bit-for-bit identical to the plain serial :class:`BatchRunner`;
* killing one of three subprocess members **mid-sweep** still yields
  bit-identical results (retry-and-reassignment) and benches the dead
  member;
* sticky session routing, id rewriting, and session idle-TTL GC;
* **doc conformance**: every example in ``docs/scaling.md`` is
  replayed against a live store + fleet + router stack, in document
  order, and must match.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.engine import (BatchRunner, RunnerConfig, SweepSpec,
                          canonical_store_doc)
from repro.engine.schedule_store import CERTIFIED_STAGE, ScheduleStore
from repro.examples_data import fig1_problem
from repro.io.requests import (ROUTER_MEMBERS_FORMAT,
                               STORE_RESPONSE_FORMAT,
                               STORE_RESPONSE_VERSION,
                               store_request_to_dict)
from repro.scheduling import SchedulerOptions
from repro.serving import (RemoteScheduleStore, Router, RouterConfig,
                           ServingClient, ServingConfig, ServingError,
                           SolveServer, StoreClient, StoreService,
                           StoreServiceConfig)

import tests.test_serving as serving_tests
from tests.test_serving import HeldReplay, HeldRunner, LiveServer, \
    _assert_like_doc, _parse_doc_examples

DOC_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                        "scaling.md")
REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir))

BUDGETS = [6, 7, 8, 9, 10, 11, 12, 13, 14, 16]
LEVELS = [1, 2, 3, 4, 5, 6, 7, 8, 10, 12]


class LiveService(LiveServer):
    """Any of the three async servers on a background thread's loop.

    Generalizes :class:`tests.test_serving.LiveServer` (which is
    hard-wired to :class:`SolveServer`) to a factory: pass a callable
    returning a started-but-not-yet-running :class:`SolveServer`,
    :class:`StoreService` or :class:`Router`.
    """

    def __init__(self, factory):
        super().__init__(ServingConfig(port=0))  # unused by _main
        self.factory = factory

    async def _main(self, ready: threading.Event) -> None:
        import asyncio
        self.server = self.factory()
        await self.server.start()
        self._stop = asyncio.Event()
        ready.set()
        await self._stop.wait()
        await self.server.shutdown()


class ScalingStack:
    """A full live tier: store service + N serves + a router."""

    def __init__(self, instances: int = 2, shared_store: bool = True,
                 serve_kwargs: "dict | None" = None,
                 router_kwargs: "dict | None" = None,
                 held_member: "int | None" = None):
        self.instances = instances
        self.shared_store = shared_store
        self.serve_kwargs = serve_kwargs or {}
        self.router_kwargs = router_kwargs or {}
        #: Member whose engine runs on a :class:`HeldRunner`
        #: (:attr:`held`); it needs the shared store.
        self.held_member = held_member
        self.held: "HeldRunner | None" = None
        self._exits = contextlib.ExitStack()

    def __enter__(self) -> "ScalingStack":
        self.store = self._exits.enter_context(LiveService(
            lambda: StoreService(StoreServiceConfig(port=0))))
        self.serves = []
        for index in range(self.instances):
            config = ServingConfig(
                port=0,
                store_url=self.store.url if self.shared_store
                else None,
                **self.serve_kwargs)
            runner = None
            if index == self.held_member:
                # The runner SolveServer builds for a store_url config.
                runner = self.held = HeldRunner(
                    RunnerConfig(instrument=True),
                    store=RemoteScheduleStore(self.store.url))
            self.serves.append(self._exits.enter_context(
                LiveService(lambda c=config, r=runner:
                            SolveServer(c, runner=r))))
        members = [serve.url for serve in self.serves]
        self.router = self._exits.enter_context(LiveService(
            lambda: Router(RouterConfig(port=0, members=members,
                                        **self.router_kwargs))))
        return self

    def __exit__(self, *exc) -> None:
        self._exits.close()


def _grid_jobs(budgets=BUDGETS, levels=LEVELS, seed=2001):
    """Wire-representable Fig. 1 grid jobs (seed-only options)."""
    spec = SweepSpec.grid(fig1_problem(), budgets, levels,
                          options=SchedulerOptions(seed=seed))
    return spec.jobs()


def _journal_delta(budgets, levels):
    """A shippable delta holding every entry a private run stored.

    (The runner drains its own journal per job, so rebuild the delta
    records from the settled store — same shape ``drain_journal``
    ships.)
    """
    runner = BatchRunner(store=ScheduleStore())
    runner.run(_grid_jobs(budgets, levels))
    return [{"base_key": base_key, "name": bucket.name,
             "entry": entry.to_dict()}
            for base_key, bucket in runner.store.problems.items()
            for entry in bucket.entries]


# ---------------------------------------------------------------------
# the store service protocol
# ---------------------------------------------------------------------


def test_store_service_roundtrip():
    delta = _journal_delta([10, 12], [4])
    assert delta, "a private run should journal its inserts"
    base_key = delta[0]["base_key"]
    certified = next(record for record in delta
                     if record["entry"]["stage"] == CERTIFIED_STAGE)
    entry = certified["entry"]

    with LiveService(lambda: StoreService(
            StoreServiceConfig(port=0))) as live:
        client = StoreClient(live.url)
        # Empty store: a covering probe misses.
        miss = client.get_range(base_key, entry["peak"] + 1.0,
                                entry["floor"])
        assert miss == {"format": STORE_RESPONSE_FORMAT,
                        "version": STORE_RESPONSE_VERSION,
                        "op": "get-range", "hit": False,
                        "base_key": base_key}
        # Push the journal; every record inserts.
        ack = client.put_delta(delta)
        assert ack["op"] == "put-delta"
        assert ack["merged"] == len(delta)
        assert ack["deduped"] == 0
        assert ack["entries"] == len(delta)
        # Idempotent: a re-push dedupes everything.
        again = client.put_delta(delta)
        assert again["merged"] == 0
        assert again["deduped"] == len(delta)
        assert again["entries"] == len(delta)
        # The certified timing entry answers covering probes...
        hit = client.get_range(base_key, entry["peak"] + 1.0,
                               entry["floor"])
        assert hit["hit"] is True
        assert hit["entry"] == entry
        assert hit["name"] == certified["name"]
        # ...and the powers-omitted prime probe.
        primed = client.get_range(base_key)
        assert primed["hit"] is True
        assert primed["entry"]["stage"] == CERTIFIED_STAGE
        # The snapshot round-trips to an equal store.
        snapshot = client.snapshot()
        assert snapshot["op"] == "snapshot"
        restored = ScheduleStore.from_dict(snapshot["store"])
        assert canonical_store_doc(restored) \
            == canonical_store_doc(live.server.store)
        # Liveness reports the policy and entry counts.
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["policy"] == "identical"
        assert health["entries"] == len(delta)


def test_store_service_validation():
    with LiveService(lambda: StoreService(
            StoreServiceConfig(port=0))) as live:
        client = ServingClient(live.url)
        good = store_request_to_dict("get-range", base_key="demo",
                                     p_max=12.0, p_min=4.0)
        # A version from the future is refused.
        futuristic = dict(good, version=99)
        status, doc = client.request("POST", "/v1/store/get-range",
                                     futuristic)
        assert status == 400
        assert doc["error"]["code"] == "unsupported_version"
        # The op must match the endpoint.
        status, doc = client.request("POST", "/v1/store/put-delta",
                                     good)
        assert status == 400
        assert doc["error"]["code"] == "bad_request"
        # get-range needs both powers or neither.
        lopsided = store_request_to_dict("get-range", base_key="demo")
        lopsided["p_max"] = 12.0
        status, doc = client.request("POST", "/v1/store/get-range",
                                     lopsided)
        assert status == 400
        assert doc["error"]["code"] == "bad_request"
        # A delta record needs a mapping entry.
        bad_delta = store_request_to_dict(
            "put-delta", delta=[{"base_key": "demo", "name": "d",
                                 "entry": "not-a-mapping"}])
        status, doc = client.request("POST", "/v1/store/put-delta",
                                     bad_delta)
        assert status == 400
        assert doc["error"]["code"] == "bad_request"
        # Wrong method and unknown route.
        status, doc = client.request("POST", "/v1/store/snapshot",
                                     good)
        assert status == 405
        assert doc["error"]["code"] == "method_not_allowed"
        status, doc = client.request("GET", "/v1/store/nope")
        assert status == 404
        assert doc["error"]["code"] == "not_found"


def _behavioral_store_doc(store: ScheduleStore) -> "dict":
    """:func:`canonical_store_doc` minus provenance.

    ``label``/``solved_p_max``/``solved_p_min`` record which job
    produced an entry; on a ``starts`` collision the first writer's
    provenance survives, so only the behavioral fields (starts, stage,
    validity rectangle, makespan) are merge-order-independent — which
    is exactly what probe answers are made of (DESIGN.md 5e).
    """
    doc = canonical_store_doc(store)
    for bucket in doc.get("problems", {}).values():
        bucket["entries"] = sorted(
            ({key: value for key, value in entry.items()
              if key not in ("label", "solved_p_max",
                             "solved_p_min")}
             for entry in bucket["entries"]),
            key=lambda entry: (entry["stage"],
                               sorted(entry["starts"].items())))
    return doc


def test_concurrent_put_delta_merges_commute():
    """N clients pushing overlapping deltas concurrently leave the
    service store behaviorally equal to an in-process store fed the
    same deltas in *reverse* order — the journal-dedupe merge
    commutes up to provenance (DESIGN.md 5e)."""
    slices = [[8], [10], [12], [14]]
    deltas = [_journal_delta(budgets, [2, 4, 6])
              for budgets in slices]
    # Every slice primes the same workload, so the certified entry
    # appears in several deltas — the dedupe path is exercised.
    reference = ScheduleStore(policy="identical")
    for delta in reversed(deltas):
        reference.merge_delta(delta)

    with LiveService(lambda: StoreService(
            StoreServiceConfig(port=0))) as live:
        barrier = threading.Barrier(len(deltas))
        failures = []

        def push(delta):
            client = StoreClient(live.url)
            try:
                barrier.wait(10)
                client.put_delta(delta)
            except Exception as exc:  # noqa: BLE001 - reraised below
                failures.append(exc)

        threads = [threading.Thread(target=push, args=(delta,))
                   for delta in deltas]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not failures
        assert _behavioral_store_doc(live.server.store) \
            == _behavioral_store_doc(reference)
        assert len(live.server.store) == len(reference)


# ---------------------------------------------------------------------
# shared-store serving
# ---------------------------------------------------------------------


def test_cross_instance_store_reuse_is_bit_identical():
    problem = fig1_problem()
    with LiveService(lambda: StoreService(
            StoreServiceConfig(port=0))) as store:
        config = ServingConfig(port=0, store_url=store.url)
        with LiveService(lambda: SolveServer(config)) as first, \
                LiveService(lambda: SolveServer(config)) as second:
            # Instance 1 pays for the priming solve; the covered
            # point (inside the certified rectangle) is served from
            # its store, which syncs to the service post-batch.
            cold = first.client.solve(problem, p_max=20.0, p_min=7.0)
            assert cold["status"] == "done"
            deadline = time.monotonic() + 10.0
            while len(store.server.store) == 0:
                assert time.monotonic() < deadline, \
                    "instance 1 never synced its journal"
                time.sleep(0.05)
            # Instance 2 has a cold local store: its hit comes over
            # the wire from the service.
            warm = second.client.solve(problem, p_max=20.0, p_min=7.0)
            assert warm["reused"] == 1
            assert warm["points"][0]["reused"] is True
            assert warm["points"][0]["finish_time"] \
                == cold["points"][0]["finish_time"]
            assert warm["points"][0]["energy_cost"] \
                == cold["points"][0]["energy_cost"]
            assert warm["points"][0]["peak_power"] \
                == cold["points"][0]["peak_power"]
            deadline = time.monotonic() + 10.0
            while True:
                text = second.client.metrics_text()
                match = re.search(
                    r"^repro_store_remote_hits (\d+)", text, re.M)
                if match and int(match.group(1)) >= 1:
                    break
                assert time.monotonic() < deadline, \
                    "no store.remote_hits on instance 2"
                time.sleep(0.05)


def test_router_shared_store_sweep_matches_serial(monkeypatch):
    from repro.engine import RemoteBackend

    jobs = _grid_jobs()
    serial = BatchRunner(RunnerConfig())
    base = serial.run(jobs)
    with ScalingStack(instances=2) as stack:
        runner = BatchRunner(
            RunnerConfig(),
            backend=RemoteBackend([stack.router.url], shards=4))
        results = runner.run(jobs)
        assert runner.last_mode == "remote"
        assert [r.value for r in results] == [r.value for r in base]
        assert all(r.ok for r in results)
        # The router actually balanced: every member took sweeps.
        client = ServingClient(stack.router.url)
        members = client.checked("GET", "/v1/router/members")
        assert members["format"] == ROUTER_MEMBERS_FORMAT
        assert len(members["members"]) == 2
        assert all(member["jobs"] >= 1
                   for member in members["members"])
        # The fleet shared one store: the service saw traffic.
        assert len(stack.store.server.store) > 0


# ---------------------------------------------------------------------
# retry-and-reassignment: a member dies mid-sweep
# ---------------------------------------------------------------------


def _spawn_serve_member() -> "tuple[subprocess.Popen, str]":
    """A ``repro-schedule serve`` subprocess; returns (proc, url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") \
        + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 30.0
    while True:
        assert time.monotonic() < deadline, "member never came up"
        line = proc.stdout.readline()
        assert line, f"member exited early (rc={proc.poll()})"
        match = re.search(r"listening on (http://[\d.:]+)", line)
        if match:
            return proc, match.group(1)


def test_router_shutdown_returns_while_probes_run():
    """Shutdown ends the health loop even when its cancel lands as a
    probe's ``wait_for`` completes (Python 3.11 drops such a cancel):
    50 start/stop cycles on one event loop, probing a stub member every
    0.5 ms, each shutdown within one interval plus one probe
    timeout."""
    import asyncio

    async def stub(reader, writer):
        await reader.readuntil(b"\r\n\r\n")
        writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                     b"Connection: close\r\n\r\n{}")
        await writer.drain()
        writer.close()

    async def cycles():
        member = await asyncio.start_server(stub, "127.0.0.1", 0)
        port = member.sockets[0].getsockname()[1]
        probes = 0
        try:
            for cycle in range(50):
                config = RouterConfig(
                    port=0, members=[f"http://127.0.0.1:{port}"],
                    health_interval_s=0.0005, timeout=1.0)
                router = Router(config)
                await router.start()
                # Let probes start, then cancel at a different loop
                # iteration each cycle.
                await asyncio.sleep(0.001)
                for _ in range(cycle % 17):
                    await asyncio.sleep(0)
                await asyncio.wait_for(
                    router.shutdown(),
                    config.health_interval_s + config.timeout)
                if router.members[0].last_ok_unix is not None:
                    probes += 1
        finally:
            member.close()
            await member.wait_closed()
        return probes

    # A hang must fail the test, not the run: the loop lives on a
    # daemon thread.
    outcome = {}
    worker = threading.Thread(
        target=lambda: outcome.update(probes=asyncio.run(cycles())),
        daemon=True)
    worker.start()
    worker.join(60)
    assert not worker.is_alive(), "a router shutdown hung"
    assert outcome["probes"] > 0


def test_router_reassigns_after_member_death():
    """Kill one of three subprocess members mid-sweep: the run must
    still be bit-identical to serial, and the router must bench the
    corpse."""
    jobs = _grid_jobs()
    serial = BatchRunner(RunnerConfig())
    base = serial.run(jobs)

    members = [_spawn_serve_member() for _ in range(3)]
    try:
        urls = [url for _proc, url in members]
        victim = members[1][0]
        with LiveService(lambda: Router(RouterConfig(
                port=0, members=urls, retries=3,
                health_interval_s=0.2,
                fail_threshold=2))) as router:
            from repro.engine import RemoteBackend

            def assassinate():
                time.sleep(0.3)
                victim.send_signal(signal.SIGKILL)

            killer = threading.Thread(target=assassinate)
            killer.start()
            runner = BatchRunner(
                RunnerConfig(retries=3),
                backend=RemoteBackend([router.url], shards=6))
            results = runner.run(jobs)
            killer.join(10)
            victim.wait(10)

            assert all(r.ok for r in results)
            assert [r.value for r in results] \
                == [r.value for r in base]
            # The health loop benches the dead member.
            client = ServingClient(router.url)
            deadline = time.monotonic() + 15.0
            while True:
                doc = client.checked("GET", "/v1/router/members")
                down = [m["member"] for m in doc["members"]
                        if not m["healthy"]]
                if down:
                    break
                assert time.monotonic() < deadline, \
                    "dead member never benched"
                time.sleep(0.2)
            assert down == ["m1"]
            health = client.healthz()
            assert health == {"status": "degraded", "members": 3,
                              "healthy": 2}
    finally:
        for proc, _url in members:
            if proc.poll() is None:
                proc.kill()
            proc.wait(10)
            proc.stdout.close()


# ---------------------------------------------------------------------
# sticky routing: sessions and jobs live on one member
# ---------------------------------------------------------------------


def test_router_sticky_sessions_and_id_rewrite():
    with ScalingStack(instances=2, shared_store=False) as stack:
        client = ServingClient(stack.router.url)
        first = client.open_session(12.0, p_min=2.0)
        second = client.open_session(12.0, p_min=2.0)
        # Round-robin: the two opens land on different members, and
        # the ids come back tagged with the owner.
        prefixes = {first["session"].split("-", 1)[0],
                    second["session"].split("-", 1)[0]}
        assert prefixes == {"m0", "m1"}
        # Status and close route back to the owning member, with the
        # tag preserved on the way out.
        status = client.session(first["session"])
        assert status["session"] == first["session"]
        # The NDJSON event stream relays through the router with the
        # same rewrite on its header record.
        events = client.session_apply(
            first["session"],
            [{"event": "arrival",
              "task": {"name": "t0", "duration": 2, "power": 4.0}}])
        assert events[0]["session"] == first["session"]
        assert events[-1]["event"] == "end"
        closed = client.close_session(second["session"])
        assert closed["session"] == second["session"]
        # An id naming no member of this router is a 404.
        with pytest.raises(ServingError) as err:
            client.session("m7-s-000001")
        assert err.value.code == "not_found"
        with pytest.raises(ServingError) as err:
            client.job("j-000001")  # untagged: not router-issued
        assert err.value.code == "not_found"
        # Flight recorders are per-instance, not proxied.
        with pytest.raises(ServingError) as err:
            client.debug_requests()
        assert err.value.code == "not_found"
        # ...but remain reachable on the member itself.
        assert "requests" in stack.serves[0].client.debug_requests()


# ---------------------------------------------------------------------
# session GC: idle sessions are evicted after the TTL
# ---------------------------------------------------------------------


def test_session_ttl_evicts_idle_sessions():
    config = ServingConfig(port=0, session_ttl_s=0.3)
    with LiveServer(config) as live:
        ack = live.client.open_session(12.0, p_min=2.0)
        session_id = ack["session"]
        assert live.client.session(session_id)["session"] \
            == session_id
        # Watch the metric, not the session — a status poll counts as
        # activity and would keep resetting the idle clock.
        deadline = time.monotonic() + 10.0
        while True:
            text = live.client.metrics_text()
            match = re.search(r"^repro_session_evicted (\d+)", text,
                              re.M)
            if match and int(match.group(1)) >= 1:
                break
            assert time.monotonic() < deadline, \
                "idle session never evicted"
            time.sleep(0.1)
        with pytest.raises(ServingError) as err:
            live.client.session(session_id)
        assert err.value.code == "not_found"


def test_active_sessions_survive_the_ttl():
    config = ServingConfig(port=0, session_ttl_s=0.5)
    with LiveServer(config) as live:
        ack = live.client.open_session(12.0, p_min=2.0)
        session_id = ack["session"]
        # Keep touching the session for several TTLs.
        for _ in range(8):
            time.sleep(0.15)
            assert live.client.session(session_id)["session"] \
                == session_id
        live.client.close_session(session_id)


# ---------------------------------------------------------------------
# doc conformance: replay every example in docs/scaling.md
# ---------------------------------------------------------------------

#: Scaling-doc fields that vary run to run, beyond the serving set:
#: probe timestamps and the members' ephemeral ports.
_SCALING_VOLATILE = {"last_ok_unix", "url"}


def test_doc_conformance_scaling(monkeypatch):
    """Replay every example in docs/scaling.md against a live stack.

    The examples were recorded against the exact stack the doc
    describes — one store service, two ``ServingConfig(port=0)``
    members sharing it, member ``m1``'s sweep batch held as
    :class:`HeldReplay` holds it, and a router with health probes
    slowed to keep the recording deterministic — and are replayed in
    document order, so member assignment (round-robin from m0), job
    ids and store contents are deterministic.

    Store-service examples are addressed by path (``/v1/store/*``);
    everything else goes through the router.
    """
    monkeypatch.setattr(
        serving_tests, "_VOLATILE",
        serving_tests._VOLATILE | _SCALING_VOLATILE)
    with open(DOC_PATH, encoding="utf-8") as handle:
        text = handle.read()
    examples = list(_parse_doc_examples(text))
    assert len(examples) >= 12, "doc lost its examples?"
    paths = {path for _m, path, *_rest in examples}
    for endpoint in ("/healthz", "/v1/store/get-range",
                     "/v1/store/put-delta", "/v1/solve", "/v1/sweep",
                     "/v1/router/members", "/metrics"):
        assert endpoint in paths, f"no doc example for {endpoint}"

    with ScalingStack(
            instances=2, held_member=1,
            router_kwargs={"health_interval_s": 3600.0}) as stack:
        replay = HeldReplay(stack.held)
        router_client = ServingClient(stack.router.url)
        store_client = ServingClient(stack.store.url)
        for method, path, body, status, language, block in examples:
            where = f"{method} {path} -> {status}"
            client = store_client if path.startswith("/v1/store/") \
                else router_client
            if language == "ndjson":
                records = [json.loads(line) for line in block if line]
                actual = replay.events(router_client,
                                       path.split("/")[3])
                _assert_like_doc(records, actual, where)
            elif language == "text":
                got_status, got_text = replay.request(
                    client, method, path, body)
                assert got_status == status, where
                got_lines = set(got_text.splitlines())
                for line in block:
                    if line.startswith("# TYPE"):
                        assert line in got_lines, \
                            f"{where}: missing {line!r}"
            else:
                got_status, got_doc = replay.request(
                    client, method, path, body)
                assert got_status == status, \
                    f"{where}: got {got_status} ({got_doc})"
                _assert_like_doc(json.loads("\n".join(block)),
                                 got_doc, where)


def test_doc_cli_examples_parse():
    """Every ``repro-schedule ...`` line in docs/scaling.md is a
    valid invocation of the real CLI parser."""
    from repro.cli import build_parser
    with open(DOC_PATH, encoding="utf-8") as handle:
        text = handle.read()
    lines = [line.strip().lstrip("$ ").strip()
             for line in text.splitlines()
             if line.strip().lstrip("$ ").startswith(
                 "repro-schedule ")]
    assert len(lines) >= 4, "doc lost its CLI examples?"
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:  # argparse error path
            pytest.fail(f"doc CLI example does not parse: {line}")
