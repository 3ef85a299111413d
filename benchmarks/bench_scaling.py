"""Scaled serving — the shared schedule store vs instance churn.

The horizontal tier's operational claim (docs/scaling.md) is that the
schedule-store service *outlives the instances*: a ``serve`` process
restarted behind the router comes back warm, because it pulls the
fleet's accumulated validity-rectangle entries at startup, while a
private store dies with its process.  This bench measures exactly
that story on live subprocess fleets: run a 48-point grid, rolling-
restart every serve member (the router and store service stay up),
and run the grid again.  ``1x-private`` and ``4x-private`` pay the
full solve bill twice; ``4x-shared`` pays it once and serves the
recovery wave from the service (``reused`` rows).  The headline
number is the **recovery speedup**: the post-restart wave on the
shared fleet vs the same wave on the single private instance.  (Total
times for both waves are recorded too, but cold-wave throughput is
hardware-dependent — N solver processes only beat one where there are
N cores to run them, while the store's recovery win holds even on the
single-core worker this bench must pass on.)  The bench requires the
recovery speedup, requires the recovery wave to be mostly store hits,
and requires every served point to stay power-valid.  Numbers land in
``BENCH_scaling.json`` for CI artifact upload and trending.
"""

import json
import os
import re
import subprocess
import sys
import threading
import time

from _bench_utils import write_artifact
from repro.engine import (BatchRunner, RemoteBackend, RunnerConfig,
                          ScheduleStore, SweepSpec)
from repro.scheduling import SchedulerOptions
from repro.serving import ServingClient, StoreClient
from repro.workloads import RandomWorkloadConfig, random_problem

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir))
GRID_TASKS = 28
#: Distinct workloads, each swept over a small (P_max, P_min) grid.
#: Validity rectangles never transfer across problems, so the fresh
#: solve bill per wave scales with the problem count — which is what
#: the shared store saves across the restart.
PROBLEMS = 12
GRID_BUDGET_FACTORS = (1.2, 1.6)
GRID_LEVEL_FACTORS = (0.18, 0.08)
SEED = 2001
SHARDS = 8
_BANNER = re.compile(r"listening on (http://[\d.:]+)")


def _spawn(*argv):
    """A ``repro-schedule`` subprocess; returns ``(proc, url)`` once
    its listening banner appears.  Remaining stdout is drained by a
    daemon thread so the pipe never backs the server up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") \
        + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 30.0
    while True:
        assert time.monotonic() < deadline, f"{argv[0]} never came up"
        line = proc.stdout.readline()
        assert line, f"{argv[0]} exited early (rc={proc.poll()})"
        match = _BANNER.search(line)
        if match:
            threading.Thread(target=proc.stdout.read,
                             daemon=True).start()
            return proc, match.group(1)


def _stop(proc):
    proc.terminate()
    try:
        proc.wait(10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(10)


class Fleet:
    """A live subprocess fleet: optional store service, N serve
    members, one router in front.  All reuse runs under the paper's
    wider ``valid`` policy — the store's operational value, which is
    what this bench prices, not bit-parity (tests/test_scaling.py
    pins that under ``identical``)."""

    def __init__(self, instances, shared_store):
        self.instances = instances
        self.shared_store = shared_store
        self.store_proc = None
        self.store_url = None
        self.members = []  # [(proc, url)]
        self.router_proc = None
        self.router_url = None

    def _member_argv(self, port):
        argv = ["serve", "--port", str(port), "--reuse-schedules",
                "--reuse-policy", "valid"]
        if self.store_url:
            argv += ["--store-url", self.store_url]
        return argv

    def __enter__(self):
        try:
            if self.shared_store:
                self.store_proc, self.store_url = _spawn(
                    "store-serve", "--port", "0",
                    "--reuse-policy", "valid")
            for _ in range(self.instances):
                self.members.append(_spawn(*self._member_argv(0)))
            self.router_proc, self.router_url = _spawn(
                "router", "--port", "0",
                "--members", ",".join(u for _p, u in self.members))
            self.wait_healthy()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *_exc):
        if self.router_proc is not None:
            _stop(self.router_proc)
        for proc, _url in self.members:
            _stop(proc)
        if self.store_proc is not None:
            _stop(self.store_proc)

    def wait_healthy(self):
        client = ServingClient(self.router_url)
        deadline = time.monotonic() + 30.0
        while True:
            doc = client.healthz()
            if doc["members"] == self.instances \
                    and doc["healthy"] == self.instances:
                return
            assert time.monotonic() < deadline, \
                f"fleet never became healthy: {doc}"
            time.sleep(0.2)

    def restart_members(self):
        """Rolling restart: replace every serve member with a fresh
        process on the same port (the router's member list is fixed at
        startup).  Private stores and result caches die here; the
        store service, if any, survives."""
        for proc, _url in self.members:
            _stop(proc)
        time.sleep(0.2)
        ports = [url.rsplit(":", 1)[1] for _proc, url in self.members]
        self.members = [_spawn(*self._member_argv(port))
                        for port in ports]
        self.wait_healthy()


def _fleet_workload():
    """One job list: PROBLEMS distinct workloads x a 2x2 power grid."""
    jobs = []
    for index in range(PROBLEMS):
        problem = random_problem(100 + index, RandomWorkloadConfig(
            tasks=GRID_TASKS, resources=4, layers=5))
        base = problem.p_max
        budgets = [round(base * f, 2) for f in GRID_BUDGET_FACTORS]
        levels = [round(base * f, 2) for f in GRID_LEVEL_FACTORS]
        jobs.extend(SweepSpec.grid(
            problem, budgets, levels,
            options=SchedulerOptions(seed=SEED)).jobs())
    return jobs


def _run_wave(router_url, jobs):
    runner = BatchRunner(
        RunnerConfig(retries=2), store=ScheduleStore(),
        backend=RemoteBackend([router_url], shards=SHARDS))
    t0 = time.perf_counter()
    results = runner.run(jobs)
    wall_s = time.perf_counter() - t0
    assert all(r.ok for r in results)
    # Whether solved fresh or served from a validity rectangle, every
    # point must respect its own power budget.
    for r in results:
        if r.value.feasible:
            assert r.value.peak_power <= r.value.p_max + 1e-9, r.value
    reused = sum(1 for r in results
                 if r.stats.get("reuse", {}).get("hit"))
    return wall_s, reused, len(results)


def _run_scenario(instances, shared_store, jobs):
    with Fleet(instances, shared_store) as fleet:
        wave1_s, reused1, n1 = _run_wave(fleet.router_url, jobs)
        t0 = time.perf_counter()
        fleet.restart_members()
        restart_s = time.perf_counter() - t0
        wave2_s, reused2, n2 = _run_wave(fleet.router_url, jobs)
        assert n1 == n2 == 48
        scenario = {
            "instances": instances,
            "shared_store": shared_store,
            "wave1_s": round(wave1_s, 4),
            "wave2_s": round(wave2_s, 4),
            "total_s": round(wave1_s + wave2_s, 4),
            "restart_s": round(restart_s, 4),
            "wave1_reused": reused1,
            "wave2_reused": reused2,
        }
        if shared_store:
            scenario["store_counters"] = StoreClient(
                fleet.store_url).snapshot()["store"]["counters"]
    return scenario


def test_shared_store_survives_instance_churn(artifact_dir):
    """4x-shared beats 1x-private across a rolling restart."""
    jobs = _fleet_workload()

    scenarios = {}
    for name, instances, shared in (("1x-private", 1, False),
                                    ("4x-private", 4, False),
                                    ("4x-shared", 4, True)):
        scenarios[name] = _run_scenario(instances, shared, jobs)

    # The restarted private fleets come back cold: their second wave
    # re-solves, reusing at most what the wave itself accumulates.
    # The shared fleet's members pull the service snapshot at startup
    # and serve the second wave mostly as store hits.
    shared = scenarios["4x-shared"]
    assert shared["wave2_reused"] >= 24, shared
    assert shared["store_counters"]["entries"] >= 1, shared
    assert shared["wave2_reused"] > \
        scenarios["1x-private"]["wave2_reused"], scenarios
    assert shared["wave2_reused"] > \
        scenarios["4x-private"]["wave2_reused"], scenarios

    speedup = scenarios["1x-private"]["wave2_s"] / shared["wave2_s"]
    doc = {
        "bench": "scaling",
        "grid_points": 48,
        "problems": PROBLEMS,
        "tasks": GRID_TASKS,
        "shards": SHARDS,
        "scenarios": scenarios,
        "speedup_shared4_vs_private1": round(speedup, 2),
        "speedup_shared4_vs_private4": round(
            scenarios["4x-private"]["wave2_s"] / shared["wave2_s"],
            2),
        "total_speedup_shared4_vs_private1": round(
            scenarios["1x-private"]["total_s"] / shared["total_s"],
            2),
    }
    write_artifact(artifact_dir, "BENCH_scaling.json",
                   json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert speedup >= 1.2, (
        f"expected the shared-store fleet to recover from the "
        f"restart faster than one private instance, got "
        f"{speedup:.2f}x ({scenarios['1x-private']['wave2_s']:.2f}s "
        f"vs {shared['wave2_s']:.2f}s)")
