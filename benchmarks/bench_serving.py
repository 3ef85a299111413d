"""Solve server — batched served throughput vs a cold request loop.

The serving layer's reason to exist is that clients share state: one
``POST /v1/sweep`` rides a single engine batch whose result cache and
validity-range schedule store (paper Section 5.3) eliminate most
pipeline solves, while a cold client looping ``POST /v1/solve`` once
per point pays connection + admission + dispatch for every point and
reuses nothing.  This bench serves the same 48-point grid both ways
through live servers and requires the batched path to be >= 2x the
cold loop while every served point stays power-valid; the numbers land in
``BENCH_serving.json`` for CI artifact upload and trending.
"""

import asyncio
import json
import threading
import time

from _bench_utils import write_artifact
from repro.serving import ServingClient, ServingConfig, SolveServer
from repro.workloads import RandomWorkloadConfig, random_problem

GRID_TASKS = 28
GRID_BUDGET_FACTORS = (0.85, 0.95, 1.05, 1.15, 1.3, 1.5, 1.75, 2.0)
GRID_LEVEL_FACTORS = (0.3, 0.26, 0.22, 0.18, 0.12, 0.06)


class _LiveServer:
    """A SolveServer on a background event loop (bench-local copy of
    the tests' fixture — benchmarks stay importable on their own)."""

    def __init__(self, config):
        self.config = config
        self.server = None

    async def _main(self, ready):
        self.server = SolveServer(self.config)
        await self.server.start()
        self._stop = asyncio.Event()
        ready.set()
        await self._stop.wait()
        await self.server.shutdown()

    def __enter__(self):
        ready = threading.Event()

        def run():
            self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self._main(ready))
            self._loop.close()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        assert ready.wait(10)
        self.client = ServingClient(
            f"http://127.0.0.1:{self.server.port}")
        return self

    def __exit__(self, *_exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)


def _grid():
    problem = random_problem(11, RandomWorkloadConfig(
        tasks=GRID_TASKS, resources=4, layers=5))
    base = problem.p_max
    budgets = [round(base * f, 2) for f in GRID_BUDGET_FACTORS]
    levels = [round(base * f, 2) for f in GRID_LEVEL_FACTORS]
    # Tightest-floor row first: a schedule solved at a high P_min covers
    # every looser point after it (its validity rectangle
    # [peak, inf) x (-inf, floor] — paper Section 5.3), which is the
    # sweep order an operator would pick for a store-backed server.
    points = [(pm, pn) for pn in levels for pm in budgets]
    assert len(points) == 48
    assert len(set(points)) == 48, "grid points must be distinct"
    return problem, points


def _strip_reuse_flags(point):
    return {key: value for key, value in point.items()
            if key not in ("cached", "reused")}


def _endpoint_latencies(snapshot):
    """Per-endpoint p50/p99 from ``serving.latency.*.seconds``
    histograms — the served-latency numbers the ROADMAP asked this
    bench to report alongside throughput."""
    prefix, suffix = "serving.latency.", ".seconds"
    table = {}
    for name, summary in snapshot.items():
        if not name.startswith(prefix) or not name.endswith(suffix):
            continue
        endpoint = name[len(prefix):-len(suffix)]
        table[endpoint] = {
            "count": summary.get("count", 0),
            "p50_ms": round(1000.0 * summary.get("p50", 0.0), 3),
            "p99_ms": round(1000.0 * summary.get("p99", 0.0), 3),
        }
    return table


def test_batched_serving_throughput(artifact_dir):
    """One batched sweep >= 2x a cold per-request loop, same points."""
    problem, points = _grid()

    # Cold path: 48 sequential /v1/solve requests, immediate dispatch,
    # no schedule reuse, every point distinct so the result cache never
    # helps across requests.
    cold_config = ServingConfig(port=0)
    with _LiveServer(cold_config) as cold:
        t0 = time.perf_counter()
        cold_points = []
        for p_max, p_min in points:
            response = cold.client.solve(problem, p_max=p_max,
                                         p_min=p_min)
            cold_points.extend(response["points"])
        cold_s = time.perf_counter() - t0
        cold_batches = cold.server.batcher.batches
    assert len(cold_points) == 48
    assert sum(1 for p in cold_points if p.get("cached")) == 0

    # Batched path: the same grid as ONE sweep on a store-enabled
    # server — intra-batch validity-rectangle reuse (Section 5.3)
    # plus amortized admission/dispatch.
    warm_config = ServingConfig(port=0, reuse_schedules=True,
                                reuse_policy="valid")
    with _LiveServer(warm_config) as warm:
        t0 = time.perf_counter()
        ack = warm.client.sweep(problem, points=points)
        final = warm.client.wait(ack["job"])
        batched_s = time.perf_counter() - t0
        reused = final["reused"]
        # Second submission of the same grid: fully warm, served from
        # the result cache without touching the pipeline at all.
        t0 = time.perf_counter()
        again = warm.client.wait(
            warm.client.sweep(problem, points=points)["job"])
        cached_s = time.perf_counter() - t0
        endpoint_latency = _endpoint_latencies(
            warm.server.metrics.snapshot())

    assert final["status"] == "done"
    # Reused points carry a schedule that is power-valid for their
    # rectangle but not re-optimized, so only freshly solved points are
    # bit-identical to the cold loop; reused ones must stay power-valid.
    assert len(final["points"]) == 48
    for served, cold_point in zip(final["points"], cold_points):
        if served.get("reused"):
            assert served["feasible"]
            assert served["peak_power"] <= served["p_max"] + 1e-9
        else:
            assert _strip_reuse_flags(served) \
                == _strip_reuse_flags(cold_point)
    assert reused > 0, "store must serve some covered points"
    assert again["cached"] == 48

    speedup = cold_s / batched_s
    doc = {
        "bench": "serving_throughput",
        "grid_points": len(points),
        "tasks": GRID_TASKS,
        "cold_loop_s": round(cold_s, 4),
        "cold_batches": cold_batches,
        "batched_sweep_s": round(batched_s, 4),
        "store_reused_points": reused,
        "speedup": round(speedup, 2),
        "cached_resweep_s": round(cached_s, 4),
        "cached_resweep_speedup": round(cold_s / cached_s, 2),
        "endpoint_latency": endpoint_latency,
    }
    assert "v1.sweep" in endpoint_latency
    assert endpoint_latency["v1.sweep"]["count"] >= 2
    write_artifact(artifact_dir, "BENCH_serving.json",
                   json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert speedup >= 2.0, (
        f"expected batched serving >= 2x the cold loop, got "
        f"{speedup:.2f}x ({cold_s:.2f}s vs {batched_s:.2f}s)")
