"""Sharded sweeps — subprocess shard fan-out vs the serial sweep loop.

The ROADMAP's sharded-mission-sweeps item made concrete, in two parts:

* **Speedup.**  A 14x14 (P_max, P_min) grid fanned over 4 subprocess
  shards (:class:`SubprocessShardBackend`) with the validity-range
  schedule store must beat the plain serial sweep loop by at least 2x
  wall clock.  The grid's P_min band sits below the schedules' power
  floors, so stored schedules cover wide validity rectangles — the
  regime the store (paper Section 5.3) was built for — and each shard
  serves most of its tile from a handful of solves.

* **Locality.**  On a grid whose P_min band *straddles* the floors
  (reuse works between neighbors but not across the whole plane), the
  planner's ``tile`` strategy must win more range hits — and re-derive
  fewer duplicate schedules across shards — than dealing the same jobs
  ``round_robin``.  Contiguous power-plane tiles are exactly the
  neighborhoods validity rectangles cover; dealt shards solve the same
  points redundantly.

Everything here is deterministic (seeded workload, deterministic
partitions and solver), so the counter comparisons are exact, not
statistical.  Each part is its own test, so the locality counts are
checked wherever the wall-clock speedup is out of reach (a machine with
few cores).  Both write their section of ``BENCH_sharding.json`` for
CI artifact upload and trending.
"""

import json
import os
import time

from _bench_utils import write_artifact
from repro.analysis import format_table, sweep_grid
from repro.engine import (BatchRunner, ScheduleStore,
                          SubprocessShardBackend, SweepSpec)
from repro.workloads import RandomWorkloadConfig, random_problem

GRID_TASKS = 28
GRID_SIDE = 14
SHARDS = 4


def _problem():
    return random_problem(11, RandomWorkloadConfig(
        tasks=GRID_TASKS, resources=4, layers=5))


def _budgets(problem):
    base = problem.p_max
    return [round(base * (0.70 + 0.05 * index), 2)
            for index in range(GRID_SIDE)]


# P_min bands relative to the workload's schedule power floors (~3.2 W):
# REUSE_DENSE sits below them (wide validity rectangles, the speedup
# regime); FLOOR_STRADDLE crosses them (local-only reuse, the regime
# that separates tile from round_robin).
REUSE_DENSE_LEVELS = [round(0.5 + 0.28 * index, 2)
                      for index in range(GRID_SIDE)]
FLOOR_STRADDLE_LEVELS = [round(0.8 + 0.45 * index, 2)
                         for index in range(GRID_SIDE)]


def _sharded_run(jobs, strategy):
    runner = BatchRunner(
        store=ScheduleStore("valid"),
        backend=SubprocessShardBackend(shards=SHARDS,
                                       strategy=strategy))
    t0 = time.perf_counter()
    results = runner.run(jobs)
    elapsed = time.perf_counter() - t0
    assert runner.last_mode == "shards"
    return results, elapsed, dict(runner.last_trace.reuse)


def _record(artifact_dir, section, value):
    """Set one section of ``BENCH_sharding.json``, keeping the other
    test's section when the file already holds it."""
    path = os.path.join(artifact_dir, "BENCH_sharding.json")
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError):
        doc = {}
    doc.update({"bench": "sharding",
                "grid": {"points": GRID_SIDE * GRID_SIDE,
                         "side": GRID_SIDE, "tasks": GRID_TASKS},
                "shards": SHARDS, section: value})
    write_artifact(artifact_dir, "BENCH_sharding.json",
                   json.dumps(doc, indent=2, sort_keys=True))


def test_sharded_grid_speedup(artifact_dir):
    """4 subprocess shards >= 2x serial."""
    problem = _problem()
    budgets = _budgets(problem)
    jobs = SweepSpec.grid(problem, budgets, REUSE_DENSE_LEVELS).jobs()
    assert len(jobs) == GRID_SIDE * GRID_SIDE

    t0 = time.perf_counter()
    serial = sweep_grid(problem, budgets, REUSE_DENSE_LEVELS)
    serial_s = time.perf_counter() - t0

    results, sharded_s, reuse = _sharded_run(jobs, "tile")
    # the "valid" reuse policy may serve a covering schedule instead of
    # re-solving, so exact metrics can differ point to point — but the
    # feasibility frontier (the paper's Fig. 1 shape) must be identical
    assert [r.value.feasible for r in results] == \
        [point.feasible for point in serial]
    assert all(r.ok for r in results)
    speedup = serial_s / sharded_s
    assert speedup >= 2.0, (
        f"expected >= 2x over the serial sweep loop, got "
        f"{speedup:.2f}x ({serial_s:.2f}s vs {sharded_s:.2f}s)")

    _record(artifact_dir, "speedup", {
        "serial_s": round(serial_s, 3),
        "sharded_s": round(sharded_s, 3),
        "speedup": round(speedup, 2),
        "range_hits": reuse["range_hits"],
        "solved": reuse["solved"],
    })
    rows = [{"path": "serial sweep loop",
             "wall_s": round(serial_s, 2), "range_hits": "-",
             "solved": len(serial)},
            {"path": f"{SHARDS} shards (tile, reuse-dense)",
             "wall_s": round(sharded_s, 2),
             "range_hits": reuse["range_hits"],
             "solved": reuse["solved"]}]
    write_artifact(artifact_dir, "sharding_speedup.txt",
                   format_table(rows,
                                title=f"== {len(jobs)}-point grid: "
                                      f"{speedup:.2f}x at {SHARDS} "
                                      f"shards =="))


def test_tile_beats_round_robin(artifact_dir):
    """On the floor-straddling grid, tile lands more range hits, needs
    fewer solves and re-derives fewer duplicates than round_robin."""
    problem = _problem()
    straddle = SweepSpec.grid(problem, _budgets(problem),
                              FLOOR_STRADDLE_LEVELS).jobs()
    locality = {}
    for strategy in ("tile", "round_robin"):
        _results, elapsed, doc = _sharded_run(straddle, strategy)
        locality[strategy] = {"wall_s": round(elapsed, 3),
                              "range_hits": doc["range_hits"],
                              "solved": doc["solved"],
                              "deduped": doc["deduped"]}
    tile, dealt = locality["tile"], locality["round_robin"]
    assert tile["range_hits"] > dealt["range_hits"], (
        "contiguous power-plane tiles must land more range hits than "
        f"round-robin dealing, got {locality}")
    assert tile["solved"] < dealt["solved"], (
        f"tiling must need fewer fresh solves, got {locality}")
    assert tile["deduped"] < dealt["deduped"], (
        "dealt shards must re-derive more duplicate schedules, "
        f"got {locality}")
    _record(artifact_dir, "locality", locality)
