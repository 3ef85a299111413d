"""Planner tests: sweep specs, shard partitions, manifest round trips.

The property tests pin the planner's core contract: **every partition
is a true partition** — no job dropped, no job duplicated, shard-local
order ascending — and merging shards by position restores the original
submission order exactly, for both strategies, any shard count, and
grids with the duplicate corners clamping produces.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (PARTITION_STRATEGIES, ScheduleStore,
                          SolveJob, SweepSpec, plan_shards,
                          problem_base_key)
from repro.examples_data import fig1_problem
from repro.io.shards import (load_manifest, manifest_from_dict,
                             manifest_to_dict, save_manifest)
from repro.scheduling import SchedulerOptions
from repro.workloads import RandomWorkloadConfig, random_problem

FIG1 = fig1_problem()
ALT = random_problem(5, RandomWorkloadConfig(tasks=6, resources=2,
                                             layers=2))


# ----------------------------------------------------------------------
# SweepSpec
# ----------------------------------------------------------------------

class TestSweepSpec:
    def test_points_clamp_like_sweep_grid(self):
        spec = SweepSpec.grid(FIG1, [10, 8], [4, 12])
        # row-major, levels clamped to each budget, duplicates kept
        assert spec.points() == [(10, 4), (10, 10), (8, 4), (8, 8)]

    def test_jobs_order_problems_outer(self):
        spec = SweepSpec.grid([FIG1, ALT], [10], [4, 6])
        jobs = spec.jobs()
        assert len(jobs) == 4
        assert [job.problem.name for job in jobs] == \
            [FIG1.name, FIG1.name, ALT.name, ALT.name]
        assert [(job.problem.p_max, job.problem.p_min)
                for job in jobs[:2]] == [(10, 4), (10, 6)]

    def test_jobs_share_workload_graph(self):
        spec = SweepSpec.grid(FIG1, [10, 12], [4])
        jobs = spec.jobs()
        assert jobs[0].problem.graph is jobs[1].problem.graph


# ----------------------------------------------------------------------
# partition properties
# ----------------------------------------------------------------------

@st.composite
def _planned_grids(draw):
    budgets = draw(st.lists(
        st.integers(min_value=4, max_value=30).map(float),
        min_size=1, max_size=6))
    levels = draw(st.lists(
        st.integers(min_value=1, max_value=30).map(float),
        min_size=1, max_size=6))
    problems = [FIG1, ALT][:draw(st.integers(min_value=1, max_value=2))]
    shards = draw(st.integers(min_value=1, max_value=6))
    strategy = draw(st.sampled_from(PARTITION_STRATEGIES))
    return problems, budgets, levels, shards, strategy


@given(_planned_grids())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_plan_is_true_partition(params):
    problems, budgets, levels, shards, strategy = params
    jobs = SweepSpec.grid(problems, budgets, levels).jobs()
    plan = plan_shards(jobs, shards, strategy)

    assert plan.shards == shards
    # no drop, no duplicate: the union of shard positions is exactly
    # the original index space
    assert plan.positions() == list(range(len(jobs)))
    # shard-local order is ascending global position
    for manifest in plan:
        positions = manifest.positions()
        assert positions == sorted(positions)
        # each position carries the job originally planned there
        for position, job in manifest.jobs:
            assert job is jobs[position]
    # stable ordering after a positional merge: identical to submission
    merged = sorted(
        ((position, job) for manifest in plan
         for position, job in manifest.jobs))
    assert [job for _position, job in merged] == jobs


@given(_planned_grids())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tile_strategy_keeps_workload_runs_contiguous(params):
    problems, budgets, levels, shards, _strategy = params
    jobs = SweepSpec.grid(problems, budgets, levels).jobs()
    plan = plan_shards(jobs, shards, "tile")

    def base_of(job):
        return problem_base_key(job.problem, job.options,
                                kind=job.kind)

    # the power-plane ordering each workload's tiles are cut from
    plane_order: "dict[str, list[int]]" = {}
    for position, job in enumerate(jobs):
        plane_order.setdefault(base_of(job), []).append(position)
    for base, positions in plane_order.items():
        positions.sort(key=lambda position: (
            jobs[position].problem.p_max,
            jobs[position].problem.p_min, position))
    for manifest in plan:
        by_base: "dict[str, set[int]]" = {}
        for position, job in manifest.jobs:
            by_base.setdefault(base_of(job), set()).add(position)
        for base, members in by_base.items():
            # one contiguous run (a tile) of the workload's
            # power-plane ordering per shard — the locality the
            # schedule store exploits
            ordered = plane_order[base]
            indices = sorted(ordered.index(position)
                             for position in members)
            assert indices == list(range(indices[0],
                                         indices[0] + len(indices)))


@given(_planned_grids())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_each_point_is_solved_by_one_shard(params):
    """Copies of one clamped grid point share a shard, so no job key
    appears in two manifests and no shard repeats another's solve."""
    problems, budgets, levels, shards, strategy = params
    jobs = SweepSpec.grid(problems, budgets, levels).jobs()
    plan = plan_shards(jobs, shards, strategy)
    keys = [{job.key() for _position, job in manifest.jobs}
            for manifest in plan]
    assert sum(map(len, keys)) == len(set().union(*keys))


def test_round_robin_deals_by_index():
    jobs = SweepSpec.grid(FIG1, [8, 10, 12], [2, 4]).jobs()
    plan = plan_shards(jobs, 2, "round_robin")
    assert plan.manifests[0].positions() == [0, 2, 4]
    assert plan.manifests[1].positions() == [1, 3, 5]


def test_empty_shards_are_legal():
    jobs = SweepSpec.grid(FIG1, [8], [2, 4]).jobs()
    plan = plan_shards(jobs, 4)
    assert plan.shards == 4
    assert sorted(len(m) for m in plan) == [0, 0, 1, 1]
    assert plan.positions() == [0, 1]


def test_plan_accepts_positioned_pairs():
    jobs = SweepSpec.grid(FIG1, [8, 10], [2]).jobs()
    plan = plan_shards([(7, jobs[0]), (3, jobs[1])], 2)
    assert plan.positions() == [3, 7]


def test_plan_rejects_bad_inputs():
    jobs = SweepSpec.grid(FIG1, [8], [2]).jobs()
    with pytest.raises(ValueError):
        plan_shards(jobs, 0)
    with pytest.raises(ValueError):
        plan_shards(jobs, 2, "diagonal")


# ----------------------------------------------------------------------
# manifest round trip
# ----------------------------------------------------------------------

class TestManifestRoundTrip:
    def test_round_trip_preserves_jobs_and_keys(self, tmp_path):
        options = SchedulerOptions(seed=11)
        jobs = SweepSpec.grid([FIG1, ALT], [8, 10], [2, 4],
                              options=options).jobs()
        store = ScheduleStore()
        store.ensure_primed(jobs[0].problem, options)
        plan = plan_shards(jobs, 2, "tile", sweep="grid",
                           runner={"retries": 2,
                                   "reuse_schedules": True,
                                   "reuse_policy": "identical",
                                   "instrument": False},
                           store=store.to_dict())
        for manifest in plan:
            path = tmp_path / f"m{manifest.index}.json"
            save_manifest(manifest, str(path))
            loaded = load_manifest(str(path))
            assert loaded.index == manifest.index
            assert loaded.of == manifest.of
            assert loaded.strategy == manifest.strategy
            assert loaded.sweep == "grid"
            assert loaded.runner == manifest.runner
            assert loaded.store == manifest.store
            assert loaded.positions() == manifest.positions()
            # the job keys — covering problem, options and kind — are
            # preserved bit for bit, so the rebuilt jobs solve
            # identically
            for (_p1, job), (_p2, rebuilt) in zip(manifest.jobs,
                                                  loaded.jobs):
                assert rebuilt.key() == job.key()

    def test_rebuilt_jobs_share_base_problem_graphs(self):
        jobs = SweepSpec.grid(FIG1, [8, 10, 12], [2]).jobs()
        manifest = plan_shards(jobs, 1).manifests[0]
        loaded = manifest_from_dict(manifest_to_dict(manifest))
        graphs = {id(job.problem.graph)
                  for _position, job in loaded.jobs}
        assert len(graphs) == 1

    def test_per_job_options_survive(self):
        jobs = [SolveJob(problem=FIG1.with_power_constraints(10, 2),
                         options=SchedulerOptions(seed=1)),
                SolveJob(problem=FIG1.with_power_constraints(12, 2),
                         options=SchedulerOptions(seed=2))]
        manifest = plan_shards(jobs, 1).manifests[0]
        loaded = manifest_from_dict(manifest_to_dict(manifest))
        assert [job.options.seed
                for _position, job in loaded.jobs] == [1, 2]
