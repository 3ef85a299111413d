"""Differential + property tests for validity-range schedule reuse.

The engine's :class:`ScheduleStore` claims (paper Section 5.3) that a
schedule solved once covers every environment inside its
``[peak, inf) x (-inf, floor]`` rectangle.  These tests attack that
claim from four sides:

* **differential** — range-served sweep points must be *metric
  identical* (finish time, energy cost, utilization, peak) to a fresh
  pipeline solve of the same point, on the paper's Fig. 1 example and
  on randomized workloads alike;
* **oracle** — every schedule the store serves must pass the
  independent validators (:func:`check_power_valid`, full utilization)
  at the *query* environment, and its feasibility verdict must agree
  with the exhaustive :class:`OptimalScheduler` on small instances;
* **property-based** (hypothesis) — the validity-rectangle membership
  math itself: points inside always accepted, points just outside
  always rejected, and :meth:`ScheduleTable.select` refuses entries
  whose peak exceeds the budget;
* **parity** — a parallel run (worker snapshots + delta merge) must
  produce the same points and the same merged store as the serial run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConstraintGraph, SchedulingProblem
from repro.core.metrics import evaluate
from repro.core.profile import PowerProfile
from repro.core.validation import check_power_valid
from repro.engine import (BatchRunner, RunnerConfig, ScheduleStore,
                          SolveJob, StoredSchedule, problem_base_key)
from repro.errors import SerializationError
from repro.examples_data import fig1_options, fig1_problem
from repro.scheduling import (OptimalScheduler, ScheduleTable,
                              SchedulerOptions, TimingScheduler,
                              in_validity_range)
from repro.workloads import RandomWorkloadConfig, random_problem
from tests.test_power_aware_pipeline import idle_probe
from tests.test_properties import idle_power_twins

TOL = PowerProfile.POWER_TOL


def grid_jobs(problem, budgets, levels, options=None):
    """One sweep_point job per (P_max, P_min) grid point."""
    return [SolveJob(problem=problem.with_power_constraints(pm, pn),
                     options=options)
            for pm in budgets for pn in levels]


def environment_grid(problem, options=None):
    """A (budgets, levels) grid straddling the timing rectangle.

    Built from the instance's own timing-stage peak/floor so every
    workload — whatever its scale — gets points inside the certified
    rectangle (guaranteed range hits) and points outside it (guaranteed
    fresh solves).
    """
    timing = TimingScheduler(options or SchedulerOptions()) \
        .solve(problem)
    peak = timing.profile.peak()
    floor = timing.profile.floor()
    budgets = sorted({round(peak * f, 2)
                      for f in (0.85, 1.0, 1.25, 2.0)})
    levels = sorted({0.0, round(floor * 0.5, 2), round(floor, 2),
                     round(floor + 2.0, 2)})
    return budgets, levels


def assert_points_identical(reused, fresh):
    """Bit-for-bit comparison of two sweep point lists."""
    assert len(reused) == len(fresh)
    for a, b in zip(reused, fresh):
        assert a.p_max == b.p_max and a.p_min == b.p_min
        assert a.feasible == b.feasible
        assert a.finish_time == b.finish_time
        assert a.energy_cost == b.energy_cost
        assert a.utilization == b.utilization
        assert a.peak_power == b.peak_power


# ----------------------------------------------------------------------
# store unit behaviour
# ----------------------------------------------------------------------

class TestScheduleStore:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            ScheduleStore(policy="optimistic")

    def test_probe_is_counter_pure(self):
        store = ScheduleStore()
        problem = fig1_problem()
        key = store.ensure_primed(problem, fig1_options())
        before = store.counters()
        assert store.probe(key, 25.0, 0.0) is not None
        assert store.probe(key, 1.0, 99.0) is None
        after = store.counters()
        assert after == before  # probes never move counters

    def test_priming_is_idempotent(self):
        store = ScheduleStore()
        problem = fig1_problem()
        k1 = store.ensure_primed(problem, fig1_options())
        entries_after_first = len(store)
        k2 = store.ensure_primed(problem, fig1_options())
        assert k1 == k2
        assert len(store) == entries_after_first
        assert store.primes == 1

    def test_insert_dedupes_identical_starts(self):
        store = ScheduleStore()
        entry = StoredSchedule(label="x", stage="timing",
                               starts=(("a", 0), ("b", 5)),
                               makespan=10, peak=5.0, floor=2.0)
        clone = StoredSchedule(label="other-label", stage="min_power",
                               starts=(("a", 0), ("b", 5)),
                               makespan=10, peak=5.0, floor=2.0)
        assert store.insert("k", entry)
        assert not store.insert("k", clone)
        assert len(store) == 1
        assert store.counters()["deduped"] == 1

    def test_json_round_trip(self, tmp_path):
        store = ScheduleStore(policy="valid")
        problem = fig1_problem()
        store.ensure_primed(problem, fig1_options())
        path = str(tmp_path / "store.json")
        store.write(path)
        loaded = ScheduleStore.read(path)
        assert loaded.policy == "valid"
        assert len(loaded) == len(store)
        key = problem_base_key(problem, fig1_options(),
                               kind="sweep_point")
        original = store.probe(key, 25.0, 0.0)
        restored = loaded.probe(key, 25.0, 0.0)
        assert restored is not None
        assert restored.starts == original.starts
        assert restored.peak == original.peak
        assert restored.floor == original.floor

    def test_read_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "repro-trace", "version": 2}')
        with pytest.raises(SerializationError):
            ScheduleStore.read(str(path))
        path.write_text('{"format": "repro-schedule-store", '
                        '"version": 99}')
        with pytest.raises(SerializationError):
            ScheduleStore.read(str(path))

    def test_snapshot_is_isolated(self):
        parent = ScheduleStore()
        problem = fig1_problem()
        key = parent.ensure_primed(problem, fig1_options())
        snap = parent.snapshot()
        extra = StoredSchedule(label="w", stage="min_power",
                               starts=(("z", 0),), makespan=1,
                               peak=1.0, floor=0.5)
        snap.insert(key, extra)
        assert len(snap) == len(parent) + 1  # parent untouched
        # ...and the delta journal carries exactly the new entry
        delta = snap.drain_journal()
        assert [d["entry"]["label"] for d in delta] == ["w"]
        merged = parent.merge_delta(delta)
        assert merged == 1
        assert parent.merge_delta(delta) == 0  # second merge dedupes

    def test_identical_policy_serves_only_certified_entries(self):
        store = ScheduleStore(policy="identical")
        final = StoredSchedule(label="f", stage="min_power",
                               starts=(("a", 0),), makespan=5,
                               peak=4.0, floor=3.0)
        store.insert("k", final)
        assert store.probe("k", 10.0, 0.0) is None
        wide = ScheduleStore(policy="valid")
        wide.insert("k", final)
        assert wide.probe("k", 10.0, 0.0) is final

    def test_valid_policy_prefers_fastest_covering_entry(self):
        store = ScheduleStore(policy="valid")
        slow = StoredSchedule(label="slow", stage="min_power",
                              starts=(("a", 0),), makespan=20,
                              peak=4.0, floor=3.0)
        fast = StoredSchedule(label="fast", stage="timing",
                              starts=(("a", 1),), makespan=10,
                              peak=6.0, floor=3.0)
        store.insert("k", slow)
        store.insert("k", fast)
        assert store.probe("k", 10.0, 0.0).label == "fast"
        # budget below the fast entry's peak: only the slow one covers
        assert store.probe("k", 5.0, 0.0).label == "slow"


# ----------------------------------------------------------------------
# differential: range-served == fresh solve, bit for bit
# ----------------------------------------------------------------------

class TestDifferentialIdentical:
    def test_fig1_grid_bit_for_bit(self):
        """The acceptance grid: 10x10 over the Fig. 1 example."""
        problem = fig1_problem()
        options = fig1_options()
        budgets = [14.0 + i for i in range(10)]   # 14..23 (peak 19.5)
        levels = [5.0 + i for i in range(10)]     # 5..14  (floor 7.5)
        jobs = grid_jobs(problem, budgets, levels, options)

        fresh_runner = BatchRunner(RunnerConfig())
        fresh = fresh_runner.run_values(jobs)

        reuse_runner = BatchRunner(store=ScheduleStore())
        reused = reuse_runner.run_values(jobs)

        assert_points_identical(reused, fresh)
        trace = reuse_runner.last_trace
        assert trace.reuse is not None
        assert trace.reuse["range_hits"] > 0
        # strictly fewer solves than points swept
        assert trace.reuse["solved"] < len(jobs)
        assert trace.reuse["range_hits"] + trace.reuse["solved"] \
            == len(jobs)
        # per-job flags agree with the aggregate
        assert sum(job.reused for job in trace.jobs) \
            == trace.reuse["range_hits"]

    @pytest.mark.parametrize("seed,idle", [
        pytest.param(seed, idle, id=f"{seed}-idle" if idle else str(seed))
        for idle in (0.0, 1.5) for seed in (7, 21, 42, 1337)])
    def test_random_workloads_bit_for_bit(self, seed, idle):
        """Also with 1.5 W of idle power on the first resource (the
        ``-idle`` ids)."""
        config = RandomWorkloadConfig(tasks=10, resources=3, layers=3)
        problem = random_problem(seed, config)
        if idle:
            problem, _ = idle_power_twins(problem, idle)
        options = SchedulerOptions(seed=seed)
        budgets, levels = environment_grid(problem, options)
        jobs = grid_jobs(problem, budgets, levels, options)

        fresh = BatchRunner(RunnerConfig()).run_values(jobs)
        reuse_runner = BatchRunner(store=ScheduleStore())
        reused = reuse_runner.run_values(jobs)

        assert_points_identical(reused, fresh)
        assert reuse_runner.last_trace.reuse["range_hits"] > 0

    @pytest.mark.parametrize("reuse,policy", [(False, "identical"),
                                              (True, "identical"),
                                              (True, "valid")])
    def test_idle_power_sweep_ignores_reuse(self, reuse, policy):
        """The idle probe's side-by-side schedule peaks at 10 W, so
        both budgets keep it, whether the store serves the 10.5 W
        point or a fresh solve does."""
        jobs = grid_jobs(idle_probe(), [12.0, 10.5], [0.0])
        runner = BatchRunner(store=ScheduleStore(policy) if reuse
                             else None)
        points = runner.run_values(jobs)
        assert [(p.p_max, p.finish_time) for p in points] \
            == [(12.0, 5), (10.5, 5)]

    def test_warm_store_across_runs(self):
        """A store written by one run serves the next run's points."""
        problem = fig1_problem()
        options = fig1_options()
        jobs = grid_jobs(problem, [20.0, 22.0], [5.0, 7.0], options)
        first = BatchRunner(store=ScheduleStore())
        first.run(jobs)
        warm = ScheduleStore.from_dict(first.store.to_dict())
        second = BatchRunner(store=warm)
        fresh = BatchRunner(RunnerConfig()).run_values(jobs)
        assert_points_identical(second.run_values(jobs), fresh)
        # every point inside the certified rectangle: zero new solves
        assert second.last_trace.reuse["range_hits"] == len(jobs)


# ----------------------------------------------------------------------
# oracle cross-checks
# ----------------------------------------------------------------------

class TestOracle:
    def test_served_schedules_pass_independent_validators(self):
        """Whatever the store serves must satisfy the real constraint
        checkers at the *query* environment, under both policies."""
        problem = fig1_problem()
        options = fig1_options()
        for policy in ("identical", "valid"):
            store = ScheduleStore(policy=policy)
            key = store.ensure_primed(problem, options)
            # seed the store with a tighter-environment solve as well
            from repro.scheduling import PowerAwareScheduler
            result = PowerAwareScheduler(options).solve(problem)
            store.record_result(key, problem, result)
            for p_max in (14.0, 16.0, 19.5, 25.0):
                for p_min in (0.0, 7.5, 14.0):
                    entry = store.probe(key, p_max, p_min)
                    if entry is None:
                        continue
                    schedule = entry.rebuild(problem)
                    report = check_power_valid(
                        schedule, p_max, baseline=problem.baseline)
                    assert report.ok, report.failures
                    metrics = evaluate(schedule, p_max, p_min,
                                       baseline=problem.baseline)
                    assert metrics.utilization \
                        == pytest.approx(1.0)
                    assert metrics.peak_power <= p_max + TOL

    def test_feasibility_agrees_with_exhaustive_oracle(self):
        """On a tiny instance, every environment the store serves must
        be feasible per branch-and-bound — and the served finish time
        can never beat the oracle's optimum."""
        g = ConstraintGraph("oracle-tiny")
        g.new_task("a", duration=2, power=4.0, resource="A")
        g.new_task("b", duration=3, power=3.0, resource="B")
        g.new_task("c", duration=2, power=5.0, resource="A")
        g.add_precedence("a", "c")
        problem = SchedulingProblem(g, p_max=9.0, p_min=0.0,
                                    baseline=0.0)
        options = SchedulerOptions(seed=3)
        store = ScheduleStore()
        key = store.ensure_primed(problem, options)
        for p_max in (7.0, 8.0, 9.0, 12.0):
            entry = store.probe(key, p_max, 0.0)
            if entry is None:
                continue
            oracle = OptimalScheduler(objective="makespan").solve(
                problem.with_power_constraints(p_max, 0.0))
            assert oracle.schedule.makespan <= entry.makespan
            assert check_power_valid(
                entry.rebuild(problem), p_max,
                baseline=problem.baseline).ok


# ----------------------------------------------------------------------
# hypothesis: the validity-rectangle math itself
# ----------------------------------------------------------------------

finite = dict(allow_nan=False, allow_infinity=False)


class TestValidityRangeProperties:
    @given(peak=st.floats(min_value=0.0, max_value=1e3, **finite),
           margin=st.floats(min_value=0.0, max_value=1e3, **finite),
           dip=st.floats(min_value=0.0, max_value=1e3, **finite))
    @settings(max_examples=200, deadline=None)
    def test_inside_rectangle_always_accepted(self, peak, margin, dip):
        floor = peak  # any floor works; keep the state space small
        assert in_validity_range(peak, floor, peak + margin,
                                 floor - dip)

    @given(peak=st.floats(min_value=1.0, max_value=1e3, **finite),
           floor=st.floats(min_value=0.0, max_value=1e3, **finite),
           delta=st.floats(min_value=1e-6, max_value=1e3, **finite))
    @settings(max_examples=200, deadline=None)
    def test_outside_rectangle_always_rejected(self, peak, floor,
                                               delta):
        eps = max(delta, peak * 1e-9 * 4, floor * 1e-9 * 4)
        assert not in_validity_range(peak, floor, peak - eps, floor)
        assert not in_validity_range(peak, floor, peak + 1.0,
                                     floor + eps)

    @given(peak=st.floats(min_value=0.5, max_value=100.0, **finite),
           floor=st.floats(min_value=0.0, max_value=100.0, **finite),
           p_max=st.floats(min_value=0.0, max_value=200.0, **finite),
           p_min=st.floats(min_value=0.0, max_value=200.0, **finite))
    @settings(max_examples=300, deadline=None)
    def test_stored_schedule_covers_matches_module_predicate(
            self, peak, floor, p_max, p_min):
        entry = StoredSchedule(label="h", stage="timing",
                               starts=(("a", 0),), makespan=1,
                               peak=peak, floor=floor)
        assert entry.covers(p_max, p_min) \
            == in_validity_range(peak, floor, p_max, p_min)
        assert entry.min_p_max == peak
        assert entry.max_full_p_min == floor

    @given(budget_gap=st.floats(min_value=0.01, max_value=50.0,
                                **finite))
    @settings(max_examples=50, deadline=None)
    def test_table_select_rejects_budget_below_peak(self, budget_gap):
        """ScheduleTable.select must return None for any budget
        strictly below every entry's peak."""
        g = ConstraintGraph("select-reject")
        g.new_task("a", duration=3, power=6.0)
        problem = SchedulingProblem(g, p_max=10.0, p_min=0.0)
        from repro.core.schedule import Schedule
        table = ScheduleTable()
        entry = table.add("only", Schedule(problem.graph, {"a": 0}))
        below = entry.min_p_max - budget_gap
        if below + TOL >= entry.min_p_max:
            return  # gap swallowed by tolerance; nothing to assert
        assert table.select(below, 0.0) is None
        assert table.select(entry.min_p_max, 0.0) is entry


# ----------------------------------------------------------------------
# serial vs parallel parity
# ----------------------------------------------------------------------

class TestSerialParallelParity:
    def test_same_points_and_merged_store(self):
        problem = fig1_problem()
        options = fig1_options()
        budgets = [14.0, 16.0, 20.0, 22.0]
        levels = [5.0, 7.0, 10.0, 14.0]
        jobs = grid_jobs(problem, budgets, levels, options)

        serial = BatchRunner(RunnerConfig(workers=0),
                             store=ScheduleStore())
        serial_points = serial.run_values(jobs)

        parallel = BatchRunner(RunnerConfig(workers=2),
                               store=ScheduleStore())
        parallel_points = parallel.run_values(jobs)

        assert_points_identical(parallel_points, serial_points)
        # a pool that could not be created degrades to the serial loop,
        # which still must produce the same merged store
        assert parallel.last_mode in ("process", "serial-fallback")

        # merged stores agree: same base keys, same entry start-maps
        s_doc = serial.store.to_dict()["problems"]
        p_doc = parallel.store.to_dict()["problems"]
        assert set(s_doc) == set(p_doc)
        for base_key in s_doc:
            s_starts = {tuple(sorted(e["starts"].items()))
                        for e in s_doc[base_key]["entries"]}
            p_starts = {tuple(sorted(e["starts"].items()))
                        for e in p_doc[base_key]["entries"]}
            assert s_starts == p_starts
            # and no duplicate entries survived the merge
            assert len(p_starts) == len(p_doc[base_key]["entries"])

        assert serial.last_trace.reuse["range_hits"] \
            == parallel.last_trace.reuse["range_hits"]


# ----------------------------------------------------------------------
# the "valid" policy: paper semantics, weaker guarantee
# ----------------------------------------------------------------------

class TestValidPolicy:
    def test_served_points_are_valid_but_maybe_slower(self):
        """Under policy='valid' every served point is power-valid with
        full utilization; finish time may exceed the fresh solve's but
        never beats it (a served schedule is one the pipeline already
        found)."""
        problem = fig1_problem()
        options = fig1_options()
        budgets = [14.0, 16.0, 20.0, 25.0]
        levels = [5.0, 10.0, 14.0]
        jobs = grid_jobs(problem, budgets, levels, options)
        fresh = BatchRunner(RunnerConfig()).run_values(jobs)
        runner = BatchRunner(store=ScheduleStore("valid"))
        served = runner.run_values(jobs)
        for a, b in zip(served, fresh):
            assert a.feasible == b.feasible
            if not a.feasible:
                continue
            assert a.peak_power <= a.p_max + TOL
            assert a.utilization == pytest.approx(1.0)
            assert a.finish_time >= b.finish_time
        assert runner.last_trace.reuse["policy"] == "valid"
