"""Property-based tests for scheduler-level invariants."""

from __future__ import annotations

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (PowerAwareScheduler, SchedulerOptions,
                   SchedulingFailure, check_power_valid, serial_schedule)
from repro.scheduling import (MaxPowerScheduler, SerialScheduler,
                              TimingScheduler)
from repro.workloads import RandomWorkloadConfig, random_problem
from tests.test_properties import (idle_power_twins, idle_watts,
                                   precedence_problems)

NO_EXTRAS = SchedulerOptions(max_power_restarts=1, compaction=False,
                             serial_fallback=False,
                             max_spike_attempts=300, seed=1)
WITH_COMPACTION = SchedulerOptions(max_power_restarts=1,
                                   compaction=True,
                                   serial_fallback=False,
                                   max_spike_attempts=300, seed=1)


class TestCompactionProperties:
    @given(precedence_problems())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_compaction_never_lengthens_and_stays_valid(self, problem):
        try:
            raw = MaxPowerScheduler(NO_EXTRAS).solve(problem)
            packed = MaxPowerScheduler(WITH_COMPACTION).solve(problem)
        except SchedulingFailure:
            return
        assert packed.finish_time <= raw.finish_time
        assert check_power_valid(packed.schedule, problem.p_max,
                                 baseline=problem.baseline).ok

    @given(precedence_problems())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_compaction_is_idempotent(self, problem):
        """Compacting an already-compacted graph moves nothing."""
        try:
            result = MaxPowerScheduler(WITH_COMPACTION).solve(problem)
        except SchedulingFailure:
            return
        scheduler = MaxPowerScheduler(WITH_COMPACTION)
        graph = result.extra["graph"]
        again = scheduler.compact(graph, problem)
        assert again == result.schedule


class TestSerialProperties:
    @given(precedence_problems())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_serial_is_packed_and_single_file(self, problem):
        """Without max windows or releases the serial schedule packs
        back to back: makespan == sum of durations, and at most one
        task is ever active."""
        try:
            result = serial_schedule(problem, SchedulerOptions(
                max_backtracks=2_000))
        except SchedulingFailure:
            return
        total = sum(t.duration for t in problem.graph.tasks())
        assert result.finish_time == total
        for t in range(result.finish_time):
            assert len(result.schedule.active_tasks(t)) <= 1

    @given(precedence_problems())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_serial_peak_is_single_task_peak(self, problem):
        try:
            result = serial_schedule(problem, SchedulerOptions(
                max_backtracks=2_000))
        except SchedulingFailure:
            return
        max_power = max((t.power for t in problem.graph.tasks()
                         if t.duration > 0), default=0.0)
        assert result.metrics.peak_power \
            <= max_power + problem.total_baseline + 1e-9


@st.composite
def budgeted_problems(draw):
    """Random problems (windows, releases), some with idle power on
    their first resource, under budgets from the tightest admissible
    one — the largest task power plus baseline and idle power, where
    repairs fail most — upward."""
    config = RandomWorkloadConfig(tasks=draw(st.integers(3, 10)),
                                  resources=draw(st.integers(1, 4)),
                                  layers=3)
    problem = random_problem(draw(st.integers(0, 10_000)), config)
    watts = draw(idle_watts)
    if watts:
        problem, _ = idle_power_twins(problem, watts)
    floor = max(t.power for t in problem.graph.tasks()) \
        + problem.total_baseline
    p_max = floor + draw(st.sampled_from([0.0, 0.5, 1.0, 2.5, 5.0, 10.0]))
    p_min = draw(st.sampled_from([0.0, 0.5, 1.0])) * p_max
    return problem.with_power_constraints(p_max, p_min)


def _max_power_outcome(problem, options):
    """The max-power schedule, or the failure's text."""
    try:
        return MaxPowerScheduler(options).solve(problem).schedule.as_dict()
    except SchedulingFailure as exc:
        return str(exc)


class TestSerialBoundProperties:
    @given(budgeted_problems(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_finish_by_never_changes_the_answer(self, problem, restarts):
        """The serial fallback's ``finish_by`` bound only skips searches
        that could not win: dropping it gives the same schedule, or the
        same failure."""
        options = SchedulerOptions(max_power_restarts=restarts,
                                   max_spike_attempts=300)
        solve = SerialScheduler.solve

        def unbounded(self, problem, finish_by=None):
            return solve(self, problem)

        bounded = _max_power_outcome(problem, options)
        with mock.patch.object(SerialScheduler, "solve", unbounded):
            assert _max_power_outcome(problem, options) == bounded


def _pipeline_answer(problem):
    """The pipeline's (schedule, energy cost), or None on failure."""
    try:
        result = PowerAwareScheduler().solve(problem)
    except SchedulingFailure:
        return None
    return result.schedule.as_dict(), result.energy_cost


class TestIdlePowerProperties:
    """Idle power is a constant load: the schedulers must see exactly
    what they would see with the same watts in ``baseline``."""

    @given(st.integers(0, 10_000), st.sampled_from([0.5, 1.5]))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_idle_power_answers_like_baseline(self, seed, watts):
        problem = random_problem(seed, RandomWorkloadConfig(
            tasks=10, resources=3, layers=3))
        idle, based = idle_power_twins(problem, watts)
        got, want = _pipeline_answer(idle), _pipeline_answer(based)
        if want is None:
            assert got is None
            return
        assert got is not None
        assert got[0] == want[0]
        assert abs(got[1] - want[1]) <= 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_no_repair_when_timing_is_power_valid(self, seed):
        """Under ``P_max`` at the timing schedule's own peak there is
        nothing to repair, so the max-power stage tries no delay."""
        problem, _ = idle_power_twins(random_problem(
            seed, RandomWorkloadConfig(tasks=8, resources=3, layers=3)),
            1.5)
        timing = TimingScheduler().solve(problem)
        at_peak = problem.with_power_constraints(timing.profile.peak(),
                                                 0.0)
        assert at_peak.check(timing.schedule).ok
        result = MaxPowerScheduler().solve(at_peak)
        assert result.stats.spike_attempts == 0
