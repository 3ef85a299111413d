"""Each schedule and profile is built once, and every derivation that
replaces a rebuild equals it.

DESIGN.md §5r: a profile is built in one pass, merging equal-power
neighbours as it sums; ``with_start`` and ``asap_schedule`` check only
what is new; spike repair hands on the schedule that cleared a slot,
and its profile, instead of asking for them again; and the min-power
stage keeps a reach table of its candidates that each accepted move
updates.  Every check below builds the same object the old way and
compares: profiles bit for bit, schedules start for start (insertion
order and makespan included), candidate lists in order.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (ConstraintGraph, PowerAwareScheduler, Resource,
                   Schedule, SchedulerOptions, SchedulingFailure,
                   SchedulingProblem)
from repro.core.longest_path import _full_longest_paths
from repro.core.profile import PowerProfile
from repro.core.slack import slack
from repro.core.tolerance import POWER_TOL
from repro.errors import ValidationError
from repro.mission import MarsRover
from repro.mission.rover import SolarCase
from repro.scheduling.max_power import MaxPowerScheduler
from repro.scheduling.min_power import MinPowerScheduler, _ReachTable
from repro.scheduling.timing import asap_schedule
from tests.test_one_start_moves import _grid28_points, _named_problems
from tests.test_properties import precedence_problems
from tests.test_scheduler_properties import budgeted_problems

_PROPERTY = settings(max_examples=30, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _bits(profile: PowerProfile) -> "tuple":
    """A profile's segments and baseline, each power as its exact bits
    (``float.hex`` tells -0.0 from 0.0)."""
    return ([(t0, t1, power.hex()) for t0, t1, power in profile.segments],
            profile.baseline.hex())


def _two_pass(schedule: Schedule, baseline: float = 0.0,
              horizon: "int | None" = None) -> PowerProfile:
    """The profile as it was built before: raw segments of the running
    level, then ``PowerProfile(segments)``, whose walk merges them."""
    baseline = baseline + schedule.graph.resources.total_idle_power
    tau = schedule.makespan
    horizon = tau if horizon is None else horizon
    if horizon == 0:
        return PowerProfile([], baseline=baseline)
    tasks = {task.name: task for task in schedule.graph.tasks()}
    deltas: "dict[int, float]" = {}
    for name, start in schedule.items():
        task = tasks[name]
        if task.duration == 0 or task.power == 0:
            continue
        end = start + task.duration
        deltas[start] = deltas.get(start, 0.0) + task.power
        deltas[end] = deltas.get(end, 0.0) - task.power
    segments = []
    level = baseline
    prev = 0
    for t in sorted(deltas):
        if t > prev:
            segments.append((prev, t, max(level, 0.0)))
            prev = t
        level += deltas[t]
    if prev < horizon:
        segments.append((prev, horizon, max(level, 0.0)))
    return PowerProfile(segments, baseline=baseline)


def _cold_asap(graph: ConstraintGraph) -> Schedule:
    """The ASAP schedule from a cold longest-path solve, through the
    checked constructor; the graph's memos are not touched."""
    full = _full_longest_paths(graph, list(graph._tasks))
    return Schedule(graph, {name: full.distance[name]
                            for name in graph.task_names()})


def _same_schedule(got: Schedule, want: Schedule) -> None:
    assert list(got.items()) == list(want.items())
    assert got.makespan == want.makespan
    assert got.graph is want.graph


# ---------------------------------------------------------------------
# one-pass profiles
# ---------------------------------------------------------------------

#: Powers that sum to levels within POWER_TOL of each other.
_powers = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 2.5,
                           1.0 + POWER_TOL / 3, 1.0 - POWER_TOL / 2,
                           0.3 + 0.9 * POWER_TOL, 4.0])


@st.composite
def _scheduled(draw):
    """A schedule of tasks, some of zero duration or power, some on a
    resource with idle power, plus a baseline and a horizon."""
    graph = ConstraintGraph("profile")
    idle = draw(st.sampled_from([0.0, 0.5, POWER_TOL / 4]))
    graph.declare_resource(Resource(name="R", idle_power=idle))
    starts = {}
    for index in range(draw(st.integers(0, 9))):
        name = f"t{index}"
        graph.new_task(name, duration=draw(st.integers(0, 6)),
                       power=draw(_powers),
                       resource="R" if draw(st.booleans()) else None)
        starts[name] = draw(st.integers(0, 12))
    schedule = Schedule(graph, starts)
    baseline = draw(st.sampled_from([0.0, -0.0, 0.25, -1.0, POWER_TOL]))
    horizon = draw(st.one_of(st.none(),
                             st.integers(0, 4).map(
                                 lambda extra: schedule.makespan + extra)))
    return schedule, baseline, horizon


class TestOnePassProfiles:
    @given(_scheduled())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_two_pass_build(self, drawn):
        schedule, baseline, horizon = drawn
        got = PowerProfile.from_schedule(schedule, baseline, horizon)
        want = _two_pass(schedule, baseline, horizon)
        assert _bits(got) == _bits(want)
        assert got._starts == want._starts

    @pytest.mark.parametrize("baseline", [-0.0, 0.0, -1.0, -2.5])
    def test_zero_and_clamped_levels(self, baseline):
        """Idle stretches, a level that sums back to exactly zero and
        levels clamped at zero, each against the two-pass build."""
        graph = ConstraintGraph("zero")
        graph.new_task("a", duration=2, power=1.0)
        graph.new_task("b", duration=3, power=2.0)
        graph.new_task("c", duration=1, power=0.5)
        schedule = Schedule(graph, {"a": 3, "b": 4, "c": 9})
        for horizon in (None, 12):
            got = PowerProfile.from_schedule(schedule, baseline, horizon)
            assert _bits(got) == _bits(_two_pass(schedule, baseline,
                                                 horizon))

    def test_the_checked_constructor_still_checks(self):
        for bad in ([(1, 2, 1.0)], [(0, 0, 1.0)], [(0, 2, -1.0)],
                    [(0, 2, 1.0), (3, 4, 1.0)]):
            with pytest.raises(ValidationError):
                PowerProfile(bad)


# ---------------------------------------------------------------------
# schedules that check only what is new
# ---------------------------------------------------------------------


class TestScheduleFastPaths:
    @given(_scheduled(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_with_start_equals_the_checked_constructor(self, drawn, data):
        schedule = drawn[0]
        if not len(schedule):
            return
        name = data.draw(st.sampled_from(list(schedule)))
        start = data.draw(st.integers(0, 20))
        if data.draw(st.booleans()):
            schedule.makespan           # a known makespan carries over
        moved = schedule.with_start(name, start)
        starts = schedule.as_dict()
        starts[name] = start
        _same_schedule(moved, Schedule(schedule.graph, starts))

    @given(budgeted_problems())
    @_PROPERTY
    def test_asap_schedule_equals_the_checked_constructor(self, problem):
        graph = problem.fresh_graph()
        got = asap_schedule(graph, probe=True)
        if got is None:
            return
        _same_schedule(got, _cold_asap(graph))

    def test_with_start_still_refuses_what_the_constructor_refuses(self):
        graph = ConstraintGraph("refuse")
        graph.new_task("a", duration=2, power=1.0)
        schedule = Schedule(graph, {"a": 0})
        for bad in (-1, 1.5, "3", None):
            with pytest.raises(ValidationError):
                schedule.with_start("a", bad)
        with pytest.raises(ValidationError):
            schedule.with_start("b", 1)
        moved = schedule.with_start("a", True)
        assert moved.start("a") == 1 and type(moved.start("a")) is int


# ---------------------------------------------------------------------
# spike repair hands on what it built
# ---------------------------------------------------------------------


def _handoffs_are_fresh(problem: SchedulingProblem,
                        options: "SchedulerOptions | None" = None) -> int:
    """Solve ``problem``.  Every schedule ``_clear_time`` hands on must
    be the ASAP schedule of its graph after the locks, and every
    schedule and profile handed to compaction and to the candidate pool
    a fresh build of the same.  Each repair level must start with the
    longest-path memo of its edge set, as when it asked for its
    schedule itself.  Returns the hand-offs checked."""
    clear_time = MaxPowerScheduler._clear_time
    compact = MaxPowerScheduler.compact
    restart = MaxPowerScheduler._restart
    repair = MaxPowerScheduler._repair
    checked = []

    def repaired(self, graph, problem, schedule):
        assert graph._current_state() is not None
        return repair(self, graph, problem, schedule)

    def cleared(self, graph, problem, *args, **kwargs):
        schedule = clear_time(self, graph, problem, *args, **kwargs)
        if schedule is not None:
            _same_schedule(schedule, _cold_asap(graph))
            checked.append("clear")
        return schedule

    def compacted(self, graph, problem, schedule=None, profile=None):
        if schedule is not None:
            _same_schedule(schedule, _cold_asap(graph))
            assert _bits(profile) == _bits(problem.profile(
                Schedule(graph, schedule.as_dict())))
            checked.append("compact")
        return compact(self, graph, problem, schedule, profile)

    def restarted(self, base_graph, problem, variant):
        outcome = restart(self, base_graph, problem, variant)
        if not isinstance(outcome, str):
            schedule, graph, profile = outcome
            _same_schedule(schedule, _cold_asap(graph))
            assert _bits(profile) == _bits(problem.profile(
                Schedule(graph, schedule.as_dict())))
            checked.append("consider")
        return outcome

    with mock.patch.object(MaxPowerScheduler, "_clear_time", cleared), \
            mock.patch.object(MaxPowerScheduler, "compact", compacted), \
            mock.patch.object(MaxPowerScheduler, "_restart", restarted), \
            mock.patch.object(MaxPowerScheduler, "_repair", repaired):
        try:
            PowerAwareScheduler(options or SchedulerOptions()).solve(
                problem)
        except SchedulingFailure:
            pass
    return len(checked)


class TestSpikeRepairHandOffs:
    @given(budgeted_problems())
    @_PROPERTY
    def test_budgeted_problems(self, problem):
        _handoffs_are_fresh(problem)

    @given(budgeted_problems())
    @_PROPERTY
    def test_without_compaction(self, problem):
        _handoffs_are_fresh(problem, SchedulerOptions(compaction=False))

    @pytest.mark.parametrize("case", list(SolarCase),
                             ids=lambda case: case.value)
    def test_the_rover(self, case):
        assert _handoffs_are_fresh(MarsRover.standard().problem(case)) > 0

    def test_pinned_grid28_points(self):
        assert sum(_handoffs_are_fresh(point)
                   for point in _grid28_points()[::3]) > 0


# ---------------------------------------------------------------------
# the gap-fill reach table
# ---------------------------------------------------------------------


def _old_rescan(schedule: Schedule, t: int) -> "list[str]":
    """The candidates for a gap at ``t`` as the stage found them before
    the reach table: every task rescanned, its slack read afresh."""
    out = []
    for name, start in schedule.items():
        task = schedule.graph.task(name)
        if task.duration == 0 or task.power == 0 or start > t:
            continue
        if t < start + task.duration:
            continue
        if slack(schedule, name) >= t - start - task.duration + 1:
            out.append((start, name))
    out.sort(key=lambda pair: (-pair[0], pair[1]))
    return [name for _, name in out]


def _reach_is_exact(problem: SchedulingProblem) -> int:
    """Solve ``problem``; at every gap visit the reach table must hold
    each filler task's start, finish and slack on a memo-free copy of
    the schedule, and name the old rescan's candidates in its order.
    Returns the gap visits checked."""
    fill_one_gap = MinPowerScheduler._fill_one_gap
    visits = []

    def checked(self, problem, schedule, profile, t, config, rng, rho,
                reach):
        fresh = Schedule(schedule.graph, schedule.as_dict())
        want = {}
        for name, start in fresh.items():
            task = fresh.graph.task(name)
            if task.duration and task.power:
                room = slack(fresh, name)
                finish = start + task.duration
                want[name] = (-start, name, finish, finish + room - 1)
        assert sorted(want.values()) == reach.rows
        assert reach.slack == {name: slack(fresh, name) for name in want}
        assert [row[1] for row in reach.candidates(t)] == \
            _old_rescan(fresh, t)
        visits.append(t)
        return fill_one_gap(self, problem, schedule, profile, t, config,
                            rng, rho, reach)

    with mock.patch.object(MinPowerScheduler, "_fill_one_gap", checked):
        try:
            PowerAwareScheduler().solve(problem)
        except SchedulingFailure:
            pass
    return len(visits)


class TestReachTable:
    @given(precedence_problems())
    @_PROPERTY
    def test_precedence_problems(self, problem):
        _reach_is_exact(problem)

    @given(budgeted_problems())
    @_PROPERTY
    def test_budgeted_problems(self, problem):
        _reach_is_exact(problem)

    @pytest.mark.parametrize("problem", _named_problems())
    def test_named_problems(self, problem):
        _reach_is_exact(problem)

    def test_pinned_grid28_points(self):
        visits = [_reach_is_exact(point) for point in _grid28_points()]
        assert len(visits) == 30 and sum(visits) > 0

    def test_a_move_rereads_only_tight_in_neighbours(self):
        """``b`` starts 1 after ``a`` ends, the least its edge allows, so
        delaying ``b`` by 2 gives ``a`` 2 ticks of slack, read again.
        ``d``'s edge into ``b`` is not its tightest (its edge into ``a``
        is), so ``d`` is not read again; ``b``'s own slack, its room
        before ``e``, falls by 2 without a read."""
        graph = ConstraintGraph("tight")
        graph.new_task("a", duration=2, power=1.0)
        graph.new_task("b", duration=2, power=1.0)
        graph.new_task("d", duration=1, power=1.0)
        graph.new_task("e", duration=1, power=1.0)
        graph.add_precedence("a", "b", gap=1)       # a -> b, weight 3
        graph.add_precedence("d", "b")              # d -> b, weight 1
        graph.add_min_separation("d", "a", 0)       # d -> a, weight 0
        graph.add_precedence("b", "e")              # b -> e, weight 2
        schedule = Schedule(graph, {"a": 0, "b": 3, "d": 0, "e": 8})
        reach = _ReachTable(schedule)
        assert reach.slack == {"a": 0, "b": 3, "d": 0, "e": 10 ** 9}
        moved = schedule.with_start("b", 5)
        with mock.patch("repro.scheduling.min_power.slack",
                        wraps=slack) as read:
            reach.move(schedule, moved, "b")
        assert [call.args[1] for call in read.call_args_list] == ["a"]
        assert reach.slack == {"a": 2, "b": 1, "d": 0, "e": 10 ** 9}
        fresh = Schedule(graph, moved.as_dict())
        assert reach.rows == _ReachTable(fresh).rows
        assert [[row[1] for row in reach.candidates(t)]
                for t in range(1, 9)] == \
            [_old_rescan(fresh, t) for t in range(1, 9)] == \
            [[], ["a"], ["a"], [], [], [], ["b"], []]
