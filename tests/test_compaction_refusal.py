"""Compaction refuses tries it can prove hopeless; restarts that would
only replay restart 0 do not run.

DESIGN.md §5p.  A compaction try weakens one task's release edge and
keeps the first trial (the removal, then each boundary start) whose
schedule is power-valid and finishes in time.  ``_hopeless`` reads the
current schedule, its profile and the longest-path memo: only the
task's predecessor subtree can move, so the task lands in a window
``[earliest, release)`` where every slot keeps the power of every task
outside the subtree.  When each slot of that window would spike, every
trial fails, and the try is refused without an edit.

The differential checks run each refused try the long way on the same
graph: it must fail and leave the edge set and journal as they were.
They run on the property suites' random problems (idle power
included), Fig. 1, three rover cases, the 30 grid28 points of
``tests/test_pinned_answers.py`` and the first 20 rover arrivals.
"""

from __future__ import annotations

import functools
import random
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (ConstraintGraph, PowerAwareScheduler, SchedulerOptions,
                   SchedulingFailure, SchedulingProblem)
from repro.core.longest_path import lp_counter_snapshot, lp_counters_delta
from repro.core.task import ANCHOR_NAME
from repro.core.tolerance import POWER_TOL
from repro.examples_data import fig1_problem
from repro.mission import MarsRover
from repro.mission.rover import SolarCase
from repro.scheduling.max_power import MaxPowerScheduler, _Compaction
from tests.test_one_start_moves import _grid28_points
from tests.test_properties import precedence_problems
from tests.test_scheduler_properties import budgeted_problems

_PROPERTY = settings(max_examples=30, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _named_problems():
    rover = MarsRover.standard()
    return [pytest.param(fig1_problem(), id="fig1")] + [
        pytest.param(rover.problem(case), id=f"rover-{case.name.lower()}")
        for case in (SolarCase.TYPICAL, SolarCase.BEST, SolarCase.WORST)]


@functools.lru_cache(maxsize=1)
def _rover_stream():
    """The first 20 arrivals of perfbench's ``session-rover`` stream."""
    from repro.online import (MissionSession, SessionConfig,
                              arrivals_from_problem)

    rover = MarsRover.standard()
    problem = rover.problem(
        SolarCase.TYPICAL,
        graph=rover.unrolled_graph(SolarCase.TYPICAL, iterations=5))
    arrivals = arrivals_from_problem(problem, quiesce=False)[:20]
    config = SessionConfig(p_max=problem.p_max, p_min=problem.p_min,
                           baseline=problem.baseline,
                           options=SchedulerOptions(), name="refusal")
    return config, arrivals, MissionSession


def _replay_stream() -> None:
    config, arrivals, session_type = _rover_stream()
    session = session_type(config)
    for arrival in arrivals:
        session.apply(arrival)
    assert len(session.admitted) == len(arrivals)


def _solve(problem: SchedulingProblem,
           options: "SchedulerOptions | None" = None) -> None:
    try:
        PowerAwareScheduler(options).solve(problem)
    except SchedulingFailure:
        pass


# ---------------------------------------------------------------------
# every refused try fails the long way
# ---------------------------------------------------------------------


def _refusals_fail(run) -> "tuple[int, int]":
    """Call ``run()``; every try ``_hopeless`` refuses also runs through
    ``_relax_release`` on the same graph, with no finish-time limit, and
    must fail there and leave the edge set and the journal length as
    they were.  Returns the tries and the refusals seen."""
    hopeless = MaxPowerScheduler._hopeless
    seen = [0, 0]

    def checked(self, graph, problem, name, current):
        refused = hopeless(self, graph, problem, name, current)
        seen[0] += 1
        if refused:
            seen[1] += 1
            edges, length = dict(graph._edges), len(graph._journal)
            assert self._relax_release(graph, problem, name,
                                       sys.maxsize) is None
            assert graph._edges == edges
            assert len(graph._journal) == length
        return refused

    with mock.patch.object(MaxPowerScheduler, "_hopeless", checked):
        run()
    return seen[0], seen[1]


class TestRefusalsFail:
    @given(precedence_problems())
    @_PROPERTY
    def test_precedence_problems(self, problem):
        _refusals_fail(lambda: _solve(problem))

    @given(budgeted_problems())
    @_PROPERTY
    def test_budgeted_problems(self, problem):
        _refusals_fail(lambda: _solve(problem))

    @pytest.mark.parametrize("problem", _named_problems())
    def test_named_problems(self, problem):
        _refusals_fail(lambda: _solve(problem))

    def test_the_rover_typical_case_refuses(self):
        problem = MarsRover.standard().problem(SolarCase.TYPICAL)
        tries, refused = _refusals_fail(lambda: _solve(problem))
        assert 0 < refused < tries

    def test_pinned_grid28_points(self):
        tries, refused = _refusals_fail(
            lambda: [_solve(point) for point in _grid28_points()])
        assert 0 < refused < tries

    def test_rover_arrivals(self):
        tries, refused = _refusals_fail(_replay_stream)
        assert 0 < refused < tries


# ---------------------------------------------------------------------
# the rule, case by case
# ---------------------------------------------------------------------


def _input(graph: ConstraintGraph) -> ConstraintGraph:
    """User edges predate the journal, as in a scheduler's copy."""
    graph._journal.clear()
    return graph


def _verdict(graph: ConstraintGraph, p_max: float,
             name: str = "x") -> "tuple[bool, object]":
    """``_hopeless`` on the graph's ASAP schedule, then the long way."""
    problem = SchedulingProblem(graph, p_max=p_max)
    scheduler = MaxPowerScheduler()
    current = _Compaction(graph, problem)
    refused = scheduler._hopeless(graph, problem, name, current)
    relaxed = scheduler._relax_release(graph, problem, name,
                                       current.schedule.makespan)
    return refused, relaxed


def _beside(first_power: float, first_duration: int = 5) \
        -> ConstraintGraph:
    """``b`` on one resource from 0, and ``x`` (6 W, 5 ticks) on another,
    held by a delay edge until ``b`` ends."""
    g = ConstraintGraph("beside")
    g.new_task("b", duration=first_duration, power=first_power,
               resource="B")
    g.new_task("x", duration=5, power=6.0, resource="X")
    _input(g).add_edge(ANCHOR_NAME, "x", 5, tag="delay")
    return g


class TestRule:
    def test_a_window_wholly_above_p_max_is_refused(self):
        assert _verdict(_beside(6.0), p_max=10.0) == (True, None)

    def test_one_slot_within_p_max_runs_the_try(self):
        refused, relaxed = _verdict(_beside(6.0, first_duration=3),
                                    p_max=10.0)
        assert not refused
        schedule, _profile = relaxed
        assert schedule.start("x") == 3

    @pytest.mark.parametrize("over, refused", [
        (2 * POWER_TOL, False), (4 * POWER_TOL, True)])
    def test_levels_near_p_max_need_the_margin(self, over, refused):
        """``x`` beside ``b`` draws ``P_max + over``: a spike, since
        ``over`` exceeds ``POWER_TOL``, but refused only past
        3·POWER_TOL and the rounding allowance."""
        assert _verdict(_beside(4.0 + over), p_max=10.0) == (refused, None)

    def test_a_level_at_p_max_is_accepted(self):
        refused, relaxed = _verdict(_beside(4.0), p_max=10.0)
        assert not refused and relaxed[0].start("x") == 0

    def test_a_non_finite_power_never_refuses(self):
        assert _verdict(_beside(float("inf")), p_max=10.0) == (False, None)

    def test_an_in_edge_from_outside_holds_the_task(self):
        """``c`` holds ``x`` at its release: refused before any
        longest-path query."""
        g = _beside(0.0)
        g.new_task("c", duration=5, power=1.0, resource="C")
        g.add_edge("c", "x", 5, tag="user")
        problem = SchedulingProblem(g, p_max=100.0)
        scheduler = MaxPowerScheduler()
        current = _Compaction(g, problem)
        snapshot = lp_counter_snapshot()
        assert scheduler._hopeless(g, problem, "x", current)
        assert not any(lp_counters_delta(snapshot).values())
        assert scheduler._relax_release(g, problem, "x", 10) is None

    def test_the_subtree_s_power_is_taken_out(self):
        """``y`` hangs under ``x`` by a max separation and runs inside
        the window; ``c`` floors the window at 3.  With ``y``'s power
        left in, every slot would read 18 W; taken out, 12 W, and the
        try succeeds with ``y`` moving along."""
        g = ConstraintGraph("subtree")
        g.new_task("b", duration=5, power=6.0, resource="B")
        g.new_task("x", duration=3, power=6.0, resource="X")
        g.new_task("y", duration=2, power=6.0, resource="Y")
        g.new_task("c", duration=1, power=0.0, resource="C")
        g.add_edge("x", "y", -2)
        g.add_edge("c", "x", 3)
        _input(g).add_edge(ANCHOR_NAME, "x", 5, tag="delay")
        refused, relaxed = _verdict(g, p_max=12.0)
        assert not refused
        schedule, _profile = relaxed
        assert (schedule.start("x"), schedule.start("y")) == (3, 1)

    def test_a_user_release_under_the_delay_floors_the_window(self):
        """The delay overwrote a user release at 3: the window is
        [3, 6), all beside ``b``, so the try is refused, although slots
        0-2 are empty."""
        g = ConstraintGraph("release")
        g.new_task("b", duration=3, power=6.0, resource="B")
        g.new_task("x", duration=2, power=6.0, resource="X")
        g.add_release("b", 3)
        g.add_release("x", 3)
        _input(g).add_edge(ANCHOR_NAME, "x", 6, tag="delay")
        assert _verdict(g, p_max=10.0) == (True, None)
        assert g.separation(ANCHOR_NAME, "x") == 6


class TestWeakened:
    """``ConstraintGraph.weakened`` names what ``weaken_edge`` leaves."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_weaken_edge(self, seed):
        rng = random.Random(seed)
        g = ConstraintGraph("weakened")
        for name in "abc":
            g.new_task(name, duration=2, power=1.0)
        g.add_release("a", 2)
        _input(g)
        pairs = [(ANCHOR_NAME, "a"), (ANCHOR_NAME, "b"), ("a", "c")]
        tokens = []
        for _ in range(60):
            src, dst = rng.choice(pairs)
            step = rng.random()
            if step < 0.4:
                tokens.append(g.checkpoint())
                g.add_edge(src, dst, rng.randint(0, 9), tag="delay")
            elif step < 0.55:
                g.remove_edge(src, dst)
            elif step < 0.7 and tokens:
                g.rollback(tokens.pop(rng.randrange(len(tokens))))
                tokens = [t for t in tokens if t <= g.checkpoint()]
            else:
                predicted = g.weakened(src, dst)
                token = g.checkpoint()
                g.weaken_edge(src, dst)
                assert g._edges.get((src, dst)) == predicted
                g.rollback(token)


# ---------------------------------------------------------------------
# skipped restarts would only replay restart 0
# ---------------------------------------------------------------------


def _skips_replay_restart_0(run) -> "tuple[int, int]":
    """Call ``run()``; wherever a solve skips restart ``v``, an explicit
    ``eliminate_spikes`` of that restart on a copy of the same timing
    graph returns restart 0's schedule or raises its message.  Returns
    the restarts run and skipped past restart 0."""
    restart = MaxPowerScheduler._restart
    solve = MaxPowerScheduler.solve
    counts = [0, 0]

    def recorded(self, base_graph, problem, variant):
        outcome = restart(self, base_graph, problem, variant)
        self.ran.append((base_graph, variant, outcome))
        return outcome

    def compare(scheduler, problem):
        base_graph, _, first = scheduler.ran[0]
        ran = {variant for _, variant, _ in scheduler.ran}
        restarts = max(1, scheduler.options.max_power_restarts)
        counts[0] += len(ran) - 1
        for variant in set(range(1, restarts)) - ran:
            counts[1] += 1
            again = MaxPowerScheduler(scheduler.options)
            try:
                schedule = again.eliminate_spikes(
                    base_graph.copy(), problem, variant=variant)
            except SchedulingFailure as exc:
                assert str(exc) == first
            else:
                assert schedule == first[0]

    def checked(self, problem, timing=None):
        self.ran = []
        try:
            return solve(self, problem, timing=timing)
        finally:
            if self.ran:    # no restart runs on a power-infeasible problem
                compare(self, problem)

    with mock.patch.object(MaxPowerScheduler, "_restart", recorded), \
            mock.patch.object(MaxPowerScheduler, "solve", checked):
        run()
    return counts[0], counts[1]


class TestSkippedRestarts:
    @given(precedence_problems(), st.integers(2, 3))
    @_PROPERTY
    def test_precedence_problems(self, problem, restarts):
        _skips_replay_restart_0(lambda: _solve(
            problem, SchedulerOptions(max_power_restarts=restarts)))

    @given(budgeted_problems(), st.integers(2, 3))
    @_PROPERTY
    def test_budgeted_problems(self, problem, restarts):
        _skips_replay_restart_0(lambda: _solve(
            problem, SchedulerOptions(max_power_restarts=restarts)))

    @pytest.mark.parametrize("problem", _named_problems())
    def test_named_problems(self, problem):
        _skips_replay_restart_0(lambda: _solve(problem))

    def test_pinned_grid28_points(self):
        ran, skipped = _skips_replay_restart_0(
            lambda: [_solve(point) for point in _grid28_points()])
        assert (ran, skipped) == (0, 30)

    def test_rover_arrivals(self):
        ran, skipped = _skips_replay_restart_0(_replay_stream)
        assert ran > 0 and skipped > 0

    def test_unordered_repairs_run_every_restart(self):
        """With ``slack_ordering`` off every restart shuffles with its
        own random source, so none is skipped."""
        options = SchedulerOptions(slack_ordering=False)
        ran, skipped = _skips_replay_restart_0(
            lambda: _solve(fig1_problem(), options))
        assert (ran, skipped) == (1, 0)
