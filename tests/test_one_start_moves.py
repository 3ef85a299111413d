"""Gap filling as one-start moves, and graph copies that clone stores.

DESIGN.md §5o: when ``sigma`` is the ASAP schedule of a graph and
``s'`` lies in ``(sigma(v), sigma(v) + slack(v)]``, the ASAP schedule
of that graph plus ``anchor -> v >= s'`` is ``sigma`` with only
``sigma(v)`` changed.  So the min-power stage moves one start per
trial, builds no graph during its scans and solves no longest path; at
the end it adds the winning configuration's moves as ``gapfill`` edges
to one copy of the max-power graph.

The differential checks below solve each accepted move's graph the
long way.  They run on the property suites' random problems (idle
power included), Fig. 1, the rover's typical and best cases and the 30
grid28 points of ``tests/test_pinned_answers.py``.
"""

from __future__ import annotations

import functools
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from repro import (ConstraintGraph, PowerAwareScheduler, Resource,
                   SchedulingFailure, SchedulingProblem)
from repro.core.longest_path import lp_counter_snapshot, lp_counters_delta
from repro.core.slack import slack
from repro.core.task import ANCHOR_NAME
from repro.examples_data import fig1_problem
from repro.mission import MarsRover
from repro.mission.rover import SolarCase
from repro.scheduling.max_power import MaxPowerScheduler
from repro.scheduling.min_power import MinPowerScheduler
from repro.scheduling.timing import asap_schedule
from repro.workloads import RandomWorkloadConfig, random_problem
from tests import test_pinned_answers as pinned
from tests.test_properties import precedence_problems
from tests.test_scheduler_properties import budgeted_problems

_PROPERTY = settings(max_examples=30, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@functools.lru_cache(maxsize=1)
def _grid28_points() -> "tuple[SchedulingProblem, ...]":
    """The 30 points ``test_pinned_answers`` pins, drawn the same way."""
    problem = random_problem(11, RandomWorkloadConfig(
        tasks=28, resources=4, layers=5))
    rng = random.Random(pinned.SEED)
    points = [(budget, level)
              for budget in pinned._strata(rng, problem.p_max,
                                           *pinned.BUDGETS)
              for level in pinned._strata(rng, problem.p_max,
                                          *pinned.LEVELS)]
    return tuple(problem.with_power_constraints(p_max=budget,
                                                p_min=level)
                 for budget, level in points)


def _named_problems(with_copies: bool = False):
    """Fig. 1 and two rover cases, with the graph copies their
    min-power stage makes (the typical case finds no move to try)."""
    rover = MarsRover.standard()
    named = [(fig1_problem(), 1, "fig1"),
             (rover.problem(SolarCase.TYPICAL), 0, "rover-typical"),
             (rover.problem(SolarCase.BEST), 1, "rover-best")]
    return [pytest.param(*((problem, copies) if with_copies
                           else (problem,)), id=name)
            for problem, copies, name in named]


# ---------------------------------------------------------------------
# the lemma
# ---------------------------------------------------------------------


def _one_start_lemma_holds(problem: SchedulingProblem) -> None:
    """Every release edge inside a task's slack window moves only that
    task in the ASAP schedule of the max-power graph."""
    try:
        base = MaxPowerScheduler().solve(problem)
    except SchedulingFailure:
        return
    schedule = base.schedule
    graph = base.extra["graph"].copy()
    assert asap_schedule(graph) == schedule     # the precondition
    for name, start in schedule.items():
        room = slack(schedule, name)
        for delay in sorted({1, min(room, 3), min(room, 40)}):
            if not 0 < delay <= room:
                continue
            token = graph.checkpoint()
            assert graph.add_edge(ANCHOR_NAME, name, start + delay,
                                  tag="gapfill")
            assert asap_schedule(graph) == \
                schedule.with_start(name, start + delay)
            graph.rollback(token)


class TestOneStartLemma:
    @given(precedence_problems())
    @_PROPERTY
    def test_precedence_problems(self, problem):
        _one_start_lemma_holds(problem)

    @given(budgeted_problems())
    @_PROPERTY
    def test_budgeted_problems(self, problem):
        _one_start_lemma_holds(problem)

    @pytest.mark.parametrize("problem", _named_problems())
    def test_named_problems(self, problem):
        _one_start_lemma_holds(problem)


# ---------------------------------------------------------------------
# accepted moves, solved the long way
# ---------------------------------------------------------------------


def _moves_match_longest_paths(problem: SchedulingProblem) -> int:
    """Solve ``problem``.  Each accepted move's schedule must equal the
    ASAP schedule of the max-power graph plus its configuration's
    ``gapfill`` edges so far, and the result must be the ASAP schedule
    of the graph it carries.  Returns the number of moves checked."""
    fill_gaps = MinPowerScheduler._fill_gaps
    fill_one_gap = MinPowerScheduler._fill_one_gap
    graphs: "list[ConstraintGraph]" = []
    checked = []

    def gaps(self, problem, config, base):
        graphs.append(base.extra["graph"].copy())
        return fill_gaps(self, problem, config, base)

    def one_gap(self, *args):
        outcome = fill_one_gap(self, *args)
        if outcome is not None:
            schedule, _profile, _rho, (name, start) = outcome
            assert graphs[-1].add_edge(ANCHOR_NAME, name, start,
                                       tag="gapfill")
            assert schedule == asap_schedule(graphs[-1])
            checked.append(name)
        return outcome

    with mock.patch.object(MinPowerScheduler, "_fill_gaps", gaps), \
            mock.patch.object(MinPowerScheduler, "_fill_one_gap",
                              one_gap):
        try:
            run = PowerAwareScheduler().solve_pipeline(problem)
        except SchedulingFailure:
            return 0
    result = run.final
    graph = result.extra["graph"]
    assert result.schedule.graph is graph
    assert result.schedule == asap_schedule(graph)
    if result.extra["config"] is None:      # no configuration improved
        assert not checked and graph is run.max_power.extra["graph"]
    return len(checked)


class TestAcceptedMoves:
    @given(precedence_problems())
    @_PROPERTY
    def test_precedence_problems(self, problem):
        _moves_match_longest_paths(problem)

    @given(budgeted_problems())
    @_PROPERTY
    def test_budgeted_problems(self, problem):
        _moves_match_longest_paths(problem)

    @pytest.mark.parametrize("problem, copies",
                             _named_problems(with_copies=True))
    def test_named_problems(self, problem, copies):
        assert bool(_moves_match_longest_paths(problem)) == bool(copies)

    def test_pinned_grid28_points(self):
        moves = [_moves_match_longest_paths(point)
                 for point in _grid28_points()]
        assert len(moves) == 30 and sum(moves) > 0


# ---------------------------------------------------------------------
# what the min-power stage asks of the graph layer
# ---------------------------------------------------------------------


def _min_power_traffic(problem: SchedulingProblem) \
        -> "tuple[int, list[int]]":
    """Longest-path queries the min-power stage makes, and the graph
    copies each ``improve`` makes, over one pipeline solve."""
    improve = MinPowerScheduler.improve
    copy = ConstraintGraph.copy
    queries = 0
    copies: "list[int]" = []

    def counted_copy(self, *args, **kwargs):
        if copies:
            copies[-1] += 1
        return copy(self, *args, **kwargs)

    def counted_improve(self, problem, base):
        nonlocal queries
        snapshot = lp_counter_snapshot()
        copies.append(0)
        result = improve(self, problem, base)
        queries += sum(lp_counters_delta(snapshot).values())
        copied = result.extra["graph"] is not base.extra["graph"]
        assert copies[-1] == int(copied)
        return result

    with mock.patch.object(ConstraintGraph, "copy", counted_copy), \
            mock.patch.object(MinPowerScheduler, "improve",
                              counted_improve):
        try:
            PowerAwareScheduler().solve(problem)
        except SchedulingFailure:
            pass
    return queries, copies


def _min_power_is_graph_free(problem: SchedulingProblem) -> None:
    queries, copies = _min_power_traffic(problem)
    assert queries == 0
    assert all(count <= 1 for count in copies)


class TestMinPowerTraffic:
    @given(precedence_problems())
    @_PROPERTY
    def test_precedence_problems(self, problem):
        _min_power_is_graph_free(problem)

    @given(budgeted_problems())
    @_PROPERTY
    def test_budgeted_problems(self, problem):
        _min_power_is_graph_free(problem)

    @pytest.mark.parametrize("problem, copies",
                             _named_problems(with_copies=True))
    def test_named_problems(self, problem, copies):
        assert _min_power_traffic(problem) == (0, [copies])

    def test_pinned_grid28_points(self):
        for point in _grid28_points():
            _min_power_is_graph_free(point)


# ---------------------------------------------------------------------
# ConstraintGraph.copy
# ---------------------------------------------------------------------


def _replayed(graph: ConstraintGraph) -> ConstraintGraph:
    """The copy built task by task and edge by edge through the public
    mutators, as ``copy`` used to build it."""
    clone = ConstraintGraph(name=graph.name)
    for task in graph.tasks():
        clone.add_task(task)
    for res in graph.resources:
        if res.name in clone.resources:
            clone.resources._by_name[res.name] = res
        else:
            clone.resources.add(res)
    for edge in graph.edges():
        clone.add_edge(edge.src, edge.dst, edge.weight, tag=edge.tag)
    clone._journal.clear()
    return clone


def _same_stores(graph: ConstraintGraph) -> None:
    clone, want = graph.copy(), _replayed(graph)
    assert list(clone._tasks.items()) == list(want._tasks.items())
    assert clone.task_names() == want.task_names()
    assert [t.name for t in clone.tasks()] == want.task_names()
    assert [(r.name, id(r)) for r in clone.resources] \
        == [(r.name, id(r)) for r in want.resources]
    assert clone.resources.total_idle_power \
        == want.resources.total_idle_power
    assert list(clone._edges.items()) == list(want._edges.items())
    for adjacency in ("_out", "_in"):
        got, expected = getattr(clone, adjacency), getattr(want, adjacency)
        assert list(got) == list(expected)
        # iteration order too: the solvers break ties in set order
        assert all(list(got[v]) == list(expected[v]) for v in expected)
    assert clone._journal == []
    solved = graph._current_state()
    assert clone._state_cache == ({} if solved is None else {0: solved})


def _decorated_graphs(problem: SchedulingProblem):
    """The problem's graph and the pipeline's decorated graphs, whose
    journals added, removed, weakened and rolled back edges."""
    yield problem.graph
    try:
        run = PowerAwareScheduler().solve_pipeline(problem)
    except SchedulingFailure:
        return
    for result in (run.timing, run.max_power, run.final):
        yield result.extra["graph"]


class TestGraphCopy:
    @given(precedence_problems())
    @_PROPERTY
    def test_precedence_problems(self, problem):
        for graph in _decorated_graphs(problem):
            _same_stores(graph)

    @given(budgeted_problems())
    @_PROPERTY
    def test_budgeted_problems(self, problem):
        for graph in _decorated_graphs(problem):
            _same_stores(graph)

    @pytest.mark.parametrize("problem", _named_problems())
    def test_named_problems(self, problem):
        for graph in _decorated_graphs(problem):
            _same_stores(graph)

    def test_declared_resources_follow_first_use(self):
        g = ConstraintGraph("pool")
        for name, idle in (("Z", 0.1), ("Y", 0.2), ("X", 0.7)):
            g.declare_resource(Resource(name=name, idle_power=idle))
        g.new_task("a", duration=2, power=1.0, resource="X")
        g.new_task("b", duration=2, power=1.0, resource="W")
        g.new_task("c", duration=2, power=1.0, resource="Y")
        assert g.resources.names == ["Z", "Y", "X", "W"]
        assert g.copy().resources.names == ["X", "W", "Y", "Z"]
        _same_stores(g)

    def test_edges_removed_and_added_again(self):
        g = ConstraintGraph("churn")
        for name in "abcdefgh":
            g.new_task(name, duration=1)
        names = list("abcdefgh")
        for src in names:
            for dst in names:
                if src < dst:
                    g.add_edge(src, dst, 1)
        token = g.checkpoint()
        g.remove_edge("a", "h")
        g.add_edge("a", "c", 5, tag="delay")
        g.weaken_edge("a", "c")
        g.rollback(token)
        g.remove_edge("a", "b")
        g.add_edge("a", "b", 2)
        g.add_edge("h", "a", -20)
        _same_stores(g)
        earliest = asap_schedule(g)
        clone = g.copy()
        assert asap_schedule(clone) == earliest
        assert clone._state_cache[0] is g._current_state()
