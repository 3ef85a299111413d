"""Exhaustive optimal scheduler (branch & bound, small instances).

Section 5.3 of the paper notes that a cost-optimal schedule "should
examine all valid partial orderings of tasks, which will increase the
complexity of computation to an exponential order" — which is exactly
what this module does, deliberately, for small instances.  It exists to
*measure* the paper's heuristics, not to replace them:

* the ``bench_optimal_gap`` benchmark reports how close the three-stage
  pipeline gets to the true optimum on random graphs;
* tests use it as an oracle for the heuristics' validity claims
  (e.g. "the max-power scheduler may fail even though a valid schedule
  exists" — the oracle finds those cases).

Search: depth-first over tasks in a fixed topological-ish order; each
task is assigned a start time from its currently-feasible window
(propagated by longest paths over the graph plus lock edges).  Pruning:

* constraint propagation — a positive cycle kills the branch;
* power feasibility — the partial profile must stay under ``P_max``;
* bound — a branch is cut when its lower bound on the objective is no
  better than the incumbent.

Objectives: ``"makespan"`` (minimize finish time), ``"energy_cost"``
(minimize ``Ec(P_min)`` given a horizon), or ``"lexicographic"``
(makespan first, then cost) which mirrors the paper's "same performance,
less energy" preference.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.graph import ConstraintGraph
from ..core.longest_path import longest_paths
from ..core.problem import SchedulingProblem
from ..core.schedule import Schedule
from ..errors import (InfeasibleError, ReproError,
                      SchedulingFailure)
from .base import ScheduleResult, SchedulerStats, make_result

__all__ = ["OptimalScheduler", "optimal_schedule"]

_OBJECTIVES = ("makespan", "energy_cost", "lexicographic")


@dataclass
class _SearchState:
    """Mutable search bookkeeping shared across the DFS."""

    best_key: "tuple[float, ...] | None" = None
    best_starts: "dict[str, int] | None" = None
    nodes: int = 0


class OptimalScheduler:
    """Branch-and-bound start-time enumeration."""

    def __init__(self, objective: str = "lexicographic",
                 horizon: "int | None" = None,
                 max_nodes: int = 2_000_000):
        if objective not in _OBJECTIVES:
            raise ReproError(
                f"unknown objective {objective!r}; pick from {_OBJECTIVES}")
        self.objective = objective
        self.horizon = horizon
        self.max_nodes = max_nodes
        self.stats = SchedulerStats()

    # ------------------------------------------------------------------

    def solve(self, problem: SchedulingProblem) -> ScheduleResult:
        """Exhaustively find the objective-optimal valid schedule.

        Raises :class:`InfeasibleError` when no valid schedule exists
        within the horizon (this *is* a proof, unlike the heuristic
        pipeline's :class:`SchedulingFailure`).
        """
        graph = problem.fresh_graph()
        horizon = self.horizon or self._default_horizon(graph)
        names = self._order(graph)
        state = _SearchState()
        self.stats = SchedulerStats()
        self._dfs(problem, graph, names, 0, horizon, state)
        if state.best_starts is None:
            if state.nodes >= self.max_nodes:
                raise SchedulingFailure(
                    f"exhaustive search hit the node budget "
                    f"({self.max_nodes}) before finding any valid "
                    f"schedule for {problem.name!r} — no infeasibility "
                    "proof")
            raise InfeasibleError(
                f"no valid schedule exists for {problem.name!r} within "
                f"horizon {horizon} (exhaustive search, "
                f"{state.nodes} nodes)")
        schedule = Schedule(problem.graph, state.best_starts)
        result = make_result(problem, schedule, stats=self.stats,
                             stage="optimal")
        result.extra["nodes"] = state.nodes
        result.extra["horizon"] = horizon
        # Optimality is only *proved* when the search ran to completion;
        # hitting the node budget leaves the incumbent a best-effort.
        result.extra["proven"] = state.nodes < self.max_nodes
        return result

    # ------------------------------------------------------------------

    @staticmethod
    def _default_horizon(graph: ConstraintGraph) -> int:
        """Serial-sum horizon: enough for any reasonable schedule."""
        total = sum(t.duration for t in graph.tasks())
        est = longest_paths(graph).distance
        longest = max([est[n] + graph.task(n).duration
                       for n in graph.task_names()] or [0])
        return max(total, longest)

    @staticmethod
    def _order(graph: ConstraintGraph) -> "list[str]":
        """Assignment order: ASAP-sorted for fail-first propagation."""
        est = longest_paths(graph).distance
        return sorted(graph.task_names(), key=lambda n: (est[n], n))

    def _dfs(self, problem, graph, names, depth, horizon, state) -> None:
        if state.nodes >= self.max_nodes:
            return
        if depth == len(names):
            self._record(problem, graph, names, state)
            return
        result = longest_paths(graph, probe=True)
        if result is None:
            return
        dist = result.distance
        name = names[depth]
        task = graph.task(name)
        latest = horizon - task.duration
        if dist[name] > latest:
            return
        for start in range(dist[name], latest + 1):
            if state.nodes >= self.max_nodes:
                return
            state.nodes += 1
            if not self._promising(problem, graph, names, depth, state,
                                    dist, start):
                continue
            token = graph.checkpoint()
            try:
                graph.lock_start(name, start)
            except ReproError:
                graph.rollback(token)
                continue
            self._dfs(problem, graph, names, depth + 1, horizon, state)
            graph.rollback(token)

    def _promising(self, problem, graph, names, depth, state, dist,
                   start) -> bool:
        """Cheap branch bound: optimistic objective vs incumbent."""
        if state.best_key is None:
            return True
        # Optimistic makespan: already-forced finish of assigned tasks
        # and ASAP finish of the rest (cannot get shorter by assigning).
        lb_makespan = 0
        for n in names:
            lb_makespan = max(lb_makespan,
                              dist[n] + graph.task(n).duration)
        lb_makespan = max(lb_makespan,
                          start + graph.task(names[depth]).duration)
        if self.objective == "makespan":
            return (lb_makespan,) < state.best_key
        if self.objective == "lexicographic":
            return (lb_makespan, 0.0) <= (state.best_key[0], float("inf"))
        return True  # energy cost has no cheap monotone bound here

    def _record(self, problem, graph, names, state) -> None:
        """A complete assignment reached: validate and score it."""
        result = longest_paths(graph, probe=True)
        if result is None:
            return  # the final lock contradicted a max separation
        dist = result.distance
        starts = {n: dist[n] for n in names}
        schedule = Schedule(graph, starts)
        if not problem.check(schedule).ok:
            return
        cost = problem.profile(schedule).energy_above(problem.p_min)
        makespan = schedule.makespan
        if self.objective == "makespan":
            key: "tuple[float, ...]" = (float(makespan),)
        elif self.objective == "energy_cost":
            key = (cost,)
        else:
            key = (float(makespan), cost)
        if state.best_key is None or key < state.best_key:
            state.best_key = key
            state.best_starts = starts


def optimal_schedule(problem: SchedulingProblem,
                     objective: str = "lexicographic",
                     horizon: "int | None" = None,
                     max_nodes: int = 2_000_000) -> ScheduleResult:
    """Convenience wrapper for :class:`OptimalScheduler`."""
    return OptimalScheduler(objective=objective, horizon=horizon,
                            max_nodes=max_nodes).solve(problem)
