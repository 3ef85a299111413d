"""Fully-serialized baseline scheduler (the "JPL schedule").

The paper's comparison baseline is the hand-crafted low-power schedule
used on the actual Pathfinder mission: *all* tasks are serialized —
across resources, not just within one — so at most one task executes at
any time and the power draw never stacks.  "The existing schedule is
identical to our power-aware schedule in the worst case with the lowest
power budget" (Section 6).

This scheduler packs the tasks back-to-back in a topological order that
respects every min/max separation.  It reuses the timing scheduler's
completeness by adding a single chain of serialization edges over *all*
tasks: the chain order is chosen greedily (earliest feasible first) with
backtracking, so a packed serial schedule is found whenever one exists.
"""

from __future__ import annotations

from ..core.graph import ConstraintGraph
from ..core.longest_path import longest_paths
from ..core.problem import SchedulingProblem
from ..core.task import ANCHOR_NAME
from ..errors import SchedulingFailure
from .base import ScheduleResult, SchedulerOptions, SchedulerStats, \
    make_result
from .timing import asap_schedule

__all__ = ["SerialScheduler", "serial_schedule"]


class SerialScheduler:
    """Serialize every task into a single back-to-back chain."""

    def __init__(self, options: "SchedulerOptions | None" = None):
        self.options = options or SchedulerOptions()
        self.stats = SchedulerStats()

    def solve(self, problem: SchedulingProblem,
              finish_by: "int | None" = None) -> ScheduleResult:
        """Find a fully-serial, time-valid schedule.

        Raises :class:`SchedulingFailure` if no serial order satisfies
        the min/max separations (a max separation can make full
        serialization impossible even when a parallel schedule exists),
        or if the search spent ``options.max_backtracks`` before finding
        one — the message says which.

        A serial schedule runs one task at a time, so it cannot finish
        before the sum of the task durations.  When that sum exceeds
        ``finish_by`` the solve raises before any search work; the bound
        is never applied to partial chains, so whenever the search runs
        it spends its budget exactly as an unbounded solve would.
        """
        self.stats = SchedulerStats()
        if finish_by is not None:
            total = sum(task.duration for task in problem.graph.tasks())
            if total > finish_by:
                raise SchedulingFailure(
                    f"no fully-serial schedule of {problem.name!r} can "
                    f"finish by {finish_by}: its task durations sum to "
                    f"{total}")
        self._budget = self.options.max_backtracks
        graph = problem.fresh_graph()
        chain: "list[str]" = []
        if not self._extend(graph, chain):
            raise SchedulingFailure(
                f"no fully-serial schedule exists for {problem.name!r}"
                if self._budget > 0 else
                f"serial scheduler gave up on {problem.name!r} after "
                f"{self.options.max_backtracks} backtracks")
        schedule = asap_schedule(graph)
        result = make_result(problem, schedule, stats=self.stats,
                             stage="serial")
        result.extra["graph"] = graph
        result.extra["chain"] = list(chain)
        return result

    # ------------------------------------------------------------------

    def _extend(self, graph: ConstraintGraph, chain: "list[str]") -> bool:
        """Depth-first search over serial orders.

        Each placed task gets a serialization edge from its predecessor
        in the chain; candidates are tried in ASAP order so the first
        solution found is the packed greedy one.
        """
        names = graph.task_names()
        if len(chain) == len(names):
            return True
        placed = set(chain)
        self.stats.longest_path_runs += 1
        result = longest_paths(graph, probe=True)
        if result is None:
            return False
        dist = result.distance
        ready = [n for n in names if n not in placed
                 and self._preds_placed(graph, n, placed)]
        ready.sort(key=lambda n: (dist[n], n))
        prev = chain[-1] if chain else None
        for candidate in ready:
            if self._budget <= 0:
                return False
            self._budget -= 1
            token = graph.checkpoint()
            ok = True
            if prev is not None:
                ok = self._chain_after(graph, prev, candidate)
            if ok:
                chain.append(candidate)
                if self._extend(graph, chain):
                    return True
                chain.pop()
            self.stats.timing_backtracks += 1
            graph.rollback(token)
        return False

    @staticmethod
    def _preds_placed(graph: ConstraintGraph, name: str,
                      placed: "set[str]") -> bool:
        for edge in graph.in_edges(name):
            if edge.weight >= 0 and edge.src != ANCHOR_NAME \
                    and edge.src not in placed:
                return False
        return True

    def _chain_after(self, graph: ConstraintGraph, prev: str,
                     name: str) -> bool:
        """Append ``name`` after ``prev`` in the serial chain."""
        graph.add_edge(prev, name, graph.task(prev).duration,
                       tag="serialize")
        self.stats.serializations += 1
        self.stats.longest_path_runs += 1
        return longest_paths(graph, probe=True) is not None


def serial_schedule(problem: SchedulingProblem,
                    options: "SchedulerOptions | None" = None) \
        -> ScheduleResult:
    """Convenience wrapper: the fully-serial baseline schedule."""
    return SerialScheduler(options).solve(problem)
