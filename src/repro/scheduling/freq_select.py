"""Deadline-safe minimum-energy operating-point selection.

This is the scheduler-side answer to the paper's Section 2 critique of
DVS schedulers.  The sidecar :mod:`repro.scheduling.dvs` baseline shows
what a CPU-only slowdown scheduler does; this module makes the *power-
aware* pipeline able to slow tasks too — so ``P_max`` spike elimination
can trade a cubic power drop for a ``1/f`` delay stretch when simply
delaying a task (the only move the paper's schedulers have) would break
a timing constraint.

The search operates on problems whose tasks carry
:class:`~repro.core.task.OperatingPoint` ladders:

1. **Pre-pass** — any task whose full-speed power (plus the constant
   baseline) already exceeds ``P_max`` is moved to the *fastest*
   operating point that fits under the budget.  This is the rescue move
   delay-only scheduling provably cannot make: when
   ``SchedulingProblem.feasible_power_check`` reports a task above
   ``P_max``, no amount of delaying helps, but a slower rung divides
   the power by ``1/f**3``.
2. **Greedy descent** — starting from that assignment, single-task
   moves are evaluated by materializing the candidate configuration
   (:func:`~repro.core.dvfs.materialize_assignment`, which adjusts
   duration-anchored precedence and deadline edges) and running
   :class:`~repro.scheduling.max_power.MaxPowerScheduler` on the
   ordinary scaled problem.  The best move under the lexicographic
   objective *(feasible, total energy, finish time)* is applied and the
   descent repeats until no move improves or the evaluation budget is
   spent.  Iteration order is deterministic (tasks by name, points in
   ladder order), so the chosen configuration is a pure function of the
   problem and options.
3. The winning configuration then gets the full three-stage pipeline
   (timing -> max power -> min power), exactly as a hand-written
   problem would, and the :class:`~repro.scheduling.power_aware.
   PipelineResult` carries the search result in its ``freq_select``
   field with the chosen configuration in ``final.extra["dvfs"]``.

The evaluation budget is a *constructor* argument, deliberately not a
:class:`~repro.scheduling.base.SchedulerOptions` field: options are
fingerprinted into every schedule-store and sweep-cache key, and adding
a field there would silently invalidate every existing key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from ..core.dvfs import materialize_assignment, scaled_duration, scaled_power
from ..core.problem import SchedulingProblem
from ..core.profile import PowerProfile
from ..core.task import OperatingPoint, Task
from ..errors import PositiveCycleError, SchedulingFailure
from ..obs import OBS
from .base import ScheduleResult, SchedulerOptions
from .max_power import MaxPowerScheduler
from .power_aware import PipelineResult, PowerAwareScheduler, _timed_stage

__all__ = ["FreqSelectScheduler", "freq_select_schedule",
           "assignment_summary"]

#: Default cap on MaxPower evaluations during one descent.
DEFAULT_EVAL_BUDGET = 160

_INFEASIBLE = (1, math.inf, math.inf)


def _full_speed_point(task: Task) -> OperatingPoint:
    for point in task.operating_points:
        if point.is_full_speed:
            return point
    raise SchedulingFailure(  # unreachable: Task validates this
        f"task {task.name!r} ladder lacks the full-speed point")


def assignment_summary(assignment: "Mapping[str, OperatingPoint]") \
        -> "dict[str, dict]":
    """JSON-safe view of a configuration choice."""
    return {name: {"freq": point.freq, "cores": point.cores}
            for name, point in sorted(assignment.items())}


@dataclass
class _SearchState:
    """Bookkeeping for one descent (evaluation cache + counters)."""

    evaluations: int = 0
    rounds: int = 0
    cache_hits: int = 0
    cache: "dict[tuple, tuple]" = field(default_factory=dict)


class FreqSelectScheduler:
    """Operating-point search composed with the power-aware pipeline.

    ``solve``/``solve_pipeline`` accept any problem: one without
    operating points falls straight through to
    :class:`~repro.scheduling.power_aware.PowerAwareScheduler`
    unchanged, so this class is a safe universal entry point.
    """

    def __init__(self, options: "SchedulerOptions | None" = None,
                 eval_budget: int = DEFAULT_EVAL_BUDGET):
        self.options = options or SchedulerOptions()
        if eval_budget < 1:
            raise ValueError(
                f"eval_budget must be >= 1, got {eval_budget}")
        self.eval_budget = eval_budget

    # ------------------------------------------------------------------

    def solve(self, problem: SchedulingProblem) -> ScheduleResult:
        """Solve and return only the final (min-power stage) result."""
        return self.solve_pipeline(problem).final

    def solve_pipeline(self, problem: SchedulingProblem) -> PipelineResult:
        """Choose a configuration, then run the three-stage pipeline.

        The returned :class:`PipelineResult` is exactly what the plain
        pipeline returns for the materialized problem, plus the
        ``freq_select`` stage result; ``final.extra["dvfs"]`` records
        the chosen per-task operating points, both energy accountings
        (ideal continuous vs integer-rounded — they differ whenever a
        stretch does not divide evenly, see :mod:`repro.core.dvfs`),
        and the search effort.
        """
        if not problem.has_operating_points:
            return PowerAwareScheduler(self.options).solve_pipeline(problem)
        with OBS.span("sched.freq_select", problem=problem.name):
            search = _timed_stage(
                "freq_select", lambda: self._search(problem))
        assignment: "dict[str, OperatingPoint]" = \
            search.extra["dvfs_points"]
        chosen = materialize_assignment(problem, assignment)
        pipeline = PowerAwareScheduler(self.options).solve_pipeline(chosen)
        pipeline.freq_select = search
        pipeline.final.extra["dvfs"] = search.extra["dvfs"]
        pipeline.final.stats.stage_seconds.setdefault(
            "freq_select",
            search.stats.stage_seconds.get("freq_select", 0.0))
        return pipeline

    # ------------------------------------------------------------------

    def _search(self, problem: SchedulingProblem) -> ScheduleResult:
        """Pre-pass + greedy descent; returns the winning max-power
        evaluation with the chosen assignment in ``extra``."""
        ladder_tasks = sorted(
            (t for t in problem.graph.tasks() if t.has_ladder),
            key=lambda t: t.name)
        state = _SearchState()
        current = {t.name: self._rescue_point(problem, t)
                   for t in ladder_tasks}

        best_score, best_result = self._evaluate(problem, current, state)
        improved = True
        while improved and state.evaluations < self.eval_budget:
            improved = False
            state.rounds += 1
            best_move = None
            for task in ladder_tasks:
                for point in task.operating_points:
                    if point == current[task.name]:
                        continue
                    if self._violates_budget(problem, task, point):
                        continue
                    candidate = dict(current)
                    candidate[task.name] = point
                    score, result = self._evaluate(
                        problem, candidate, state)
                    if score < best_score:
                        best_score, best_move = score, (candidate, result)
                    if state.evaluations >= self.eval_budget:
                        break
                if state.evaluations >= self.eval_budget:
                    break
            if best_move is not None:
                current, best_result = best_move
                improved = True

        if best_result is None:
            raise SchedulingFailure(
                f"no feasible operating-point configuration found for "
                f"{problem.name!r} within {state.evaluations} "
                f"evaluations")
        ideal, rounded = self._energies(ladder_tasks, current)
        best_result.extra["dvfs"] = {
            "assignment": assignment_summary(current),
            "ladder_tasks": len(ladder_tasks),
            "evaluations": state.evaluations,
            "rounds": state.rounds,
            "cache_hits": state.cache_hits,
            "energy_ideal_J": round(ideal, 6),
            "energy_rounded_J": round(rounded, 6),
        }
        best_result.extra["dvfs_points"] = dict(current)
        best_result.stage = "freq_select"
        return best_result

    def _rescue_point(self, problem: SchedulingProblem,
                      task: Task) -> OperatingPoint:
        """Full speed when it fits under ``P_max``; otherwise the
        fastest point that does (the pre-pass rescue)."""
        full = _full_speed_point(task)
        if not self._violates_budget(problem, task, full):
            return full
        fitting = [p for p in task.operating_points
                   if not self._violates_budget(problem, task, p)]
        if not fitting:
            raise SchedulingFailure(
                f"task {task.name!r} exceeds P_max = {problem.p_max:g} W "
                f"at every operating point on its ladder")
        fitting.sort(key=lambda p: (
            scaled_duration(task.duration, p.freq, p.cores),
            scaled_power(task.power, p.freq, p.cores),
            -p.freq, p.cores))
        return fitting[0]

    @staticmethod
    def _violates_budget(problem: SchedulingProblem, task: Task,
                         point: OperatingPoint) -> bool:
        """Static screen: the point's power (plus baseline) alone
        breaks ``P_max`` — no schedule could fix that."""
        if task.duration == 0:
            return False
        power = scaled_power(task.power, point.freq, point.cores)
        return power + problem.total_baseline \
            > problem.p_max + PowerProfile.POWER_TOL

    def _evaluate(self, problem: SchedulingProblem,
                  assignment: "dict[str, OperatingPoint]",
                  state: _SearchState) \
            -> "tuple[tuple, ScheduleResult | None]":
        """Score one configuration by a max-power solve of its
        materialization; memoized per assignment."""
        key = tuple(sorted((name, point.key)
                           for name, point in assignment.items()))
        if key in state.cache:
            state.cache_hits += 1
            return state.cache[key]
        state.evaluations += 1
        materialized = materialize_assignment(problem, assignment)
        try:
            result = MaxPowerScheduler(self.options).solve(materialized)
            score = (0, result.metrics.total_energy,
                     result.metrics.finish_time)
        except (SchedulingFailure, PositiveCycleError):
            # A slowdown can make the (tightened) deadline chain
            # unsatisfiable — that candidate is simply infeasible.
            result, score = None, _INFEASIBLE
        state.cache[key] = (score, result)
        return score, result

    @staticmethod
    def _energies(ladder_tasks: "list[Task]",
                  assignment: "dict[str, OperatingPoint]") \
            -> "tuple[float, float]":
        """(ideal continuous, integer-rounded) energy of the scaled
        tasks — ideal is ``d * p * f**2`` per task, rounded is what the
        integer grid actually charges."""
        ideal = rounded = 0.0
        for task in ladder_tasks:
            point = assignment[task.name]
            ideal += task.duration * task.power * point.freq ** 2
            rounded += (
                scaled_duration(task.duration, point.freq, point.cores)
                * scaled_power(task.power, point.freq, point.cores))
        return ideal, rounded


def freq_select_schedule(problem: SchedulingProblem,
                         options: "SchedulerOptions | None" = None,
                         eval_budget: int = DEFAULT_EVAL_BUDGET) \
        -> ScheduleResult:
    """Convenience wrapper for :class:`FreqSelectScheduler`."""
    return FreqSelectScheduler(
        options, eval_budget=eval_budget).solve(problem)
