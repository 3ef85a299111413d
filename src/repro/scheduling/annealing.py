"""Simulated-annealing schedule improver.

The paper's pipeline is constructive: serialize, delay spikes away,
fill gaps.  Each stage only ever *delays* tasks, so the final schedule
lives in the neighbourhood of the ASAP solution and a serialization
order chosen early is never revisited.  Section 5.3 concedes that the
optimal schedule "should examine all valid partial orderings" and that
heuristic scan orders only explore a few.

This module adds the classic escape hatch: a simulated-annealing local
search over *complete* schedules, free to move any task anywhere
(including reordering same-resource tasks), with full validity checked
per move.  It optimizes the paper's lexicographic preference —
finish time first, then energy cost ``Ec(P_min)`` — and never returns
anything worse than its starting point.

Use it as a polish pass after the pipeline, or from any valid schedule
(e.g. the serial baseline) when the pipeline's heuristics disappoint;
``bench_annealing.py`` measures what the extra CPU time buys.
"""

from __future__ import annotations

import math
import random

from ..core.problem import SchedulingProblem
from ..core.schedule import Schedule
from ..core.validation import check_time_valid
from ..errors import ReproError
from .base import ScheduleResult, SchedulerStats, make_result

__all__ = ["AnnealingImprover", "anneal"]


class AnnealingImprover:
    """Lexicographic (makespan, energy-cost) simulated annealing."""

    def __init__(self, iterations: int = 3000,
                 initial_temperature: float = 8.0,
                 cooling: float = 0.999, seed: int = 2001,
                 allow_longer: bool = False):
        if iterations < 1:
            raise ReproError(
                f"iterations must be >= 1, got {iterations}")
        if not 0 < cooling < 1:
            raise ReproError(
                f"cooling must be in (0, 1), got {cooling}")
        if initial_temperature <= 0:
            raise ReproError("initial_temperature must be positive")
        self.iterations = iterations
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.seed = seed
        self.allow_longer = allow_longer
        self.stats = SchedulerStats()

    # ------------------------------------------------------------------

    def improve(self, problem: SchedulingProblem,
                schedule: Schedule) -> ScheduleResult:
        """Anneal from a *valid* starting schedule.

        Raises :class:`~repro.errors.ValidationError` (via the
        validity check) if the start schedule is invalid; returns the
        best schedule found (never worse than the start in the
        lexicographic order).
        """
        self.stats = SchedulerStats()
        # Rebind the start times to the problem's pristine graph:
        # schedules coming out of the pipeline carry scheduler
        # decorations (serialization chains, delay edges) that would
        # otherwise freeze the very orderings annealing exists to
        # revisit.  Resource exclusivity is still enforced by the
        # validity check.
        schedule = Schedule(problem.graph, schedule.as_dict())
        self._validate(problem, schedule, strict=True)
        rng = random.Random(self.seed)
        names = problem.graph.task_names()
        if not names:
            return make_result(problem, schedule, stats=self.stats,
                               stage="annealed")

        current = schedule
        current_key = self._key(problem, current)
        best, best_key = current, current_key
        horizon_cap = max(current.makespan, 1)
        temperature = self.initial_temperature

        for _ in range(self.iterations):
            candidate = self._propose(problem, current, names, rng,
                                      horizon_cap)
            if candidate is None:
                temperature *= self.cooling
                continue
            if not self._validate(problem, candidate, strict=False):
                self.stats.gap_fill_rejected += 1
                temperature *= self.cooling
                continue
            key = self._key(problem, candidate)
            delta = self._scalar(key) - self._scalar(current_key)
            if delta <= 0 or rng.random() < math.exp(
                    -delta / max(temperature, 1e-9)):
                current, current_key = candidate, key
                self.stats.gap_fill_moves += 1
                if key < best_key:
                    best, best_key = candidate, key
            temperature *= self.cooling

        result = make_result(problem, best, stats=self.stats,
                             stage="annealed")
        result.extra["start_key"] = self._key(problem, schedule)
        result.extra["best_key"] = best_key
        return result

    # ------------------------------------------------------------------

    def _propose(self, problem, schedule, names, rng, horizon_cap) \
            -> "Schedule | None":
        """One random neighbour: jitter or jump a single task."""
        name = rng.choice(names)
        duration = problem.graph.task(name).duration
        limit = horizon_cap if self.allow_longer \
            else max(horizon_cap - duration, 0)
        if rng.random() < 0.5:
            delta = rng.choice((-3, -2, -1, 1, 2, 3))
            new_start = schedule.start(name) + delta
        else:
            new_start = rng.randint(0, max(limit, 0))
        if new_start < 0 or new_start == schedule.start(name):
            return None
        if not self.allow_longer and new_start + duration > horizon_cap:
            return None
        return schedule.with_start(name, new_start)

    def _validate(self, problem, schedule, strict: bool) -> bool:
        report = check_time_valid(schedule)
        if report.ok:
            if problem.profile(schedule).is_power_valid(problem.p_max):
                return True
            if strict:
                from ..errors import ValidationError
                raise ValidationError(
                    "annealing needs a power-valid starting schedule")
            return False
        if strict:
            report.raise_if_failed()
        return False

    def _key(self, problem, schedule) -> "tuple[int, float]":
        cost = problem.profile(schedule).energy_above(problem.p_min)
        return (schedule.makespan, round(cost, 9))

    @staticmethod
    def _scalar(key: "tuple[int, float]") -> float:
        makespan, cost = key
        return makespan * 1e6 + cost


def anneal(problem: SchedulingProblem, schedule: Schedule,
           iterations: int = 3000, seed: int = 2001) -> ScheduleResult:
    """Convenience wrapper for :class:`AnnealingImprover`."""
    return AnnealingImprover(iterations=iterations,
                             seed=seed).improve(problem, schedule)
