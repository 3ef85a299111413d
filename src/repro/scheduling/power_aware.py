"""Top-level power-aware scheduling pipeline (paper Section 5).

``PowerAwareScheduler.solve`` runs the three incremental stages —
timing, max-power, min-power — and returns the final result together
with the intermediate stage results, so callers (examples, the Gantt
renderers, EXPERIMENTS.md) can show how the schedule evolves exactly as
Figs. 2 -> 5 -> 7 do for the paper's running example.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.longest_path import lp_counter_snapshot, lp_counters_delta
from ..core.problem import SchedulingProblem
from ..core.schedule import BUILD_COUNTS
from ..obs import OBS
from .base import ScheduleResult, SchedulerOptions
from .max_power import MaxPowerScheduler
from .min_power import MinPowerScheduler
from .timing import TimingScheduler

__all__ = ["PowerAwareScheduler", "PipelineResult", "schedule"]


def _timed_stage(label: str, run) -> ScheduleResult:
    """Run one pipeline stage, recording wall time and cache activity.

    The stage's wall-clock seconds land in ``stats.stage_seconds[label]``
    and the longest-path solver's answer counters (exact memo hits /
    replays / full solves / probe prunes) and the schedules and power
    profiles built during the stage are folded into the stage result's
    stats.  Under an enabled :mod:`repro.obs` session the stage also
    records a ``sched.stage.<label>`` span carrying the same counters.
    """
    snapshot = lp_counter_snapshot()
    built = dict(BUILD_COUNTS)
    with OBS.span(f"sched.stage.{label}") as stage_span:
        t0 = time.perf_counter()
        result: ScheduleResult = run()
        elapsed = time.perf_counter() - t0
        delta = lp_counters_delta(snapshot)
        built = {key: BUILD_COUNTS[key] - count
                 for key, count in built.items()}
        stage_span.set(lp_cache_hits=delta["cache_hits"],
                       lp_incremental_runs=delta["incremental_runs"],
                       lp_full_runs=delta["full_runs"],
                       lp_probe_prunes=delta["probe_prunes"],
                       schedules_built=built["schedules"],
                       profiles_built=built["profiles"])
    stats = result.stats
    stats.stage_seconds[label] = \
        stats.stage_seconds.get(label, 0.0) + elapsed
    stats.lp_cache_hits += delta["cache_hits"]
    stats.lp_incremental_runs += delta["incremental_runs"]
    stats.lp_full_runs += delta["full_runs"]
    stats.lp_probe_prunes += delta["probe_prunes"]
    stats.schedules_built += built["schedules"]
    stats.profiles_built += built["profiles"]
    return result


@dataclass
class PipelineResult:
    """The three stage results of one power-aware scheduling run.

    For problems whose tasks carry DVFS operating-point ladders, the
    run is fronted by a configuration search and ``freq_select`` holds
    that stage's result (the winning max-power evaluation, with the
    chosen per-task operating points in its ``extra``); it stays
    ``None`` for ordinary speed-fixed problems.
    """

    timing: ScheduleResult
    max_power: ScheduleResult
    min_power: ScheduleResult
    freq_select: "ScheduleResult | None" = None

    @property
    def final(self) -> ScheduleResult:
        """The schedule to deploy: the min-power stage output."""
        return self.min_power

    def stage_rows(self) -> "list[dict]":
        """Per-stage metric rows (for reports and the Fig. 2/5/7 bench)."""
        rows = []
        for label, result in (("time-valid (Fig.2)", self.timing),
                              ("power-valid (Fig.5)", self.max_power),
                              ("improved (Fig.7)", self.min_power)):
            row = {"stage": label}
            row.update(result.metrics.row())
            rows.append(row)
        return rows


class PowerAwareScheduler:
    """Facade running timing -> max power -> min power."""

    def __init__(self, options: "SchedulerOptions | None" = None):
        self.options = options or SchedulerOptions()

    def solve(self, problem: SchedulingProblem) -> ScheduleResult:
        """Solve and return only the final result."""
        return self.solve_pipeline(problem).final

    def solve_pipeline(self, problem: SchedulingProblem) -> PipelineResult:
        """Solve and return all three stage results.

        The timing stage ignores power constraints entirely (its result
        may contain spikes, as Fig. 2 does); the max-power stage result
        is valid; the min-power stage result additionally maximizes
        utilization found across the heuristic configurations.

        The graph is serialized once per solve: the max-power stage
        copies the timing stage's serialized graph, and the final
        result's stats count each stage's work once.

        A problem carrying DVFS operating-point ladders is delegated to
        :class:`~repro.scheduling.freq_select.FreqSelectScheduler`,
        which chooses a deadline-safe minimum-energy configuration and
        then runs this same three-stage pipeline on the materialized
        (speed-fixed) problem — so every caller of the pipeline gets
        the DVFS axis for free.
        """
        if problem.has_operating_points:
            from .freq_select import FreqSelectScheduler
            return FreqSelectScheduler(
                self.options).solve_pipeline(problem)
        with OBS.span("sched.pipeline", problem=problem.name):
            timing = _timed_stage(
                "timing",
                lambda: TimingScheduler(self.options).solve(problem))
            max_power = _timed_stage(
                "max_power",
                lambda: MaxPowerScheduler(self.options).solve(
                    problem, timing=timing))
            min_power = _timed_stage(
                "min_power",
                lambda: MinPowerScheduler(self.options).improve(
                    problem, max_power))
        min_power.stats.merge(max_power.stats)
        min_power.stats.merge(timing.stats)
        return PipelineResult(timing=timing, max_power=max_power,
                              min_power=min_power)


def schedule(problem: SchedulingProblem,
             options: "SchedulerOptions | None" = None) -> ScheduleResult:
    """One-call public API: power-aware schedule for a problem."""
    return PowerAwareScheduler(options).solve(problem)
