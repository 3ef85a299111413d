"""Shared scheduler plumbing: options, statistics, results.

Every scheduler in this package takes a
:class:`~repro.core.problem.SchedulingProblem` and returns a
:class:`ScheduleResult`.  Schedulers never mutate the problem's graph —
they work on a private copy (``problem.fresh_graph()``), so the same
problem can be solved repeatedly under different options or power
constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.metrics import ScheduleMetrics, profile_metrics
from ..core.problem import SchedulingProblem
from ..core.profile import PowerProfile
from ..core.schedule import Schedule

__all__ = ["SchedulerOptions", "SchedulerStats", "ScheduleResult",
           "make_result"]


@dataclass
class SchedulerOptions:
    """Tunable knobs shared by the scheduling algorithms.

    The defaults reproduce the paper's heuristics; the ablation
    benchmarks flip individual knobs to measure their contribution.

    Attributes
    ----------
    max_backtracks:
        Budget for backtracking steps in the timing scheduler before it
        gives up (the paper's algorithm is exhaustive; the cap only
        matters for adversarial synthetic instances).
    max_spike_attempts:
        Budget for spike-elimination branches in the max-power
        scheduler (per restart).
    max_power_restarts:
        Number of multi-start repair attempts in the max-power
        scheduler.  Restart 0 is the pure paper heuristic; later
        restarts perturb tie-breaking among equal-slack tasks, and the
        best schedule by (finish time, energy cost) wins.  A restart
        whose tie-breaking orders every candidate list restart 0 sorts
        the same way would repeat restart 0, so it is skipped.  Set to
        1 for the paper's single-run behaviour.
    slack_ordering:
        If True (paper default) order simultaneous tasks by slack and
        delay the largest-slack task first; if False pick in a
        seed-determined random order (ablation: "random selection").
    delay_bound_by_duration:
        If True (paper default) cap each delay distance at the task's
        execution time.
    compaction:
        If True (default) the max-power scheduler runs a left-shift
        compaction pass after spike elimination: scheduler-added delay
        edges are relaxed as far as power-validity allows, removing
        idle time the greedy repair left at the front of the schedule.
        An extension knob (not in the paper's pseudo-code) that the
        ablation bench measures; turning it off reproduces the raw
        Fig. 4 behaviour.
    serial_fallback:
        If True (default) the max-power scheduler also evaluates the
        fully-serialized schedule and keeps it when it beats the repair
        result on (finish time, energy cost).  The paper notes its
        worst-case power-aware schedule coincides with the serial one;
        this knob makes that comparison explicit and measurable.
    min_power_scans:
        Number of gap-filling scan configurations the min-power
        scheduler tries (scan order x slot heuristic); the best result
        wins.
    scan_orders:
        Which time-scan orders the min-power scheduler may use.
    slot_heuristics:
        How a task is positioned inside a power gap: start at the gap
        (``"start_at_gap"``), right-align to the gap end
        (``"finish_at_gap_end"``), or pick randomly (``"random"``).
    seed:
        Seed for every randomized choice; results are deterministic for
        a fixed seed.
    """

    max_backtracks: int = 10_000
    max_spike_attempts: int = 2_000
    max_power_restarts: int = 2
    slack_ordering: bool = True
    delay_bound_by_duration: bool = True
    compaction: bool = True
    serial_fallback: bool = True
    min_power_scans: int = 6
    scan_orders: "tuple[str, ...]" = ("forward", "reverse", "random")
    slot_heuristics: "tuple[str, ...]" = ("start_at_gap",
                                          "finish_at_gap_end", "random")
    seed: int = 2001

    def __post_init__(self) -> None:
        valid_orders = {"forward", "reverse", "random"}
        bad = set(self.scan_orders) - valid_orders
        if bad:
            raise ValueError(f"unknown scan orders: {sorted(bad)}")
        valid_slots = {"start_at_gap", "finish_at_gap_end", "random"}
        bad = set(self.slot_heuristics) - valid_slots
        if bad:
            raise ValueError(f"unknown slot heuristics: {sorted(bad)}")


@dataclass
class SchedulerStats:
    """Counters describing the work one scheduler run performed.

    Besides the algorithmic counters, a run carries its observability
    payload: per-stage wall-clock timings (``stage_seconds``, keyed by
    pipeline stage name) and how the longest-path solver answered
    (exact memo hits, journal replays, full Bellman–Ford solves, and
    probes pruned from a certified contradiction), and how many
    schedules and power profiles it built.  The batch engine
    (:mod:`repro.engine`) aggregates these into its JSON run traces,
    and :meth:`absorb_into` folds them into a :mod:`repro.obs` metrics
    registry under the stable ``sched.*`` naming scheme
    (:data:`repro.obs.STATS_METRIC_NAMES`).
    """

    timing_backtracks: int = 0
    serializations: int = 0
    longest_path_runs: int = 0
    spikes_removed: int = 0
    delays_applied: int = 0
    spike_attempts: int = 0
    gap_fill_moves: int = 0
    gap_fill_rejected: int = 0
    scans: int = 0
    lp_cache_hits: int = 0
    lp_incremental_runs: int = 0
    lp_full_runs: int = 0
    lp_probe_prunes: int = 0
    schedules_built: int = 0
    profiles_built: int = 0
    stage_seconds: "dict[str, float]" = field(default_factory=dict)

    def merge(self, other: "SchedulerStats") -> None:
        """Accumulate counters from a nested scheduler run."""
        for name in self.__dataclass_fields__:
            if name == "stage_seconds":
                for stage, seconds in other.stage_seconds.items():
                    self.stage_seconds[stage] = \
                        self.stage_seconds.get(stage, 0.0) + seconds
                continue
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> "dict[str, Any]":
        """A plain-JSON view (counters + stage timings) for traces."""
        counters = {name: getattr(self, name)
                    for name in self.__dataclass_fields__
                    if name != "stage_seconds"}
        return {"counters": counters,
                "stage_seconds": dict(self.stage_seconds)}

    def absorb_into(self, registry) -> None:
        """Fold this run's counters and stage timings into a
        :class:`repro.obs.MetricsRegistry` under the ``sched.*``
        metric names."""
        from ..obs import absorb_scheduler_stats
        absorb_scheduler_stats(registry, self.as_dict())


@dataclass
class ScheduleResult:
    """A solved scheduling problem.

    Bundles the schedule with its profile, the Section 4.2 metrics under
    the problem's (P_max, P_min), the scheduler's work counters, and the
    decorated graph (containing the serialization/delay/lock edges the
    schedulers added — useful for Gantt annotation and for the runtime
    validity-range analysis).
    """

    problem: SchedulingProblem
    schedule: Schedule
    profile: PowerProfile
    metrics: ScheduleMetrics
    stats: SchedulerStats = field(default_factory=SchedulerStats)
    stage: str = "power_aware"
    extra: "Mapping[str, Any]" = field(default_factory=dict)

    @property
    def finish_time(self) -> int:
        """``tau_sigma`` of the solution."""
        return self.schedule.makespan

    @property
    def energy_cost(self) -> float:
        """``Ec_sigma(P_min)`` of the solution in joules."""
        return self.metrics.energy_cost

    @property
    def utilization(self) -> float:
        """``rho_sigma(P_min)`` of the solution in [0, 1]."""
        return self.metrics.utilization

    def summary(self) -> str:
        """One-line human-readable result summary."""
        return (f"{self.problem.name}: tau={self.finish_time}s, "
                f"Ec={self.energy_cost:.1f}J, "
                f"rho={100 * self.utilization:.1f}%, "
                f"peak={self.metrics.peak_power:.1f}W "
                f"[stage={self.stage}]")


def make_result(problem: SchedulingProblem, schedule: Schedule,
                stats: "SchedulerStats | None" = None,
                stage: str = "power_aware",
                extra: "Mapping[str, Any] | None" = None,
                profile: "PowerProfile | None" = None) -> ScheduleResult:
    """Assemble a :class:`ScheduleResult` (profile + metrics computed).

    A caller that already holds ``problem.profile(schedule)`` passes it
    as ``profile`` instead of having it built again.
    """
    if profile is None:
        profile = problem.profile(schedule)
    metrics = profile_metrics(profile, schedule.makespan, problem.p_max,
                              problem.p_min)
    return ScheduleResult(problem=problem, schedule=schedule,
                          profile=profile, metrics=metrics,
                          stats=stats or SchedulerStats(), stage=stage,
                          extra=dict(extra or {}))
