"""Min-power scheduler — the paper's Fig. 6 algorithm.

Takes a *valid* schedule (time-valid and under ``P_max``) and improves
its **min-power utilization** ``rho_sigma(P_min)`` by filling *power
gaps*: intervals where the profile drops below the free-power level
``P_min`` and renewable energy is being wasted.  A gap at time ``t`` is
filled by delaying some earlier-started task — within its slack, so no
other task moves — until it is active at ``t``.  A move is kept only if
the new schedule is still valid, finishes no later (the paper: each
improving scan delivers "the same performance with a reduced energy
cost"), and strictly improves utilization.

Since the total task energy is invariant under start-time moves,
maximizing utilization at a fixed finish time is exactly minimizing the
paper's energy cost ``Ec_sigma(P_min)``.

Finding the cost-optimal task order is exponential, so the paper scans
the schedule repeatedly under different heuristics; we reproduce the
three published knobs and take the best result across configurations:

* **scan order** over gap times: ``forward``, ``reverse``, ``random``;
* **slot choice** for the delayed task: start at the gap, right-align
  to the gap end, or a random feasible slot;
* **multiple scans**: keep re-scanning until a scan makes no move
  (new gaps/fillers appear after earlier moves).

The min-power constraint is soft: leftover gaps are tolerated.
"""

from __future__ import annotations

import itertools
import random

from ..core.graph import ConstraintGraph
from ..core.metrics import min_power_utilization
from ..core.problem import SchedulingProblem
from ..core.profile import PowerProfile
from ..core.schedule import Schedule
from ..core.slack import inherit_slack, slack
from ..core.task import ANCHOR_NAME
from ..obs import OBS
from .base import ScheduleResult, SchedulerOptions, SchedulerStats, \
    make_result
from .max_power import MaxPowerScheduler

__all__ = ["MinPowerScheduler", "min_power_schedule", "GapFillConfig"]

#: Utilization must improve by more than this for a move to be kept.
_RHO_EPS = 1e-12


class GapFillConfig:
    """One heuristic configuration: (scan order, slot choice, seed)."""

    def __init__(self, scan_order: str, slot: str, seed: int):
        self.scan_order = scan_order
        self.slot = slot
        self.seed = seed

    def __repr__(self) -> str:
        return f"GapFillConfig({self.scan_order}, {self.slot})"


class MinPowerScheduler:
    """Multi-scan gap filling (paper Fig. 6)."""

    #: Upper bound on improving scans per configuration; each improving
    #: scan strictly raises utilization so this is a safety net, not a
    #: quality knob.
    MAX_SCANS_PER_CONFIG = 32

    def __init__(self, options: "SchedulerOptions | None" = None):
        self.options = options or SchedulerOptions()
        self.stats = SchedulerStats()

    # ------------------------------------------------------------------

    def solve(self, problem: SchedulingProblem) -> ScheduleResult:
        """Full pipeline: timing -> max power -> min power.

        Returns the best schedule across heuristic configurations with
        ``stage="min_power"``.
        """
        base = MaxPowerScheduler(self.options).solve(problem)
        self.stats = SchedulerStats()
        self.stats.merge(base.stats)
        return self.improve(problem, base)

    def improve(self, problem: SchedulingProblem,
                base: ScheduleResult) -> ScheduleResult:
        """Gap-fill an existing valid result (``base``).

        Precondition: ``base.schedule`` is the ASAP schedule of the
        decorated graph ``base.extra["graph"]``, and ``base.profile``
        its profile under ``problem``; every max-power and serial
        result of ``problem`` is.  Then each gap-fill trial, a delay of
        one task within its slack, is that schedule with one start
        changed (DESIGN.md §5o), so the scans build no graph and solve
        no longest path.  The winning configuration's moves become
        ``gapfill`` release edges on one copy of the graph, which the
        returned schedule and ``extra["graph"]`` share, and its last
        trial profile is the result's; when no configuration improves,
        ``base``'s own schedule, profile and graph are returned.
        """
        base_graph: ConstraintGraph = base.extra["graph"]
        best_schedule, best_profile = base.schedule, base.profile
        best_moves: "list[tuple[str, int]]" = []
        best_rho = base.metrics.utilization
        best_config = None
        needs_work = problem.p_min > 0 and best_rho < 1.0 - _RHO_EPS
        if needs_work:
            for config in self._configs():
                with OBS.span("sched.minp.scan",
                              order=config.scan_order,
                              slot=config.slot) as scan_span:
                    schedule, profile, rho, moves = self._fill_gaps(
                        problem, config, base)
                    scan_span.set(rho=round(rho, 6))
                if rho > best_rho + _RHO_EPS:
                    best_schedule, best_profile = schedule, profile
                    best_moves, best_rho = moves, rho
                    best_config = config
                if best_rho >= 1.0 - _RHO_EPS:
                    break
        graph = base_graph
        if best_moves:
            graph = base_graph.copy()
            for name, start in best_moves:
                graph.add_edge(ANCHOR_NAME, name, start, tag="gapfill")
            best_schedule._rebind(graph)
        result = make_result(problem, best_schedule, stats=self.stats,
                             stage="min_power", profile=best_profile)
        result.extra["graph"] = graph
        result.extra["config"] = best_config
        return result

    # ------------------------------------------------------------------

    def _configs(self) -> "list[GapFillConfig]":
        """The heuristic configurations to try, paper default first."""
        combos = list(itertools.product(self.options.scan_orders,
                                        self.options.slot_heuristics))
        # Put the deterministic forward/start pairing first when present.
        combos.sort(key=lambda c: (c != ("forward", "start_at_gap"),))
        combos = combos[:max(1, self.options.min_power_scans)]
        return [GapFillConfig(order, slot, self.options.seed + i)
                for i, (order, slot) in enumerate(combos)]

    def _fill_gaps(self, problem: SchedulingProblem,
                   config: GapFillConfig, base: ScheduleResult) \
            -> "tuple[Schedule, PowerProfile, float, list[tuple[str, int]]]":
        """Run repeated gap-filling scans under one configuration.

        Starts from ``base``'s schedule, profile and utilization and
        never touches a graph: every schedule it builds belongs to
        ``base``'s graph.  Returns the final schedule, its profile, its
        utilization and the accepted ``(task, new start)`` moves in
        order; the schedule is the ASAP schedule of ``base``'s graph
        plus one ``anchor -> task`` release edge per move.  The profile
        is the last accepted trial's, built over ``[0, tau)`` with
        ``tau`` the schedule's own makespan (a move never changes it),
        or ``base.profile`` when nothing moved.
        """
        rng = random.Random(config.seed)
        schedule, profile = base.schedule, base.profile
        rho = base.metrics.utilization
        moves: "list[tuple[str, int]]" = []
        for _ in range(self.MAX_SCANS_PER_CONFIG):
            self.stats.scans += 1
            moved = False
            gap_times = [gap.start for gap in profile.gaps(problem.p_min)]
            if config.scan_order == "reverse":
                gap_times.reverse()
            elif config.scan_order == "random":
                rng.shuffle(gap_times)
            for t in gap_times:
                outcome = self._fill_one_gap(problem, schedule, profile,
                                             t, config, rng, rho)
                if outcome is not None:
                    schedule, profile, rho, move = outcome
                    moves.append(move)
                    moved = True
                    if rho >= 1.0 - _RHO_EPS:
                        return schedule, profile, rho, moves
            if not moved:
                break
        return schedule, profile, rho, moves

    def _fill_one_gap(self, problem, schedule, profile, t, config, rng,
                      rho_now):
        """Try to move one earlier task into the gap at time ``t``.

        Returns ``(schedule, profile, rho, (task, new start))`` on an
        accepted move, else None.  The gap may have moved or closed
        since the scan list was built; we re-read the profile and skip
        stale entries.

        A new start inside the task's slot window is a delay within its
        slack, so the trial schedule is ``schedule`` with that one start
        changed: it finishes by ``schedule``'s makespan exactly when the
        moved task does, which is tested before anything is built.
        """
        if profile.value(t) >= problem.p_min - PowerProfile.POWER_TOL:
            return None
        makespan = schedule.makespan
        tasks = schedule.graph._tasks
        for name in self._gap_candidates(schedule, t):
            window = self._slot_window(schedule, name, t)
            if window is None:
                continue
            new_start = self._choose_slot(window, tasks[name], t,
                                          profile, config, rng)
            if new_start + tasks[name].duration <= makespan:
                trial = schedule.with_start(name, new_start)
                trial_profile = problem.profile(trial, horizon=makespan)
                if trial_profile.is_power_valid(problem.p_max):
                    rho_new = min_power_utilization(trial_profile,
                                                    problem.p_min)
                    if rho_new > rho_now + _RHO_EPS:
                        self.stats.gap_fill_moves += 1
                        inherit_slack(trial, schedule, name)
                        return (trial, trial_profile, rho_new,
                                (name, new_start))
            self.stats.gap_fill_rejected += 1
        return None

    def _gap_candidates(self, schedule: Schedule, t: int) -> "list[str]":
        """Tasks that start before ``t`` and could be active at ``t``
        after a within-slack delay; nearest (latest-starting) first."""
        tasks = schedule.graph._tasks
        out = []
        for name, start in schedule.items():
            task = tasks[name]
            if task.duration == 0 or task.power == 0 or start > t:
                continue
            if t < start + task.duration:  # already active at t
                continue
            if slack(schedule, name) >= t - start - task.duration + 1:
                out.append((start, name))
        out.sort(key=lambda pair: (-pair[0], pair[1]))
        return [name for _, name in out]

    def _slot_window(self, schedule: Schedule, name: str,
                     t: int) -> "tuple[int, int] | None":
        """Feasible new-start interval making ``name`` active at ``t``.

        ``[lo, hi]`` with ``lo > sigma(name)`` (a real delay), bounded
        by the task's slack so nothing else moves.
        """
        task = schedule.graph.task(name)
        start = schedule.start(name)
        lo = max(start + 1, t - task.duration + 1)
        hi = min(t, start + slack(schedule, name))
        if lo > hi:
            return None
        return lo, hi

    def _choose_slot(self, window, task, t, profile, config, rng) -> int:
        """Pick the new start inside ``window`` per the slot heuristic."""
        lo, hi = window
        if config.slot == "start_at_gap":
            choice = t
        elif config.slot == "finish_at_gap_end":
            # Right-align the task to the end of the gap containing t.
            choice = profile.segment_end(t) - task.duration
        else:
            choice = rng.randint(lo, hi)
        return min(max(choice, lo), hi)


def min_power_schedule(problem: SchedulingProblem,
                       options: "SchedulerOptions | None" = None) \
        -> ScheduleResult:
    """Convenience wrapper: the full three-stage pipeline."""
    return MinPowerScheduler(options).solve(problem)
