"""Runtime schedule selection from a static schedule table.

Section 5.3 observes that the improved schedule of Fig. 7 "can be
directly applied to all cases with a range of constraints where
``P_max >= 16``, ``P_min <= 14``, without recomputing a schedule for
each case.  This feature makes our statically computed power-aware
schedules adaptable to a runtime scheduler that schedules tasks
according to the dynamically changing constraints imposed by the
environment."

This module implements that runtime layer:

* every stored schedule gets a **validity range**: it is power-valid
  for any ``P_max >=`` its profile peak, and keeps *full* utilization
  for any ``P_min <=`` its profile floor;
* :meth:`ScheduleTable.select` picks, for the current environment
  ``(P_max, P_min)``, the stored schedule that is valid and scores best
  — **earliest finish first**, then lowest energy cost, then highest
  utilization as the tie-breaker (performance leads because the point
  of power-awareness is converting available power into speed; the
  key is :meth:`ScheduleEntry.score`'s, which
  ``tests/test_runtime_scheduler.py`` pins);
* :class:`RuntimeScheduler` wraps the table with a compute-on-miss
  policy, which is how the mission simulator tracks the decaying solar
  supply without rescheduling every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.metrics import energy_cost, min_power_utilization
from ..core.problem import SchedulingProblem
from ..core.profile import PowerProfile
from ..core.schedule import Schedule
from ..errors import SchedulingFailure
from .base import ScheduleResult, SchedulerOptions
from .power_aware import PowerAwareScheduler

__all__ = ["in_validity_range", "ScheduleEntry", "ScheduleTable",
           "RuntimeScheduler"]


def in_validity_range(peak: float, floor: float, p_max: float,
                      p_min: float,
                      tol: float = PowerProfile.POWER_TOL) -> bool:
    """Is ``(p_max, p_min)`` inside ``[peak, inf) x (-inf, floor]``?

    The Section 5.3 validity rectangle of a stored schedule whose
    profile peaks at ``peak`` and bottoms out at ``floor``: the schedule
    is power-valid for any budget at or above its peak, and keeps full
    utilization (so its energy cost is determined by its finish time
    alone) for any free-power level at or below its floor.  Shared by
    :class:`ScheduleEntry` and the engine's
    :class:`~repro.engine.schedule_store.ScheduleStore` so the runtime
    table and the cross-process cache agree on the same math.
    """
    return peak <= p_max + tol and p_min <= floor + tol


def _ranking_key(profile: PowerProfile, p_min: float) \
        -> "tuple[float, float, float]":
    """Ranking key of a profile under ``p_min`` (smaller is better).

    Performance first — the whole point of power-awareness is to
    convert available power into speed ("speeds up the rover's
    movement ... while drawing more costly energy") — then energy
    cost, then utilization as the tie-breaker.
    """
    return (float(profile.horizon), energy_cost(profile, p_min),
            -min_power_utilization(profile, p_min))


@dataclass(frozen=True)
class ScheduleEntry:
    """A statically-computed schedule with its validity range."""

    label: str
    schedule: Schedule
    profile: PowerProfile

    @property
    def min_p_max(self) -> float:
        """Smallest supply budget this schedule is power-valid under."""
        return self.profile.peak()

    @property
    def max_full_p_min(self) -> float:
        """Largest free-power level at which utilization is still 1."""
        return self.profile.floor()

    def is_valid_under(self, p_max: float) -> bool:
        """Power-valid for this budget?"""
        return self.min_p_max <= p_max + PowerProfile.POWER_TOL

    def covers(self, p_max: float, p_min: float) -> bool:
        """Is the environment inside this entry's validity rectangle?

        True when the schedule is power-valid under ``p_max`` *and*
        keeps full utilization at ``p_min`` — the Fig. 7 claim
        (``P_max >= 16``, ``P_min <= 14``) as a predicate.
        """
        return in_validity_range(self.min_p_max, self.max_full_p_min,
                                 p_max, p_min)

    def score(self, p_max: float, p_min: float) \
            -> "tuple[float, float, float]":
        """Ranking key under an environment; see :func:`_ranking_key`."""
        return _ranking_key(self.profile, p_min)

    def describe(self) -> str:
        """Human-readable validity range, Fig.-7 style."""
        return (f"{self.label}: valid for P_max >= "
                f"{self.min_p_max:g} W, full utilization for "
                f"P_min <= {self.max_full_p_min:g} W")


@dataclass
class ScheduleTable:
    """An ordered collection of precomputed schedules."""

    entries: "list[ScheduleEntry]" = field(default_factory=list)

    def add(self, label: str, schedule: Schedule,
            baseline: float = 0.0) -> ScheduleEntry:
        """Store a schedule; its profile/validity range is derived."""
        profile = PowerProfile.from_schedule(schedule, baseline=baseline)
        entry = ScheduleEntry(label=label, schedule=schedule,
                              profile=profile)
        self.entries.append(entry)
        return entry

    def add_result(self, label: str, result: ScheduleResult) \
            -> ScheduleEntry:
        """Store a scheduler result under a label."""
        entry = ScheduleEntry(label=label, schedule=result.schedule,
                              profile=result.profile)
        self.entries.append(entry)
        return entry

    def select(self, p_max: float, p_min: float,
               reprofile=None) -> "ScheduleEntry | None":
        """Best stored schedule valid under ``p_max`` (None on miss).

        ``reprofile(entry, p_max, p_min) -> PowerProfile`` re-evaluates
        an entry's power profile for the *target* environment.  Needed
        when task powers depend on the environment (the rover's draws
        rise as temperature falls with the sun): a schedule's stored
        profile only certifies validity for the conditions it was
        computed under.  Without ``reprofile`` the stored profile is
        trusted as-is (correct for environment-independent powers).
        """
        best = None
        best_key = None
        for entry in self.entries:
            profile = entry.profile if reprofile is None \
                else reprofile(entry, p_max, p_min)
            if profile.peak() > p_max + PowerProfile.POWER_TOL:
                continue
            key = _ranking_key(profile, p_min)
            if best_key is None or key < best_key:
                best, best_key = entry, key
        return best

    def __len__(self) -> int:
        return len(self.entries)

    def describe(self) -> "list[str]":
        """Validity-range lines for every entry."""
        return [e.describe() for e in self.entries]


class RuntimeScheduler:
    """Select-or-compute runtime policy over a schedule table.

    Parameters
    ----------
    problem_factory:
        Callable ``(p_max, p_min) -> SchedulingProblem`` building the
        workload for an environment (the rover model's power table
        varies with temperature, so the factory owns that mapping).
    options:
        Scheduler options used on table misses.
    """

    def __init__(self, problem_factory, options=None, reprofile=None):
        self.problem_factory = problem_factory
        self.options = options or SchedulerOptions()
        self.reprofile = reprofile
        self.table = ScheduleTable()
        self.misses = 0
        self.hits = 0

    def precompute(self, p_max: float, p_min: float,
                   label: str = "") -> ScheduleEntry:
        """Force-compute and store a schedule for an environment.

        This is the paper's deployment model: the design tool computes
        one schedule per anticipated operating case (the rover's
        best/typical/worst) *before* the mission; the runtime then only
        selects.  Unlike :meth:`schedule_for`, an existing valid entry
        does not suppress the computation — a conservative early entry
        must not shadow the faster schedules the richer environments
        admit.
        """
        problem = self.problem_factory(p_max, p_min)
        result = PowerAwareScheduler(self.options).solve(problem)
        label = label or f"precomputed@Pmax={p_max:g}/Pmin={p_min:g}"
        return self.table.add_result(label, result)

    def schedule_for(self, p_max: float, p_min: float) -> ScheduleEntry:
        """The schedule to run under the current environment.

        Reuses a stored schedule when one is valid (the common case as
        the environment drifts within a validity range); otherwise
        computes a new power-aware schedule, stores it, and returns it.
        """
        entry = self.table.select(p_max, p_min,
                                  reprofile=self.reprofile)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        problem = self.problem_factory(p_max, p_min)
        try:
            result = PowerAwareScheduler(self.options).solve(problem)
        except SchedulingFailure as exc:
            raise SchedulingFailure(
                f"runtime scheduler miss at (P_max={p_max:g}, "
                f"P_min={p_min:g}) and no schedule could be computed: "
                f"{exc}") from exc
        label = f"computed@Pmax={p_max:g}/Pmin={p_min:g}"
        return self.table.add_result(label, result)
