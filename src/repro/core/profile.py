"""Power profiles: the piecewise-constant function ``P_sigma(t)``.

Section 4.2 of the paper defines the *power profile* of a schedule as
the instantaneous total power drawn during execution.  On the integer
time grid the profile is piecewise constant with breakpoints only at
task starts and finishes, so we represent it as a sorted list of
half-open segments ``(t0, t1, power)`` covering ``[0, horizon)``.

The profile answers every power question the schedulers and metrics
need:

* **power spikes** — maximal intervals where ``P(t) > P_max`` (hard
  violations the max-power scheduler must remove),
* **power gaps** — maximal intervals where ``P(t) < P_min`` (soft
  violations the min-power scheduler tries to fill),
* energy integrals split at an arbitrary level (free vs costly energy).

A constant ``baseline`` models always-on consumers (the rover's CPU in
Table 2, resource idle power) without making them schedulable tasks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable

from ..errors import ValidationError
from .schedule import BUILD_COUNTS, Schedule
from .tolerance import POWER_TOL as _POWER_TOL

__all__ = ["Interval", "PowerProfile"]


@dataclass(frozen=True)
class Interval:
    """A half-open time interval ``[start, end)`` with an annotation.

    ``extremum`` records the worst profile value inside the interval:
    the peak power for a spike, the lowest power for a gap.
    """

    start: int
    end: int
    extremum: float

    @property
    def length(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:
        return f"[{self.start}, {self.end}) @ {self.extremum:g}W"


class PowerProfile:
    """Piecewise-constant instantaneous power of a schedule."""

    def __init__(self, segments: "Iterable[tuple[int, int, float]]",
                 baseline: float = 0.0):
        """Build directly from ``(t0, t1, power)`` segments.

        Most callers use :meth:`from_schedule` instead.  Segments must
        be non-overlapping, sorted, and contiguous from 0; ``baseline``
        is *already included* in the stored powers (it is remembered
        only for reporting).
        """
        self._segments: "list[tuple[int, int, float]]" = []
        prev_end = 0
        for t0, t1, power in segments:
            if t0 != prev_end:
                raise ValidationError(
                    f"profile segments must be contiguous from 0; gap or "
                    f"overlap at t={t0} (expected {prev_end})")
            if t1 <= t0:
                raise ValidationError(
                    f"empty or negative segment [{t0}, {t1})")
            if power < 0:
                raise ValidationError(
                    f"negative power {power} in segment [{t0}, {t1})")
            # Merge equal-power neighbours for compactness.  "Equal"
            # uses the same POWER_TOL as every validity check: summing
            # task powers in a different order (permuted inputs) can
            # jitter a level by an ulp, and an exact == here would then
            # split one plateau into two segments — changing segment
            # counts while every power query still agreed.  The merged
            # segment keeps the first-seen power, so a long plateau
            # cannot drift.
            if self._segments and \
                    abs(self._segments[-1][2] - power) <= self.POWER_TOL:
                last = self._segments.pop()
                self._segments.append((last[0], t1, last[2]))
            else:
                self._segments.append((t0, t1, power))
            prev_end = t1
        self.baseline = baseline
        self._starts = [seg[0] for seg in self._segments]
        BUILD_COUNTS["profiles"] += 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_schedule(schedule: Schedule, baseline: float = 0.0,
                      horizon: "int | None" = None) -> "PowerProfile":
        """The profile of a schedule plus a constant baseline.

        ``horizon`` extends (or exactly covers) the profile domain; by
        default it is the schedule's finish time ``tau_sigma``.  Resource
        idle power declared on the graph is added to the baseline.
        """
        baseline = baseline + schedule.graph.resources.total_idle_power
        tau = schedule.makespan
        horizon = tau if horizon is None else horizon
        if horizon < tau:
            raise ValidationError(
                f"horizon {horizon} is before the schedule finish {tau}")
        if horizon == 0:
            return PowerProfile([], baseline=baseline)

        # Per-time power deltas, summed in task order with a task's
        # start before its end; the summation order fixes every level
        # to the bit.
        tasks = schedule.graph._tasks
        deltas: "dict[int, float]" = {}
        for name, start in schedule.items():
            task = tasks[name]
            power = task.power
            if task.duration == 0 or power == 0:
                continue
            end = start + task.duration
            deltas[start] = deltas.get(start, 0.0) + power
            deltas[end] = deltas.get(end, 0.0) - power

        # One running level over the sorted change times (all within
        # [0, horizon], since horizon >= the finish time; a zero delta
        # at the horizon closes the last piece).  Equal-power
        # neighbours merge as they close, exactly as __init__ merges
        # them: the open run [run_t0, prev) keeps its first-seen power
        # ``run`` while each next level lies within POWER_TOL of it.
        # The segments are contiguous from 0 with t1 > t0 and powers
        # max(level, 0.0) (a -0.0 level stays -0.0), so __init__'s
        # checks hold by construction and its walk is skipped.
        deltas.setdefault(horizon, 0.0)
        tol = PowerProfile.POWER_TOL
        segments: "list[tuple[int, int, float]]" = []
        level = baseline
        prev = run_t0 = 0
        run = None
        for t in sorted(deltas):
            if t > prev:
                power = max(level, 0.0)
                if run is None:
                    run = power
                elif not abs(run - power) <= tol:
                    segments.append((run_t0, prev, run))
                    run_t0, run = prev, power
                prev = t
            level += deltas[t]
        segments.append((run_t0, prev, run))
        return PowerProfile._trusted(segments, baseline)

    @classmethod
    def _trusted(cls, segments: "list[tuple[int, int, float]]",
                 baseline: float) -> "PowerProfile":
        """A profile over ``segments`` that already hold every check and
        merge of :meth:`__init__` (:meth:`from_schedule` builds them)."""
        profile = cls.__new__(cls)
        profile._segments = segments
        profile.baseline = baseline
        profile._starts = [seg[0] for seg in segments]
        BUILD_COUNTS["profiles"] += 1
        return profile

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def segments(self) -> "list[tuple[int, int, float]]":
        """The merged ``(t0, t1, power)`` segments, sorted."""
        return list(self._segments)

    @property
    def horizon(self) -> int:
        """End of the profile domain."""
        return self._segments[-1][1] if self._segments else 0

    def value(self, t: int) -> float:
        """``P(t)`` for ``0 <= t < horizon`` (0 outside)."""
        if not self._segments or t < 0 or t >= self.horizon:
            return 0.0
        idx = bisect_right(self._starts, t) - 1
        return self._segments[idx][2]

    def segment_end(self, t: int) -> int:
        """End of the segment containing ``t``: the first time after
        ``t`` at which the power changes (``t + 1`` outside the
        domain)."""
        if not self._segments or t < 0 or t >= self.horizon:
            return t + 1
        return self._segments[bisect_right(self._starts, t) - 1][1]

    def peak(self) -> float:
        """The maximum instantaneous power."""
        return max((seg[2] for seg in self._segments), default=0.0)

    def floor(self) -> float:
        """The minimum instantaneous power over the domain."""
        return min((seg[2] for seg in self._segments), default=0.0)

    # ------------------------------------------------------------------
    # spikes and gaps (Section 4.2)
    # ------------------------------------------------------------------

    #: Absolute tolerance for power comparisons
    #: (:data:`repro.core.tolerance.POWER_TOL`).
    POWER_TOL = _POWER_TOL

    def spikes(self, p_max: float, tol: float = POWER_TOL) \
            -> "list[Interval]":
        """Maximal intervals where ``P(t) > P_max`` (hard violations)."""
        return self._level_intervals(lambda p: p > p_max + tol, max)

    def gaps(self, p_min: float, tol: float = POWER_TOL) \
            -> "list[Interval]":
        """Maximal intervals where ``P(t) < P_min`` (soft violations)."""
        return self._level_intervals(lambda p: p < p_min - tol, min)

    def first_spike(self, p_max: float, tol: float = POWER_TOL) \
            -> "Interval | None":
        """The earliest spike, or None if the profile is power-valid."""
        for t0, t1, power in self._segments:
            if power > p_max + tol:
                return self._extend_interval(
                    t0, lambda p: p > p_max + tol, max)
        return None

    def first_gap(self, p_min: float, tol: float = POWER_TOL) \
            -> "Interval | None":
        """The earliest gap, or None if there are no gaps."""
        for t0, t1, power in self._segments:
            if power < p_min - tol:
                return self._extend_interval(
                    t0, lambda p: p < p_min - tol, min)
        return None

    def is_power_valid(self, p_max: float, tol: float = POWER_TOL) -> bool:
        """True when the profile never exceeds the max power constraint."""
        return all(seg[2] <= p_max + tol for seg in self._segments)

    def _level_intervals(self, predicate, extremum_fn) -> "list[Interval]":
        out: "list[Interval]" = []
        cur_start = None
        cur_ext: "float | None" = None
        for t0, t1, power in self._segments:
            if predicate(power):
                if cur_start is None:
                    cur_start, cur_ext = t0, power
                else:
                    cur_ext = extremum_fn(cur_ext, power)
                cur_end = t1
            elif cur_start is not None:
                out.append(Interval(cur_start, cur_end, cur_ext))
                cur_start, cur_ext = None, None
        if cur_start is not None:
            out.append(Interval(cur_start, cur_end, cur_ext))
        return out

    def _extend_interval(self, start: int, predicate, extremum_fn) \
            -> Interval:
        # Jump straight to the segment containing ``start`` instead of
        # scanning from t=0 — first_spike/first_gap call this inside the
        # scheduler inner loop, and late violations made it O(S) per
        # call.  ``bisect_right - 1`` lands on the covering segment (or
        # -1 before the domain, clamped); the ``t1 <= start`` guard is
        # kept for the boundary where ``start`` equals that segment's
        # end.
        ext = None
        end = start
        first = max(bisect_right(self._starts, start) - 1, 0)
        for i in range(first, len(self._segments)):
            t0, t1, power = self._segments[i]
            if t1 <= start:
                continue
            if predicate(power):
                ext = power if ext is None else extremum_fn(ext, power)
                end = t1
            elif end > start:
                break
        return Interval(start, end, ext if ext is not None else 0.0)

    # ------------------------------------------------------------------
    # energy integrals
    # ------------------------------------------------------------------

    def energy(self) -> float:
        """Total energy ``integral P(t) dt`` in joules."""
        return sum((t1 - t0) * p for t0, t1, p in self._segments)

    def energy_above(self, level: float) -> float:
        """``integral max(0, P(t) - level) dt`` — energy drawn *above*
        a supply level (the paper's energy cost when ``level = P_min``)."""
        return sum((t1 - t0) * (p - level)
                   for t0, t1, p in self._segments if p > level)

    def energy_capped(self, level: float) -> float:
        """``integral min(P(t), level) dt`` — energy absorbed from a
        source capped at ``level`` (free-solar usage when
        ``level = P_min``)."""
        return sum((t1 - t0) * min(p, level) for t0, t1, p in self._segments)

    # ------------------------------------------------------------------
    # arithmetic / composition
    # ------------------------------------------------------------------

    def restricted(self, t0: int, t1: int) -> "PowerProfile":
        """The profile over ``[t0, t1)``, re-zeroed to start at 0."""
        if not 0 <= t0 < t1 <= self.horizon:
            raise ValidationError(
                f"restriction [{t0}, {t1}) outside domain "
                f"[0, {self.horizon})")
        segs = []
        for s0, s1, p in self._segments:
            lo, hi = max(s0, t0), min(s1, t1)
            if lo < hi:
                segs.append((lo - t0, hi - t0, p))
        return PowerProfile(segs, baseline=self.baseline)

    @staticmethod
    def concatenate(profiles: "list[PowerProfile]",
                    baseline: "float | None" = None) -> "PowerProfile":
        """Join profiles back to back (mission-level power curve).

        The joined profile's reported ``baseline`` is the first
        profile's (all parts of one mission share the same always-on
        load); concatenating profiles with *different* baselines is
        ambiguous — no single constant describes the result — so it is
        rejected unless an explicit ``baseline`` override says which
        value the joined curve should report.  (The segment powers
        themselves already include each part's baseline and are joined
        verbatim either way.)
        """
        explicit = baseline is not None
        segs: "list[tuple[int, int, float]]" = []
        offset = 0
        for prof in profiles:
            if baseline is None:
                baseline = prof.baseline
            elif not explicit and prof.baseline != baseline:
                raise ValidationError(
                    f"cannot concatenate profiles with mixed baselines "
                    f"({baseline:g} W vs {prof.baseline:g} W); pass an "
                    f"explicit baseline= to pick the reported value")
            for t0, t1, p in prof.segments:
                segs.append((t0 + offset, t1 + offset, p))
            offset += prof.horizon
        return PowerProfile(segs,
                            baseline=baseline if baseline is not None
                            else 0.0)

    def sampled(self, step: int = 1) -> "list[float]":
        """Sample ``P(t)`` every ``step`` units (for plotting/tests)."""
        if step <= 0:
            raise ValidationError(f"step must be positive, got {step}")
        return [self.value(t) for t in range(0, self.horizon, step)]

    def __repr__(self) -> str:
        return (f"PowerProfile(horizon={self.horizon}, "
                f"peak={self.peak():g}W, segments={len(self._segments)})")
