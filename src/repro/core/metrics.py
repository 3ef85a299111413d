"""Power-aware schedule metrics (paper Section 4.2).

The two headline quantities distinguish *free* power (solar, lost if
unused) from *costly* power (non-rechargeable battery):

* **Energy cost** ``Ec_sigma(P_min)``: energy drawn above the free level
  — what the battery must supply.

      ``Ec = integral over [0, tau] of max(0, P(t) - P_min) dt``

* **Min-power utilization** ``rho_sigma(P_min)``: fraction of the free
  energy actually absorbed.

      ``rho = integral min(P(t), P_min) dt / (P_min * tau)``

Conventional energy minimization is the special case ``P_min = 0``
(then ``Ec`` is the total energy and ``rho`` is defined as 1).

We also provide power-jitter statistics, since the paper motivates the
min-power constraint partly as a jitter-control mechanism for battery
health.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .profile import PowerProfile
from .schedule import Schedule

__all__ = ["ScheduleMetrics", "energy_cost", "min_power_utilization",
           "power_jitter", "evaluate", "profile_metrics"]


def energy_cost(profile: PowerProfile, p_min: float) -> float:
    """``Ec_sigma(P_min)`` in joules: battery energy drawn above the
    free-power level."""
    return profile.energy_above(p_min)


def min_power_utilization(profile: PowerProfile, p_min: float) -> float:
    """``rho_sigma(P_min)`` in [0, 1]: free energy used / free energy
    available.  Defined as 1.0 when ``P_min == 0`` or the horizon is
    empty (there is no free energy to waste)."""
    if p_min <= 0 or profile.horizon == 0:
        return 1.0
    available = p_min * profile.horizon
    return profile.energy_capped(p_min) / available


def power_jitter(profile: PowerProfile) -> "tuple[float, float]":
    """(standard deviation, peak-to-average ratio) of ``P(t)``.

    Battery-friendliness indicators: the min-power constraint flattens
    the curve, reducing both.
    """
    horizon = profile.horizon
    if horizon == 0:
        return 0.0, 1.0
    mean = profile.energy() / horizon
    var = sum((t1 - t0) * (p - mean) ** 2
              for t0, t1, p in profile.segments) / horizon
    ratio = profile.peak() / mean if mean > 0 else math.inf
    return math.sqrt(var), ratio


@dataclass(frozen=True)
class ScheduleMetrics:
    """Everything Table 3 reports about one schedule, plus extras."""

    finish_time: int
    total_energy: float
    energy_cost: float
    utilization: float
    free_energy_used: float
    free_energy_available: float
    peak_power: float
    jitter_std: float
    peak_to_average: float
    spikes: int
    gaps: int

    def row(self) -> "dict[str, float]":
        """A flat dict suitable for report tables."""
        return {
            "tau_s": self.finish_time,
            "energy_J": round(self.total_energy, 3),
            "energy_cost_J": round(self.energy_cost, 3),
            "utilization_pct": round(100.0 * self.utilization, 1),
            "peak_W": round(self.peak_power, 3),
            "jitter_std_W": round(self.jitter_std, 3),
        }


def evaluate(schedule: Schedule, p_max: float, p_min: float,
             baseline: float = 0.0) -> ScheduleMetrics:
    """Compute the full metric set of a schedule under (P_max, P_min)."""
    return profile_metrics(
        PowerProfile.from_schedule(schedule, baseline=baseline),
        schedule.makespan, p_max, p_min)


def profile_metrics(profile: PowerProfile, finish_time: int,
                    p_max: float, p_min: float) -> ScheduleMetrics:
    """The full metric set of a schedule finishing at ``finish_time``,
    read off its already-built ``profile`` (over ``[0, finish_time]``)."""
    std, ratio = power_jitter(profile)
    return ScheduleMetrics(
        finish_time=finish_time,
        total_energy=profile.energy(),
        energy_cost=energy_cost(profile, p_min),
        utilization=min_power_utilization(profile, p_min),
        free_energy_used=profile.energy_capped(p_min),
        free_energy_available=p_min * profile.horizon,
        peak_power=profile.peak(),
        jitter_std=std,
        peak_to_average=ratio,
        spikes=len(profile.spikes(p_max)),
        gaps=len(profile.gaps(p_min)),
    )
