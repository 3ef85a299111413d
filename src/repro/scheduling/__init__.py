"""Scheduling algorithms (paper Section 5) and baselines.

The paper's pipeline is ``TimingScheduler`` -> ``MaxPowerScheduler`` ->
``MinPowerScheduler``, wrapped by :class:`PowerAwareScheduler` /
:func:`schedule`.  Baselines for the evaluation are the fully-serial
JPL-style scheduler, a greedy power-capped list scheduler, and an
exhaustive optimal scheduler for small instances.  The runtime layer
reuses statically-computed schedules across environment changes.
"""

from .annealing import AnnealingImprover, anneal
from .base import (ScheduleResult, SchedulerOptions, SchedulerStats,
                   make_result)
from .dvs import CPU_RESOURCE, DvsScheduler, dvs_schedule
from .freq_select import FreqSelectScheduler, freq_select_schedule
from .heuristics import PRESETS, preset, preset_names
from .list_scheduler import GreedyListScheduler, greedy_schedule
from .max_power import (SERIAL_FALLBACK_BACKTRACKS, MaxPowerScheduler,
                        max_power_schedule, serial_fallback_schedule)
from .min_power import GapFillConfig, MinPowerScheduler, min_power_schedule
from .optimal import OptimalScheduler, optimal_schedule
from .power_aware import PipelineResult, PowerAwareScheduler, schedule
from .runtime import (RuntimeScheduler, ScheduleEntry, ScheduleTable,
                      in_validity_range)
from .serial import SerialScheduler, serial_schedule
from .timing import TimingScheduler, asap_schedule, timing_schedule

__all__ = [
    "AnnealingImprover",
    "CPU_RESOURCE",
    "DvsScheduler",
    "FreqSelectScheduler",
    "anneal",
    "freq_select_schedule",
    "GapFillConfig",
    "GreedyListScheduler",
    "dvs_schedule",
    "MaxPowerScheduler",
    "MinPowerScheduler",
    "OptimalScheduler",
    "PRESETS",
    "PipelineResult",
    "PowerAwareScheduler",
    "RuntimeScheduler",
    "ScheduleEntry",
    "ScheduleResult",
    "ScheduleTable",
    "SchedulerOptions",
    "SchedulerStats",
    "SERIAL_FALLBACK_BACKTRACKS",
    "SerialScheduler",
    "TimingScheduler",
    "asap_schedule",
    "greedy_schedule",
    "in_validity_range",
    "make_result",
    "max_power_schedule",
    "min_power_schedule",
    "optimal_schedule",
    "preset",
    "preset_names",
    "schedule",
    "serial_fallback_schedule",
    "serial_schedule",
    "timing_schedule",
]
