"""Core data model: tasks, constraint graphs, schedules, power profiles.

This package implements Section 4 of the paper — the problem
formulation.  The scheduling algorithms live in
:mod:`repro.scheduling`; everything here is algorithm-agnostic.
"""

from .diagnose import (CycleExplanation, explain_infeasibility,
                       find_cycle)
from .dvfs import (DEFAULT_LADDER, attach_ladder, ladder_from_freqs,
                   materialize_assignment, quantize_power, scaled_duration,
                   scaled_power)
from .graph import ConstraintGraph, Edge
from .longest_path import (LongestPathResult, earliest_starts,
                           latest_starts, longest_paths)
from .phased import (add_phased_task, is_phase_of, phase_names,
                     phased_start)
from .metrics import (ScheduleMetrics, energy_cost, evaluate,
                      min_power_utilization, power_jitter)
from .problem import SchedulingProblem
from .profile import Interval, PowerProfile
from .resource import Resource, ResourcePool
from .schedule import Schedule
from .slack import UNBOUNDED_SLACK, movable_window, slack, slack_table
from .task import ANCHOR_NAME, OperatingPoint, Task
from .validation import (ValidationReport, Violation, assert_power_valid,
                         assert_time_valid, check_power_valid,
                         check_time_valid)

__all__ = [
    "ANCHOR_NAME",
    "ConstraintGraph",
    "CycleExplanation",
    "DEFAULT_LADDER",
    "Edge",
    "Interval",
    "LongestPathResult",
    "OperatingPoint",
    "PowerProfile",
    "Resource",
    "ResourcePool",
    "Schedule",
    "ScheduleMetrics",
    "SchedulingProblem",
    "Task",
    "UNBOUNDED_SLACK",
    "ValidationReport",
    "Violation",
    "add_phased_task",
    "attach_ladder",
    "assert_power_valid",
    "assert_time_valid",
    "check_power_valid",
    "check_time_valid",
    "earliest_starts",
    "energy_cost",
    "evaluate",
    "explain_infeasibility",
    "find_cycle",
    "is_phase_of",
    "ladder_from_freqs",
    "latest_starts",
    "longest_paths",
    "materialize_assignment",
    "min_power_utilization",
    "movable_window",
    "phase_names",
    "phased_start",
    "power_jitter",
    "quantize_power",
    "scaled_duration",
    "scaled_power",
    "slack",
    "slack_table",
]
