"""Runtime execution of static schedules.

Mission-critical embedded systems do not stop at a pretty Gantt chart:
the static schedule is executed by a dispatcher against a reality of
task overruns and supply faults.  This package provides a tick-level
executor with two dispatch policies (time-triggered ``"static"`` and
event-driven ``"self_timed"``), seeded jitter/fault models, violation
monitoring, and snapshot-based replanning — the runtime loop around the
paper's static scheduler.
"""

from .executor import ExecutionResult, ScheduleExecutor
from .faults import (DurationModel, ExactDurations, FixedOverruns,
                     SolarDropout, UniformJitter)
from .replan import freeze, replan
from .trace import (BATTERY_DEPLETED, POWER_SPIKE, RESOURCE_VIOLATION,
                    SEPARATION_VIOLATION, TASK_FINISHED, TASK_STARTED,
                    Trace, TraceEvent)

__all__ = [
    "BATTERY_DEPLETED",
    "DurationModel",
    "ExactDurations",
    "ExecutionResult",
    "FixedOverruns",
    "POWER_SPIKE",
    "RESOURCE_VIOLATION",
    "SEPARATION_VIOLATION",
    "ScheduleExecutor",
    "SolarDropout",
    "TASK_FINISHED",
    "TASK_STARTED",
    "Trace",
    "TraceEvent",
    "UniformJitter",
    "freeze",
    "replan",
]
