"""Task model: the vertices of the constraint graph.

Each task ``v`` carries the three attributes of the paper's Section 4.1:

* ``d(v)`` — execution delay (integer time units; the paper's instances
  are in whole seconds and an integer grid keeps all arithmetic exact),
* ``p(v)`` — power consumption in watts while the task executes (the
  paper assumes a single exact value; min/typ/max tables are handled one
  case at a time, as in the rover study),
* ``r(v)`` — the execution resource the task is mapped onto.

Tasks are non-preemptive: once started at ``sigma(v)`` a task occupies
its resource for exactly ``d(v)`` time units and consumes ``p(v)`` watts
throughout, so its energy is ``d(v) * p(v)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from ..errors import GraphError

__all__ = ["Task", "OperatingPoint", "ANCHOR_NAME"]

#: Name reserved for the virtual anchor task that starts at time 0.
ANCHOR_NAME = "__anchor__"


@dataclass(frozen=True)
class OperatingPoint:
    """One rung of a task's DVFS ladder: a ``(freq, cores)`` pair.

    At ``freq`` (normalized to the full-speed clock, ``0 < freq <= 1``)
    on ``cores`` parallel cores, the task's delay stretches to
    ``ceil(d / (freq * cores))`` and its power scales to
    ``p * freq**3 * cores`` — the cubic voltage/frequency law.  The
    scaling arithmetic itself lives in :mod:`repro.core.dvfs`; this
    class is just the point.

    ``(freq=1.0, cores=1)`` is the *full-speed reference point*: a task
    scaled to it is bit-identical to the same task with no ladder at
    all, which is what keeps ladder-free and full-speed solves
    interchangeable.
    """

    freq: float = 1.0
    cores: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.freq, (int, float)) or \
                isinstance(self.freq, bool):
            raise GraphError(
                f"operating point: freq must be a number, got "
                f"{self.freq!r}")
        if not 0.0 < float(self.freq) <= 1.0:
            raise GraphError(
                f"operating point: freq must be in (0, 1], got "
                f"{self.freq!r}")
        if not isinstance(self.cores, int) or isinstance(self.cores, bool):
            raise GraphError(
                f"operating point: cores must be an integer, got "
                f"{self.cores!r}")
        if self.cores < 1:
            raise GraphError(
                f"operating point: cores must be >= 1, got {self.cores}")
        object.__setattr__(self, "freq", float(self.freq))

    @property
    def is_full_speed(self) -> bool:
        """True for the ``(1.0, 1)`` reference point."""
        return self.freq == 1.0 and self.cores == 1

    @property
    def key(self) -> "tuple[float, int]":
        """Canonical ``(freq, cores)`` tuple (hashing, wire formats)."""
        return (self.freq, self.cores)

    def __str__(self) -> str:
        return f"f={self.freq:g}x{self.cores}"


@dataclass(frozen=True)
class Task:
    """A non-preemptive task (a vertex of the constraint graph).

    Parameters
    ----------
    name:
        Unique identifier within a problem.
    duration:
        Execution delay ``d(v)`` in integer time units, ``>= 0``.
        Zero-duration tasks are permitted (they are useful as milestones)
        but consume no energy and occupy no resource time.
    power:
        Power draw ``p(v)`` in watts while executing, ``>= 0``.
    resource:
        Name of the execution resource ``r(v)``.  Two tasks mapped to the
        same resource must be serialized by the scheduler.  ``None``
        means the task needs no exclusive resource (e.g. a milestone).
    meta:
        Free-form annotations (ignored by the algorithms; carried through
        serialization so models like the rover can tag tasks with the
        subsystem they belong to).
    operating_points:
        Optional DVFS ladder: the :class:`OperatingPoint` configurations
        this task may legally run at.  Empty (the default) means the
        task is speed-fixed — exactly today's model.  A non-empty ladder
        must include the full-speed ``(1.0, 1)`` reference point, and
        ``duration``/``power`` always describe the task *at* that
        reference point; scaled variants are derived via
        :meth:`at_point`.
    """

    name: str
    duration: int
    power: float = 0.0
    resource: "str | None" = None
    meta: Mapping[str, Any] = field(default_factory=dict)
    operating_points: "tuple[OperatingPoint, ...]" = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphError("task name must be a non-empty string")
        if not isinstance(self.duration, int):
            raise GraphError(
                f"task {self.name!r}: duration must be an integer number of "
                f"time units, got {self.duration!r}")
        if self.duration < 0:
            raise GraphError(
                f"task {self.name!r}: duration must be >= 0, "
                f"got {self.duration}")
        if not self.power >= 0:  # also refuses NaN
            raise GraphError(
                f"task {self.name!r}: power must be >= 0, got {self.power}")
        if self.operating_points:
            points = tuple(self.operating_points)
            object.__setattr__(self, "operating_points", points)
            seen = set()
            for point in points:
                if not isinstance(point, OperatingPoint):
                    raise GraphError(
                        f"task {self.name!r}: operating_points must hold "
                        f"OperatingPoint instances, got {point!r}")
                if point.key in seen:
                    raise GraphError(
                        f"task {self.name!r}: duplicate operating point "
                        f"{point.key}")
                seen.add(point.key)
            if not any(point.is_full_speed for point in points):
                raise GraphError(
                    f"task {self.name!r}: a non-empty operating-point "
                    f"ladder must include the full-speed reference point "
                    f"(freq=1.0, cores=1)")

    @property
    def energy(self) -> float:
        """Energy consumed by one execution: ``d(v) * p(v)`` joules."""
        return self.duration * self.power

    @property
    def is_anchor(self) -> bool:
        """True for the virtual anchor vertex (start of time)."""
        return self.name == ANCHOR_NAME

    @property
    def has_ladder(self) -> bool:
        """True when this task carries a DVFS operating-point ladder."""
        return bool(self.operating_points)

    def at_point(self, point: OperatingPoint) -> "Task":
        """This task materialized at one operating point (ladder dropped).

        The full-speed reference point returns the task bit-identical
        except for the dropped ladder — no arithmetic touches duration
        or power, so full-speed materialization is exact, not merely
        close.  Any other point stretches the delay by
        ``1/(freq*cores)`` (rounded up to the integer grid) and scales
        the power by ``freq**3 * cores`` (quantized by the shared
        :func:`repro.core.dvfs.quantize_power` grid), and records the
        chosen point in ``meta`` (``dvfs_freq``/``dvfs_cores``) for
        reports and round-trips.
        """
        if point.is_full_speed:
            return replace(self, operating_points=())
        from .dvfs import scaled_duration, scaled_power
        meta = dict(self.meta)
        meta["dvfs_freq"] = point.freq
        meta["dvfs_cores"] = point.cores
        return replace(
            self,
            duration=scaled_duration(self.duration, point.freq, point.cores),
            power=scaled_power(self.power, point.freq, point.cores),
            meta=meta,
            operating_points=())

    def renamed(self, new_name: str) -> "Task":
        """Return a copy of this task under a different name.

        Used by graph-composition utilities (e.g. loop unrolling in the
        rover model) that instantiate the same template task several
        times.
        """
        return replace(self, name=new_name)

    def with_power(self, power: float) -> "Task":
        """Return a copy with a different power draw.

        The rover tables give per-temperature power values for the same
        operation; the model instantiates one case at a time.
        """
        return replace(self, power=power)

    @staticmethod
    def anchor() -> "Task":
        """The virtual source vertex: starts at time 0, zero cost."""
        return Task(name=ANCHOR_NAME, duration=0, power=0.0, resource=None)
