"""Operating-point (DVFS x multi-core) scaling model and helpers.

This module is the single home of the frequency-scaling arithmetic the
whole tool agrees on.  A task running at an operating point
``(freq, cores)`` with ``0 < freq <= 1`` and ``cores >= 1``:

* **stretches** its delay by ``1 / (freq * cores)`` — the classic DVS
  ``1/f`` slowdown, with extra cores dividing the remaining work
  (the EAPS-style ``(freq, cores)`` configuration model);
* **scales** its instantaneous power by ``freq**3 * cores`` — the cubic
  voltage/frequency law (``P ~ f V^2`` with ``V ~ f``) times the active
  core count;
* so its energy scales by roughly ``freq**2`` per core — the quadratic
  saving that motivates DVS in the first place.

Rounding rule (the integer-grid caveat): delays live on the integer
time grid, so the stretched delay is ``ceil(d / (freq * cores))`` (a
zero-duration milestone stays zero).  The *realized* energy of a scaled
task is therefore ``ceil(d / (f*c)) * quantize(p * f**3 * c)`` — equal
to the ideal ``d * p * f**2 / c`` only when the stretch divides evenly.
Reports that quote the cubic law carry both numbers.

Power quantization: scaled powers are snapped to a fixed 1 microwatt
decimal grid by :func:`quantize_power` — one shared, deterministic
rounding used by every scaler (the :class:`~repro.scheduling.dvs.
DvsScheduler` baseline and the :mod:`repro.scheduling.freq_select`
search alike), so canonical problem hashes
(:func:`~repro.engine.hashing.problem_base_key`) and schedule-store
keys built from scaled problems are stable across platforms and code
paths.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from ..errors import GraphError
from .graph import ConstraintGraph
from .problem import SchedulingProblem
from .task import ANCHOR_NAME, OperatingPoint, Task

__all__ = ["DEFAULT_LADDER", "POWER_DECIMALS", "quantize_power",
           "scaled_power", "scaled_duration", "ladder_from_freqs",
           "attach_ladder", "materialize_assignment"]

#: Decimal places of the shared power-quantization grid (1 microwatt).
POWER_DECIMALS = 6

#: The classic four-rung frequency ladder (single core).
DEFAULT_LADDER = (1.0, 0.75, 0.5, 0.25)


def quantize_power(value: float) -> float:
    """Snap a power value to the shared microwatt decimal grid.

    ``round(x, 6)`` in CPython is correctly rounded on the decimal
    representation of the IEEE-754 double, so the result is a pure
    deterministic function of the input bits — the same on every
    platform and in every process.  Every scaled power in the codebase
    must pass through here (never an ad-hoc ``round``), so two code
    paths scaling the same task at the same point produce bit-equal
    floats, and with them bit-equal canonical hashes.
    """
    return round(float(value), POWER_DECIMALS)


def scaled_power(power: float, freq: float, cores: int = 1) -> float:
    """Cubic-law instantaneous power at ``(freq, cores)``, quantized."""
    return quantize_power(power * freq ** 3 * cores)


def scaled_duration(duration: int, freq: float, cores: int = 1) -> int:
    """The ``1/(f*c)``-stretched integer delay (zero stays zero).

    Rounds *up* to the next integer time unit, so a slowed task never
    finishes earlier than the continuous model says it could.
    """
    if duration == 0:
        return 0
    return max(1, math.ceil(duration / (freq * cores)))


def ladder_from_freqs(freqs: "Iterable[float]",
                      cores: "Iterable[int]" = (1,)) \
        -> "tuple[OperatingPoint, ...]":
    """The cross product of frequency rungs and core counts.

    The full-speed reference point ``(1.0, 1 core)`` must be in the
    result — the search starts there, and it is what makes a ladder
    problem's full-speed solve bit-identical to the frequency-free one.
    """
    points = tuple(OperatingPoint(freq=float(freq), cores=int(count))
                   for freq in freqs for count in cores)
    if not any(point.is_full_speed for point in points):
        raise GraphError(
            "an operating-point ladder must include the full-speed "
            "reference point (freq=1.0, cores=1)")
    return points


def attach_ladder(problem: SchedulingProblem,
                  freqs: "Iterable[float]",
                  cores: "Iterable[int]" = (1,),
                  resources: "Iterable[str] | None" = None) \
        -> SchedulingProblem:
    """The same problem with a uniform operating-point ladder attached.

    Every non-milestone task (duration > 0) gains the
    ``freqs x cores`` ladder; with ``resources`` given, only tasks on
    one of those resources do (e.g. only the CPU is voltage-scalable).
    Constraints, resources, power environment, and metadata are carried
    over unchanged — attaching a ladder never changes what the problem
    *means* at full speed, only what the scheduler is allowed to do
    about it.
    """
    ladder = ladder_from_freqs(freqs, cores)
    wanted = None if resources is None else set(resources)

    def pick(task: Task) -> Task:
        if task.duration == 0:
            return task
        if wanted is not None and task.resource not in wanted:
            return task
        from dataclasses import replace
        return replace(task, operating_points=ladder)

    graph = _rebuild_graph(problem.graph, pick)
    return SchedulingProblem(graph=graph, p_max=problem.p_max,
                             p_min=problem.p_min,
                             baseline=problem.baseline,
                             name=problem.name, meta=dict(problem.meta))


def materialize_assignment(problem: SchedulingProblem,
                           assignment: "Mapping[str, OperatingPoint]") \
        -> SchedulingProblem:
    """The concrete problem a configuration choice induces.

    Every ladder task named in ``assignment`` is replaced by its scaled
    copy (:meth:`~repro.core.task.Task.at_point`); tasks at the
    full-speed point come back bit-identical to a ladder-free task.
    The scaled graph is an *ordinary* constraint graph — no operating
    points survive materialization, so the paper's schedulers (and the
    longest-path caches under them) run on it unchanged.

    Edge adjustment — the deadline-safety rule.  Separation edges are
    start-to-start and carry weights computed at build time from
    full-speed delays (``add_precedence`` bakes in ``d(src)``,
    ``add_finish_deadline`` bakes in ``D - d(v)``), so a stretched
    task's edges must move with it:

    * every *duration-anchored* min-separation out of a scaled task —
      positive weight ``>= `` its full-speed delay, i.e. an
      end-to-start precedence in start-to-start clothing — is shifted
      by the delay change, preserving "starts after ``src``
      *finishes*" exactly;
    * every deadline bound out of a scaled task (a negative-weight
      edge to the anchor) is *tightened* by the delay increase,
      treating it as a finish deadline — conservative for genuine
      start deadlines (it can only reject a slowdown, never admit a
      late finish);
    * start-to-start separations shorter than the delay (e.g. the
      rover's "heat 5..50 s before steering" windows) are
      speed-independent and stay verbatim.

    At the full-speed point every shift is zero and the materialized
    problem is bit-identical to the input minus its ladders.
    """
    deltas: "dict[str, int]" = {}

    def pick(task: Task) -> Task:
        point = assignment.get(task.name)
        if point is None or not task.operating_points:
            return task
        if point.key not in {p.key for p in task.operating_points}:
            raise GraphError(
                f"task {task.name!r} has no operating point "
                f"{point.key}; its ladder is "
                f"{[p.key for p in task.operating_points]}")
        scaled = task.at_point(point)
        delta = scaled.duration - task.duration
        if delta:
            deltas[task.name] = delta
        return scaled

    def adjust(src: str, dst: str, weight: int, task: "Task | None") \
            -> int:
        delta = deltas.get(src)
        if not delta or task is None:
            return weight
        if weight >= task.duration and dst != ANCHOR_NAME:
            return weight + delta       # duration-anchored precedence
        if weight < 0 and dst == ANCHOR_NAME:
            return weight + delta       # deadline, finish-safe tighten
        return weight

    graph = _rebuild_graph(problem.graph, pick, adjust)
    return SchedulingProblem(graph=graph, p_max=problem.p_max,
                             p_min=problem.p_min,
                             baseline=problem.baseline,
                             name=problem.name, meta=dict(problem.meta))


def _rebuild_graph(source: ConstraintGraph, pick,
                   adjust=None) -> ConstraintGraph:
    """Copy a graph through a per-task transform (same name, edges,
    resources; ``adjust`` optionally rewrites edge weights given the
    *original* source task)."""
    graph = ConstraintGraph(source.name)
    for resource in source.resources:
        graph.declare_resource(resource)
    originals = {task.name: task for task in source.tasks()}
    for task in source.tasks():
        graph.add_task(pick(task))
    for edge in source.edges():
        weight = edge.weight
        if adjust is not None:
            weight = adjust(edge.src, edge.dst, weight,
                            originals.get(edge.src))
        graph.add_edge(edge.src, edge.dst, weight, tag=edge.tag)
    return graph
