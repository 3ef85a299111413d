"""Schedules: start-time assignments and derived queries.

A schedule ``sigma`` assigns an integer start time ``sigma(v)`` to every
task of a constraint graph (paper Section 4.1).  The class is a thin,
immutable-by-convention wrapper around the ``{task name: start}`` map
with the derived quantities the algorithms need:

* finish time ``tau_sigma`` (when all tasks complete),
* the set of tasks *active* at a time t,
* per-resource timelines (the rows of the time view of the power-aware
  Gantt chart),
* functional updates (``with_start``/``delayed``) used by the power
  schedulers to explore neighbouring schedules.

A schedule computes its makespan once, and
:func:`repro.core.slack.slack` remembers each task's slack on it; both
read the graph as it was when they were computed.  The graph's
durations must not change under a schedule
(:meth:`ConstraintGraph.set_duration` runs only on working copies that
have no schedule yet), and ``slack`` re-checks the edge set itself.
Neither memo takes part in equality, hashing or pickles.  The
constructors bump :data:`BUILD_COUNTS`, which the pipeline folds into
``SchedulerStats`` per stage.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..errors import ValidationError
from .graph import ConstraintGraph
from .task import Task

__all__ = ["Schedule", "BUILD_COUNTS"]

#: Schedules and power profiles this process has built (one per
#: constructor call).  Per-process, like the longest-path counters;
#: callers read deltas.
BUILD_COUNTS = {"schedules": 0, "profiles": 0}


class Schedule:
    """An assignment of start times to the tasks of a graph."""

    def __init__(self, graph: ConstraintGraph,
                 starts: "Mapping[str, int]"):
        names = graph.task_names()
        try:
            own = {name: starts[name] for name in names}
        except KeyError:
            missing = [name for name in names if name not in starts]
            raise ValidationError(
                f"schedule is missing start times for {missing}") from None
        # Every entry is checked; the first test passes a known task
        # with a plain non-negative int, which is nearly every entry.
        tasks = graph._tasks
        plain = True
        for name, start in starts.items():
            if type(start) is int and start >= 0 and name in tasks:
                continue
            if name not in tasks and not name.startswith("__"):
                raise ValidationError(
                    f"schedule mentions unknown task {name!r}")
            if not isinstance(start, int) or start < 0:
                raise ValidationError(
                    f"start of {name!r} must be a non-negative integer, "
                    f"got {start!r}")
            plain = plain and type(start) is int
        self._graph = graph
        self._starts = own if plain else \
            {name: int(start) for name, start in own.items()}
        self._makespan: "int | None" = None
        # slack memo, owned by repro.core.slack.slack
        self._slack: "tuple | None" = None
        BUILD_COUNTS["schedules"] += 1

    def _rebind(self, graph: ConstraintGraph) -> None:
        """Move this schedule onto ``graph`` in place.

        ``graph`` must hold the same tasks with the same durations and
        only edges the starts satisfy: the min-power stage binds its
        winning schedule, which nothing else holds yet, to the copy
        that carries the winner's ``gapfill`` edges (DESIGN.md §5o).
        The makespan memo stays; the slack memo is dropped.
        """
        self._graph = graph
        self._slack = None

    def __getstate__(self):
        return {"_graph": self._graph, "_starts": self._starts}

    def __setstate__(self, state) -> None:
        self._graph = state["_graph"]
        self._starts = state["_starts"]
        self._makespan = None
        self._slack = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def graph(self) -> ConstraintGraph:
        """The constraint graph this schedule belongs to."""
        return self._graph

    def start(self, name: str) -> int:
        """``sigma(v)`` — the assigned start time."""
        return self._starts[name]

    def finish(self, name: str) -> int:
        """``sigma(v) + d(v)`` — the completion time of the task."""
        return self._starts[name] + self._graph.task(name).duration

    def __contains__(self, name: str) -> bool:
        return name in self._starts

    def __iter__(self) -> "Iterator[str]":
        return iter(self._starts)

    def __len__(self) -> int:
        return len(self._starts)

    def items(self) -> "Iterator[tuple[str, int]]":
        """Iterate over ``(task name, start time)`` pairs."""
        return iter(self._starts.items())

    def as_dict(self) -> "dict[str, int]":
        """A fresh ``{task: start}`` dictionary."""
        return dict(self._starts)

    @property
    def makespan(self) -> int:
        """Finish time ``tau_sigma``: when the last task completes."""
        if self._makespan is None:
            tasks = self._graph._tasks
            self._makespan = max(
                (start + tasks[name].duration
                 for name, start in self._starts.items()), default=0)
        return self._makespan

    # Alias matching the paper's tau_sigma vocabulary.
    finish_time = makespan

    # ------------------------------------------------------------------
    # activity queries
    # ------------------------------------------------------------------

    def is_active(self, name: str, t: int) -> bool:
        """True if the task is executing during time slot ``[t, t+1)``.

        Zero-duration tasks are never active (they are milestones and
        draw no power).
        """
        task = self._graph.task(name)
        if task.duration == 0:
            return False
        start = self._starts[name]
        return start <= t < start + task.duration

    def active_tasks(self, t: int) -> "list[Task]":
        """All tasks executing during slot ``[t, t+1)``, insertion order."""
        tasks = self._graph._tasks
        out = []
        for name, start in self._starts.items():
            if start <= t:
                task = tasks[name]
                if t < start + task.duration:
                    out.append(task)
        return out

    def power_at(self, t: int) -> float:
        """Instantaneous task power at slot ``t`` (baseline excluded)."""
        return sum([task.power for task in self.active_tasks(t)])

    def resource_timeline(self, resource: str) -> "list[tuple[int, Task]]":
        """``(start, task)`` pairs on a resource, sorted by start time."""
        pairs = [(self._starts[t.name], t)
                 for t in self._graph.tasks_on(resource)]
        pairs.sort(key=lambda p: (p[0], p[1].name))
        return pairs

    def overlapping_on_resource(self, resource: str) \
            -> "list[tuple[Task, Task]]":
        """Pairs of tasks that illegally overlap on a shared resource."""
        timeline = self.resource_timeline(resource)
        clashes = []
        for i, (start_u, u) in enumerate(timeline):
            end_u = start_u + u.duration
            for start_v, v in timeline[i + 1:]:
                if start_v >= end_u:
                    break
                if u.duration > 0 and v.duration > 0:
                    clashes.append((u, v))
        return clashes

    # ------------------------------------------------------------------
    # functional updates
    # ------------------------------------------------------------------

    def with_start(self, name: str, start: int) -> "Schedule":
        """A copy with one task moved to an absolute start time."""
        if name not in self._starts:
            raise ValidationError(f"unknown task {name!r}")
        starts = dict(self._starts)
        starts[name] = start
        return Schedule(self._graph, starts)

    def delayed(self, name: str, delta: int) -> "Schedule":
        """A copy with one task delayed by ``delta >= 0`` time units."""
        if delta < 0:
            raise ValidationError(
                f"delay must be non-negative, got {delta}")
        return self.with_start(name, self._starts[name] + delta)

    def shifted(self, delta: int) -> "Schedule":
        """A copy with *every* task shifted right by ``delta`` units.

        Used when concatenating per-iteration schedules in the mission
        simulator.
        """
        if delta < 0:
            raise ValidationError(f"shift must be non-negative, got {delta}")
        return Schedule(self._graph,
                        {name: s + delta for name, s in self._starts.items()})

    # ------------------------------------------------------------------
    # comparisons / display
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._starts == other._starts

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._starts.items())))

    def differences(self, other: "Schedule") \
            -> "list[tuple[str, int, int]]":
        """Tasks whose start differs: ``(name, self_start, other_start)``."""
        diffs = []
        for name, start in self._starts.items():
            if name in other and other.start(name) != start:
                diffs.append((name, start, other.start(name)))
        return diffs

    def __repr__(self) -> str:
        body = ", ".join(f"{n}@{s}" for n, s in sorted(self._starts.items()))
        return f"Schedule(tau={self.makespan}, {body})"

    @staticmethod
    def from_pairs(graph: ConstraintGraph,
                   pairs: "Iterable[tuple[str, int]]") -> "Schedule":
        """Build from an iterable of ``(name, start)`` pairs."""
        return Schedule(graph, dict(pairs))
