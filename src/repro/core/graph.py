"""Constraint graph ``G(V, E)`` with min/max timing separations.

This is the input formulation of the paper (Section 4.1), which extends
the time-driven scheduling model of Chou & Borriello.  Vertices are
:class:`~repro.core.task.Task` objects; a weighted directed edge
``(u, v, w)`` asserts the *start-to-start* separation

    ``sigma(v) - sigma(u) >= w``.

* A **min separation** "v at least w after u" is a forward edge
  ``(u, v, +w)``.
* A **max separation** "v at most w after u" is a backward edge
  ``(v, u, -w)`` (rewriting ``sigma(v) <= sigma(u) + w``).

Min/max separations subsume release times, deadlines, and precedence
(end-to-start) dependencies; convenience methods express all of these.
A virtual **anchor** vertex starting at time 0 closes the system: every
task implicitly satisfies ``sigma(v) >= sigma(anchor) = 0``.

The graph supports *checkpoint/rollback* so the backtracking schedulers
of Section 5 can speculatively add serialization, delay, and lock edges
and undo them cheaply when a branch fails.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from typing import Any, Iterable, Iterator, Mapping

from ..errors import GraphError
from .resource import Resource, ResourcePool
from .task import ANCHOR_NAME, Task

__all__ = ["Edge", "ConstraintGraph"]


@dataclass(frozen=True)
class Edge:
    """A start-to-start separation ``sigma(dst) - sigma(src) >= weight``.

    ``tag`` records why the edge exists ("user", "serialize", "delay",
    "lock", ...) which makes scheduler traces and Gantt annotations much
    easier to read, and lets rollback-free callers strip a category of
    derived edges.
    """

    src: str
    dst: str
    weight: int
    tag: str = "user"

    @property
    def is_forward(self) -> bool:
        """True for non-negative weights (min separations / precedences)."""
        return self.weight >= 0


class ConstraintGraph:
    """Mutable constraint graph with checkpoint/rollback.

    Between a pair ``(u, v)`` only the *tightest* separation matters, so
    the graph stores at most one edge per ordered pair, keeping the
    maximum weight seen.  All mutations are journaled; ``checkpoint()``
    returns a token and ``rollback(token)`` restores the exact prior
    edge set.  Tasks are append-only (the schedulers never remove
    vertices).
    """

    def __init__(self, name: str = "problem"):
        self.name = name
        self._tasks: "dict[str, Task]" = {}
        self._resources = ResourcePool()
        # (src, dst) -> (weight, tag)
        self._edges: "dict[tuple[str, str], tuple[int, str]]" = {}
        # adjacency caches (maintained incrementally)
        self._out: "dict[str, set[str]]" = {}
        self._in: "dict[str, set[str]]" = {}
        # journal of (key, previous_value_or_None) for rollback
        self._journal: "list[tuple[tuple[str, str], tuple[int, str] | None]]" = []
        # solved longest-path fixpoints keyed by journal length, as
        # (vertex count, distance, predecessor): the graph's only
        # derived cache (the solver owns it, see
        # repro.core.longest_path).
        self._state_cache: "dict[int, tuple[int, dict, dict]]" = {}
        # non-anchor tasks and their names, in insertion order; built on
        # first read, reset by add_task and set_duration
        self._real_tasks: "list[Task] | None" = None
        self._real_names: "list[str] | None" = None
        self.add_task(Task.anchor())

    # ------------------------------------------------------------------
    # vertices
    # ------------------------------------------------------------------

    def add_task(self, task: Task) -> Task:
        """Add a task vertex.  Duplicate names are an error."""
        if task.name in self._tasks:
            raise GraphError(f"duplicate task {task.name!r}")
        self._tasks[task.name] = task
        self._real_tasks = self._real_names = None
        self._out.setdefault(task.name, set())
        self._in.setdefault(task.name, set())
        if task.resource is not None:
            self._resources.ensure(task.resource)
        return task

    def new_task(self, name: str, duration: int, power: float = 0.0,
                 resource: "str | None" = None,
                 meta: "Mapping[str, Any] | None" = None,
                 operating_points: "tuple | None" = None) -> Task:
        """Create and add a task in one call; returns the task."""
        return self.add_task(Task(name=name, duration=duration, power=power,
                                  resource=resource, meta=dict(meta or {}),
                                  operating_points=tuple(
                                      operating_points or ())))

    def task(self, name: str) -> Task:
        """Look up a task by name."""
        try:
            return self._tasks[name]
        except KeyError:
            raise GraphError(f"unknown task {name!r}") from None

    def set_duration(self, name: str, duration: int) -> Task:
        """Replace a task's duration in place (working copies only).

        Mid-mission replanning represents a still-running overrunning
        task by its *realized* duration so the schedulers' resource
        exclusion and power profile see the stretched reality, not the
        nominal plan.  Durations feed the solvers but not the edge set,
        so the solved longest-path distances stay valid; only the task
        lists are rebuilt.  Not journaled — use on throwaway copies, not
        on a graph a later ``rollback`` must restore — and only before
        any :class:`~repro.core.schedule.Schedule` of this graph exists:
        a schedule computes its makespan once, and a changed duration
        would leave it stale.
        """
        task = self.task(name)
        if task.is_anchor:
            raise GraphError("cannot set the anchor's duration")
        if not isinstance(duration, int) or isinstance(duration, bool) \
                or duration <= 0:
            raise GraphError(
                f"duration must be a positive integer, got {duration!r}")
        if duration == task.duration:
            return task
        replaced = _dc_replace(task, duration=duration)
        self._tasks[name] = replaced
        self._real_tasks = self._real_names = None
        return replaced

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    @property
    def anchor(self) -> Task:
        """The virtual time-0 source vertex."""
        return self._tasks[ANCHOR_NAME]

    def tasks(self, include_anchor: bool = False) -> "list[Task]":
        """All task vertices, in insertion order (a fresh list)."""
        if include_anchor:
            return list(self._tasks.values())
        if self._real_tasks is None:
            self._real_tasks = [t for t in self._tasks.values()
                                if not t.is_anchor]
        return list(self._real_tasks)

    def task_names(self, include_anchor: bool = False) -> "list[str]":
        """All vertex names, in insertion order (a fresh list)."""
        if include_anchor:
            return list(self._tasks)
        if self._real_names is None:
            self._real_names = [t.name for t in self.tasks()]
        return list(self._real_names)

    def __len__(self) -> int:
        """Number of real (non-anchor) tasks."""
        return len(self._tasks) - 1

    # ------------------------------------------------------------------
    # resources
    # ------------------------------------------------------------------

    @property
    def resources(self) -> ResourcePool:
        """The resource pool (auto-populated from task mappings)."""
        return self._resources

    def declare_resource(self, resource: Resource) -> Resource:
        """Pre-register a resource (e.g. to set idle power or row order)."""
        if resource.name in self._resources:
            raise GraphError(f"duplicate resource {resource.name!r}")
        return self._resources.add(resource)

    def tasks_on(self, resource: str) -> "list[Task]":
        """Tasks mapped to the named resource, in insertion order."""
        return [t for t in self.tasks() if t.resource == resource]

    def resource_conflicts(self) -> "Iterator[tuple[Task, Task]]":
        """Yield unordered pairs of distinct tasks sharing a resource."""
        by_res: "dict[str, list[Task]]" = {}
        for t in self.tasks():
            if t.resource is not None:
                by_res.setdefault(t.resource, []).append(t)
        for group in by_res.values():
            for i, u in enumerate(group):
                for v in group[i + 1:]:
                    yield u, v

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------

    def add_edge(self, src: str, dst: str, weight: int,
                 tag: str = "user") -> bool:
        """Assert ``sigma(dst) - sigma(src) >= weight``.

        Keeps only the tightest (maximum-weight) constraint per ordered
        pair.  Returns True if the edge set actually changed (a looser
        constraint than an existing one is a no-op).  Self-edges with
        positive weight are immediately contradictory and rejected.
        """
        if src not in self._tasks:
            raise GraphError(f"unknown task {src!r}")
        if dst not in self._tasks:
            raise GraphError(f"unknown task {dst!r}")
        if not isinstance(weight, int):
            raise GraphError(
                f"edge {src!r}->{dst!r}: weight must be an integer, "
                f"got {weight!r}")
        if src == dst:
            if weight > 0:
                raise GraphError(
                    f"self-separation sigma({src}) - sigma({src}) >= "
                    f"{weight} is unsatisfiable")
            return False  # trivially true
        key = (src, dst)
        prev = self._edges.get(key)
        if prev is not None and prev[0] >= weight:
            return False
        self._journal.append((key, prev))
        self._edges[key] = (weight, tag)
        self._out[src].add(dst)
        self._in[dst].add(src)
        return True

    def separation(self, src: str, dst: str) -> "int | None":
        """The asserted minimum of ``sigma(dst) - sigma(src)``, if any."""
        entry = self._edges.get((src, dst))
        return entry[0] if entry is not None else None

    def edge_tag(self, src: str, dst: str) -> "str | None":
        """The tag of the stored ``src -> dst`` edge, if any."""
        entry = self._edges.get((src, dst))
        return entry[1] if entry is not None else None

    def remove_edge(self, src: str, dst: str) -> bool:
        """Remove the stored ``src -> dst`` edge (journaled).

        Returns False when no such edge exists.  Used by the compaction
        pass to relax scheduler-added delay edges; rollback restores
        removed edges like any other journaled mutation.
        """
        key = (src, dst)
        prev = self._edges.get(key)
        if prev is None:
            return False
        self._journal.append((key, prev))
        del self._edges[key]
        self._out[src].discard(dst)
        self._in[dst].discard(src)
        return True

    def weakened(self, src: str, dst: str) -> "tuple[int, str] | None":
        """The ``(weight, tag)`` entry :meth:`weaken_edge` would leave on
        ``src -> dst``, or None when the pair would hold no edge.

        Read-only.  For a pair holding an edge this is the entry the
        pair had before its first journaled mutation; None when it had
        none, or when the journal holds no history for the pair (the
        pair predates this episode's journal), since weakening then
        removes the edge.  A pair holding no edge keeps none.
        """
        key = (src, dst)
        if key not in self._edges:
            return None
        for entry_key, prev in self._journal:
            if entry_key == key:
                return prev
        return None

    def weaken_edge(self, src: str, dst: str) -> bool:
        """Undo every journaled tightening of ``src -> dst`` (journaled).

        Because the graph keeps only the tightest separation per ordered
        pair, a scheduler edge (``delay``/``lock``/...) that lands on a
        pair already carrying a *user* constraint silently **overwrites**
        it — and the compaction/unlock passes used to ``remove_edge`` the
        pair outright, dropping the user's release or deadline with it.
        This restores the value the pair had *before the first journaled
        mutation* instead (:meth:`weakened`): the user constraint
        survives, while an edge the scheduler created from nothing
        (oldest journaled prior is ``None``) is removed exactly as
        before.  Falls back to plain removal when the journal holds no
        history for the pair.

        Returns True if the edge set changed.
        """
        key = (src, dst)
        current = self._edges.get(key)
        if current is None:
            return False
        original = self.weakened(src, dst)
        if original is None:
            return self.remove_edge(src, dst)
        if original == current:
            return False
        self._journal.append((key, current))
        self._edges[key] = original
        return True

    def edges(self) -> "list[Edge]":
        """All edges as :class:`Edge` records."""
        return [Edge(src=k[0], dst=k[1], weight=v[0], tag=v[1])
                for k, v in self._edges.items()]

    def edge_triples(self) -> "list[tuple[str, str, int]]":
        """All edges as bare ``(src, dst, weight)`` triples.

        The relaxation loops (full longest-path solves, ALAP starts,
        diagnosis) iterate the edge set once per pass; this accessor
        avoids allocating :class:`Edge` records.
        """
        return [(k[0], k[1], v[0]) for k, v in self._edges.items()]

    def out_edges(self, name: str) -> "list[Edge]":
        """Edges leaving ``name`` (constraints that delaying it tightens)."""
        return [Edge(src=name, dst=d, weight=self._edges[(name, d)][0],
                     tag=self._edges[(name, d)][1])
                for d in self._out.get(name, ())
                if (name, d) in self._edges]

    def in_edges(self, name: str) -> "list[Edge]":
        """Edges entering ``name``."""
        return [Edge(src=s, dst=name, weight=self._edges[(s, name)][0],
                     tag=self._edges[(s, name)][1])
                for s in self._in.get(name, ())
                if (s, name) in self._edges]

    def successors(self, name: str) -> "list[str]":
        """Targets of *forward* (weight >= 0) edges out of ``name``.

        Forward edges define the topological order the timing scheduler
        traverses; backward (negative) edges are max separations and do
        not create ordering obligations.
        """
        return sorted(d for d in self._out.get(name, ())
                      if (name, d) in self._edges
                      and self._edges[(name, d)][0] >= 0)

    def edge_count(self) -> int:
        """Number of stored (tightest) edges."""
        return len(self._edges)

    # ------------------------------------------------------------------
    # convenience constraint builders (paper Section 4.1 vocabulary)
    # ------------------------------------------------------------------

    def add_min_separation(self, src: str, dst: str, sep: int,
                           tag: str = "user") -> bool:
        """``dst`` starts at least ``sep`` after ``src`` starts."""
        if sep < 0:
            raise GraphError(f"min separation must be >= 0, got {sep}")
        return self.add_edge(src, dst, sep, tag=tag)

    def add_max_separation(self, src: str, dst: str, sep: int,
                           tag: str = "user") -> bool:
        """``dst`` starts at most ``sep`` after ``src`` starts."""
        if sep < 0:
            raise GraphError(f"max separation must be >= 0, got {sep}")
        return self.add_edge(dst, src, -sep, tag=tag)

    def add_separation_window(self, src: str, dst: str,
                              min_sep: int, max_sep: int,
                              tag: str = "user") -> None:
        """``sigma(dst) - sigma(src)`` constrained to ``[min_sep, max_sep]``.

        This is the paper's native constraint form, e.g. "heating at
        least 5 s, at most 50 s before steering".
        """
        if min_sep > max_sep:
            raise GraphError(
                f"empty window [{min_sep}, {max_sep}] for {src!r}->{dst!r}")
        self.add_min_separation(src, dst, min_sep, tag=tag)
        self.add_max_separation(src, dst, max_sep, tag=tag)

    def add_precedence(self, src: str, dst: str, gap: int = 0,
                       tag: str = "user") -> bool:
        """End-to-start precedence: ``dst`` starts >= ``gap`` after ``src``
        *finishes* (i.e. start-to-start ``d(src) + gap``)."""
        return self.add_min_separation(
            src, dst, self.task(src).duration + gap, tag=tag)

    def add_release(self, name: str, time: int, tag: str = "user") -> bool:
        """``name`` may not start before absolute time ``time``."""
        return self.add_min_separation(ANCHOR_NAME, name, time, tag=tag)

    def add_start_deadline(self, name: str, time: int,
                           tag: str = "user") -> bool:
        """``name`` must start no later than absolute time ``time``."""
        return self.add_max_separation(ANCHOR_NAME, name, time, tag=tag)

    def add_finish_deadline(self, name: str, time: int,
                            tag: str = "user") -> bool:
        """``name`` must finish no later than absolute time ``time``."""
        deadline = time - self.task(name).duration
        if deadline < 0:
            raise GraphError(
                f"finish deadline {time} is shorter than duration of "
                f"{name!r}")
        return self.add_start_deadline(name, deadline, tag=tag)

    def lock_start(self, name: str, time: int, tag: str = "lock") -> None:
        """Pin ``sigma(name)`` to exactly ``time`` (min + max edges).

        The max-power scheduler locks the start times of zero-slack tasks
        before recursing (Section 5.2); rollback removes the locks.

        The default ``"lock"`` tag marks a *scheduler-owned* pin: the
        max-power stage may lift it during spike repair and left-shift
        it during compaction.  Freezing executed history
        (:func:`repro.execution.replan.freeze`) passes a different tag,
        ``"frozen"``, so neither pass can move a task that has already
        run.
        """
        self.add_min_separation(ANCHOR_NAME, name, time, tag=tag)
        self.add_max_separation(ANCHOR_NAME, name, time, tag=tag)

    def serialize_after(self, first: str, second: str,
                        gap: int = 0, tag: str = "serialize") -> bool:
        """Force ``second`` to start after ``first`` completes.

        Used by the timing scheduler to resolve resource conflicts.
        """
        return self.add_precedence(first, second, gap=gap, tag=tag)

    # ------------------------------------------------------------------
    # checkpoint / rollback
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Return a token capturing the current edge set."""
        return len(self._journal)

    def rollback(self, token: int) -> None:
        """Undo every edge mutation made after ``checkpoint()``."""
        if token < 0 or token > len(self._journal):
            raise GraphError(f"invalid rollback token {token}")
        while len(self._journal) > token:
            key, prev = self._journal.pop()
            if prev is None:
                if key in self._edges:
                    del self._edges[key]
                self._out[key[0]].discard(key[1])
                self._in[key[1]].discard(key[0])
            else:
                self._edges[key] = prev
                self._out[key[0]].add(key[1])
                self._in[key[1]].add(key[0])
        if self._state_cache:
            # The edge set is a pure function of the journal prefix, so
            # memoized fixpoints at or below the restored token are still
            # exact; anything above describes an edge set that no longer
            # exists and must go.
            for key in [k for k in self._state_cache if k > token]:
                del self._state_cache[key]

    def _current_state(self) -> "tuple[int, dict, dict] | None":
        """The memoized fixpoint of the current edge set, if any."""
        solved = self._state_cache.get(len(self._journal))
        if solved is not None and solved[0] == len(self._tasks):
            return solved
        return None

    # ------------------------------------------------------------------
    # copying / composition
    # ------------------------------------------------------------------

    def copy(self, name: "str | None" = None) -> "ConstraintGraph":
        """Deep-enough copy: fresh edge store and journal, shared tasks
        (tasks are frozen dataclasses so sharing is safe).

        The stores are cloned directly, in the order adding the tasks
        and then the edges one by one would give them: the resource
        pool lists task resources in first-use order, then the other
        declared ones (``total_idle_power`` sums in that order), and
        each adjacency set is filled in edge order.
        """
        clone = ConstraintGraph(name=name or self.name)
        clone._tasks = dict(self._tasks)
        clone._real_tasks = self._real_tasks
        clone._real_names = self._real_names
        declared = self._resources._by_name
        pool = clone._resources._by_name
        for task in self._tasks.values():
            if task.resource is not None and task.resource not in pool:
                pool[task.resource] = declared[task.resource]
        for res_name, res in declared.items():
            if res_name not in pool:
                pool[res_name] = res
        clone._edges = dict(self._edges)
        out = clone._out = {vertex: set() for vertex in self._tasks}
        into = clone._in = {vertex: set() for vertex in self._tasks}
        for src, dst in self._edges:
            out[src].add(dst)
            into[dst].add(src)
        solved = self._current_state()
        if solved is not None:
            # Identical edge set => identical unique fixpoint, so the
            # solved distances seed the clone's empty journal.  The
            # dicts are shared, never mutated in place (the solver's
            # replay copies first).
            clone._state_cache[0] = solved
        return clone

    def merge(self, other: "ConstraintGraph", prefix: str = "") -> None:
        """Import all tasks and edges of ``other`` (names optionally
        prefixed), e.g. to concatenate unrolled iterations."""
        mapping = {ANCHOR_NAME: ANCHOR_NAME}
        for task in other.tasks():
            new_name = prefix + task.name
            mapping[task.name] = new_name
            self.add_task(task.renamed(new_name))
        for edge in other.edges():
            self.add_edge(mapping[edge.src], mapping[edge.dst],
                          edge.weight, tag=edge.tag)

    def strip_tags(self, tags: Iterable[str]) -> int:
        """Remove every edge whose tag is in ``tags``; returns count.

        Useful to re-solve a problem from its user constraints after a
        scheduler has decorated the graph with derived edges.  Not
        journaled (it rewrites history), so only call between scheduling
        runs, never inside one.
        """
        tags = set(tags)
        doomed = [k for k, v in self._edges.items() if v[1] in tags]
        for key in doomed:
            del self._edges[key]
            self._out[key[0]].discard(key[1])
            self._in[key[1]].discard(key[0])
        # a new journal object, so slack memos stamped with the old one
        # (see repro.core.slack) are dropped even at journal length 0
        self._journal = []
        self._state_cache.clear()
        return len(doomed)

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------

    def __getstate__(self):
        """Lean pickles: only the memo for the current edge set ships.

        The state cache can hold hundreds of solved fixpoints — derived
        data the receiving process rebuilds as it solves.  The memo at
        the current journal length gives the receiving worker a cached
        first solve.
        """
        state = self.__dict__.copy()
        state["_real_tasks"] = state["_real_names"] = None
        solved = self._current_state()
        state["_state_cache"] = {} if solved is None \
            else {len(self._journal): solved}
        return state

    def __repr__(self) -> str:
        return (f"ConstraintGraph({self.name!r}, tasks={len(self)}, "
                f"edges={self.edge_count()})")
