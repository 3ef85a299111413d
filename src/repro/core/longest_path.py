"""Single-source longest path over the constraint graph.

The timing scheduler (paper Fig. 3) assigns each candidate vertex the
length of the longest path from the anchor.  Because max separations are
negative-weight edges the graph is cyclic in general, so we use a
Bellman–Ford style relaxation: longest paths are well defined exactly
when the graph has no *positive* cycle, and a positive cycle certifies
that the timing constraints are contradictory.

Every vertex also has an implicit ``anchor -> v`` edge of weight 0
(nothing starts before time 0), which doubles as the source of
reachability, so distances are always finite.

Complexity: O(V * E) for a cold solve.  The schedulers call this after
each batch of edge insertions and after every rollback, and most calls
are answered far cheaper than a cold solve.  Every solved fixpoint is
memoized on the graph under its journal length
(``ConstraintGraph._state_cache``, the graph's only derived cache), and
the answer ladder, in order of preference, is:

1. **exact memo** — a fixpoint is memoized at the current journal
   length (``rollback`` drops the memos above the restored token, and a
   graph copy or pickle seeds its empty journal with its source's
   current memo, so a rolled-back graph and an unmutated copy hit too);
2. **replay** — a shorter memo within :data:`_REPLAY_WINDOW` journal
   entries, over the same vertex set.  The journal suffix's net change
   is settled over the memoized fixpoint: the vertices whose memoized
   path ran through a weakened or removed edge restart, then a worklist
   relaxes them and every created or tightened edge (see
   :func:`_replay`);
3. **full solve** — pure-Python Bellman–Ford, also taken when the
   replay suspects a positive cycle.

Every step returns the same integer distances: the Bellman–Ford least
fixpoint of an edge set is unique.  Predecessors may differ from a
cold solve's where two paths tie; each still names a longest path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from ..errors import InfeasibleError, PositiveCycleError
from ..obs import OBS
from .graph import ConstraintGraph
from .task import ANCHOR_NAME

__all__ = ["LongestPathResult", "longest_paths", "earliest_starts",
           "latest_starts", "lp_counter_snapshot", "lp_counters_delta",
           "predecessor_children", "predecessor_subtrees"]

# ----------------------------------------------------------------------
# observability: per-process counters of how each longest-path query was
# answered — one per ladder step, plus probes pruned from a certified
# contradiction.  The power-aware pipeline snapshots these around each
# stage and folds the deltas into SchedulerStats; the batch engine then
# surfaces them in its JSON traces.  Per-process globals are safe here:
# worker processes each get their own copy, and within a process the
# solver runs under the GIL.
# ----------------------------------------------------------------------

_COUNTERS = {"cache_hits": 0, "incremental_runs": 0, "full_runs": 0,
             "probe_prunes": 0}

#: Bound on memoized journal states per graph (oldest half evicted).
_STATE_CACHE_LIMIT = 256

#: How far below the current journal length the replay step looks for a
#: memoized prefix to replay forward from.  The scheduler hot loops
#: (serial DFS, spike elimination, compaction) roll back and retry a
#: handful of edges at a time, so a short window catches them; anything
#: deeper falls through to a full solve.
_REPLAY_WINDOW = 32


def lp_counter_snapshot() -> "dict[str, int]":
    """A copy of the process-wide longest-path counters."""
    return dict(_COUNTERS)


def lp_counters_delta(snapshot: "dict[str, int]") -> "dict[str, int]":
    """Counter increments since ``snapshot`` was taken."""
    return {key: _COUNTERS[key] - snapshot.get(key, 0)
            for key in _COUNTERS}


@dataclass(frozen=True)
class LongestPathResult:
    """Longest-path distances from the anchor.

    ``distance[v]`` is the length of the longest constraint path from the
    anchor to ``v`` — equivalently the *earliest* start time of ``v``
    consistent with all separations, assuming every other task is also
    as early as possible.  ``predecessor[v]`` is the vertex preceding
    ``v`` on one such path (``None`` for the anchor itself or for
    vertices pinned only by the implicit time-0 edge).

    Both mappings are **read-only views** over the solver's memo
    (:class:`types.MappingProxyType`): lookups and iteration behave
    like dicts, mutation raises ``TypeError``.  The solver used to copy
    both dicts on every cache hit — thousands of O(V) copies per solve
    — and no caller ever mutated them; the views make that contract
    explicit and free.  Callers needing a private mutable mapping take
    an explicit ``dict(result.distance)``.
    """

    distance: "dict[str, int]"
    predecessor: "dict[str, str | None]"

    def critical_path(self, name: str) -> "list[str]":
        """The vertex chain (anchor excluded) realizing ``distance[name]``."""
        chain: "list[str]" = []
        cur: "str | None" = name
        seen: "set[str]" = set()
        while cur is not None and cur != ANCHOR_NAME and cur not in seen:
            seen.add(cur)
            chain.append(cur)
            cur = self.predecessor.get(cur)
        chain.reverse()
        return chain


def _view(dist: dict, pred: dict) -> LongestPathResult:
    """Wrap memoized dicts as an immutable result, copy-free."""
    return LongestPathResult(distance=MappingProxyType(dist),
                             predecessor=MappingProxyType(pred))


def longest_paths(graph: ConstraintGraph, *, probe: bool = False) \
        -> "LongestPathResult | None":
    """Compute longest-path distances from the anchor to every vertex.

    Transparently incremental — see the module docstring for the
    answer ladder (exact memo, replay, full solve).  The result is a
    read-only view over the graph-attached memo.

    With ``probe=True`` the call is a *feasibility probe*: it returns
    None instead of raising on infeasible edge sets.  Scheduler search
    loops that catch :class:`PositiveCycleError` purely as a boolean
    (try a move, back off on contradiction) probe instead, which lets
    the replay step prune infeasible branches from a *certified*
    contradiction witness — a positive-weight closed walk through the
    anchor, or a predecessor cycle whose edge weights sum positive —
    without paying a full solve for an exception message nobody
    reads.  An uncertified divergence still falls through to the full
    solve, so a probe never misreports feasibility either way.  On
    feasible graphs probes return the same distances as plain calls.

    Raises
    ------
    PositiveCycleError
        (Only when ``probe`` is False.)  If the constraint graph
        contains a positive cycle (the timing constraints are
        unsatisfiable).  The exception carries one offending cycle when
        it can be traced, and is byte-identical whichever step
        detected the contradiction: the replay step falls back to the
        full solve to raise.
    """
    solved = graph._current_state()
    if solved is not None:
        _COUNTERS["cache_hits"] += 1
        return _view(solved[1], solved[2])
    replayed = _replay(graph, probe)
    if replayed is _INFEASIBLE:
        _COUNTERS["probe_prunes"] += 1
        return None
    if replayed is not None:
        _COUNTERS["incremental_runs"] += 1
        dist, pred = replayed
    else:
        _COUNTERS["full_runs"] += 1
        # Equivalent to task_names(include_anchor=True) — the anchor is
        # the first inserted vertex — without materializing Task
        # objects.
        names = list(graph._tasks)
        try:
            if OBS.enabled:
                # Spans only for the expensive path: full solves are
                # the O(V*E) events worth seeing on a flamegraph; memo
                # hits and replays stay counters (they fire thousands
                # of times per solve).
                with OBS.span("core.longest_path.full",
                              vertices=len(names)):
                    full = _full_longest_paths(graph, names)
            else:
                full = _full_longest_paths(graph, names)
        except PositiveCycleError:
            if probe:
                return None
            raise
        dist, pred = full.distance, full.predecessor
    _remember_state(graph, dist, pred)
    return _view(dist, pred)


#: Sentinel returned by :func:`_replay` when a probe certified the
#: current edge set infeasible (distinct from None = "step not
#: applicable, fall through").
_INFEASIBLE = object()


class _Diverged(Exception):
    """Internal: worklist relaxation suspects a positive cycle.

    ``certain`` is True when the divergence itself is a proof of
    infeasibility (the anchor's distance became positive, i.e. an
    actual positive-weight closed walk through the fixed time origin
    was relaxed).  Otherwise ``dst``/``pred`` carry the state needed to
    attempt certification via :func:`_certified_infeasible`.
    """

    def __init__(self, dst: "str | None", pred: dict,
                 certain: bool) -> None:
        super().__init__("relaxation diverged")
        self.dst = dst
        self.pred = pred
        self.certain = certain


def _certified_infeasible(graph: ConstraintGraph,
                          diverged: _Diverged) -> bool:
    """True when the divergence comes with a verifiable contradiction.

    A relaxation count overflow alone is only a *suspicion* (worklist
    relaxation can legitimately improve a vertex many times), so probes
    confirm it by walking the predecessor chain from the overflowing
    vertex: if it closes a cycle and the cycle's edge weights (read
    from the live edge store) sum positive, the graph provably has no
    fixpoint.  An inconclusive walk returns False and the caller pays
    the full solve — certification failure costs speed, never a wrong
    feasibility verdict.
    """
    if diverged.certain:
        return True
    if diverged.dst is None:
        return False
    pred = diverged.pred
    seen: "dict[str, int]" = {}
    chain: "list[str]" = []
    cur: "str | None" = diverged.dst
    while cur is not None and cur not in seen:
        seen[cur] = len(chain)
        chain.append(cur)
        cur = pred.get(cur)
    if cur is None:
        return False
    cycle = chain[seen[cur]:] + [cur]
    edges = graph._edges
    total = 0
    for dst_v, src_v in zip(cycle, cycle[1:]):
        entry = edges.get((src_v, dst_v))
        if entry is None:
            return False
        total += entry[0]
    return total > 0


def _replay(graph: ConstraintGraph, probe: bool):
    """Replay the journal suffix over the nearest shorter memo.

    The edge set is a pure function of the journal prefix, and
    ``rollback`` drops memos above the restored token — so a surviving
    journal-length key names exactly the edge set at that prefix.  The
    suffix's net change per touched pair splits two ways:

    * a created or tightened edge can only raise distances; it is
      relaxed by the worklist over the memoized fixpoint;
    * a weakened or removed edge ``src -> dst`` can only lower them,
      and only where a memoized path ran through it: when the memo's
      ``pred[dst] == src``, ``dst`` is a *cut root*, and every vertex of
      its predecessor subtree restarts (:func:`_reset_subtrees`).  Off
      the predecessor tree it moves no distance.

    A vertex outside the reset subtrees keeps a solved path whose edges
    are all still present, at their memo weight or tighter, so its
    memoized distance is still a lower bound of the new one; the reset
    vertices restart from the implicit anchor edge and their best edge
    in from outside; the worklist then raises both to the new least
    fixpoint.  The step falls through to the full solve only when no
    memo lies within :data:`_REPLAY_WINDOW`, the vertex set changed, or
    the worklist suspects a positive cycle.

    Returns the new ``(distance, predecessor)`` dicts, None to fall
    through to the full solve, or :data:`_INFEASIBLE` when a probing
    caller's replay diverged with a certified contradiction.  Never
    raises on infeasible instances: a non-probe diverging replay
    returns None so the full solve raises canonically.
    """
    state_cache = graph._state_cache
    if not state_cache:
        return None
    journal = graph._journal
    length = len(journal)
    floor = max(length - _REPLAY_WINDOW, 0)
    for key in range(length - 1, floor - 1, -1):
        entry = state_cache.get(key)
        if entry is None:
            continue
        vertices, dist, pred = entry
        if vertices != len(graph._tasks):
            return None  # vertex set changed since every older memo
        # Net change per touched pair: weight at memo time is the
        # *first* journaled prev for the pair (None = absent), current
        # weight is the live edge store.
        first_prev: "dict[tuple[str, str], tuple[int, str] | None]" = {}
        for edge_key, prev in journal[key:]:
            if edge_key not in first_prev:
                first_prev[edge_key] = prev
        edges = graph._edges
        adds = []
        roots = []
        for (src, dst), prev in first_prev.items():
            current = edges.get((src, dst))
            if current is None:
                if prev is not None and pred[dst] == src:
                    roots.append(dst)  # removed from a memoized path
            elif prev is None or current[0] > prev[0]:
                adds.append((src, dst, current[0]))
            elif current[0] < prev[0] and pred[dst] == src:
                roots.append(dst)  # weakened on a memoized path
        if not adds and not roots:
            return dist, pred
        # The memo's dicts are shared with graph copies and pickles:
        # work on copies.
        dist, pred = dict(dist), dict(pred)
        reset = _reset_subtrees(graph, dist, pred, roots) if roots else ()
        try:
            return _propagate(graph, dist, pred, adds, reset)
        except _Diverged as diverged:
            if probe and _certified_infeasible(graph, diverged):
                return _INFEASIBLE
            return None
    return None


def predecessor_children(pred: "Mapping[str, str | None]") \
        -> "dict[str, list[str]]":
    """The children of each vertex in a predecessor map."""
    children: "dict[str, list[str]]" = {}
    for name, parent in pred.items():
        if parent is not None:
            children.setdefault(parent, []).append(name)
    return children


def predecessor_subtrees(children: "dict[str, list[str]]",
                         roots: "Iterable[str]") \
        -> "tuple[list[str], set[str]]":
    """The union of the roots' subtrees in a predecessor map, given its
    :func:`predecessor_children`: every vertex whose predecessor chain
    runs through a root, roots included, breadth first and as a set.

    On a solved fixpoint (tight, acyclic predecessors) these are the
    vertices whose memoized longest path uses a root.
    """
    reached = list(roots)
    inside = set(reached)
    for name in reached:  # grows while iterating: a breadth-first walk
        for child in children.get(name, ()):
            if child not in inside:
                inside.add(child)
                reached.append(child)
    return reached, inside


def _reset_subtrees(graph: ConstraintGraph, dist: dict, pred: dict,
                    roots: "list[str]") -> "list[str]":
    """Restart every vertex whose memoized path runs through a root.

    ``dist``/``pred`` are private copies of a solved fixpoint, whose
    predecessor edges are tight and acyclic (``pred[v] is None``
    exactly when ``dist[v] == 0``).  The union of the roots'
    predecessor subtrees is reset in place: each vertex restarts at 0
    (the implicit anchor edge), then takes its best live edge in from a
    vertex outside the subtrees, whose memoized distance stands.
    Returns the reset vertices, which the worklist must visit.
    """
    reset, inside = predecessor_subtrees(predecessor_children(pred), roots)
    edges = graph._edges
    incoming = graph._in
    for name in reset:
        best, via = 0, None
        for src in incoming.get(name, ()):
            if src not in inside:
                entry = edges.get((src, name))
                if entry is not None and dist[src] + entry[0] > best:
                    best, via = dist[src] + entry[0], src
        dist[name], pred[name] = best, via
    return reset


def _remember_state(graph: ConstraintGraph, dist: dict,
                    pred: dict) -> None:
    """Memoize the solved fixpoint under the current journal length.

    ``ConstraintGraph.rollback`` drops memos above the restored token
    and ``strip_tags`` clears them, so a surviving key always names the
    exact current edge set.  The dicts are shared with graph copies and
    pickles and never mutated in place (the replay copies first).
    """
    state_cache = graph._state_cache
    state_cache[len(graph._journal)] = (len(dist), dist, pred)
    if len(state_cache) > _STATE_CACHE_LIMIT:
        doomed = list(state_cache)[:_STATE_CACHE_LIMIT // 2]
        for key in doomed:
            del state_cache[key]


def _propagate(graph, dist, pred, adds, reset) -> "tuple[dict, dict]":
    """Worklist relaxation from a memoized fixpoint to the current one.

    ``adds`` holds ``(src, dst, weight)`` triples of added or tightened
    edges; ``reset`` names the vertices :func:`_reset_subtrees`
    restarted, whose out-edges are visited first.  ``dist``/``pred``
    are private copies of the memoized fixpoint and are updated in
    place and returned.  Divergence — a suspected positive cycle —
    raises :class:`_Diverged`, carrying whether the divergence is a
    proof (positive closed walk through the anchor) or needs
    certification.  Non-probing callers treat any divergence as "fall
    through to the full solve", which raises the canonical
    :class:`PositiveCycleError` (message and traced cycle included) —
    so infeasibility reported through a memo is byte-identical to a
    cold solve, and a false-positive divergence guard costs a
    recompute, never a wrong exception.
    """
    limit = len(dist)
    queue: "deque[str]" = deque(reset)
    queued: "set[str]" = set(reset)
    counts: "dict[str, int]" = {}

    def relax(src: str, dst: str, weight: int) -> None:
        cand = dist[src] + weight
        if cand > dist[dst]:
            dist[dst] = cand
            pred[dst] = src
            counts[dst] = counts.get(dst, 0) + 1
            if dst == ANCHOR_NAME and dist[dst] > 0:
                # Every distance is at most the length of a real walk
                # from the anchor (a reset vertex restarts from one), so
                # a positive anchor distance certifies a positive
                # closed walk — infeasibility proven.
                raise _Diverged(dst, pred, certain=True)
            if counts[dst] > limit:
                raise _Diverged(dst, pred, certain=False)
            # A vertex already awaiting processing is processed with
            # its *latest* distance, so re-enqueueing it only clones
            # work — without this guard the queue blows up
            # combinatorially on dense deltas (and loops millions of
            # times before a positive cycle trips the count limit).
            if dst not in queued:
                queued.add(dst)
                queue.append(dst)

    for src, dst, weight in adds:
        relax(src, dst, weight)
    edges = graph._edges
    out = graph._out
    # Edge weights are fixed for the duration of one propagation, so the
    # adjacency of each popped vertex is snapshotted on first visit;
    # near-infeasible instances pop every vertex up to ``limit`` times
    # and would otherwise repeat the tuple-key edge lookups each pass.
    adj: "dict[str, list]" = {}
    while queue:
        src = queue.popleft()
        queued.discard(src)
        row = adj.get(src)
        if row is None:
            row = [(dst, entry[0])
                   for dst in out.get(src, ())
                   for entry in (edges.get((src, dst)),)
                   if entry is not None]
            adj[src] = row
        base = dist[src]
        for dst, weight in row:
            cand = base + weight
            if cand > dist[dst]:
                dist[dst] = cand
                pred[dst] = src
                count = counts.get(dst, 0) + 1
                counts[dst] = count
                if dst == ANCHOR_NAME and cand > 0:
                    raise _Diverged(dst, pred, certain=True)
                if count > limit:
                    raise _Diverged(dst, pred, certain=False)
                if dst not in queued:
                    queued.add(dst)
                    queue.append(dst)
    if dist[ANCHOR_NAME] > 0:  # pragma: no cover - relax() raises first
        raise _Diverged(ANCHOR_NAME, pred, certain=True)
    return dist, pred


def _full_longest_paths(graph: ConstraintGraph,
                        names: "list[str]") -> LongestPathResult:
    dist: "dict[str, int]" = {name: 0 for name in names}
    pred: "dict[str, str | None]" = {name: None for name in names}
    edges = graph.edge_triples()

    changed = True
    for _ in range(len(names)):
        if not changed:
            break
        changed = False
        for src, dst, weight in edges:
            cand = dist[src] + weight
            if cand > dist[dst]:
                dist[dst] = cand
                pred[dst] = src
                changed = True
        if dist[ANCHOR_NAME] > 0:
            # The anchor is the fixed time origin; any constraint chain
            # that forces it later than 0 (e.g. serialization into a
            # start deadline) is contradictory — equivalent to a
            # positive cycle through the implicit anchor edges.
            raise PositiveCycleError(
                "timing constraints force the anchor past time 0 "
                "(deadline chain is unsatisfiable)",
                cycle=_trace_cycle(pred, ANCHOR_NAME))
    if changed:
        # One more pass would still relax: positive cycle.  Trace it via
        # the predecessor chain from any still-relaxable endpoint.
        for src, dst, weight in edges:
            if dist[src] + weight > dist[dst]:
                raise PositiveCycleError(
                    "timing constraints contain a positive cycle "
                    f"(reached via edge {src!r} -> {dst!r})",
                    cycle=_trace_cycle(pred, dst))
    # Distances can never be negative: the implicit time-0 edges put a
    # floor of 0 under every vertex, which the initialization encodes.
    return LongestPathResult(distance=dist, predecessor=pred)


def _trace_cycle(pred: "dict[str, str | None]", start: str) -> "list[str]":
    """Walk predecessors from ``start`` until a vertex repeats."""
    seen: "dict[str, int]" = {}
    chain: "list[str]" = []
    cur: "str | None" = start
    while cur is not None and cur not in seen:
        seen[cur] = len(chain)
        chain.append(cur)
        cur = pred.get(cur)
    if cur is None:
        return chain  # best effort; relaxation order hid the cycle body
    return chain[seen[cur]:]


def earliest_starts(graph: ConstraintGraph) -> "dict[str, int]":
    """ASAP start times: the longest-path distances themselves."""
    result = longest_paths(graph)
    return {name: result.distance[name] for name in graph.task_names()}


def latest_starts(graph: ConstraintGraph, horizon: int) -> "dict[str, int]":
    """ALAP start times against a finish-time horizon.

    Computed as ``horizon_slot(v) - longest_path(v -> sinks)`` via a
    reverse relaxation: for each edge ``sigma(dst) - sigma(src) >= w``
    the latest start of ``src`` is bounded by ``late[dst] - w``.  Every
    task must also finish by ``horizon``.

    Used by the exhaustive scheduler to bound its search and by the
    analysis layer to report global slack windows.
    """
    names = graph.task_names(include_anchor=True)
    late: "dict[str, int]" = {}
    for name in names:
        task = graph.task(name)
        late[name] = horizon - task.duration
    late[ANCHOR_NAME] = 0
    edges = graph.edge_triples()

    changed = True
    for _ in range(len(names) + 1):
        if not changed:
            break
        changed = False
        for src, dst, weight in edges:
            cand = late[dst] - weight
            if cand < late[src]:
                late[src] = cand
                changed = True
    if changed:
        raise PositiveCycleError(
            "timing constraints contain a positive cycle "
            "(detected during ALAP relaxation)")
    if late[ANCHOR_NAME] < 0 or any(
            late[name] < 0 for name in graph.task_names()):
        raise InfeasibleError(
            f"horizon {horizon} is too short for the timing "
            "constraints (a latest start would be negative)")
    return {name: late[name] for name in graph.task_names()}
