"""Merging per-shard artifacts back into one run.

The third engine layer (plan → execute → merge): given the
:class:`~repro.io.shards.ShardArtifact` each ``repro shard run``
produced, rebuild what a single unsharded
:class:`~repro.engine.runner.BatchRunner` run would have reported.
There is no second merge: the shard results are interleaved back into
submission order (:func:`merge_results`; a position claimed by two
shards is a planner/merge bug and raises) and then settled by the
runner's own :meth:`~repro.engine.runner.BatchRunner.fold` — the same
code that settles a serial, pool, ``--backend shards`` or remote run.
So the merged store is every result's journal delta folded through
:meth:`~repro.engine.schedule_store.ScheduleStore.merge_delta`, the
merged cache holds every solved payload, and the merged trace is
``engine.run`` → ``engine.job`` → each job's shipped span tree, with
metrics (histogram quantiles included) computed over every job's own
observations.

Store equality across shard counts is checked with
:func:`canonical_store_doc`: shards discover entries in
partition-dependent *order*, so the canonical form sorts each bucket's
entries and drops run counters — two stores holding the same schedules
compare equal regardless of how the sweep was partitioned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..errors import ReproError
from ..obs import new_span_id, new_trace_id
from .cache import ResultCache
from .jobs import JobResult
from .runner import BatchRunner
from .schedule_store import ScheduleStore
from .trace import RunTrace

__all__ = ["MergedRun", "merge_artifacts", "merge_results",
           "canonical_store_doc"]


@dataclass
class MergedRun:
    """The single-run view assembled from per-shard artifacts."""

    results: "list[JobResult]"
    trace: RunTrace
    store: ScheduleStore
    cache: ResultCache

    @property
    def metrics(self) -> "dict[str, Any]":
        """The merged trace's metric snapshot."""
        return self.trace.metrics


def merge_results(artifacts: "Sequence[Any]") -> "list[JobResult]":
    """Interleave shard results back into global submission order.

    Positions must partition cleanly: any position reported by two
    shards raises (the planner guarantees disjointness, so a collision
    means mismatched artifacts were mixed).
    """
    by_position: "dict[int, JobResult]" = {}
    for artifact in artifacts:
        for result in artifact.results:
            if result.position in by_position:
                raise ReproError(
                    f"shard artifacts overlap at position "
                    f"{result.position} (shard {artifact.index} "
                    "duplicates an already-merged result)")
            by_position[result.position] = result
    return [by_position[position]
            for position in sorted(by_position)]


def merge_artifacts(artifacts: "Iterable[Any]",
                    policy: str = "identical") -> MergedRun:
    """Fold one plan's shard artifacts into a single run.

    The artifacts must come from one plan (one ``of``) and cover shard
    indexes ``0..of-1`` exactly once — a missing shard would silently
    drop its points.  The results settle into an unbounded
    :class:`ResultCache` and, when they carry reuse markers (the shards
    ran with a schedule store), into a fresh ``ScheduleStore(policy)``.
    The run is instrumented when the results carry span trees, and it
    adopts the shards' trace identity when they all share one.
    """
    artifacts = list(artifacts)
    _check_complete(artifacts)
    results = merge_results(artifacts)
    store = ScheduleStore(policy=policy)
    reused = any("reuse" in (result.stats or {}) for result in results)
    runner = BatchRunner(store=store if reused else None)
    runner.cache = ResultCache(max_entries=None)
    wall0s = [result.stats["obs"]["wall0"] for result in results
              if "obs" in (result.stats or {})]
    identities = {(artifact.run.get("trace_id"),
                   artifact.run.get("parent_span_id"))
                  for artifact in artifacts}
    trace_id, parent_span_id = identities.pop() \
        if len(identities) == 1 else (None, None)
    slowest = max(artifact.run.get("elapsed_s", 0.0)
                  for artifact in artifacts)
    # The shards ran concurrently (or at least independently): the
    # merged run took as long as the slowest one, plus this fold.
    runner.fold(results, "shards",
                started=time.perf_counter() - slowest,
                wall0=min(wall0s, default=time.time()),
                instrument=bool(wall0s),
                ids={"trace_id": trace_id or new_trace_id(),
                     "span_id": new_span_id(),
                     "parent_span_id": parent_span_id})
    return MergedRun(results=results, trace=runner.last_trace,
                     store=store, cache=runner.cache)


def _check_complete(artifacts: "Sequence[Any]") -> None:
    plans = sorted({artifact.of for artifact in artifacts})
    if len(plans) != 1:
        raise ReproError(
            f"shard artifacts mix plans of {plans} shards"
            if plans else "no shard artifacts to merge")
    of = plans[0]
    indexes = sorted(artifact.index for artifact in artifacts)
    if indexes != list(range(of)):
        missing = sorted(set(range(of)) - set(indexes))
        repeated = sorted({index for index in indexes
                           if indexes.count(index) > 1})
        raise ReproError(
            f"a {of}-shard plan needs each shard index 0..{of - 1} "
            f"exactly once; got {indexes} (missing {missing}, "
            f"repeated {repeated})")


def canonical_store_doc(store: ScheduleStore) -> "dict[str, Any]":
    """A partition-order-independent view of a store's contents.

    Counters are dropped (they describe a run, not the stored data)
    and each bucket's entries are sorted by their full serialized
    form, so stores assembled in different insertion orders — one
    shard vs four — compare equal iff they hold the same schedules.
    """
    doc = store.to_dict()
    doc.pop("counters", None)
    for bucket in doc.get("problems", {}).values():
        bucket["entries"] = sorted(
            bucket["entries"],
            key=lambda entry: (entry["stage"], entry["label"],
                               sorted(entry["starts"].items())))
    return doc
