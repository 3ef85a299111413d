"""Shard manifests and shard artifacts: the sharded-sweep wire formats.

Two documents connect the engine's plan → execute → merge layers across
process (and machine) boundaries:

``repro-shard-manifest`` v1 — *what one shard should run*::

    {
      "format": "repro-shard-manifest", "version": 1,
      "sweep": {"name": "fig1-grid", "strategy": "tile", "shards": 4},
      "shard": {"index": 1, "of": 4},
      "kind": "sweep_point",
      "options": {... SchedulerOptions fields ...} | null,
      "runner": {"retries": 1, "reuse_schedules": true,
                 "reuse_policy": "identical", "instrument": false,
                 "trace": {"trace_id": "...", "parent_span_id": "..."}},
      "problems": [{... repro-problem doc, p_max/p_min removed ...}],
      "jobs": [{"position": 7, "problem": 0,
                "p_max": 20.0, "p_min": 14.0},
               {"position": 9, "problem": 0, "p_max": 20.0,
                "p_min": 10.0, "options": {...}}, ...],
      "store": {... repro-schedule-store doc ...} | null
    }

  Each distinct workload is stored once in ``problems`` (its document
  *minus* the power constraints); a job is that workload index plus its
  own ``(p_max, p_min)`` — small manifests even for large grids.
  ``jobs[i].position`` is the job's index in the *full* planned sweep,
  so merged shard results restore submission order.  A per-job
  ``options`` object overrides the manifest default (reseeded Monte
  Carlo batches); ``store`` ships the parent's already-primed schedule
  store so shards never repeat priming work it already did.
  ``runner.trace`` (optional) is the orchestrating run's trace
  identity — workers adopt it so shard artifacts stitch back under
  the parent trace on merge (see docs/observability.md).  Other
  ``runner`` keys are ignored, so manifests from older releases, which
  also carried since-removed solver switches, still load and run
  (docs/formats.md lists them).

``repro-shard-artifact`` v1 — *what one shard produced*::

    {
      "format": "repro-shard-artifact", "version": 1,
      "shard": {"index": 1, "of": 4},
      "results": [{"position": 7, "key": "ab12...", "ok": true,
                   "error": null, "attempts": 1, "elapsed_s": 0.11,
                   "cached": false,
                   "value": {"__type__": "sweep_point", "p_max": 20.0,
                             ...},
                   "stats": {...}}, ...],
      "trace": {... repro-trace v2 doc of the shard's own run ...},
      "store_delta": [{"base_key": "...", "name": "...",
                       "entry": {...}}, ...],
      "cache": {"stats": {"hits": 0, "misses": 5, ...},
                "entries": [{"key": "...", "value": {...}}, ...]},
      "metrics": {... MetricsRegistry snapshot ...}
    }

  Self-contained: results (payloads re-hydrated to
  :class:`~repro.analysis.sweep.SweepPoint` on load), the shard's own
  trace-v2 document, the schedule-store journal delta, the shard
  cache's contents, and the metric snapshot — everything
  :func:`repro.engine.merge.merge_artifacts` needs, with no side
  channels.  ``stats`` rides along verbatim (it is already plain JSON:
  scheduler counters, reuse markers with ``new_entries``, shipped obs
  spans), which is what lets a sharded run feed the ordinary
  :class:`~repro.engine.runner.BatchRunner` settlement and trace
  assembly unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import SerializationError
from ..scheduling.base import SchedulerOptions
from .json_io import problem_from_dict, problem_to_dict

__all__ = ["MANIFEST_FORMAT", "MANIFEST_VERSION", "ARTIFACT_FORMAT",
           "ARTIFACT_VERSION", "ShardArtifact", "options_to_dict",
           "options_from_dict", "manifest_to_dict",
           "manifest_from_dict", "save_manifest", "load_manifest",
           "artifact_to_dict", "artifact_from_dict", "save_artifact",
           "load_artifact"]

MANIFEST_FORMAT = "repro-shard-manifest"
MANIFEST_VERSION = 1
ARTIFACT_FORMAT = "repro-shard-artifact"
ARTIFACT_VERSION = 1

_SWEEP_POINT_FIELDS = ("p_max", "p_min", "feasible", "finish_time",
                       "energy_cost", "utilization", "peak_power")


# ----------------------------------------------------------------------
# options round trip
# ----------------------------------------------------------------------

def options_to_dict(options: "SchedulerOptions | None") \
        -> "dict[str, Any] | None":
    """Serialize options (``None`` stays ``None`` — solver defaults)."""
    if options is None:
        return None
    return dataclasses.asdict(options)


def options_from_dict(doc: "Mapping[str, Any] | None") \
        -> "SchedulerOptions | None":
    """Rebuild options; tuple-typed fields are restored from lists."""
    if doc is None:
        return None
    data = dict(doc)
    try:
        for name in ("scan_orders", "slot_heuristics"):
            if name in data:
                data[name] = tuple(data[name])
        return SchedulerOptions(**data)
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            f"malformed scheduler options: {exc}") from exc


# ----------------------------------------------------------------------
# manifest round trip
# ----------------------------------------------------------------------

def manifest_to_dict(manifest) -> "dict[str, Any]":
    """Serialize a :class:`~repro.engine.planner.ShardManifest`."""
    default_options = manifest.jobs[0][1].options if manifest.jobs \
        else None
    default_doc = options_to_dict(default_options)
    base_docs: "list[dict[str, Any]]" = []
    base_index: "dict[str, int]" = {}
    jobs_doc = []
    kind = manifest.jobs[0][1].kind if manifest.jobs else "sweep_point"
    for position, job in manifest.jobs:
        if job.kind != kind:
            raise SerializationError(
                "shard manifests carry a single job kind; found both "
                f"{kind!r} and {job.kind!r}")
        doc = problem_to_dict(job.problem)
        p_max = doc.pop("p_max")
        p_min = doc.pop("p_min")
        dedupe_key = json.dumps(doc, sort_keys=True, default=repr)
        index = base_index.get(dedupe_key)
        if index is None:
            index = base_index[dedupe_key] = len(base_docs)
            base_docs.append(doc)
        job_doc: "dict[str, Any]" = {"position": position,
                                     "problem": index,
                                     "p_max": p_max, "p_min": p_min}
        opts_doc = options_to_dict(job.options)
        if opts_doc != default_doc:
            job_doc["options"] = opts_doc
        jobs_doc.append(job_doc)
    return {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "sweep": {"name": manifest.sweep,
                  "strategy": manifest.strategy,
                  "shards": manifest.of},
        "shard": {"index": manifest.index, "of": manifest.of},
        "kind": kind,
        "options": default_doc,
        "runner": dict(manifest.runner),
        "problems": base_docs,
        "jobs": jobs_doc,
        "store": manifest.store,
    }


def manifest_from_dict(doc: "Mapping[str, Any]"):
    """Rebuild a :class:`~repro.engine.planner.ShardManifest`.

    Each workload's problem is rebuilt once and every job shares its
    graph through
    :meth:`~repro.core.problem.SchedulingProblem.with_power_constraints`
    — the same structure the planner produced.
    """
    from ..engine.jobs import SolveJob
    from ..engine.planner import ShardManifest

    _expect(doc, MANIFEST_FORMAT, MANIFEST_VERSION)
    kind = doc.get("kind", "sweep_point")
    default_options = options_from_dict(doc.get("options"))
    jobs_doc = doc.get("jobs", [])
    base_problems: "list[Any]" = []
    try:
        for index, base_doc in enumerate(doc.get("problems", [])):
            first = next(job for job in jobs_doc
                         if job["problem"] == index)
            base_problems.append(problem_from_dict(
                {**base_doc, "p_max": first["p_max"],
                 "p_min": first["p_min"]}))
        jobs: "list[tuple[int, SolveJob]]" = []
        for job_doc in jobs_doc:
            base = base_problems[job_doc["problem"]]
            problem = base.with_power_constraints(job_doc["p_max"],
                                                  job_doc["p_min"])
            options = options_from_dict(job_doc["options"]) \
                if "options" in job_doc else default_options
            jobs.append((int(job_doc["position"]),
                         SolveJob(problem=problem, kind=kind,
                                  options=options)))
    except (KeyError, IndexError, StopIteration, TypeError) as exc:
        raise SerializationError(
            f"malformed shard manifest jobs: {exc!r}") from exc
    shard = doc.get("shard", {})
    sweep = doc.get("sweep", {})
    return ShardManifest(
        index=int(shard.get("index", 0)),
        of=int(shard.get("of", 1)),
        strategy=sweep.get("strategy", "tile"),
        jobs=jobs,
        sweep=sweep.get("name", "sweep"),
        runner=dict(doc.get("runner", {})),
        store=doc.get("store"))


def save_manifest(manifest, path: str) -> str:
    """Write a shard manifest JSON file; returns the path."""
    return _write_json(manifest_to_dict(manifest), path)


def load_manifest(path: str):
    """Read a shard manifest JSON file."""
    return manifest_from_dict(_read_json(path, MANIFEST_FORMAT))


# ----------------------------------------------------------------------
# artifact round trip
# ----------------------------------------------------------------------

@dataclass
class ShardArtifact:
    """Everything one shard run produced, ready to merge.

    ``results`` carry *global* positions; ``trace`` is the shard's own
    ``repro-trace`` v2 run trace; ``store_delta`` the schedule-store
    journal entries the shard inserted; ``cache_stats`` /
    ``cache_entries`` the shard's exact-key result cache;
    ``metrics`` the shard trace's metric snapshot.
    """

    index: int
    of: int
    results: "list[Any]" = field(default_factory=list)
    trace: "Any | None" = None
    store_delta: "list[dict[str, Any]]" = field(default_factory=list)
    cache_stats: "dict[str, int]" = field(default_factory=dict)
    cache_entries: "list[tuple[str, Any]]" = field(default_factory=list)
    metrics: "dict[str, Any]" = field(default_factory=dict)


def _encode_value(value: Any) -> Any:
    from ..analysis.sweep import SweepPoint
    if isinstance(value, SweepPoint):
        doc = {"__type__": "sweep_point"}
        doc.update({name: getattr(value, name)
                    for name in _SWEEP_POINT_FIELDS})
        return doc
    if value is None or isinstance(value, (bool, int, float, str,
                                           list, dict)):
        return value
    raise SerializationError(
        f"shard artifacts cannot carry a {type(value).__name__} "
        "payload; supported: SweepPoint and plain JSON values")


def _decode_value(doc: Any) -> Any:
    if isinstance(doc, dict) and doc.get("__type__") == "sweep_point":
        from ..analysis.sweep import SweepPoint
        return SweepPoint(**{name: doc[name]
                             for name in _SWEEP_POINT_FIELDS})
    return doc


def artifact_to_dict(artifact: ShardArtifact) -> "dict[str, Any]":
    """Serialize a :class:`ShardArtifact`."""
    results_doc = []
    for result in artifact.results:
        results_doc.append({
            "position": result.position,
            "key": result.key,
            "ok": result.ok,
            "error": result.error,
            "attempts": result.attempts,
            "elapsed_s": round(result.elapsed_s, 6),
            "cached": result.cached,
            "value": _encode_value(result.value),
            "stats": result.stats or {},
        })
    return {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "shard": {"index": artifact.index, "of": artifact.of},
        "results": results_doc,
        "trace": artifact.trace.to_dict()
        if artifact.trace is not None else None,
        "store_delta": list(artifact.store_delta),
        "cache": {"stats": dict(artifact.cache_stats),
                  "entries": [{"key": key,
                               "value": _encode_value(value)}
                              for key, value in
                              artifact.cache_entries]},
        "metrics": dict(artifact.metrics),
    }


def artifact_from_dict(doc: "Mapping[str, Any]") -> ShardArtifact:
    """Rebuild a :class:`ShardArtifact` (payloads re-hydrated)."""
    from ..engine.jobs import JobResult
    from ..engine.trace import RunTrace

    _expect(doc, ARTIFACT_FORMAT, ARTIFACT_VERSION)
    shard = doc.get("shard", {})
    try:
        results = [JobResult(position=int(item["position"]),
                             key=item["key"],
                             value=_decode_value(item.get("value")),
                             ok=item.get("ok", True),
                             error=item.get("error"),
                             attempts=item.get("attempts", 0),
                             elapsed_s=item.get("elapsed_s", 0.0),
                             cached=item.get("cached", False),
                             stats=dict(item.get("stats") or {}))
                   for item in doc.get("results", [])]
    except (KeyError, TypeError) as exc:
        raise SerializationError(
            f"malformed shard artifact results: {exc!r}") from exc
    trace_doc = doc.get("trace")
    cache_doc = doc.get("cache", {})
    return ShardArtifact(
        index=int(shard.get("index", 0)),
        of=int(shard.get("of", 1)),
        results=results,
        trace=RunTrace.from_dict(trace_doc)
        if trace_doc is not None else None,
        store_delta=list(doc.get("store_delta", [])),
        cache_stats=dict(cache_doc.get("stats", {})),
        cache_entries=[(item["key"], _decode_value(item.get("value")))
                       for item in cache_doc.get("entries", [])],
        metrics=dict(doc.get("metrics", {})))


def save_artifact(artifact: ShardArtifact, path: str) -> str:
    """Write a shard artifact JSON file; returns the path."""
    return _write_json(artifact_to_dict(artifact), path)


def load_artifact(path: str) -> ShardArtifact:
    """Read a shard artifact JSON file."""
    return artifact_from_dict(_read_json(path, ARTIFACT_FORMAT))


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------

def _expect(doc: "Mapping[str, Any]", fmt: str, version: int) -> None:
    if doc.get("format") != fmt:
        raise SerializationError(
            f"expected a {fmt!r} document, found {doc.get('format')!r}")
    found = doc.get("version", 0)
    if found > version:
        raise SerializationError(
            f"{fmt} version {found} is newer than supported "
            f"({version})")


def _write_json(doc: "dict[str, Any]", path: str) -> str:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def _read_json(path: str, fmt: str) -> "dict[str, Any]":
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SerializationError(
            f"cannot read {fmt} file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"{fmt} file {path!r} is not valid JSON: {exc}") from exc
