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
      "runner": {"retries": 1, "instrument": false,
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
  Carlo batches).  A shard reuses schedules exactly when ``store``
  ships a schedule-store document, under the policy that document
  names; it carries whatever the parent already primed, so shards
  never repeat that work.  ``runner.trace`` (optional) is the
  orchestrating run's trace identity — workers adopt it so shard
  artifacts stitch back under the parent trace on merge (see
  docs/observability.md).  Older manifests' ``runner.reuse_schedules``
  and ``runner.reuse_policy`` still work (see
  :func:`~repro.engine.backends.shards.run_manifest`).  Other
  ``runner`` keys are ignored, so manifests from older releases, which
  also carried since-removed solver switches, still load and run
  (docs/formats.md lists them).

``repro-shard-artifact`` v2 — *what one shard produced*::

    {
      "format": "repro-shard-artifact", "version": 2,
      "shard": {"index": 1, "of": 4},
      "run": {"elapsed_s": 0.93, "trace_id": "...",
              "parent_span_id": "..."},
      "results": [{"position": 7, "key": "ab12...", "ok": true,
                   "error": null, "attempts": 1, "elapsed_s": 0.11,
                   "cached": false,
                   "value": {"__type__": "sweep_point", "p_max": 20.0,
                             ...},
                   "stats": {...}}, ...]
    }

  The per-job results (payloads re-hydrated to
  :class:`~repro.analysis.sweep.SweepPoint` on load) and the shard
  run's identity — nothing else, because the results already hold it:
  ``stats`` rides along verbatim (plain JSON: scheduler counters,
  reuse markers with ``new_entries``, and for instrumented runs the
  job's ``obs`` span tree and metrics), so the one
  :meth:`~repro.engine.runner.BatchRunner.fold` that settles every run
  rebuilds the store delta, the cache and the trace from them.  Version
  1 artifacts also carried the shard's trace, store delta, cache and
  metric snapshot; they still load, those sections are ignored, and
  their results fold the same way — without spans, which v1 shards
  stripped from ``stats``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import SerializationError
from ..files import check_envelope, read_json, typed, write_json
from ..scheduling.base import SchedulerOptions
from .json_io import problem_from_dict, problem_to_dict

__all__ = ["MANIFEST_FORMAT", "MANIFEST_VERSION", "ARTIFACT_FORMAT",
           "ARTIFACT_VERSION", "ARTIFACT_RUN_FIELDS", "ShardArtifact",
           "options_to_dict",
           "options_from_dict", "manifest_to_dict",
           "manifest_from_dict", "save_manifest", "load_manifest",
           "artifact_to_dict", "artifact_from_dict", "save_artifact",
           "load_artifact"]

MANIFEST_FORMAT = "repro-shard-manifest"
MANIFEST_VERSION = 1
ARTIFACT_FORMAT = "repro-shard-artifact"
ARTIFACT_VERSION = 2
#: What an artifact's ``run`` section keeps of the shard run's trace,
#: with each field's JSON types.
ARTIFACT_RUN_FIELDS = {"elapsed_s": (int, float), "trace_id": str,
                       "parent_span_id": str}

_SWEEP_POINT_FIELDS = ("p_max", "p_min", "feasible", "finish_time",
                       "energy_cost", "utilization", "peak_power")
#: ``JobResult`` fields of an artifact result: name, JSON types, default.
_RESULT_FIELDS = (("position", int, None), ("key", str, None),
                  ("ok", bool, True), ("error", (str, type(None)), None),
                  ("attempts", int, 0), ("elapsed_s", (int, float), 0.0),
                  ("cached", bool, False), ("stats", dict, {}))


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
    try:
        data = dict(doc)
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
    — the same structure the planner produced.  Anything a shard run
    would trip over later (a mistyped section, an unknown reuse policy,
    a store document that does not load) is a
    :class:`SerializationError` here.
    """
    from ..engine.jobs import SolveJob
    from ..engine.planner import ShardManifest
    from ..engine.schedule_store import REUSE_POLICIES, ScheduleStore

    check_envelope(doc, MANIFEST_FORMAT, MANIFEST_VERSION)
    index, of = _shard_slot(doc)
    sweep = typed(doc.get("sweep", {}), dict, "sweep")
    kind = typed(doc.get("kind", "sweep_point"), str, "kind")
    runner = typed(doc.get("runner", {}), dict, "runner")
    trace = typed(runner.get("trace") or {}, dict, "runner.trace")
    for name in ("trace_id", "parent_span_id"):
        typed(trace.get(name), (str, type(None)), f"runner.trace.{name}")
    if typed(runner.get("retries", 1), int, "runner.retries") < 0 \
            or runner.get("reuse_policy", "identical") \
            not in REUSE_POLICIES:
        raise SerializationError(
            "shard manifest runner needs retries >= 0 and a reuse "
            f"policy from {REUSE_POLICIES}")
    store = doc.get("store")
    if store is not None:
        ScheduleStore.from_dict(typed(store, dict, "store"))
    default_options = options_from_dict(doc.get("options"))
    jobs_doc = doc.get("jobs", [])
    base_problems: "list[Any]" = []
    try:
        for base_index, base_doc in enumerate(doc.get("problems", [])):
            first = next(job for job in jobs_doc
                         if job["problem"] == base_index)
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
            jobs.append((typed(job_doc["position"], int, "position"),
                         SolveJob(problem=problem, kind=kind,
                                  options=options)))
    except (KeyError, IndexError, StopIteration, TypeError) as exc:
        raise SerializationError(
            f"malformed shard manifest jobs: {exc!r}") from exc
    return ShardManifest(
        index=index, of=of,
        strategy=sweep.get("strategy", "tile"),
        jobs=jobs,
        sweep=sweep.get("name", "sweep"),
        runner=dict(runner),
        store=store)


def save_manifest(manifest, path: str) -> str:
    """Write a shard manifest JSON file; returns the path."""
    return write_json(path, manifest_to_dict(manifest))


def load_manifest(path: str):
    """Read a shard manifest JSON file."""
    return read_json(path, manifest_from_dict)


# ----------------------------------------------------------------------
# artifact round trip
# ----------------------------------------------------------------------

@dataclass
class ShardArtifact:
    """What one shard run produced, ready to merge.

    ``results`` carry *global* positions, and in their ``stats``
    everything a fold rebuilds the shard's store delta, cache and trace
    from; ``run`` holds the shard run's :data:`ARTIFACT_RUN_FIELDS`.
    """

    index: int
    of: int
    results: "list[Any]" = field(default_factory=list)
    run: "dict[str, Any]" = field(default_factory=dict)


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
        missing = [name for name in _SWEEP_POINT_FIELDS
                   if name not in doc]
        if missing:
            raise SerializationError(
                f"sweep point payload is missing {missing}")
        return SweepPoint(**{name: doc[name]
                             for name in _SWEEP_POINT_FIELDS})
    return doc


def artifact_to_dict(artifact: ShardArtifact) -> "dict[str, Any]":
    """Serialize a :class:`ShardArtifact`."""
    results_doc = []
    for result in artifact.results:
        doc = {name: getattr(result, name)
               for name, _types, _default in _RESULT_FIELDS}
        doc.update(elapsed_s=round(result.elapsed_s, 6),
                   stats=result.stats or {},
                   value=_encode_value(result.value))
        results_doc.append(doc)
    return {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "shard": {"index": artifact.index, "of": artifact.of},
        "run": dict(artifact.run),
        "results": results_doc,
    }


def artifact_from_dict(doc: "Mapping[str, Any]") -> ShardArtifact:
    """Rebuild a :class:`ShardArtifact` (payloads re-hydrated).

    Reads versions 1 and 2; see the module docstring for what a
    version 1 artifact leaves behind.
    """
    from ..engine.jobs import JobResult

    check_envelope(doc, ARTIFACT_FORMAT, ARTIFACT_VERSION)
    index, of = _shard_slot(doc)
    run = typed(doc.get("run", {}), dict, "run")
    for name, types in ARTIFACT_RUN_FIELDS.items():
        if name in run:
            typed(run[name], types, f"run.{name}")
    results = []
    for item in typed(doc.get("results", []), list, "results"):
        item = typed(item, dict, "result")
        fields = {name: typed(item.get(name, default), types,
                               f"result {name}")
                  for name, types, default in _RESULT_FIELDS}
        fields["stats"] = dict(fields["stats"])
        if "reuse" in fields["stats"]:
            _check_reuse_marker(fields["stats"]["reuse"])
        results.append(JobResult(value=_decode_value(item.get("value")),
                                 **fields))
    return ShardArtifact(index=index, of=of, results=results,
                         run={name: run[name]
                              for name in ARTIFACT_RUN_FIELDS
                              if name in run})


def _check_reuse_marker(marker: Any) -> None:
    """Type a result's reuse marker, the part of ``stats`` that
    :meth:`~repro.engine.runner.BatchRunner.fold` reads: an object
    whose ``hit`` is a bool, ``deduped`` a non-negative int and
    ``new_entries`` a list of ``{"base_key", "name", "entry"}``
    objects (two strings and an object)."""
    what = "result stats.reuse"
    marker = typed(marker, dict, what)
    if "hit" in marker:
        typed(marker["hit"], bool, f"{what}.hit")
    if "deduped" in marker \
            and typed(marker["deduped"], int, f"{what}.deduped") < 0:
        raise SerializationError(
            f"{what}.deduped must be >= 0, found {marker['deduped']}")
    for item in typed(marker.get("new_entries", []), list,
                      f"{what}.new_entries"):
        item = typed(item, dict, f"{what}.new_entries item")
        for name, types in (("base_key", str), ("name", str),
                            ("entry", dict)):
            typed(item.get(name), types,
                  f"{what}.new_entries item {name}")


def save_artifact(artifact: ShardArtifact, path: str) -> str:
    """Write a shard artifact JSON file; returns the path."""
    return write_json(path, artifact_to_dict(artifact))


def load_artifact(path: str) -> ShardArtifact:
    """Read a shard artifact JSON file."""
    return read_json(path, artifact_from_dict)


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------

def _shard_slot(doc: "Mapping[str, Any]") -> "tuple[int, int]":
    shard = typed(doc.get("shard", {}), dict, "shard")
    index = typed(shard.get("index", 0), int, "shard.index")
    of = typed(shard.get("of", 1), int, "shard.of")
    if not 0 <= index < of:
        raise SerializationError(
            f"shard index {index} is outside a {of}-shard plan")
    return index, of
