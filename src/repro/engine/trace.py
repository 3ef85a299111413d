"""Structured JSON traces of batch-engine runs.

One :class:`RunTrace` per :meth:`BatchRunner.run`: how the batch was
executed (mode, workers, retries), what the cache did (hits, misses,
evictions, dedup), how long each job took, the per-stage scheduler
timings and longest-path counters each job's :class:`SchedulerStats`
reported — and, when the run was instrumented, the hierarchical span
tree and the metric snapshot from :mod:`repro.obs`.  The document is
plain JSON so sweep dashboards and CI diff tooling can consume it
without importing the package.

Schema (``format: "repro-trace", version: 2``)::

    {
      "format": "repro-trace", "version": 2,
      "run": {"jobs": 20, "unique_solved": 5, "workers": 4,
              "mode": "process", "timeout_s": null, "retries": 1,
              "instrumented": true, "elapsed_s": 0.93},
      "cache": {"hits": 15, "misses": 5, "evictions": 0, "entries": 5},
      "stage_seconds": {"timing": ..., "max_power": ..., "min_power": ...},
      "counters": {"longest_path_runs": ..., "lp_cache_hits": ..., ...},
      "jobs": [{"position": 0, "key": "ab12...", "cached": false,
                "ok": true, "attempts": 1, "elapsed_s": 0.11,
                "error": null, "reused": false, "stage_seconds": {...},
                "counters": {...}}, ...],
      "spans": [{"name": "engine.run", "start": 0.0, "duration": 0.93,
                 "attrs": {...}, "children": [...]}, ...],
      "metrics": {"engine.cache.hits": {"type": "counter", "value": 15},
                  "engine.job.seconds": {"type": "histogram",
                                         "count": 5, "p50": ..., ...}},
      "reuse": {"policy": "identical", "range_hits": 12, "solved": 3,
                "misses": 3, "primes": 1, "inserted": 4, "deduped": 0,
                "entries": 4}
    }

The ``reuse`` section appears only when the runner held a
validity-range schedule store, and names that store's policy; per-job
``reused`` flags mark the jobs it served.  Both are additive to schema
v2 — absent in older documents, tolerated by this reader.

Version 1 documents (no ``spans`` / ``metrics`` sections, no eviction
accounting) are still accepted by :func:`read_trace` — they load with
an empty span forest and metric snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..files import check_envelope, read_json, typed, write_json

__all__ = ["JobTrace", "RunTrace", "read_trace"]

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 2

_NUMBER = (int, float)
#: JSON types of the ``run`` fields a reader formats or sums; any may
#: be absent (version 1 documents lack some) and others pass through.
_RUN_FIELDS = {"jobs": int, "unique_solved": int, "workers": int,
               "mode": str, "timeout_s": (int, float, type(None)),
               "retries": int, "instrumented": bool,
               "elapsed_s": _NUMBER}
#: JSON types of the ``cache`` counters, likewise.
_CACHE_FIELDS = {"hits": int, "misses": int, "evictions": int,
                 "entries": int}
#: JSON types of the metric-summary, span and span-event fields the
#: summarizer and the exporters read, likewise; a span or event also
#: needs a ``name``.
_METRIC_FIELDS = {"type": str, "value": _NUMBER, "count": _NUMBER,
                  "sum": _NUMBER, "min": _NUMBER, "max": _NUMBER,
                  "p50": _NUMBER, "p95": _NUMBER, "p99": _NUMBER,
                  "exemplar": dict}
_EXEMPLAR_FIELDS = {"trace_id": str, "value": _NUMBER}
_SPAN_FIELDS = {"start": _NUMBER, "duration": _NUMBER, "attrs": dict,
                "events": list, "children": list}
_EVENT_FIELDS = {"at": _NUMBER, "attrs": dict}
#: ``JobTrace`` fields of a job record: name, JSON types, default.  A
#: default of the wrong type makes the field required.
_JOB_FIELDS = (("position", int, None), ("key", str, None),
               ("cached", bool, False), ("ok", bool, True),
               ("attempts", int, 0), ("elapsed_s", _NUMBER, 0.0),
               ("error", (str, type(None)), None),
               ("stage_seconds", dict, {}), ("counters", dict, {}),
               ("reused", bool, False))


@dataclass
class JobTrace:
    """The trace record of one job."""

    position: int
    key: str
    cached: bool
    ok: bool
    attempts: int
    elapsed_s: float
    error: "str | None" = None
    stage_seconds: "dict[str, float]" = field(default_factory=dict)
    counters: "dict[str, int]" = field(default_factory=dict)
    #: Served from the validity-range schedule store (no solve ran).
    reused: bool = False

    def to_dict(self) -> "dict[str, Any]":
        return {
            "position": self.position,
            "key": self.key,
            "cached": self.cached,
            "ok": self.ok,
            "attempts": self.attempts,
            "elapsed_s": round(self.elapsed_s, 6),
            "error": self.error,
            "reused": self.reused,
            "stage_seconds": {stage: round(seconds, 6)
                              for stage, seconds
                              in self.stage_seconds.items()},
            "counters": dict(self.counters),
        }

    @classmethod
    def from_dict(cls, doc: "Mapping[str, Any]") -> "JobTrace":
        doc = typed(doc, dict, "job")
        fields = {name: typed(doc.get(name, default), types,
                              f"job {name}")
                  for name, types, default in _JOB_FIELDS}
        for name in ("stage_seconds", "counters"):
            fields[name] = {key: typed(value, _NUMBER,
                                       f"job {name}.{key}")
                            for key, value in fields[name].items()}
        return cls(**fields)


@dataclass
class RunTrace:
    """The trace of one complete batch run."""

    run: "dict[str, Any]" = field(default_factory=dict)
    cache: "dict[str, int]" = field(default_factory=dict)
    jobs: "list[JobTrace]" = field(default_factory=list)
    #: Span forest (serialized :class:`repro.obs.Span` dicts); empty
    #: when the run was not instrumented.
    spans: "list[dict[str, Any]]" = field(default_factory=list)
    #: Metric snapshot (:meth:`MetricsRegistry.snapshot` form).
    metrics: "dict[str, Any]" = field(default_factory=dict)
    #: Schedule-store summary (policy + counters); ``None`` when the
    #: run carried no store.
    reuse: "dict[str, Any] | None" = None

    def add_job(self, trace: JobTrace) -> None:
        self.jobs.append(trace)

    def aggregate_stage_seconds(self) -> "dict[str, float]":
        """Total scheduler seconds per pipeline stage across all jobs."""
        totals: "dict[str, float]" = {}
        for job in self.jobs:
            for stage, seconds in job.stage_seconds.items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return totals

    def aggregate_counters(self) -> "dict[str, int]":
        """Summed scheduler/cache counters across all jobs."""
        totals: "dict[str, int]" = {}
        for job in self.jobs:
            for name, count in job.counters.items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def to_dict(self) -> "dict[str, Any]":
        doc = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "run": dict(self.run),
            "cache": dict(self.cache),
            "stage_seconds": {stage: round(seconds, 6)
                              for stage, seconds
                              in self.aggregate_stage_seconds().items()},
            "counters": self.aggregate_counters(),
            "jobs": [job.to_dict() for job in self.jobs],
            "spans": list(self.spans),
            "metrics": dict(self.metrics),
        }
        if self.reuse is not None:
            doc["reuse"] = dict(self.reuse)
        return doc

    @classmethod
    def from_dict(cls, doc: "Mapping[str, Any]") -> "RunTrace":
        """Rebuild a trace from its JSON document (v1 or v2)."""
        check_envelope(doc, TRACE_FORMAT, TRACE_VERSION)
        sections = {name: typed(doc.get(name, kind()), kind, name)
                    for name, kind in (("run", dict), ("cache", dict),
                                       ("jobs", list), ("spans", list),
                                       ("metrics", dict))}
        reuse = typed(doc.get("reuse"), (dict, type(None)), "reuse")
        _check_fields(sections["run"], _RUN_FIELDS, "run")
        _check_fields(sections["cache"], _CACHE_FIELDS, "cache")
        for name, summary in sections["metrics"].items():
            summary = _check_fields(summary, _METRIC_FIELDS,
                                    f"metrics.{name}")
            if "exemplar" in summary:
                _check_fields(summary["exemplar"], _EXEMPLAR_FIELDS,
                              f"metrics.{name}.exemplar")
        for span in sections["spans"]:
            _check_span(span)
        jobs = [JobTrace.from_dict(job) for job in sections["jobs"]]
        return cls(run=dict(sections["run"]),
                   cache=dict(sections["cache"]), jobs=jobs,
                   spans=list(sections["spans"]),
                   metrics=dict(sections["metrics"]),
                   reuse=dict(reuse) if reuse is not None else None)

    def write(self, path: str) -> str:
        """Write the trace as pretty-printed JSON; returns ``path``.

        Missing parent directories are created.
        """
        return write_json(path, self.to_dict())


def _check_fields(doc: Any, fields: "dict[str, Any]", what: str) \
        -> "dict[str, Any]":
    """``doc`` if it is an object whose present ``fields`` have their
    JSON types, else a :class:`SerializationError`."""
    doc = typed(doc, dict, what)
    for name, types in fields.items():
        if name in doc:
            typed(doc[name], types, f"{what}.{name}")
    return doc


def _check_span(span: Any) -> None:
    """Type a serialized span, its events and its children."""
    span = _check_fields(span, _SPAN_FIELDS, "span")
    typed(span.get("name"), str, "span.name")
    for event in span.get("events", []):
        event = _check_fields(event, _EVENT_FIELDS, "span event")
        typed(event.get("name"), str, "span event.name")
    for child in span.get("children", []):
        _check_span(child)


def read_trace(path: str) -> RunTrace:
    """Read a trace JSON file (schema v1 or v2)."""
    return read_json(path, RunTrace.from_dict)
