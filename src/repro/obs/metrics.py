"""Metrics registry: counters, gauges, and quantile histograms.

One flat, dot-separated namespace covers every layer::

    engine.run.*      batch-runner bookkeeping (jobs, modes, seconds)
    engine.cache.*    result-cache behaviour (hits/misses/evictions)
    engine.job.*      per-job distributions (histograms)
    sched.stage.*     pipeline stage wall-clock (timing/max_power/...)
    sched.timing.*    Fig. 3 scheduler counters
    sched.maxp.*      Fig. 4 scheduler counters
    sched.minp.*      Fig. 6 scheduler counters
    sched.lp.*        longest-path solver cache behaviour
    sched.build.*     schedules and power profiles built per solve
    exec.*            tick-executor events and violations
    mission.*         mission-simulator iterations
    obs.*             the instrumentation layer's own accounting

The registry absorbs the pre-existing ad-hoc telemetry —
:class:`~repro.scheduling.base.SchedulerStats` counters via
:data:`STATS_METRIC_NAMES` / :func:`absorb_scheduler_stats`, and
:class:`~repro.engine.cache.ResultCache` counters via
:func:`absorb_cache_stats` — behind these stable names, so traces and
exporters never depend on dataclass field spellings.

Histograms keep a bounded *reservoir* of raw observations
(:data:`HISTOGRAM_LIMIT` per metric, Algorithm R seeded by the metric
name so runs are reproducible and no global :mod:`random` state is
touched) alongside exact ``count``/``sum``/``min``/``max`` totals.
Cross-process merging folds the exact totals directly and refills the
reservoir from the shipped samples: a worker ships
``registry.data()`` and the parent ``merge_data``-s it, so serial and
sharded runs of the same batch report identical counts and sums, with
quantiles estimated over an unbiased sample of the whole run rather
than its first :data:`HISTOGRAM_LIMIT` observations.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Mapping

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "STATS_METRIC_NAMES", "absorb_scheduler_stats",
           "absorb_cache_stats", "absorb_store_stats", "quantile"]

#: Raw observations kept per histogram; beyond this the histogram keeps
#: exact count/sum/min/max and quantiles become estimates over a
#: uniform reservoir sample of every observation so far.
HISTOGRAM_LIMIT = 8192

#: SchedulerStats field -> metric name (the stable naming scheme).
STATS_METRIC_NAMES: "dict[str, str]" = {
    "timing_backtracks": "sched.timing.backtracks",
    "serializations": "sched.timing.serializations",
    "longest_path_runs": "sched.lp.runs",
    "spikes_removed": "sched.maxp.spikes_removed",
    "delays_applied": "sched.maxp.delays_applied",
    "spike_attempts": "sched.maxp.spike_attempts",
    "spike_budget_exhausted": "sched.maxp.spike_budget_exhausted",
    "gap_fill_moves": "sched.minp.gap_fill_moves",
    "gap_fill_rejected": "sched.minp.gap_fill_rejected",
    "scans": "sched.minp.scans",
    "lp_cache_hits": "sched.lp.cache_hits",
    "lp_incremental_runs": "sched.lp.incremental_runs",
    "lp_full_runs": "sched.lp.full_runs",
    "lp_probe_prunes": "core.kernel.probe_prunes",
    "schedules_built": "sched.build.schedules",
    "profiles_built": "sched.build.profiles",
}


def quantile(sorted_values: "list[float]", q: float) -> float:
    """Nearest-rank quantile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    index = max(0, min(len(sorted_values) - 1,
                       round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


class Counter:
    """Monotonically-increasing integer count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def summary(self) -> "dict[str, Any]":
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value (cache size, queue depth, ...)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def summary(self) -> "dict[str, Any]":
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Distribution with exact count/sum and p50/p95/p99 quantiles.

    Quantiles are computed over a uniform reservoir sample (Vitter's
    Algorithm R) of every observation, not the first
    :data:`HISTOGRAM_LIMIT` values, so long-run percentiles are not
    biased toward warm-up traffic.  The reservoir's RNG is seeded from
    the metric name: deterministic across runs, and the global
    :mod:`random` state is never touched.  The largest observation that
    arrived with a trace id is kept as an exemplar for the Prometheus
    exporter.
    """

    __slots__ = ("name", "values", "count", "total", "minimum",
                 "maximum", "exemplar", "_rng", "_seen")
    kind = "histogram"

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.values: "list[float]" = []
        self.count = 0
        self.total = 0.0
        self.minimum: "float | None" = None
        self.maximum: "float | None" = None
        self.exemplar: "dict[str, Any] | None" = None
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))
        # Reservoir stream length: how many values _reservoir_add has
        # seen.  Kept separate from ``count`` because merge_data folds
        # remote counts without feeding every remote value through the
        # reservoir.
        self._seen = 0

    def observe(self, value: float,
                trace_id: "str | None" = None) -> None:
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None \
            else min(self.minimum, value)
        self.maximum = value if self.maximum is None \
            else max(self.maximum, value)
        self._reservoir_add(value)
        if trace_id is not None and (
                self.exemplar is None
                or value >= self.exemplar["value"]):
            self.exemplar = {"trace_id": trace_id, "value": value}

    def _reservoir_add(self, value: float) -> None:
        self._seen += 1
        if len(self.values) < HISTOGRAM_LIMIT:
            self.values.append(value)
        else:
            slot = self._rng.randrange(self._seen)
            if slot < HISTOGRAM_LIMIT:
                self.values[slot] = value

    def summary(self) -> "dict[str, Any]":
        ordered = sorted(self.values)
        doc = {
            "type": "histogram",
            "count": self.count,
            "sum": round(self.total, 6),
            "min": round(self.minimum or 0.0, 6),
            "max": round(self.maximum or 0.0, 6),
            "p50": round(quantile(ordered, 0.50), 6),
            "p95": round(quantile(ordered, 0.95), 6),
            "p99": round(quantile(ordered, 0.99), 6),
        }
        if self.exemplar is not None:
            doc["exemplar"] = dict(self.exemplar)
        return doc


class MetricsRegistry:
    """Named metrics, created on first touch."""

    def __init__(self) -> None:
        self._metrics: "dict[str, Counter | Gauge | Histogram]" = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = (
                cls(name) if cls is Histogram else cls())
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a "
                f"{cls.kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> "dict[str, dict[str, Any]]":
        """Export view: ``{name: {"type": ..., ...summary...}}``."""
        return {name: metric.summary()
                for name, metric in sorted(self._metrics.items())}

    def data(self) -> "dict[str, Any]":
        """Exact view for cross-process shipping — consumed by
        :meth:`merge_data`.  Histograms ship their true
        ``count``/``sum``/``min``/``max`` totals plus the reservoir
        samples, so folding stays exact even past
        :data:`HISTOGRAM_LIMIT`."""
        doc: "dict[str, Any]" = {"counters": {}, "gauges": {},
                                 "histograms": {}}
        for name, metric in self._metrics.items():
            if isinstance(metric, Counter):
                doc["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                doc["gauges"][name] = metric.value
            else:
                entry: "dict[str, Any]" = {
                    "samples": list(metric.values),
                    "count": metric.count,
                    "sum": metric.total,
                    "min": metric.minimum,
                    "max": metric.maximum,
                }
                if metric.exemplar is not None:
                    entry["exemplar"] = dict(metric.exemplar)
                doc["histograms"][name] = entry
        return doc

    def merge_data(self, doc: "Mapping[str, Any]") -> None:
        """Fold another registry's :meth:`data` into this one:
        counters add, gauges overwrite, histograms fold their exact
        totals and feed their samples through the reservoir.  A plain
        list (the pre-reservoir wire shape) is still accepted and
        re-observed value by value."""
        for name, value in doc.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in doc.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, entry in doc.get("histograms", {}).items():
            histogram = self.histogram(name)
            if isinstance(entry, Mapping):
                histogram.count += int(entry.get("count", 0))
                histogram.total += float(entry.get("sum", 0.0))
                for bound, pick in (("min", min), ("max", max)):
                    incoming = entry.get(bound)
                    if incoming is None:
                        continue
                    current = getattr(histogram,
                                      "minimum" if bound == "min"
                                      else "maximum")
                    setattr(histogram,
                            "minimum" if bound == "min" else "maximum",
                            incoming if current is None
                            else pick(current, incoming))
                for value in entry.get("samples", []):
                    histogram._reservoir_add(value)
                exemplar = entry.get("exemplar")
                if exemplar is not None and (
                        histogram.exemplar is None
                        or exemplar["value"]
                        >= histogram.exemplar["value"]):
                    histogram.exemplar = dict(exemplar)
            else:
                for value in entry:
                    histogram.observe(value)


# ----------------------------------------------------------------------
# absorption of the pre-existing ad-hoc telemetry
# ----------------------------------------------------------------------

def absorb_scheduler_stats(registry: MetricsRegistry,
                           stats: "Mapping[str, Any]") -> None:
    """Fold one job's ``SchedulerStats.as_dict()`` payload in.

    ``stats`` is ``{"counters": {...}, "stage_seconds": {...}}``;
    counters land under the :data:`STATS_METRIC_NAMES` scheme and each
    stage's wall clock is observed in ``sched.stage.<stage>.seconds``.
    """
    for field_name, count in stats.get("counters", {}).items():
        metric_name = STATS_METRIC_NAMES.get(field_name)
        if metric_name is not None and count:
            registry.counter(metric_name).inc(count)
    for stage, seconds in stats.get("stage_seconds", {}).items():
        registry.histogram(f"sched.stage.{stage}.seconds") \
            .observe(seconds)


def absorb_cache_stats(registry: MetricsRegistry,
                       before: "Mapping[str, int]",
                       after: "Mapping[str, int]") -> None:
    """Fold a :class:`~repro.engine.cache.ResultCache` stats delta in.

    ``before``/``after`` are two ``cache.stats()`` snapshots; the
    monotone counters contribute their increase, ``entries`` sets the
    ``engine.cache.entries`` gauge.
    """
    for key in ("hits", "misses", "evictions"):
        delta = after.get(key, 0) - before.get(key, 0)
        if delta:
            registry.counter(f"engine.cache.{key}").inc(delta)
    registry.gauge("engine.cache.entries").set(after.get("entries", 0))


def absorb_store_stats(registry: MetricsRegistry,
                       before: "Mapping[str, int]",
                       after: "Mapping[str, int]") -> None:
    """Fold a schedule-store counters delta into the registry.

    ``before``/``after`` are two
    :meth:`~repro.engine.schedule_store.ScheduleStore.counters`
    snapshots; the monotone counters (range hits, misses, priming
    solves, insertions, dedups) contribute their increase under
    ``engine.store.*`` and ``entries`` sets the ``engine.store.entries``
    gauge — the same before/after discipline as
    :func:`absorb_cache_stats`, so a store shared across runs never
    double-reports.
    """
    for key in ("range_hits", "misses", "primes", "inserted",
                "deduped"):
        delta = after.get(key, 0) - before.get(key, 0)
        if delta:
            registry.counter(f"engine.store.{key}").inc(delta)
    # A RemoteScheduleStore (shared store service client) extends the
    # counter dict with its remote-protocol tallies; fold any that are
    # present under ``store.*`` so a serve instance's /metrics shows
    # its share of the shared store's traffic.
    for key in ("remote_hits", "remote_misses", "pushed", "pulled",
                "sync_errors"):
        delta = after.get(key, 0) - before.get(key, 0)
        if delta:
            registry.counter(f"store.{key}").inc(delta)
    registry.gauge("engine.store.entries").set(after.get("entries", 0))
