"""Human-readable digests of ``repro-trace`` documents.

``repro-schedule trace summarize PATH`` renders one of these: the run
overview, the top-N slowest jobs and pipeline stages, how effective the
result cache was, and the histogram metrics as a quantile table.
Accepts both trace schema versions (v1 documents simply have no span
tree or metric snapshot to report).
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["summarize_trace"]


def _cache_lines(cache: "Mapping[str, Any]") -> "list[str]":
    hits = cache.get("hits", 0)
    misses = cache.get("misses", 0)
    total = hits + misses
    rate = (100.0 * hits / total) if total else 0.0
    line = (f"cache: {hits} hits / {misses} misses "
            f"({rate:.1f}% hit rate)")
    if "evictions" in cache:
        line += f", {cache['evictions']} evictions"
    if "entries" in cache:
        line += f", {cache['entries']} entries"
    return [line]


def _span_count(spans: "list[dict]") -> int:
    count = 0
    stack = list(spans)
    while stack:
        span = stack.pop()
        count += 1
        stack.extend(span.get("children", []))
    return count


def summarize_trace(doc: "Mapping[str, Any]", top: int = 5) -> str:
    """The full text digest of one trace document."""
    # Imported lazily: repro.analysis transitively imports the
    # schedulers, which import repro.obs — a module-level import here
    # would close that cycle during package initialization.
    from ..analysis.report import format_table
    out: "list[str]" = []
    run = doc.get("run", {})
    version = doc.get("version", "?")
    out.append(
        f"== repro-trace v{version}: {run.get('jobs', 0)} jobs, "
        f"{run.get('unique_solved', 0)} solved, "
        f"mode={run.get('mode', '?')}, "
        f"{run.get('elapsed_s', 0.0):g}s ==")
    out.extend(_cache_lines(doc.get("cache", {})))

    stage_seconds = doc.get("stage_seconds", {})
    if stage_seconds:
        ranked = sorted(stage_seconds.items(), key=lambda kv: -kv[1])
        rows = [{"stage": stage, "total_s": seconds}
                for stage, seconds in ranked[:top]]
        out.append("")
        out.append(format_table(rows, title="-- slowest stages --"))

    jobs = [job for job in doc.get("jobs", []) if not job.get("cached")]
    if jobs:
        jobs.sort(key=lambda job: -job.get("elapsed_s", 0.0))
        rows = []
        for job in jobs[:top]:
            stages = job.get("stage_seconds", {})
            hot = max(stages, key=stages.get) if stages else "-"
            rows.append({
                "position": job.get("position"),
                "key": str(job.get("key", ""))[:12],
                "elapsed_s": job.get("elapsed_s", 0.0),
                "ok": job.get("ok", True),
                "hottest_stage": hot,
            })
        out.append("")
        out.append(format_table(rows, title="-- slowest jobs --"))

    metrics = doc.get("metrics", {})
    histograms = {name: summary for name, summary in metrics.items()
                  if summary.get("type") == "histogram"}
    if histograms:
        rows = [{"metric": name, "count": summary.get("count", 0),
                 "p50": summary.get("p50", 0.0),
                 "p95": summary.get("p95", 0.0),
                 "p99": summary.get("p99", 0.0),
                 "max": summary.get("max", 0.0)}
                for name, summary in sorted(histograms.items())]
        out.append("")
        out.append(format_table(rows, title="-- histograms --"))
    counters = {name: summary.get("value", 0)
                for name, summary in metrics.items()
                if summary.get("type") == "counter"}
    if counters:
        rows = [{"metric": name, "value": value}
                for name, value in sorted(counters.items())]
        out.append("")
        out.append(format_table(rows, title="-- counters --"))

    spans = doc.get("spans", [])
    if spans:
        out.append("")
        out.append(f"spans: {_span_count(spans)} recorded "
                   f"({len(spans)} root(s))")
    return "\n".join(out)
