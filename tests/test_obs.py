"""Unit tests for the instrumentation layer (repro.obs)."""

import json

import pytest

from repro import ConstraintGraph, SchedulingProblem
from repro.engine import (BatchRunner, RunnerConfig, SolveJob,
                          read_trace)
from repro.engine.trace import RunTrace
from repro.errors import ReproError
from repro.obs import (HISTOGRAM_LIMIT, OBS, Capture, MetricsRegistry,
                       Span, absorb_scheduler_stats, chrome_trace,
                       jsonl_lines, prometheus_text, quantile,
                       spans_from_doc, summarize_trace)
from repro.scheduling import SchedulerStats


@pytest.fixture(autouse=True)
def _clean_recorder():
    """Every test starts and ends with the singleton disabled+empty."""
    OBS.reset()
    yield
    OBS.reset()


def tiny_problem(p_max: float = 14.0) -> SchedulingProblem:
    g = ConstraintGraph("tiny")
    g.new_task("a", duration=5, power=8.0, resource="A")
    g.new_task("b", duration=10, power=6.0, resource="B")
    g.add_precedence("a", "b")
    return SchedulingProblem(g, p_max=p_max, p_min=10.0, baseline=1.0)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

class TestSpans:
    def test_disabled_is_noop(self):
        assert not OBS.enabled
        with OBS.span("a", key="v") as sp:
            sp.set(more=1)
            OBS.event("evt")
        assert OBS.collect() == []
        assert len(OBS.metrics) == 0

    def test_nesting_builds_a_tree(self):
        OBS.enable()
        with OBS.span("outer") as outer:
            with OBS.span("inner.1"):
                OBS.event("tick", n=1)
            with OBS.span("inner.2") as inner:
                inner.set(label="x")
        [root] = OBS.collect()
        assert root is outer
        assert [c.name for c in root.children] == ["inner.1", "inner.2"]
        assert root.children[0].events[0]["name"] == "tick"
        assert root.children[1].attrs["label"] == "x"
        assert root.end is not None
        assert all(c.start >= root.start and c.end <= root.end
                   for c in root.children)

    def test_exception_closes_span_and_marks_error(self):
        OBS.enable()
        with pytest.raises(ValueError):
            with OBS.span("will.fail"):
                raise ValueError("boom")
        [root] = OBS.collect()
        assert root.attrs["error"] == "ValueError"
        assert root.end is not None

    def test_walk_is_depth_first(self):
        root = Span("r", 0.0, 3.0)
        root.children = [Span("a", 0.0, 1.0), Span("b", 1.0, 2.0)]
        root.children[0].children = [Span("a1", 0.0, 0.5)]
        names = [(depth, sp.name) for depth, sp in root.walk()]
        assert names == [(0, "r"), (1, "a"), (2, "a1"), (1, "b")]

    def test_shift_translates_subtree_and_events(self):
        root = Span("r", 1.0, 2.0)
        root.events = [{"name": "e", "at": 1.5, "attrs": {}}]
        root.children = [Span("c", 1.2, 1.8)]
        root.shift(10.0)
        assert root.start == 11.0 and root.end == 12.0
        assert root.events[0]["at"] == 11.5
        assert root.children[0].start == 11.2

    def test_round_trip_dict(self):
        root = Span("r", 0.25, 1.5, attrs={"k": "v"})
        root.events = [{"name": "e", "at": 0.5, "attrs": {"n": 1}}]
        root.children = [Span("c", 0.3, 0.9)]
        clone = Span.from_dict(root.to_dict())
        assert clone.to_dict() == root.to_dict()

    def test_capture_isolates_and_restores(self):
        OBS.enable()
        with OBS.span("outer.before"):
            pass
        with Capture(OBS) as cap:
            with OBS.span("inside"):
                OBS.metrics.counter("inside.count").inc()
        # the capture's spans/metrics never leak into the outer session
        assert [sp.name for sp in cap.spans] == ["inside"]
        assert cap.metrics_data["counters"] == {"inside.count": 1}
        assert cap.wall0 > 0
        assert [sp.name for sp in OBS.collect()] == ["outer.before"]
        assert "inside.count" not in OBS.metrics

    def test_capture_works_when_disabled(self):
        assert not OBS.enabled
        with OBS.capture() as cap:
            assert OBS.enabled
            with OBS.span("w"):
                pass
        assert not OBS.enabled
        assert [sp.name for sp in cap.spans] == ["w"]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

class TestMetrics:
    def test_quantiles_nearest_rank(self):
        values = sorted(float(v) for v in range(1, 101))
        assert quantile(values, 0.50) == 51.0
        assert quantile(values, 0.95) == 95.0
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 100.0
        assert quantile([], 0.5) == 0.0

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        h = registry.histogram("h")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 4 and summary["sum"] == 10.0
        assert summary["min"] == 1.0 and summary["max"] == 4.0

    def test_histogram_bounds_raw_values(self):
        h = MetricsRegistry().histogram("h")
        for v in range(HISTOGRAM_LIMIT + 10):
            h.observe(float(v))
        assert h.count == HISTOGRAM_LIMIT + 10
        assert len(h.values) == HISTOGRAM_LIMIT
        assert h.maximum == float(HISTOGRAM_LIMIT + 9)

    def test_name_collision_across_kinds_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_merge_data_is_exact(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        a.histogram("h").observe(1.0)
        b.counter("c").inc(3)
        b.gauge("g").set(7.0)
        b.histogram("h").observe(2.0)
        a.merge_data(b.data())
        assert a.counter("c").value == 5
        assert a.gauge("g").value == 7.0
        assert a.histogram("h").summary()["count"] == 2
        assert a.histogram("h").summary()["sum"] == 3.0

    def test_absorb_scheduler_stats_naming(self):
        registry = MetricsRegistry()
        stats = SchedulerStats(lp_full_runs=4, timing_backtracks=2)
        stats.stage_seconds["timing"] = 0.25
        absorb_scheduler_stats(registry, stats.as_dict())
        assert registry.counter("sched.lp.full_runs").value == 4
        assert registry.counter("sched.timing.backtracks").value == 2
        assert registry.histogram("sched.stage.timing.seconds") \
            .summary()["sum"] == 0.25


class TestSchedulerStatsMerge:
    def test_stage_seconds_accumulate_across_nested_runs(self):
        total = SchedulerStats()
        for seconds in (0.5, 0.25, 0.125):
            inner = SchedulerStats(longest_path_runs=1)
            inner.stage_seconds["timing"] = seconds
            inner.stage_seconds["max_power"] = 2 * seconds
            total.merge(inner)
        assert total.longest_path_runs == 3
        assert total.stage_seconds["timing"] == pytest.approx(0.875)
        assert total.stage_seconds["max_power"] == pytest.approx(1.75)

    def test_merge_keeps_disjoint_stages(self):
        left = SchedulerStats()
        left.stage_seconds["timing"] = 1.0
        right = SchedulerStats()
        right.stage_seconds["min_power"] = 2.0
        left.merge(right)
        assert left.stage_seconds == {"timing": 1.0, "min_power": 2.0}


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------

def _sample_spans():
    """Serialized span forest, the exporters' input form."""
    root = Span("engine.run", 0.0, 2.0, attrs={"jobs": 2})
    job = Span("engine.job", 0.1, 1.0, attrs={"position": 0})
    job.events = [{"name": "tick", "at": 0.5, "attrs": {"n": 1}}]
    root.children = [job]
    return [root.to_dict()]


def _sample_metrics():
    registry = MetricsRegistry()
    registry.counter("engine.run.jobs").inc(2)
    registry.gauge("engine.cache.entries").set(2)
    registry.histogram("engine.job.seconds").observe(0.9)
    return registry.snapshot()


class TestExporters:
    def test_chrome_trace_events(self):
        doc = chrome_trace(_sample_spans(), _sample_metrics())
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in complete} == \
            {"engine.run", "engine.job"}
        assert [e["name"] for e in instants] == ["tick"]
        # microseconds, with durations attached to complete events
        run = next(e for e in complete if e["name"] == "engine.run")
        assert run["ts"] == 0 and run["dur"] == 2_000_000
        # the job span gets its own lane from its position attr
        job = next(e for e in complete if e["name"] == "engine.job")
        assert job["tid"] != run["tid"]
        assert doc["otherData"]["engine.run.jobs"] == 2

    def test_jsonl_stream(self):
        records = [json.loads(line) for line in
                   jsonl_lines(_sample_spans(), _sample_metrics())]
        spans = [r for r in records if r["type"] == "span"]
        assert [s["name"] for s in spans] == ["engine.run", "engine.job"]
        assert spans[1]["parent"] == "engine.run"
        assert spans[1]["depth"] == 1
        kinds = {r["type"] for r in records}
        assert {"counter", "gauge", "histogram", "event"} <= kinds

    def test_prometheus_text(self):
        text = prometheus_text(_sample_metrics())
        assert "# TYPE repro_engine_run_jobs counter" in text
        assert "repro_engine_run_jobs 2" in text
        assert "# TYPE repro_engine_job_seconds summary" in text
        assert 'repro_engine_job_seconds{quantile="0.50"} 0.9' in text
        assert "repro_engine_job_seconds_count 1" in text


# ----------------------------------------------------------------------
# trace schema v2
# ----------------------------------------------------------------------

class TestTraceSchemaV2:
    def _run_instrumented(self, tmp_path, workers=0):
        path = str(tmp_path / f"trace_w{workers}.json")
        runner = BatchRunner(RunnerConfig(workers=workers,
                                          instrument=True))
        jobs = [SolveJob(problem=tiny_problem(p_max=p))
                for p in (14.0, 15.0, 16.0)]
        runner.run(jobs)
        runner.last_trace.write(path)
        return path

    def test_v2_round_trip_identical_span_tree(self, tmp_path):
        path = self._run_instrumented(tmp_path)
        trace = read_trace(path)
        assert trace.to_dict()["version"] == 2
        rewritten = str(tmp_path / "rewritten.json")
        trace.write(rewritten)
        again = read_trace(rewritten)
        assert again.to_dict() == trace.to_dict()
        # the span tree survives a full decode into Span objects
        [run_doc] = spans_from_doc(trace.to_dict())
        run_span = Span.from_dict(run_doc)
        assert run_span.name == "engine.run"
        assert [c.name for c in run_span.children] == \
            ["engine.job"] * 3
        assert run_span.to_dict() == run_doc

    def test_v1_documents_still_readable(self, tmp_path):
        v1 = {
            "format": "repro-trace",
            "version": 1,
            "run": {"jobs": 1, "unique_solved": 1, "cache_hits": 0,
                    "failed": 0, "mode": "serial", "workers": 0,
                    "elapsed_s": 0.1},
            "cache": {"hits": 0, "misses": 1, "entries": 1},
            "stage_seconds": {"timing": 0.05},
            "counters": {"lp_full_runs": 3},
            "jobs": [{"position": 0, "key": "abc", "cached": False,
                      "ok": True, "attempts": 1, "elapsed_s": 0.1,
                      "stage_seconds": {"timing": 0.05},
                      "counters": {}}],
        }
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(v1))
        trace = read_trace(str(path))
        assert trace.run["jobs"] == 1
        assert trace.spans == [] and trace.metrics == {}
        assert RunTrace.from_dict(v1).jobs[0].key == "abc"
        # and the summarizer copes with the span-free document
        digest = summarize_trace(v1)
        assert "repro-trace v1" in digest

    def test_unknown_version_rejected(self):
        with pytest.raises(ReproError):
            RunTrace.from_dict({"format": "repro-trace", "version": 99})
        with pytest.raises(ReproError):
            RunTrace.from_dict({"format": "other", "version": 2})

    def test_serial_and_parallel_agree(self, tmp_path):
        serial = json.loads(open(
            self._run_instrumented(tmp_path, workers=0)).read())
        parallel = json.loads(open(
            self._run_instrumented(tmp_path, workers=2)).read())

        def tree_shape(span_doc):
            return (span_doc["name"],
                    tuple(sorted(tree_shape(c) for c in
                                 span_doc.get("children", []))))

        def job_trees(doc):
            [run] = doc["spans"]
            return sorted(tree_shape(job) for job in run["children"])

        assert job_trees(serial) == job_trees(parallel)

        def counters(doc):
            return {name: m["value"]
                    for name, m in doc["metrics"].items()
                    if m["type"] == "counter"}

        assert counters(serial) == counters(parallel)

        def histogram_counts(doc):
            return {name: m["count"]
                    for name, m in doc["metrics"].items()
                    if m["type"] == "histogram"}

        assert histogram_counts(serial) == histogram_counts(parallel)

    def test_uninstrumented_trace_has_no_spans(self, tmp_path):
        path = str(tmp_path / "plain.json")
        runner = BatchRunner(RunnerConfig())
        runner.run([SolveJob(problem=tiny_problem())])
        runner.last_trace.write(path)
        doc = json.loads(open(path).read())
        assert doc["version"] == 2
        assert doc["run"]["instrumented"] is False
        assert doc["spans"] == [] and doc["metrics"] == {}

    def test_enabled_singleton_adopts_run_span(self, tmp_path):
        OBS.enable()
        runner = BatchRunner(RunnerConfig())
        runner.run([SolveJob(problem=tiny_problem())])
        roots = OBS.collect()
        assert any(sp.name == "engine.run" for sp in roots)


# ----------------------------------------------------------------------
# reservoir sampling + sharded metrics-merge equivalence
# ----------------------------------------------------------------------

class TestReservoirHistograms:
    def test_reservoir_is_uniform_not_first_n(self):
        """Past the limit, retained samples must span the whole
        stream, not just its first HISTOGRAM_LIMIT values."""
        h = MetricsRegistry().histogram("lat")
        n = 4 * HISTOGRAM_LIMIT
        for v in range(n):
            h.observe(float(v))
        late = sum(1 for v in h.values if v >= n / 2)
        # The old first-N capture kept zero late samples; a uniform
        # reservoir keeps about half (allow a wide deterministic band).
        assert 0.3 * HISTOGRAM_LIMIT < late < 0.7 * HISTOGRAM_LIMIT
        assert h.count == n
        assert h.summary()["max"] == float(n - 1)

    def test_reservoir_deterministic_per_name(self):
        a = MetricsRegistry().histogram("x")
        b = MetricsRegistry().histogram("x")
        for v in range(3 * HISTOGRAM_LIMIT):
            a.observe(float(v))
            b.observe(float(v))
        assert a.values == b.values

    def test_exemplar_tracks_largest_value(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(1.0, trace_id="aa")
        h.observe(5.0, trace_id="bb")
        h.observe(2.0, trace_id="cc")
        assert h.summary()["exemplar"] == {"trace_id": "bb",
                                           "value": 5.0}
        text = prometheus_text({"lat": h.summary()})
        assert '# EXEMPLAR repro_lat trace_id="bb" value=5.0' in text

    def test_sharded_merge_equivalence(self):
        """Merging 3 per-shard registries == one serial registry:
        counters and histogram count/sum exactly, quantiles within
        reservoir tolerance."""
        values = [float(v) for v in range(3 * HISTOGRAM_LIMIT)]
        serial = MetricsRegistry()
        merged = MetricsRegistry()
        shards = [MetricsRegistry() for _ in range(3)]
        for i, v in enumerate(values):
            serial.counter("jobs").inc()
            serial.histogram("lat").observe(v)
            shards[i % 3].counter("jobs").inc()
            shards[i % 3].histogram("lat").observe(v)
        for shard in shards:
            merged.merge_data(shard.data())
        assert merged.counter("jobs").value \
            == serial.counter("jobs").value
        m, s = merged.histogram("lat"), serial.histogram("lat")
        assert m.summary()["count"] == s.summary()["count"]
        assert m.summary()["sum"] == pytest.approx(
            s.summary()["sum"])
        assert m.summary()["min"] == s.summary()["min"]
        assert m.summary()["max"] == s.summary()["max"]
        spread = max(values) - min(values)
        for q in ("p50", "p95", "p99"):
            assert abs(m.summary()[q] - s.summary()[q]) \
                <= 0.1 * spread, (q, m.summary()[q], s.summary()[q])

    def test_legacy_list_form_still_merges(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(1.0)
        registry.merge_data({"histograms": {"h": [2.0, 3.0]}})
        summary = registry.histogram("h").summary()
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(6.0)
