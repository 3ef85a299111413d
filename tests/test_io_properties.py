"""Property-based tests for the persistence layer.

Contracts: (1) problem -> dict -> problem is a fixpoint (the second
dict equals the first); (2) the DSL parser never crashes with anything
but :class:`SerializationError` on malformed text; (3) a problem
rendered *to* DSL and parsed back round-trips (we generate the DSL from
the problem, so this also pins the documented syntax); (4) shard
manifests round-trip over random plans, and a manifest or artifact
with any one field replaced by arbitrary JSON either loads or raises a
:class:`ReproError` (a typed :class:`SerializationError`, or the
problem model's own error for a value such as a NaN ``p_max``); (5) so
does every other document the tool reads, a trace whose ``run`` or job
fields are replaced either summarizes or raises one, a trace whose
metric entries, spans or span fields are replaced either summarizes
and exports or raises one, and a file that cannot be read or decoded
is a :class:`SerializationError` naming its path.
"""

from __future__ import annotations

import functools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SchedulingProblem, SerializationError, schedule
from repro.engine import (PARTITION_STRATEGIES, BatchRunner,
                          RunnerConfig, ScheduleStore, SweepSpec,
                          plan_shards, read_trace)
from repro.engine.backends.shards import run_manifest
from repro.engine.trace import RunTrace
from repro.errors import ReproError
from repro.examples_data import fig1_problem
from repro.io import (load_problem, load_problem_dsl, load_schedule,
                      parse_problem, problem_from_dict, problem_to_dict,
                      schedule_from_dict, schedule_to_dict)
from repro.io.shards import (artifact_from_dict, artifact_to_dict,
                             load_artifact, load_manifest,
                             manifest_from_dict, manifest_to_dict)
from repro.obs import (chrome_trace, jsonl_lines, metrics_from_doc,
                       prometheus_text, spans_from_doc, summarize_trace)
from repro.online import load_script, script_from_problem
from repro.online.script import SessionScript
from repro.scheduling import SchedulerOptions
from tests.test_properties import precedence_problems

# ----------------------------------------------------------------------
# JSON fixpoint
# ----------------------------------------------------------------------


class TestJsonFixpoint:
    @given(precedence_problems())
    @settings(max_examples=40, deadline=None)
    def test_dict_round_trip_is_fixpoint(self, problem):
        first = problem_to_dict(problem)
        rebuilt = problem_from_dict(first)
        second = problem_to_dict(rebuilt)
        assert first == second

    @given(precedence_problems())
    @settings(max_examples=20, deadline=None)
    def test_rebuilt_problem_is_equivalent(self, problem):
        rebuilt = problem_from_dict(problem_to_dict(problem))
        assert rebuilt.p_max == problem.p_max
        assert rebuilt.graph.task_names() == problem.graph.task_names()
        for task in problem.graph.tasks():
            clone = rebuilt.graph.task(task.name)
            assert (clone.duration, clone.power, clone.resource) \
                == (task.duration, task.power, task.resource)


# ----------------------------------------------------------------------
# DSL robustness and round-trip
# ----------------------------------------------------------------------

def problem_to_dsl(problem: SchedulingProblem) -> str:
    """Render a (precedence-style) problem in the documented DSL."""
    lines = [f"problem {problem.name or 'p'} pmax {problem.p_max} "
             f"pmin {problem.p_min} baseline {problem.baseline}"]
    for task in problem.graph.tasks():
        resource = task.resource or "none"
        lines.append(f"task {task.name} {resource} {task.duration} "
                     f"{task.power}")
    for edge in problem.graph.edges():
        if edge.weight >= 0:
            lines.append(f"min {edge.src} {edge.dst} {edge.weight}")
        else:
            lines.append(f"max {edge.dst} {edge.src} {-edge.weight}")
    return "\n".join(lines)


class TestDslRoundTrip:
    @given(precedence_problems())
    @settings(max_examples=30, deadline=None)
    def test_render_parse_round_trip(self, problem):
        text = problem_to_dsl(problem)
        parsed = parse_problem(text)
        assert parsed.p_max == pytest.approx(problem.p_max)
        assert parsed.graph.task_names() == problem.graph.task_names()
        assert sorted((e.src, e.dst, e.weight)
                      for e in parsed.graph.edges()) \
            == sorted((e.src, e.dst, e.weight)
                      for e in problem.graph.edges())


junk_lines = st.lists(
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=40),
    max_size=8)


class TestDslRobustness:
    @given(junk_lines)
    @settings(max_examples=80, deadline=None)
    def test_garbage_never_crashes(self, lines):
        """Arbitrary printable garbage either parses or raises the
        library's own SerializationError — never anything else."""
        text = "\n".join(lines)
        try:
            parse_problem(text)
        except SerializationError:
            pass

    @given(st.integers(min_value=0, max_value=6), junk_lines)
    @settings(max_examples=60, deadline=None)
    def test_garbage_after_valid_header(self, n_tasks, lines):
        head = ["problem fuzz pmax 50"]
        head += [f"task t{i} R{i % 2} {i + 1} 1.0"
                 for i in range(n_tasks)]
        text = "\n".join(head + lines)
        try:
            parse_problem(text)
        except SerializationError:
            pass


# ----------------------------------------------------------------------
# shard manifests and artifacts
# ----------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)


@functools.lru_cache(maxsize=None)
def _valid_manifest_json() -> str:
    """A manifest using every section: a primed store, default and
    per-job options, runner knobs with a trace context."""
    store = ScheduleStore()
    jobs = SweepSpec.grid(fig1_problem(), [10, 14], [2, 4],
                          options=SchedulerOptions(seed=2001)).jobs()
    store.ensure_primed(jobs[0].problem, jobs[0].options)
    jobs[-1] = type(jobs[-1])(problem=jobs[-1].problem,
                              options=SchedulerOptions(seed=7))
    runner = {"retries": 1, "reuse_schedules": True,
              "reuse_policy": "identical", "instrument": True,
              "trace": {"trace_id": "ab" * 16,
                        "parent_span_id": "cd" * 8}}
    [manifest] = plan_shards(jobs, 1, runner=runner,
                             store=store.to_dict())
    return json.dumps(manifest_to_dict(manifest))


@functools.lru_cache(maxsize=None)
def _valid_artifact_json() -> str:
    manifest = manifest_from_dict(json.loads(_valid_manifest_json()))
    manifest.jobs = manifest.jobs[:2]
    return json.dumps(artifact_to_dict(run_manifest(manifest)))


def _loads_or_raises_typed(load, doc) -> None:
    try:
        load(doc)
    except ReproError:
        pass


class TestShardFormats:
    @given(problem=precedence_problems(),
           budgets=st.lists(st.integers(1, 40), min_size=1, max_size=3),
           levels=st.lists(st.integers(0, 20), min_size=1, max_size=3),
           shards=st.integers(1, 4),
           strategy=st.sampled_from(PARTITION_STRATEGIES),
           reseed=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_manifests_round_trip_over_random_plans(
            self, problem, budgets, levels, shards, strategy, reseed):
        jobs = SweepSpec.grid(problem, budgets, levels,
                              options=SchedulerOptions(seed=1)).jobs()
        if reseed:
            jobs[0] = type(jobs[0])(problem=jobs[0].problem,
                                    options=SchedulerOptions(seed=2))
        plan = plan_shards(jobs, shards, strategy,
                           runner={"retries": 0, "instrument": True})
        for manifest in plan:
            doc = manifest_to_dict(manifest)
            loaded = manifest_from_dict(json.loads(json.dumps(doc)))
            assert manifest_to_dict(loaded) == doc
            assert [(position, job.key())
                    for position, job in loaded.jobs] == \
                [(position, job.key())
                 for position, job in manifest.jobs]

    @given(data=st.data(), value=json_values)
    @settings(max_examples=150, deadline=None)
    def test_manifest_field_replaced_by_any_json(self, data, value):
        doc = json.loads(_valid_manifest_json())
        doc[data.draw(st.sampled_from(sorted(doc)))] = value
        _loads_or_raises_typed(manifest_from_dict, doc)

    @given(data=st.data(), value=json_values)
    @settings(max_examples=100, deadline=None)
    def test_artifact_field_replaced_by_any_json(self, data, value):
        doc = json.loads(_valid_artifact_json())
        doc[data.draw(st.sampled_from(sorted(doc)))] = value
        _loads_or_raises_typed(artifact_from_dict, doc)

    @pytest.mark.parametrize("field, value", [
        ("shard", []), ("sweep", []), ("shard", {"index": "x"}),
        ("runner", [1]), ("runner", {"retries": "x"}),
        ("runner", {"reuse_policy": "nearest"}),
        ("runner", {"trace": "x"}), ("store", "x"),
        ("store", {"format": "other"}), ("kind", ["sweep_point"]),
        ("options", "ab"), ("job-position", "x")])
    def test_malformed_manifest_is_a_serialization_error(self, field,
                                                         value):
        doc = json.loads(_valid_manifest_json())
        if field == "job-position":
            doc["jobs"][0]["position"] = value
        else:
            doc[field] = value
        with pytest.raises(SerializationError):
            manifest_from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("shard", []), ("shard", {"index": 2, "of": 2}), ("run", [1]),
        ("run", {"elapsed_s": "x"}), ("results", {}),
        ("result-position", "x"), ("result-ok", "yes")])
    def test_malformed_artifact_is_a_serialization_error(self, field,
                                                         value):
        doc = json.loads(_valid_artifact_json())
        if field.startswith("result-"):
            doc["results"][0][field.split("-")[1]] = value
        else:
            doc[field] = value
        with pytest.raises(SerializationError):
            artifact_from_dict(doc)

    def test_shard_run_reports_a_malformed_manifest(self, tmp_path,
                                                    capsys):
        from repro.cli import main

        doc = json.loads(_valid_manifest_json())
        doc["store"] = "x"
        path = tmp_path / "shard_0.json"
        path.write_text(json.dumps(doc))
        assert main(["shard", "run", str(path), "--artifact",
                     str(tmp_path / "a0.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


# ----------------------------------------------------------------------
# every other document, and the files they live in
# ----------------------------------------------------------------------

FIG1 = fig1_problem()


@functools.lru_cache(maxsize=None)
def _valid_document_json(kind: str) -> str:
    """A valid document of each kind, using its optional sections."""
    if kind == "problem":
        doc = problem_to_dict(FIG1)
        doc["resources"] = [{"name": "R", "idle_power": 0.5,
                             "kind": "generic"}]
    elif kind == "schedule":
        doc = schedule_to_dict(schedule(FIG1).schedule)
    elif kind == "store":
        store = ScheduleStore()
        store.ensure_primed(FIG1, SchedulerOptions(seed=2001))
        doc = store.to_dict()
    elif kind == "trace":
        runner = BatchRunner(RunnerConfig(instrument=True),
                             store=ScheduleStore())
        runner.run(SweepSpec.grid(FIG1, [10, 20], [2]).jobs())
        doc = runner.last_trace.to_dict()
    else:
        doc = script_from_problem(FIG1).to_dict()
    return json.dumps(doc)


#: How each document kind is rebuilt from its parsed JSON.
DOCUMENT_LOADERS = {
    "problem": problem_from_dict,
    "schedule": lambda doc: schedule_from_dict(doc, FIG1.graph),
    "store": ScheduleStore.from_dict,
    "trace": RunTrace.from_dict,
    "script": SessionScript.from_dict,
}


@functools.lru_cache(maxsize=None)
def _reuse_artifact_json() -> str:
    """A one-shard artifact of the Fig. 1 grid run with a schedule
    store and no primed one: its first result's reuse marker carries a
    new store entry, and later ones count dedups."""
    jobs = SweepSpec.grid(FIG1, [20, 25], [5, 10]).jobs()
    [manifest] = plan_shards(jobs, 1, runner={"reuse_schedules": True})
    return json.dumps(artifact_to_dict(run_manifest(manifest)))


def _merge_artifact(doc) -> None:
    """What ``shard merge`` does with one parsed artifact document."""
    from repro.engine.merge import merge_artifacts

    merge_artifacts([artifact_from_dict(doc)])


def _summarize_trace(doc) -> str:
    """What ``trace summarize`` does with a parsed trace document."""
    return summarize_trace(RunTrace.from_dict(doc).to_dict())


def _summarize_and_export_trace(doc) -> None:
    """What ``trace summarize`` and ``trace export --format
    chrome|prom|jsonl`` do with a parsed trace document."""
    trace = RunTrace.from_dict(doc).to_dict()
    summarize_trace(trace)
    spans, metrics = spans_from_doc(trace), metrics_from_doc(trace)
    json.dumps(chrome_trace(spans, metrics))
    prometheus_text(metrics)
    list(jsonl_lines(spans, metrics))


class TestDocumentFormats:
    @pytest.mark.parametrize("kind", sorted(DOCUMENT_LOADERS))
    def test_valid_document_loads(self, kind):
        DOCUMENT_LOADERS[kind](json.loads(_valid_document_json(kind)))

    @pytest.mark.parametrize("kind", sorted(DOCUMENT_LOADERS))
    @given(data=st.data(), value=json_values)
    @settings(max_examples=80, deadline=None)
    def test_field_replaced_by_any_json(self, kind, data, value):
        doc = json.loads(_valid_document_json(kind))
        doc[data.draw(st.sampled_from(sorted(doc)))] = value
        _loads_or_raises_typed(DOCUMENT_LOADERS[kind], doc)

    @pytest.mark.parametrize("section", ["run", "job"])
    @given(data=st.data(), value=json_values)
    @settings(max_examples=80, deadline=None)
    def test_trace_run_or_job_field_replaced_by_any_json(
            self, section, data, value):
        doc = json.loads(_valid_document_json("trace"))
        fields = doc["run"] if section == "run" else doc["jobs"][0]
        fields[data.draw(st.sampled_from(sorted(fields)))] = value
        _loads_or_raises_typed(_summarize_trace, doc)

    @pytest.mark.parametrize("target", ["metric", "metric-field",
                                        "span", "span-field",
                                        "child-field", "event-field"])
    @given(data=st.data(), value=json_values)
    @settings(max_examples=60, deadline=None)
    def test_trace_metric_or_span_replaced_by_any_json(
            self, target, data, value):
        doc = json.loads(_valid_document_json("trace"))
        metrics, span = doc["metrics"], doc["spans"][0]
        event = {"name": "mark", "at": 0.0, "attrs": {"k": 1}}
        span.setdefault("events", []).append(event)
        name = data.draw(st.sampled_from(sorted(metrics)))
        if target == "metric":
            metrics[name] = value
        elif target == "span":
            doc["spans"][0] = value
        else:
            fields = {"metric-field": metrics[name], "span-field": span,
                      "child-field": span["children"][0],
                      "event-field": event}[target]
            names = set(fields) | {"name", "type", "value", "exemplar",
                                   "start", "duration", "attrs",
                                   "events", "children", "at"}
            fields[data.draw(st.sampled_from(sorted(names)))] = value
        _loads_or_raises_typed(_summarize_and_export_trace, doc)

    @pytest.mark.parametrize("target", ["marker", "hit", "deduped",
                                        "new_entries", "new-entry",
                                        "base_key", "name", "entry"])
    @given(value=json_values)
    @settings(max_examples=60, deadline=None)
    def test_reuse_marker_replaced_by_any_json(self, target, value):
        doc = json.loads(_reuse_artifact_json())
        stats = doc["results"][0]["stats"]
        marker = stats["reuse"]
        assert marker["new_entries"] and doc["results"][1]["stats"][
            "reuse"]["deduped"]
        if target == "marker":
            stats["reuse"] = value
        elif target == "new-entry":
            marker["new_entries"][0] = value
        elif target in ("base_key", "name", "entry"):
            marker["new_entries"][0][target] = value
        else:
            marker[target] = value
        _loads_or_raises_typed(_merge_artifact, doc)

    @pytest.mark.parametrize("reader", [
        load_problem, load_problem_dsl, ScheduleStore.read, read_trace,
        load_script, load_manifest, load_artifact,
        lambda path: load_schedule(path, FIG1.graph)],
        ids=["problem", "dsl", "store", "trace", "script", "manifest",
             "artifact", "schedule"])
    @pytest.mark.parametrize("case", ["missing", "directory",
                                      "not-utf8", "not-json"])
    def test_unreadable_file_names_its_path(self, reader, case,
                                            tmp_path):
        path = tmp_path / "doc.json"
        if case == "directory":
            path.mkdir()
        elif case == "not-utf8":
            path.write_bytes(b"\xff\xfe{}")
        elif case == "not-json":
            path.write_text("{not json")
        with pytest.raises(SerializationError,
                           match=re.escape(str(path))):
            reader(str(path))

