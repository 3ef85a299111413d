"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench -q``.
They drive tiny runs (one pass per workload) through the same code the
benchmark command uses.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Per-layer metrics that must be non-zero on each workload's traced run.
EXERCISED = {
    "sweep-grid28": {
        "sched.timing.ms", "sched.timing.calls", "sched.maxp.spikes.ms",
        "sched.maxp.serial.ms", "sched.maxp.serial.share",
        "sched.maxp.serial.attempts", "sched.minp.ms", "core.lp.ms",
        "core.lp.calls", "core.lp.full_runs", "core.lp.incremental_runs",
        "core.lp.cache_hits", "engine.run.overhead_ms", "engine.key.ms",
        "engine.cache.lookups", "layer.core.self_ms",
        "layer.scheduling.self_ms", "layer.engine.self_ms", "trace.ops",
        "trace.op_ms.sum"},
    "serve-small": {
        "sched.timing.ms", "sched.maxp.serial.ms", "sched.minp.ms",
        "core.lp.ms", "engine.run.overhead_ms", "engine.key.ms",
        "engine.cache.hit_ratio", "engine.cache.lookups",
        "io.request.encode_ms", "io.request.decode_ms",
        "serving.overhead_ms", "layer.io.self_ms", "layer.serving.self_ms",
        "trace.ops"},
    "session-rover": {
        "sched.timing.ms", "sched.maxp.spikes.ms", "sched.minp.ms",
        "core.lp.ms", "online.solve.ms", "online.overhead_ms",
        "online.admit_ratio", "online.arrivals", "layer.online.self_ms",
        "trace.ops"},
}


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
        == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] \
        == list(bench.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_untraced_run_prints_every_end_to_end_metric(capsys, monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    assert bench.main(["--workload", "serve-small", "--seed", "3",
                       "--seconds", "0"]) == 0
    doc = _last_json(capsys)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0
    assert {name: m["unit"] for name, m in doc["metrics"].items()} \
        == dict(bench.END_TO_END)
    assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_run_emits_its_layer_metrics(workload, capsys):
    before = tracer.originals()
    assert bench.main(["--workload", workload, "--seed", "5",
                       "--seconds", "0", "--trace", "1"]) == 0
    doc = _last_json(capsys)
    assert doc["correct"], doc
    assert set(doc["metrics"]) == {name for name, _ in bench.PER_LAYER}
    silent = {name for name in EXERCISED[workload]
              if not doc["metrics"][name]["value"] > 0}
    assert not silent, f"{workload} did not exercise {sorted(silent)}"
    assert tracer.originals() == before


def test_wrappers_restore_originals_even_on_error():
    before = tracer.originals()
    with pytest.raises(RuntimeError):
        with tracer.installed(tracer.Tracer()):
            assert tracer.originals() != before
            raise RuntimeError("boom")
    assert tracer.originals() == before


def test_self_time_excludes_children_once():
    spans = [(1, "online.apply", 0.0, 10.0, None, 0, None),
             (2, "sched.solve", 1.0, 6.0, 1, 0, None),
             (3, "core.lp", 2.0, 3.0, 2, 0, None),
             (4, "engine.run", 5.0, 12.0, 1, 0, None)]
    table = tracer.SpanTable(spans)
    # 1..6 and 5..12 overlap; only 0..1 of the root is uncovered
    assert table.self_time[1] == pytest.approx(1.0)
    assert table.self_time[2] == pytest.approx(4.0)
    assert table.layer_self()["online"] == pytest.approx(1.0)
    assert table.total("core.lp", under="sched.solve") == pytest.approx(1.0)
    doubled = tracer.SpanTable(spans, scale={0: 2.0})
    assert doubled.length(spans[0]) == pytest.approx(20.0)
    assert doubled.layer_self()["online"] == pytest.approx(2.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_answers_are_identical(name):
    answers = []
    for traced in (False, True):
        workload = WORKLOADS[name](7)
        try:
            workload.setup()
            records, _ = bench.measure(
                workload, 0, tracer.Tracer() if traced else None)
        finally:
            workload.close()
        assert any(r.traced for r in records) == traced
        assert all(r.error is None for r in records)
        answers.append([(r.op, r.answer) for r in records])
    assert answers[0] == answers[1]
