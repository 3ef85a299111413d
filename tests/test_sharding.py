"""Differential tests for sharded execution (plan → execute → merge).

The headline property: **shard-count invariance**.  A sweep split over
1, 2, or 4 subprocess shards — or over running solve servers — and
merged back must be bit-for-bit identical to the plain serial
:class:`BatchRunner` on the same jobs: same values, same submission
order, and (canonically compared) the same schedule store.
"""

from __future__ import annotations

import pytest

from repro.engine import (BatchRunner, BackendError, RunnerConfig,
                          SubprocessShardBackend, SweepSpec,
                          canonical_store_doc, merge_artifacts,
                          merge_results, plan_shards)
from repro.engine.backends.shards import run_manifest
from repro.errors import ReproError
from repro.examples_data import fig1_options, fig1_problem
from repro.io.shards import (artifact_from_dict, artifact_to_dict,
                             load_artifact, manifest_from_dict,
                             manifest_to_dict, save_artifact)
from repro.scheduling import SchedulerOptions

BUDGETS = [6, 7, 8, 9, 10, 11, 12, 13, 14, 16]
LEVELS = [1, 2, 3, 4, 5, 6, 7, 8, 10, 12]


@pytest.fixture(scope="module")
def fig1_grid_jobs():
    """The Fig. 1 workload crossed with a 10x10 power grid."""
    spec = SweepSpec.grid(fig1_problem(), BUDGETS, LEVELS,
                          options=fig1_options())
    return spec.jobs()


@pytest.fixture(scope="module")
def serial_baseline(fig1_grid_jobs):
    runner = BatchRunner(RunnerConfig(reuse_schedules=True))
    results = runner.run(fig1_grid_jobs)
    return results, runner


# ----------------------------------------------------------------------
# subprocess shard invariance
# ----------------------------------------------------------------------

@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("strategy", ["tile", "round_robin"])
def test_subprocess_shard_count_invariance(fig1_grid_jobs,
                                           serial_baseline, shards,
                                           strategy):
    base_results, base_runner = serial_baseline
    runner = BatchRunner(
        RunnerConfig(reuse_schedules=True),
        backend=SubprocessShardBackend(shards=shards,
                                       strategy=strategy))
    results = runner.run(fig1_grid_jobs)

    assert runner.last_mode == "shards"
    assert [r.position for r in results] == \
        [r.position for r in base_results]
    # bit-for-bit: SweepPoint is a frozen dataclass, so == is
    # field-exact
    assert [r.value for r in results] == \
        [r.value for r in base_results]
    assert all(r.ok for r in results)
    # the settled store holds exactly the serial run's schedules
    assert canonical_store_doc(runner.store) == \
        canonical_store_doc(base_runner.store)
    # the run trace still covers every job
    assert runner.last_trace.run["jobs"] == len(fig1_grid_jobs)


def test_shard_backend_exposes_plan_and_artifacts(fig1_grid_jobs,
                                                  serial_baseline):
    backend = SubprocessShardBackend(shards=2)
    runner = BatchRunner(RunnerConfig(reuse_schedules=True),
                         backend=backend)
    runner.run(fig1_grid_jobs)
    assert backend.last_plan is not None
    assert backend.last_plan.shards == 2
    assert len(backend.last_artifacts) == 2
    merged = merge_results(backend.last_artifacts)
    base_results, _ = serial_baseline
    # artifacts cover exactly the deduplicated primaries
    solved = {r.position for r in merged}
    assert solved <= {r.position for r in base_results}


def test_shard_worker_failure_degrades_to_job_errors(fig1_grid_jobs):
    backend = SubprocessShardBackend(shards=2,
                                     python="/nonexistent-python")
    runner = BatchRunner(RunnerConfig(retries=0), backend=backend)
    results = runner.run(fig1_grid_jobs[:4])
    assert len(results) == 4
    assert not any(r.ok for r in results if not r.cached)
    failed = [r for r in results if not r.ok]
    assert failed
    assert all("shard worker" in r.error for r in failed)


def test_shard_backend_rejects_bad_config():
    with pytest.raises(BackendError):
        SubprocessShardBackend(shards=0)
    with pytest.raises(BackendError):
        SubprocessShardBackend(strategy="diagonal")


# ----------------------------------------------------------------------
# remote backend invariance (live in-process server)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def remote_grid_jobs():
    """Same grid, wire-representable options (seed only)."""
    spec = SweepSpec.grid(fig1_problem(), BUDGETS, LEVELS,
                          options=SchedulerOptions(seed=2001))
    return spec.jobs()


def test_remote_backend_invariance(remote_grid_jobs):
    from repro.engine import RemoteBackend
    from tests.test_serving import LiveServer

    serial = BatchRunner(RunnerConfig())
    base = serial.run(remote_grid_jobs)
    with LiveServer() as live:
        runner = BatchRunner(
            RunnerConfig(),
            backend=RemoteBackend([live.client], shards=2))
        results = runner.run(remote_grid_jobs)
    assert runner.last_mode == "remote"
    assert [r.value for r in results] == [r.value for r in base]
    assert all(r.ok for r in results)


def test_remote_backend_refuses_non_wire_options(remote_grid_jobs):
    from repro.engine import RemoteBackend

    backend = RemoteBackend(["http://127.0.0.1:1"], shards=1)
    jobs = SweepSpec.grid(fig1_problem(), [10], [4],
                          options=fig1_options()).jobs()
    runner = BatchRunner(RunnerConfig(), backend=backend)
    # fig1_options sets max_power_restarts, which the wire protocol
    # cannot carry — refusing beats silently solving something else
    with pytest.raises(BackendError):
        runner.run(jobs)


def test_remote_backend_retries_then_degrades(remote_grid_jobs):
    from repro.engine import RemoteBackend

    # nothing listens on this port: every attempt is a connection
    # error, which is retryable, and after the budget the shard
    # degrades to failed results
    backend = RemoteBackend(["http://127.0.0.1:9"], shards=1)
    runner = BatchRunner(RunnerConfig(retries=1), backend=backend)
    results = runner.run(remote_grid_jobs[:3])
    failed = [r for r in results if not r.ok]
    assert failed
    assert all("remote shard" in r.error for r in failed)
    assert all(r.attempts == 3 for r in failed)


# ----------------------------------------------------------------------
# merge layer
# ----------------------------------------------------------------------

def _make_artifacts(jobs, shards, instrument=False,
                    reuse=True, strategy="tile"):
    runner_doc = {"retries": 1, "reuse_schedules": reuse,
                  "reuse_policy": "identical",
                  "instrument": instrument}
    plan = plan_shards(jobs, shards, strategy, runner=runner_doc)
    return [run_manifest(manifest) for manifest in plan
            if manifest.jobs]


def test_merge_results_interleaves_by_position(fig1_grid_jobs):
    artifacts = _make_artifacts(fig1_grid_jobs[:8], 3)
    merged = merge_results(artifacts)
    assert [r.position for r in merged] == list(range(8))


def test_merge_rejects_overlapping_positions(fig1_grid_jobs):
    artifacts = _make_artifacts(fig1_grid_jobs[:4], 2)
    with pytest.raises(ReproError, match="overlap at position"):
        merge_results([artifacts[0], artifacts[0]])


def test_merge_traces_reroots_under_shard_spans(fig1_grid_jobs):
    artifacts = _make_artifacts(fig1_grid_jobs[:6], 2,
                                instrument=True)
    merged = merge_artifacts(artifacts, strategy="tile")
    trace = merged.trace
    assert trace.run["mode"] == "shards"
    assert trace.run["shards"] == 2
    assert trace.run["strategy"] == "tile"
    assert trace.run["jobs"] == 6
    # jobs interleaved back into submission order
    assert [job.position for job in trace.jobs] == list(range(6))
    # one engine.run root, one engine.shard child per shard, each
    # wrapping that shard's own engine.run span forest
    assert len(trace.spans) == 1
    root = trace.spans[0]
    assert root["name"] == "engine.run"
    shard_spans = root["children"]
    assert [span["name"] for span in shard_spans] == \
        ["engine.shard", "engine.shard"]
    assert {span["attrs"]["shard"] for span in shard_spans} == {0, 1}
    for span in shard_spans:
        assert span["children"][0]["name"] == "engine.run"
    # cache counters summed across shards
    total_hits = sum(a.trace.cache.get("hits", 0) for a in artifacts)
    assert trace.cache["hits"] == total_hits
    # metric counters reconciled by summation
    jobs_metric = trace.metrics.get("engine.run.jobs")
    assert jobs_metric is not None and jobs_metric["value"] == 6


def test_merge_store_matches_unsharded_store(fig1_grid_jobs):
    serial = BatchRunner(RunnerConfig(reuse_schedules=True))
    serial.run(fig1_grid_jobs)
    for shards in (1, 3):
        artifacts = _make_artifacts(fig1_grid_jobs, shards)
        merged = merge_artifacts(artifacts)
        assert canonical_store_doc(merged.store) == \
            canonical_store_doc(serial.store)


def test_merged_cache_serves_all_solved_points(fig1_grid_jobs):
    artifacts = _make_artifacts(fig1_grid_jobs[:6], 2)
    merged = merge_artifacts(artifacts)
    for result in merged.results:
        if result.ok:
            hit, value = merged.cache.peek(result.key)
            assert hit and value == result.value


# ----------------------------------------------------------------------
# artifact round trip
# ----------------------------------------------------------------------

def test_artifact_round_trip(tmp_path, fig1_grid_jobs):
    artifacts = _make_artifacts(fig1_grid_jobs[:6], 2,
                                instrument=True)
    for artifact in artifacts:
        path = tmp_path / f"artifact_{artifact.index}.json"
        save_artifact(artifact, str(path))
        loaded = load_artifact(str(path))
        assert loaded.index == artifact.index
        assert loaded.of == artifact.of
        assert [r.position for r in loaded.results] == \
            [r.position for r in artifact.results]
        assert [r.value for r in loaded.results] == \
            [r.value for r in artifact.results]
        assert loaded.store_delta == artifact.store_delta
        assert loaded.cache_stats == artifact.cache_stats
        assert dict(loaded.cache_entries) == \
            dict(artifact.cache_entries)
        assert loaded.trace.run == artifact.trace.run
        # dict-level identity too
        assert artifact_to_dict(
            artifact_from_dict(artifact_to_dict(artifact))) == \
            artifact_to_dict(artifact)


def test_manifest_with_removed_solver_keys_still_runs(fig1_grid_jobs):
    """Manifests from older releases carried ``core_kernel``,
    ``warm_start`` and ``lp_log_factor`` in ``runner``; they load, the
    keys are ignored, and the results match a manifest without them."""
    base = {"retries": 1, "reuse_schedules": True,
            "reuse_policy": "identical", "instrument": False}
    legacy = dict(base, core_kernel="numpy", warm_start=False,
                  lp_log_factor=2)
    jobs = list(enumerate(fig1_grid_jobs[:6]))

    def run(runner_doc):
        [manifest] = plan_shards(jobs, 1, "tile", runner=runner_doc)
        manifest = manifest_from_dict(manifest_to_dict(manifest))
        assert manifest.runner == runner_doc
        return run_manifest(manifest).results

    expected = run(base)
    results = run(legacy)
    assert all(result.ok for result in results)
    assert [(r.position, r.value) for r in results] == \
        [(r.position, r.value) for r in expected]


# ----------------------------------------------------------------------
# CLI workflow
# ----------------------------------------------------------------------

def test_cli_shard_plan_run_merge(tmp_path, capsys):
    from repro.cli import main
    from repro.io import save_problem

    problem_path = tmp_path / "fig1.json"
    save_problem(fig1_problem(), str(problem_path))
    plan_dir = tmp_path / "plan"
    assert main(["shard", "plan", str(problem_path),
                 "--budgets", "8,10,12", "--levels", "2,4",
                 "--shards", "2", "--out-dir", str(plan_dir),
                 "--seed", "2001", "--reuse-schedules"]) == 0
    artifact_paths = []
    for index in range(2):
        artifact = tmp_path / f"a{index}.json"
        assert main(["shard", "run",
                     str(plan_dir / f"shard_{index}.json"),
                     "--artifact", str(artifact)]) == 0
        artifact_paths.append(str(artifact))
    trace_path = tmp_path / "merged.json"
    store_path = tmp_path / "store.json"
    assert main(["shard", "merge", *artifact_paths,
                 "--trace", str(trace_path),
                 "--store", str(store_path)]) == 0
    assert trace_path.exists() and store_path.exists()
    out = capsys.readouterr().out
    assert "merged: 6 jobs from 2 shards" in out

    # the merged values match a direct serial run of the same grid
    merged = merge_artifacts([load_artifact(path)
                              for path in artifact_paths])
    jobs = SweepSpec.grid(fig1_problem(), [8, 10, 12], [2, 4],
                          options=SchedulerOptions(seed=2001)).jobs()
    serial = BatchRunner(RunnerConfig(reuse_schedules=True))
    base = serial.run(jobs)
    assert [r.value for r in merged.results] == \
        [r.value for r in base]


def test_cli_sweep_backend_shards(tmp_path, capsys):
    from repro.cli import main
    from repro.io import save_problem

    problem_path = tmp_path / "fig1.json"
    save_problem(fig1_problem(), str(problem_path))
    assert main(["sweep", str(problem_path),
                 "--budgets", "8,10,12", "--levels", "2,4",
                 "--backend", "shards", "--shards", "2",
                 "--reuse-schedules"]) == 0
    out = capsys.readouterr().out
    assert "mode=shards" in out


def test_metrics_merge_matches_serial_registry(fig1_grid_jobs):
    """Sharded metric snapshots merged == one serial registry.

    No solver state crosses jobs (each solve works on its own graph
    copies), so every counter is per-job deterministic and must sum
    exactly; histogram *counts* are exact too, while
    sums are wall-clock (compare the merge against the fold of its
    own parts, not against the serial timings).  Jobs are key-distinct
    so dedup/cache accounting cannot depend on the partition either.
    """
    jobs, seen = [], set()
    for job in fig1_grid_jobs:
        key = job.key()
        if key not in seen:
            seen.add(key)
            jobs.append(job)
        if len(jobs) == 12:
            break
    serial = BatchRunner(RunnerConfig(instrument=True))
    serial.run(jobs)
    serial_metrics = serial.last_trace.metrics

    runner_doc = {"retries": 1, "reuse_schedules": False,
                  "reuse_policy": "identical", "instrument": True}
    plan = plan_shards(list(enumerate(jobs)), 3, "tile",
                       runner=runner_doc)
    artifacts = [run_manifest(manifest) for manifest in plan
                 if manifest.jobs]
    merged = merge_artifacts(artifacts).metrics

    def of_type(snapshot, kind):
        return {name: summary for name, summary in snapshot.items()
                if summary["type"] == kind}

    serial_counters = of_type(serial_metrics, "counter")
    merged_counters = of_type(merged, "counter")
    assert set(serial_counters) == set(merged_counters)
    for name, summary in serial_counters.items():
        assert merged_counters[name]["value"] == summary["value"], \
            name

    serial_hists = of_type(serial_metrics, "histogram")
    merged_hists = of_type(merged, "histogram")
    assert set(serial_hists) == set(merged_hists)
    for name, summary in serial_hists.items():
        assert merged_hists[name]["count"] == summary["count"], name
    # Merge exactness: the merged sum/count is the exact fold of the
    # per-shard snapshots it was built from.
    for name, summary in merged_hists.items():
        shard_sum = sum(artifact.metrics[name]["sum"]
                        for artifact in artifacts
                        if name in artifact.metrics)
        shard_count = sum(artifact.metrics[name]["count"]
                          for artifact in artifacts
                          if name in artifact.metrics)
        assert summary["count"] == shard_count, name
        assert summary["sum"] == pytest.approx(shard_sum, abs=1e-5), \
            name
        # and each quantile stays inside the observed value range
        low = min(artifact.metrics[name]["min"]
                  for artifact in artifacts
                  if name in artifact.metrics)
        high = max(artifact.metrics[name]["max"]
                   for artifact in artifacts
                   if name in artifact.metrics)
        for q in ("p50", "p95", "p99"):
            assert low - 1e-9 <= summary[q] <= high + 1e-9, (name, q)
