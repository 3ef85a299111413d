"""Differential tests for sharded execution (plan → execute → merge).

The headline property: **shard-count invariance**.  A sweep split over
1, 2, or 4 subprocess shards — or over running solve servers — and
merged back must be bit-for-bit identical to the plain serial
:class:`BatchRunner` on the same jobs: same values, same submission
order, and (canonically compared) the same schedule store.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.engine import (BatchRunner, BackendError, RunnerConfig,
                          ScheduleStore, SubprocessShardBackend, SweepSpec,
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
    runner = BatchRunner(store=ScheduleStore())
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
        store=ScheduleStore(),
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
    runner = BatchRunner(store=ScheduleStore(), backend=backend)
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


def _span_names(spans):
    names = Counter()
    stack = list(spans)
    while stack:
        span = stack.pop()
        names[span["name"]] += 1
        stack.extend(span.get("children", []))
    return names


def _trace_shape(trace):
    """What must not depend on the execution path: every span name
    (with multiplicity), every counter, every histogram's count."""
    metrics = trace.metrics
    return (_span_names(trace.spans),
            {name: summary["value"] for name, summary in metrics.items()
             if summary["type"] == "counter"},
            {name: summary["count"] for name, summary in metrics.items()
             if summary["type"] == "histogram"})


def test_serial_sharded_and_merged_traces_agree():
    """One fold, one trace shape: the instrumented 6x6 Fig. 1 grid run
    serially, through ``SubprocessShardBackend`` and through
    ``run_manifest`` + ``merge_artifacts`` keeps every scheduler span
    and the same metrics on all three paths."""
    jobs = SweepSpec.grid(fig1_problem(), [8, 10, 12, 14, 16, 20],
                          [1, 2, 4, 6, 8, 10],
                          options=SchedulerOptions(seed=2001)).jobs()
    serial = BatchRunner(RunnerConfig(instrument=True))
    serial.run(jobs)
    sharded = BatchRunner(RunnerConfig(instrument=True),
                          backend=SubprocessShardBackend(shards=2))
    sharded.run(jobs)
    runner_doc = {"retries": 1, "reuse_schedules": False,
                  "reuse_policy": "identical", "instrument": True}
    plan = plan_shards(jobs, 2, "tile", runner=runner_doc)
    # Each shard dedups only its own points, so the paths agree only
    # when no duplicate key spans two shards -- true of this grid.
    shard_keys = [{job.key() for _position, job in manifest.jobs}
                  for manifest in plan]
    assert not shard_keys[0] & shard_keys[1]
    merged = merge_artifacts(run_manifest(manifest)
                             for manifest in plan)

    expected = _trace_shape(serial.last_trace)
    names = expected[0]
    assert names["engine.run"] == 1
    assert names["engine.job"] == len(set().union(*shard_keys)) == 35
    assert names["sched.pipeline"] == 35
    assert _trace_shape(sharded.last_trace) == expected
    assert _trace_shape(merged.trace) == expected
    assert [job.position for job in merged.trace.jobs] == \
        list(range(len(jobs)))
    assert merged.trace.run["mode"] == "shards"


def test_store_counters_do_not_depend_on_the_execution_path():
    """The 6x6 Fig. 1 grid with a schedule store counts the same
    ``engine.store.*`` values serially, on a two-worker pool and over
    two subprocess shards: a worker's or a shard's store ships the
    dedups it suppressed, so ``deduped`` is solved entries minus
    distinct entries on every path."""
    jobs = SweepSpec.grid(fig1_problem(), [8, 10, 12, 14, 16, 20],
                          [1, 2, 4, 6, 8, 10],
                          options=SchedulerOptions(seed=2001)).jobs()
    counters = []
    for config, backend in (
            (RunnerConfig(), None),
            (RunnerConfig(workers=2), None),
            (RunnerConfig(), SubprocessShardBackend(shards=2))):
        runner = BatchRunner(config, store=ScheduleStore(),
                             backend=backend)
        runner.run(jobs)
        counters.append(runner.store.counters())
    assert counters[0] == {"range_hits": 4, "misses": 31, "primes": 1,
                           "inserted": 6, "deduped": 26, "entries": 6}
    assert counters[1] == counters[0]
    assert counters[2] == counters[0]


def test_merge_store_matches_unsharded_store(fig1_grid_jobs):
    serial = BatchRunner(store=ScheduleStore())
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


def test_merge_refuses_incomplete_or_mixed_artifact_sets(
        fig1_grid_jobs):
    """Only one plan's complete artifact set merges: a missing shard
    would drop its points, a repeated or foreign one double-count.
    ``shard plan`` writes every manifest and ``shard run`` of an empty
    one writes an empty artifact, so a plan with more shards than jobs
    still completes its set."""
    two = _make_artifacts(fig1_grid_jobs[:8], 2)
    three = _make_artifacts(fig1_grid_jobs[:8], 3)
    with pytest.raises(ReproError, match=r"missing \[1\]"):
        merge_artifacts(two[:1])
    with pytest.raises(ReproError, match=r"repeated \[0\]"):
        merge_artifacts([two[0], two[0], two[1]])
    with pytest.raises(ReproError, match="mix plans"):
        merge_artifacts([two[0], three[1], three[2]])
    with pytest.raises(ReproError, match="no shard artifacts"):
        merge_artifacts([])
    plan = plan_shards(fig1_grid_jobs[:2], 4, "round_robin")
    sparse = [run_manifest(manifest) for manifest in plan]
    assert [len(artifact.results) for artifact in sparse] == \
        [1, 1, 0, 0]
    assert [r.position for r in merge_artifacts(sparse).results] == \
        [0, 1]


def test_cli_shard_merge_refuses_a_missing_shard(tmp_path, capsys):
    from repro.cli import main
    from repro.io import save_problem

    problem_path = tmp_path / "fig1.json"
    save_problem(fig1_problem(), str(problem_path))
    assert main(["shard", "plan", str(problem_path),
                 "--budgets", "8,10", "--levels", "2,4",
                 "--shards", "2", "--out-dir",
                 str(tmp_path / "plan")]) == 0
    assert main(["shard", "run", str(tmp_path / "plan" / "shard_0.json"),
                 "--artifact", str(tmp_path / "a0.json")]) == 0
    trace_path = tmp_path / "merged.json"
    assert main(["shard", "merge", str(tmp_path / "a0.json"),
                 "--trace", str(trace_path)]) == 1
    assert "missing [1]" in capsys.readouterr().err
    assert not trace_path.exists()


def _as_v1(artifact) -> dict:
    """The artifact as the previous format wrote it: the shard run's
    trace, store delta, cache and metrics beside results whose span
    trees the shard had already stripped."""
    from repro.engine import RunTrace

    doc = artifact_to_dict(artifact)
    for item in doc["results"]:
        item["stats"].pop("obs", None)
    solved = [item for item in doc["results"] if not item["cached"]]
    doc.update(
        version=1,
        trace=RunTrace(run=doc.pop("run")).to_dict(),
        store_delta=[entry for item in solved
                     for entry in (item["stats"].get("reuse") or {})
                     .get("new_entries", [])],
        cache={"stats": {"hits": 0, "misses": len(solved)},
               "entries": [{"key": item["key"], "value": item["value"]}
                           for item in solved]},
        metrics={})
    return doc


def test_v1_artifacts_still_merge(fig1_grid_jobs, serial_baseline):
    """An artifact in the previous (v1) shape loads; its results fold
    to the same values and the same canonical store -- only the job
    span trees, which v1 shards stripped, are gone."""
    base_results, base_runner = serial_baseline
    artifacts = _make_artifacts(fig1_grid_jobs, 2, instrument=True)
    legacy = [artifact_from_dict(json.loads(json.dumps(_as_v1(a))))
              for a in artifacts]
    merged = merge_artifacts(legacy)
    assert [r.value for r in merged.results] == \
        [r.value for r in base_results]
    assert canonical_store_doc(merged.store) == \
        canonical_store_doc(base_runner.store)
    assert canonical_store_doc(merged.store) == \
        canonical_store_doc(merge_artifacts(artifacts).store)
    assert merged.trace.spans == []


# ----------------------------------------------------------------------
# artifact round trip
# ----------------------------------------------------------------------

def test_primed_store_spares_shards_the_priming_solve(monkeypatch):
    """A manifest's store ships the parent's priming: a shard whose
    points all fall inside the certified rectangle runs no timing
    solve at all."""
    from repro.scheduling.timing import TimingScheduler

    store = ScheduleStore()
    store.ensure_primed(fig1_problem(), fig1_options())
    [entry] = next(iter(store.problems.values())).entries
    jobs = SweepSpec.grid(fig1_problem(), [entry.peak, entry.peak + 4],
                          [0, entry.floor], options=fig1_options()).jobs()
    [manifest] = plan_shards(jobs, 1, runner={"reuse_schedules": True},
                             store=store.to_dict())
    solves = []
    solve = TimingScheduler.solve
    monkeypatch.setattr(TimingScheduler, "solve",
                        lambda self, problem: solves.append(problem)
                        or solve(self, problem))
    artifact = run_manifest(manifest_from_dict(manifest_to_dict(manifest)))
    assert all(result.stats["reuse"]["hit"] for result in artifact.results)
    assert solves == []


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
        assert loaded.run == artifact.run
        assert set(loaded.run) == {"elapsed_s", "trace_id"}
        # the per-job span trees ride in the results
        assert [r.stats for r in loaded.results] == \
            [r.stats for r in artifact.results]
        assert all("obs" in r.stats for r in loaded.results
                   if not r.cached)
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
    serial = BatchRunner(store=ScheduleStore())
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
    sums are wall-clock (compare the merge against the fold of the
    per-job observations it was built from, not against the serial
    timings).  Jobs are key-distinct so dedup/cache accounting cannot
    depend on the partition either.
    """
    from repro.obs import MetricsRegistry, absorb_scheduler_stats

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
    artifacts = [run_manifest(manifest) for manifest in plan]
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
    # Merge exactness: every merged histogram -- quantiles included --
    # is the fold of the per-job observations the shards shipped.
    folded = MetricsRegistry()
    for result in merge_results(artifacts):
        absorb_scheduler_stats(folded, result.stats)
        folded.merge_data(result.stats["obs"]["metrics"])
        folded.histogram("engine.job.seconds").observe(result.elapsed_s)
    assert merged_hists == of_type(folded.snapshot(), "histogram")
