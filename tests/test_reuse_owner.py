"""One owner for schedule reuse: the store a runner holds.

A runner reuses schedules exactly when it holds a
:class:`ScheduleStore`, and every backend, worker and trace reads that
store's policy.  The grid is the Fig. 1 workload at ``P_max`` x 0.9 ..
3.0 and ``P_min`` x 0.3 .. 1.3: under ``valid`` a serial run serves 14
of its points from ``min_power`` entries, under ``identical`` only the
certified ``timing`` entry serves.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

from repro.engine import (BatchRunner, RunnerConfig, ScheduleStore,
                          SolveJob, SubprocessShardBackend, SweepSpec,
                          plan_shards, register_kind)
from repro.engine.backends.shards import run_manifest
from repro.examples_data import fig1_options, fig1_problem
from repro.io.shards import manifest_from_dict, manifest_to_dict


def _fig1_grid():
    problem = fig1_problem()
    budgets = [problem.p_max * factor
               for factor in (0.9, 1.0, 1.2, 1.5, 2.0, 3.0)]
    levels = [problem.p_min * factor for factor in (0.3, 0.6, 1.0, 1.3)]
    return SweepSpec.grid(problem, budgets, levels,
                          options=fig1_options()).jobs()


def _served_stages(results) -> Counter:
    """How many solved results each stored stage served."""
    markers = [(result.stats or {}).get("reuse") or {}
               for result in results if not result.cached]
    return Counter(marker["stage"] for marker in markers
                   if marker.get("hit"))


def test_runner_config_holds_no_reuse_switch():
    assert [field.name for field in dataclasses.fields(RunnerConfig)] \
        == ["workers", "timeout_s", "retries", "instrument"]


def _store_policy_kind(job, store):
    return getattr(store, "policy", "no store"), {}


register_kind("store_policy_test", _store_policy_kind)


def test_every_kind_receives_the_runner_store():
    job = SolveJob(problem=fig1_problem(), kind="store_policy_test")
    assert BatchRunner().run_values([job]) == ["no store"]
    assert BatchRunner(store=ScheduleStore("valid")).run_values([job]) \
        == ["valid"]


# ----------------------------------------------------------------------
# the store's policy reaches every worker
# ----------------------------------------------------------------------

def test_shard_workers_serve_under_the_store_policy():
    runner = BatchRunner(store=ScheduleStore("valid"),
                         backend=SubprocessShardBackend(shards=2))
    results = runner.run(_fig1_grid())
    assert runner.last_mode == "shards"
    assert all(result.ok for result in results)
    stages = _served_stages(results)
    assert set(stages) - {"timing"}, stages
    assert runner.last_trace.reuse["policy"] == "valid"


def test_pool_workers_serve_under_the_store_policy():
    """A pool job sees the store as it stood when the batch began, so
    the store is warmed by an earlier serial run first: a fresh one
    holds only the certified entry, which both policies serve."""
    jobs = _fig1_grid()
    warm = BatchRunner(store=ScheduleStore("valid"))
    warm.run(jobs)
    runner = BatchRunner(RunnerConfig(workers=2), store=warm.store)
    results = runner.run(jobs)
    assert runner.last_mode in ("process", "serial-fallback")
    assert all(result.ok for result in results)
    stages = _served_stages(results)
    assert set(stages) - {"timing"}, stages
    assert runner.last_trace.reuse["policy"] == "valid"


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------

def _manifest(runner_doc, store=None):
    [manifest] = plan_shards(list(enumerate(_fig1_grid())), 1,
                             runner=runner_doc, store=store)
    return manifest_from_dict(manifest_to_dict(manifest))


def test_manifest_store_document_names_the_policy():
    for policy, extra in (("identical", set()),
                          ("valid", {"min_power"})):
        manifest = _manifest({"retries": 1},
                             store=ScheduleStore(policy).to_dict())
        stages = _served_stages(run_manifest(manifest).results)
        assert set(stages) == {"timing"} | extra, (policy, stages)
    results = run_manifest(_manifest({"retries": 1})).results
    assert not any("reuse" in result.stats for result in results)


def test_older_manifest_without_store_runs_a_fresh_store():
    manifest = _manifest({"retries": 1, "reuse_schedules": True,
                          "reuse_policy": "valid", "instrument": False})
    assert manifest.store is None
    stages = _served_stages(run_manifest(manifest).results)
    assert set(stages) == {"timing", "min_power"}, stages


def test_older_manifest_policy_overrides_the_store_document():
    manifest = _manifest({"retries": 1, "reuse_schedules": True,
                          "reuse_policy": "valid"},
                         store=ScheduleStore("identical").to_dict())
    stages = _served_stages(run_manifest(manifest).results)
    assert set(stages) == {"timing", "min_power"}, stages


def test_cli_shard_plan_ships_the_store_document(tmp_path):
    from repro.cli import main
    from repro.io import save_problem

    problem_path = tmp_path / "fig1.json"
    save_problem(fig1_problem(), str(problem_path))
    for flags, policy in (([], None),
                          (["--reuse-schedules"], "identical"),
                          (["--reuse-schedules", "--reuse-policy",
                            "valid"], "valid")):
        plan_dir = tmp_path / (policy or "none")
        assert main(["shard", "plan", str(problem_path),
                     "--budgets", "8,10", "--levels", "2",
                     "--shards", "2", "--out-dir", str(plan_dir),
                     *flags]) == 0
        for index in range(2):
            doc = json.loads(
                (plan_dir / f"shard_{index}.json").read_text())
            assert set(doc["runner"]) == {"retries", "instrument",
                                          "trace"}
            if policy is None:
                assert doc["store"] is None
            else:
                assert doc["store"]["policy"] == policy
