"""Sharded execution: one subprocess per shard manifest.

The batch's deduplicated jobs are partitioned by the planner
(:func:`~repro.engine.planner.plan_shards`), each shard's manifest is
written to disk, and one ``repro shard run <manifest>`` worker process
executes it, writing a ``repro-shard-artifact`` (the per-job results
plus the shard run's identity).  The backend waits for all workers,
loads the artifacts, and feeds the results straight back into the
owning :class:`~repro.engine.runner.BatchRunner` — per-job reuse
markers, ``new_entries`` deltas and, for instrumented runs, span trees
ride in ``JobResult.stats`` exactly as they do for process-pool
workers, so the runner's one fold settles them unchanged.

Failure containment mirrors the local pool: a shard whose worker exits
non-zero, times out, or writes an unreadable artifact is retried up to
``config.retries`` times and then reported as per-job failures — one
dead shard never raises out of a batch.

:func:`run_manifest` is the worker-side entry point (shared with the
``repro shard run`` CLI verb): it replays a manifest through a serial
:class:`BatchRunner` and assembles the artifact.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from typing import Callable, Sequence

from ...errors import ReproError
from ...obs import LOG, current_trace_context
from ..jobs import JobResult, SolveJob
from ..planner import PARTITION_STRATEGIES, plan_shards
from ..schedule_store import ScheduleStore
from .base import BackendError, ExecutionBackend

__all__ = ["SubprocessShardBackend", "run_manifest"]


def run_manifest(manifest):
    """Execute one shard manifest; returns its ShardArtifact.

    Runs the manifest's jobs through a serial in-process
    :class:`~repro.engine.runner.BatchRunner` configured from the
    manifest's ``runner`` section; it reuses schedules exactly when the
    manifest ships a store document, under the policy that document
    names.  (Older manifests carry ``runner.reuse_policy``, which
    overrides it, and ``runner.reuse_schedules: true`` without a
    document means a fresh store under that policy.)  That runner
    dedups the clamped duplicate points a plan keeps, so each shard
    solves a key once.  The artifact holds the results, re-tagged with
    their *global* positions, and the run's identity; whoever folds
    the results rebuilds the store delta, cache and trace from them.
    """
    from ...io.shards import ARTIFACT_RUN_FIELDS, ShardArtifact
    from ..runner import BatchRunner, RunnerConfig

    knobs = manifest.runner or {}
    policy = knobs.get("reuse_policy")
    store = None
    if manifest.store is not None:
        store = ScheduleStore.from_dict(manifest.store, policy=policy)
    elif knobs.get("reuse_schedules"):
        store = ScheduleStore(policy=policy or "identical")
    runner = BatchRunner(
        RunnerConfig(retries=knobs.get("retries", 1),
                     instrument=bool(knobs.get("instrument"))),
        store=store)
    trace_ctx = knobs.get("trace") or {}
    if trace_ctx.get("trace_id"):
        # The parent runner's trace context rode the manifest; adopt it
        # so this shard's run trace stitches under the same trace_id.
        runner.trace_context = (trace_ctx["trace_id"],
                                trace_ctx.get("parent_span_id"))
    results = runner.run([job for _position, job in manifest.jobs])
    # Results come back in shard-local order; re-tag them with the
    # manifest's global positions so the merged run interleaves
    # correctly.
    for (position, _job), result in zip(manifest.jobs, results):
        result.position = position
    run = runner.last_trace.run
    return ShardArtifact(
        index=manifest.index, of=manifest.of, results=results,
        run={name: run[name] for name in ARTIFACT_RUN_FIELDS
             if name in run})


class SubprocessShardBackend(ExecutionBackend):
    """Fan a batch out over N ``repro shard run`` worker processes."""

    name = "shards"

    def __init__(self, shards: int = 2, strategy: str = "tile",
                 workdir: "str | None" = None,
                 keep_artifacts: bool = False,
                 python: "str | None" = None):
        if shards < 1:
            raise BackendError(f"shards must be >= 1, got {shards}")
        if strategy not in PARTITION_STRATEGIES:
            raise BackendError(
                f"unknown partition strategy {strategy!r}; "
                f"pick from {PARTITION_STRATEGIES}")
        self.shards = shards
        self.strategy = strategy
        self.workdir = workdir
        self.keep_artifacts = keep_artifacts or workdir is not None
        self.python = python or sys.executable
        #: The plan and artifacts of the most recent :meth:`run`.
        self.last_plan = None
        self.last_artifacts: "list" = []

    def run(self, entries: "Sequence[tuple[int, str, SolveJob]]",
            results: "dict[int, JobResult]", *,
            config, store=None, instrument: bool = False,
            on_result: "Callable[[JobResult], None] | None" = None) \
            -> str:
        key_of = {position: key for position, key, _job in entries}
        runner_doc = {"retries": config.retries,
                      "instrument": bool(instrument)}
        context = current_trace_context()
        if context is not None:
            runner_doc["trace"] = {"trace_id": context[0],
                                   "parent_span_id": context[1]}
        store_doc = store.snapshot().to_dict() \
            if store is not None else None
        plan = plan_shards([(position, job)
                            for position, _key, job in entries],
                           self.shards, self.strategy,
                           runner=runner_doc, store=store_doc)
        self.last_plan = plan
        self.last_artifacts = []
        workdir = self.workdir or tempfile.mkdtemp(prefix="repro-shards-")
        if self.workdir:
            os.makedirs(workdir, exist_ok=True)
        try:
            self._run_plan(plan, workdir, config, key_of, results,
                           on_result)
        finally:
            if not self.keep_artifacts:
                import shutil
                shutil.rmtree(workdir, ignore_errors=True)
        return "shards"

    # ------------------------------------------------------------------

    def _run_plan(self, plan, workdir, config, key_of, results,
                  on_result) -> None:
        from ...io.shards import save_manifest

        paths = {}
        for manifest in plan:
            if not manifest.jobs:
                continue
            manifest_path = os.path.join(
                workdir, f"shard_{manifest.index}.json")
            artifact_path = os.path.join(
                workdir, f"artifact_{manifest.index}.json")
            log_path = os.path.join(
                workdir, f"shard_{manifest.index}.log")
            save_manifest(manifest, manifest_path)
            paths[manifest.index] = (manifest_path, artifact_path,
                                     log_path)
        pending = [(manifest, 0) for manifest in plan if manifest.jobs]
        while pending:
            procs = []
            for manifest, attempt in pending:
                manifest_path, artifact_path, log_path = \
                    paths[manifest.index]
                log = open(log_path, "ab")
                try:
                    proc = subprocess.Popen(
                        [self.python, "-m", "repro.cli", "shard",
                         "run", manifest_path,
                         "--artifact", artifact_path],
                        stdout=log, stderr=subprocess.STDOUT,
                        env=self._worker_env())
                except OSError as exc:
                    proc = None
                    log.write(f"spawn failed: {exc}\n".encode())
                log.close()
                procs.append((proc, manifest, attempt))
            pending = []
            for proc, manifest, attempt in procs:
                error = self._await_worker(proc, manifest, config)
                artifact = None
                if error is None:
                    _mp, artifact_path, _lp = paths[manifest.index]
                    try:
                        from ...io.shards import load_artifact
                        artifact = load_artifact(artifact_path)
                    except ReproError as exc:
                        error = f"unreadable shard artifact: {exc}"
                if error is None:
                    self.last_artifacts.append(artifact)
                    for result in artifact.results:
                        results[result.position] = result
                        if on_result is not None:
                            on_result(result)
                elif attempt < config.retries:
                    if LOG.enabled:
                        trace_doc = (manifest.runner or {}) \
                            .get("trace") or {}
                        LOG.emit("shard.retry",
                                 trace_id=trace_doc.get("trace_id"),
                                 shard=manifest.index,
                                 attempt=attempt + 1, error=error)
                    pending.append((manifest, attempt + 1))
                else:
                    detail = self._log_tail(paths[manifest.index][2])
                    if detail:
                        error = f"{error}: {detail}"
                    for position, _job in manifest.jobs:
                        results[position] = JobResult(
                            position=position,
                            key=key_of.get(position, ""),
                            ok=False, error=error,
                            attempts=attempt + 1)
                        if on_result is not None:
                            on_result(results[position])

    def _await_worker(self, proc, manifest, config) -> "str | None":
        if proc is None:
            return "shard worker could not be spawned"
        budget = None if config.timeout_s is None \
            else config.timeout_s * len(manifest.jobs)
        try:
            code = proc.wait(budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return (f"shard timed out after {budget:g}s "
                    f"({len(manifest.jobs)} jobs)")
        if code != 0:
            return f"shard worker exited with status {code}"
        return None

    def _worker_env(self) -> "dict[str, str]":
        """The worker environment: this package importable via spawn."""
        import repro
        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_dir if not existing \
            else os.pathsep.join([src_dir, existing])
        return env

    @staticmethod
    def _log_tail(log_path: str, limit: int = 300) -> str:
        try:
            with open(log_path, "rb") as handle:
                data = handle.read()
        except OSError:
            return ""
        tail = data[-limit:].decode("utf-8", "replace").strip()
        return tail.splitlines()[-1] if tail else ""
