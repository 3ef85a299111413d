"""Parallel exploration engine for independent solve jobs.

The paper's stated purpose is "to enable the exploration of many more
points in the design space"; this package is the machinery that makes
that exploration cheap and measurable at scale:

* :class:`~repro.engine.runner.BatchRunner` — executes independent
  solve jobs (sweep grids, workload batches, Monte Carlo robustness
  trials) across a ``concurrent.futures.ProcessPoolExecutor`` with
  deterministic per-job seeding, chunked dispatch, per-chunk timeout
  with capped retry, and graceful degradation to a serial in-process
  loop when worker processes are unavailable;
* :class:`~repro.engine.cache.ResultCache` — a solve-result cache keyed
  by a canonical problem hash, so duplicate design points (e.g. the
  clamped ``p_min`` values a ``sweep_p_max`` grid produces) are solved
  exactly once, in the serial path and the parallel path alike;
* :class:`~repro.engine.schedule_store.ScheduleStore` — the
  validity-range layer above the exact cache (paper Section 5.3): a
  solved schedule is reusable for every environment inside its
  ``[peak, inf) x (-inf, floor]`` rectangle, so a ``(P_max, P_min)``
  sweep solves strictly fewer points than it reports; stores serialize
  to JSON and their entries travel across worker processes;
* :class:`~repro.engine.trace.RunTrace` — a structured JSON trace per
  run (schema v2): per-job wall times, cache hit/miss/eviction
  counters, the per-stage scheduler timings threaded through
  :class:`~repro.scheduling.base.SchedulerStats`, and — when the run
  is instrumented (``RunnerConfig(instrument=True)``) — the
  :mod:`repro.obs` span tree and metric snapshot, with worker-process
  spans re-parented under their job spans.

Since PR 5 the engine is layered as **plan → execute → merge**:
:mod:`~repro.engine.planner` turns sweep specs into ordered job lists
and partitions them into shard manifests (locality-aware ``tile`` or
``round_robin``); :mod:`~repro.engine.backends` is the dispatch seam —
the in-process :class:`~repro.engine.backends.LocalBackend` (default),
the :class:`~repro.engine.backends.SubprocessShardBackend`, and the
HTTP-driving :class:`~repro.engine.backends.RemoteBackend`; and
:mod:`~repro.engine.merge` folds per-shard artifacts back into one
run — results interleaved by position, then settled by the same
:meth:`~repro.engine.runner.BatchRunner.fold` every run goes through.

Determinism contract: for the same jobs and the same seeds, a parallel
run returns results identical to a serial run — parallelism and caching
only change *when* a point is solved, never *what* it resolves to.
The differential tests extend this across backends: merged shard runs
are indistinguishable from serial runs, point for point.
"""

from .backends import (SNAPSHOT_MODES, BackendError, ExecutionBackend,
                       LocalBackend, RemoteBackend,
                       SubprocessShardBackend)
from .cache import ResultCache
from .hashing import (options_fingerprint, problem_base_key,
                      problem_key)
from .jobs import (JobResult, SolveJob, derive_seed, register_kind,
                   run_job, solve_problems)
from .merge import (MergedRun, canonical_store_doc, merge_artifacts,
                    merge_results)
from .planner import (PARTITION_STRATEGIES, ShardManifest, ShardPlan,
                      SweepSpec, plan_shards)
from .runner import BatchRunner, RunnerConfig
from .schedule_store import (REUSE_POLICIES, ScheduleStore,
                             StoredSchedule)
from .trace import JobTrace, RunTrace, read_trace

__all__ = [
    "BackendError",
    "BatchRunner",
    "ExecutionBackend",
    "JobResult",
    "JobTrace",
    "LocalBackend",
    "MergedRun",
    "PARTITION_STRATEGIES",
    "REUSE_POLICIES",
    "RemoteBackend",
    "ResultCache",
    "RunTrace",
    "RunnerConfig",
    "SNAPSHOT_MODES",
    "ScheduleStore",
    "ShardManifest",
    "ShardPlan",
    "SolveJob",
    "StoredSchedule",
    "SubprocessShardBackend",
    "SweepSpec",
    "canonical_store_doc",
    "derive_seed",
    "merge_artifacts",
    "merge_results",
    "options_fingerprint",
    "plan_shards",
    "problem_base_key",
    "problem_key",
    "read_trace",
    "register_kind",
    "run_job",
    "solve_problems",
]
