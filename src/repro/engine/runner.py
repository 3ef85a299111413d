"""The batch runner: parallel execution of independent solve jobs.

Execution model
---------------
``BatchRunner.run`` takes an ordered list of :class:`SolveJob` and
returns one :class:`JobResult` per job, in order.  Internally it

1. **keys** every job with its canonical problem hash,
2. **dedups**: jobs sharing a key are solved once (first occurrence is
   the *primary*; the rest are served from the in-run memo), and the
   runner's persistent :class:`ResultCache` short-circuits points
   already solved by earlier runs,
3. **dispatches** the unique jobs either serially in-process
   (``workers <= 1``) or across a ``ProcessPoolExecutor``, one job per
   future, with a per-job timeout budget and a capped number of
   retries, and
4. **degrades gracefully**: if worker processes cannot be created (no
   ``fork``/``spawn`` support, sandboxing, resource limits) the batch
   silently falls back to the serial loop — same results, one process.

Determinism: job seeds are fixed inputs (``options.seed``; see
:func:`~repro.engine.jobs.derive_seed`), dedup serves byte-identical
payloads, and result order is the submission order — so
a parallel run is indistinguishable from a serial run of the same jobs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..obs import (LOG, OBS, MetricsRegistry, Span, absorb_cache_stats,
                   absorb_scheduler_stats, absorb_store_stats,
                   current_trace_context, new_span_id, new_trace_id,
                   reset_trace_context, set_trace_context)
from .backends.base import SNAPSHOT_MODES, ExecutionBackend
from .backends.local import LocalBackend
from .cache import ResultCache
from .jobs import JobResult, SolveJob
from .schedule_store import ScheduleStore
from .trace import JobTrace, RunTrace

__all__ = ["RunnerConfig", "BatchRunner"]


@dataclass
class RunnerConfig:
    """Tunable knobs of a :class:`BatchRunner`.

    Attributes
    ----------
    workers:
        Worker processes; ``0`` or ``1`` selects the in-process serial
        loop (the default — parallelism is opt-in).
    timeout_s:
        Per-job wall-clock budget.  ``None`` (default) waits forever.
    retries:
        Capped retry budget, applied both in-worker (re-running a job
        whose kind function raised) and at pool level (re-submitting a
        job that timed out or whose worker died).
    instrument:
        Record the run through :mod:`repro.obs`: hierarchical spans
        (the run, each job, the pipeline stages and longest-path
        recomputes inside each solve — worker-process spans shipped
        back and re-parented under their job span) plus the metrics
        registry snapshot, both embedded in the ``repro-trace`` v2
        document.  Off by default; a run with the process-wide
        :data:`repro.obs.OBS` recorder already enabled is instrumented
        regardless, and its span tree is additionally attached to that
        session.
    """

    workers: int = 0
    timeout_s: "float | None" = None
    retries: int = 1
    instrument: bool = False

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(
                f"timeout_s must be positive or None, got {self.timeout_s}")


class BatchRunner:
    """Execute independent solve jobs, in parallel when asked to.

    ``backend`` selects *where* the deduplicated jobs run (see
    :mod:`repro.engine.backends`): the default
    :class:`~repro.engine.backends.LocalBackend` reproduces the
    original serial/process-pool behaviour; sharded and remote backends
    plug into the same seam without changing keying, dedup, caching,
    store settlement, or trace assembly.  Every runner owns a
    :class:`ResultCache` that extends the in-run dedup of identical
    jobs across successive ``run`` calls.

    The runner reuses schedules (paper Section 5.3) exactly when it
    holds a ``store``, under that store's ``policy``, which every
    backend, worker and trace reads.  The cache serves *identical*
    jobs; the store serves the same workload under *different*
    ``(P_max, P_min)``.
    """

    def __init__(self, config: "RunnerConfig | None" = None,
                 store: "ScheduleStore | None" = None,
                 backend: "ExecutionBackend | None" = None):
        self.config = config or RunnerConfig()
        self.backend: ExecutionBackend = backend or LocalBackend()
        self.cache = ResultCache()
        self.store = store
        #: Trace of the most recent :meth:`run`.
        self.last_trace: "RunTrace | None" = None
        #: Execution mode of the most recent run:
        #: ``"serial"`` | ``"process"`` | ``"serial-fallback"``.
        self.last_mode: "str | None" = None
        #: Explicit distributed trace context
        #: ``(trace_id, parent_span_id)`` for the next run; when unset
        #: the ambient context (:func:`repro.obs.current_trace_context`)
        #: is used, and failing that a fresh trace id is minted — every
        #: run belongs to exactly one distributed trace.
        self.trace_context: "tuple[str, str | None] | None" = None

    # ------------------------------------------------------------------

    def run(self, jobs: "Iterable[SolveJob]",
            on_result: "Callable[[JobResult], None] | None" = None) \
            -> "list[JobResult]":
        """Execute ``jobs``; results come back in submission order.

        ``on_result`` is the streaming hook the serving front-end
        builds on: it is invoked once per job, in *completion* order
        (cache hits first, then solved primaries as they land, then
        dedup copies), from whatever thread is executing ``run`` —
        callbacks must be cheap and must not raise.  The returned list
        is still the authoritative, submission-ordered result.
        """
        t_start = time.perf_counter()
        instrument = self.config.instrument or OBS.enabled
        cache_before = self.cache.stats()
        store_before = self.store.counters() \
            if self.store is not None else None
        ordered = list(jobs)
        keyed = [(position, job.key(), job)
                 for position, job in enumerate(ordered)]
        results: "dict[int, JobResult]" = {}
        # primaries: first job per distinct key that must be solved
        primaries: "dict[str, tuple[int, SolveJob]]" = {}
        duplicates: "list[tuple[int, str]]" = []
        for position, key, job in keyed:
            # peek(): classification must not disturb accounting — a job
            # that ends up range-served by the schedule store was never
            # a cache miss, and duplicate occurrences of one uncached
            # key are one miss, not many.
            hit, value = self.cache.peek(key)
            if hit:
                self.cache.lookup(key)  # record hit, refresh LRU
                results[position] = JobResult(
                    position=position, key=key, value=value, cached=True)
                if on_result is not None:
                    on_result(results[position])
                continue
            if key in primaries:
                duplicates.append((position, key))
                continue
            primaries[key] = (position, job)

        entries = [(position, key, job)
                   for key, (position, job) in primaries.items()]
        if self.store is not None:
            # Prime the certified timing-stage entries in the parent so
            # every worker snapshot already carries them; idempotent per
            # base key, so serial jobs find the work done too.
            for _position, _key, job in entries:
                self.store.ensure_primed(job.problem, job.options,
                                         kind=job.kind)
        context = self.trace_context or current_trace_context()
        trace_id, parent_span_id = context if context is not None \
            else (new_trace_id(), None)
        run_span_id = new_span_id()
        run_wall0 = time.time()
        # Backends read the ambient context on this thread and carry it
        # across their process/machine boundary (wire header, manifest).
        token = set_trace_context((trace_id, run_span_id))
        try:
            # The backend is the seam between batch policy (this class)
            # and dispatch mechanism (serial/pool/shards/remote).
            mode = self.backend.run(
                entries, results, config=self.config, store=self.store,
                instrument=instrument, on_result=on_result) \
                if entries else self.backend.empty_mode(self.config)
        finally:
            reset_trace_context(token)

        for position, key in duplicates:
            primary = results[primaries[key][0]]
            results[position] = JobResult(
                position=position, key=key, value=primary.value,
                ok=primary.ok, error=primary.error, cached=True)
            if on_result is not None:
                on_result(results[position])
        return self.fold(
            [results[position] for position in range(len(ordered))],
            mode, started=t_start, wall0=run_wall0,
            instrument=instrument,
            ids={"trace_id": trace_id, "span_id": run_span_id,
                 "parent_span_id": parent_span_id},
            cache_before=cache_before, store_before=store_before)

    def fold(self, final: "list[JobResult]", mode: str, *,
             started: float, wall0: float, instrument: bool,
             ids: "dict[str, str | None]",
             cache_before: "dict[str, int] | None" = None,
             store_before: "dict[str, int] | None" = None) \
            -> "list[JobResult]":
        """Settle position-ordered results into this runner's state.

        The one place results become a run, whether :meth:`run` just
        produced them or :func:`~repro.engine.merge.merge_artifacts`
        read them from shard artifacts.  The *solved* results (those
        not ``cached``: cache hits and dedup copies carry no work of
        their own) settle their reuse markers and, in snapshot modes,
        their store deltas; their payloads go into the cache; their
        shipped span trees and metrics are assembled under one
        ``engine.run`` root; and the run's :class:`RunTrace` becomes
        :attr:`last_trace`.  ``started`` is the ``perf_counter`` reading
        the run's elapsed time counts from, ``wall0`` the wall clock its
        span timeline starts at, and ``ids`` its ``trace_id``,
        ``span_id`` and ``parent_span_id``.  Returns ``final``.
        """
        solved = [result for result in final if not result.cached]
        range_hits = self._settle_reuse(solved, mode,
                                        trace_id=ids.get("trace_id"))
        for result in solved:
            if result.ok:
                reuse = (result.stats or {}).get("reuse") or {}
                if not reuse.get("hit"):
                    # The solve is committed: record the miss the
                    # classification peek deferred.
                    self.cache.lookup(result.key)
                self.cache.put(result.key, result.value)
        elapsed_s = time.perf_counter() - started
        ids = {name: value for name, value in ids.items()
               if value is not None}
        spans: "list[dict]" = []
        metrics: "dict[str, dict]" = {}
        if instrument:
            spans, metrics = self._assemble_obs(
                final, mode, wall0, elapsed_s, ids,
                cache_before=cache_before or {},
                store_before=store_before or {})
        self.last_mode = mode
        self.last_trace = self._build_trace(
            final, mode, unique_solved=len(solved),
            range_hits=range_hits, elapsed_s=elapsed_s, spans=spans,
            metrics=metrics, ids=ids)
        return final

    def _settle_reuse(self, solved: "list[JobResult]", mode: str,
                      trace_id: "str | None" = None) -> int:
        """Post-execution schedule-store bookkeeping.

        Credits the store's hit/miss counters from the solved results'
        reuse markers (:meth:`ScheduleStore.probe` is side-effect-free,
        so serial and parallel runs account identically here), and —
        when the jobs ran in worker processes against snapshots — merges
        the shipped new entries back into the store.  Returns the
        number of range-served jobs for the run trace.
        """
        if self.store is None:
            return 0
        range_hits = 0
        for result in solved:
            reuse = (result.stats or {}).get("reuse")
            if not reuse:
                continue
            if reuse.get("hit"):
                range_hits += 1
                self.store.range_hits += 1
            else:
                self.store.misses += 1
            if mode not in SNAPSHOT_MODES:
                continue
            # Serial runs insert into the live store directly; only
            # snapshot-running modes (pool workers, shard subprocesses,
            # remote servers) need their deltas folded back, and the
            # dedups their stores counted added, so ``deduped`` is the
            # same whatever the execution path.
            self.store.deduped += reuse.get("deduped", 0)
            if reuse.get("new_entries"):
                self.store.merge_delta(reuse["new_entries"])
                if LOG.enabled:
                    LOG.emit("store.merge", trace_id=trace_id,
                             position=result.position, mode=mode,
                             entries=len(reuse["new_entries"]))
        return range_hits

    def run_values(self, jobs: "Iterable[SolveJob]") -> "list[Any]":
        """Like :meth:`run` but returns just the payloads (``None`` for
        jobs that ultimately failed)."""
        return [result.value for result in self.run(jobs)]

    async def arun(self, jobs: "Iterable[SolveJob]",
                   on_result: "Callable[[JobResult], None] | None"
                   = None) -> "list[JobResult]":
        """Async submission hook: :meth:`run` off the event loop.

        The batch executes in a worker thread (``asyncio.to_thread``),
        so an asyncio server stays responsive while solves run; one
        runner must only ever execute one batch at a time (the cache
        and store are not guarded for concurrent ``run`` calls), which
        the serving layer's micro-batching loop guarantees by design.
        ``on_result`` fires on the worker thread — marshal back onto
        the loop with ``call_soon_threadsafe`` before touching asyncio
        state.
        """
        import asyncio
        return await asyncio.to_thread(self.run, jobs,
                                       on_result=on_result)

    # ------------------------------------------------------------------
    # observability assembly
    # ------------------------------------------------------------------

    def _assemble_obs(self, final: "list[JobResult]", mode: str,
                      run_wall0: float, elapsed_s: float,
                      ids: "dict[str, str]", cache_before,
                      store_before) \
            -> "tuple[list[dict], dict[str, dict]]":
        """Build the run's span tree and metric snapshot.

        Every solved job shipped its own span subtree (recorded inside
        :func:`repro.engine.jobs.run_job`'s capture, times relative to
        the job start) plus its metric increments.  Here each subtree
        is re-based onto the run timeline via the shared wall clock and
        re-parented under a per-job ``engine.job`` span beneath the
        single ``engine.run`` root — so serial, pool and sharded runs
        yield the same tree shape and identical metric totals; parallel
        runs merely overlap their job spans in time.  The payload stays
        in ``stats["obs"]``: a result that crossed a process boundary
        keeps its span tree for whichever runner folds it next.
        """
        registry = MetricsRegistry()
        run_span = Span("engine.run", 0.0, elapsed_s, attrs={
            "jobs": len(final), "mode": mode,
            "workers": self.config.workers, **ids})
        for result in final:
            if result.cached:
                continue
            stats = result.stats or {}
            absorb_scheduler_stats(registry, stats)
            obs_payload = stats.get("obs")
            start = 0.0
            if obs_payload is not None:
                start = max(0.0, obs_payload["wall0"] - run_wall0)
            job_span = Span(
                "engine.job", start, start + result.elapsed_s,
                attrs={"position": result.position,
                       "key": result.key[:12],
                       "ok": result.ok,
                       "attempts": result.attempts})
            if not result.ok and result.error:
                job_span.attrs["error"] = result.error
            if obs_payload is not None:
                for span_doc in obs_payload.get("spans", []):
                    job_span.children.append(
                        Span.from_dict(span_doc).shift(start))
                registry.merge_data(obs_payload.get("metrics", {}))
            run_span.children.append(job_span)
            registry.histogram("engine.job.seconds") \
                .observe(result.elapsed_s)
            if not result.ok:
                registry.counter("engine.jobs.failed").inc()
        run_span.end = max(
            [elapsed_s] + [child.end for child in run_span.children
                           if child.end is not None])
        registry.counter("engine.run.jobs").inc(len(final))
        registry.counter("engine.run.unique_solved").inc(
            len(run_span.children))
        registry.counter("engine.run.cache_hits").inc(
            len(final) - len(run_span.children))
        absorb_cache_stats(registry, cache_before, self.cache.stats())
        if self.store is not None:
            absorb_store_stats(registry, store_before,
                               self.store.counters())
        spans_doc = [run_span.to_dict()]
        if OBS.enabled:
            # A surrounding obs session (e.g. a mission simulation
            # driving batch solves) sees this run in its own stream,
            # shifted onto the session timeline.
            OBS.attach(run_span.shift(
                max(0.0, OBS.now() - (run_span.end or 0.0))))
        return spans_doc, registry.snapshot()

    # ------------------------------------------------------------------

    def _build_trace(self, final: "list[JobResult]", mode: str,
                     unique_solved: int, range_hits: int,
                     elapsed_s: float, spans: "list[dict]",
                     metrics: "dict[str, dict]",
                     ids: "dict[str, str]") -> RunTrace:
        cfg = self.config
        reuse_doc = None
        if self.store is not None:
            reuse_doc = {"policy": self.store.policy,
                         "range_hits": range_hits,
                         "solved": unique_solved - range_hits,
                         **self.store.counters()}
        trace = RunTrace(
            run={"jobs": len(final),
                 "unique_solved": unique_solved,
                 "workers": cfg.workers,
                 "mode": mode,
                 "timeout_s": cfg.timeout_s,
                 "retries": cfg.retries,
                 "instrumented": bool(spans),
                 "elapsed_s": round(elapsed_s, 6),
                 **ids},
            cache={"hits": len(final) - unique_solved,
                   "misses": unique_solved,
                   "evictions": self.cache.evictions,
                   "entries": len(self.cache)},
            spans=spans, metrics=metrics, reuse=reuse_doc)
        for result in final:
            stats = result.stats or {}
            reuse = stats.get("reuse") or {}
            trace.add_job(JobTrace(
                position=result.position,
                key=result.key,
                cached=result.cached,
                ok=result.ok,
                attempts=result.attempts,
                elapsed_s=result.elapsed_s,
                error=result.error,
                stage_seconds=dict(stats.get("stage_seconds", {})),
                counters=dict(stats.get("counters", {})),
                reused=bool(reuse.get("hit"))))
        return trace
