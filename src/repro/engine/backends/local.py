"""In-process execution: the serial loop and the process pool.

This is the batch runner's original dispatch mechanism, extracted
verbatim behind the :class:`~repro.engine.backends.base.
ExecutionBackend` seam.  ``workers <= 1`` selects the serial loop;
otherwise jobs go through a ``ProcessPoolExecutor``, one job per
future, with a per-job timeout budget and capped retries, degrading
silently to the serial loop when worker processes cannot be created at
all (``"serial-fallback"``) — same results, one process.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..jobs import JobResult, SolveJob, run_job
from .base import ExecutionBackend

__all__ = ["LocalBackend"]


class _PoolUnavailable(RuntimeError):
    """Worker processes could not be created; fall back to serial."""


class LocalBackend(ExecutionBackend):
    """Serial or process-pool execution inside the calling process."""

    name = "local"

    def run(self, entries: "Sequence[tuple[int, str, SolveJob]]",
            results: "dict[int, JobResult]", *,
            config, store=None, instrument: bool = False,
            on_result: "Callable[[JobResult], None] | None" = None) \
            -> str:
        if not entries:
            return self.empty_mode(config)
        if config.workers <= 1:
            self._run_serial(entries, results, config, store,
                             instrument, on_result)
            return "serial"
        try:
            self._run_pool(entries, results, config, store,
                           instrument, on_result)
            return "process"
        except _PoolUnavailable:
            self._run_serial(entries, results, config, store,
                             instrument, on_result)
            return "serial-fallback"

    def empty_mode(self, config) -> str:
        return "serial" if config.workers <= 1 else "process"

    def _run_serial(self, entries, results, config, store,
                    instrument=False, on_result=None) -> None:
        for position, key, job in entries:
            results[position] = run_job(
                job, position=position, key=key,
                retries=config.retries, instrument=instrument,
                store=store)
            if on_result is not None:
                on_result(results[position])

    def _run_pool(self, entries, results, config, store,
                  instrument=False, on_result=None) -> None:
        """One job per future over a process pool, with timeout + retry.

        Raises :class:`_PoolUnavailable` only when the pool cannot be
        *created* — once dispatch has begun, failures are retried and
        finally reported per-job, never raised.
        """
        cfg = config
        try:
            from concurrent.futures import (ProcessPoolExecutor,
                                            TimeoutError as FutureTimeout)
            from concurrent.futures.process import BrokenProcessPool
            pool = ProcessPoolExecutor(max_workers=cfg.workers)
        except Exception as exc:  # noqa: BLE001 - degrade to serial
            raise _PoolUnavailable(str(exc)) from exc

        # Workers get a snapshot of the schedule store (pre-primed by
        # the runner); their new entries return via the job results and
        # are merged by BatchRunner._settle_reuse.
        snapshot = store.snapshot() if store is not None else None
        pending = [(entry, 0) for entry in entries]
        clean = True
        try:
            while pending:
                submitted = []
                for (position, key, job), attempt in pending:
                    try:
                        future = pool.submit(
                            run_job, job, position=position, key=key,
                            retries=cfg.retries, instrument=instrument,
                            store=snapshot)
                    except Exception:  # noqa: BLE001 - pool is gone
                        future = None
                    submitted.append((future, (position, key, job),
                                      attempt))
                pending = []
                for future, entry, attempt in submitted:
                    error = None
                    if future is None:
                        error = "worker pool rejected the job"
                    else:
                        try:
                            job_result = future.result(cfg.timeout_s)
                            results[job_result.position] = job_result
                            if on_result is not None:
                                on_result(job_result)
                        except FutureTimeout:
                            future.cancel()
                            clean = False
                            error = f"timed out after {cfg.timeout_s:g}s"
                        except BrokenProcessPool:
                            clean = False
                            error = "worker process died"
                        except Exception as exc:  # noqa: BLE001
                            error = f"{type(exc).__name__}: {exc}"
                    if error is None:
                        continue
                    if attempt < cfg.retries:
                        pending.append((entry, attempt + 1))
                    else:
                        position, key, _job = entry
                        results[position] = JobResult(
                            position=position, key=key, ok=False,
                            error=error, attempts=attempt + 1)
                        if on_result is not None:
                            on_result(results[position])
        finally:
            # A timed-out worker may still be running its job; waiting
            # for it would defeat the timeout, so release the pool
            # without joining in that case.
            pool.shutdown(wait=clean, cancel_futures=True)
