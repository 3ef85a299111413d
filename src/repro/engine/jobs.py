"""Solve jobs: the unit of work the batch runner dispatches.

A :class:`SolveJob` is a picklable description of one independent solve
— a problem, a full options configuration (seed included), and a *kind*
naming the worker function that turns the problem into a small result
payload.  Kinds are registered in a module-level registry so the
callable itself never has to cross a process boundary; worker processes
resolve the name locally (inherited via fork, re-imported via spawn).

Built-in kinds
--------------
``"sweep_point"``
    Run the full power-aware pipeline and return a
    :class:`~repro.analysis.sweep.SweepPoint` (infeasible problems give
    a ``feasible=False`` point rather than an error).

Schedule reuse: every kind function is called as ``fn(job, store)``,
where ``store`` is the runner's
:class:`~repro.engine.schedule_store.ScheduleStore` or ``None`` when
the runner holds none.  A job served from the store marks
``stats["reuse"]["hit"] = True`` and skips the pipeline entirely; a job
that solved records its final schedule into the store and ships any new
entries back through ``stats["reuse"]["new_entries"]`` so the parent
process can merge them (:func:`run_job` drains the store journal after
each job).  A kind that has no use for a store ignores the parameter.

Determinism: a job's randomness flows entirely from ``options.seed``.
:func:`derive_seed` produces stable per-job seeds from a base seed and
a job index — the same arithmetic on every platform and process, so
serial and parallel executions of the same batch are identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from ..core.problem import SchedulingProblem
from ..scheduling.base import SchedulerOptions
from .hashing import problem_key

__all__ = ["SolveJob", "JobResult", "derive_seed", "register_kind",
           "run_job", "solve_problems"]


def derive_seed(base_seed: int, index: int) -> int:
    """A stable, well-spread per-job seed (no Python ``hash()``)."""
    mixed = (base_seed * 1_000_003 + index * 7919 + 12345) & 0x7FFFFFFF
    return mixed


@dataclass(frozen=True)
class SolveJob:
    """One independent solve: problem + options + worker kind."""

    problem: SchedulingProblem
    kind: str = "sweep_point"
    options: "SchedulerOptions | None" = None
    tags: "Mapping[str, Any]" = field(default_factory=dict)

    def key(self) -> str:
        """Canonical cache key for this job's complete input."""
        return problem_key(self.problem, self.options, kind=self.kind)


@dataclass
class JobResult:
    """Outcome of one job: payload plus execution bookkeeping."""

    position: int
    key: str
    value: Any = None
    ok: bool = True
    error: "str | None" = None
    attempts: int = 0
    elapsed_s: float = 0.0
    cached: bool = False
    stats: "dict[str, Any]" = field(default_factory=dict)


# ----------------------------------------------------------------------
# worker-kind registry
# ----------------------------------------------------------------------

_KINDS: "dict[str, Callable[..., tuple[Any, dict]]]" = {}


def register_kind(name: str,
                  fn: "Callable[..., tuple[Any, dict]]") -> None:
    """Register a worker function ``(job, store) -> (value, stats)``.

    ``store`` is the runner's schedule store, or ``None`` when the
    runner holds none.  Must be called at import time of a real module
    so that spawned worker processes see the registration too; with
    the default ``fork`` start method the parent's registry is
    inherited directly.
    """
    _KINDS[name] = fn


def _solve_sweep_point(job: SolveJob, store) -> "tuple[Any, dict]":
    from ..analysis.sweep import SweepPoint
    from ..errors import SchedulingFailure
    from ..scheduling.power_aware import PowerAwareScheduler

    problem = job.problem
    options = job.options or SchedulerOptions()
    # DVFS problems are store-exempt (DESIGN.md 5f): the freq_select
    # front-end reads P_max, so neither serving from nor recording into
    # the validity-rectangle store is sound for them.
    use_store = store is not None and not problem.has_operating_points
    if use_store:
        base_key = store.ensure_primed(problem, options, kind=job.kind)
        entry = store.probe(base_key, problem.p_max, problem.p_min)
        if entry is not None:
            return _serve_stored_point(problem, entry)
    try:
        result = PowerAwareScheduler(options).solve(problem)
    except SchedulingFailure:
        stats = {"reuse": {"hit": False}} if store is not None else {}
        return (SweepPoint(p_max=problem.p_max, p_min=problem.p_min,
                           feasible=False), stats)
    stats = result.stats.as_dict()
    if use_store:
        store.record_result(base_key, problem, result)
    if store is not None:
        stats["reuse"] = {"hit": False}
    point = SweepPoint(
        p_max=problem.p_max, p_min=problem.p_min, feasible=True,
        finish_time=result.finish_time,
        energy_cost=result.energy_cost,
        utilization=result.utilization,
        peak_power=result.metrics.peak_power)
    return point, stats


def _serve_stored_point(problem: SchedulingProblem, entry) \
        -> "tuple[Any, dict]":
    """Materialize a stored schedule as this environment's SweepPoint.

    The stored start times are rebuilt against the job's own graph and
    re-evaluated under the job's ``(p_max, p_min)`` — metrics are
    *computed*, never copied, so a served point carries exactly the
    numbers a fresh solve of the same schedule would report.
    """
    from ..analysis.sweep import SweepPoint
    from ..core.metrics import evaluate

    schedule = entry.rebuild(problem)
    metrics = evaluate(schedule, problem.p_max, problem.p_min,
                       baseline=problem.baseline)
    point = SweepPoint(
        p_max=problem.p_max, p_min=problem.p_min, feasible=True,
        finish_time=metrics.finish_time,
        energy_cost=metrics.energy_cost,
        utilization=metrics.utilization,
        peak_power=metrics.peak_power)
    stats = {"reuse": {"hit": True, "label": entry.label,
                       "stage": entry.stage,
                       "peak": entry.peak, "floor": entry.floor}}
    return point, stats


register_kind("sweep_point", _solve_sweep_point)


# ----------------------------------------------------------------------
# execution (runs in workers and in the serial fallback alike)
# ----------------------------------------------------------------------

def run_job(job: SolveJob, position: int = 0, key: "str | None" = None,
            retries: int = 0, instrument: bool = False,
            store=None) -> JobResult:
    """Execute one job with capped in-place retry.

    Scheduler-level infeasibility is a *result* (the kind functions
    encode it in their payload); only unexpected exceptions trigger a
    retry, and after ``retries + 1`` attempts the error is reported in
    the :class:`JobResult` rather than raised, so one bad point never
    sinks a batch.

    With ``instrument=True`` the job runs inside an isolated
    :func:`repro.obs.capture` session: every span the solve records
    (pipeline stages, longest-path recomputes) plus any metrics land in
    ``result.stats["obs"]`` — span times relative to the job start,
    anchored by a ``wall0`` wall-clock timestamp — so the parent
    process (serial caller and pool worker alike) can re-parent the
    tree under its own job span and merge the metric increments.

    ``store`` (a :class:`~repro.engine.schedule_store.ScheduleStore`
    or ``None``) is passed to the kind function; entries the job
    inserted are drained from the store journal into
    ``result.stats["reuse"]["new_entries"]``, and the duplicates it
    suppressed are counted in ``result.stats["reuse"]["deduped"]``, so
    pool workers ship both back to the parent (the serial path shares
    the live store, where both are simply redundant with what it
    already holds and counts).
    """
    fn = _KINDS.get(job.kind)
    key = key if key is not None else job.key()
    if fn is None:
        return JobResult(position=position, key=key, ok=False,
                         error=f"unknown job kind {job.kind!r}")
    deduped0 = store.deduped if store is not None else 0
    last_error = ""
    capture_ctx = None
    if instrument:
        from ..obs import capture
        capture_ctx = capture()
        capture_ctx.__enter__()
    t0 = time.perf_counter()
    result: "JobResult | None" = None
    try:
        for attempt in range(1, max(1, retries + 1) + 1):
            try:
                value, stats = fn(job, store)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            result = JobResult(position=position, key=key, value=value,
                               ok=True, attempts=attempt,
                               elapsed_s=time.perf_counter() - t0,
                               stats=stats)
            break
        if result is None:
            result = JobResult(position=position, key=key, ok=False,
                               error=last_error,
                               attempts=max(1, retries + 1),
                               elapsed_s=time.perf_counter() - t0)
    finally:
        if capture_ctx is not None:
            capture_ctx.__exit__(None, None, None)
    if capture_ctx is not None:
        result.stats = dict(result.stats)
        result.stats["obs"] = {
            "wall0": capture_ctx.wall0,
            "spans": [span.to_dict() for span in capture_ctx.spans],
            "metrics": capture_ctx.metrics_data,
        }
    # A service-backed store keeps its journal: the serving batcher
    # pushes it wholesale after the batch (RemoteScheduleStore.sync);
    # draining it into per-job stats here would strand every solved
    # entry on this instance — only snapshot modes need the delta
    # shipped through the result.  The dedups this store suppressed
    # ship too: a snapshot's never reach the parent's counter.
    if store is not None and not getattr(store, "remote", False):
        new_entries = store.drain_journal()
        deduped = store.deduped - deduped0
        if new_entries or deduped:
            result.stats = dict(result.stats)
            reuse = dict(result.stats.get("reuse") or {})
            if new_entries:
                reuse["new_entries"] = new_entries
            if deduped:
                reuse["deduped"] = deduped
            result.stats["reuse"] = reuse
    return result


def solve_problems(problems: "Iterable[SchedulingProblem]",
                   options: "SchedulerOptions | None" = None,
                   runner=None) -> "list[Any]":
    """Batch-solve a workload set into sweep points.

    Convenience front-end for workload batches (e.g.
    :func:`repro.workloads.random_problems` output): one
    ``"sweep_point"`` job per problem through ``runner`` (a
    :class:`~repro.engine.runner.BatchRunner`; a serial one is created
    when omitted).
    """
    from .runner import BatchRunner
    jobs = [SolveJob(problem=problem, options=options)
            for problem in problems]
    runner = runner or BatchRunner()
    return runner.run_values(jobs)
