"""Sweep planning: job lists and shard plans for (P_max, P_min) grids.

The planner is the first of the engine's three layers (plan → execute →
merge).  It turns a *sweep spec* — one or more workloads crossed with a
``budgets x levels`` power grid — into the ordered
:class:`~repro.engine.jobs.SolveJob` list a
:class:`~repro.engine.runner.BatchRunner` consumes, and partitions any
job list into N *shard manifests* for distributed execution
(:class:`~repro.engine.backends.SubprocessShardBackend`,
:class:`~repro.engine.backends.RemoteBackend`, the ``repro shard``
CLI).

Partition strategies
--------------------
Both strategies deal *points* — jobs of one workload (their
:func:`~repro.engine.hashing.problem_base_key`) at one ``(p_max,
p_min)`` — not positions: every copy of a point (a clamped duplicate
corner) goes to its point's shard, so no two shards solve one point.

``"tile"`` (default)
    Locality-aware: points are grouped by workload, each workload's
    points are ordered along the power plane ``(p_max, p_min)``, and
    every workload is cut into N *contiguous* runs — one tile per
    shard.  Contiguity is what makes the per-shard
    :class:`~repro.engine.schedule_store.ScheduleStore` effective: a
    schedule solved at one point of a tile has a validity rectangle
    ``[peak, inf) x (-inf, floor]`` that preferentially covers the
    tile's *neighbouring* points, so keeping neighbours on the same
    shard maximizes in-shard range hits.  Tiles rotate across shards
    per workload so multi-workload sweeps still balance.
``"round_robin"``
    The ``i``-th distinct point goes to shard ``i % N`` — the
    locality-blind fallback (and the benchmark's control arm).

Both strategies produce a true partition: every job lands on exactly
one shard, shards keep their jobs in ascending global-position order,
and merging shard results by position restores the original submission
order exactly (property-tested in ``tests/test_planner.py``).

Shard manifests serialize as the documented ``repro-shard-manifest``
v1 JSON format — see :mod:`repro.io.shards` and ``docs/formats.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..core.problem import SchedulingProblem
from ..scheduling.base import SchedulerOptions
from .hashing import problem_base_key
from .jobs import SolveJob

__all__ = ["PARTITION_STRATEGIES", "SweepSpec", "ShardManifest",
           "ShardPlan", "plan_shards"]

#: Partition strategies :func:`plan_shards` understands.
PARTITION_STRATEGIES = ("tile", "round_robin")


@dataclass(frozen=True)
class SweepSpec:
    """One or more workloads crossed with a power grid.

    ``budgets`` are the ``P_max`` values, ``levels`` the ``P_min``
    values; like :func:`repro.analysis.sweep.sweep_grid`, each pair is
    clamped to the physically meaningful ``p_min <= p_max`` corner
    (``(budget, min(level, budget))``) and the resulting duplicate
    corner jobs are kept — the runner's dedup serves them from the
    first occurrence, so planned results match ``sweep_grid`` output
    point for point.

    ``freq_levels`` adds the DVFS axis: when non-empty, every planned
    job's problem gets a uniform operating-point ladder over those
    frequency rungs (:func:`repro.core.dvfs.attach_ladder`), so the
    power-aware pipeline's ``freq_select`` front-end may slow tasks.
    The ladder flows into :func:`~repro.engine.hashing.
    problem_base_key`, so tile partitioning keeps ladder and
    ladder-free variants of the same workload in separate groups, and
    such jobs are schedule-store-exempt (DESIGN.md 5f).
    """

    problems: "tuple[SchedulingProblem, ...]"
    budgets: "tuple[float, ...]"
    levels: "tuple[float, ...]"
    options: "SchedulerOptions | None" = None
    kind: str = "sweep_point"
    name: str = "sweep"
    freq_levels: "tuple[float, ...]" = ()

    @staticmethod
    def grid(problem: "SchedulingProblem | Iterable[SchedulingProblem]",
             budgets: "Iterable[float]", levels: "Iterable[float]",
             options: "SchedulerOptions | None" = None,
             kind: str = "sweep_point", name: str = "sweep",
             freq_levels: "Iterable[float]" = ()) \
            -> "SweepSpec":
        """Build a spec from one problem or an iterable of problems."""
        if isinstance(problem, SchedulingProblem):
            problems: "tuple[SchedulingProblem, ...]" = (problem,)
        else:
            problems = tuple(problem)
        return SweepSpec(problems=problems, budgets=tuple(budgets),
                         levels=tuple(levels), options=options,
                         kind=kind, name=name,
                         freq_levels=tuple(freq_levels))

    def points(self) -> "list[tuple[float, float]]":
        """Row-major (budget-outer) clamped ``(p_max, p_min)`` pairs."""
        return [(budget, min(level, budget))
                for budget in self.budgets for level in self.levels]

    def jobs(self) -> "list[SolveJob]":
        """The ordered job list: problems outer, grid points inner."""
        pairs = self.points()
        problems = self.problems
        if self.freq_levels:
            from ..core.dvfs import attach_ladder
            problems = tuple(attach_ladder(problem, self.freq_levels)
                             for problem in problems)
        return [SolveJob(problem=problem.with_power_constraints(p_max,
                                                                p_min),
                         kind=self.kind, options=self.options)
                for problem in problems
                for p_max, p_min in pairs]


@dataclass
class ShardManifest:
    """One shard's slice of a planned sweep.

    ``jobs`` are ``(global_position, job)`` pairs in ascending position
    order; positions index into the *full* planned job list, so merged
    shard results interleave back into submission order.  ``runner``
    carries the execution knobs a shard worker should honour
    (``retries``, ``instrument``, ``trace``); ``store`` optionally
    carries a schedule-store document: the shard reuses schedules
    exactly when one is shipped, under the policy it names, starting
    from whatever entries the parent already primed.
    """

    index: int
    of: int
    strategy: str
    jobs: "list[tuple[int, SolveJob]]"
    sweep: str = "sweep"
    runner: "dict[str, Any]" = field(default_factory=dict)
    store: "dict[str, Any] | None" = None

    def positions(self) -> "list[int]":
        """The global positions this shard covers, in order."""
        return [position for position, _job in self.jobs]

    def __len__(self) -> int:
        return len(self.jobs)


@dataclass
class ShardPlan:
    """A full partition of one planned job list."""

    strategy: str
    manifests: "list[ShardManifest]"

    @property
    def shards(self) -> int:
        return len(self.manifests)

    def positions(self) -> "list[int]":
        """All covered global positions, ascending."""
        return sorted(position for manifest in self.manifests
                      for position in manifest.positions())

    def __iter__(self):
        return iter(self.manifests)

    def __len__(self) -> int:
        return len(self.manifests)


def plan_shards(jobs: "Sequence[SolveJob] | Sequence[tuple[int, SolveJob]]",
                shards: int, strategy: str = "tile", *,
                sweep: str = "sweep",
                runner: "dict[str, Any] | None" = None,
                store: "dict[str, Any] | None" = None) -> ShardPlan:
    """Partition a job list into ``shards`` manifests.

    ``jobs`` is either a plain job sequence (positions are the
    indices) or already-positioned ``(position, job)`` pairs (the
    backends pass their deduplicated entries this way, where cache
    hits have left holes in the position space).  Empty shards are
    legal — a 4-shard plan of 2 jobs has two empty manifests.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if strategy not in PARTITION_STRATEGIES:
        raise ValueError(
            f"unknown partition strategy {strategy!r}; "
            f"pick from {PARTITION_STRATEGIES}")
    pairs: "list[tuple[int, SolveJob]]" = []
    for index, item in enumerate(jobs):
        if isinstance(item, SolveJob):
            pairs.append((index, item))
        else:
            position, job = item
            pairs.append((int(position), job))
    points: "dict[tuple[str, float, float], list]" = {}
    for pair in pairs:
        job = pair[1]
        base = problem_base_key(job.problem, job.options, kind=job.kind)
        points.setdefault((base, job.problem.p_max, job.problem.p_min),
                          []).append(pair)
    partition = _round_robin_partition if strategy == "round_robin" \
        else _tile_partition
    manifests = [ShardManifest(index=index, of=shards,
                               strategy=strategy,
                               jobs=sorted(pair for _point, copies
                                           in bucket for pair in copies),
                               sweep=sweep,
                               runner=dict(runner or {}),
                               store=store)
                 for index, bucket in enumerate(
                     partition(list(points.items()), shards))]
    return ShardPlan(strategy=strategy, manifests=manifests)


def _round_robin_partition(points, shards):
    """First-seen-order dealing: point ``i`` goes to shard ``i % N``."""
    buckets: "list[list]" = [[] for _ in range(shards)]
    for index, point in enumerate(points):
        buckets[index % shards].append(point)
    return buckets


def _tile_partition(points, shards):
    """Contiguous power-plane tiles per workload, rotated across shards.

    Points are grouped by workload base key (first-seen order kept for
    determinism), each group is ordered along ``(p_max, p_min)``, and
    split into ``shards`` balanced contiguous runs; group ``g``'s run
    ``r`` lands on shard ``(r + g) % shards`` so a multi-workload
    sweep spreads every workload's tiles over all shards instead of
    piling workload 0's cheap corner onto shard 0.
    """
    groups: "dict[str, list]" = {}
    for point in points:
        groups.setdefault(point[0][0], []).append(point)
    buckets: "list[list]" = [[] for _ in range(shards)]
    for group_index, members in enumerate(groups.values()):
        ordered = sorted(members, key=lambda point: point[0])
        for run_index, run in enumerate(_balanced_runs(ordered, shards)):
            buckets[(run_index + group_index) % shards].extend(run)
    return buckets


def _balanced_runs(ordered, shards):
    """Cut a list into ``shards`` contiguous runs of near-equal size."""
    base, extra = divmod(len(ordered), shards)
    runs = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        runs.append(ordered[start:start + size])
        start += size
    return runs
