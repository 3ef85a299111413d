"""Cross-process reuse of solved schedules via validity ranges.

The paper's Section 5.3 observation — the improved Fig. 7 schedule
"can be directly applied to all cases with a range of constraints where
``P_max >= 16``, ``P_min <= 14``, without recomputing a schedule for
each case" — is what :class:`~repro.scheduling.runtime.ScheduleEntry`
implements for one in-process :class:`RuntimeScheduler`.  This module
lifts the same validity-range math into the batch engine so *sweep and
Monte Carlo jobs* skip solves whose environment falls inside an
already-stored schedule's range, across worker processes and across
runs (the store round-trips through JSON).

Indexing: entries are grouped by :func:`~repro.engine.hashing.
problem_base_key` — the canonical problem hash *minus* the power
constraints, plus the options fingerprint and job kind — so reuse can
only ever pair a query with the exact same workload solved under a
different ``(P_max, P_min)``.

Two reuse policies, chosen per store:

``"identical"`` (default)
    Serve only entries certified to be *bit-for-bit identical* to what
    a fresh solve at the query point would return.  The certified
    entries are the timing-stage schedules: the timing scheduler never
    reads the power constraints, so its schedule ``sigma_t`` is one
    fixed function of (workload, options); and for any query with
    ``P_max >= peak(sigma_t)`` and ``P_min <= floor(sigma_t)`` the
    max-power stage finds no spikes (every restart returns ``sigma_t``
    unchanged, compaction has nothing to relax, and the serial fallback
    cannot strictly beat it — see :meth:`ScheduleStore.ensure_primed`),
    and the min-power stage sees utilization 1 and makes no move.  The
    full pipeline is therefore constant over the rectangle
    ``[peak, inf) x (-inf, floor]``, and serving the stored schedule
    reproduces a fresh solve exactly — metrics included.

``"valid"``
    The paper's Fig. 7 semantics: serve the best (earliest-finishing)
    stored schedule whose rectangle covers the query, whatever stage
    produced it.  Every served schedule is provably time- and
    power-valid with full utilization at the query point, but a fresh
    heuristic solve with a looser budget might have found a *faster*
    schedule — this mode trades exactness for more reuse and is
    opt-in (``sweep --reuse-policy valid``).

Accounting: :meth:`probe` is side-effect-free; hit/miss counters are
owned by whoever orchestrates the probes (the
:class:`~repro.engine.runner.BatchRunner` credits its parent store from
per-job reuse markers, so serial and parallel runs account identically)
— the same discipline :meth:`ResultCache.peek` brings to the exact
cache.  Worker processes receive a snapshot of the store, record new
entries into their copy, and ship the delta back inside
``JobResult.stats["reuse"]``; the parent merges the deltas with
duplicate suppression, mirroring how worker span forests are re-based
into the parent trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..core.problem import SchedulingProblem
from ..core.profile import PowerProfile
from ..core.schedule import Schedule
from ..errors import SerializationError
from ..files import check_envelope, read_json, typed, write_json
from ..scheduling.runtime import in_validity_range
from .hashing import problem_base_key

__all__ = ["StoredSchedule", "ScheduleStore", "REUSE_POLICIES"]

STORE_FORMAT = "repro-schedule-store"
STORE_VERSION = 1

#: Reuse policies a store can run under.
REUSE_POLICIES = ("identical", "valid")

#: Stage label of entries certified for identical-policy reuse.
CERTIFIED_STAGE = "timing"


@dataclass(frozen=True)
class StoredSchedule:
    """One reusable schedule with its validity rectangle.

    ``starts`` is the plain start-time map (the only part a worker
    needs to rebuild the schedule against its own copy of the problem
    graph); ``peak``/``floor`` are the profile extrema that define the
    validity rectangle ``[peak, inf) x (-inf, floor]``; ``stage`` is
    ``"timing"`` for entries certified for identical-policy reuse and
    the producing pipeline stage otherwise.
    """

    label: str
    stage: str
    starts: "tuple[tuple[str, int], ...]"
    makespan: int
    peak: float
    floor: float
    solved_p_max: "float | None" = None
    solved_p_min: "float | None" = None

    @property
    def min_p_max(self) -> float:
        """Smallest budget this schedule is power-valid under."""
        return self.peak

    @property
    def max_full_p_min(self) -> float:
        """Largest free-power level at which utilization is still 1."""
        return self.floor

    def covers(self, p_max: float, p_min: float) -> bool:
        """Is ``(p_max, p_min)`` inside the validity rectangle?"""
        return in_validity_range(self.peak, self.floor, p_max, p_min)

    def rebuild(self, problem: SchedulingProblem) -> Schedule:
        """The stored schedule materialized against ``problem``'s graph."""
        return Schedule(problem.graph, dict(self.starts))

    def describe(self) -> str:
        """Human-readable validity range, Fig.-7 style."""
        return (f"{self.label}: valid for P_max >= {self.peak:g} W, "
                f"full utilization for P_min <= {self.floor:g} W, "
                f"tau = {self.makespan} s [{self.stage}]")

    def to_dict(self) -> "dict[str, Any]":
        return {
            "label": self.label,
            "stage": self.stage,
            "starts": dict(self.starts),
            "makespan": self.makespan,
            "peak": self.peak,
            "floor": self.floor,
            "solved_p_max": self.solved_p_max,
            "solved_p_min": self.solved_p_min,
        }

    @classmethod
    def from_dict(cls, doc: "Mapping[str, Any]") -> "StoredSchedule":
        try:
            starts = tuple(sorted(
                (str(name), int(start))
                for name, start in doc["starts"].items()))
            entry = cls(label=doc.get("label", ""),
                        stage=doc.get("stage", "min_power"),
                        starts=starts,
                        makespan=int(doc["makespan"]),
                        peak=float(doc["peak"]),
                        floor=float(doc["floor"]),
                        solved_p_max=doc.get("solved_p_max"),
                        solved_p_min=doc.get("solved_p_min"))
        except (KeyError, TypeError, ValueError, AttributeError,
                OverflowError) as exc:
            raise SerializationError(
                f"malformed schedule-store entry: {exc}") from exc
        # A NaN or negative level would poison every probe reading it.
        if entry.makespan < 0 \
                or any(start < 0 for _name, start in starts) \
                or not 0 <= entry.floor <= entry.peak < float("inf"):
            raise SerializationError(
                "malformed schedule-store entry: starts and makespan "
                "must be >= 0, and 0 <= floor <= peak finite")
        return entry

    @staticmethod
    def from_schedule(label: str, stage: str, schedule: Schedule,
                      baseline: float = 0.0,
                      solved_p_max: "float | None" = None,
                      solved_p_min: "float | None" = None) \
            -> "StoredSchedule":
        """Build an entry from a live schedule (range derived)."""
        profile = PowerProfile.from_schedule(schedule, baseline=baseline)
        starts = tuple(sorted((name, schedule.start(name))
                              for name in schedule))
        return StoredSchedule(label=label, stage=stage, starts=starts,
                              makespan=schedule.makespan,
                              peak=profile.peak(), floor=profile.floor(),
                              solved_p_max=solved_p_max,
                              solved_p_min=solved_p_min)


@dataclass
class _ProblemEntry:
    """All stored schedules of one base problem."""

    name: str = ""
    entries: "list[StoredSchedule]" = field(default_factory=list)


class ScheduleStore:
    """Validity-range schedule cache keyed by problem base hashes."""

    def __init__(self, policy: str = "identical"):
        if policy not in REUSE_POLICIES:
            raise ValueError(
                f"unknown reuse policy {policy!r}; "
                f"pick from {REUSE_POLICIES}")
        self.policy = policy
        self._problems: "dict[str, _ProblemEntry]" = {}
        #: Base keys whose timing-stage entry has been computed (or
        #: deliberately skipped); primed state ships with snapshots so
        #: workers never repeat the priming solve.
        self._primed: "set[str]" = set()
        #: Entries added since the last :meth:`drain_journal` — the
        #: delta a worker ships back to the parent.
        self._journal: "list[tuple[str, str, StoredSchedule]]" = []
        # Counters.  ``range_hits``/``misses`` are credited by the
        # orchestrator (see module docstring); the insertion counters
        # are maintained by the store itself.
        self.range_hits = 0
        self.misses = 0
        self.primes = 0
        self.inserted = 0
        self.deduped = 0

    # ------------------------------------------------------------------
    # lookup / insert
    # ------------------------------------------------------------------

    def base_key(self, problem: SchedulingProblem, options=None,
                 kind: str = "sweep_point") -> str:
        """The store's index key for a job's workload."""
        return problem_base_key(problem, options, kind=kind)

    def probe(self, base_key: str, p_max: float, p_min: float) \
            -> "StoredSchedule | None":
        """Best stored schedule covering ``(p_max, p_min)``, or None.

        Side-effect-free: counters are the orchestrator's job.  Under
        the ``"identical"`` policy only certified (timing-stage)
        entries are eligible; under ``"valid"`` every covering entry
        competes and the earliest-finishing one wins (all covering
        entries have full utilization at the query, so for a fixed task
        set the finish time alone orders their energy costs too).
        """
        bucket = self._problems.get(base_key)
        if bucket is None:
            return None
        best = None
        for entry in bucket.entries:
            if self.policy == "identical" \
                    and entry.stage != CERTIFIED_STAGE:
                continue
            if not entry.covers(p_max, p_min):
                continue
            if best is None or entry.makespan < best.makespan:
                best = entry
        return best

    def insert(self, base_key: str, entry: StoredSchedule,
               problem_name: str = "") -> bool:
        """Add an entry; duplicates (same start times) are suppressed.

        A base key whose bucket holds the certified timing entry is
        primed, however the entry arrived (a priming solve, a loaded
        document, a merged delta or a remote store), so
        :meth:`ensure_primed` never repeats that work.  Returns True
        when the entry was actually inserted.
        """
        if entry.stage == CERTIFIED_STAGE:
            self._primed.add(base_key)
        bucket = self._problems.setdefault(
            base_key, _ProblemEntry(name=problem_name))
        if not bucket.name and problem_name:
            bucket.name = problem_name
        if any(existing.starts == entry.starts
               for existing in bucket.entries):
            self.deduped += 1
            return False
        bucket.entries.append(entry)
        self.inserted += 1
        self._journal.append((base_key, bucket.name, entry))
        return True

    def record_result(self, base_key: str, problem: SchedulingProblem,
                      result) -> bool:
        """Store a pipeline-final :class:`ScheduleResult` on a miss.

        Final schedules are kept at their producing stage label; the
        ``"identical"`` policy never serves them (only the certified
        timing entry), but they power the ``"valid"`` policy and the
        ``table show`` inventory.
        """
        label = (f"solved@Pmax={problem.p_max:g}/"
                 f"Pmin={problem.p_min:g}")
        entry = StoredSchedule.from_schedule(
            label, result.stage, result.schedule,
            baseline=problem.baseline,
            solved_p_max=problem.p_max, solved_p_min=problem.p_min)
        return self.insert(base_key, entry, problem_name=problem.name)

    # ------------------------------------------------------------------
    # priming (the certified timing-stage entry)
    # ------------------------------------------------------------------

    def ensure_primed(self, problem: SchedulingProblem, options=None,
                      kind: str = "sweep_point") -> str:
        """Compute and store the certified timing entry once per base.

        The timing scheduler ignores the power constraints, so one
        timing solve certifies the whole rectangle
        ``[peak(sigma_t), inf) x (-inf, floor(sigma_t)]`` for
        identical-policy reuse — with one guard: the max-power stage's
        serial fallback could in principle produce a schedule that
        finishes *strictly earlier* than ``sigma_t`` (a different
        serialization of a timing-heuristic-hostile instance), in which
        case a fresh solve inside the rectangle would return the serial
        schedule instead.  The guard runs the max-power stage's own
        serial fallback search
        (:func:`~repro.scheduling.max_power.serial_fallback_schedule`)
        once, bounded by ``finish_by = tau(sigma_t) - 1``, and skips
        certification when its schedule finishes strictly earlier than
        ``sigma_t``; ties are safe because the pipeline keeps its first
        candidate (``sigma_t``) on ties.

        Returns the base key.  Idempotent per base key, and the primed
        set ships with worker snapshots, so the priming cost is one
        timing + one bounded serial solve per distinct workload.

        DVFS exemption (DESIGN.md section 5f): problems carrying
        operating-point ladders are never certified.  The pipeline
        fronting them (``freq_select``) reads ``P_max`` to choose a
        configuration, so its output is *not* constant over a power
        rectangle, and stored starts would reference scaled durations
        that a rebuild against the unscaled graph cannot reproduce.
        The base key is still computed (ladders are part of the
        canonical hash, so it can never collide with a speed-fixed
        workload) and marked primed so the check is paid once.
        """
        base_key = self.base_key(problem, options, kind=kind)
        if base_key in self._primed:
            return base_key
        if problem.has_operating_points:
            self._primed.add(base_key)
            return base_key
        self._primed.add(base_key)
        self.primes += 1
        from ..errors import SchedulingFailure
        from ..scheduling.base import SchedulerOptions
        from ..scheduling.max_power import serial_fallback_schedule
        from ..scheduling.timing import TimingScheduler
        opts = options or SchedulerOptions()
        try:
            timing = TimingScheduler(opts).solve(problem)
        except SchedulingFailure:
            # Timing infeasibility is power-independent: no environment
            # can be served, so there is nothing to certify.
            return base_key
        # Only a serial schedule finishing strictly before sigma_t can
        # break the certification.
        tau = timing.schedule.makespan
        try:
            serial = serial_fallback_schedule(problem, opts,
                                              finish_by=tau - 1)
        except SchedulingFailure:
            serial = None
        if serial is not None and serial.schedule.makespan < tau:
            return base_key
        entry = StoredSchedule.from_schedule(
            f"timing@{problem.name or 'problem'}", CERTIFIED_STAGE,
            timing.schedule, baseline=problem.baseline)
        self.insert(base_key, entry, problem_name=problem.name)
        return base_key

    # ------------------------------------------------------------------
    # cross-process plumbing
    # ------------------------------------------------------------------

    def drain_journal(self) -> "list[dict[str, Any]]":
        """Entries inserted since the last drain, as shippable dicts."""
        delta = [{"base_key": base_key, "name": name,
                  "entry": entry.to_dict()}
                 for base_key, name, entry in self._journal]
        self._journal.clear()
        return delta

    def merge_delta(self, delta: "Iterable[Mapping[str, Any]]") -> int:
        """Fold a worker's journal into this store; returns inserts."""
        merged = 0
        for item in delta:
            entry = StoredSchedule.from_dict(item["entry"])
            if self.insert(item["base_key"], entry,
                           problem_name=item.get("name", "")):
                merged += 1
        return merged

    def snapshot(self) -> "ScheduleStore":
        """A counter-free copy to ship to worker processes."""
        clone = ScheduleStore(policy=self.policy)
        for base_key, bucket in self._problems.items():
            clone._problems[base_key] = _ProblemEntry(
                name=bucket.name, entries=list(bucket.entries))
        clone._primed = set(self._primed)
        return clone

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(bucket.entries)
                   for bucket in self._problems.values())

    @property
    def problems(self) -> "dict[str, _ProblemEntry]":
        """Read-only view of the ``base_key -> bucket`` map."""
        return dict(self._problems)

    def counters(self) -> "dict[str, int]":
        """Counter snapshot for traces, metrics, and CLI summaries."""
        return {"range_hits": self.range_hits, "misses": self.misses,
                "primes": self.primes, "inserted": self.inserted,
                "deduped": self.deduped, "entries": len(self)}

    def describe(self) -> "list[str]":
        """Fig.-7-style validity lines for every stored schedule."""
        lines = []
        for base_key, bucket in sorted(self._problems.items()):
            title = bucket.name or "problem"
            lines.append(f"{title} [{base_key[:12]}]:")
            for entry in bucket.entries:
                lines.append(f"  {entry.describe()}")
        return lines

    def __repr__(self) -> str:
        return (f"ScheduleStore(policy={self.policy!r}, "
                f"problems={len(self._problems)}, entries={len(self)}, "
                f"range_hits={self.range_hits}, misses={self.misses})")

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------

    def to_dict(self) -> "dict[str, Any]":
        return {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "policy": self.policy,
            "problems": {
                base_key: {
                    "name": bucket.name,
                    "entries": [entry.to_dict()
                                for entry in bucket.entries],
                }
                for base_key, bucket in sorted(self._problems.items())
            },
            "counters": self.counters(),
        }

    @classmethod
    def from_dict(cls, doc: "Mapping[str, Any]",
                  policy: "str | None" = None) -> "ScheduleStore":
        """Rebuild a store from its JSON document.

        ``policy`` overrides the document's recorded policy (the policy
        governs lookups, not the stored data, so a store written under
        one policy is freely reusable under the other).  Counters are
        *not* restored — they describe past runs, not the store.
        """
        check_envelope(doc, STORE_FORMAT, STORE_VERSION)
        try:
            store = cls(policy=policy or doc.get("policy", "identical"))
        except ValueError as exc:
            raise SerializationError(str(exc)) from exc
        for base_key, bucket in typed(doc.get("problems", {}), dict,
                                      "problems").items():
            bucket = typed(bucket, dict, "problem bucket")
            for entry_doc in typed(bucket.get("entries", []), list,
                                   "entries"):
                store.insert(base_key, StoredSchedule.from_dict(entry_doc),
                             problem_name=typed(bucket.get("name", ""),
                                                str, "name"))
        # Loaded entries are history, not this process's delta, and
        # insertion counters restart at zero for the same reason.
        store._journal.clear()
        store.inserted = 0
        store.deduped = 0
        return store

    def write(self, path: str) -> str:
        """Write the store as pretty-printed JSON; returns ``path``."""
        return write_json(path, self.to_dict())

    @classmethod
    def read(cls, path: str,
             policy: "str | None" = None) -> "ScheduleStore":
        """Read a store JSON file."""
        return read_json(path, lambda doc: cls.from_dict(doc,
                                                         policy=policy))
