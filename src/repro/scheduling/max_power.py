"""Max-power scheduler — the paper's Fig. 4 algorithm.

Takes a time-valid schedule and eliminates every *power spike*
(interval where the profile exceeds the hard budget ``P_max``) by
delaying simultaneously-active tasks, guided by slack-based heuristics:

1. at the earliest spike time ``t``, order the active tasks by slack
   ``Delta_sigma`` and delay the largest-slack task first;
2. bound each delay distance by the task's slack (when positive) and by
   its execution time;
3. when only zero-slack tasks remain, a delay cascades through the
   graph (``reschedule`` in the paper): successors shift right via the
   longest-path recomputation, and the remaining simultaneous tasks are
   locked at their current start times so the repair stays local;
4. on a dead end, backtrack and delay a different task first.

Delays and locks are materialized as graph edges (release-time edges
tagged ``"delay"``/``"lock"``), so the resulting schedule is always the
plain ASAP solution of the decorated graph — time-validity is inherited
from the constraint propagation rather than re-proved per move.

Two quality extensions beyond the pseudo-code (both measurable via
:class:`~repro.scheduling.base.SchedulerOptions` and the ablation
bench):

* **compaction** — a left-shift pass that relaxes scheduler-added delay
  edges after the spikes are gone, reclaiming idle time the greedy
  repair strands at the front of the schedule;
* **multi-start** — the repair is restarted a few times with perturbed
  tie-breaking (the paper's ordering is slack-based but ties are
  unspecified), and the best schedule by (finish time, energy cost)
  wins.

Like the paper's algorithm this remains a *heuristic, bounded* search:
it does not enumerate all partial orders, so in rare cases it can fail
even though a valid schedule exists (the optimal-gap benchmark
quantifies this).  It raises :class:`SchedulingFailure` in that case.
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
from bisect import bisect_right

from ..core.graph import ConstraintGraph
from ..core.longest_path import predecessor_children, predecessor_subtrees
from ..core.problem import SchedulingProblem
from ..core.profile import PowerProfile
from ..core.schedule import Schedule
from ..core.slack import slack
from ..core.task import ANCHOR_NAME
from ..core.tolerance import POWER_TOL
from ..errors import SchedulingFailure
from ..obs import OBS
from .base import ScheduleResult, SchedulerOptions, SchedulerStats, \
    make_result
from .serial import SerialScheduler
from .timing import TimingScheduler, asap_schedule

__all__ = ["MaxPowerScheduler", "max_power_schedule",
           "serial_fallback_schedule", "SERIAL_FALLBACK_BACKTRACKS"]

#: Backtrack budget of the serial fallback's search.  The fallback is
#: opportunistic, so a serialization-hostile instance (max windows that
#: forbid a full serial order) fails fast instead of burning the
#: caller's time.
SERIAL_FALLBACK_BACKTRACKS = 200


def serial_fallback_schedule(problem: SchedulingProblem,
                             options: SchedulerOptions,
                             finish_by: "int | None" = None) \
        -> ScheduleResult:
    """Run the serial fallback's budgeted search for one problem.

    The search is :class:`SerialScheduler` under ``options`` with
    :data:`SERIAL_FALLBACK_BACKTRACKS` backtracks.  The max-power stage
    and the schedule store's certification guard both call this, so
    they always run the same search.  ``finish_by`` is passed through
    (see :meth:`SerialScheduler.solve`): callers set it to the last
    finish time at which a serial schedule could still matter to them.
    Raises :class:`SchedulingFailure` when there is no such schedule or
    the search gives up.
    """
    budgeted = dataclasses.replace(
        options, max_backtracks=SERIAL_FALLBACK_BACKTRACKS)
    return SerialScheduler(budgeted).solve(problem, finish_by=finish_by)


class MaxPowerScheduler:
    """Slack-heuristic spike elimination (paper Fig. 4)."""

    def __init__(self, options: "SchedulerOptions | None" = None):
        self.options = options or SchedulerOptions()
        self.stats = SchedulerStats()
        self._salt: "dict[str, float]" = {}
        self._rng = random.Random(self.options.seed)
        # salts of the restarts whose orders still agree with restart
        # 0's, while restart 0 runs (see solve)
        self._twins: "dict[int, dict[str, float]]" = {}

    # ------------------------------------------------------------------

    def solve(self, problem: SchedulingProblem,
              timing: "ScheduleResult | None" = None) -> ScheduleResult:
        """Produce a *valid* (time- and power-valid) schedule.

        Runs the timing scheduler first (as the paper's algorithm
        does), then removes spikes; with ``max_power_restarts > 1`` the
        repair is retried under perturbed tie-breaking and the best
        (finish time, energy cost) schedule is kept.  The returned
        result has ``stage="max_power"`` and carries the decorated
        graph in ``extra["graph"]``.

        A caller that has already run the timing stage under the same
        options passes its result as ``timing``: the restarts then copy
        its serialized graph (which is left untouched) instead of
        serializing again, and the timing stage's counters stay out of
        this result's stats, since that caller accounts for them.
        """
        reasons = problem.feasible_power_check()
        if reasons:
            raise SchedulingFailure(
                "problem is power-infeasible: " + "; ".join(reasons))
        self.stats = SchedulerStats()
        if timing is None:
            base_graph = problem.fresh_graph()
            scheduler = TimingScheduler(self.options)
            scheduler.schedule_graph(base_graph)  # adds serialization edges
            self.stats.merge(scheduler.stats)
        else:
            base_graph = timing.extra["graph"]

        # ((makespan, energy cost), schedule, graph, profile)
        best: "tuple | None" = None
        failures: "list[str]" = []

        def consider(schedule: Schedule, graph: ConstraintGraph,
                     profile: "PowerProfile | None" = None) -> None:
            nonlocal best
            if profile is None:
                profile = problem.profile(schedule)
            key = (float(schedule.makespan),
                   profile.energy_above(problem.p_min))
            if best is None or key < best[0]:
                best = (key, schedule, graph, profile)

        restarts = max(1, self.options.max_power_restarts)
        # Restart v > 0 differs from restart 0 only in the salt that
        # breaks its slack-and-power ties.  Restart 0 drops each one
        # whose salt would have ordered one of its candidate lists
        # differently (_ordered_active); the rest, its twins, would
        # replay it step for step (DESIGN.md §5p), so they do not run.
        self._twins = {}
        if self.options.slack_ordering:
            names = base_graph.task_names()
            self._twins = {
                variant: _tie_breaks(self.options.seed, variant, names)[1]
                for variant in range(1, restarts)}
        twins: "set[int]" = set()
        first = None
        for variant in range(restarts):
            with OBS.span("sched.maxp.restart",
                          variant=variant) as restart_span:
                if variant in twins:
                    # Restart 0's schedule again would tie its key, and
                    # its failure would repeat restart 0's message.
                    restart_span.set(skipped=True)
                    outcome = first
                else:
                    outcome = self._restart(base_graph, problem, variant)
                if variant == 0:
                    first, twins, self._twins = outcome, set(self._twins), {}
                if isinstance(outcome, str):
                    restart_span.set(failed=True)
                    failures.append(outcome)
                    continue
                restart_span.set(makespan=outcome[0].makespan)
            if variant not in twins:
                consider(*outcome)

        serial_outcome = ""
        if self.options.serial_fallback:
            # A serial schedule finishing after the best repair loses,
            # so the search runs only when it could tie or win.
            finish_by = None if best is None else best[1].makespan
            try:
                serial = self._serial_candidate(problem, finish_by)
            except SchedulingFailure as exc:
                serial_outcome = f"; serial fallback: {exc}"
            else:
                consider(*serial)

        if best is None:
            raise SchedulingFailure(
                f"max-power scheduler could not eliminate all spikes of "
                f"{problem.name!r} under P_max = {problem.p_max:g} W "
                f"({len(failures)} attempt(s); first failure: "
                f"{failures[0] if failures else 'n/a'}){serial_outcome}")
        _, schedule, graph, profile = best
        result = make_result(problem, schedule, stats=self.stats,
                             stage="max_power", profile=profile)
        result.extra["graph"] = graph
        return result

    def _restart(self, base_graph: ConstraintGraph,
                 problem: SchedulingProblem, variant: int) \
            -> "tuple[Schedule, ConstraintGraph] | str":
        """One repair restart on a copy of ``base_graph``: its schedule
        and graph, or the message it failed with."""
        graph = base_graph.copy()
        try:
            return self.eliminate_spikes(graph, problem,
                                         variant=variant), graph
        except SchedulingFailure as exc:
            return str(exc)

    def _serial_candidate(self, problem: SchedulingProblem,
                          finish_by: "int | None") \
            -> "tuple[Schedule, ConstraintGraph, PowerProfile]":
        """The fully-serialized schedule, its graph and its profile as
        an extra candidate.

        In tightly power-bounded regimes (the rover's worst case) the
        best valid schedule *is* the serial one — the paper observes
        that its worst-case power-aware schedule coincides with JPL's
        serial schedule.  Greedy spike repair can strand idle time that
        the serial packing avoids, so the serial schedule competes in
        the candidate pool whenever it is power-valid.  Raises
        :class:`SchedulingFailure` saying why there is no candidate:
        the search found no serial order, gave up, was skipped by
        ``finish_by``, or its schedule peaks above ``P_max``.
        """
        result = serial_fallback_schedule(problem, self.options,
                                          finish_by=finish_by)
        profile = result.profile
        if not profile.is_power_valid(problem.p_max):  # pragma: no cover
            # Defensive: one task at a time peaks at the largest task
            # power plus baseline, which feasible_power_check bounds.
            raise SchedulingFailure(
                f"the serial schedule of {problem.name!r} peaks at "
                f"{profile.peak():g} W, above P_max = "
                f"{problem.p_max:g} W")
        return result.schedule, result.extra["graph"], profile

    # ------------------------------------------------------------------

    def eliminate_spikes(self, graph: ConstraintGraph,
                         problem: SchedulingProblem,
                         variant: int = 0) -> Schedule:
        """Remove every spike from the ASAP schedule of ``graph``.

        The graph must already contain serialization edges (i.e. be the
        timing scheduler's output for ``problem``, whose profile and
        ``P_max`` define the spikes).  On success the graph has been
        decorated with the delay/lock edges that realize the valid
        schedule.  ``variant > 0`` perturbs heuristic tie-breaking
        (multi-start).
        """
        self._attempts = self.options.max_spike_attempts
        self._rng, self._salt = _tie_breaks(self.options.seed, variant,
                                            graph.task_names())
        # One recursion level per spike; deep schedules need headroom
        # beyond CPython's default limit.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 50_000))
        try:
            schedule = self._repair(graph, problem)
        finally:
            sys.setrecursionlimit(limit)
        if schedule is None:
            raise SchedulingFailure(
                f"max-power scheduler could not eliminate all spikes of "
                f"{graph.name!r} under P_max = {problem.p_max:g} W "
                f"(attempt budget {self.options.max_spike_attempts})")
        if self.options.compaction:
            schedule = self.compact(graph, problem)
        return schedule

    def _repair(self, graph: ConstraintGraph,
                problem: SchedulingProblem) -> "Schedule | None":
        """Recursive spike repair; None signals a failed branch."""
        schedule = asap_schedule(graph, probe=True)
        if schedule is None:
            return None
        profile = problem.profile(schedule)
        spike = profile.first_spike(problem.p_max)
        if spike is None:
            return schedule
        if self._attempts <= 0:
            return None

        t = spike.start
        candidates = self._ordered_active(schedule, t)
        # Branch on which task is delayed *first*; the greedy inner loop
        # handles the rest.  The first branch is the pure paper
        # heuristic (largest slack first).
        for lead in range(len(candidates)):
            if self._attempts <= 0:
                return None
            self._attempts -= 1
            self.stats.spike_attempts += 1
            token = graph.checkpoint()
            # Every branch starts from this edge set (the first as is,
            # the others rolled back to it), so it starts from this
            # schedule and profile too.
            cleared = self._clear_time(graph, problem, t, schedule,
                                       profile, prefer=candidates[lead])
            if cleared:
                self.stats.spikes_removed += 1
                solved = self._repair(graph, problem)
                if solved is not None:
                    return solved
            graph.rollback(token)
        return None

    # ------------------------------------------------------------------

    def _ordered_active(self, schedule: Schedule, t: int) -> "list[str]":
        """Active tasks at ``t`` in heuristic delay order.

        Paper heuristic: largest slack first (ties broken by smaller
        power, then by name — or by the multi-start salt).  With
        ``slack_ordering`` off (ablation), a seeded random order is
        used instead.
        """
        active = schedule.active_tasks(t)
        if not self.options.slack_ordering:
            names = [task.name for task in active]
            self._rng.shuffle(names)
            return names
        salt = self._salt
        keys = sorted((-slack(schedule, task.name), task.power,
                       salt.get(task.name, 0.0), task.name)
                      for task in active)
        if self._twins:
            self._drop_diverging_twins(keys)
        return [key[3] for key in keys]

    def _drop_diverging_twins(self, keys: "list[tuple]") -> None:
        """Forget every pending restart whose salt would order ``keys``,
        restart 0's sorted candidate list, differently.

        Restart 0 breaks each tie of (-slack, power) by name.  A salted
        restart orders a tie group the same way exactly when its salts
        do not decrease along the group, pair by adjacent pair.
        """
        for variant, salt in list(self._twins.items()):
            for first, second in zip(keys, keys[1:]):
                if first[0] == second[0] and first[1] == second[1] \
                        and salt[first[3]] > salt[second[3]]:
                    del self._twins[variant]
                    break

    def _clear_time(self, graph: ConstraintGraph,
                    problem: SchedulingProblem, t: int,
                    schedule: Schedule, profile: PowerProfile,
                    prefer: "str | None" = None) -> bool:
        """Delay tasks until the profile at slot ``t`` is within budget.

        ``schedule`` and ``profile`` are the ASAP schedule of the
        graph's current edge set and its profile.  The loop keeps them
        until the edge set changes, and solves a trial move once.

        Victims whose delay would contradict the constraints (positive
        cycle — e.g. a locked task) are skipped rather than failing the
        branch; the branch dead-ends only when no delayable active task
        remains.
        """
        budget = problem.p_max + PowerProfile.POWER_TOL
        baseline = problem.total_baseline
        guard = 4 * len(graph) + 8
        blocked: "set[str]" = set()
        zero_slack_delayed = False
        while guard > 0:
            guard -= 1
            if schedule is None:
                schedule = asap_schedule(graph, probe=True)
                if schedule is None:  # pragma: no cover - defensive
                    return False
                profile = None
            if baseline + schedule.power_at(t) <= budget:
                if zero_slack_delayed:
                    self._lock_remaining(graph, schedule, t)
                return True
            order = [n for n in self._ordered_active(schedule, t)
                     if n not in blocked]
            if not order:
                # Every active task is blocked — typically because an
                # earlier zero-slack repair locked it.  Paper Fig. 4:
                # when the recursion fails, "these locks will be undone
                # ... the algorithm will choose one task from them to
                # make further delay".  Unlock one and retry.
                if not self._unlock_one(graph, schedule, t, blocked):
                    return False
                schedule = None
                continue
            victim = prefer if prefer in order else order[0]
            prefer = None
            # Land just past the moment the power composition changes.
            if profile is None:
                profile = problem.profile(schedule)
            target = profile.segment_end(t)
            had_zero_slack = slack(schedule, victim) == 0
            token = graph.checkpoint()
            if not self._delay_past(graph, schedule, victim, t, target):
                blocked.add(victim)       # the edge set is unchanged
                continue
            trial = asap_schedule(graph, probe=True)
            if trial is None:
                graph.rollback(token)     # back to this schedule's edges
                blocked.add(victim)
                continue
            schedule, profile = trial, None
            self.stats.delays_applied += 1
            if had_zero_slack:
                zero_slack_delayed = True
        return False

    def _delay_past(self, graph: ConstraintGraph, schedule: Schedule,
                    name: str, t: int, target: int) -> bool:
        """Add a delay edge pushing ``name`` toward ``target`` (the end
        of the spiking profile segment, always > ``t``).

        The delay distance follows the paper's bounds: at most the
        task's slack when it has any, and at most its execution time
        (``delay_bound_by_duration``).  A partial delay (bounds shorter
        than needed) is allowed — the caller loops until the slot
        clears or the branch dead-ends.
        """
        task = graph.task(name)
        current = schedule.start(name)
        needed = max(target - current, t - current + 1)
        room = slack(schedule, name)
        if room > 0:
            distance = min(needed, room)
        else:
            distance = needed             # cascading reschedule
        if self.options.delay_bound_by_duration and task.duration > 0:
            distance = min(distance, max(task.duration, 1))
        if distance <= 0:
            return False
        return graph.add_edge(ANCHOR_NAME, name, current + distance,
                              tag="delay")

    def _unlock_one(self, graph: ConstraintGraph, schedule: Schedule,
                    t: int, blocked: "set[str]") -> bool:
        """Remove the start-time lock of one task active at ``t``.

        Only scheduler-added ``"lock"`` max edges are lifted — user
        deadlines are never touched.  ``weaken_edge`` (not plain
        removal) matters here: a lock that landed on a task already
        carrying a *tighter user start deadline* overwrote it in the
        edge store, and removing the pair outright would silently drop
        the user's deadline with the lock.  Weakening restores it.
        Returns True when a lock was lifted (the task becomes a delay
        candidate again).
        """
        for name in self._ordered_active(schedule, t):
            if graph.edge_tag(name, ANCHOR_NAME) == "lock":
                graph.weaken_edge(name, ANCHOR_NAME)
                blocked.discard(name)
                return True
        return False

    def _lock_remaining(self, graph: ConstraintGraph, schedule: Schedule,
                        t: int) -> None:
        """Lock the start times of the tasks still active at ``t``.

        After a cascading (zero-slack) delay the paper pins the
        remaining simultaneous tasks so later repairs do not silently
        shift them; the locks are release-time+deadline edge pairs and
        roll back with the branch on failure.
        """
        for task in schedule.active_tasks(t):
            graph.lock_start(task.name, schedule.start(task.name))

    # ------------------------------------------------------------------
    # compaction (left shift of scheduler-added delays)
    # ------------------------------------------------------------------

    #: Edge tags the compaction pass is allowed to relax.
    _RELAXABLE_TAGS = frozenset({"delay", "gapfill", "lock"})

    def compact(self, graph: ConstraintGraph,
                problem: SchedulingProblem) -> Schedule:
        """Left-shift compaction of scheduler-added delays.

        Visits tasks in start-time order and, for each anchor release
        edge the spike repair added, tries to relax it: first full
        removal, then (if that reopens a spike) the earliest
        power-valid start among the profile's segment boundaries.
        Every accepted relaxation keeps the schedule valid and never
        increases the finish time, so the loop converges.  A try that
        the current schedule, its profile and its longest-path memo
        prove hopeless is refused without an edit (:meth:`_hopeless`).
        """
        current = _Compaction(graph, problem)
        while self._compact_round(graph, problem, current):
            pass
        return current.schedule

    def _compact_round(self, graph: ConstraintGraph,
                       problem: SchedulingProblem,
                       current: "_Compaction") -> bool:
        """One pass over all tasks; True if anything moved."""
        schedule = current.schedule
        makespan = schedule.makespan
        order = sorted(schedule, key=lambda n: (schedule.start(n), n))
        moved = False
        for name in order:
            tag = graph.edge_tag(ANCHOR_NAME, name)
            if tag not in self._RELAXABLE_TAGS:
                continue
            if self._hopeless(graph, problem, name, current):
                continue
            relaxed = self._relax_release(graph, problem, name, makespan)
            if relaxed is not None:
                current.schedule, current.profile = relaxed
                moved = True
        return moved

    def _hopeless(self, graph: ConstraintGraph, problem: SchedulingProblem,
                  name: str, current: "_Compaction") -> bool:
        """True when every trial of ``name``'s release try must fail.

        Reads ``current``, the graph's edges and journal, and its
        longest-path memo for the current edge set; edits nothing and
        asks no longest-path query (DESIGN.md §5p).  Only ``name``'s
        subtree S in the memo's predecessor map can move, so ``name``
        lands at some ``s`` with ``earliest <= s < release``, where
        ``earliest`` is the release :meth:`ConstraintGraph.weaken_edge`
        would restore, raised by every in-edge from outside S.  If
        ``earliest >= release`` it cannot move; otherwise the try is
        hopeless when every such slot draws more than ``current.limit``
        even with the power of S's tasks taken out.  False means "not
        proven", never "will succeed".
        """
        solved = graph._current_state()
        if solved is None:
            return False
        _, dist, pred = solved
        if current.pred is not pred:
            current.pred, current.children = pred, predecessor_children(pred)
        moving, inside = predecessor_subtrees(current.children, (name,))
        restored = graph.weakened(ANCHOR_NAME, name)
        earliest = max(restored[0], 0) if restored is not None else 0
        edges = graph._edges
        for src in graph._in[name]:
            if src != ANCHOR_NAME and src not in inside:
                entry = edges.get((src, name))
                if entry is not None:
                    earliest = max(earliest, dist[src] + entry[0])
        release = graph.separation(ANCHOR_NAME, name)
        if earliest >= release:
            return True
        tasks = graph._tasks
        task = tasks[name]
        if task.duration <= 0 or not task.power > 0 \
                or not math.isfinite(current.limit):
            return False
        # (start, end, power) of the tasks of S drawing power in the
        # window [earliest, release), clipped to it.
        drawn = []
        for member in moving:
            other = tasks[member]
            if other.duration > 0 and other.power > 0:
                start = dist[member]
                end = start + other.duration
                if start < release and end > earliest:
                    drawn.append((max(start, earliest), min(end, release),
                                  other.power))
        cuts = sorted({t for start, end, _ in drawn for t in (start, end)})
        profile = current.profile
        segments = profile._segments
        index = bisect_right(profile._starts, earliest) - 1
        t = earliest
        while t < release:
            _, t1, level = segments[index]
            end = min(t1, release)
            pieces = [t] + [cut for cut in cuts if t < cut < end]
            for piece in pieces:
                draw = sum([p for start, stop, p in drawn
                            if start <= piece < stop])
                if not level - draw + task.power > current.limit:
                    return False
            t = end
            index += 1
        return True

    def _relax_release(self, graph: ConstraintGraph,
                       problem: SchedulingProblem, name: str,
                       makespan: int) \
            -> "tuple[Schedule, PowerProfile] | None":
        """Try to move one task earlier by weakening its release edge.

        Returns the accepted trial's schedule and profile, or None when
        every trial failed and the edge set is back as it was.
        """
        release = graph.separation(ANCHOR_NAME, name)
        tag = graph.edge_tag(ANCHOR_NAME, name)
        token = graph.checkpoint()
        # Weaken, don't remove: the delay edge may have overwritten a
        # user release on the same (anchor, task) pair — restore it so
        # compaction never shifts a task before its user release.
        graph.weaken_edge(ANCHOR_NAME, name)
        trial = asap_schedule(graph, probe=True)
        if trial is None:              # pragma: no cover - defensive
            graph.rollback(token)
            return None
        earliest = trial.start(name)
        if earliest >= release:
            graph.rollback(token)
            return None
        profile = problem.profile(trial)
        if trial.makespan <= makespan \
                and profile.is_power_valid(problem.p_max):
            return trial, profile
        # Full removal reopens a spike: try intermediate starts at the
        # profile's change points, earliest first.
        boundaries = sorted({t0 for t0, _, _ in profile.segments
                             if earliest < t0 < release})
        for start in boundaries:
            graph.rollback(token)
            graph.weaken_edge(ANCHOR_NAME, name)
            graph.add_edge(ANCHOR_NAME, name, start, tag=tag)
            trial = asap_schedule(graph, probe=True)
            if trial is None:           # pragma: no cover - defensive
                continue
            if trial.makespan <= makespan:
                profile = problem.profile(trial)
                if profile.is_power_valid(problem.p_max):
                    return trial, profile
        graph.rollback(token)
        return None


class _Compaction:
    """What compaction holds between tries (DESIGN.md §5p).

    ``schedule`` is the ASAP schedule of the graph's current edge set
    and ``profile`` its profile: built once per :meth:`compact` call,
    then each accepted trial's.  ``limit`` is the level a slot's lower
    bound must exceed for every trial to spike there: ``P_max`` plus
    3·``POWER_TOL`` (the two profiles' segment merging and the validity
    test) plus a rounding allowance relative to the largest sum a level
    can hold; infinite when ``P_max`` or a power is.  ``children`` is
    the child map of ``pred``, the predecessor map of the memo it was
    built from.
    """

    __slots__ = ("schedule", "profile", "limit", "pred", "children")

    def __init__(self, graph: ConstraintGraph,
                 problem: SchedulingProblem):
        self.schedule = asap_schedule(graph)
        self.profile = problem.profile(self.schedule)
        # Every level is a sum of the baseline and at most two terms of
        # each task's power; its rounding error is below 4n ulps of this
        # total for n tasks (DESIGN.md §5p).
        total = problem.baseline + graph.resources.total_idle_power \
            + 2 * sum(task.power for task in graph.tasks())
        self.limit = problem.p_max + 3 * POWER_TOL \
            + (len(graph) + 1) * 2.0 ** -44 * total
        self.pred: "dict | None" = None
        self.children: "dict[str, list[str]]" = {}


def _tie_breaks(seed: int, variant: int, names: "list[str]") \
        -> "tuple[random.Random, dict[str, float]]":
    """Restart ``variant``'s random source and the salt it draws from
    it over ``names``: restart 0 draws none (ties break by name)."""
    rng = random.Random((seed, variant).__hash__())
    if variant == 0:
        return rng, {}
    return rng, {name: rng.random() for name in names}


def max_power_schedule(problem: SchedulingProblem,
                       options: "SchedulerOptions | None" = None) \
        -> ScheduleResult:
    """Convenience wrapper: timing + spike elimination in one call."""
    return MaxPowerScheduler(options).solve(problem)
