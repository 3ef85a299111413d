"""The stateful mission-session engine: online rolling-horizon solves.

Everything else in the repository is offline batch — the full task set
goes in, a schedule comes out.  A :class:`MissionSession` opens the
online scenario the paper's mission framing implies (rover comm
windows, sensor triggers): tasks *arrive over time* and the session
maintains a live schedule under the paper's constraints:

* **admit/reject on arrival** — an arriving task (plus the min/max
  separations it brings) is admitted iff the whole remaining problem
  still has a valid schedule under ``P_max`` with every committed task
  frozen; otherwise the arrival is rejected and the session state is
  untouched (the arrival is tried on a candidate copy of the session
  graph, which becomes the session graph only on admission);
* **committed prefix is frozen** — once mission time passes a task's
  scheduled start the task has physically begun; it is locked at its
  executed start time and no later re-solve may move it;
* **suffix re-solve** — each re-solve copies the constraint graph,
  turns executed history into locks and ``sigma(v) >= now`` releases
  with :func:`repro.execution.replan.freeze`, and runs the normal
  offline scheduler on the remainder (the session graph itself is
  never solved, so the copy starts without a longest-path memo);
* **replan on faults** — injected overruns
  (:class:`~repro.execution.faults.FixedOverruns`) are executed against
  the live schedule and the remainder is re-planned through
  :func:`repro.execution.replan.replan`, exactly the paper's Section
  5.3 runtime loop.

The **quiescence theorem** anchors the semantics: a session fed every
task up front (mission clock still at 0, nothing committed) and then
quiesced produces a schedule *bit-identical* to the offline
:class:`~repro.scheduling.min_power.MinPowerScheduler` /
:class:`~repro.scheduling.max_power.MaxPowerScheduler` solve of the
same problem — the online engine adds admission control and history
freezing, never arithmetic.  ``tests/test_online_differential.py``
enforces this.

Sessions surface on the wire protocol as ``POST /v1/sessions`` (see
``docs/online.md``); this module is the transport-free core.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

from ..core.graph import ConstraintGraph
from ..core.problem import SchedulingProblem
from ..core.schedule import Schedule
from ..core.validation import check_time_valid
from ..errors import (GraphError, InfeasibleError, PositiveCycleError,
                      ReproError, SchedulingFailure, ValidationError)
from ..execution.executor import ScheduleExecutor
from ..execution.faults import FixedOverruns
from ..execution.replan import freeze, replan
from ..obs import OBS
from ..scheduling.base import ScheduleResult, SchedulerOptions
from ..scheduling.max_power import MaxPowerScheduler
from ..scheduling.min_power import MinPowerScheduler

__all__ = ["MissionSession", "SessionConfig", "SESSION_SCHEDULERS",
           "apply_constraint"]

#: Scheduler selections a session accepts.  ``min_power`` is the full
#: paper pipeline (timing -> max power -> min power); ``max_power``
#: stops after spike elimination (no gap filling).
SESSION_SCHEDULERS = ("min_power", "max_power")

#: Exception types that mean "this arrival cannot be scheduled" rather
#: than "the caller broke the API"; they turn into reject events.
_REJECTION_ERRORS = (SchedulingFailure, InfeasibleError,
                     PositiveCycleError, GraphError, ValidationError)


@dataclass
class SessionConfig:
    """Everything that parameterizes one mission session.

    Attributes
    ----------
    p_max / p_min / baseline:
        The power environment every admission decision and re-solve
        runs under — the same semantics as
        :class:`~repro.core.problem.SchedulingProblem` (``P_max`` is
        the hard admission constraint; ``P_min`` shapes the min-power
        improvement stage, it never rejects an arrival).
    scheduler:
        ``"min_power"`` (default, full pipeline) or ``"max_power"``.
    options:
        :class:`~repro.scheduling.base.SchedulerOptions` forwarded to
        every solve; defaults reproduce the paper's heuristics.
    name:
        Session (and constraint graph) name, used in problem labels.
    """

    p_max: float
    p_min: float = 0.0
    baseline: float = 0.0
    scheduler: str = "min_power"
    options: "SchedulerOptions | None" = None
    name: str = "mission"

    def __post_init__(self) -> None:
        if self.scheduler not in SESSION_SCHEDULERS:
            raise ReproError(
                f"unknown session scheduler {self.scheduler!r}; "
                f"pick from {SESSION_SCHEDULERS}")
        # Delegate the numeric validation to the problem container.
        SchedulingProblem(ConstraintGraph("config-check"),
                          p_max=self.p_max, p_min=self.p_min,
                          baseline=self.baseline)


def apply_constraint(graph: ConstraintGraph, arriving: str,
                     record: "Mapping[str, Any]") -> None:
    """Apply one wire-shape constraint record (see
    :meth:`MissionSession.offer` for the table), brought by the arrival
    of task ``arriving``, to ``graph``.

    An unknown kind raises :class:`ReproError` and a record missing a
    field raises ``KeyError``; a constraint naming an unknown task
    raises :class:`GraphError`.
    """
    kind = record.get("kind")
    if kind == "min":
        graph.add_min_separation(record.get("src", arriving),
                                 record.get("dst", arriving),
                                 int(record["sep"]))
    elif kind == "max":
        graph.add_max_separation(record.get("src", arriving),
                                 record.get("dst", arriving),
                                 int(record["sep"]))
    elif kind == "precedence":
        graph.add_precedence(record["src"], arriving,
                             gap=int(record.get("gap", 0)))
    elif kind == "release":
        graph.add_release(arriving, int(record["time"]))
    elif kind == "deadline":
        graph.add_start_deadline(arriving, int(record["time"]))
    else:
        raise ReproError(f"unknown constraint kind {kind!r}")


def _check_frozen(result: ScheduleResult,
                  spans: "Mapping[str, tuple[int, int]]",
                  what: str) -> None:
    """Raise unless ``result`` keeps every executed start in place."""
    for name, (start, _end) in spans.items():
        if result.schedule.start(name) != start:
            raise SchedulingFailure(
                f"{what} moved committed task {name!r} from {start} "
                f"to {result.schedule.start(name)}")


class MissionSession:
    """A live online scheduling session; see the module docstring.

    State model:

    * ``now`` — the mission clock (integer ticks), monotone;
    * ``spans`` — committed tasks only: ``name -> (start, end)`` with
      the *executed* start and (possibly fault-stretched) end;
    * ``schedule`` — the current plan for every admitted task
      (committed history plus planned suffix);
    * ``events`` — the append-only mission journal (admit / reject /
      commit / replan / quiesce records), which the serving layer
      streams out as ``repro-session-event`` v1 documents.
    """

    def __init__(self, config: SessionConfig):
        self.config = config
        self.options = config.options or SchedulerOptions()
        self._graph = ConstraintGraph(config.name)
        self.now = 0
        #: Committed (started) tasks: name -> [start, end) actual span.
        self.spans: "dict[str, tuple[int, int]]" = {}
        self.admitted: "list[str]" = []
        self.rejected: "list[tuple[str, str]]" = []
        self.events: "list[dict[str, Any]]" = []
        self.closed = False
        self._result: "ScheduleResult | None" = None
        self._solves = 0
        self._emit("open", scheduler=config.scheduler,
                   p_max=config.p_max, p_min=config.p_min)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def schedule(self) -> "Schedule | None":
        """The current plan (history + suffix), or None before any
        admission."""
        return self._result.schedule if self._result else None

    @property
    def result(self) -> "ScheduleResult | None":
        """The most recent solve result."""
        return self._result

    @property
    def committed(self) -> "dict[str, int]":
        """Frozen tasks and their executed start times."""
        return {name: span[0] for name, span in self.spans.items()}

    @property
    def pending(self) -> "list[str]":
        """Admitted tasks that have not started yet."""
        return [name for name in self.admitted
                if name not in self.spans]

    @property
    def solves(self) -> int:
        """Number of suffix re-solves performed so far."""
        return self._solves

    def problem(self) -> SchedulingProblem:
        """The session's accumulated problem (user constraints only)."""
        return SchedulingProblem(graph=self._graph,
                                 p_max=self.config.p_max,
                                 p_min=self.config.p_min,
                                 baseline=self.config.baseline,
                                 name=self.config.name)

    # ------------------------------------------------------------------
    # the mission clock
    # ------------------------------------------------------------------

    def advance(self, to: int) -> "list[dict[str, Any]]":
        """Move the mission clock to ``to``; commit every task whose
        planned start the clock passed.

        A task with planned start ``s < to`` has physically begun; it
        is frozen at ``s`` (a task starting exactly at ``to`` is still
        movable — it has not been dispatched yet).  The clock never
        moves backward: ``to <= now`` is a no-op.  Returns the commit
        events emitted, oldest first.
        """
        self._check_open()
        if not isinstance(to, int) or isinstance(to, bool) or to < 0:
            raise ReproError(
                f"mission clock must be a non-negative integer, "
                f"got {to!r}")
        if to <= self.now:
            return []
        out = []
        if self._result is not None:
            starters = sorted(
                (self._result.schedule.start(name), name)
                for name in self.pending
                if self._result.schedule.start(name) < to)
            for start, name in starters:
                duration = self._graph.task(name).duration
                self.spans[name] = (start, start + duration)
                out.append(self._emit("commit", task=name,
                                      start=start, at=start))
        self.now = to
        return out

    # ------------------------------------------------------------------
    # arrivals
    # ------------------------------------------------------------------

    def offer(self, name: str, duration: int, power: float = 0.0,
              resource: "str | None" = None,
              constraints: "Iterable[Mapping[str, Any]]" = (),
              at: "int | None" = None) -> "dict[str, Any]":
        """One task arrival: admit it (re-solving the suffix) or
        reject it (session state untouched).

        ``constraints`` is an iterable of mapping records naming the
        separations the arrival brings (the wire shape of
        ``docs/online.md``):

        ========================================= =====================
        ``{"kind": "min", "src", "dst", "sep"}``  min separation
        ``{"kind": "max", "src", "dst", "sep"}``  max separation
        ``{"kind": "precedence", "src", "gap"}``  end-to-start after
                                                  ``src`` (gap >= 0)
        ``{"kind": "release", "time": t}``        release of the
                                                  arriving task
        ``{"kind": "deadline", "time": t}``       start deadline of the
                                                  arriving task
        ========================================= =====================

        ``src``/``dst`` may name the arriving task or any already
        *admitted* task; a constraint against a rejected or unknown
        task rejects the arrival.  A late arrival (``at < now``) is
        clamped to ``now`` — mission reality delivered it late, the
        session processes it now.  The arrival is tried on a copy of
        the session graph, which replaces the session graph only on
        admission; a rejection, or a malformed record (which raises,
        see :func:`apply_constraint`), leaves the graph as it was.

        Returns the admit or reject event record.
        """
        self._check_open()
        if at is not None:
            self.advance(at)
        candidate = self._graph.copy()
        try:
            candidate.new_task(name, duration=duration, power=power,
                               resource=resource)
            for record in constraints:
                apply_constraint(candidate, name, record)
            result = self._resolve_suffix(candidate)
        except _REJECTION_ERRORS as exc:
            self.rejected.append((name, str(exc)))
            return self._emit("reject", task=name, reason=str(exc))
        self._graph = candidate
        self.admitted.append(name)
        self._result = result
        return self._emit("admit", task=name,
                          start=result.schedule.start(name),
                          makespan=result.schedule.makespan)

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------

    def inject_fault(self, overruns: "Mapping[str, int]",
                     at: "int | None" = None) -> "dict[str, Any]":
        """Execute the live schedule under injected overruns up to
        ``at`` (default: ``now``), then re-plan the remainder.

        The current plan is run through the event-driven executor
        (:class:`~repro.execution.executor.ScheduleExecutor`, policy
        ``self_timed``) with a
        :class:`~repro.execution.faults.FixedOverruns` duration model;
        :func:`repro.execution.replan.replan` then freezes every task
        the execution *started* at its actual start (a still-running
        overrun keeps its realized length, see
        :func:`~repro.execution.replan.freeze`), and the remainder is
        re-solved by the session's configured scheduler under the
        session's power constraints.  Committed
        history never moves — the replay folds the stretches realized
        by *earlier* faults into its duration model, so a second fault
        can neither forget nor shrink the first one — and the
        re-planned suffix is power-valid from ``at`` on.

        Returns the replan event record.
        """
        self._check_open()
        if self._result is None:
            raise ReproError("cannot inject a fault before any task "
                             "has been admitted")
        when = self.now if at is None else at
        if when < self.now:
            raise ReproError(
                f"fault time {when} is before the mission clock "
                f"{self.now}")
        unknown = [name for name in overruns
                   if name not in self._graph]
        if unknown:
            raise ReproError(
                f"overruns name unknown task(s) {unknown}")
        # The executor replays the plan from tick 0, so its duration
        # model must describe the *whole* realized mission, not just
        # this fault: fold the extras already recorded in committed
        # spans into the model (max-merged with the new overruns), or
        # a second fault would revert the first fault's stretches.
        merged = dict(overruns)
        for name, (start, end) in self.spans.items():
            realized = (end - start) - self._graph.task(name).duration
            if realized > 0:
                merged[name] = max(merged.get(name, 0), realized)
        model = FixedOverruns(merged)
        problem = self.problem()
        with OBS.span("online.fault", session=self.config.name,
                      at=when, overruns=len(overruns)):
            executor = ScheduleExecutor(problem,
                                        self._result.schedule,
                                        durations=model,
                                        policy="self_timed")
            snapshot = executor.run(until=when)
            # Reconcile the replay with recorded history before
            # anything consumes it: committed starts are immovable and
            # realized ends only ever grow, so prior spans win on start
            # and the longer end wins on duration.
            spans = dict(snapshot.spans)
            for name, (start, end) in self.spans.items():
                seen = spans.get(name)
                spans[name] = (start, end if seen is None
                               else max(end, seen[1]))
            result = replan(problem, replace(snapshot, spans=spans),
                            now=when, options=self.options,
                            scheduler=self._scheduler())
            self._solves += 1
        _check_frozen(result, spans, "fault replan")
        # Reconciled spans (with realized ends) are the new committed
        # history; everything else follows the new plan.
        self.spans = spans
        self.now = when
        self._result = result
        return self._emit("replan", overruns=dict(overruns),
                          frozen=sorted(spans),
                          makespan=result.schedule.makespan)

    # ------------------------------------------------------------------
    # quiescence
    # ------------------------------------------------------------------

    def quiesce(self) -> "ScheduleResult | None":
        """No further arrivals are coming: run one final clean
        re-solve and return it.

        With nothing committed and the clock still at 0 this is *the
        offline solve* of the accumulated problem — same graph, same
        scheduler, same options — which is exactly the quiescence
        theorem the differential suite pins bit-identical.
        """
        self._check_open()
        if not self.admitted:
            self._emit("quiesce", tasks=0, makespan=0)
            return None
        result = self._resolve_suffix(self._graph)
        self._result = result
        self._emit("quiesce", tasks=len(self.admitted),
                   makespan=result.schedule.makespan,
                   energy_cost=result.energy_cost,
                   utilization=result.utilization,
                   peak_power=result.metrics.peak_power)
        return result

    def close(self) -> "dict[str, Any]":
        """Close the session; further mutations raise."""
        if self.closed:
            return self.events[-1]
        self.closed = True
        return self._emit("close", admitted=len(self.admitted),
                          rejected=len(self.rejected))

    # ------------------------------------------------------------------
    # command dispatch (the wire/CLI shape)
    # ------------------------------------------------------------------

    def apply(self, command: "Mapping[str, Any]") \
            -> "list[dict[str, Any]]":
        """Apply one parsed session command; return the events it
        produced, oldest first.

        Commands are the validated dictionaries of
        :func:`repro.io.requests.session_command_from_dict`:
        ``arrival`` / ``advance`` / ``fault`` / ``quiesce``.
        """
        kind = command.get("event")
        before = len(self.events)
        if kind == "arrival":
            task = command["task"]
            self.offer(task["name"], duration=task["duration"],
                       power=task.get("power", 0.0),
                       resource=task.get("resource"),
                       constraints=command.get("constraints", ()),
                       at=command.get("at"))
        elif kind == "advance":
            self.advance(command["to"])
        elif kind == "fault":
            self.inject_fault(command["overruns"],
                              at=command.get("at"))
        elif kind == "quiesce":
            self.quiesce()
        else:
            raise ReproError(f"unknown session command {kind!r}")
        return self.events[before:]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self.closed:
            raise ReproError("session is closed")

    def _emit(self, kind: str, **fields: Any) -> "dict[str, Any]":
        event = {"seq": len(self.events), "event": kind,
                 "now": self.now}
        event.update(fields)
        self.events.append(event)
        return event

    def _scheduler(self):
        if self.config.scheduler == "max_power":
            return MaxPowerScheduler(self.options)
        return MinPowerScheduler(self.options)

    def _resolve_suffix(self, graph: ConstraintGraph) -> ScheduleResult:
        """Solve the mission on ``graph`` (the session graph or an
        arrival's candidate) with history frozen and the suffix
        released at ``now``.

        The pristine-state fast path (clock at 0, nothing committed)
        hands the scheduler ``graph`` itself — no extra edges — so the
        solve is bit-identical to the offline one; the general path
        solves a copy that :func:`~repro.execution.replan.freeze`
        decorated with lock/release edges.
        """
        name = self.config.name
        if self.spans or self.now:
            graph = graph.copy()
            freeze(graph, self.spans, self.now)
            name = f"{name}@t={self.now}"
        work = SchedulingProblem(graph=graph, p_max=self.config.p_max,
                                 p_min=self.config.p_min,
                                 baseline=self.config.baseline,
                                 name=name)
        with OBS.span("online.resolve", session=self.config.name,
                      tasks=len(graph), now=self.now,
                      committed=len(self.spans)):
            result = self._scheduler().solve(work)
        self._solves += 1
        _check_frozen(result, self.spans, "re-solve")
        return result

    # ------------------------------------------------------------------
    # validation helpers (the property suite leans on these)
    # ------------------------------------------------------------------

    def committed_report(self):
        """Validate the committed prefix: time- and power-validity of
        the current plan restricted to what actually matters — every
        separation among committed tasks and the profile under
        ``P_max``.

        Returns the :class:`~repro.core.validation.ValidationReport`
        of the full current schedule (the suffix is solver output and
        therefore valid; including it keeps the check honest).
        """
        if self._result is None:
            return check_time_valid(
                Schedule(self._graph.copy(), {}))
        return self.problem().check(self._result.schedule)

    def __repr__(self) -> str:
        return (f"MissionSession({self.config.name!r}, now={self.now}, "
                f"admitted={len(self.admitted)}, "
                f"committed={len(self.spans)}, "
                f"rejected={len(self.rejected)})")
