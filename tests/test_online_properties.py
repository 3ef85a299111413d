"""Property-based invariants of the online session engine.

Four families, each stated over workload classes where the property
is a *theorem*, not a heuristic tendency:

* **arrival-order invariance** — for a set of independent tasks (no
  cross-task constraints, no deadlines), the admitted set is a pure
  function of the task set and ``P_max``: with the serial fallback in
  play, a task is admissible iff it individually fits the power
  budget, so no arrival permutation can change the outcome;
* **committed-prefix validity** — whatever interleaving of arrivals,
  clock advances, and faults a mission sees, the current schedule
  (frozen history + planned suffix) always passes the timing and
  power validators;
* **rejection monotone in ``P_max``** — raising the power budget can
  only grow the admitted set (again over deadline-free workloads,
  where serialization guarantees feasibility is per-task);
* **a fault replan is** :func:`~repro.execution.replan.replan` — a
  session fed every task up front and then faulted plans exactly what
  ``replan`` gives for its problem and the executor's snapshot, with
  the session's own scheduler (one freeze rule for both).

Heuristic caveat, documented as a boundary: with *deadlines* or max
separations in play the schedulers are heuristic and admission can
genuinely depend on arrival order — that regime is covered by example
in ``test_online_differential.py`` (seed-11 rejection convergence),
not asserted as a universal property here.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.profile import PowerProfile
from repro.core.validation import check_time_valid
from repro.execution import FixedOverruns, ScheduleExecutor, replan
from repro.online import MissionSession, SessionConfig
from repro.scheduling.base import SchedulerOptions
from repro.scheduling.max_power import MaxPowerScheduler
from repro.scheduling.min_power import MinPowerScheduler

OPTIONS = SchedulerOptions(seed=7, max_power_restarts=1,
                           min_power_scans=2)

#: One independent task: (duration, power).  Names are assigned by
#: position so permutations permute *arrival order*, not identity.
task_st = st.tuples(st.integers(min_value=1, max_value=6),
                    st.floats(min_value=0.5, max_value=12.0,
                              allow_nan=False, allow_infinity=False,
                              width=32))

task_set_st = st.lists(task_st, min_size=1, max_size=7)


def session(p_max: float, scheduler: str = "min_power") \
        -> MissionSession:
    return MissionSession(SessionConfig(
        p_max=p_max, scheduler=scheduler, options=OPTIONS,
        name="prop"))


def feed(sess: MissionSession, tasks, order) -> "frozenset[str]":
    """Offer ``tasks`` in ``order``; return the admitted name set."""
    for index in order:
        duration, power = tasks[index]
        sess.offer(f"t{index}", duration=duration, power=power)
    return frozenset(sess.admitted)


class TestArrivalOrderInvariance:
    @given(tasks=task_set_st,
           p_max=st.floats(min_value=1.0, max_value=15.0,
                           allow_nan=False, allow_infinity=False),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_admitted_set_is_order_free(self, tasks, p_max, data):
        order = data.draw(
            st.permutations(range(len(tasks))), label="order")
        forward = feed(session(p_max), tasks, range(len(tasks)))
        permuted = feed(session(p_max), tasks, order)
        assert forward == permuted

    @given(tasks=task_set_st,
           p_max=st.floats(min_value=1.0, max_value=15.0,
                           allow_nan=False, allow_infinity=False))
    @example(tasks=[(1, 1.4467774629592896)], p_max=1.4467774628025598)
    @example(tasks=[(1, 1.4467774629592896)],
             p_max=1.4467774629592896 - 1e-8)
    @settings(max_examples=40, deadline=None)
    def test_admission_is_per_task_feasibility(self, tasks, p_max):
        """For independent tasks the admitted set has a closed form:
        exactly the tasks that individually fit under ``P_max``, up to
        the ``POWER_TOL`` every validity check allows (the examples pin
        a draw 1.6e-10 W over ``P_max``, admitted, and one 1e-8 W over,
        rejected)."""
        admitted = feed(session(p_max), tasks, range(len(tasks)))
        expected = frozenset(
            f"t{i}" for i, (_d, power) in enumerate(tasks)
            if power <= p_max + PowerProfile.POWER_TOL)
        assert admitted == expected


class TestCommittedPrefixValidity:
    @given(tasks=st.lists(task_st, min_size=1, max_size=6),
           advances=st.lists(st.integers(min_value=1, max_value=5),
                             min_size=0, max_size=4),
           chain=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_schedule_always_validates(self, tasks, advances, chain):
        sess = session(p_max=14.0)
        clock = 0
        pending_advances = list(advances)
        previous: "str | None" = None
        for index, (duration, power) in enumerate(tasks):
            constraints = []
            if chain and previous is not None:
                constraints = [{"kind": "precedence",
                                "src": previous}]
            event = sess.offer(f"t{index}", duration=duration,
                               power=power,
                               constraints=constraints)
            if event["event"] == "admit":
                previous = f"t{index}"
            self._assert_valid(sess)
            if pending_advances:
                clock += pending_advances.pop()
                sess.advance(clock)
                self._assert_valid(sess)
        if sess.admitted:
            sess.quiesce()
            self._assert_valid(sess)

    @staticmethod
    def _assert_valid(sess: MissionSession) -> None:
        if sess.schedule is None:
            return
        time_report = check_time_valid(sess.schedule)
        assert time_report.ok, time_report.violations
        power_report = sess.problem().check(sess.schedule)
        assert power_report.ok, power_report.violations
        # committed starts are frozen: the plan agrees with history
        for name, start in sess.committed.items():
            assert sess.schedule.start(name) == start

    @given(tasks=st.lists(task_st, min_size=2, max_size=5),
           overrun=st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_fault_replan_keeps_prefix_valid(self, tasks, overrun):
        sess = session(p_max=14.0)
        for index, (duration, power) in enumerate(tasks):
            sess.offer(f"t{index}", duration=duration, power=power)
        if not sess.admitted:
            return
        first = min(sess.admitted,
                    key=lambda n: sess.schedule.start(n))
        start = sess.schedule.start(first)
        sess.advance(start + 1)
        assert first in sess.committed
        sess.inject_fault({first: overrun}, at=start + 1)
        self._assert_valid(sess)
        # the faulted task's realized span is stretched
        span_start, span_end = sess.spans[first]
        nominal = sess.problem().graph.task(first).duration
        assert span_end - span_start == nominal + overrun


class TestRejectionMonotoneInPmax:
    @given(tasks=task_set_st,
           lo=st.floats(min_value=1.0, max_value=12.0,
                        allow_nan=False, allow_infinity=False),
           delta=st.floats(min_value=0.0, max_value=8.0,
                           allow_nan=False, allow_infinity=False))
    @settings(max_examples=40, deadline=None)
    def test_admitted_grows_with_budget(self, tasks, lo, delta):
        tight = feed(session(lo), tasks, range(len(tasks)))
        loose = feed(session(lo + delta), tasks, range(len(tasks)))
        assert tight <= loose

    @given(tasks=task_set_st,
           lo=st.floats(min_value=1.0, max_value=12.0,
                        allow_nan=False, allow_infinity=False),
           delta=st.floats(min_value=0.0, max_value=8.0,
                           allow_nan=False, allow_infinity=False))
    @settings(max_examples=25, deadline=None)
    def test_rejected_shrinks_with_budget(self, tasks, lo, delta):
        sess_tight = session(lo)
        sess_loose = session(lo + delta)
        feed(sess_tight, tasks, range(len(tasks)))
        feed(sess_loose, tasks, range(len(tasks)))
        rejected_tight = {name for name, _ in sess_tight.rejected}
        rejected_loose = {name for name, _ in sess_loose.rejected}
        assert rejected_loose <= rejected_tight


class TestSchedulerChoiceSharesAdmission:
    """Admission is a feasibility question; the min-power improvement
    stage must never change who gets in."""

    @given(tasks=task_set_st,
           p_max=st.floats(min_value=1.0, max_value=15.0,
                           allow_nan=False, allow_infinity=False))
    @settings(max_examples=25, deadline=None)
    def test_min_and_max_power_admit_identically(self, tasks, p_max):
        via_min = feed(session(p_max, "min_power"), tasks,
                       range(len(tasks)))
        via_max = feed(session(p_max, "max_power"), tasks,
                       range(len(tasks)))
        assert via_min == via_max


class TestFaultReplanIsReplan:
    """``inject_fault`` hands :func:`replan` the session's nominal
    problem, so the two must agree on every stream fed up front."""

    SOLVERS = {"min_power": MinPowerScheduler,
               "max_power": MaxPowerScheduler}

    @given(tasks=st.lists(task_st, min_size=2, max_size=6),
           chain=st.booleans(),
           shared=st.booleans(),
           scheduler=st.sampled_from(sorted(SOLVERS)),
           overrun=st.integers(min_value=1, max_value=4),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_fault_plan_equals_replan(self, tasks, chain, shared,
                                      scheduler, overrun, data):
        sess = session(p_max=14.0, scheduler=scheduler)
        for index, (duration, power) in enumerate(tasks):
            constraints = [{"kind": "precedence",
                            "src": sess.admitted[-1]}] \
                if chain and sess.admitted else []
            sess.offer(f"t{index}", duration=duration, power=power,
                       resource="bus" if shared else None,
                       constraints=constraints)
        if not sess.admitted:
            return
        victim = data.draw(st.sampled_from(sess.admitted),
                           label="victim")
        overruns = {victim: overrun}
        problem = sess.problem()
        # Mostly a tick inside the victim's realized span, so its
        # overrun is still running at the fault and freeze() stretches
        # it; otherwise any tick of the plan.
        start = sess.schedule.start(victim)
        end = start + problem.graph.task(victim).duration + overrun
        at = data.draw(st.one_of(
            st.integers(min_value=start + 1, max_value=end - 1),
            st.integers(min_value=0, max_value=sess.schedule.makespan)),
            label="at")
        snapshot = ScheduleExecutor(
            problem, sess.schedule, durations=FixedOverruns(overruns),
            policy="self_timed").run(until=at)
        expected = replan(problem, snapshot, at,
                          scheduler=self.SOLVERS[scheduler](OPTIONS))
        sess.inject_fault(overruns, at=at)
        assert sess.schedule.as_dict() == expected.schedule.as_dict()
        assert sess.result.energy_cost == expected.energy_cost
        assert sess.spans == snapshot.spans
