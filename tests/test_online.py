"""The online mission-session engine: arrivals, commits, faults.

Covers the :class:`repro.online.MissionSession` state machine directly
(no wire protocol — ``test_online_serving.py`` does that): admission
and rejection semantics, the frozen committed prefix, mission-clock
monotonicity, fault-injection replans (including the degenerate
all-tasks-faulted case), and the arrival-script helpers.
"""

from __future__ import annotations

import pytest

from repro.core.validation import check_time_valid
from repro.errors import ReproError
from repro.examples_data import fig1_problem
from repro.online import (MissionSession, SessionConfig, SessionScript,
                          arrivals_from_problem, problem_from_script,
                          replay_script, script_from_problem)
from repro.scheduling.base import SchedulerOptions


def make_session(p_max: float = 10.0, p_min: float = 0.0,
                 scheduler: str = "min_power",
                 seed: int = 7) -> MissionSession:
    return MissionSession(SessionConfig(
        p_max=p_max, p_min=p_min, scheduler=scheduler,
        options=SchedulerOptions(seed=seed, max_power_restarts=1),
        name="t-session"))


class TestAdmission:
    def test_admit_returns_start_and_emits_event(self):
        s = make_session()
        event = s.offer("a", duration=3, power=4.0, resource="R")
        assert event["event"] == "admit"
        assert event["task"] == "a"
        assert event["start"] == 0
        assert s.admitted == ["a"]
        assert s.schedule.start("a") == 0

    def test_power_infeasible_arrival_rejected(self):
        s = make_session(p_max=5.0)
        assert s.offer("a", duration=2, power=4.0)["event"] == "admit"
        event = s.offer("big", duration=2, power=50.0)
        assert event["event"] == "reject"
        assert "big" in event["reason"]
        assert s.admitted == ["a"]
        assert [name for name, _ in s.rejected] == ["big"]

    def test_rejection_leaves_state_untouched(self):
        s = make_session(p_max=5.0)
        s.offer("a", duration=2, power=4.0)
        before_starts = s.schedule.as_dict()
        before_edges = len(s.problem().graph.edges())
        s.offer("big", duration=2, power=50.0,
                constraints=[{"kind": "precedence", "src": "a"}])
        assert s.schedule.as_dict() == before_starts
        assert len(s.problem().graph.edges()) == before_edges
        assert "big" not in s.problem().graph
        # and the session still works afterwards
        assert s.offer("c", duration=1, power=1.0)["event"] == "admit"

    def test_timing_infeasible_arrival_rejected(self):
        s = make_session(p_max=20.0)
        s.offer("a", duration=5, power=1.0)
        # demand b at least 10 after a, but also a at least 1 after b:
        # a positive cycle.
        event = s.offer(
            "b", duration=2, power=1.0,
            constraints=[
                {"kind": "min", "src": "a", "dst": "b", "sep": 10},
                {"kind": "min", "src": "b", "dst": "a", "sep": 1},
            ])
        assert event["event"] == "reject"
        assert s.admitted == ["a"]

    def test_unknown_constraint_target_rejects(self):
        s = make_session()
        event = s.offer(
            "a", duration=2,
            constraints=[{"kind": "precedence", "src": "ghost"}])
        assert event["event"] == "reject"
        assert s.admitted == []

    def test_duplicate_name_rejects(self):
        s = make_session()
        s.offer("a", duration=2, power=1.0)
        event = s.offer("a", duration=3, power=1.0)
        assert event["event"] == "reject"
        assert s.admitted == ["a"]

    def test_exclusive_resource_serializes_arrivals(self):
        s = make_session(p_max=100.0)
        s.offer("a", duration=4, power=1.0, resource="cpu")
        s.offer("b", duration=4, power=1.0, resource="cpu")
        sched = s.quiesce().schedule
        assert {sched.start("a"), sched.start("b")} == {0, 4}


class TestClock:
    def test_advance_commits_started_tasks(self):
        s = make_session(p_max=100.0)
        s.offer("a", duration=4, power=1.0, resource="R")
        s.offer("b", duration=4, power=1.0, resource="R")
        events = s.advance(2)
        assert [e["task"] for e in events] == ["a"]
        assert s.committed == {"a": 0}
        assert s.pending == ["b"]

    def test_clock_never_moves_backward(self):
        s = make_session()
        s.offer("a", duration=2, power=1.0)
        s.advance(5)
        assert s.advance(3) == []
        assert s.now == 5

    def test_bad_clock_value_raises(self):
        s = make_session()
        with pytest.raises(ReproError):
            s.advance(-1)
        with pytest.raises(ReproError):
            s.advance(True)

    def test_task_starting_exactly_now_stays_movable(self):
        s = make_session(p_max=100.0)
        s.offer("a", duration=3, power=1.0)
        s.advance(0)
        assert s.committed == {}

    def test_committed_start_survives_later_arrivals(self):
        s = make_session(p_max=6.0)
        s.offer("a", duration=4, power=4.0)
        s.advance(1)
        assert s.committed == {"a": 0}
        # a heavy task cannot overlap a; it must land after a's end
        event = s.offer("b", duration=2, power=4.0)
        assert event["event"] == "admit"
        assert s.schedule.start("a") == 0
        assert s.schedule.start("b") >= 4

    def test_late_arrival_clamped_to_now(self):
        s = make_session()
        s.advance(5)
        event = s.offer("a", duration=2, power=1.0, at=3)
        assert event["event"] == "admit"
        assert s.now == 5
        assert s.schedule.start("a") >= 5

    def test_suffix_release_respects_clock(self):
        s = make_session(p_max=100.0)
        s.offer("a", duration=2, power=1.0)
        s.advance(7)
        s.offer("b", duration=2, power=1.0)
        assert s.schedule.start("b") >= 7


class TestFaults:
    def test_overrun_pushes_successor(self):
        s = make_session(p_max=12.0)
        s.offer("x", duration=3, power=5.0, resource="R")
        s.offer("y", duration=3, power=5.0, resource="R",
                constraints=[{"kind": "precedence", "src": "x"}])
        s.advance(1)
        event = s.inject_fault({"x": 2}, at=2)
        assert event["event"] == "replan"
        assert event["frozen"] == ["x"]
        assert s.spans["x"] == (0, 5)
        assert s.schedule.start("y") >= 5

    def test_replan_respects_power_bound(self):
        s = make_session(p_max=8.0)
        s.offer("x", duration=3, power=5.0)
        s.offer("y", duration=3, power=5.0,
                constraints=[{"kind": "precedence", "src": "x"}])
        s.advance(1)
        s.inject_fault({"x": 3}, at=2)
        # x now runs [0, 6); y at 5 W cannot overlap it under 8 W
        assert s.spans["x"] == (0, 6)
        assert s.schedule.start("y") >= 6
        report = s.problem().check(s.schedule)
        assert report.ok, report.violations

    def test_all_tasks_faulted_degenerate_case(self):
        s = make_session(p_max=100.0)
        s.offer("x", duration=2, power=1.0)
        s.offer("y", duration=2, power=1.0)
        s.offer("z", duration=2, power=1.0)
        sched = s.schedule
        horizon = max(sched.finish(n) for n in ("x", "y", "z"))
        event = s.inject_fault({"x": 1, "y": 1, "z": 1},
                               at=horizon + 3)
        assert event["frozen"] == ["x", "y", "z"]
        # every task frozen at its executed start, stretched by +1
        for name in ("x", "y", "z"):
            start, end = s.spans[name]
            assert end - start == 3
            assert s.schedule.start(name) == start
        assert s.committed_report().ok

    def test_post_fault_arrival_sees_stretched_history(self):
        s = make_session(p_max=8.0)
        s.offer("x", duration=3, power=5.0, resource="R")
        s.advance(1)
        s.inject_fault({"x": 4}, at=2)   # x runs [0, 7)
        event = s.offer("b", duration=2, power=5.0, resource="R")
        assert event["event"] == "admit"
        # b shares x's exclusive resource and its power class: it must
        # clear the *stretched* end, not the nominal one.
        assert s.schedule.start("b") >= 7

    def test_second_fault_preserves_first_faults_overrun(self):
        # Regression: a later fault naming a *different* task must not
        # erase the first fault's realized stretch from history — the
        # replay's duration model carries every recorded overrun.
        s = make_session(p_max=12.0)
        s.offer("x", duration=3, power=5.0, resource="R")
        s.offer("y", duration=3, power=5.0, resource="R",
                constraints=[{"kind": "precedence", "src": "x"}])
        s.offer("z", duration=4, power=1.0)
        s.advance(1)
        s.inject_fault({"x": 2}, at=2)   # x now runs [0, 5)
        assert s.spans["x"] == (0, 5)
        s.inject_fault({"z": 1}, at=3)   # names only z
        assert s.spans["x"] == (0, 5)
        assert s.spans["z"] == (0, 5)
        # y shares x's exclusive resource: it must still clear the
        # stretched end recorded by the *first* fault.
        assert s.schedule.start("y") >= 5
        assert s.committed_report().ok

    def test_repeated_fault_on_same_task_keeps_longest_stretch(self):
        s = make_session(p_max=12.0)
        s.offer("x", duration=4, power=5.0)
        s.advance(1)
        s.inject_fault({"x": 3}, at=2)   # x runs [0, 7)
        assert s.spans["x"] == (0, 7)
        # A smaller overrun for the same still-running task cannot
        # shrink the realized span.
        s.inject_fault({"x": 1}, at=3)
        assert s.spans["x"] == (0, 7)

    def test_fault_replan_uses_session_scheduler(self):
        # A max_power session's fault replans must come from the
        # max-power algorithm, not the full min-power pipeline.
        s = make_session(p_max=12.0, scheduler="max_power")
        s.offer("x", duration=3, power=5.0)
        s.offer("y", duration=3, power=5.0,
                constraints=[{"kind": "precedence", "src": "x"}])
        s.advance(1)
        s.inject_fault({"x": 2}, at=2)
        assert s.result.stage == "max_power"

    def test_fault_before_admission_raises(self):
        s = make_session()
        with pytest.raises(ReproError):
            s.inject_fault({"x": 1})

    def test_fault_on_unknown_task_raises(self):
        s = make_session()
        s.offer("a", duration=2, power=1.0)
        with pytest.raises(ReproError):
            s.inject_fault({"ghost": 1})

    def test_fault_in_the_past_raises(self):
        s = make_session()
        s.offer("a", duration=2, power=1.0)
        s.advance(5)
        with pytest.raises(ReproError):
            s.inject_fault({"a": 1}, at=3)


class TestQuiesce:
    def test_empty_session_quiesces_to_none(self):
        s = make_session()
        assert s.quiesce() is None

    def test_quiesce_result_is_validated(self):
        s = make_session(p_max=9.0)
        for i in range(5):
            s.offer(f"t{i}", duration=2, power=4.0)
        result = s.quiesce()
        assert check_time_valid(result.schedule).ok
        assert s.problem().check(result.schedule).ok

    def test_closed_session_refuses_everything(self):
        s = make_session()
        s.offer("a", duration=2, power=1.0)
        s.close()
        assert s.closed
        with pytest.raises(ReproError):
            s.offer("b", duration=2, power=1.0)
        with pytest.raises(ReproError):
            s.advance(3)
        with pytest.raises(ReproError):
            s.quiesce()
        # close is idempotent
        s.close()

    def test_event_journal_is_sequenced(self):
        s = make_session(p_max=5.0)
        s.offer("a", duration=2, power=4.0)
        s.offer("big", duration=2, power=50.0)
        s.advance(3)
        s.quiesce()
        s.close()
        assert [e["seq"] for e in s.events] == list(range(len(s.events)))
        kinds = [e["event"] for e in s.events]
        assert kinds[0] == "open"
        assert kinds[-1] == "close"
        assert "admit" in kinds and "reject" in kinds
        assert "commit" in kinds and "quiesce" in kinds


class TestScripts:
    def test_arrivals_from_problem_rebuilds_graph(self):
        problem = fig1_problem()
        commands = arrivals_from_problem(problem, quiesce=False)
        assert len(commands) == len(problem.graph.task_names())
        script = script_from_problem(problem)
        session, events = replay_script(script)
        rebuilt = session.problem().graph
        original = problem.graph
        assert sorted(rebuilt.task_names()) \
            == sorted(original.task_names())
        assert {(e.src, e.dst, e.weight) for e in rebuilt.edges()} \
            == {(e.src, e.dst, e.weight) for e in original.edges()}

    def test_problem_from_script_rebuilds_graph(self):
        problem = fig1_problem()
        script = script_from_problem(problem)
        rebuilt = problem_from_script(script)
        assert sorted(rebuilt.graph.task_names()) \
            == sorted(problem.graph.task_names())
        assert {(e.src, e.dst, e.weight) for e in rebuilt.graph.edges()} \
            == {(e.src, e.dst, e.weight) for e in problem.graph.edges()}
        assert rebuilt.p_max == problem.p_max

    def test_problem_from_script_restricted_to_admitted(self):
        problem = fig1_problem()
        script = script_from_problem(problem)
        admitted = problem.graph.task_names()[:3]
        rebuilt = problem_from_script(script, admitted)
        assert sorted(rebuilt.graph.task_names()) == sorted(admitted)
        for edge in rebuilt.graph.edges():
            for endpoint in (edge.src, edge.dst):
                assert endpoint in admitted \
                    or endpoint == rebuilt.graph.anchor.name

    def test_arrivals_order_must_be_permutation(self):
        problem = fig1_problem()
        with pytest.raises(ReproError):
            arrivals_from_problem(problem, order=["a", "b"])
        with pytest.raises(ReproError):
            arrivals_from_problem(
                problem,
                order=problem.graph.task_names() + ["ghost"])

    def test_script_json_round_trip(self):
        import json
        script = script_from_problem(fig1_problem(), seed=11)
        doc = json.loads(json.dumps(script.to_dict()))
        clone = SessionScript.from_dict(doc)
        assert clone.p_max == script.p_max
        assert clone.seed == 11
        assert clone.commands == script.commands
        s1, _ = replay_script(script)
        s2, _ = replay_script(clone)
        assert s1.schedule == s2.schedule

    def test_apply_dispatch_matches_direct_calls(self):
        s = make_session(p_max=12.0)
        events = s.apply({"event": "arrival",
                          "task": {"name": "a", "duration": 3,
                                   "power": 5.0, "resource": "R"}})
        assert [e["event"] for e in events] == ["admit"]
        events = s.apply({"event": "advance", "to": 2})
        assert [e["event"] for e in events] == ["commit"]
        events = s.apply({"event": "fault", "overruns": {"a": 1}})
        assert [e["event"] for e in events] == ["replan"]
        events = s.apply({"event": "quiesce"})
        assert [e["event"] for e in events] == ["quiesce"]
        with pytest.raises(ReproError):
            s.apply({"event": "warp"})
