"""Unit tests for the runtime execution layer."""

import pytest

from repro import (ConstraintGraph, SchedulerOptions, SchedulingProblem,
                   schedule)
from repro.errors import ReproError
from repro.execution import (BATTERY_DEPLETED, POWER_SPIKE,
                             RESOURCE_VIOLATION, FixedOverruns,
                             ScheduleExecutor, SolarDropout, Trace,
                             UniformJitter, replan,
                             TASK_FINISHED, TASK_STARTED)
from repro.power import ConstantSolar, IdealBattery, PowerSystem

FAST = SchedulerOptions(max_power_restarts=1, min_power_scans=1, seed=1)


def pipeline_problem() -> SchedulingProblem:
    g = ConstraintGraph("exec")
    g.new_task("a", duration=4, power=4.0, resource="R")
    g.new_task("b", duration=4, power=4.0, resource="R")
    g.new_task("c", duration=4, power=4.0, resource="S")
    g.add_precedence("a", "b")
    g.add_precedence("a", "c")
    return SchedulingProblem(g, p_max=9.0, p_min=4.0)


def planned(problem):
    return schedule(problem, FAST)


class TestTrace:
    def test_record_and_query(self):
        trace = Trace()
        trace.record(3, TASK_STARTED, "a")
        trace.record(7, TASK_FINISHED, "a")
        trace.record(5, POWER_SPIKE, detail="11 W")
        assert len(trace) == 3
        assert trace.of_kind(TASK_STARTED)[0].task == "a"
        assert len(trace.for_task("a")) == 2
        assert len(trace.violations()) == 1
        assert trace.first(TASK_FINISHED).time == 7
        assert "t=5" in trace.render()


class TestNominalExecution:
    def test_static_replays_the_plan_exactly(self):
        problem = pipeline_problem()
        plan = planned(problem)
        result = ScheduleExecutor(problem, plan.schedule,
                                  policy="static").run()
        assert result.ok
        for name in plan.schedule:
            assert result.spans[name][0] == plan.schedule.start(name)
        assert result.finished_at == plan.finish_time

    def test_self_timed_matches_plan_when_nothing_goes_wrong(self):
        problem = pipeline_problem()
        plan = planned(problem)
        result = ScheduleExecutor(problem, plan.schedule,
                                  policy="self_timed").run()
        assert result.ok
        assert result.finished_at == plan.finish_time

    def test_realized_profile_matches_plan(self):
        problem = pipeline_problem()
        plan = planned(problem)
        result = ScheduleExecutor(problem, plan.schedule).run()
        assert result.profile.segments == plan.profile.segments

    def test_unknown_policy_rejected(self):
        problem = pipeline_problem()
        plan = planned(problem)
        with pytest.raises(ReproError):
            ScheduleExecutor(problem, plan.schedule, policy="magic")

    def test_snapshot_run_until(self):
        problem = pipeline_problem()
        plan = planned(problem)
        result = ScheduleExecutor(problem, plan.schedule).run(until=2)
        assert result.pending  # nothing can have completed by t=2
        assert not result.ok


class TestOverruns:
    def test_static_policy_exposes_resource_collision(self):
        """Task a overruns past b's planned start on the shared
        resource: the time-triggered executive collides."""
        problem = pipeline_problem()
        plan = planned(problem)
        result = ScheduleExecutor(
            problem, plan.schedule,
            durations=FixedOverruns({"a": 3}), policy="static").run()
        kinds = {e.kind for e in result.trace.violations()}
        assert RESOURCE_VIOLATION in kinds

    def test_self_timed_policy_stretches_instead(self):
        problem = pipeline_problem()
        plan = planned(problem)
        result = ScheduleExecutor(
            problem, plan.schedule,
            durations=FixedOverruns({"a": 3}),
            policy="self_timed").run()
        assert result.ok
        assert result.finished_at > plan.finish_time
        # b starts only after a's *actual* end on the shared resource
        assert result.spans["b"][0] >= result.spans["a"][1]

    def test_self_timed_respects_power_headroom(self):
        problem = pipeline_problem()
        plan = planned(problem)
        result = ScheduleExecutor(
            problem, plan.schedule,
            durations=FixedOverruns({"b": 2}),
            policy="self_timed").run()
        assert result.profile.is_power_valid(problem.p_max)

    def test_uniform_jitter_is_deterministic_per_seed(self):
        model = UniformJitter(0.3, seed=4)
        task = pipeline_problem().graph.task("a")
        first = model.actual_duration(task)
        assert model.actual_duration(task) == first
        model.reset(seed=99)
        # may or may not differ, but must stay within bounds
        other = model.actual_duration(task)
        assert 1 <= other <= task.duration * 2

    def test_jitter_bounds(self):
        with pytest.raises(ReproError):
            UniformJitter(1.5)
        with pytest.raises(ReproError):
            FixedOverruns({"a": -1})


class TestSupplyInteraction:
    def test_battery_drains_during_execution(self):
        problem = pipeline_problem()
        plan = planned(problem)
        battery = IdealBattery(capacity=1000.0, max_power=10.0)
        supply = PowerSystem(ConstantSolar(4.0), battery)
        result = ScheduleExecutor(problem, plan.schedule,
                                  supply=supply).run()
        assert result.ok
        assert battery.used == pytest.approx(
            plan.profile.energy_above(4.0), abs=1e-6)
        assert result.energy is not None
        assert result.energy.battery_drawn == pytest.approx(
            battery.used, abs=1e-6)

    def test_battery_depletion_aborts_run(self):
        problem = pipeline_problem()
        plan = planned(problem)
        battery = IdealBattery(capacity=5.0, max_power=10.0)
        supply = PowerSystem(ConstantSolar(0.0), battery)
        result = ScheduleExecutor(problem, plan.schedule,
                                  supply=supply).run()
        assert result.aborted
        assert result.trace.first(BATTERY_DEPLETED) is not None

    def test_solar_dropout_shifts_cost_to_battery(self):
        problem = pipeline_problem()
        plan = planned(problem)
        base = ConstantSolar(4.0)
        battery = IdealBattery(capacity=1000.0, max_power=10.0)
        supply = PowerSystem(SolarDropout(base, 0, 4), battery)
        result = ScheduleExecutor(problem, plan.schedule,
                                  supply=supply).run()
        # during the dropout everything above 0 W comes from battery
        nominal = plan.profile.energy_above(4.0)
        assert battery.used > nominal

    def test_dropout_window_validated(self):
        with pytest.raises(ReproError):
            SolarDropout(ConstantSolar(1.0), 5, 5)


class TestReplan:
    def test_replan_freezes_history_and_releases_future(self):
        problem = pipeline_problem()
        plan = planned(problem)
        snapshot = ScheduleExecutor(
            problem, plan.schedule,
            durations=FixedOverruns({"a": 4}),
            policy="self_timed").run(until=5)
        result = replan(problem, snapshot, now=5, options=FAST)
        # a keeps its actual start; pending tasks start at/after now
        assert result.schedule.start("a") == snapshot.spans["a"][0]
        for name in problem.graph.task_names():
            if name not in snapshot.spans:
                assert result.schedule.start(name) >= 5

    def test_replan_accounts_for_overrun(self):
        """b shares a's resource: after a 4-tick overrun of a, the new
        plan must push b past a's actual end (8), not its nominal end
        (4)."""
        problem = pipeline_problem()
        snapshot = ScheduleExecutor(
            problem, planned(problem).schedule,
            durations=FixedOverruns({"a": 4}),
            policy="self_timed").run(until=5)
        assert "b" not in snapshot.spans  # resource R still held by a
        result = replan(problem, snapshot, now=5, options=FAST)
        assert result.schedule.start("b") >= 8

    def test_replan_holds_the_resource_through_an_overrun(self):
        """a and b share R with no precedence between them: a 4-tick
        overrun keeps a on R over [0, 8), so the replanned b may not
        start on R before 8 (the stretched separations alone do not
        reach b; a's realized duration must)."""
        g = ConstraintGraph("overrun")
        g.new_task("a", duration=4, power=4.0, resource="R")
        g.new_task("b", duration=4, power=4.0, resource="R")
        problem = SchedulingProblem(g, p_max=9.0)
        snapshot = ScheduleExecutor(
            problem, planned(problem).schedule,
            durations=FixedOverruns({"a": 4}),
            policy="self_timed").run(until=5)
        assert snapshot.spans == {"a": (0, 8)}
        result = replan(problem, snapshot, now=5, options=FAST)
        assert result.schedule.start("b") >= 8

    def test_replan_under_new_power_constraints(self):
        problem = pipeline_problem()
        snapshot = ScheduleExecutor(problem,
                                    planned(problem).schedule).run(
            until=1)
        result = replan(problem, snapshot, now=1, p_max=5.0,
                        options=FAST)
        # with only 5 W, b and c can no longer overlap after t=1
        profile = result.profile
        future = profile.restricted(1, profile.horizon)
        assert future.is_power_valid(5.0)

    def test_replan_rejects_negative_now(self):
        problem = pipeline_problem()
        snapshot = ScheduleExecutor(problem,
                                    planned(problem).schedule).run(
            until=1)
        with pytest.raises(ReproError):
            replan(problem, snapshot, now=-1)
