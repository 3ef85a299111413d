"""Unit tests for the fully-serial (JPL-style) baseline scheduler."""

import pytest

from repro import (ConstraintGraph, SchedulerOptions, SchedulingFailure,
                   SchedulingProblem, SerialScheduler, check_time_valid,
                   serial_schedule)
from repro.workloads import independent


class TestSerialization:
    def test_everything_serialized(self):
        problem = independent(4, duration=5, power=4.0, p_max=100.0)
        result = serial_schedule(problem)
        # one task at a time -> makespan is the duration sum
        assert result.finish_time == 20
        assert result.metrics.peak_power == pytest.approx(4.0)

    def test_packed_back_to_back(self):
        problem = independent(3, duration=4, power=1.0, p_max=100.0)
        result = serial_schedule(problem)
        starts = sorted(result.schedule.as_dict().values())
        assert starts == [0, 4, 8]

    def test_respects_precedences(self):
        g = ConstraintGraph()
        g.new_task("a", duration=5, power=1.0, resource="A")
        g.new_task("b", duration=5, power=1.0, resource="B")
        g.add_precedence("b", "a")
        result = serial_schedule(SchedulingProblem(g, p_max=10.0))
        assert result.schedule.start("b") == 0
        assert result.schedule.start("a") == 5

    def test_chain_recorded_in_extra(self):
        problem = independent(3, duration=2, power=1.0, p_max=10.0)
        result = serial_schedule(problem)
        chain = result.extra["chain"]
        assert len(chain) == 3
        # chain order matches start-time order
        starts = [result.schedule.start(n) for n in chain]
        assert starts == sorted(starts)

    def test_time_valid(self, small_problem):
        result = serial_schedule(small_problem)
        assert check_time_valid(result.schedule).ok

    def test_backtracks_over_windows(self):
        """A max window can force a specific serial order."""
        g = ConstraintGraph()
        g.new_task("a", duration=5, power=1.0, resource="A")
        g.new_task("z", duration=5, power=1.0, resource="B")
        g.add_separation_window("z", "a", 0, 5)  # a within 5 s of z
        result = serial_schedule(SchedulingProblem(g, p_max=10.0))
        assert result.schedule.start("z") == 0
        assert result.schedule.start("a") == 5

    def test_infeasible_serialization_detected(self):
        """Two tasks that must overlap cannot be serialized."""
        g = ConstraintGraph()
        g.new_task("u", duration=10, power=1.0, resource="A")
        g.new_task("v", duration=10, power=1.0, resource="B")
        g.add_separation_window("u", "v", 0, 5)  # must overlap
        with pytest.raises(SchedulingFailure,
                           match="no fully-serial schedule exists"):
            serial_schedule(SchedulingProblem(g, p_max=10.0))

    def test_spent_budget_is_not_reported_as_infeasible(self):
        """Running out of backtracks is a give-up, not a proof that no
        serial order exists: with a start deadline of 3 on ``y`` the
        search needs four tries to reach the chain ``y, x``."""
        def solve(budget: int):
            g = ConstraintGraph("xy")
            g.new_task("x", duration=5, power=1.0)
            g.new_task("y", duration=5, power=1.0)
            g.add_start_deadline("y", 3)
            return serial_schedule(SchedulingProblem(g, p_max=10.0),
                                   SchedulerOptions(max_backtracks=budget))

        for budget in (1, 2, 3):
            with pytest.raises(SchedulingFailure,
                               match=f"gave up on 'xy' after {budget} "
                                     "backtracks"):
                solve(budget)
        assert solve(4).extra["chain"] == ["y", "x"]

    def test_rover_serial_is_75s(self):
        from repro.mission import MarsRover, SolarCase
        rover = MarsRover.standard()
        result = serial_schedule(rover.problem(SolarCase.WORST))
        assert result.finish_time == 75


class TestFinishByBound:
    """``finish_by`` skips the search when the task durations alone sum
    past it: a serial schedule cannot finish any earlier."""

    @staticmethod
    def problem():
        return independent(3, duration=4, power=1.0, p_max=100.0)

    def test_bound_below_duration_sum_raises_before_searching(self):
        scheduler = SerialScheduler()
        with pytest.raises(SchedulingFailure,
                           match="can finish by 11: its task "
                                 "durations sum to 12"):
            scheduler.solve(self.problem(), finish_by=11)
        assert scheduler.stats.timing_backtracks == 0
        assert scheduler.stats.longest_path_runs == 0

    def test_bound_at_duration_sum_searches_as_unbounded(self):
        """The packed chain takes exactly the duration sum, so a bound
        equal to it must not change the answer."""
        unbounded = SerialScheduler().solve(self.problem())
        assert unbounded.finish_time == 12
        bounded = SerialScheduler().solve(self.problem(), finish_by=12)
        assert bounded.extra["chain"] == unbounded.extra["chain"]
        assert bounded.schedule == unbounded.schedule
