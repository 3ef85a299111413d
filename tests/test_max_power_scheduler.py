"""Unit tests for the max-power scheduler (paper Fig. 4)."""

import pytest

from repro import (ConstraintGraph, MaxPowerScheduler, SchedulerOptions,
                   SchedulingFailure, SchedulingProblem,
                   check_power_valid, max_power_schedule)
from repro.workloads import RandomWorkloadConfig, independent, random_problem


class TestSpikeElimination:
    def test_independent_tasks_packed_under_budget(self):
        # 4 x 4 W tasks under a 10 W budget: at most 2 at a time.
        problem = independent(4, duration=5, power=4.0, p_max=10.0)
        result = max_power_schedule(problem)
        assert result.metrics.peak_power <= 10.0 + 1e-9
        assert result.metrics.spikes == 0
        assert result.finish_time == 10  # two slots of two tasks

    def test_valid_schedule_untouched(self):
        problem = independent(2, duration=5, power=4.0, p_max=10.0)
        result = max_power_schedule(problem)
        assert result.finish_time == 5  # both fit side by side

    def test_result_is_power_and_time_valid(self, small_problem):
        result = max_power_schedule(small_problem)
        report = check_power_valid(result.schedule,
                                   small_problem.p_max,
                                   baseline=small_problem.baseline)
        assert report.ok

    def test_baseline_reduces_headroom(self):
        lo = independent(4, duration=5, power=4.0, p_max=10.0)
        result_lo = max_power_schedule(lo)
        hi = SchedulingProblem(lo.graph, p_max=10.0, baseline=3.0)
        result_hi = max_power_schedule(hi)
        # with 3 W of baseline only one 4 W task fits at a time
        assert result_hi.finish_time > result_lo.finish_time

    def test_infeasible_task_rejected_up_front(self):
        problem = independent(1, duration=5, power=12.0, p_max=10.0)
        with pytest.raises(SchedulingFailure, match="power-infeasible"):
            max_power_schedule(problem)

    def test_respects_timing_constraints_while_delaying(self):
        g = ConstraintGraph()
        g.new_task("a", duration=5, power=6.0, resource="A")
        g.new_task("b", duration=5, power=6.0, resource="B")
        g.add_separation_window("a", "b", 0, 3)
        problem = SchedulingProblem(g, p_max=8.0)
        # a and b can never overlap fully (12 W > 8) but the window
        # forces them within 3 s of each other -> infeasible.
        with pytest.raises(SchedulingFailure):
            max_power_schedule(problem,
                               SchedulerOptions(max_spike_attempts=200,
                                                serial_fallback=False))

    def test_stage_and_stats(self, small_problem):
        scheduler = MaxPowerScheduler()
        result = scheduler.solve(small_problem)
        assert result.stage == "max_power"
        assert result.stats.delays_applied >= 1


class TestHeuristicKnobs:
    def test_random_selection_still_valid(self, small_problem):
        options = SchedulerOptions(slack_ordering=False, seed=3)
        result = max_power_schedule(small_problem, options)
        assert result.metrics.spikes == 0

    def test_deterministic_for_fixed_seed(self, small_problem):
        a = max_power_schedule(small_problem, SchedulerOptions(seed=5))
        b = max_power_schedule(small_problem, SchedulerOptions(seed=5))
        assert a.schedule == b.schedule

    def test_serial_fallback_disabled(self, small_problem):
        options = SchedulerOptions(serial_fallback=False)
        result = max_power_schedule(small_problem, options)
        assert result.metrics.spikes == 0

    def test_multi_start_never_worse_than_single(self, small_problem):
        single = max_power_schedule(
            small_problem, SchedulerOptions(max_power_restarts=1,
                                            serial_fallback=False))
        multi = max_power_schedule(
            small_problem, SchedulerOptions(max_power_restarts=4,
                                            serial_fallback=False))
        assert multi.finish_time <= single.finish_time


class TestCompaction:
    def test_compaction_never_lengthens(self, small_problem):
        raw = max_power_schedule(
            small_problem, SchedulerOptions(compaction=False,
                                            serial_fallback=False))
        packed = max_power_schedule(
            small_problem, SchedulerOptions(compaction=True,
                                            serial_fallback=False))
        assert packed.finish_time <= raw.finish_time

    def test_compaction_result_stays_valid(self):
        problem = independent(6, duration=4, power=3.0, p_max=7.0)
        result = max_power_schedule(problem,
                                    SchedulerOptions(compaction=True))
        report = check_power_valid(result.schedule, problem.p_max)
        assert report.ok

    def test_rover_worst_case_reaches_serial_quality(self):
        """The paper: the worst-case power-aware schedule coincides
        with the fully-serial JPL schedule (75 s)."""
        from repro.mission import MarsRover, SolarCase
        rover = MarsRover.standard()
        result = max_power_schedule(rover.problem(SolarCase.WORST))
        assert result.finish_time == 75
        assert result.metrics.spikes == 0


class TestSerialFallback:
    @staticmethod
    def tie_problem():
        """Three 2 s, 5 W tasks on their own resources, ``c`` released
        at 4: the repair and the serial chain both finish at 6 = sum
        of the durations, but only the serial chain stays under
        P_min."""
        g = ConstraintGraph("tie")
        for name in "abc":
            g.new_task(name, duration=2, power=5.0,
                       resource=name.upper())
        g.add_release("c", 4)
        return SchedulingProblem(g, p_max=20.0, p_min=5.0)

    def test_serial_chain_wins_a_makespan_tie_on_energy(self):
        """The fallback searches when the duration sum *equals* the best
        repaired makespan: a tie on finish time can still win on
        energy."""
        result = MaxPowerScheduler().solve(self.tie_problem())
        assert result.schedule.as_dict() == {"a": 0, "b": 2, "c": 4}
        assert result.energy_cost == pytest.approx(0.0)

    def test_repair_alone_keeps_the_overlap(self):
        result = MaxPowerScheduler(
            SchedulerOptions(serial_fallback=False)).solve(
                self.tie_problem())
        assert result.schedule.as_dict() == {"a": 0, "b": 0, "c": 4}
        assert result.finish_time == 6
        assert result.energy_cost == pytest.approx(10.0)

    def test_failure_names_the_fallback_outcome(self):
        """Restart 0 spends its 2,000 spike attempts; restart 1's salt
        orders every candidate list restart 0 sorts the same way, so it
        would only replay restart 0 and is skipped.  The fallback gives
        up after its 200 backtracks, although a power-valid serial
        schedule (71 s, peaking at exactly 8.4 W) exists 3,593
        backtracks deep: the message must say the fallback gave up,
        not that no serial schedule exists."""
        problem = random_problem(3, RandomWorkloadConfig(
            tasks=12, resources=3, layers=3)).with_power_constraints(
                8.4, 0.0)
        scheduler = MaxPowerScheduler()
        with pytest.raises(SchedulingFailure) as failure:
            scheduler.solve(problem)
        assert scheduler.stats.spike_attempts == 2000
        assert str(failure.value).endswith(
            "; serial fallback: serial scheduler gave up on 'random-3' "
            "after 200 backtracks")

    def test_failure_says_when_no_serial_order_exists(self):
        """The window forces ``a`` and ``b`` to overlap, which no
        restart can fit under 8 W and no serial order allows."""
        g = ConstraintGraph("window")
        g.new_task("a", duration=5, power=6.0, resource="A")
        g.new_task("b", duration=5, power=7.0, resource="B")
        g.add_separation_window("a", "b", 0, 3)
        problem = SchedulingProblem(g, p_max=8.0)
        with pytest.raises(SchedulingFailure,
                           match="; serial fallback: no fully-serial "
                                 "schedule exists for 'window'$"):
            max_power_schedule(problem,
                               SchedulerOptions(max_spike_attempts=50))
