"""Integration tests for the three-stage pipeline (Section 5)."""

from unittest import mock

import pytest

from repro import (ConstraintGraph, PowerAwareScheduler, Resource,
                   SchedulerOptions, SchedulingProblem, TimingScheduler,
                   check_power_valid, schedule)
from repro.scheduling import OptimalScheduler, preset, preset_names
from repro.workloads import RandomWorkloadConfig, fork_join, random_problem


class TestPipeline:
    def test_stages_are_ordered_improvements(self, small_problem):
        pipeline = PowerAwareScheduler().solve_pipeline(small_problem)
        # timing may violate power; max-power must not; min-power must
        # not regress validity or utilization.
        assert pipeline.max_power.metrics.spikes == 0
        assert pipeline.min_power.metrics.spikes == 0
        assert pipeline.min_power.utilization \
            >= pipeline.max_power.utilization - 1e-12
        assert pipeline.min_power.finish_time \
            <= pipeline.max_power.finish_time

    def test_final_is_min_power_stage(self, small_problem):
        pipeline = PowerAwareScheduler().solve_pipeline(small_problem)
        assert pipeline.final is pipeline.min_power

    def test_stage_rows_cover_three_stages(self, small_problem):
        pipeline = PowerAwareScheduler().solve_pipeline(small_problem)
        rows = pipeline.stage_rows()
        assert len(rows) == 3
        assert [r["stage"].split()[0] for r in rows] \
            == ["time-valid", "power-valid", "improved"]

    def test_schedule_function_is_shorthand(self, small_problem):
        direct = schedule(small_problem)
        via_class = PowerAwareScheduler().solve(small_problem)
        assert direct.schedule == via_class.schedule

    def test_problem_graph_unchanged(self, small_problem):
        before = small_problem.graph.edge_count()
        schedule(small_problem)
        assert small_problem.graph.edge_count() == before

    @pytest.mark.parametrize("seed", [10, 16, 20])
    def test_random_instances_end_valid(self, seed, fast_options):
        problem = random_problem(seed)
        result = PowerAwareScheduler(fast_options).solve(problem)
        report = check_power_valid(result.schedule, problem.p_max,
                                   baseline=problem.baseline)
        assert report.ok

    def test_deterministic_across_runs(self, fast_options):
        problem = fork_join(width=4, power=3.0, p_max=8.0, p_min=5.0)
        a = PowerAwareScheduler(fast_options).solve(problem)
        b = PowerAwareScheduler(fast_options).solve(problem)
        assert a.schedule == b.schedule


class TestPresets:
    def test_all_presets_resolve(self):
        for name in preset_names():
            options = preset(name)
            assert isinstance(options, SchedulerOptions)

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            preset("nope")

    @pytest.mark.parametrize("name", preset_names())
    def test_every_preset_solves_fork_join(self, name):
        problem = fork_join(width=3, power=3.0, p_max=8.0, p_min=5.0)
        result = PowerAwareScheduler(preset(name)).solve(problem)
        assert result.metrics.spikes == 0

    def test_paper_preset_is_default_options(self):
        assert preset("paper") == SchedulerOptions()


class TestSingleSerialization:
    """The max-power stage copies the timing stage's serialized graph
    instead of serializing the problem a second time."""

    @staticmethod
    def problem():
        # Its timing search backtracks once and adds 21 serializations.
        return random_problem(18, RandomWorkloadConfig(
            tasks=10, resources=3, layers=3))

    def test_one_solve_serializes_once(self):
        problem = self.problem()
        with mock.patch.object(
                TimingScheduler, "schedule_graph", autospec=True,
                side_effect=TimingScheduler.schedule_graph) as serialize:
            PowerAwareScheduler().solve_pipeline(problem)
        assert serialize.call_count == 1

    def test_final_stats_count_the_timing_work_once(self):
        problem = self.problem()
        alone = TimingScheduler().solve(problem).stats
        assert alone.timing_backtracks > 0
        final = PowerAwareScheduler().solve_pipeline(problem).final.stats
        assert final.timing_backtracks == alone.timing_backtracks
        assert final.serializations == alone.serializations
        assert set(final.stage_seconds) \
            == {"timing", "max_power", "min_power"}

    def test_later_stages_leave_the_timing_graph_alone(self):
        problem = self.problem()
        alone = TimingScheduler().solve(problem).extra["graph"]
        pipeline = PowerAwareScheduler().solve_pipeline(problem)
        graph = pipeline.timing.extra["graph"]
        assert graph.edges() == alone.edges()
        assert graph.checkpoint() == alone.checkpoint()
        assert pipeline.max_power.extra["graph"] is not graph


def idle_probe() -> SchedulingProblem:
    """Two 5-tick, 4 W tasks on resources A and B, with A idling at
    2 W.  Run side by side they peak at exactly 10 W."""
    g = ConstraintGraph("idle-probe")
    g.declare_resource(Resource(name="A", idle_power=2.0))
    g.new_task("x", duration=5, power=4.0, resource="A")
    g.new_task("y", duration=5, power=4.0, resource="B")
    return SchedulingProblem(g, p_max=10.0)


class TestIdlePower:
    """Resource idle power is a constant load, counted once: the
    probe's side-by-side schedule is valid at P_max = 10 W."""

    def test_probe_needs_no_repair(self):
        result = PowerAwareScheduler().solve(idle_probe())
        assert result.schedule.as_dict() == {"x": 0, "y": 0}
        assert result.stats.spike_attempts == 0

    def test_probe_solves_without_the_serial_fallback(self):
        options = SchedulerOptions(serial_fallback=False)
        result = PowerAwareScheduler(options).solve(idle_probe())
        assert result.schedule.as_dict() == {"x": 0, "y": 0}

    def test_probe_agrees_with_the_exhaustive_oracle(self):
        oracle = OptimalScheduler().solve(idle_probe())
        assert oracle.schedule.as_dict() == {"x": 0, "y": 0}
        assert PowerAwareScheduler().solve(idle_probe()).schedule \
            == oracle.schedule
