"""What the schedulers remember between trial moves, and when it resets.

DESIGN.md §5n: the graph keeps its task and name lists until
``add_task`` or ``set_duration``; a schedule computes its makespan
once and remembers the slack of each task while the graph's edge set
is the one it was read under; the pipeline counts the schedules and
profiles each stage builds.
"""

from __future__ import annotations

import math
import pickle
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from repro import (ConstraintGraph, PowerAwareScheduler, Resource,
                   Schedule, SchedulerOptions, SchedulingFailure,
                   SchedulingProblem)
from repro.core.slack import slack
from repro.examples_data import fig1_problem
from repro.execution.replan import freeze
from repro.mission import MarsRover
from repro.mission.rover import SolarCase
from repro.obs import MetricsRegistry
from tests.test_properties import precedence_problems
from tests.test_scheduler_properties import budgeted_problems


def _graph() -> ConstraintGraph:
    g = ConstraintGraph("cache")
    g.new_task("a", duration=4, power=5.0, resource="R")
    g.new_task("b", duration=3, power=4.0, resource="R")
    g.new_task("c", duration=5, power=3.0, resource="S")
    g.add_precedence("a", "b")
    g.add_precedence("a", "c")
    return g


class TestTaskLists:
    def test_add_task_after_a_cached_read(self):
        g = _graph()
        assert g.task_names() == ["a", "b", "c"]
        assert [t.name for t in g.tasks()] == ["a", "b", "c"]
        g.new_task("d", duration=2, power=1.0)
        assert g.task_names() == ["a", "b", "c", "d"]
        assert [t.name for t in g.tasks()] == ["a", "b", "c", "d"]
        assert g.task_names(include_anchor=True)[1:] == \
            ["a", "b", "c", "d"]

    def test_set_duration_after_a_cached_read(self):
        g = _graph()
        assert [t.duration for t in g.tasks()] == [4, 3, 5]
        g.set_duration("b", 6)
        assert [t.duration for t in g.tasks()] == [4, 6, 5]
        assert g.tasks_on("R")[1].duration == 6
        assert g.task_names() == ["a", "b", "c"]

    def test_a_returned_list_is_a_copy(self):
        g = _graph()
        for read in (g.tasks, g.task_names):
            for include_anchor in (False, True):
                got = read(include_anchor=include_anchor)
                got.pop()
                got.append("x")
        assert g.task_names() == ["a", "b", "c"]
        assert [t.name for t in g.tasks()] == ["a", "b", "c"]
        assert len(g.tasks(include_anchor=True)) == 4

    def test_pickles_and_copies_rebuild_the_lists(self):
        g = _graph()
        g.tasks(), g.task_names()
        clone = pickle.loads(pickle.dumps(g))
        clone.new_task("d", duration=1)
        assert clone.task_names() == ["a", "b", "c", "d"]
        copy = g.copy()
        copy.set_duration("a", 9)
        assert g.task("a").duration == 4
        assert [t.duration for t in copy.tasks()] == [9, 3, 5]


class TestScheduleMemos:
    def test_memos_stay_out_of_equality_hashing_and_pickles(self):
        g = _graph()
        cold = Schedule(g, {"a": 0, "b": 4, "c": 4})
        warm = Schedule(g, {"a": 0, "b": 4, "c": 4})
        before = pickle.dumps(warm)
        assert warm.makespan == 9
        assert slack(warm, "b") > 0
        assert warm == cold and hash(warm) == hash(cold)
        assert pickle.dumps(warm) == before
        thawed = pickle.loads(before)
        assert thawed == warm and thawed.makespan == 9

    def test_slack_follows_the_edge_set(self):
        g = _graph()
        s = Schedule(g, {"a": 0, "b": 4, "c": 4})
        assert slack(s, "b") == 10 ** 9
        token = g.checkpoint()
        g.add_start_deadline("b", 6)
        assert slack(s, "b") == 2
        g.rollback(token)
        assert slack(s, "b") == 10 ** 9
        g.add_start_deadline("b", 7)
        assert slack(s, "b") == 3
        g.strip_tags(["user"])
        assert slack(s, "b") == 10 ** 9


def test_a_running_overrun_freezes_then_solves_from_its_durations():
    """``freeze`` stretches a still-running overrun on a fresh working
    copy before any schedule of that copy exists, so every makespan and
    energy the solve reports follows the stretched duration."""
    g = _graph()
    g.declare_resource(Resource(name="T", idle_power=0.5))
    problem = SchedulingProblem(g, p_max=9.0, p_min=4.0, baseline=0.5)
    work = g.copy()
    freeze(work, {"a": (0, 7)}, now=3)     # nominal 4, running at 3
    assert work.task("a").duration == 7
    result = PowerAwareScheduler().solve(SchedulingProblem(
        work, p_max=problem.p_max, p_min=problem.p_min,
        baseline=problem.baseline))
    starts = result.schedule.as_dict()
    tasks = {task.name: task for task in work.tasks()}
    makespan = max(starts[n] + tasks[n].duration for n in starts)
    assert starts["b"] >= 7                 # R stays held until 7
    assert result.schedule.makespan == result.finish_time == makespan
    idle = [res.idle_power for res in work.resources]
    energy = 0.0
    for t in range(makespan):
        level = math.fsum(
            [tasks[n].power for n in starts
             if starts[n] <= t < starts[n] + tasks[n].duration]
            + [problem.baseline] + idle)
        energy += max(0.0, level - problem.p_min)
    assert result.energy_cost == pytest.approx(energy, abs=1e-9)


def _slack_reads_are_fresh(problem: SchedulingProblem) -> int:
    """Solve ``problem``; every slack a scheduler reads must equal the
    slack of a fresh schedule of the same starts on the live graph.
    Returns the number of reads."""
    reads = []

    def checked(schedule, name):
        value = slack(schedule, name)
        fresh = slack(Schedule(schedule.graph, schedule.as_dict()), name)
        assert value == fresh, (name, value, fresh)
        reads.append(name)
        return value

    with mock.patch("repro.scheduling.max_power.slack", checked), \
            mock.patch("repro.scheduling.min_power.slack", checked):
        try:
            PowerAwareScheduler(SchedulerOptions()).solve(problem)
        except SchedulingFailure:
            pass
    return len(reads)


class TestSlackReads:
    @given(precedence_problems())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_precedence_problems(self, problem):
        _slack_reads_are_fresh(problem)

    @given(budgeted_problems())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_budgeted_problems(self, problem):
        _slack_reads_are_fresh(problem)

    def test_the_rover_reads_slack(self):
        problem = MarsRover.standard().problem(SolarCase.TYPICAL)
        assert _slack_reads_are_fresh(problem) > 0


class TestBuildCounts:
    """Schedules and profiles built per stage; they repeat exactly."""

    @pytest.mark.parametrize("problem, timing, max_power, total", [
        (fig1_problem(), (1, 1), (6, 6), (8, 8)),
        (MarsRover.standard().problem(SolarCase.TYPICAL),
         (1, 1), (28, 28), (29, 29)),
    ], ids=["fig1", "rover-typical"])
    def test_pipeline_counts(self, problem, timing, max_power, total):
        for _ in range(2):
            run = PowerAwareScheduler().solve_pipeline(problem)
            counts = [(stats.schedules_built, stats.profiles_built)
                      for stats in (run.timing.stats, run.max_power.stats,
                                    run.final.stats)]
            assert counts == [timing, max_power, total]

    def test_counts_are_metrics(self):
        stats = PowerAwareScheduler().solve(fig1_problem()).stats
        registry = MetricsRegistry()
        stats.absorb_into(registry)
        assert registry.counter("sched.build.schedules").value == 8
        assert registry.counter("sched.build.profiles").value == 8
