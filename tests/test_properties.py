"""Property-based tests (hypothesis) for the core invariants.

These pin down the algebraic contracts the schedulers rely on:

* profile construction conserves energy and splits it exactly at any
  level;
* slack is exactly the largest safe single-task delay;
* graph checkpoint/rollback is a perfect inverse for any mutation
  sequence;
* the pipeline's outputs are always valid and never violate the stage
  ordering guarantees, for arbitrary generated instances.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (ConstraintGraph, PowerProfile, Resource, Schedule,
                   SchedulerOptions, SchedulingFailure,
                   SchedulingProblem, check_power_valid,
                   check_time_valid, slack, UNBOUNDED_SLACK)
from repro.core.metrics import min_power_utilization
from repro.io import problem_from_dict, problem_to_dict
from repro.power import split_energy
from repro.scheduling import PowerAwareScheduler

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

task_specs = st.lists(
    st.tuples(st.integers(min_value=1, max_value=8),      # duration
              st.floats(min_value=0.0, max_value=9.0,
                        allow_nan=False, width=16),       # power
              st.integers(min_value=0, max_value=2)),     # resource id
    min_size=1, max_size=6)

starts_for = st.integers(min_value=0, max_value=30)

#: Idle power of one resource: usually none, sometimes a constant load
#: the profile must count exactly once.
idle_watts = st.sampled_from([0.0, 0.0, 0.5, 1.5])


def build_graph(specs, idle=()) -> ConstraintGraph:
    """Tasks on resources ``R0..R2``; ``idle[i]`` watts on ``Ri``."""
    g = ConstraintGraph("prop")
    for res, watts in enumerate(idle):
        if watts:
            g.declare_resource(Resource(name=f"R{res}", idle_power=watts))
    for i, (duration, power, res) in enumerate(specs):
        g.new_task(f"t{i}", duration=duration, power=round(power, 1),
                   resource=f"R{res}")
    return g


@st.composite
def scheduled_instances(draw):
    """A graph plus an arbitrary start assignment (no validity claim)."""
    specs = draw(task_specs)
    g = build_graph(specs)
    starts = {f"t{i}": draw(starts_for) for i in range(len(specs))}
    return g, Schedule(g, starts)


@st.composite
def precedence_problems(draw):
    """Feasible problems: forward-only precedence edges + headroom
    above the largest task plus the resources' idle power."""
    specs = draw(task_specs)
    g = build_graph(specs, draw(st.tuples(idle_watts, idle_watts,
                                          idle_watts)))
    names = g.task_names()
    for i in range(1, len(names)):
        if draw(st.booleans()):
            src = names[draw(st.integers(0, i - 1))]
            g.add_precedence(src, names[i])
    max_power = max(t.power for t in g.tasks()) \
        + g.resources.total_idle_power
    p_max = max_power + draw(
        st.floats(min_value=0.5, max_value=10.0, allow_nan=False))
    p_min = draw(st.floats(min_value=0.0, max_value=1.0,
                           allow_nan=False)) * p_max
    return SchedulingProblem(g, p_max=round(p_max, 1),
                             p_min=round(min(p_min, p_max), 1))


def idle_power_twins(problem: SchedulingProblem, watts: float) \
        -> "tuple[SchedulingProblem, SchedulingProblem]":
    """``problem`` with ``watts`` more constant load and ``P_max``
    raised by as much, twice: once as idle power on its first resource,
    once in ``baseline``.  Both twins draw the same ``P(t)``."""
    based = problem_to_dict(problem)
    based["p_max"] = problem.p_max + watts
    idle = copy.deepcopy(based)
    idle["resources"][0]["idle_power"] += watts
    based["baseline"] = problem.baseline + watts
    return problem_from_dict(idle), problem_from_dict(based)


# ----------------------------------------------------------------------
# profile invariants
# ----------------------------------------------------------------------

class TestProfileProperties:
    @given(scheduled_instances())
    def test_energy_conservation(self, instance):
        """Profile energy == sum of task energies over the horizon."""
        graph, schedule = instance
        profile = PowerProfile.from_schedule(schedule)
        expected = sum(t.duration * t.power for t in graph.tasks())
        assert profile.energy() == pytest.approx(expected, abs=1e-6)

    @given(scheduled_instances(),
           st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
    def test_energy_split_identity(self, instance, level):
        """above(level) + capped(level) == total, for every level."""
        _, schedule = instance
        profile = PowerProfile.from_schedule(schedule)
        assert profile.energy_above(level) \
            + profile.energy_capped(level) \
            == pytest.approx(profile.energy(), abs=1e-6)

    @given(scheduled_instances())
    def test_segments_partition_the_horizon(self, instance):
        _, schedule = instance
        profile = PowerProfile.from_schedule(schedule)
        prev_end = 0
        for t0, t1, _ in profile.segments:
            assert t0 == prev_end
            prev_end = t1
        assert prev_end == profile.horizon

    @given(scheduled_instances(),
           st.floats(min_value=0.1, max_value=30.0, allow_nan=False))
    def test_accounting_agrees_with_metrics(self, instance, level):
        """Two independent Ec/rho implementations must agree."""
        _, schedule = instance
        profile = PowerProfile.from_schedule(schedule)
        split = split_energy(profile, level)
        assert split.energy_cost == pytest.approx(
            profile.energy_above(level), abs=1e-6)
        if profile.horizon > 0:
            assert split.utilization == pytest.approx(
                min_power_utilization(profile, level), abs=1e-9)

    @given(scheduled_instances())
    def test_value_matches_schedule_power(self, instance):
        """P(t) equals the sum of active task powers at every t."""
        _, schedule = instance
        profile = PowerProfile.from_schedule(schedule)
        for t in range(profile.horizon):
            assert profile.value(t) == pytest.approx(
                schedule.power_at(t), abs=1e-9)


# ----------------------------------------------------------------------
# slack invariants
# ----------------------------------------------------------------------

class TestSlackProperties:
    @given(precedence_problems(), st.data())
    @settings(suppress_health_check=[HealthCheck.too_slow])
    def test_slack_is_exactly_the_safe_delay(self, problem, data):
        """Delaying by the slack keeps time-validity; one more unit
        (for bounded slack, with everything else fixed) breaks some
        separation constraint."""
        from repro.scheduling.timing import TimingScheduler, \
            asap_schedule
        graph = problem.fresh_graph()
        TimingScheduler().schedule_graph(graph)
        schedule = asap_schedule(graph)
        name = data.draw(st.sampled_from(graph.task_names()))
        room = slack(schedule, name)
        if room >= UNBOUNDED_SLACK:
            return
        moved = schedule.delayed(name, room)
        # separations hold (resource overlap may occur: slack is a
        # separation-level notion; serialization edges are separations
        # too, so overlap cannot actually occur for graph successors)
        assert check_time_valid(moved).ok
        broken = schedule.delayed(name, room + 1)
        report = check_time_valid(broken)
        assert any(v.kind == "separation" for v in report.violations)


# ----------------------------------------------------------------------
# graph rollback invariants
# ----------------------------------------------------------------------

mutations = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]),
              st.integers(0, 3), st.integers(0, 3),
              st.integers(-10, 10)),
    min_size=0, max_size=12)


class TestIncrementalLongestPath:
    @given(mutations)
    def test_cached_solver_matches_fresh_solver(self, ops):
        """Interleave adds/removes/rollbacks with longest-path queries:
        the cached (incrementally-updated) result must always equal a
        from-scratch computation on a pristine copy."""
        from repro import PositiveCycleError, longest_paths

        g = ConstraintGraph("inc")
        for i in range(4):
            g.new_task(f"t{i}", duration=1)
        tokens = []
        for step, (op, a, b, w) in enumerate(ops):
            if a == b:
                continue
            src, dst = f"t{a}", f"t{b}"
            if op == "add":
                try:
                    g.add_edge(src, dst, w)
                except Exception:
                    continue
            elif tokens and step % 3 == 0:
                g.rollback(tokens.pop())
            else:
                tokens.append(g.checkpoint())
                g.remove_edge(src, dst)
            fresh = g.copy()  # pristine: no cache attached yet
            try:
                cached_dist = longest_paths(g).distance
                cached_ok = True
            except PositiveCycleError:
                cached_ok = False
            try:
                fresh_dist = longest_paths(fresh).distance
                fresh_ok = True
            except PositiveCycleError:
                fresh_ok = False
            assert cached_ok == fresh_ok
            if cached_ok:
                assert cached_dist == fresh_dist

    # interleaved add / tighten / checkpoint / rollback / remove — the
    # fuzz that would catch any future incremental-cache bug, asserted
    # directly against the reference Bellman-Ford implementation
    fuzz_ops = st.lists(
        st.tuples(st.sampled_from(["add", "tighten", "remove",
                                   "checkpoint", "rollback"]),
                  st.integers(0, 5), st.integers(0, 5),
                  st.integers(-12, 12)),
        min_size=1, max_size=40)

    @given(fuzz_ops)
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_incremental_equals_reference_bellman_ford(self, ops):
        """After every mutation, ``longest_paths`` (cached/incremental)
        must agree with ``_full_longest_paths`` run on a pristine copy
        — distances and cycle verdicts alike.  Long add runs outgrow
        the replay window (falling through to full solves); tighten ops
        exercise the grow-only worklist on existing edges."""
        from repro import PositiveCycleError, longest_paths
        from repro.core.longest_path import _full_longest_paths

        g = ConstraintGraph("fuzz")
        for i in range(6):
            g.new_task(f"t{i}", duration=1 + i % 3)
        tokens = []
        for op, a, b, w in ops:
            if a == b:
                continue
            src, dst = f"t{a}", f"t{b}"
            if op == "add":
                g.add_edge(src, dst, w)
            elif op == "tighten":
                existing = g.separation(src, dst)
                if existing is None:
                    continue
                g.add_edge(src, dst, existing + abs(w) % 4 + 1)
            elif op == "remove":
                g.remove_edge(src, dst)
            elif op == "checkpoint":
                tokens.append(g.checkpoint())
                continue  # no mutation: nothing new to verify
            elif op == "rollback":
                if not tokens:
                    continue
                g.rollback(tokens.pop())

            fresh = g.copy()
            names = fresh.task_names(include_anchor=True)
            try:
                cached = longest_paths(g).distance
                cached_ok = True
            except PositiveCycleError:
                cached_ok = False
            try:
                reference = _full_longest_paths(fresh, names).distance
                reference_ok = True
            except PositiveCycleError:
                reference_ok = False
            assert cached_ok == reference_ok
            if cached_ok:
                assert cached == reference
            else:
                return  # graph is contradictory; later ops uninformative


class TestRollbackProperties:
    @given(mutations, mutations)
    def test_rollback_restores_exact_edge_set(self, before, after):
        g = ConstraintGraph("rb")
        for i in range(4):
            g.new_task(f"t{i}", duration=1)

        def apply(ops):
            for op, a, b, w in ops:
                if a == b:
                    continue
                src, dst = f"t{a}", f"t{b}"
                if op == "add":
                    try:
                        g.add_edge(src, dst, w)
                    except Exception:
                        pass
                else:
                    g.remove_edge(src, dst)

        apply(before)
        snapshot = sorted((e.src, e.dst, e.weight, e.tag)
                          for e in g.edges())
        token = g.checkpoint()
        apply(after)
        g.rollback(token)
        assert sorted((e.src, e.dst, e.weight, e.tag)
                      for e in g.edges()) == snapshot


# ----------------------------------------------------------------------
# pipeline invariants on arbitrary feasible instances
# ----------------------------------------------------------------------

class TestPipelineProperties:
    @given(precedence_problems())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_pipeline_output_always_valid(self, problem):
        options = SchedulerOptions(max_power_restarts=1,
                                   min_power_scans=1,
                                   max_spike_attempts=300, seed=1)
        try:
            pipe = PowerAwareScheduler(options).solve_pipeline(problem)
        except SchedulingFailure:
            return  # heuristic gave up: allowed, just not invalid
        report = check_power_valid(pipe.min_power.schedule,
                                   problem.p_max,
                                   baseline=problem.baseline)
        assert report.ok
        assert pipe.min_power.utilization \
            >= pipe.max_power.utilization - 1e-9
        assert pipe.min_power.finish_time <= pipe.max_power.finish_time
