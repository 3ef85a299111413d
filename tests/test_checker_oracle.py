"""The validity checker against a brute-force oracle.

:mod:`repro.core.validation` checks schedules from raw starts, task
durations, powers and resources, edge triples, idle power, ``P_max``
and the baseline, with an event sweep for power.  The oracle here
shares none of that code: it sums power slot by slot over
``[0, makespan)``, checks every pair of same-resource tasks for
overlap and checks every edge.  Both must find the same violations on
random valid and invalid schedules, idle power, zero-duration and
zero-power tasks included; and a one-tick shift of one start of a
pipeline schedule must be reported whenever it breaks a constraint.
"""

from __future__ import annotations

import ast
import math
import re
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (ConstraintGraph, PowerAwareScheduler, Resource,
                   Schedule, SchedulingFailure, SchedulingProblem)
from repro.core.task import ANCHOR_NAME
from repro.core.validation import power_spikes
from repro.workloads import RandomWorkloadConfig, random_problem

TOL = 1e-9
RESOURCES = ("R0", "R1", "R2")


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------

def oracle(problem: SchedulingProblem, starts: "dict[str, int]"):
    """``(broken edges, clashing pairs, spiking slots, slot levels)``
    by brute force."""
    graph = problem.graph
    tasks = {task.name: task for task in graph.tasks()}
    at = dict(starts, **{ANCHOR_NAME: 0})
    broken = {(src, dst) for src, dst, weight in graph.edge_triples()
              if at[dst] - at[src] < weight}
    clashes = set()
    names = sorted(tasks)
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            tu, tv = tasks[u], tasks[v]
            if tu.resource is None or tu.resource != tv.resource:
                continue
            if max(starts[u], starts[v]) < min(
                    starts[u] + tu.duration, starts[v] + tv.duration):
                clashes.add(frozenset((u, v)))
    makespan = max((starts[n] + tasks[n].duration for n in tasks),
                   default=0)
    idle = [res.idle_power for res in graph.resources]
    levels = {}
    for t in range(makespan):
        running = [tasks[n].power for n in tasks
                   if starts[n] <= t < starts[n] + tasks[n].duration]
        levels[t] = math.fsum(running + [problem.baseline] + idle)
    spiking = {t for t, level in levels.items()
               if level > problem.p_max + TOL}
    return broken, clashes, spiking, levels


def assert_agrees(problem: SchedulingProblem, schedule: Schedule):
    broken, clashes, spiking, levels = oracle(problem,
                                              schedule.as_dict())
    report = problem.check(schedule)
    kinds = {"separation": [], "resource": [], "spike": []}
    for violation in report.violations:
        kinds[violation.kind].append(violation.detail)

    found_edges = set()
    for detail in kinds["separation"]:
        dst, src = re.match(r"sigma\((.+?)\) - sigma\((.+?)\)",
                            detail).groups()
        found_edges.add((src, dst))
    assert found_edges == broken
    assert len(kinds["separation"]) == len(broken)

    found_pairs = {frozenset(re.match(r"tasks '(.+?)' and '(.+?)'",
                                      detail).groups())
                   for detail in kinds["resource"]}
    assert found_pairs == clashes
    assert len(kinds["resource"]) == len(clashes)

    spikes = power_spikes(schedule, problem.p_max, problem.baseline)
    assert len(kinds["spike"]) == len(spikes)
    covered = set()
    for start, end, peak in spikes:
        slots = set(range(start, end))
        assert slots <= spiking
        assert start - 1 not in spiking and end not in spiking  # maximal
        assert peak == max(levels[t] for t in slots)
        covered |= slots
    assert covered == spiking
    assert report.ok == (not broken and not clashes and not spiking)


# ----------------------------------------------------------------------
# random schedules, valid and not
# ----------------------------------------------------------------------

@st.composite
def checked_schedules(draw):
    """A random graph (zero durations and powers allowed, some tasks
    without a resource, some resources idling), random separations,
    a power budget and an arbitrary start assignment."""
    graph = ConstraintGraph("oracle")
    for name in RESOURCES:
        watts = draw(st.sampled_from([0.0, 0.0, 0.5, 1.5]))
        if watts:
            graph.declare_resource(Resource(name=name, idle_power=watts))
    count = draw(st.integers(1, 7))
    for i in range(count):
        graph.new_task(
            f"t{i}", duration=draw(st.integers(0, 6)),
            power=draw(st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0, 4.5])),
            resource=draw(st.sampled_from(RESOURCES + (None,))))
    names = graph.task_names() + [ANCHOR_NAME]
    for _ in range(draw(st.integers(0, 6))):
        src, dst = draw(st.sampled_from(names)), draw(
            st.sampled_from(names))
        if src != dst:
            graph.add_edge(src, dst, draw(st.integers(-8, 8)))
    problem = SchedulingProblem(
        graph, p_max=draw(st.sampled_from([3.0, 5.0, 6.5, 9.0, 30.0])),
        baseline=draw(st.sampled_from([0.0, 0.0, 1.0])))
    starts = {f"t{i}": draw(st.integers(0, 12)) for i in range(count)}
    return problem, Schedule(graph, starts)


class TestCheckerAgainstOracle:
    @given(checked_schedules())
    @settings(max_examples=300, deadline=None)
    def test_random_schedules(self, case):
        assert_agrees(*case)

    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_one_tick_shift_of_a_pipeline_schedule(self, seed, data):
        problem = random_problem(seed, RandomWorkloadConfig(
            tasks=data.draw(st.integers(3, 8)), resources=3, layers=3))
        try:
            result = PowerAwareScheduler().solve(problem)
        except SchedulingFailure:
            return
        assert_agrees(problem, result.schedule)
        starts = result.schedule.as_dict()
        name = data.draw(st.sampled_from(sorted(starts)))
        step = data.draw(st.sampled_from([-1, 1]))
        if starts[name] + step < 0:
            return
        starts[name] += step
        shifted = Schedule(problem.graph, starts)
        broken, clashes, spiking, _ = oracle(problem, starts)
        if broken or clashes or spiking:
            assert not problem.check(shifted).ok
        assert_agrees(problem, shifted)

    def test_spike_names_its_interval_and_peak(self):
        graph = ConstraintGraph()
        graph.declare_resource(Resource(name="R", idle_power=1.0))
        graph.new_task("a", duration=4, power=5.0, resource="R")
        graph.new_task("b", duration=2, power=3.0, resource="S")
        graph.new_task("c", duration=3, power=4.0, resource="T")
        problem = SchedulingProblem(graph, p_max=8.0, baseline=0.5)
        schedule = Schedule(graph, {"a": 0, "b": 1, "c": 6})
        [spike] = [v for v in problem.check(schedule).violations
                   if v.kind == "spike"]
        assert spike.detail.startswith("power spike [1, 3) @ 9.5W")
        assert power_spikes(schedule, 8.0, 0.5) == [(1, 3, 9.5)]


def test_checker_imports_neither_the_profile_nor_the_solver():
    source = Path(__file__).parents[1] / "src" / "repro" / "core" \
        / "validation.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported |= {alias.name for alias in node.names}
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not {"PowerProfile", "longest_paths", "profile",
                "longest_path"} & imported
