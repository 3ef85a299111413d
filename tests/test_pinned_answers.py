"""Answers pinned in a file, so a change that moves one shows up.

The differential suites compare two runs of the same code; none of them
can see an answer move between one commit and the next.
``pinned_answers.json`` holds answers recorded once, before the
schedulers' trial moves were made cheap (DESIGN.md §5n), and this suite
compares today's answers with it exactly:

* the pipeline's starts, energy cost and makespan on 30 points of the
  28-task random graph, drawn with :data:`SEED` in the benchmark's
  strata (budgets 0.75-2.0 x and levels 0.05-0.6 x its ``P_max``);
* every event and the final plan of the 50-arrival typical-case rover
  stream, with the clock advanced 20 ticks every 10 arrivals.

The file is never edited.  ``python tests/test_pinned_answers.py``
prints the document today's code produces, for a diff against it.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

PINNED = Path(__file__).with_name("pinned_answers.json")

#: Seed of the grid draw (this suite's own, not the benchmark's).
SEED = 23
BUDGETS = (0.75, 2.0, 10)
LEVELS = (0.05, 0.6, 3)

ARRIVALS = 50
ROVER_ITERATIONS = 5
ADVANCE_EVERY = 10
ADVANCE_STEP = 20


def _strata(rng: random.Random, p_max: float, low: float, high: float,
            count: int) -> "list[float]":
    width = (high - low) / count
    return [round(p_max * (low + (i + rng.random()) * width), 2)
            for i in range(count)]


def grid_answers() -> "list[dict]":
    """The pipeline's answer at each drawn point of the grid28 graph."""
    from repro.errors import SchedulingFailure
    from repro.scheduling.power_aware import PowerAwareScheduler
    from repro.workloads import RandomWorkloadConfig, random_problem

    problem = random_problem(11, RandomWorkloadConfig(
        tasks=28, resources=4, layers=5))
    rng = random.Random(SEED)
    points = [(budget, level)
              for budget in _strata(rng, problem.p_max, *BUDGETS)
              for level in _strata(rng, problem.p_max, *LEVELS)]
    out = []
    for p_max, p_min in points:
        scaled = problem.with_power_constraints(p_max=p_max, p_min=p_min)
        try:
            result = PowerAwareScheduler().solve(scaled)
        except SchedulingFailure:
            out.append({"p_max": p_max, "p_min": p_min,
                        "feasible": False})
            continue
        out.append({"p_max": p_max, "p_min": p_min, "feasible": True,
                    "starts": result.schedule.as_dict(),
                    "energy": result.energy_cost,
                    "makespan": result.finish_time})
    return out


def rover_answers() -> "dict":
    """Every event of the rover stream and the plan it ends with."""
    from repro.mission import MarsRover
    from repro.mission.rover import SolarCase
    from repro.online import (MissionSession, SessionConfig,
                              arrivals_from_problem)
    from repro.scheduling import SchedulerOptions

    rover = MarsRover.standard()
    problem = rover.problem(
        SolarCase.TYPICAL,
        graph=rover.unrolled_graph(SolarCase.TYPICAL,
                                   iterations=ROVER_ITERATIONS))
    arrivals = arrivals_from_problem(problem, quiesce=False)[:ARRIVALS]
    session = MissionSession(SessionConfig(
        p_max=problem.p_max, p_min=problem.p_min,
        baseline=problem.baseline, options=SchedulerOptions(),
        name="pinned"))
    events = []
    for index, arrival in enumerate(arrivals):
        events.extend(session.apply(arrival))
        if index % ADVANCE_EVERY == ADVANCE_EVERY - 1:
            events.extend(session.apply({
                "event": "advance",
                "to": (index // ADVANCE_EVERY + 1) * ADVANCE_STEP}))
    return {"events": events,
            "starts": session.schedule.as_dict(),
            "energy": session.result.energy_cost,
            "makespan": session.schedule.makespan}


def current() -> "dict":
    return {"grid28": grid_answers(), "rover": rover_answers()}


def _pinned() -> "dict":
    return json.loads(PINNED.read_text())


def test_grid28_answers_match_the_pinned_file():
    want = _pinned()["grid28"]
    got = json.loads(json.dumps(grid_answers()))
    assert len(got) == len(want) == 30
    for mine, pinned in zip(got, want):
        assert mine == pinned, (mine["p_max"], mine["p_min"])


def test_rover_stream_matches_the_pinned_file():
    want = _pinned()["rover"]
    got = json.loads(json.dumps(rover_answers()))
    assert len(got["events"]) == len(want["events"])
    for mine, pinned in zip(got["events"], want["events"]):
        assert mine == pinned
    assert got == want


if __name__ == "__main__":
    json.dump(current(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
