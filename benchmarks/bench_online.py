"""Online session bench: incremental suffix re-solves vs cold re-solves.

The value proposition of :mod:`repro.online` is that a live mission
does *not* pay a full offline solve per arrival: the committed prefix
is frozen, so the suffix re-solve (on a copy of the session graph,
which starts without a longest-path memo) has less left to move.
This bench puts a number on that claim with the repository's headline
online workload — a 50-arrival stream cut from the unrolled Mars-rover
mission (typical solar case, five iterations) with clock advances
interleaved every 10 arrivals, so a realistic committed prefix accretes
as the mission runs.

Two measurements land in ``BENCH_online.json``:

* ``incremental`` — per-arrival wall time of the live session
  (``MissionSession.apply`` on each arrival command, history frozen by
  the advance cadence);
* ``cold_full_resolve`` — what an engine without the online layer
  would pay: after each arrival, a full ``MinPowerScheduler`` solve of
  the entire accumulated problem, rebuilt from its document so no
  solver cache carries over (nothing frozen).

Correctness rides along: the stream must admit all 50 arrivals, and a
no-advance replay of the same stream must quiesce *bit-identical* to
the offline solve of the accumulated problem (the quiescence theorem,
here checked on the bench workload itself).
"""

import json
import time

from _bench_utils import write_artifact
from repro.io.json_io import problem_from_dict, problem_to_dict
from repro.mission import MarsRover
from repro.mission.rover import SolarCase
from repro.online import (MissionSession, SessionConfig,
                          arrivals_from_problem)
from repro.scheduling import SchedulerOptions
from repro.scheduling.min_power import MinPowerScheduler

ARRIVALS = 50
ROVER_ITERATIONS = 5
ADVANCE_EVERY = 10   # arrivals between clock advances
ADVANCE_STEP = 20    # ticks per advance
SPEEDUP_FLOOR = 1.3  # observed ~2.0x; generous CI jitter slack


def _mission_stream():
    """The bench workload: 50 rover arrivals + advance cadence.

    A prefix of an ``arrivals_from_problem`` stream is self-consistent
    (each arrival only references already-arrived tasks), so cutting
    the 55-task unrolled mission at 50 needs no repair.
    """
    rover = MarsRover.standard()
    problem = rover.problem(
        SolarCase.TYPICAL,
        graph=rover.unrolled_graph(SolarCase.TYPICAL,
                                   iterations=ROVER_ITERATIONS))
    arrivals = arrivals_from_problem(problem, quiesce=False)[:ARRIVALS]
    commands = []
    for index, arrival in enumerate(arrivals):
        commands.append(arrival)
        if index % ADVANCE_EVERY == ADVANCE_EVERY - 1:
            commands.append({
                "event": "advance",
                "to": (index // ADVANCE_EVERY + 1) * ADVANCE_STEP})
    return problem, arrivals, commands


def _session(problem, name):
    return MissionSession(SessionConfig(
        p_max=problem.p_max, p_min=problem.p_min,
        baseline=problem.baseline, options=SchedulerOptions(),
        name=name))


def _quiescence_check(problem, arrivals):
    """The quiescence theorem on the bench workload: all arrivals up
    front, no advances -> bit-identical to the offline solve."""
    session = _session(problem, "quiescence-probe")
    for arrival in arrivals:
        session.apply(arrival)
    assert not session.rejected, session.rejected
    online = session.quiesce()
    offline = MinPowerScheduler(SchedulerOptions()).solve(
        session.problem())
    assert online.schedule.as_dict() == offline.schedule.as_dict(), \
        "quiesced session diverged from the offline solve"
    assert online.energy_cost == offline.energy_cost
    assert online.metrics.peak_power == offline.metrics.peak_power
    return online


def _timed_incremental(problem, commands):
    """Per-arrival seconds for the live session (frozen prefix,
    incremental re-solves); advances run off the clock."""
    session = _session(problem, "incremental")
    times = []
    for command in commands:
        if command["event"] == "arrival":
            t0 = time.perf_counter()
            session.apply(command)
            times.append(time.perf_counter() - t0)
        else:
            session.apply(command)
    assert not session.rejected, (
        f"advance cadence must keep every arrival admissible, "
        f"rejected {session.rejected}")
    assert len(session.admitted) == ARRIVALS
    return session, times


def _timed_cold_full(problem, arrivals, expected):
    """Per-arrival seconds for the no-online-layer strawman: a cold
    full solve of the whole accumulated problem after each arrival.

    The accumulating session itself runs off the clock (it is only the
    graph builder here, and each accumulated problem is rebuilt from its
    document off the clock); the timed work is the cold offline solve
    an engine without incremental sessions would repeat from scratch.
    """
    builder = _session(problem, "cold-builder")
    scheduler = MinPowerScheduler(SchedulerOptions())
    times = []
    final = None
    for arrival in arrivals:
        builder.apply(arrival)
        fresh = problem_from_dict(problem_to_dict(builder.problem()))
        t0 = time.perf_counter()
        final = scheduler.solve(fresh)
        times.append(time.perf_counter() - t0)
    assert final.schedule.as_dict() == expected.schedule.as_dict(), \
        "cold comparator solved a different mission"
    return times


def _stats(times):
    return {"total_s": round(sum(times), 3),
            "mean_ms": round(sum(times) / len(times) * 1e3, 2),
            "max_ms": round(max(times) * 1e3, 2)}


def test_incremental_session_speedup_json(artifact_dir):
    """Live-session arrivals beat cold full re-solves >= 1.3x on the
    50-arrival rover stream, and the no-advance replay is bit-identical
    to the offline solve."""
    problem, arrivals, commands = _mission_stream()
    quiesced = _quiescence_check(problem, arrivals)
    session, times = _timed_incremental(problem, commands)
    cold_times = _timed_cold_full(problem, arrivals, quiesced)

    speedup = round(sum(cold_times) / sum(times), 2)
    doc = {
        "bench": "online_incremental_session",
        "workload": {
            "mission": "rover-typical-unrolled",
            "iterations": ROVER_ITERATIONS,
            "arrivals": ARRIVALS,
            "advance_every": ADVANCE_EVERY,
            "advance_step": ADVANCE_STEP,
        },
        "admitted": len(session.admitted),
        "rejected": len(session.rejected),
        "committed": len(session.committed),
        "incremental": _stats(times),
        "cold_full_resolve": _stats(cold_times),
        "per_arrival_speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "quiescence_identical": True,
    }
    write_artifact(artifact_dir, "BENCH_online.json",
                   json.dumps(doc, indent=2, sort_keys=True) + "\n")

    assert doc["committed"] > 0, \
        "the cadence froze nothing -- the bench is not incremental"
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental arrivals only {speedup:.2f}x over cold full "
        f"re-solves (floor {SPEEDUP_FLOOR}x): {doc}")
