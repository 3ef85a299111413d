"""The benchmark's three workloads: a sweep point, a served solve, a
session arrival.

Every workload draws its inputs from the ``--seed`` it is built with and
hands the program only those inputs.  The run loop in ``run.py`` calls, in
order: :meth:`setup` (imports, problem build, server start, warm-up; this
is ``setup_s``), then per pass :meth:`begin_pass` and per op
:meth:`run_op` (timed), :meth:`verify` (off the clock) and
:meth:`after_op`; then :meth:`quiesce`, :meth:`reference` (the answer
check, off the clock and outside ``setup_s``) and :meth:`close`.

Ops are drawn in *passes*: each pass covers the same strata of the input
space, and a run ends on a pass boundary, so every run sees the same mix
whatever the machine's speed.
"""

from __future__ import annotations

import asyncio
import random
import threading

def _validity_error(schedule, p_max: float, baseline: float) \
        -> "str | None":
    """The first time- or power-validity violation, or None."""
    from repro.core.validation import check_power_valid, check_time_valid

    for report in (check_time_valid(schedule),
                   check_power_valid(schedule, p_max, baseline=baseline)):
        if not report.ok:
            return f"invalid schedule: {report}"
    return None


def _pipeline_reference(problem, p_max: float, p_min: float):
    """The in-process pipeline's answer for one point, checked for
    validity: ``(result or None, error or None)``."""
    from repro.errors import SchedulingFailure
    from repro.scheduling.power_aware import PowerAwareScheduler

    scaled = problem.with_power_constraints(p_max=p_max, p_min=p_min)
    try:
        result = PowerAwareScheduler().solve(scaled)
    except SchedulingFailure:
        return None, None
    return result, _validity_error(result.schedule, p_max,
                                   scaled.total_baseline)


def _point_fields(result) -> "dict":
    return {"feasible": True, "finish_time": result.finish_time,
            "energy_cost": result.energy_cost,
            "utilization": result.utilization,
            "peak_power": result.metrics.peak_power}


class Workload:
    """Shared defaults; subclasses override what they use."""

    name = ""
    #: Root span name of one op (its layer is the workload's entry layer).
    root = ""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def passes(self):
        raise NotImplementedError

    def begin_pass(self) -> None:
        pass

    def run_op(self, op):
        raise NotImplementedError

    def verify(self, op, answer) -> "str | None":
        return None

    def after_op(self, op) -> None:
        pass

    def quiesce(self) -> None:
        pass

    def cache_stats(self) -> "dict | None":
        return None

    def quality(self, answer) -> "tuple[float, int] | None":
        """``(energy_J, makespan)`` of a feasible answer, else None."""
        raise NotImplementedError

    def reference(self, records) -> "list[str | None]":
        raise NotImplementedError

    def extras(self, records) -> "dict[str, float]":
        return {}

    def close(self) -> None:
        pass


class SweepGrid28(Workload):
    """Design-space sweep of the 28-task random graph, one point per op.

    Each pass is a 10x3 ``P_max`` x ``P_min`` grid whose values are drawn
    inside fixed strata (budgets 0.75-2.0 x the problem's ``P_max``,
    levels 0.05-0.6 x it), so no level reaches a budget and no two points
    clamp to the same pair.  Points cost most below about 0.86 x ``P_max``;
    the first budget stratum, 0.75-0.875, lies there on every pass, so the
    tail of a run does not depend on where the seed's draws fall.  Each op
    is a one-point ``sweep_grid`` call through one default serial
    ``BatchRunner``, so every point pays the engine's keying and cache
    probe.
    """

    name = "sweep-grid28"
    root = "engine.sweep_point"
    BUDGETS = (0.75, 2.0, 10)
    LEVELS = (0.05, 0.6, 3)
    #: Warm-up point, outside every stratum.
    WARMUP = (2.2, 0.7)

    def setup(self) -> None:
        from repro.analysis import sweep_grid
        from repro.engine import BatchRunner
        from repro.workloads import RandomWorkloadConfig, random_problem

        self.problem = random_problem(11, RandomWorkloadConfig(
            tasks=28, resources=4, layers=5))
        self.runner = BatchRunner()
        self._sweep_grid = sweep_grid
        self._seen: "set[tuple[float, float]]" = set()
        base = self.problem.p_max
        self.run_op((round(base * self.WARMUP[0], 2),
                     round(base * self.WARMUP[1], 2)))

    def _strata(self, low: float, high: float, count: int) \
            -> "list[float]":
        width = (high - low) / count
        return [round(self.problem.p_max
                      * (low + (i + self.rng.random()) * width), 2)
                for i in range(count)]

    def passes(self):
        while True:
            grid = [(b, lv) for b in self._strata(*self.BUDGETS)
                    for lv in self._strata(*self.LEVELS)]
            if len(set(grid)) < len(grid) or self._seen.intersection(grid):
                continue
            self._seen.update(grid)
            self.rng.shuffle(grid)
            yield grid

    def run_op(self, op):
        p_max, p_min = op
        return self._sweep_grid(self.problem, [p_max], [p_min],
                                runner=self.runner)[0]

    def cache_stats(self) -> "dict | None":
        return self.runner.cache.stats()

    def quality(self, answer):
        if not answer.feasible:
            return None
        return answer.energy_cost, answer.finish_time

    def reference(self, records):
        errors = []
        for record in records:
            (p_max, p_min), point = record.op, record.answer
            result, error = _pipeline_reference(self.problem, p_max, p_min)
            if error is None:
                got = {"feasible": point.feasible,
                       "finish_time": point.finish_time,
                       "energy_cost": point.energy_cost,
                       "utilization": point.utilization,
                       "peak_power": point.peak_power}
                want = _point_fields(result) if result is not None \
                    else {"feasible": False, "finish_time": None,
                          "energy_cost": None, "utilization": None,
                          "peak_power": None}
                if got != want:
                    error = f"point {record.op}: got {got}, " \
                            f"pipeline says {want}"
            errors.append(error)
        return errors


class _LiveServer:
    """A ``SolveServer`` on its own event-loop thread in this process."""

    def __init__(self, config):
        self.config = config
        self.server = None
        self._error: "BaseException | None" = None

    async def _main(self, ready: threading.Event) -> None:
        from repro.serving import SolveServer

        try:
            self.server = SolveServer(self.config)
            await self.server.start()
            self._stop = asyncio.Event()
        except BaseException as exc:
            self._error = exc
            raise
        finally:
            ready.set()
        await self._stop.wait()
        await self.server.shutdown()

    def start(self) -> None:
        ready = threading.Event()

        def run():
            self.loop = asyncio.new_event_loop()
            try:
                self.loop.run_until_complete(self._main(ready))
            finally:
                self.loop.close()

        self._thread = threading.Thread(target=run, name="solve-server")
        self._thread.start()
        if not ready.wait(30) or self._error is not None:
            self._thread.join(30)
            raise RuntimeError(f"solve server did not start: "
                               f"{self._error!r}")

    def stop(self) -> None:
        if self._thread.is_alive():
            self.loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(60)
        if self._thread.is_alive():
            raise RuntimeError("solve server did not shut down")


class ServeSmall(Workload):
    """Closed-loop ``/v1/solve`` client against an in-process server.

    One client thread sends one request at a time to a ``SolveServer``
    with the default ``ServingConfig`` (ephemeral port).  A pass is 12
    requests: for each of Fig. 1 and the rover's typical and best cases,
    one new point in each of three budget strata (1.0-1.6 x the problem's
    own ``P_max``, so no request enters the worst-case spike-repair
    search), plus three requests -- one in four -- that repeat an earlier
    point and so read from the engine's result cache.
    """

    name = "serve-small"
    root = "serving.roundtrip"
    STRATA = 3
    SPAN = 0.6
    #: Repeat every REPEAT_EVERY-th request.
    REPEAT_EVERY = 4

    def setup(self) -> None:
        from repro.examples_data import fig1_problem
        from repro.mission import MarsRover
        from repro.mission.rover import SolarCase
        from repro.serving import ServingClient, ServingConfig

        rover = MarsRover.standard()
        self.problems = [fig1_problem(), rover.problem(SolarCase.TYPICAL),
                         rover.problem(SolarCase.BEST)]
        self.live = _LiveServer(ServingConfig(port=0))
        self.live.start()
        self.client = ServingClient(
            f"http://127.0.0.1:{self.live.server.port}")
        self._issued: "list[tuple[int, float, float]]" = []
        self._seen: "set[tuple[int, float, float]]" = set()
        for index, problem in enumerate(self.problems):
            # Warm-up points sit above every stratum: never requested again.
            self.run_op((index, round(problem.p_max * 1.7, 2),
                         problem.p_min))

    def _new_point(self, index: int, stratum: int):
        problem = self.problems[index]
        while True:
            factor = 1.0 + (stratum + self.rng.random()) \
                * self.SPAN / self.STRATA
            point = (index, round(problem.p_max * factor, 2),
                     round(problem.p_min * self.rng.uniform(0.5, 1.0), 2))
            if point not in self._seen:
                self._seen.add(point)
                return point

    def passes(self):
        while True:
            fresh = [self._new_point(index, stratum)
                     for index in range(len(self.problems))
                     for stratum in range(self.STRATA)]
            self.rng.shuffle(fresh)
            ops = []
            for point in fresh:
                ops.append(point)
                self._issued.append(point)
                if len(ops) % self.REPEAT_EVERY == self.REPEAT_EVERY - 1:
                    ops.append(self.rng.choice(self._issued))
            yield ops

    def run_op(self, op):
        index, p_max, p_min = op
        response = self.client.solve(self.problems[index], p_max=p_max,
                                     p_min=p_min)
        if response.get("status") != "done" \
                or len(response.get("points", ())) != 1:
            raise RuntimeError(f"unexpected response {response}")
        return response["points"][0]

    def quiesce(self) -> None:
        # Stopping drains the batcher, so the engine's cache counters
        # include the last request's bookkeeping.
        self.live.stop()

    def cache_stats(self) -> "dict | None":
        return self.live.server.runner.cache.stats()

    def quality(self, answer):
        if not answer.get("feasible"):
            return None
        return answer["energy_cost"], answer["finish_time"]

    def reference(self, records):
        expected = {}
        errors = []
        for record in records:
            index, p_max, p_min = record.op
            if record.op not in expected:
                result, error = _pipeline_reference(self.problems[index],
                                                    p_max, p_min)
                want = {"p_max": p_max, "p_min": p_min,
                        "feasible": False}
                if result is not None:
                    want.update(_point_fields(result))
                expected[record.op] = (want, error)
            want, error = expected[record.op]
            got = {key: value for key, value in record.answer.items()
                   if key not in ("cached", "reused")}
            if error is None and got != want:
                error = f"request {record.op}: served {got}, " \
                        f"pipeline says {want}"
            errors.append(error)
        return errors

    def close(self) -> None:
        if getattr(self, "live", None) is not None:
            self.live.stop()


class SessionRover(Workload):
    """The 50-arrival unrolled-rover stream replayed through
    ``MissionSession.apply``.

    The stream is the typical-case rover mission unrolled over five
    iterations, cut at 50 arrivals; the mission clock advances 20 ticks
    every 10 arrivals (off the op clock), as in
    ``benchmarks/bench_online.py``.  Each pass replays the stream in a
    fresh session; each op is one arrival.  The stream does not depend
    on the seed: the per-arrival cost swings by half when the advance
    step moves by one tick, so a seeded cadence would measure a
    different workload on every seed.
    """

    name = "session-rover"
    root = "online.apply"
    ARRIVALS = 50
    ITERATIONS = 5
    ADVANCE_EVERY = 10
    ADVANCE_STEP = 20

    def setup(self) -> None:
        from repro.mission import MarsRover
        from repro.mission.rover import SolarCase
        from repro.online import (MissionSession, SessionConfig,
                                  arrivals_from_problem)
        from repro.scheduling import SchedulerOptions

        rover = MarsRover.standard()
        self.problem = rover.problem(
            SolarCase.TYPICAL,
            graph=rover.unrolled_graph(SolarCase.TYPICAL,
                                       iterations=self.ITERATIONS))
        self.arrivals = arrivals_from_problem(
            self.problem, quiesce=False)[:self.ARRIVALS]
        self._config = SessionConfig(
            p_max=self.problem.p_max, p_min=self.problem.p_min,
            baseline=self.problem.baseline, options=SchedulerOptions(),
            name="perfbench")
        self._session_type = MissionSession
        self.begin_pass()
        for index in range(self.ADVANCE_EVERY):
            self.run_op(index)
        self.after_op(self.ADVANCE_EVERY - 1)

    def passes(self):
        while True:
            yield list(range(len(self.arrivals)))

    def begin_pass(self) -> None:
        self.session = self._session_type(self._config)

    def run_op(self, op):
        return dict(self.session.apply(self.arrivals[op])[-1])

    def verify(self, op, answer) -> "str | None":
        """Check the live plan right after the arrival: valid, and every
        committed task still at its executed start."""
        if answer["event"] != "admit":
            return None
        schedule = self.session.schedule
        for name, start in self.session.committed.items():
            if schedule.start(name) != start:
                return f"arrival {op} moved committed task {name}"
        answer["energy_cost"] = self.session.result.energy_cost
        return _validity_error(schedule, self._config.p_max,
                               self.session.problem().total_baseline)

    def after_op(self, op) -> None:
        if op % self.ADVANCE_EVERY == self.ADVANCE_EVERY - 1:
            self.session.apply({
                "event": "advance",
                "to": (op // self.ADVANCE_EVERY + 1) * self.ADVANCE_STEP})

    def quality(self, answer):
        if answer["event"] != "admit":
            return None
        return answer["energy_cost"], answer["makespan"]

    def reference(self, records):
        """One untimed replay of the same stream: every op must match its
        decision, start, makespan and energy."""
        self.begin_pass()
        want = []
        for op in range(len(self.arrivals)):
            answer = self.run_op(op)
            self.verify(op, answer)
            self.after_op(op)
            want.append({key: value for key, value in answer.items()
                         if key not in ("seq", "now")})
        errors = []
        for record in records:
            got = {key: value for key, value in record.answer.items()
                   if key not in ("seq", "now")}
            errors.append(None if got == want[record.op] else
                          f"arrival {record.op}: got {got}, replay says "
                          f"{want[record.op]}")
        return errors

    def extras(self, records):
        admitted = sum(1 for r in records
                       if r.answer is not None
                       and r.answer["event"] == "admit")
        return {"admitted": admitted, "arrivals": len(records)}


WORKLOADS = {cls.name: cls for cls in (SweepGrid28, ServeSmall,
                                       SessionRover)}
