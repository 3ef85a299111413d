"""DVFS operating points as a first-class problem axis.

Three layers of evidence:

* **Scaling laws** — hypothesis properties over the shared arithmetic in
  :mod:`repro.core.dvfs`: duration monotone nonincreasing in ``f``,
  (ideal) energy monotone in ``f`` at fixed work, the integer grid
  never undercharging the continuous model, and the quantizer being a
  stable pure function.
* **Bit-identity** — a full-speed-only ladder must be indistinguishable
  from a frequency-free problem: same solver output on the Fig. 1
  pipeline and field-exact SweepPoints on a 14x14 grid, serial vs 4 subprocess shards (the shard-count-invariance
  committed invariant, extended to the new axis).
* **Subsystem contracts** — the schedule-store exemption (DESIGN.md
  5f), base-key stability for ladder-free problems, wire-format version
  negotiation, and the rescue scenario delay-only scheduling provably
  cannot solve.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (ConstraintGraph, OperatingPoint,
                        SchedulingProblem, Task, attach_ladder,
                        materialize_assignment, quantize_power,
                        scaled_duration, scaled_power)
from repro.core.dvfs import DEFAULT_LADDER, ladder_from_freqs
from repro.engine import BatchRunner, RunnerConfig, ScheduleStore, SweepSpec
from repro.engine.backends import SubprocessShardBackend
from repro.engine.hashing import canonical_problem_dict, problem_base_key
from repro.errors import GraphError, SchedulingFailure
from repro.examples_data import fig1_options, fig1_problem
from repro.io.json_io import problem_from_dict, problem_to_dict
from repro.io.requests import (REQUEST_VERSION, RequestError,
                               solve_request_from_dict,
                               solve_request_to_dict)
from repro.scheduling import (FreqSelectScheduler, PowerAwareScheduler,
                              freq_select_schedule)

_FREQS = st.floats(min_value=0.05, max_value=1.0,
                   allow_nan=False, allow_infinity=False)
_DURATIONS = st.integers(min_value=0, max_value=400)
_POWERS = st.floats(min_value=0.0, max_value=60.0,
                    allow_nan=False, allow_infinity=False)
_CORES = st.integers(min_value=1, max_value=4)


# ----------------------------------------------------------------------
# operating-point model
# ----------------------------------------------------------------------

def test_operating_point_validation():
    assert OperatingPoint().is_full_speed
    assert OperatingPoint(freq=1.0, cores=1).key == (1.0, 1)
    with pytest.raises(GraphError):
        OperatingPoint(freq=0.0)
    with pytest.raises(GraphError):
        OperatingPoint(freq=1.5)
    with pytest.raises(GraphError):
        OperatingPoint(freq=0.5, cores=0)
    with pytest.raises(GraphError):
        OperatingPoint(freq=0.5, cores=1.5)  # type: ignore[arg-type]


def test_task_ladder_validation():
    full = OperatingPoint()
    half = OperatingPoint(freq=0.5)
    task = Task("t", 10, 4.0, "cpu", operating_points=(full, half))
    assert task.has_ladder
    with pytest.raises(GraphError, match="full-speed"):
        Task("t", 10, 4.0, operating_points=(half,))
    with pytest.raises(GraphError, match="duplicate"):
        Task("t", 10, 4.0, operating_points=(full, full))
    with pytest.raises(GraphError, match="OperatingPoint"):
        Task("t", 10, 4.0, operating_points=(full, 0.5))


def test_at_full_speed_is_bit_identical():
    task = Task("t", 7, 1.0 / 3.0, "cpu", meta={"kind": "filter"},
                operating_points=ladder_from_freqs(DEFAULT_LADDER))
    back = task.at_point(OperatingPoint())
    # no quantization at the reference point: 1/3 survives exactly
    assert back.power == task.power
    assert back.duration == task.duration
    assert dict(back.meta) == dict(task.meta)
    assert not back.has_ladder


def test_at_point_scales_and_tags():
    task = Task("t", 10, 8.0, "cpu",
                operating_points=ladder_from_freqs((1.0, 0.5)))
    scaled = task.at_point(OperatingPoint(freq=0.5))
    assert scaled.duration == 20
    assert scaled.power == quantize_power(8.0 * 0.125)
    assert scaled.meta["dvfs_freq"] == 0.5
    assert scaled.meta["dvfs_cores"] == 1
    with pytest.raises(GraphError):
        # the point must come from the task's own ladder
        materialize_assignment(
            _ladder_problem(), {"a": OperatingPoint(freq=0.3)})


def test_ladder_requires_full_speed_rung():
    with pytest.raises(GraphError, match="full-speed"):
        ladder_from_freqs((0.5, 0.25))


# ----------------------------------------------------------------------
# scaling laws (hypothesis)
# ----------------------------------------------------------------------

@given(duration=_DURATIONS, f1=_FREQS, f2=_FREQS, cores=_CORES)
@settings(max_examples=200, deadline=None)
def test_duration_monotone_nonincreasing_in_freq(duration, f1, f2,
                                                 cores):
    lo, hi = min(f1, f2), max(f1, f2)
    assert scaled_duration(duration, lo, cores) >= \
        scaled_duration(duration, hi, cores)
    assert scaled_duration(duration, 1.0, 1) == duration


@given(duration=_DURATIONS, power=_POWERS, f1=_FREQS, f2=_FREQS)
@settings(max_examples=200, deadline=None)
def test_ideal_energy_monotone_in_freq_at_fixed_work(duration, power,
                                                     f1, f2):
    """Continuous model: E(f) = d * p * f**2 grows with f (cores drop
    out — more cores divide the time they multiply the power by)."""
    lo, hi = min(f1, f2), max(f1, f2)
    assert duration * power * lo ** 2 <= duration * power * hi ** 2


@given(duration=_DURATIONS, power=_POWERS, freq=_FREQS, cores=_CORES)
@settings(max_examples=200, deadline=None)
def test_integer_grid_never_undercharges(duration, power, freq, cores):
    """ceil-rounding only stretches time, so realized energy is at
    least the ideal minus the one-microwatt power quantization."""
    realized = scaled_duration(duration, freq, cores) \
        * scaled_power(power, freq, cores)
    ideal = duration * power * freq ** 2
    slack = scaled_duration(duration, freq, cores) * 5e-7
    assert realized >= ideal - slack


@given(power=_POWERS, freq=_FREQS, cores=_CORES)
@settings(max_examples=200, deadline=None)
def test_quantizer_is_stable_and_shared(power, freq, cores):
    value = scaled_power(power, freq, cores)
    assert value == quantize_power(value)          # idempotent
    assert value == quantize_power(power * freq ** 3 * cores)
    assert scaled_power(power, 1.0, 1) == quantize_power(power)


# ----------------------------------------------------------------------
# materialization edge semantics
# ----------------------------------------------------------------------

def _ladder_problem() -> SchedulingProblem:
    g = ConstraintGraph("edges")
    g.new_task("a", 10, 6.0, "cpu")
    g.new_task("b", 4, 2.0, "cpu")
    g.new_task("c", 3, 1.0, "heater")
    g.add_precedence("a", "b", gap=2)        # weight d(a)+2 = 12
    g.add_min_separation("c", "b", 2)        # short window: stays
    g.add_finish_deadline("a", 50)           # start deadline 40
    problem = SchedulingProblem(graph=g, p_max=20.0)
    return attach_ladder(problem, (1.0, 0.5))


def test_materialize_adjusts_duration_anchored_edges():
    problem = _ladder_problem()
    slow = materialize_assignment(
        problem, {"a": OperatingPoint(freq=0.5)})
    g = slow.graph
    assert g.task("a").duration == 20
    # end-to-start precedence moved with the stretch: 12 -> 22
    assert g.separation("a", "b") == 22
    # deadline tightened as a finish deadline: start by 50 - 20 = 30
    assert g.separation("a", "__anchor__") == -30
    # the short start-to-start window is speed-independent
    assert g.separation("c", "b") == 2


def test_materialize_full_speed_is_exact():
    problem = _ladder_problem()
    full = {name: OperatingPoint() for name in ("a", "b", "c")}
    out = materialize_assignment(problem, full)
    plain = [(t.name, t.duration, t.power, t.resource)
             for t in out.graph.tasks()]
    assert not out.has_operating_points
    assert plain == [("a", 10, 6.0, "cpu"), ("b", 4, 2.0, "cpu"),
                     ("c", 3, 1.0, "heater")]
    assert sorted((e.src, e.dst, e.weight, e.tag)
                  for e in out.graph.edges()) == \
        sorted((e.src, e.dst, e.weight, e.tag)
               for e in _ladder_problem().graph.edges())


# ----------------------------------------------------------------------
# bit-identity: full-speed ladder == frequency-free solve
# ----------------------------------------------------------------------

def _solve_snapshot(problem, options):
    result = PowerAwareScheduler(options).solve(problem)
    return (dict(result.schedule.items()),
            result.profile.segments,
            result.metrics.energy_cost,
            result.metrics.peak_power)


def _fig1_full_speed():
    return attach_ladder(fig1_problem(), (1.0,))


def test_full_speed_ladder_bit_identical_fig1():
    reference = _solve_snapshot(fig1_problem(), fig1_options())
    assert _solve_snapshot(_fig1_full_speed(),
                           fig1_options()) == reference


# 14 budgets x 14 levels: the differential grid of the acceptance
# criteria.  Serial frequency-free is the baseline; the full-speed
# ladder must match it point for point, serially and across 4 shards.
_BUDGETS_14 = [6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20]
_LEVELS_14 = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14]


@pytest.fixture(scope="module")
def grid_14_baseline():
    spec = SweepSpec.grid(fig1_problem(), _BUDGETS_14, _LEVELS_14,
                          options=fig1_options())
    runner = BatchRunner(RunnerConfig())
    return [r.value for r in runner.run(spec.jobs())]


def test_full_speed_ladder_grid_14x14_serial(grid_14_baseline):
    spec = SweepSpec.grid(fig1_problem(), _BUDGETS_14, _LEVELS_14,
                          options=fig1_options(), freq_levels=(1.0,))
    runner = BatchRunner(RunnerConfig())
    results = runner.run(spec.jobs())
    assert all(r.ok for r in results)
    assert [r.value for r in results] == grid_14_baseline


def test_full_speed_ladder_grid_14x14_across_4_shards(grid_14_baseline):
    spec = SweepSpec.grid(fig1_problem(), _BUDGETS_14, _LEVELS_14,
                          options=fig1_options(), freq_levels=(1.0,))
    runner = BatchRunner(
        store=ScheduleStore(),
        backend=SubprocessShardBackend(shards=4, strategy="tile"))
    results = runner.run(spec.jobs())
    assert runner.last_mode == "shards"
    assert all(r.ok for r in results)
    assert [r.value for r in results] == grid_14_baseline


# ----------------------------------------------------------------------
# the move delay-only scheduling cannot make
# ----------------------------------------------------------------------

def _overbudget_problem() -> SchedulingProblem:
    g = ConstraintGraph("overbudget")
    g.new_task("hot", 8, 15.0, "cpu")
    g.new_task("steady", 4, 2.0, "motor")
    g.add_finish_deadline("hot", 60)
    return SchedulingProblem(graph=g, p_max=12.0)


def test_slowdown_rescues_provably_delay_infeasible_problem():
    problem = _overbudget_problem()
    # the static screen proves no delay-only schedule can exist
    assert problem.feasible_power_check()
    with pytest.raises(SchedulingFailure):
        PowerAwareScheduler().solve(problem)
    laddered = attach_ladder(problem, DEFAULT_LADDER)
    result = PowerAwareScheduler().solve(laddered)
    assert result.metrics.peak_power <= laddered.p_max
    chosen = result.extra["dvfs"]["assignment"]["hot"]
    assert chosen["freq"] < 1.0


def test_static_screen_uses_the_profile_tolerance():
    """Full speed draws 7.9 W on 2.5 W, an ulp above this P_max, which
    the profile forgives; the screens must not rule out the only rung
    that meets the successor's deadline."""
    g = ConstraintGraph("ulp")
    g.new_task("hot", 4, 7.9, "cpu")
    g.new_task("next", 0, 0.0)
    g.add_precedence("hot", "next")
    g.add_start_deadline("next", 4)
    problem = SchedulingProblem(graph=g, p_max=10.399999999999999,
                                baseline=2.5)
    result = PowerAwareScheduler().solve(
        attach_ladder(problem, DEFAULT_LADDER))
    assert result.extra["dvfs"]["assignment"]["hot"]["freq"] == 1.0
    assert result.finish_time == 4


def test_freq_select_pipeline_reports_stage_and_extras():
    laddered = attach_ladder(_overbudget_problem(), DEFAULT_LADDER)
    pipeline = FreqSelectScheduler().solve_pipeline(laddered)
    assert pipeline.freq_select is not None
    assert pipeline.freq_select.stage == "freq_select"
    dvfs = pipeline.final.extra["dvfs"]
    assert dvfs["evaluations"] >= 1
    assert dvfs["energy_rounded_J"] >= 0.0
    assert "freq_select" in pipeline.final.stats.stage_seconds
    # the one-call wrapper agrees with the pipeline's final result
    direct = freq_select_schedule(laddered)
    assert dict(direct.schedule.items()) == \
        dict(pipeline.final.schedule.items())


def test_freq_select_passthrough_without_ladder():
    problem = fig1_problem()
    via = FreqSelectScheduler().solve_pipeline(problem)
    plain = PowerAwareScheduler().solve_pipeline(problem)
    assert via.freq_select is None
    assert dict(via.final.schedule.items()) == \
        dict(plain.final.schedule.items())


def test_freq_select_fails_when_no_rung_fits():
    g = ConstraintGraph("hopeless")
    g.new_task("hot", 4, 500.0, "cpu")
    problem = SchedulingProblem(graph=g, p_max=1.0)
    laddered = attach_ladder(problem, (1.0, 0.75))
    with pytest.raises(SchedulingFailure, match="every operating"):
        PowerAwareScheduler().solve(laddered)


# ----------------------------------------------------------------------
# engine contracts: hashing + schedule-store exemption
# ----------------------------------------------------------------------

def test_ladder_free_canonical_hash_unchanged():
    """Ladder-free tasks keep their historical 5-tuple shape, so every
    existing store/journal key stays valid."""
    doc = canonical_problem_dict(fig1_problem())
    assert all(len(entry) == 5 for entry in doc["tasks"])
    laddered = canonical_problem_dict(_fig1_full_speed())
    assert any(len(entry) == 6 for entry in laddered["tasks"])
    assert problem_base_key(fig1_problem()) != \
        problem_base_key(_fig1_full_speed())
    # pure function: stable across calls
    assert problem_base_key(fig1_problem()) == \
        problem_base_key(fig1_problem())


def test_store_never_certifies_ladder_problems():
    store = ScheduleStore()
    laddered = _fig1_full_speed()
    key = store.ensure_primed(laddered, fig1_options())
    assert len(store) == 0                # no certified entry
    # idempotent and still empty on the second call
    assert store.ensure_primed(laddered, fig1_options()) == key
    assert len(store) == 0
    plain_key = store.ensure_primed(fig1_problem(), fig1_options())
    assert plain_key != key
    assert len(store) == 1                # speed-fixed still certifies


def test_sweep_with_store_keeps_ladder_points_exempt():
    spec = SweepSpec.grid(fig1_problem(), [10, 12], [2, 4],
                          options=fig1_options(), freq_levels=(1.0,))
    runner = BatchRunner(store=ScheduleStore())
    results = runner.run(spec.jobs())
    assert all(r.ok for r in results)
    assert len(runner.store) == 0         # nothing recorded either
    # and the answers equal the frequency-free ones
    plain = BatchRunner(RunnerConfig()).run(
        SweepSpec.grid(fig1_problem(), [10, 12], [2, 4],
                       options=fig1_options()).jobs())
    assert [r.value for r in results] == [r.value for r in plain]


# ----------------------------------------------------------------------
# wire formats: version negotiation
# ----------------------------------------------------------------------

def test_problem_document_version_negotiation():
    plain_doc = problem_to_dict(fig1_problem())
    assert plain_doc["version"] == 1
    assert all("operating_points" not in t for t in plain_doc["tasks"])
    ladder_doc = problem_to_dict(
        attach_ladder(fig1_problem(), (1.0, 0.5)))
    assert ladder_doc["version"] == 2
    restored = problem_from_dict(ladder_doc)
    assert restored.has_operating_points
    task = next(t for t in restored.graph.tasks() if t.duration > 0)
    assert [p.key for p in task.operating_points] == [(1.0, 1),
                                                      (0.5, 1)]
    # a v1-only reader rejects v2 cleanly instead of dropping the axis
    from repro.errors import SerializationError
    too_new = dict(plain_doc)
    too_new["version"] = 3
    with pytest.raises(SerializationError, match="newer"):
        problem_from_dict(too_new)


def test_solve_request_version_negotiation():
    plain = solve_request_to_dict(fig1_problem(), p_max=10.0)
    assert plain["version"] == 1          # no DVFS -> old servers OK
    parsed = solve_request_from_dict(plain)
    assert not parsed.problem.has_operating_points

    laddered = solve_request_to_dict(fig1_problem(), p_max=10.0,
                                     freq_levels=[1.0, 0.5])
    assert laddered["version"] == 2
    parsed = solve_request_from_dict(laddered)
    assert parsed.freq_levels == (1.0, 0.5)
    assert parsed.problem.has_operating_points

    too_new = dict(plain)
    too_new["version"] = REQUEST_VERSION + 1
    with pytest.raises(RequestError) as err:
        solve_request_from_dict(too_new)
    assert err.value.code == "unsupported_version"

    bad = dict(plain)
    bad["freq_levels"] = [0.5, 0.25]      # no full-speed rung
    with pytest.raises(RequestError) as err:
        solve_request_from_dict(bad)
    assert err.value.code == "bad_request"
