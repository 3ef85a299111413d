"""A max-power restart that runs out of ``max_spike_attempts`` says so.

``SchedulerStats.spike_budget_exhausted`` counts the restarts that ran
and needed an attempt past the budget, also when another restart or
the serial fallback still answers; the restart's ``sched.maxp.restart``
span carries ``exhausted=True``.  No answer depends on the counter.
"""

from __future__ import annotations

import pytest

from repro import PowerAwareScheduler, SchedulerOptions
from repro.examples_data import fig1_problem
from repro.mission import MarsRover
from repro.mission.rover import SolarCase
from repro.obs import OBS, MetricsRegistry


def _solve(problem, options: "SchedulerOptions | None" = None):
    """The pipeline's result and the attrs of every restart span."""
    with OBS.capture() as cap:
        result = PowerAwareScheduler(options or SchedulerOptions()).solve(
            problem)

    def restarts(spans):
        for span in spans:
            if span.name == "sched.maxp.restart":
                yield span.attrs
            yield from restarts(span.children)

    return result, list(restarts(cap.spans))


def _metric(result) -> int:
    registry = MetricsRegistry()
    result.stats.absorb_into(registry)
    return registry.counter("sched.maxp.spike_budget_exhausted").value


class TestSpikeBudgetExhausted:
    def test_rover_worst_case_spends_both_budgets(self):
        """Both restarts run out of their 2,000 attempts; the serial
        fallback answers."""
        result, spans = _solve(MarsRover.standard().problem(
            SolarCase.WORST))
        assert (result.finish_time, result.energy_cost) == (75, 388.0)
        assert result.stats.spike_attempts == 4000
        assert result.stats.spike_budget_exhausted == 2
        assert _metric(result) == 2
        assert [attrs.get("exhausted") for attrs in spans] == [True, True]

    def test_a_small_budget_changes_the_answer_and_says_so(self):
        problem = MarsRover.standard().problem(SolarCase.TYPICAL)
        result, spans = _solve(problem,
                               SchedulerOptions(max_spike_attempts=3))
        assert result.finish_time == 75
        assert PowerAwareScheduler().solve(problem).finish_time == 60
        assert result.stats.spike_budget_exhausted >= 1
        assert any(attrs.get("exhausted") for attrs in spans)

    @pytest.mark.parametrize("problem", [
        fig1_problem(), MarsRover.standard().problem(SolarCase.TYPICAL)],
        ids=["fig1", "rover-typical"])
    def test_a_budget_that_lasts_reads_zero(self, problem):
        result, spans = _solve(problem)
        assert result.stats.spike_budget_exhausted == 0
        assert _metric(result) == 0
        assert spans and not any("exhausted" in attrs for attrs in spans)
