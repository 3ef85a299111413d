"""Unit tests for the scheduling-problem container."""

import pytest

from repro import ConstraintGraph, GraphError, Resource, Schedule, \
    SchedulingProblem


def graph_with(power: float) -> ConstraintGraph:
    g = ConstraintGraph("p")
    g.new_task("t", duration=5, power=power, resource="R")
    return g


class TestConstruction:
    def test_defaults(self):
        p = SchedulingProblem(graph_with(3.0), p_max=10.0)
        assert p.p_min == 0.0
        assert p.baseline == 0.0
        assert p.name == "p"

    def test_p_min_above_p_max_rejected(self):
        with pytest.raises(GraphError):
            SchedulingProblem(graph_with(3.0), p_max=5.0, p_min=6.0)

    def test_negative_constraints_rejected(self):
        with pytest.raises(GraphError):
            SchedulingProblem(graph_with(3.0), p_max=-1.0)
        with pytest.raises(GraphError):
            SchedulingProblem(graph_with(3.0), p_max=5.0, baseline=-1.0)

    @pytest.mark.parametrize("field", ["p_max", "p_min", "baseline"])
    def test_nan_constraints_rejected(self, field):
        """NaN passes every ``< 0`` check and makes every spike test
        false, so it must be refused like a negative value."""
        powers = {"p_max": 10.0, field: float("nan")}
        with pytest.raises(GraphError):
            SchedulingProblem(graph_with(3.0), **powers)

    def test_nan_task_and_idle_power_rejected(self):
        with pytest.raises(GraphError):
            graph_with(float("nan"))
        with pytest.raises(GraphError):
            Resource("R", idle_power=float("nan"))


class TestDerived:
    def test_total_baseline_includes_idle_power(self):
        g = graph_with(3.0)
        g.declare_resource(Resource(name="cpu", idle_power=2.0))
        p = SchedulingProblem(g, p_max=10.0, baseline=1.0)
        assert p.total_baseline == pytest.approx(3.0)
        assert p.headroom() == pytest.approx(7.0)

    def test_feasible_power_check_flags_oversized_task(self):
        p = SchedulingProblem(graph_with(12.0), p_max=10.0)
        reasons = p.feasible_power_check()
        assert len(reasons) == 1
        assert "t" in reasons[0]

    def test_feasible_power_check_flags_baseline(self):
        p = SchedulingProblem(graph_with(1.0), p_max=10.0,
                              baseline=11.0)
        assert any("baseline" in r for r in p.feasible_power_check())

    def test_feasible_power_check_ok(self):
        assert SchedulingProblem(graph_with(3.0),
                                 p_max=10.0).feasible_power_check() == []

    def test_feasible_power_check_uses_the_profile_tolerance(self):
        """7.9 W on 2.5 W sums to 10.4 W, an ulp above this P_max: a
        miss the profile's tolerance forgives, so the screen must too."""
        g = graph_with(7.9)
        p = SchedulingProblem(g, p_max=10.399999999999999, baseline=2.5)
        assert p.feasible_power_check() == []
        assert p.check(Schedule(g, {"t": 0})).ok

    def test_profile_counts_idle_power_once(self):
        g = graph_with(3.0)
        g.declare_resource(Resource(name="cpu", idle_power=2.0))
        p = SchedulingProblem(g, p_max=6.0, baseline=1.0)
        schedule = Schedule(g, {"t": 0})
        assert p.profile(schedule).segments == [(0, 5, 6.0)]
        assert p.profile(schedule, horizon=8).value(6) == 3.0
        assert p.check(schedule).ok
        assert not p.with_power_constraints(5.5, 0.0).check(schedule).ok

    def test_with_power_constraints_shares_graph(self):
        p = SchedulingProblem(graph_with(3.0), p_max=10.0, p_min=5.0)
        q = p.with_power_constraints(p_max=20.0, p_min=1.0)
        assert q.graph is p.graph
        assert q.p_max == 20.0
        assert p.p_max == 10.0

    def test_fresh_graph_is_a_copy(self):
        p = SchedulingProblem(graph_with(3.0), p_max=10.0)
        fresh = p.fresh_graph()
        fresh.add_release("t", 5)
        assert p.graph.separation("__anchor__", "t") is None
