"""Unit tests for power profiles (P_sigma(t))."""

import pytest

from repro import (ConstraintGraph, Interval, PowerProfile, Schedule,
                   ValidationError)


def profile_of(tasks, starts, baseline=0.0) -> PowerProfile:
    g = ConstraintGraph()
    for name, duration, power in tasks:
        g.new_task(name, duration=duration, power=power,
                   resource=name)
    return PowerProfile.from_schedule(Schedule(g, starts),
                                      baseline=baseline)


class TestConstruction:
    def test_single_task(self):
        p = profile_of([("a", 5, 3.0)], {"a": 0})
        assert p.segments == [(0, 5, 3.0)]
        assert p.horizon == 5

    def test_overlap_sums(self):
        p = profile_of([("a", 5, 3.0), ("b", 5, 2.0)],
                       {"a": 0, "b": 3})
        assert p.segments == [(0, 3, 3.0), (3, 5, 5.0), (5, 8, 2.0)]

    def test_baseline_fills_idle_time(self):
        p = profile_of([("a", 2, 3.0), ("b", 2, 3.0)],
                       {"a": 0, "b": 4}, baseline=1.0)
        assert p.value(2) == pytest.approx(1.0)
        assert p.value(0) == pytest.approx(4.0)

    def test_resource_idle_power_added(self):
        g = ConstraintGraph()
        from repro import Resource
        g.declare_resource(Resource(name="cpu", idle_power=2.5))
        g.new_task("a", duration=4, power=1.0, resource="cpu")
        p = PowerProfile.from_schedule(Schedule(g, {"a": 0}))
        assert p.value(0) == pytest.approx(3.5)

    def test_horizon_extension(self):
        g = ConstraintGraph()
        g.new_task("a", duration=2, power=3.0)
        p = PowerProfile.from_schedule(Schedule(g, {"a": 0}),
                                       baseline=1.0, horizon=10)
        assert p.horizon == 10
        assert p.value(9) == pytest.approx(1.0)

    def test_horizon_before_finish_rejected(self):
        g = ConstraintGraph()
        g.new_task("a", duration=5, power=1.0)
        with pytest.raises(ValidationError):
            PowerProfile.from_schedule(Schedule(g, {"a": 0}), horizon=3)

    def test_empty_schedule(self):
        g = ConstraintGraph()
        p = PowerProfile.from_schedule(Schedule(g, {}))
        assert p.horizon == 0
        assert p.energy() == 0.0

    def test_segments_must_be_contiguous(self):
        with pytest.raises(ValidationError):
            PowerProfile([(0, 5, 1.0), (6, 8, 1.0)])

    def test_equal_neighbours_merged(self):
        p = PowerProfile([(0, 5, 2.0), (5, 9, 2.0)])
        assert p.segments == [(0, 9, 2.0)]


class TestQueries:
    @pytest.fixture
    def stepped(self) -> PowerProfile:
        return PowerProfile([(0, 5, 16.0), (5, 10, 12.0),
                             (10, 20, 14.0)])

    def test_value_lookup(self, stepped):
        assert stepped.value(0) == 16.0
        assert stepped.value(7) == 12.0
        assert stepped.value(19) == 14.0
        assert stepped.value(20) == 0.0
        assert stepped.value(-1) == 0.0

    def test_segment_end_inside_a_segment(self, stepped):
        assert stepped.segment_end(0) == 5
        assert stepped.segment_end(7) == 10
        assert stepped.segment_end(19) == 20

    def test_segment_end_at_a_boundary(self, stepped):
        assert stepped.segment_end(5) == 10
        assert stepped.segment_end(10) == 20

    def test_segment_end_outside_the_domain(self, stepped):
        assert stepped.segment_end(20) == 21
        assert stepped.segment_end(25) == 26
        assert stepped.segment_end(-1) == 0

    def test_segment_end_of_an_empty_profile(self):
        assert PowerProfile([]).segment_end(3) == 4

    def test_peak_and_floor(self, stepped):
        assert stepped.peak() == 16.0
        assert stepped.floor() == 12.0

    def test_spikes(self, stepped):
        assert stepped.spikes(15.0) == [Interval(0, 5, 16.0)]
        assert stepped.spikes(16.0) == []

    def test_gaps(self, stepped):
        assert stepped.gaps(14.0) == [Interval(5, 10, 12.0)]
        assert stepped.gaps(12.0) == []

    def test_adjacent_violating_segments_merge(self):
        p = PowerProfile([(0, 5, 20.0), (5, 10, 18.0), (10, 15, 10.0)])
        spikes = p.spikes(16.0)
        assert spikes == [Interval(0, 10, 20.0)]

    def test_first_spike_and_gap(self, stepped):
        assert stepped.first_spike(15.0) == Interval(0, 5, 16.0)
        assert stepped.first_gap(14.0) == Interval(5, 10, 12.0)
        assert stepped.first_spike(20.0) is None

    def test_is_power_valid_with_tolerance(self, stepped):
        assert stepped.is_power_valid(16.0)
        # float fuzz within tolerance is still valid
        fuzz = PowerProfile([(0, 5, 16.0 + 1e-12)])
        assert fuzz.is_power_valid(16.0)


class TestEnergy:
    @pytest.fixture
    def stepped(self) -> PowerProfile:
        return PowerProfile([(0, 5, 16.0), (5, 10, 12.0),
                             (10, 20, 14.0)])

    def test_total_energy(self, stepped):
        assert stepped.energy() == pytest.approx(16 * 5 + 12 * 5 + 14 * 10)

    def test_energy_above(self, stepped):
        assert stepped.energy_above(14.0) == pytest.approx(2 * 5)
        assert stepped.energy_above(0.0) == pytest.approx(
            stepped.energy())

    def test_energy_capped(self, stepped):
        assert stepped.energy_capped(14.0) == pytest.approx(
            14 * 5 + 12 * 5 + 14 * 10)

    def test_split_identity(self, stepped):
        # above + capped == total, for any level
        for level in (0.0, 5.0, 13.0, 14.0, 16.0, 99.0):
            assert stepped.energy_above(level) \
                + stepped.energy_capped(level) \
                == pytest.approx(stepped.energy())


class TestTransforms:
    def test_restricted(self):
        p = PowerProfile([(0, 5, 2.0), (5, 10, 4.0)])
        r = p.restricted(3, 8)
        assert r.segments == [(0, 2, 2.0), (2, 5, 4.0)]

    def test_restricted_bounds_checked(self):
        p = PowerProfile([(0, 5, 2.0)])
        with pytest.raises(ValidationError):
            p.restricted(2, 9)

    def test_concatenate(self):
        a = PowerProfile([(0, 5, 2.0)])
        b = PowerProfile([(0, 3, 4.0)])
        joined = PowerProfile.concatenate([a, b])
        assert joined.segments == [(0, 5, 2.0), (5, 8, 4.0)]
        assert joined.horizon == 8

    def test_concatenate_carries_first_baseline(self):
        # regression: the joined profile used to report only the *last*
        # part's baseline (1.0 then 0.5 yielded baseline=0.5)
        a = PowerProfile([(0, 5, 2.0)], baseline=1.0)
        b = PowerProfile([(0, 3, 4.0)], baseline=1.0)
        assert PowerProfile.concatenate([a, b]).baseline == 1.0

    def test_concatenate_mixed_baselines_raise(self):
        a = PowerProfile([(0, 5, 2.0)], baseline=1.0)
        b = PowerProfile([(0, 3, 4.0)], baseline=0.5)
        with pytest.raises(ValidationError):
            PowerProfile.concatenate([a, b])

    def test_concatenate_explicit_baseline_override(self):
        a = PowerProfile([(0, 5, 2.0)], baseline=1.0)
        b = PowerProfile([(0, 3, 4.0)], baseline=0.5)
        joined = PowerProfile.concatenate([a, b], baseline=0.75)
        assert joined.baseline == 0.75
        assert joined.segments == [(0, 5, 2.0), (5, 8, 4.0)]

    def test_concatenate_empty_list(self):
        joined = PowerProfile.concatenate([])
        assert joined.horizon == 0
        assert joined.baseline == 0.0

    def test_restrict_concat_roundtrip(self):
        p = PowerProfile([(0, 5, 2.0), (5, 10, 4.0), (10, 12, 1.0)])
        parts = [p.restricted(0, 5), p.restricted(5, 12)]
        assert PowerProfile.concatenate(parts).segments == p.segments

    def test_sampled(self):
        p = PowerProfile([(0, 2, 2.0), (2, 4, 4.0)])
        assert p.sampled() == [2.0, 2.0, 4.0, 4.0]
        assert p.sampled(step=2) == [2.0, 4.0]
