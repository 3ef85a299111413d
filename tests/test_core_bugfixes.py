"""Regression tests for the hot-path bugfix sweep.

Each test pins one of these hot-path defects:

* ``weaken_edge`` — the compaction and unlock passes used to
  ``remove_edge`` pairs where a scheduler edge had *overwritten* a user
  constraint (the graph keeps one edge per ordered pair), silently
  dropping the user's release or deadline;
* ``_extend_interval`` — scanned every segment from t=0 per
  ``first_spike``/``first_gap`` call instead of bisecting to the
  covering segment;
* ``PowerProfile.__init__`` — merged neighbour segments with exact
  float ``==`` while every validity check uses ``POWER_TOL``, so
  summation-order jitter could change segment counts;
* boundary behaviour of ``restricted``/``concatenate``/``energy_above``
  — every energy figure rests on them, so their edges must be nailed
  down.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (ANCHOR_NAME, ConstraintGraph, PowerProfile,
                        Schedule, SchedulingProblem)
from repro.errors import ValidationError
from repro.scheduling.max_power import MaxPowerScheduler


# ----------------------------------------------------------------------
# weaken_edge: user constraints survive scheduler-edge cleanup
# ----------------------------------------------------------------------

def _graph_with(name: str = "A", duration: int = 2) -> ConstraintGraph:
    g = ConstraintGraph("weaken")
    g.new_task(name, duration=duration, power=4.0)
    return g


def _as_scheduler_input(g: ConstraintGraph) -> None:
    """Mark the current edge set as the user's baseline.

    Schedulers always operate on ``copy()``-fresh graphs whose journal
    is empty — user edges predate the journal, so the first journaled
    entry for a pair is the scheduler's own mutation.  Tests build user
    edges directly, so they reset the journal the same way.
    """
    g._journal.clear()


class TestWeakenEdge:
    def test_restores_overwritten_user_release(self):
        g = _graph_with()
        g.add_release("A", 3)
        _as_scheduler_input(g)
        g.add_edge(ANCHOR_NAME, "A", 6, tag="delay")  # overwrites
        assert g.weaken_edge(ANCHOR_NAME, "A") is True
        assert g.separation(ANCHOR_NAME, "A") == 3
        assert g.edge_tag(ANCHOR_NAME, "A") == "user"

    def test_removes_edge_created_from_nothing(self):
        g = _graph_with()
        g.add_edge(ANCHOR_NAME, "A", 6, tag="delay")
        assert g.weaken_edge(ANCHOR_NAME, "A") is True
        assert g.separation(ANCHOR_NAME, "A") is None

    def test_no_edge_is_a_noop(self):
        g = _graph_with()
        assert g.weaken_edge(ANCHOR_NAME, "A") is False

    def test_unjournaled_pair_falls_back_to_removal(self):
        g = _graph_with()
        g.add_release("A", 3)
        g._journal.clear()  # e.g. a fresh copy: no history
        assert g.weaken_edge(ANCHOR_NAME, "A") is True
        assert g.separation(ANCHOR_NAME, "A") is None

    def test_already_original_is_a_noop(self):
        g = _graph_with()
        g.add_release("A", 3)
        _as_scheduler_input(g)
        g.add_edge(ANCHOR_NAME, "A", 6, tag="delay")
        g.weaken_edge(ANCHOR_NAME, "A")
        assert g.weaken_edge(ANCHOR_NAME, "A") is False
        assert g.separation(ANCHOR_NAME, "A") == 3

    def test_weaken_is_journaled_and_rolls_back(self):
        g = _graph_with()
        g.add_release("A", 3)
        _as_scheduler_input(g)
        token = g.checkpoint()
        g.add_edge(ANCHOR_NAME, "A", 6, tag="delay")
        g.weaken_edge(ANCHOR_NAME, "A")
        assert g.separation(ANCHOR_NAME, "A") == 3
        g.rollback(token)
        assert g.separation(ANCHOR_NAME, "A") == 3
        assert g.edge_tag(ANCHOR_NAME, "A") == "user"

    def test_restores_oldest_journaled_value_through_chain(self):
        g = _graph_with()
        g.add_release("A", 3)
        _as_scheduler_input(g)
        g.add_edge(ANCHOR_NAME, "A", 6, tag="delay")
        g.add_edge(ANCHOR_NAME, "A", 9, tag="delay")  # tightens again
        g.weaken_edge(ANCHOR_NAME, "A")
        assert g.separation(ANCHOR_NAME, "A") == 3


class TestSchedulerUserConstraintLoss:
    def test_compaction_respects_overwritten_user_release(self):
        """Compaction used to remove the (anchor, task) pair outright,
        dropping a user release the delay edge had overwritten — the
        task then compacted to t=0, violating the user constraint."""
        g = _graph_with()
        g.add_release("A", 3)
        _as_scheduler_input(g)
        g.add_edge(ANCHOR_NAME, "A", 6, tag="delay")
        schedule = MaxPowerScheduler().compact(
            g, SchedulingProblem(g, p_max=100.0))
        assert schedule.start("A") == 3
        assert g.separation(ANCHOR_NAME, "A") == 3
        assert g.edge_tag(ANCHOR_NAME, "A") == "user"

    def test_unlock_restores_overwritten_user_deadline(self):
        """A lock landing on a task with a *tighter* user start deadline
        overwrites it; lifting the lock must restore the deadline, not
        drop the pair."""
        g = _graph_with("B", duration=1)
        g.add_start_deadline("B", 8)          # (B, anchor, -8, user)
        _as_scheduler_input(g)
        g.lock_start("B", 4)                  # max side: (B, anchor, -4)
        assert g.edge_tag("B", ANCHOR_NAME) == "lock"
        schedule = Schedule(g, {"B": 4})
        scheduler = MaxPowerScheduler()
        assert scheduler._unlock_one(g, schedule, 4, set()) is True
        assert g.separation("B", ANCHOR_NAME) == -8
        assert g.edge_tag("B", ANCHOR_NAME) == "user"


# ----------------------------------------------------------------------
# _extend_interval: bisect jump equals the full scan
# ----------------------------------------------------------------------

class TestExtendIntervalBisect:
    def _sawtooth(self, teeth: int = 40) -> PowerProfile:
        segments = []
        t = 0
        for i in range(teeth):
            segments.append((t, t + 2, 2.0 if i % 2 else 8.0))
            t += 2
        return PowerProfile(segments)

    def test_first_spike_matches_spikes_head(self):
        profile = self._sawtooth()
        for p_max in (1.0, 3.0, 7.9):
            spikes = profile.spikes(p_max)
            first = profile.first_spike(p_max)
            if spikes:
                assert first == spikes[0]
            else:
                assert first is None

    def test_first_gap_matches_gaps_head(self):
        profile = self._sawtooth()
        for p_min in (2.1, 5.0, 9.0):
            gaps = profile.gaps(p_min)
            first = profile.first_gap(p_min)
            if gaps:
                assert first == gaps[0]
            else:
                assert first is None

    def test_late_violation_found_after_bisect_jump(self):
        # long quiet prefix, violation only in the final segment
        profile = PowerProfile(
            [(i, i + 1, 1.0) for i in range(50)] + [(50, 55, 9.0)])
        spike = profile.first_spike(5.0)
        assert spike is not None
        assert (spike.start, spike.end, spike.extremum) == (50, 55, 9.0)

    def test_extend_from_mid_segment_boundary(self):
        profile = PowerProfile([(0, 4, 9.0), (4, 8, 1.0), (8, 12, 9.0)])
        # start exactly at a segment boundary inside the domain
        interval = profile._extend_interval(8, lambda p: p > 5.0, max)
        assert (interval.start, interval.end) == (8, 12)
        # start strictly inside a violating segment
        interval = profile._extend_interval(1, lambda p: p > 5.0, max)
        assert (interval.start, interval.end) == (1, 4)

    def test_randomized_equivalence_with_linear_reference(self):
        rng = random.Random(7)
        for _ in range(25):
            segments, t = [], 0
            for _ in range(rng.randint(1, 30)):
                end = t + rng.randint(1, 5)
                segments.append((t, end, rng.choice([1.0, 4.0, 9.0])))
                t = end
            profile = PowerProfile(segments)
            threshold = rng.choice([0.5, 2.0, 5.0, 8.0])
            predicate = lambda p: p > threshold  # noqa: E731

            def linear_reference(start):
                ext, end = None, start
                for t0, t1, power in profile._segments:
                    if t1 <= start:
                        continue
                    if predicate(power):
                        ext = power if ext is None else max(ext, power)
                        end = t1
                    elif end > start:
                        break
                from repro.core.profile import Interval
                return Interval(start, end,
                                ext if ext is not None else 0.0)

            for start in range(profile.horizon):
                assert profile._extend_interval(start, predicate, max) \
                    == linear_reference(start)


# ----------------------------------------------------------------------
# tolerance-consistent neighbour merging
# ----------------------------------------------------------------------

class TestToleranceMerge:
    def test_ulp_jitter_does_not_split_a_plateau(self):
        parts = [0.1] * 10
        forward = sum(parts)
        chunked = sum(parts[:5]) + sum(parts[5:])
        assert forward != chunked  # the classic 0.1 accumulation gap
        profile = PowerProfile([(0, 5, forward), (5, 10, chunked)])
        assert len(profile.segments) == 1
        # the merged plateau keeps the first-seen power
        assert profile.segments[0] == (0, 10, forward)

    def test_distinct_powers_still_split(self):
        profile = PowerProfile([(0, 5, 1.0), (5, 10, 1.1)])
        assert len(profile.segments) == 2

    @settings(max_examples=60, deadline=None)
    @given(powers=st.lists(
        st.floats(min_value=0.01, max_value=10.0,
                  allow_nan=False, allow_infinity=False),
        min_size=2, max_size=8),
        seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_permuted_summation_orders_agree_on_segment_count(
            self, powers, seed):
        """Two neighbouring levels that are the same set of task powers
        summed in different orders must merge into one segment — the
        summation-order jitter is below POWER_TOL by construction."""
        rng = random.Random(seed)
        permuted = list(powers)
        rng.shuffle(permuted)
        a, b = sum(powers), sum(permuted)
        assert abs(a - b) <= PowerProfile.POWER_TOL
        profile = PowerProfile([(0, 3, a), (3, 6, b)])
        assert len(profile.segments) == 1
        assert profile.segments[0][2] == a

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_from_schedule_segment_count_invariant_under_task_order(
            self, seed):
        """Building the same schedule with permuted task insertion
        orders must give profiles with identical segment counts and
        POWER_TOL-close powers."""
        rng = random.Random(seed)
        count = rng.randint(2, 6)
        tasks = [(f"t{i}", rng.randint(1, 6), rng.randint(0, 8),
                  rng.uniform(0.1, 5.0)) for i in range(count)]

        def build(order):
            g = ConstraintGraph("perm")
            for name, duration, _start, power in order:
                g.new_task(name, duration=duration, power=power)
            starts = {name: start for name, _d, start, _p in order}
            return PowerProfile.from_schedule(Schedule(g, starts))

        base = build(tasks)
        shuffled = list(tasks)
        rng.shuffle(shuffled)
        other = build(shuffled)
        assert len(base.segments) == len(other.segments)
        for (a0, a1, ap), (b0, b1, bp) in zip(base.segments,
                                              other.segments):
            assert (a0, a1) == (b0, b1)
            assert abs(ap - bp) <= PowerProfile.POWER_TOL


# ----------------------------------------------------------------------
# restricted / concatenate / energy_above boundary cases
# ----------------------------------------------------------------------

class TestProfileBoundaries:
    def test_zero_length_restriction_at_horizon_rejected(self):
        profile = PowerProfile([(0, 5, 2.0)])
        with pytest.raises(ValidationError, match="outside domain"):
            profile.restricted(5, 5)
        with pytest.raises(ValidationError, match="outside domain"):
            profile.restricted(0, 0)

    def test_restriction_touching_horizon(self):
        profile = PowerProfile([(0, 5, 2.0), (5, 9, 4.0)])
        tail = profile.restricted(4, 9)
        assert tail.segments == [(0, 1, 2.0), (1, 5, 4.0)]
        assert tail.horizon == 5
        full = profile.restricted(0, 9)
        assert full.segments == profile.segments

    def test_single_segment_restriction_and_concat(self):
        single = PowerProfile([(0, 7, 3.0)])
        mid = single.restricted(2, 5)
        assert mid.segments == [(0, 3, 3.0)]
        joined = PowerProfile.concatenate([single, single])
        # equal powers merge across the junction
        assert joined.segments == [(0, 14, 3.0)]
        assert joined.horizon == 14

    def test_concatenate_empty_and_single(self):
        empty = PowerProfile([])
        single = PowerProfile([(0, 4, 2.5)])
        assert PowerProfile.concatenate([]).segments == []
        assert PowerProfile.concatenate([empty, single]).segments == \
            [(0, 4, 2.5)]
        assert PowerProfile.concatenate([single]).segments == \
            single.segments

    def test_energy_above_level_exactly_at_segment_power(self):
        profile = PowerProfile([(0, 4, 3.0), (4, 6, 5.0)])
        # strict >: a segment AT the level contributes nothing
        assert profile.energy_above(3.0) == pytest.approx(2 * 2.0)
        assert profile.energy_above(5.0) == 0.0
        assert profile.energy_above(0.0) == pytest.approx(
            profile.energy())

    def test_energy_above_single_segment_and_empty(self):
        assert PowerProfile([]).energy_above(1.0) == 0
        single = PowerProfile([(0, 3, 2.0)])
        assert single.energy_above(2.0) == 0.0
        assert single.energy_above(1.5) == pytest.approx(1.5)
