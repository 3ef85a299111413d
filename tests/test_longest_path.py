"""Unit tests for single-source longest path and ASAP/ALAP analysis."""

import pickle
import random

import pytest

from repro import (ConstraintGraph, PositiveCycleError, earliest_starts,
                   latest_starts, longest_paths)
from repro.core.longest_path import lp_counter_snapshot, lp_counters_delta
from repro.core.task import ANCHOR_NAME


def make_chain() -> ConstraintGraph:
    g = ConstraintGraph("chain")
    g.new_task("a", duration=5)
    g.new_task("b", duration=3)
    g.new_task("c", duration=4)
    g.add_precedence("a", "b")
    g.add_precedence("b", "c")
    return g


class TestLongestPaths:
    def test_chain_distances(self):
        dist = longest_paths(make_chain()).distance
        assert dist["a"] == 0
        assert dist["b"] == 5
        assert dist["c"] == 8

    def test_unconstrained_tasks_start_at_zero(self):
        g = ConstraintGraph()
        g.new_task("x", duration=7)
        assert longest_paths(g).distance["x"] == 0

    def test_release_raises_distance(self):
        g = make_chain()
        g.add_release("a", 10)
        dist = longest_paths(g).distance
        assert dist["a"] == 10
        assert dist["c"] == 18

    def test_max_separation_alone_does_not_move_tasks(self):
        g = ConstraintGraph()
        g.new_task("u", duration=5)
        g.new_task("v", duration=5)
        g.add_max_separation("u", "v", 10)
        dist = longest_paths(g).distance
        assert dist["u"] == 0
        assert dist["v"] == 0

    def test_max_separation_can_push_earlier_task(self):
        # v released at 60, u must be within 50 before v:
        # sigma(u) >= 60 - 50 = 10.
        g = ConstraintGraph()
        g.new_task("u", duration=5)
        g.new_task("v", duration=5)
        g.add_release("v", 60)
        g.add_max_separation("u", "v", 50)
        assert longest_paths(g).distance["u"] == 10

    def test_positive_cycle_detected(self):
        g = ConstraintGraph()
        g.new_task("u", duration=5)
        g.new_task("v", duration=5)
        g.add_min_separation("u", "v", 10)
        g.add_max_separation("u", "v", 8)  # contradiction
        with pytest.raises(PositiveCycleError):
            longest_paths(g)

    def test_positive_cycle_reports_cycle_vertices(self):
        g = ConstraintGraph()
        g.new_task("u", duration=5)
        g.new_task("v", duration=5)
        g.add_min_separation("u", "v", 10)
        g.add_max_separation("u", "v", 8)
        with pytest.raises(PositiveCycleError) as excinfo:
            longest_paths(g)
        cycle = excinfo.value.cycle
        assert cycle  # non-empty trace

    def test_critical_path_chain(self):
        result = longest_paths(make_chain())
        assert result.critical_path("c") == ["a", "b", "c"]

    def test_anchor_distance_zero(self):
        assert longest_paths(make_chain()).distance[ANCHOR_NAME] == 0


class TestAsapAlap:
    def test_earliest_starts_match_distances(self):
        assert earliest_starts(make_chain()) == {"a": 0, "b": 5, "c": 8}

    def test_latest_starts_against_horizon(self):
        late = latest_starts(make_chain(), horizon=20)
        # c must finish by 20 -> start <= 16; b <= 13; a <= 8.
        assert late["c"] == 16
        assert late["b"] == 13
        assert late["a"] == 8

    def test_alap_window_contains_asap(self):
        g = make_chain()
        early = earliest_starts(g)
        late = latest_starts(g, horizon=30)
        for name in early:
            assert early[name] <= late[name]

    def test_alap_detects_infeasible_horizon(self):
        from repro import InfeasibleError
        g = make_chain()
        g.add_release("a", 25)
        with pytest.raises(InfeasibleError):
            latest_starts(g, horizon=10)


def _random_graph(seed: int, tasks: int = 18) -> ConstraintGraph:
    """A random feasible-ish constraint graph with min/max edges."""
    rng = random.Random(seed)
    g = ConstraintGraph(name=f"rand-{seed}")
    names = [f"t{i}" for i in range(tasks)]
    for name in names:
        g.new_task(name, duration=rng.randint(1, 9),
                   power=rng.uniform(1.0, 5.0))
    for i, src in enumerate(names):
        for dst in names[i + 1:]:
            if rng.random() < 0.25:
                g.add_precedence(src, dst, gap=rng.randint(0, 4))
        if rng.random() < 0.4:
            g.add_release(src, rng.randint(0, 20))
    for i, src in enumerate(names[:-1]):
        if rng.random() < 0.2:
            g.add_max_separation(src, names[i + 1], rng.randint(30, 90))
    return g


def _cold_graph(graph: ConstraintGraph) -> ConstraintGraph:
    """A memo-free rebuild of ``graph``'s tasks and edge set."""
    cold = ConstraintGraph("cold")
    for task in graph.tasks():
        cold.add_task(task)
    for src, dst, weight in graph.edge_triples():
        cold.add_edge(src, dst, weight)
    return cold


def _cold_distances(graph: ConstraintGraph) -> "dict[str, int]":
    """Distances of a memo-free rebuild of ``graph``'s edge set."""
    return dict(longest_paths(_cold_graph(graph)).distance)


def _tree() -> ConstraintGraph:
    """A graph whose predecessor tree is known: a delay edge overwrote
    ``a``'s user release (10 over 4), ``b`` and ``d`` hang off ``a``,
    ``c`` off ``b``; ``c``'s own release (9) is off the tree, and so is
    ``e``'s lock (a release and a max edge into the anchor)."""
    g = ConstraintGraph("tree")
    for name, duration in (("a", 3), ("b", 4), ("c", 2), ("d", 5),
                           ("e", 1)):
        g.new_task(name, duration=duration)
    g.add_release("a", 4)
    g.add_precedence("a", "b")
    g.add_precedence("b", "c")
    g.add_min_separation("a", "d", 1)
    g.add_release("c", 9)
    g.lock_start("e", 6)
    g = g.copy()  # the user constraints predate the journal
    g.add_edge(ANCHOR_NAME, "a", 10, tag="delay")
    return g


def _settled_by_replay(graph: ConstraintGraph, mutate) -> "dict[str, int]":
    """Solve ``graph``, apply ``mutate``, and answer again: the answer
    must equal a cold solve and come from one replay."""
    longest_paths(graph)
    mutate(graph)
    snapshot = lp_counter_snapshot()
    answer = dict(longest_paths(graph).distance)
    delta = lp_counters_delta(snapshot)
    assert (delta["full_runs"], delta["incremental_runs"]) == (0, 1)
    assert answer == _cold_distances(graph)
    return answer


def _edges_at(graph: ConstraintGraph, length: int) -> dict:
    """The edge store as it stood at journal length ``length``."""
    edges = dict(graph._edges)
    for key, prev in reversed(graph._journal[length:]):
        if prev is None:
            edges.pop(key, None)
        else:
            edges[key] = prev
    return edges


def _assert_memos_are_solved_trees(graph: ConstraintGraph) -> None:
    """Every memo is the least fixpoint of its edge set, held by a tight,
    acyclic predecessor map: the invariant the replay step cuts along."""
    for length, (vertices, dist, pred) in graph._state_cache.items():
        assert vertices == len(dist) == len(pred)
        edges = _edges_at(graph, length)
        for (src, dst), (weight, _) in edges.items():
            if src in dist and dst in dist:
                assert dist[dst] >= dist[src] + weight
        for name, parent in pred.items():
            if parent is None:
                assert dist[name] == 0
            else:
                assert dist[name] == dist[parent] + edges[(parent, name)][0]
            chain = set()
            while name is not None:
                assert name not in chain, "predecessor cycle"
                chain.add(name)
                name = pred[name]


class TestAnswerLadder:
    """Exact memo hits and journal replays must be indistinguishable
    from a full solve of the same edge set."""

    def test_incremental_exception_parity(self):
        """Infeasibility reported through a memo is byte-identical to
        a cold solve (the replay delegates to the full solve instead of
        raising its own error)."""
        def build():
            g = ConstraintGraph("cached-infeasible")
            for name in ("A", "B"):
                g.new_task(name, duration=3, power=1.0)
            g.add_min_separation("A", "B", 5)
            return g

        cold = build()
        cold.add_min_separation("B", "A", 7)  # closes a positive cycle
        with pytest.raises(PositiveCycleError) as cold_exc:
            longest_paths(cold)

        cached = build()
        longest_paths(cached)  # primes the memo
        cached.add_min_separation("B", "A", 7)
        with pytest.raises(PositiveCycleError) as cached_exc:
            longest_paths(cached)
        assert str(cached_exc.value) == str(cold_exc.value)
        assert cached_exc.value.cycle == cold_exc.value.cycle

    def test_incremental_matches_full_after_adds(self):
        g = _random_graph(5)
        snapshot = lp_counter_snapshot()
        longest_paths(g)
        g.add_min_separation("t0", "t9", 17)
        g.add_release("t4", 33)
        incremental = dict(longest_paths(g).distance)
        assert lp_counters_delta(snapshot)["incremental_runs"] >= 1
        assert _cold_distances(g) == incremental

    def test_rollback_state_restore_is_exact(self):
        g = _random_graph(9)
        base = dict(longest_paths(g).distance)
        token = g.checkpoint()
        g.add_release("t2", 55)
        g.add_min_separation("t1", "t7", 21)
        longest_paths(g)
        g.rollback(token)
        snapshot = lp_counter_snapshot()
        restored = dict(longest_paths(g).distance)
        delta = lp_counters_delta(snapshot)
        assert delta["cache_hits"] == 1
        assert delta["full_runs"] == 0
        assert restored == base

    def test_copy_right_after_rollback_needs_no_full_solve(self):
        """The memo for the restored edge set survives the rollback, so
        a copy taken before any query seeds its clone from it."""
        g = _random_graph(13)
        base = dict(longest_paths(g).distance)
        token = g.checkpoint()
        g.add_release("t5", 47)
        longest_paths(g)
        g.rollback(token)
        snapshot = lp_counter_snapshot()
        assert dict(longest_paths(g.copy()).distance) == base
        delta = lp_counters_delta(snapshot)
        assert delta["full_runs"] == 0
        assert delta["cache_hits"] == 1

    def test_query_after_set_duration_needs_no_full_solve(self):
        """Durations are not edge weights, so ``set_duration`` leaves the
        memo standing — as in the online session's overrun replan, which
        stretches a task on a solved graph's working copy."""
        g = _random_graph(17)
        longest_paths(g)
        working = g.copy()
        working.add_edge("t3", "t8", 40, tag="replan")
        working.set_duration("t3", working.task("t3").duration + 6)
        snapshot = lp_counter_snapshot()
        answer = dict(longest_paths(working).distance)
        assert lp_counters_delta(snapshot)["full_runs"] == 0
        assert answer == _cold_distances(working)

    def test_state_restore_fuzz_checkpoint_rollback(self):
        """Random interleavings of every graph mutation the schedulers
        use, plus copies, pickles and duration changes: each answer,
        plain or probing, must equal a cold solve of the same edge set,
        and a probe returns None exactly when the cold solve raises."""
        rng = random.Random(1234)
        g = _random_graph(21, tasks=12)
        names = g.task_names()
        tokens: "list[int]" = []
        snapshot = lp_counter_snapshot()
        for _ in range(120):
            before = g.checkpoint()
            op = rng.random()
            if op < 0.25:
                tokens.append(before)
            elif op < 0.4 and tokens:
                g.rollback(tokens.pop(rng.randrange(len(tokens))))
                tokens = [t for t in tokens if t <= g.checkpoint()]
            elif op < 0.5 and g.edge_count():
                edge = rng.choice(g.edges())
                g.remove_edge(edge.src, edge.dst)
            elif op < 0.6 and g.edge_count():
                edge = rng.choice(g.edges())
                g.weaken_edge(edge.src, edge.dst)
            elif op < 0.65:
                g, tokens = g.copy(), []
            elif op < 0.7:
                g = pickle.loads(pickle.dumps(g))
            elif op < 0.75:
                g.set_duration(rng.choice(names), rng.randint(1, 9))
            else:
                src, dst = rng.sample(names, 2)
                g.add_edge(src, dst, rng.randint(-12, 8))
            cold = _cold_graph(g)
            try:
                expected = dict(longest_paths(cold).distance)
            except PositiveCycleError as cold_exc:
                if rng.random() < 0.5:
                    assert longest_paths(g, probe=True) is None
                else:
                    with pytest.raises(PositiveCycleError) as exc:
                        longest_paths(g)
                    assert str(exc.value) == str(cold_exc)
                    assert exc.value.cycle == cold_exc.cycle
                # only an addition can close a positive cycle: undo it
                g.rollback(before)
                continue
            answer = longest_paths(g, probe=rng.random() < 0.5)
            assert answer is not None
            assert dict(answer.distance) == expected
        delta = lp_counters_delta(snapshot)
        assert delta["cache_hits"] > 0
        assert delta["incremental_runs"] > 0
        assert delta["full_runs"] > 0

    def test_unmutated_copy_answers_from_carried_cache(self):
        g = _random_graph(31)
        base = dict(longest_paths(g).distance)
        snapshot = lp_counter_snapshot()
        assert dict(longest_paths(g.copy()).distance) == base
        delta = lp_counters_delta(snapshot)
        assert delta["cache_hits"] == 1
        assert delta["full_runs"] == 0
        # a mutated copy replays over the carried memo and stays exact
        mutated = g.copy()
        mutated.add_release("t3", 41)
        assert dict(longest_paths(mutated).distance) == \
            _cold_distances(mutated)

    def test_result_views_are_immutable(self):
        result = longest_paths(_random_graph(2))
        with pytest.raises(TypeError):
            result.distance["t0"] = 99
        with pytest.raises(TypeError):
            result.predecessor["t0"] = "t1"
        # plain-dict copies remain available to callers that need them
        assert dict(result.distance)["t0"] == result.distance["t0"]

    def test_pickled_graph_ships_only_the_current_memo(self):
        g = _random_graph(8)
        longest_paths(g)
        g.add_release("t1", 30)
        current = dict(longest_paths(g).distance)
        assert len(g._state_cache) == 2
        clone = pickle.loads(pickle.dumps(g))
        assert list(clone._state_cache) == [len(clone._journal)]
        snapshot = lp_counter_snapshot()
        assert dict(longest_paths(clone).distance) == current
        delta = lp_counters_delta(snapshot)
        assert delta["full_runs"] == 0
        assert delta["cache_hits"] == 1

    def test_weakened_tree_edge_replays(self):
        g = _tree()
        assert longest_paths(g).distance["c"] == 17
        answer = _settled_by_replay(
            g, lambda g: g.weaken_edge(ANCHOR_NAME, "a"))
        assert (answer["a"], answer["b"], answer["c"], answer["d"]) == \
            (4, 7, 11, 5)

    def test_removed_tree_edge_replays(self):
        answer = _settled_by_replay(_tree(),
                                    lambda g: g.remove_edge("a", "b"))
        assert (answer["b"], answer["c"]) == (0, 9)

    def test_weakened_off_tree_edge_replays(self):
        g = _tree()
        g.add_release("c", 12)  # tightens the release c's path ignores
        before = dict(longest_paths(g).distance)
        assert _settled_by_replay(
            g, lambda g: g.weaken_edge(ANCHOR_NAME, "c")) == before

    def test_weaken_then_tighten_same_pair_replays(self):
        """Compaction's boundary trials: roll back, lift the delay,
        re-add it at an earlier start."""
        g = _tree()
        longest_paths(g)
        token = g.checkpoint()
        for start in (5, 7, 9):
            g.rollback(token)
            answer = _settled_by_replay(g, lambda g: (
                g.weaken_edge(ANCHOR_NAME, "a"),
                g.add_edge(ANCHOR_NAME, "a", start, tag="delay")))
            assert answer["a"] == start

    def test_overlapping_cuts_replay(self):
        """Two cut roots, ``c`` inside ``a``'s subtree."""
        answer = _settled_by_replay(_tree(), lambda g: (
            g.weaken_edge(ANCHOR_NAME, "a"),
            g.remove_edge("b", "c")))
        assert (answer["a"], answer["b"], answer["c"], answer["d"]) == \
            (4, 7, 9, 5)

    def test_weakened_max_separation_on_tree_replays(self):
        """A max separation can carry a path backwards: ``b`` starts at
        most 20 before ``d``, so ``b`` hangs off ``d``."""
        g = _tree()
        g.add_release("d", 40)
        g.add_max_separation("b", "d", 20)
        assert longest_paths(g).predecessor["b"] == "d"
        answer = _settled_by_replay(
            g, lambda g: g.weaken_edge("d", "b"))
        assert (answer["b"], answer["c"]) == (13, 17)

    def test_weakened_lock_into_anchor_replays(self):
        g = _tree()
        assert longest_paths(g).predecessor[ANCHOR_NAME] is None
        answer = _settled_by_replay(
            g, lambda g: g.weaken_edge("e", ANCHOR_NAME))
        assert answer["e"] == 6

    def test_weakening_then_positive_cycle_matches_cold_solve(self):
        """An addition after a weakening that closes a positive cycle:
        a probe says so, a plain call raises the cold solve's error."""
        def mutate(g):
            g.weaken_edge(ANCHOR_NAME, "a")
            g.add_min_separation("c", "a", 1)

        cold = _tree()
        mutate(cold)
        with pytest.raises(PositiveCycleError) as cold_exc:
            longest_paths(cold)
        for probe in (True, False):
            g = _tree()
            longest_paths(g)
            mutate(g)
            if probe:
                assert longest_paths(g, probe=True) is None
                continue
            with pytest.raises(PositiveCycleError) as exc:
                longest_paths(g)
            assert str(exc.value) == str(cold_exc.value)
            assert exc.value.cycle == cold_exc.value.cycle


def test_journal_memos_answer_rover_session_arrivals():
    """The journal memos answer the online session's admission and
    re-solve loops, which roll back onto already-solved journal prefixes
    and replay short monotone suffixes hundreds of times in the first 20
    arrivals of the unrolled-rover stream (the perfbench
    ``session-rover`` workload).  740 full solves is the count of the
    earlier two-cache ladder on the same replay."""
    from repro.mission import MarsRover
    from repro.mission.rover import SolarCase
    from repro.online import (MissionSession, SessionConfig,
                              arrivals_from_problem)
    from repro.scheduling import SchedulerOptions

    rover = MarsRover.standard()
    problem = rover.problem(
        SolarCase.TYPICAL,
        graph=rover.unrolled_graph(SolarCase.TYPICAL, iterations=5))
    arrivals = arrivals_from_problem(problem, quiesce=False)[:20]
    session = MissionSession(SessionConfig(
        p_max=problem.p_max, p_min=problem.p_min,
        baseline=problem.baseline, options=SchedulerOptions(),
        name="memo-replay"))
    snapshot = lp_counter_snapshot()
    for arrival in arrivals:
        session.apply(arrival)
    delta = lp_counters_delta(snapshot)
    assert len(session.admitted) == 20
    assert delta["incremental_runs"] > 0
    assert delta["full_runs"] <= 740


@pytest.mark.parametrize("seed", range(6))
def test_weakening_replays_keep_solved_trees(seed):
    """Random weaken, remove, add, lock, rollback and copy sequences on
    graphs with max separations: every answer equals a cold solve, and
    every memo stays a tight, acyclic predecessor tree."""
    rng = random.Random(seed)
    g = _random_graph(100 + seed, tasks=rng.randint(3, 14))
    names = g.task_names()
    for name in rng.sample(names, len(names) // 3):
        token = g.checkpoint()
        g.add_max_separation(name, rng.choice(names), rng.randint(8, 40))
        if longest_paths(g, probe=True) is None:
            g.rollback(token)
    assert longest_paths(g, probe=True) is not None
    tokens: "list[int]" = []
    paid = {"incremental_runs": 0, "full_runs": 0}
    for _ in range(80):
        before = g.checkpoint()
        op = rng.random()
        if op < 0.15:
            tokens.append(before)
        elif op < 0.25 and tokens:
            g.rollback(tokens.pop(rng.randrange(len(tokens))))
            tokens = [t for t in tokens if t <= g.checkpoint()]
        elif op < 0.4 and g.edge_count():
            edge = rng.choice(g.edges())
            g.weaken_edge(edge.src, edge.dst)
        elif op < 0.55 and g.edge_count():
            edge = rng.choice(g.edges())
            g.remove_edge(edge.src, edge.dst)
        elif op < 0.6:
            g, tokens = g.copy(), []
        elif op < 0.7:
            g.lock_start(rng.choice(names), rng.randint(0, 40))
        else:
            src, dst = rng.sample(names, 2)
            g.add_edge(src, dst, rng.randint(-12, 8), tag="delay")
        try:
            expected = _cold_distances(g)
        except PositiveCycleError:
            assert longest_paths(g, probe=True) is None
            g.rollback(before)
            continue
        snapshot = lp_counter_snapshot()
        assert dict(longest_paths(g).distance) == expected
        delta = lp_counters_delta(snapshot)
        for step in paid:
            paid[step] += delta[step]
        _assert_memos_are_solved_trees(g)
    assert paid["incremental_runs"] > paid["full_runs"]


def test_rover_max_power_stage_pays_no_full_solve():
    """Spike repair's unlocks and compaction's relaxations weaken edges;
    the replay settles every one (40 full solves when a weakening fell
    through to the full solve)."""
    from repro.mission import MarsRover
    from repro.mission.rover import SolarCase
    from repro.scheduling import PowerAwareScheduler

    run = PowerAwareScheduler().solve_pipeline(
        MarsRover.standard().problem(SolarCase.TYPICAL))
    assert run.max_power.stats.lp_full_runs == 0
    assert run.max_power.stats.lp_incremental_runs > 0


def test_weakenings_replay_in_rover_session_arrivals():
    """The first 20 unrolled-rover arrivals pay 648 full solves when
    every weakened edge falls through to the full solve; replaying
    weakenings leaves a few dozen."""
    from repro.mission import MarsRover
    from repro.mission.rover import SolarCase
    from repro.online import (MissionSession, SessionConfig,
                              arrivals_from_problem)
    from repro.scheduling import SchedulerOptions

    rover = MarsRover.standard()
    problem = rover.problem(
        SolarCase.TYPICAL,
        graph=rover.unrolled_graph(SolarCase.TYPICAL, iterations=5))
    session = MissionSession(SessionConfig(
        p_max=problem.p_max, p_min=problem.p_min,
        baseline=problem.baseline, options=SchedulerOptions(),
        name="weakening-replay"))
    snapshot = lp_counter_snapshot()
    for arrival in arrivals_from_problem(problem, quiesce=False)[:20]:
        session.apply(arrival)
    assert lp_counters_delta(snapshot)["full_runs"] <= 40
