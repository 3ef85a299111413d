"""Unit tests for the constraint graph."""

import pytest

from repro import ConstraintGraph, GraphError, Resource
from repro.core.task import ANCHOR_NAME


@pytest.fixture
def two_tasks() -> ConstraintGraph:
    g = ConstraintGraph("g")
    g.new_task("u", duration=5, power=1.0, resource="R")
    g.new_task("v", duration=3, power=2.0, resource="S")
    return g


class TestVertices:
    def test_anchor_exists_by_default(self):
        g = ConstraintGraph()
        assert g.anchor.is_anchor
        assert len(g) == 0

    def test_new_task_registers_resource(self, two_tasks):
        assert "R" in two_tasks.resources
        assert "S" in two_tasks.resources

    def test_duplicate_task_rejected(self, two_tasks):
        with pytest.raises(GraphError):
            two_tasks.new_task("u", duration=1)

    def test_unknown_task_lookup_raises(self, two_tasks):
        with pytest.raises(GraphError):
            two_tasks.task("w")

    def test_task_names_exclude_anchor_by_default(self, two_tasks):
        assert two_tasks.task_names() == ["u", "v"]
        assert ANCHOR_NAME in two_tasks.task_names(include_anchor=True)

    def test_tasks_on_resource(self, two_tasks):
        two_tasks.new_task("w", duration=2, resource="R")
        assert [t.name for t in two_tasks.tasks_on("R")] == ["u", "w"]

    def test_resource_conflicts_pairs(self, two_tasks):
        two_tasks.new_task("w", duration=2, resource="R")
        pairs = [(a.name, b.name)
                 for a, b in two_tasks.resource_conflicts()]
        assert pairs == [("u", "w")]

    def test_declare_resource_sets_idle_power(self):
        g = ConstraintGraph()
        g.declare_resource(Resource(name="cpu", idle_power=3.1))
        g.new_task("t", duration=1, resource="cpu")
        assert g.resources["cpu"].idle_power == 3.1


class TestEdges:
    def test_add_edge_keeps_tightest(self, two_tasks):
        assert two_tasks.add_edge("u", "v", 3)
        assert not two_tasks.add_edge("u", "v", 2)  # looser: no-op
        assert two_tasks.separation("u", "v") == 3
        assert two_tasks.add_edge("u", "v", 7)      # tighter: replaces
        assert two_tasks.separation("u", "v") == 7

    def test_unknown_endpoint_rejected(self, two_tasks):
        with pytest.raises(GraphError):
            two_tasks.add_edge("u", "nope", 1)

    def test_non_integer_weight_rejected(self, two_tasks):
        with pytest.raises(GraphError):
            two_tasks.add_edge("u", "v", 1.5)

    def test_positive_self_edge_rejected(self, two_tasks):
        with pytest.raises(GraphError):
            two_tasks.add_edge("u", "u", 1)

    def test_nonpositive_self_edge_is_noop(self, two_tasks):
        assert not two_tasks.add_edge("u", "u", 0)
        assert two_tasks.separation("u", "u") is None

    def test_min_separation(self, two_tasks):
        two_tasks.add_min_separation("u", "v", 4)
        assert two_tasks.separation("u", "v") == 4

    def test_negative_min_separation_rejected(self, two_tasks):
        with pytest.raises(GraphError):
            two_tasks.add_min_separation("u", "v", -1)

    def test_max_separation_is_reverse_negative_edge(self, two_tasks):
        two_tasks.add_max_separation("u", "v", 10)
        assert two_tasks.separation("v", "u") == -10

    def test_window_adds_both(self, two_tasks):
        two_tasks.add_separation_window("u", "v", 2, 9)
        assert two_tasks.separation("u", "v") == 2
        assert two_tasks.separation("v", "u") == -9

    def test_empty_window_rejected(self, two_tasks):
        with pytest.raises(GraphError):
            two_tasks.add_separation_window("u", "v", 5, 4)

    def test_precedence_uses_duration(self, two_tasks):
        two_tasks.add_precedence("u", "v", gap=2)
        assert two_tasks.separation("u", "v") == 7  # d(u)=5 + 2

    def test_release_and_deadlines(self, two_tasks):
        two_tasks.add_release("u", 4)
        two_tasks.add_start_deadline("u", 9)
        assert two_tasks.separation(ANCHOR_NAME, "u") == 4
        assert two_tasks.separation("u", ANCHOR_NAME) == -9

    def test_finish_deadline_subtracts_duration(self, two_tasks):
        two_tasks.add_finish_deadline("u", 12)  # d(u)=5 -> start <= 7
        assert two_tasks.separation("u", ANCHOR_NAME) == -7

    def test_finish_deadline_shorter_than_duration_rejected(
            self, two_tasks):
        with pytest.raises(GraphError):
            two_tasks.add_finish_deadline("u", 3)

    def test_lock_start_pins_both_sides(self, two_tasks):
        two_tasks.lock_start("u", 6)
        assert two_tasks.separation(ANCHOR_NAME, "u") == 6
        assert two_tasks.separation("u", ANCHOR_NAME) == -6

    def test_successors_are_forward_edges_only(self, two_tasks):
        two_tasks.add_min_separation("u", "v", 3)
        two_tasks.add_max_separation("u", "v", 9)  # backward edge v->u
        assert two_tasks.successors("u") == ["v"]
        assert two_tasks.successors("v") == []

    def test_out_and_in_edges(self, two_tasks):
        two_tasks.add_min_separation("u", "v", 3)
        assert [e.dst for e in two_tasks.out_edges("u")] == ["v"]
        assert [e.src for e in two_tasks.in_edges("v")] == ["u"]

    def test_edge_tag_stored(self, two_tasks):
        two_tasks.add_edge("u", "v", 1, tag="serialize")
        assert two_tasks.edge_tag("u", "v") == "serialize"
        assert two_tasks.edge_tag("v", "u") is None

    def test_remove_edge(self, two_tasks):
        two_tasks.add_edge("u", "v", 1)
        assert two_tasks.remove_edge("u", "v")
        assert two_tasks.separation("u", "v") is None
        assert not two_tasks.remove_edge("u", "v")


class TestCheckpointRollback:
    def test_rollback_removes_new_edges(self, two_tasks):
        token = two_tasks.checkpoint()
        two_tasks.add_edge("u", "v", 5)
        two_tasks.rollback(token)
        assert two_tasks.separation("u", "v") is None
        assert two_tasks.out_edges("u") == []

    def test_rollback_restores_tightened_edges(self, two_tasks):
        two_tasks.add_edge("u", "v", 2, tag="user")
        token = two_tasks.checkpoint()
        two_tasks.add_edge("u", "v", 8, tag="delay")
        two_tasks.rollback(token)
        assert two_tasks.separation("u", "v") == 2
        assert two_tasks.edge_tag("u", "v") == "user"

    def test_rollback_restores_removed_edges(self, two_tasks):
        two_tasks.add_edge("u", "v", 2)
        token = two_tasks.checkpoint()
        two_tasks.remove_edge("u", "v")
        two_tasks.rollback(token)
        assert two_tasks.separation("u", "v") == 2
        assert [e.dst for e in two_tasks.out_edges("u")] == ["v"]

    def test_remove_then_readd_rolls_back_cleanly(self, two_tasks):
        two_tasks.add_edge("u", "v", 9)
        token = two_tasks.checkpoint()
        two_tasks.remove_edge("u", "v")
        two_tasks.add_edge("u", "v", 3)
        two_tasks.rollback(token)
        assert two_tasks.separation("u", "v") == 9

    def test_nested_checkpoints(self, two_tasks):
        outer = two_tasks.checkpoint()
        two_tasks.add_edge("u", "v", 1)
        inner = two_tasks.checkpoint()
        two_tasks.add_edge("v", "u", -5)
        two_tasks.rollback(inner)
        assert two_tasks.separation("u", "v") == 1
        assert two_tasks.separation("v", "u") is None
        two_tasks.rollback(outer)
        assert two_tasks.separation("u", "v") is None

    def test_invalid_token_rejected(self, two_tasks):
        with pytest.raises(GraphError):
            two_tasks.rollback(999)


class TestCopyMerge:
    def test_copy_is_independent(self, two_tasks):
        two_tasks.add_edge("u", "v", 4)
        clone = two_tasks.copy()
        clone.add_edge("v", "u", -9)
        assert two_tasks.separation("v", "u") is None
        assert clone.separation("u", "v") == 4

    def test_copy_preserves_resources(self):
        g = ConstraintGraph()
        g.declare_resource(Resource(name="cpu", idle_power=2.0))
        g.new_task("t", duration=1, resource="cpu")
        assert g.copy().resources["cpu"].idle_power == 2.0

    def test_merge_with_prefix(self, two_tasks):
        other = ConstraintGraph("other")
        other.new_task("x", duration=2, power=1.0, resource="R")
        other.add_release("x", 7)
        two_tasks.merge(other, prefix="it2_")
        assert "it2_x" in two_tasks
        assert two_tasks.separation(ANCHOR_NAME, "it2_x") == 7

    def test_strip_tags(self, two_tasks):
        two_tasks.add_edge("u", "v", 1, tag="delay")
        two_tasks.add_edge("v", "u", -9, tag="user")
        assert two_tasks.strip_tags(["delay"]) == 1
        assert two_tasks.separation("u", "v") is None
        assert two_tasks.separation("v", "u") == -9
        # a one-shot iterable must strip every matching edge, not just
        # the edges checked before it ran out
        two_tasks.add_edge("u", "v", 2, tag="delay")
        two_tasks.add_release("u", 3, tag="delay")
        assert two_tasks.strip_tags(t for t in ["delay"]) == 2
        assert two_tasks.separation("u", "v") is None
        assert two_tasks.separation(ANCHOR_NAME, "u") is None
        assert two_tasks.separation("v", "u") == -9
