"""The one re-solve rule: :func:`repro.execution.replan.freeze`.

``replan()`` and every mission-session re-solve turn executed history
into constraints through ``freeze``.  These tests pin what it writes,
and the session's admission on a candidate copy around it: a rejected
or malformed arrival never touches the session graph.
"""

from __future__ import annotations

import pytest

from repro.core.graph import ConstraintGraph
from repro.core.task import ANCHOR_NAME
from repro.errors import ReproError
from repro.execution import freeze
from repro.online import MissionSession, SessionConfig
from repro.scheduling.base import SchedulerOptions


def chain() -> ConstraintGraph:
    """``a`` (4 ticks on ``arm``) before ``b`` (on ``arm``) and, one
    tick later, before ``c``."""
    graph = ConstraintGraph("chain")
    graph.new_task("a", duration=4, power=2.0, resource="arm")
    graph.new_task("b", duration=2, power=1.0, resource="arm")
    graph.new_task("c", duration=1, power=1.0)
    graph.add_precedence("a", "b")
    graph.add_precedence("a", "c", gap=1)
    return graph


def test_a_running_overrun_is_stretched_then_locked_then_released():
    graph = chain()
    freeze(graph, {"a": (1, 8)}, now=4)   # nominal end 5, runs to 8
    assert graph.task("a").duration == 7
    assert (graph.separation("a", "b"), graph.edge_tag("a", "b")) \
        == (7, "replan")
    assert graph.separation("a", "c") == 8
    assert graph.separation(ANCHOR_NAME, "a") == 1
    assert graph.separation("a", ANCHOR_NAME) == -1
    assert graph.edge_tag(ANCHOR_NAME, "a") == "frozen"
    for name in ("b", "c"):
        assert (graph.separation(ANCHOR_NAME, name),
                graph.edge_tag(ANCHOR_NAME, name)) == (4, "replan")


def test_only_a_running_overrun_toward_unstarted_tasks_stretches():
    ended = chain()
    freeze(ended, {"a": (1, 8)}, now=9)   # the overrun is over
    assert ended.task("a").duration == 4
    assert ended.separation("a", "c") == 5
    started = chain()
    freeze(started, {"a": (1, 8), "b": (5, 7)}, now=6)
    assert started.task("a").duration == 7
    assert started.separation("a", "b") == 4   # history is not moved
    assert started.separation("a", "c") == 8
    assert started.edge_tag(ANCHOR_NAME, "b") == "frozen"


def session() -> MissionSession:
    return MissionSession(SessionConfig(
        p_max=5.0, options=SchedulerOptions(seed=7), name="freeze"))


@pytest.mark.parametrize("record, error", [
    ({"kind": "nope"}, ReproError),
    ({"kind": "min", "src": "a"}, KeyError),
], ids=["unknown-kind", "missing-sep"])
def test_a_malformed_record_raises_and_leaves_the_session(record, error):
    sess = session()
    sess.offer("a", duration=2, power=4.0)
    events, edges = len(sess.events), sess.problem().graph.edges()
    with pytest.raises(error):
        sess.offer("b", duration=2, power=1.0, constraints=[record])
    assert "b" not in sess.problem().graph
    assert sess.problem().graph.edges() == edges
    assert (len(sess.events), sess.admitted) == (events, ["a"])
    assert sess.offer("b", duration=2, power=1.0)["event"] == "admit"


def test_a_rejected_arrival_leaves_no_vertex_or_resource_behind():
    sess = session()
    sess.offer("a", duration=2, power=4.0, resource="arm")
    event = sess.offer("hog", duration=2, power=50.0, resource="radio",
                       constraints=[{"kind": "precedence", "src": "a"}])
    assert event["event"] == "reject"
    graph = sess.problem().graph
    assert "hog" not in graph
    assert [res.name for res in graph.resources] == ["arm"]
