"""JSON serialization for problems, schedules, and results.

The on-disk format is a stable, versioned, human-inspectable document:

.. code-block:: json

    {
      "format": "repro-problem",
      "version": 1,
      "name": "demo",
      "p_max": 16.0, "p_min": 14.0, "baseline": 0.0,
      "resources": [{"name": "A", "idle_power": 0.0, "kind": "generic"}],
      "tasks": [{"name": "a", "duration": 5, "power": 7.0,
                 "resource": "A"}],
      "edges": [{"src": "a", "dst": "d", "weight": 5, "tag": "user"}]
    }

Only *user* edges are serialized from problems (scheduler decorations
are derived state); schedule documents carry plain start-time maps.
"""

from __future__ import annotations

from typing import Any

from ..core.graph import ConstraintGraph
from ..core.problem import SchedulingProblem
from ..core.resource import Resource
from ..core.schedule import Schedule
from ..core.task import ANCHOR_NAME, OperatingPoint
from ..errors import SerializationError
from ..files import check_envelope, read_json, typed, write_json

__all__ = ["problem_to_dict", "problem_from_dict", "save_problem",
           "load_problem", "schedule_to_dict", "schedule_from_dict",
           "save_schedule", "load_schedule"]

_PROBLEM_FORMAT = "repro-problem"
_SCHEDULE_FORMAT = "repro-schedule"
# Problem documents negotiate their version per feature: a document is
# stamped with the *lowest* version that can express it, so every
# ladder-free problem keeps writing byte-identical v1 documents that
# old readers accept, while DVFS operating-point ladders (new in v2)
# bump only the documents that actually use them — and v1-only readers
# reject those cleanly instead of silently dropping the ladder.
_PROBLEM_VERSION = 2
_SCHEDULE_VERSION = 1


def problem_to_dict(problem: SchedulingProblem,
                    include_derived_edges: bool = False) \
        -> "dict[str, Any]":
    """Serialize a problem to a plain dict.

    Ladder-free problems serialize as v1 documents, bit-identical to
    what previous releases wrote; a task with DVFS operating points
    gains an ``"operating_points"`` list and bumps the document to v2
    (see the version-negotiation note on ``_PROBLEM_VERSION``).
    """
    graph = problem.graph
    edges = []
    for edge in graph.edges():
        if not include_derived_edges and edge.tag != "user":
            continue
        edges.append({"src": edge.src, "dst": edge.dst,
                      "weight": edge.weight, "tag": edge.tag})
    tasks = []
    has_ladder = False
    for task in graph.tasks():
        doc = {"name": task.name, "duration": task.duration,
               "power": task.power, "resource": task.resource,
               "meta": dict(task.meta)}
        if task.operating_points:
            has_ladder = True
            doc["operating_points"] = [
                {"freq": point.freq, "cores": point.cores}
                for point in task.operating_points]
        tasks.append(doc)
    return {
        "format": _PROBLEM_FORMAT,
        "version": _PROBLEM_VERSION if has_ladder else 1,
        "name": problem.name,
        "p_max": problem.p_max,
        "p_min": problem.p_min,
        "baseline": problem.baseline,
        "meta": dict(problem.meta),
        "resources": [
            {"name": res.name, "idle_power": res.idle_power,
             "kind": res.kind}
            for res in graph.resources],
        "tasks": tasks,
        "edges": edges,
    }


#: The keys :func:`problem_to_dict` writes, per object; a reader that
#: met any other key would silently drop it (a typo such as ``"powr"``
#: would make a 0 W task), so :func:`problem_from_dict` refuses them.
_PROBLEM_KEYS = {
    "problem": {"format", "version", "name", "p_max", "p_min",
                "baseline", "meta", "resources", "tasks", "edges"},
    "resource": {"name", "idle_power", "kind"},
    "task": {"name", "duration", "power", "resource", "meta",
             "operating_points"},
    "operating point": {"freq", "cores"},
    "edge": {"src", "dst", "weight", "tag"},
}


def _known_keys(doc: "dict[str, Any]", what: str) -> None:
    unknown = sorted(set(doc) - _PROBLEM_KEYS[what], key=str)
    if unknown:
        raise SerializationError(
            f"{what} object has unknown key(s) {unknown}; expected "
            f"some of {sorted(_PROBLEM_KEYS[what])}")


def problem_from_dict(data: "dict[str, Any]") -> SchedulingProblem:
    """Rebuild a problem from its dict form.

    Every object may hold only the keys :func:`problem_to_dict`
    writes; any other key is a :class:`SerializationError` naming it,
    and so is a field of the wrong JSON type.
    """
    check_envelope(data, _PROBLEM_FORMAT, _PROBLEM_VERSION)
    _known_keys(data, "problem")
    try:
        graph = ConstraintGraph(typed(data.get("name", "problem"), str,
                                      "name"))
        for res in data.get("resources", []):
            _known_keys(res, "resource")
            graph.declare_resource(Resource(
                name=typed(res["name"], str, "resource name"),
                idle_power=res.get("idle_power", 0.0),
                kind=typed(res.get("kind", "generic"), str, "kind")))
        for task in data["tasks"]:
            _known_keys(task, "task")
            ladder = task.get("operating_points") or ()
            for point in ladder:
                _known_keys(point, "operating point")
            points = tuple(
                OperatingPoint(freq=point["freq"],
                               cores=point.get("cores", 1))
                for point in ladder)
            graph.new_task(task["name"], duration=task["duration"],
                           power=task.get("power", 0.0),
                           resource=typed(task.get("resource"),
                                          (str, type(None)), "resource"),
                           meta=typed(task.get("meta") or {}, dict,
                                      "task meta"),
                           operating_points=points)
        for edge in data.get("edges", []):
            _known_keys(edge, "edge")
            src = edge.get("src", ANCHOR_NAME)
            dst = edge["dst"]
            graph.add_edge(src, dst, edge["weight"],
                           tag=edge.get("tag", "user"))
        return SchedulingProblem(
            graph=graph,
            p_max=data["p_max"],
            p_min=data.get("p_min", 0.0),
            baseline=data.get("baseline", 0.0),
            name=data.get("name", graph.name),
            meta=typed(data.get("meta") or {}, dict, "meta"))
    except KeyError as exc:
        raise SerializationError(
            f"problem document is missing field {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise SerializationError(
            f"malformed problem document: {exc}") from exc


def schedule_to_dict(schedule: Schedule,
                     problem_name: str = "") -> "dict[str, Any]":
    """Serialize a schedule (start times only)."""
    return {
        "format": _SCHEDULE_FORMAT,
        "version": _SCHEDULE_VERSION,
        "problem": problem_name or schedule.graph.name,
        "makespan": schedule.makespan,
        "starts": schedule.as_dict(),
    }


def schedule_from_dict(data: "dict[str, Any]",
                       graph: ConstraintGraph) -> Schedule:
    """Rebuild a schedule against a compatible graph."""
    check_envelope(data, _SCHEDULE_FORMAT, _SCHEDULE_VERSION)
    try:
        return Schedule(graph, data["starts"])
    except KeyError as exc:
        raise SerializationError(
            f"schedule document is missing field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise SerializationError(
            f"malformed schedule document: {exc}") from exc


def save_problem(problem: SchedulingProblem, path: str) -> str:
    """Write a problem JSON file; returns the path."""
    return write_json(path, problem_to_dict(problem))


def load_problem(path: str) -> SchedulingProblem:
    """Read a problem JSON file."""
    return read_json(path, problem_from_dict)


def save_schedule(schedule: Schedule, path: str,
                  problem_name: str = "") -> str:
    """Write a schedule JSON file; returns the path."""
    return write_json(path, schedule_to_dict(schedule, problem_name))


def load_schedule(path: str, graph: ConstraintGraph) -> Schedule:
    """Read a schedule JSON file against a compatible graph."""
    return read_json(path, lambda data: schedule_from_dict(data, graph))
