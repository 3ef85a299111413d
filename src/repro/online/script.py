"""Recorded arrival scripts: serialize, replay, derive from problems.

A *session script* is the offline artifact of an online mission — the
session configuration plus the ordered command stream (arrivals, clock
advances, faults, the final quiesce).  Scripts are what the ``session``
CLI verb replays, what the CI smoke job drives through a live server,
and what the differential suite uses to feed an offline problem into a
session one arrival at a time.

Wire shape: ``repro-session-script`` v1 (see ``docs/formats.md``); the
validation lives in :func:`repro.io.requests.session_script_from_dict`
so the CLI, server, and tests agree on one parser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.graph import ConstraintGraph
from ..core.problem import SchedulingProblem
from ..core.task import ANCHOR_NAME
from ..errors import ReproError, SerializationError
from ..files import read_json
from ..scheduling.base import SchedulerOptions
from .session import (SESSION_SCHEDULERS, MissionSession, SessionConfig,
                      apply_constraint)

__all__ = [
    "SessionScript",
    "arrivals_from_problem",
    "load_script",
    "problem_from_script",
    "replay_script",
    "script_from_problem",
]


@dataclass
class SessionScript:
    """A session configuration plus its ordered command stream."""

    p_max: float
    p_min: float = 0.0
    baseline: float = 0.0
    scheduler: str = "min_power"
    seed: int = 2001
    name: str = "mission"
    commands: "list[dict[str, Any]]" = field(default_factory=list)

    def config(self) -> SessionConfig:
        return SessionConfig(p_max=self.p_max, p_min=self.p_min,
                             baseline=self.baseline,
                             scheduler=self.scheduler,
                             options=SchedulerOptions(seed=self.seed),
                             name=self.name)

    def to_dict(self) -> "dict[str, Any]":
        # Stamped with the reader's own pair, so the two cannot drift;
        # imported here so that importing repro.online loads no repro.io.
        from ..io.requests import (SESSION_SCRIPT_FORMAT,
                                   SESSION_SCRIPT_VERSION)
        return {
            "format": SESSION_SCRIPT_FORMAT,
            "version": SESSION_SCRIPT_VERSION,
            "session": {
                "p_max": self.p_max,
                "p_min": self.p_min,
                "baseline": self.baseline,
                "scheduler": self.scheduler,
                "seed": self.seed,
                "name": self.name,
            },
            "commands": [dict(c) for c in self.commands],
        }

    @classmethod
    def from_dict(cls, doc: "Mapping[str, Any]") -> "SessionScript":
        # One parser for everyone: the io layer validates, we adapt.
        from ..io.requests import RequestError, session_script_from_dict
        try:
            return session_script_from_dict(doc)
        except RequestError as exc:
            raise SerializationError(
                f"bad session script: {exc.message}") from exc


def load_script(path: str) -> SessionScript:
    """Read a ``repro-session-script`` v1 JSON file."""
    return read_json(path, SessionScript.from_dict)


def replay_script(script: SessionScript) \
        -> "tuple[MissionSession, list[dict[str, Any]]]":
    """Run every command of ``script`` through a fresh local session.

    Returns the finished session and the full event journal (the same
    records a live server would have streamed as
    ``repro-session-event`` v1 lines).
    """
    session = MissionSession(script.config())
    for command in script.commands:
        session.apply(command)
    return session, list(session.events)


def problem_from_script(script: SessionScript,
                        admitted: "list[str] | None" = None) \
        -> SchedulingProblem:
    """Rebuild the offline problem a script's arrivals imply.

    With ``admitted`` the graph is restricted to those tasks — exactly
    the constraint set a live session holds after rejections, since a
    rejected arrival was tried on a copy and never reached the session
    graph, and an admitted arrival can only constrain already-admitted
    tasks.  This is what
    lets ``repro-schedule session --check --server`` run the power/time
    validators *client-side* against the starts a remote server
    reported (nominal durations only, so it is not applicable to
    scripts that inject faults).
    """
    keep = None if admitted is None else set(admitted)
    graph = ConstraintGraph(script.name)
    for command in script.commands:
        if command.get("event") != "arrival":
            continue
        task = command["task"]
        name = task["name"]
        if keep is not None and name not in keep:
            continue
        graph.new_task(name, duration=task["duration"],
                       power=task.get("power", 0.0),
                       resource=task.get("resource"))
        for record in command.get("constraints", ()):
            apply_constraint(graph, name, record)
    return SchedulingProblem(graph=graph, p_max=script.p_max,
                             p_min=script.p_min,
                             baseline=script.baseline,
                             name=script.name)


def arrivals_from_problem(problem: SchedulingProblem,
                          order: "list[str] | None" = None,
                          quiesce: bool = True) \
        -> "list[dict[str, Any]]":
    """Decompose an offline problem into an arrival command stream.

    Each task of ``problem`` becomes one ``arrival`` command carrying
    every constraint edge whose *other* endpoint has already arrived —
    so replaying the commands in order rebuilds exactly the offline
    constraint graph, edge for edge.  Anchor edges travel as
    ``release`` (forward) / ``deadline`` (backward) records when they
    bind the arriving task, and min/max separations are emitted in the
    paper's user-facing orientation (``max`` with a positive window
    rather than a raw negative back edge).

    ``order`` defaults to graph insertion order; any permutation that
    is closed under "both endpoints present" still reconstructs the
    same graph, which is what the arrival-order property tests lean on.
    With ``quiesce`` (default) a final ``quiesce`` command is appended,
    making the stream a complete quiescence-theorem probe.
    """
    graph = problem.graph
    names = order if order is not None else graph.task_names()
    unknown = [n for n in names if n not in graph]
    if unknown:
        raise ReproError(f"order names unknown task(s) {unknown}")
    if sorted(names) != sorted(graph.task_names()):
        raise ReproError("order must be a permutation of the "
                         "problem's task names")
    commands: "list[dict[str, Any]]" = []
    arrived: "set[str]" = set()
    for name in names:
        task = graph.task(name)
        constraints: "list[dict[str, Any]]" = []
        for edge in graph.edges():
            endpoints = {edge.src, edge.dst} - {ANCHOR_NAME}
            if name not in endpoints:
                continue
            if not endpoints <= (arrived | {name}):
                continue
            if edge.src == ANCHOR_NAME:
                # endpoints == {edge.dst} == {name}: a release edge.
                constraints.append(
                    {"kind": "release", "time": edge.weight})
            elif edge.dst == ANCHOR_NAME:
                # endpoints == {edge.src} == {name}: a start deadline.
                constraints.append(
                    {"kind": "deadline", "time": -edge.weight})
            elif edge.weight >= 0:
                constraints.append(
                    {"kind": "min", "src": edge.src,
                     "dst": edge.dst, "sep": edge.weight})
            else:
                constraints.append(
                    {"kind": "max", "src": edge.dst,
                     "dst": edge.src, "sep": -edge.weight})
        record: "dict[str, Any]" = {"name": name,
                                    "duration": task.duration}
        if task.power:
            record["power"] = task.power
        if task.resource is not None:
            record["resource"] = task.resource
        commands.append({"event": "arrival", "task": record,
                         "constraints": constraints})
        arrived.add(name)
    if quiesce:
        commands.append({"event": "quiesce"})
    return commands


def script_from_problem(problem: SchedulingProblem,
                        scheduler: str = "min_power",
                        seed: int = 2001,
                        order: "list[str] | None" = None,
                        quiesce: bool = True) -> SessionScript:
    """A complete quiescence-probe script for an offline problem."""
    if scheduler not in SESSION_SCHEDULERS:
        raise ReproError(f"unknown scheduler {scheduler!r}")
    return SessionScript(
        p_max=problem.p_max, p_min=problem.p_min,
        baseline=problem.baseline, scheduler=scheduler, seed=seed,
        name=problem.name or "mission",
        commands=arrivals_from_problem(problem, order=order,
                                       quiesce=quiesce))
