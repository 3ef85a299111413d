"""A tiny line-oriented DSL for writing scheduling problems by hand.

The IMPACCT framework's designers "input a system-level behavioral
specification ... and constraints on processes and the system"; this
module provides the textual front door.  Example — the rover's step
chain in four lines per concept::

    problem rover-step pmax 19 pmin 9 baseline 3.7

    resource hazard kind digital
    task detect  hazard 10 7.3
    task steer   steering 5 8.1
    task drive   driving 10 13.8

    # Table-1 style constraints
    min detect steer 10        # steering >= 10 s after detection starts
    window heat steer 5 50     # heating 5..50 s before steering
    precedence steer drive     # drive after steering completes
    release detect 0
    deadline steer 60          # start deadline

Lines are ``#``-commented, blank lines ignored.  Durations and times
are integers; powers are floats.  Statements:

==========  =======================================  =================
statement   arguments                                meaning
==========  =======================================  =================
problem     name pmax <w> [pmin <w>] [baseline <w>]  header (required)
resource    name [idle <w>] [kind <k>]               declare resource
task        name resource duration power             add a task
min         src dst sep                              min separation
max         src dst sep                              max separation
window      src dst min max                          both bounds
precedence  src dst [gap]                            end-to-start
release     task time                                earliest start
deadline    task time                                latest start
==========  =======================================  =================
"""

from __future__ import annotations

from ..core.graph import ConstraintGraph
from ..core.problem import SchedulingProblem
from ..core.resource import Resource
from ..errors import SerializationError
from ..files import read_text

__all__ = ["parse_problem", "load_problem_dsl"]


def parse_problem(text: str) -> SchedulingProblem:
    """Parse DSL text into a scheduling problem."""
    graph: "ConstraintGraph | None" = None
    header: "dict[str, float]" = {}
    name = "problem"

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0].lower()
        try:
            if keyword == "problem":
                name, header = _parse_header(tokens)
                graph = ConstraintGraph(name)
            elif graph is None:
                raise SerializationError(
                    "the first statement must be 'problem'")
            elif keyword == "resource":
                _parse_resource(graph, tokens)
            elif keyword == "task":
                graph.new_task(tokens[1], resource=tokens[2],
                               duration=int(tokens[3]),
                               power=float(tokens[4]))
            elif keyword == "min":
                graph.add_min_separation(tokens[1], tokens[2],
                                         int(tokens[3]))
            elif keyword == "max":
                graph.add_max_separation(tokens[1], tokens[2],
                                         int(tokens[3]))
            elif keyword == "window":
                graph.add_separation_window(tokens[1], tokens[2],
                                            int(tokens[3]),
                                            int(tokens[4]))
            elif keyword == "precedence":
                gap = int(tokens[3]) if len(tokens) > 3 else 0
                graph.add_precedence(tokens[1], tokens[2], gap=gap)
            elif keyword == "release":
                graph.add_release(tokens[1], int(tokens[2]))
            elif keyword == "deadline":
                graph.add_start_deadline(tokens[1], int(tokens[2]))
            else:
                raise SerializationError(
                    f"unknown statement {keyword!r}")
        except (IndexError, ValueError) as exc:
            raise SerializationError(
                f"line {lineno}: malformed {keyword!r} statement "
                f"({raw.strip()!r}): {exc}") from exc
        except SerializationError as exc:
            raise SerializationError(f"line {lineno}: {exc}") from None

    if graph is None:
        raise SerializationError("empty problem text (no 'problem' line)")
    if "pmax" not in header:
        raise SerializationError("problem header must specify pmax")
    return SchedulingProblem(
        graph=graph,
        p_max=header["pmax"],
        p_min=header.get("pmin", 0.0),
        baseline=header.get("baseline", 0.0),
        name=name)


def load_problem_dsl(path: str) -> SchedulingProblem:
    """Parse a DSL file into a scheduling problem."""
    return read_text(path, parse_problem)


def _parse_header(tokens: "list[str]") -> "tuple[str, dict[str, float]]":
    if len(tokens) < 2:
        raise SerializationError("problem statement needs a name")
    name = tokens[1]
    header: "dict[str, float]" = {}
    rest = tokens[2:]
    if len(rest) % 2 != 0:
        raise SerializationError(
            "problem header options must be key/value pairs")
    for key, value in zip(rest[::2], rest[1::2]):
        key = key.lower()
        if key not in ("pmax", "pmin", "baseline"):
            raise SerializationError(f"unknown header option {key!r}")
        header[key] = float(value)
    return name, header


def _parse_resource(graph: ConstraintGraph, tokens: "list[str]") -> None:
    name = tokens[1]
    idle = 0.0
    kind = "generic"
    rest = tokens[2:]
    if len(rest) % 2 != 0:
        raise SerializationError(
            "resource options must be key/value pairs")
    for key, value in zip(rest[::2], rest[1::2]):
        key = key.lower()
        if key == "idle":
            idle = float(value)
        elif key == "kind":
            kind = value
        else:
            raise SerializationError(f"unknown resource option {key!r}")
    graph.declare_resource(Resource(name=name, idle_power=idle,
                                    kind=kind))
