"""Wire schemas for the solve-serving front-end.

Two versioned JSON documents connect a client to a
:class:`repro.serving.server.SolveServer`:

* ``repro-solve-request`` (version 2) — one workload (an embedded
  ``repro-problem`` document) plus the power environment(s) to solve it
  under: either a single ``(p_max, p_min)`` pair (``POST /v1/solve``)
  or a ``budgets`` x ``levels`` grid / explicit ``points`` list
  (``POST /v1/sweep``).  Version 2 adds the DVFS axis: per-task
  ``operating_points`` inside the embedded problem (a v2
  ``repro-problem``) and/or a top-level ``freq_levels`` list that
  attaches a uniform frequency ladder server-side.  Clients that use
  neither keep sending version-1 documents bit-identical to before.
* ``repro-solve-response`` (version 1) — the envelope every endpoint
  answers with: a ``status`` (``done``/``queued``/``running``/
  ``cancelled``/``error``), the solved :class:`SolvedPoint` rows when
  the job finished, and a machine-readable :class:`RequestError`
  ``{code, message}`` object otherwise.

The online mission-session API (``POST /v1/sessions``) adds four more
documents under the same conventions: ``repro-session-request`` v1
(open a session), ``repro-session-commands`` v1 (a batch of arrival /
advance / fault / quiesce commands), ``repro-session-event`` v1 (the
NDJSON stream the server answers a command batch with), and
``repro-session-script`` v1 (a recorded session — config plus command
stream — replayed by the ``session`` CLI verb and the CI smoke probe).
``docs/online.md`` is their conformance-tested reference.

Version negotiation: a request's ``version`` must be ``<=`` the
server's :data:`REQUEST_VERSION`; newer documents are rejected with the
``unsupported_version`` error code (the server can always read older
minor shapes of version 1, because every field beyond ``format``,
``version`` and ``problem`` has a default).  Responses always carry the
server's own :data:`RESPONSE_VERSION`; clients apply the mirror-image
rule.  The full wire contract — endpoints, error codes, the NDJSON
event stream — is documented (and conformance-tested) in
``docs/serving.md``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.problem import SchedulingProblem
from ..errors import ReproError
from .json_io import problem_from_dict, problem_to_dict

__all__ = ["SolveRequest", "SolvedPoint", "RequestError",
           "ERROR_CODES", "REQUEST_FORMAT", "REQUEST_VERSION",
           "RESPONSE_FORMAT", "RESPONSE_VERSION", "EVENTS_FORMAT",
           "EVENTS_VERSION", "DEBUG_REQUESTS_FORMAT",
           "DEBUG_REQUESTS_VERSION", "DEBUG_TRACE_FORMAT",
           "DEBUG_TRACE_VERSION", "solve_request_to_dict",
           "solve_request_from_dict", "response_envelope",
           "error_envelope", "SessionRequest",
           "SESSION_REQUEST_FORMAT", "SESSION_REQUEST_VERSION",
           "SESSION_COMMANDS_FORMAT", "SESSION_COMMANDS_VERSION",
           "SESSION_EVENT_FORMAT", "SESSION_EVENT_VERSION",
           "SESSION_SCRIPT_FORMAT", "SESSION_SCRIPT_VERSION",
           "session_request_to_dict", "session_request_from_dict",
           "session_command_from_dict", "session_commands_to_dict",
           "session_commands_from_dict", "session_script_from_dict",
           "StoreRequest", "STORE_REQUEST_FORMAT",
           "STORE_REQUEST_VERSION", "STORE_RESPONSE_FORMAT",
           "STORE_RESPONSE_VERSION", "STORE_OPS",
           "ROUTER_MEMBERS_FORMAT", "ROUTER_MEMBERS_VERSION",
           "store_request_to_dict", "store_request_from_dict",
           "store_response_envelope"]

#: ``format`` field of a solve request document.
REQUEST_FORMAT = "repro-solve-request"
#: Highest request schema version this library speaks.  Version 2
#: added DVFS operating points (embedded v2 problems, ``freq_levels``);
#: documents that use neither are still stamped (and accepted as)
#: version 1.
REQUEST_VERSION = 2
#: ``format`` field of a solve response document.
RESPONSE_FORMAT = "repro-solve-response"
#: Response schema version stamped on every server reply.
RESPONSE_VERSION = 1
#: ``format`` field of the NDJSON job event stream.
EVENTS_FORMAT = "repro-serve-events"
#: Event stream schema version.
EVENTS_VERSION = 1
#: ``format`` field of the flight-recorder listing
#: (``GET /v1/debug/requests``).
DEBUG_REQUESTS_FORMAT = "repro-debug-requests"
#: Flight-recorder listing schema version.
DEBUG_REQUESTS_VERSION = 1
#: ``format`` field of an assembled distributed trace
#: (``GET /v1/debug/trace/{trace_id}``).
DEBUG_TRACE_FORMAT = "repro-debug-trace"
#: Debug trace schema version.
DEBUG_TRACE_VERSION = 1
#: ``format`` field of a session-open document
#: (``POST /v1/sessions``).
SESSION_REQUEST_FORMAT = "repro-session-request"
#: Session request schema version.
SESSION_REQUEST_VERSION = 1
#: ``format`` field of a session command batch
#: (``POST /v1/sessions/{id}/events`` body).
SESSION_COMMANDS_FORMAT = "repro-session-commands"
#: Session command batch schema version.
SESSION_COMMANDS_VERSION = 1
#: ``format`` field of the session NDJSON event stream (the header
#: line of every ``POST /v1/sessions/{id}/events`` response).
SESSION_EVENT_FORMAT = "repro-session-event"
#: Session event stream schema version.
SESSION_EVENT_VERSION = 1
#: ``format`` field of a recorded arrival script
#: (``repro-schedule session``).
SESSION_SCRIPT_FORMAT = "repro-session-script"
#: Session script schema version.
SESSION_SCRIPT_VERSION = 1
#: ``format`` field of a schedule-store service request
#: (``POST /v1/store/get-range`` / ``POST /v1/store/put-delta``).
STORE_REQUEST_FORMAT = "repro-store-request"
#: Store request schema version.
STORE_REQUEST_VERSION = 1
#: ``format`` field of every schedule-store service reply.
STORE_RESPONSE_FORMAT = "repro-store-response"
#: Store response schema version.
STORE_RESPONSE_VERSION = 1
#: Operations a ``repro-store-request`` may name.
STORE_OPS = ("get-range", "put-delta")
#: ``format`` field of the router membership document
#: (``GET /v1/router/members``).
ROUTER_MEMBERS_FORMAT = "repro-router-members"
#: Router membership schema version.
ROUTER_MEMBERS_VERSION = 1

#: Machine-readable error codes, and the HTTP status each maps to.
#: ``docs/serving.md`` documents every row; the doc-conformance test
#: keeps the table and this mapping identical.
ERROR_CODES: "dict[str, int]" = {
    "bad_request": 400,
    "unsupported_version": 400,
    "not_found": 404,
    "method_not_allowed": 405,
    "payload_too_large": 413,
    "queue_full": 429,
    "internal": 500,
    "bad_gateway": 502,
    "shutting_down": 503,
    "deadline_exceeded": 504,
}


@dataclass(frozen=True)
class RequestError(Exception):
    """A rejected request: an :data:`ERROR_CODES` code + prose."""

    code: str
    message: str

    @property
    def http_status(self) -> int:
        return ERROR_CODES.get(self.code, 500)

    def to_dict(self) -> "dict[str, Any]":
        return {"code": self.code, "message": self.message}


@dataclass(frozen=True)
class SolvedPoint:
    """One solved ``(p_max, p_min)`` row of a response document.

    The numbers are exactly what a direct
    :meth:`~repro.scheduling.power_aware.PowerAwareScheduler.solve`
    of the same problem reports — serving adds transport, never
    arithmetic.
    """

    p_max: float
    p_min: float
    feasible: bool
    finish_time: "int | None" = None
    energy_cost: "float | None" = None
    utilization: "float | None" = None
    peak_power: "float | None" = None
    cached: bool = False
    reused: bool = False

    def to_dict(self) -> "dict[str, Any]":
        doc: "dict[str, Any]" = {
            "p_max": self.p_max, "p_min": self.p_min,
            "feasible": self.feasible,
        }
        if self.feasible:
            doc.update(finish_time=self.finish_time,
                       energy_cost=self.energy_cost,
                       utilization=self.utilization,
                       peak_power=self.peak_power)
        if self.cached:
            doc["cached"] = True
        if self.reused:
            doc["reused"] = True
        return doc

    @classmethod
    def from_sweep_point(cls, point, cached: bool = False,
                         reused: bool = False) -> "SolvedPoint":
        """Build from an :class:`~repro.analysis.sweep.SweepPoint`."""
        return cls(p_max=point.p_max, p_min=point.p_min,
                   feasible=point.feasible,
                   finish_time=point.finish_time,
                   energy_cost=point.energy_cost,
                   utilization=point.utilization,
                   peak_power=point.peak_power,
                   cached=cached, reused=reused)


@dataclass
class SolveRequest:
    """A parsed, validated solve request (one workload, >= 1 point)."""

    problem: SchedulingProblem
    points: "list[tuple[float, float]]"
    seed: "int | None" = None
    deadline_ms: "int | None" = None
    tags: "dict[str, Any]" = field(default_factory=dict)
    freq_levels: "tuple[float, ...]" = ()


def solve_request_to_dict(problem: SchedulingProblem,
                          p_max: "float | None" = None,
                          p_min: "float | None" = None,
                          budgets: "list[float] | None" = None,
                          levels: "list[float] | None" = None,
                          points: "list[tuple[float, float]] | None"
                          = None,
                          seed: "int | None" = None,
                          deadline_ms: "int | None" = None,
                          tags: "Mapping[str, Any] | None" = None,
                          freq_levels: "list[float] | None" = None) \
        -> "dict[str, Any]":
    """Assemble a ``repro-solve-request`` document (client side).

    Stamped with the lowest version that can express the request: 2
    only when it uses a DVFS feature (``freq_levels`` or an embedded
    problem whose tasks carry operating points), 1 otherwise — so
    pre-DVFS servers keep accepting every request that does not need
    the new axis.
    """
    problem_doc = problem_to_dict(problem)
    version = 2 if (freq_levels
                    or problem_doc.get("version", 1) >= 2) else 1
    doc: "dict[str, Any]" = {
        "format": REQUEST_FORMAT,
        "version": version,
        "problem": problem_doc,
    }
    if freq_levels:
        doc["freq_levels"] = [float(f) for f in freq_levels]
    if p_max is not None:
        doc["p_max"] = p_max
    if p_min is not None:
        doc["p_min"] = p_min
    if budgets is not None:
        doc["budgets"] = list(budgets)
    if levels is not None:
        doc["levels"] = list(levels)
    if points is not None:
        doc["points"] = [[pmax, pmin] for pmax, pmin in points]
    if seed is not None:
        doc["seed"] = seed
    if deadline_ms is not None:
        doc["deadline_ms"] = deadline_ms
    if tags:
        doc["tags"] = dict(tags)
    return doc


def _point_list(data: "Mapping[str, Any]",
                problem: SchedulingProblem) \
        -> "list[tuple[float, float]]":
    """The (p_max, p_min) pairs a request asks for.

    Priority: explicit ``points`` > ``budgets`` x ``levels`` grid >
    single ``p_max``/``p_min`` override > the problem's own pair.
    Levels are clamped to each budget so the constraint window never
    inverts (same rule as ``repro-schedule sweep``).
    """
    if "points" in data:
        rows = data["points"]
        if not isinstance(rows, (list, tuple)) or not rows \
                or not all(isinstance(row, (list, tuple))
                           and len(row) == 2 for row in rows):
            raise RequestError(
                "bad_request",
                "points must be a non-empty array of [p_max, p_min] "
                "pairs")
        return [_window(_power(p_max, "points p_max"),
                        _power(p_min, "points p_min"))
                for p_max, p_min in rows]
    if "budgets" in data or "levels" in data:
        budgets = _power_list(data.get("budgets"), "budgets",
                              problem.p_max)
        levels = _power_list(data.get("levels"), "levels",
                             problem.p_min)
        return [(b, min(lv, b)) for b in budgets for lv in levels]
    p_max = _power(data.get("p_max", problem.p_max), "p_max")
    p_min = _power(data.get("p_min", problem.p_min), "p_min")
    return [(p_max, min(p_min, p_max))]


def _power_list(raw: Any, name: str, default: float) -> "list[float]":
    """A ``budgets``/``levels`` array; absent or empty -> ``[default]``."""
    if not raw:
        return [default]
    if not isinstance(raw, (list, tuple)):
        raise RequestError("bad_request",
                           f"{name} must be an array of numbers")
    return [_power(value, name) for value in raw]


def solve_request_from_dict(data: Any) -> SolveRequest:
    """Validate and parse a request document (server side).

    Raises :class:`RequestError` — never a bare exception — so the
    server can map every rejection to its documented error code.
    """
    if not isinstance(data, Mapping):
        raise RequestError("bad_request",
                           "request body must be a JSON object")
    _check_version(data, REQUEST_FORMAT, REQUEST_VERSION)
    if "problem" not in data:
        raise RequestError("bad_request",
                           "request is missing 'problem'")
    try:
        problem = problem_from_dict(data["problem"])
    except ReproError as exc:
        raise RequestError("bad_request",
                           f"invalid problem document: {exc}") from exc
    freq_levels: "tuple[float, ...]" = ()
    if "freq_levels" in data and data["freq_levels"] is not None:
        raw = data["freq_levels"]
        if not isinstance(raw, (list, tuple)) or not raw or not all(
                isinstance(f, (int, float)) and not isinstance(f, bool)
                for f in raw):
            raise RequestError(
                "bad_request",
                "freq_levels must be a non-empty array of numbers")
        freq_levels = tuple(float(f) for f in raw)
        from ..core.dvfs import attach_ladder
        from ..errors import GraphError
        try:
            problem = attach_ladder(problem, freq_levels)
        except GraphError as exc:
            raise RequestError(
                "bad_request", f"invalid freq_levels: {exc}") from exc
    points = _point_list(data, problem)
    seed = data.get("seed")
    if seed is not None and (not isinstance(seed, int)
                             or isinstance(seed, bool)):
        raise RequestError("bad_request",
                           f"seed must be an integer, got {seed!r}")
    deadline_ms = data.get("deadline_ms")
    if deadline_ms is not None and (not isinstance(deadline_ms, int)
                                    or isinstance(deadline_ms, bool)
                                    or deadline_ms < 0):
        raise RequestError(
            "bad_request",
            f"deadline_ms must be a non-negative integer, "
            f"got {deadline_ms!r}")
    tags = data.get("tags") or {}
    if not isinstance(tags, Mapping):
        raise RequestError("bad_request", "tags must be an object")
    return SolveRequest(problem=problem, points=points, seed=seed,
                        deadline_ms=deadline_ms, tags=dict(tags),
                        freq_levels=freq_levels)


def response_envelope(status: str, **fields: Any) -> "dict[str, Any]":
    """A ``repro-solve-response`` document skeleton."""
    return {"format": RESPONSE_FORMAT, "version": RESPONSE_VERSION,
            "status": status, **fields}


def error_envelope(error: RequestError) -> "dict[str, Any]":
    """The error form of the response envelope."""
    return response_envelope("error", error=error.to_dict())


# ---------------------------------------------------------------------
# online mission sessions
# ---------------------------------------------------------------------

#: Scheduler names a session-open document may carry (mirrors
#: :data:`repro.online.session.SESSION_SCHEDULERS` without importing
#: the engine into the schema layer).
_SESSION_SCHEDULERS = ("min_power", "max_power")

#: Command kinds a ``repro-session-commands`` batch may contain.
SESSION_COMMAND_KINDS = ("arrival", "advance", "fault", "quiesce")

#: Constraint kinds an ``arrival`` command may carry.
SESSION_CONSTRAINT_KINDS = ("min", "max", "precedence", "release",
                            "deadline")

#: The fields an ``arrival`` task may carry; any other is refused.
_ARRIVAL_TASK_KEYS = ("name", "duration", "power", "resource")


@dataclass
class SessionRequest:
    """A parsed, validated session-open document."""

    p_max: float
    p_min: float = 0.0
    baseline: float = 0.0
    scheduler: str = "min_power"
    seed: "int | None" = None
    name: str = "mission"
    tags: "dict[str, Any]" = field(default_factory=dict)


def _check_version(data: "Mapping[str, Any]", expected_format: str,
                   max_version: int) -> None:
    """The wire's format/version gate, shared by every request
    document; its refusals carry the error codes the HTTP statuses
    come from."""
    if data.get("format") != expected_format:
        raise RequestError(
            "bad_request",
            f"format must be {expected_format!r}, "
            f"got {data.get('format')!r}")
    version = data.get("version")
    if not isinstance(version, int) or isinstance(version, bool) \
            or version < 1:
        raise RequestError(
            "bad_request",
            f"version must be a positive integer, got {version!r}")
    if version > max_version:
        raise RequestError(
            "unsupported_version",
            f"document version {version} is newer than this "
            f"server's {max_version}; re-send as version "
            f"{max_version}")


def _power(value: Any, name: str, default: "float | None" = None) \
        -> float:
    """A wire power value: a finite number >= 0 (``default`` when
    absent).  NaN and infinities are refused here because they pass
    every ``< 0`` check downstream."""
    if value is None and default is not None:
        return default
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not 0 <= value <= sys.float_info.max:
        raise RequestError(
            "bad_request",
            f"{name} must be a finite non-negative number, "
            f"got {value!r}")
    return float(value)


def _window(p_max: float, p_min: float) -> "tuple[float, float]":
    """An explicit ``(p_max, p_min)`` pair; refuses an inverted one."""
    if p_min > p_max:
        raise RequestError(
            "bad_request",
            f"p_min ({p_min:g}) must not exceed p_max ({p_max:g})")
    return p_max, p_min


def _nonneg_int(value: Any, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < 0:
        raise RequestError(
            "bad_request",
            f"{name} must be a non-negative integer, got {value!r}")
    return value


def session_request_to_dict(p_max: float, p_min: float = 0.0,
                            baseline: float = 0.0,
                            scheduler: str = "min_power",
                            seed: "int | None" = None,
                            name: "str | None" = None,
                            tags: "Mapping[str, Any] | None" = None) \
        -> "dict[str, Any]":
    """Assemble a ``repro-session-request`` document (client side)."""
    doc: "dict[str, Any]" = {
        "format": SESSION_REQUEST_FORMAT,
        "version": SESSION_REQUEST_VERSION,
        "p_max": p_max,
    }
    if p_min:
        doc["p_min"] = p_min
    if baseline:
        doc["baseline"] = baseline
    if scheduler != "min_power":
        doc["scheduler"] = scheduler
    if seed is not None:
        doc["seed"] = seed
    if name is not None:
        doc["name"] = name
    if tags:
        doc["tags"] = dict(tags)
    return doc


def session_request_from_dict(data: Any) -> SessionRequest:
    """Validate and parse a session-open document (server side)."""
    if not isinstance(data, Mapping):
        raise RequestError("bad_request",
                           "request body must be a JSON object")
    _check_version(data, SESSION_REQUEST_FORMAT,
                   SESSION_REQUEST_VERSION)
    if "p_max" not in data:
        raise RequestError("bad_request",
                           "session request is missing 'p_max'")
    if "freq_levels" in data:
        raise RequestError(
            "bad_request",
            "sessions take no 'freq_levels': arrivals have no DVFS "
            "operating points")
    p_max, p_min = _window(
        _power(data.get("p_max"), "p_max"),
        _power(data.get("p_min"), "p_min", default=0.0))
    baseline = _power(data.get("baseline"), "baseline", default=0.0)
    scheduler = data.get("scheduler", "min_power")
    if scheduler not in _SESSION_SCHEDULERS:
        raise RequestError(
            "bad_request",
            f"scheduler must be one of {list(_SESSION_SCHEDULERS)}, "
            f"got {scheduler!r}")
    seed = data.get("seed")
    if seed is not None and (not isinstance(seed, int)
                             or isinstance(seed, bool)):
        raise RequestError("bad_request",
                           f"seed must be an integer, got {seed!r}")
    name = data.get("name", "mission")
    if not isinstance(name, str) or not name:
        raise RequestError("bad_request",
                           f"name must be a non-empty string, "
                           f"got {name!r}")
    tags = data.get("tags") or {}
    if not isinstance(tags, Mapping):
        raise RequestError("bad_request", "tags must be an object")
    return SessionRequest(p_max=p_max, p_min=p_min, baseline=baseline,
                          scheduler=scheduler, seed=seed, name=name,
                          tags=dict(tags))


def _session_constraint_from_dict(record: Any) -> "dict[str, Any]":
    """Validate one arrival constraint record (normalized copy)."""
    if not isinstance(record, Mapping):
        raise RequestError("bad_request",
                           "constraints must be objects")
    kind = record.get("kind")
    if kind not in SESSION_CONSTRAINT_KINDS:
        raise RequestError(
            "bad_request",
            f"constraint kind must be one of "
            f"{list(SESSION_CONSTRAINT_KINDS)}, got {kind!r}")
    out: "dict[str, Any]" = {"kind": kind}
    if kind in ("min", "max"):
        for endpoint in ("src", "dst"):
            value = record.get(endpoint)
            if not isinstance(value, str) or not value:
                raise RequestError(
                    "bad_request",
                    f"{kind} constraint needs string "
                    f"src/dst, got {endpoint}={value!r}")
            out[endpoint] = value
        sep = record.get("sep")
        if not isinstance(sep, int) or isinstance(sep, bool):
            raise RequestError(
                "bad_request",
                f"{kind} constraint sep must be an integer, "
                f"got {sep!r}")
        out["sep"] = sep
    elif kind == "precedence":
        src = record.get("src")
        if not isinstance(src, str) or not src:
            raise RequestError(
                "bad_request",
                f"precedence constraint needs a string src, "
                f"got {src!r}")
        out["src"] = src
        gap = record.get("gap", 0)
        if not isinstance(gap, int) or isinstance(gap, bool) \
                or gap < 0:
            raise RequestError(
                "bad_request",
                f"precedence gap must be a non-negative integer, "
                f"got {gap!r}")
        out["gap"] = gap
    else:  # release / deadline
        out["time"] = _nonneg_int(record.get("time"),
                                  f"{kind} constraint time")
    return out


def session_command_from_dict(data: Any) -> "dict[str, Any]":
    """Validate one session command; returns a normalized copy.

    Commands are the verbs of a mission session::

        {"event": "arrival", "task": {"name", "duration", "power"?,
         "resource"?}, "constraints"?: [...], "at"?: int}
        {"event": "advance", "to": int}
        {"event": "fault", "overruns": {task: extra_ticks},
         "at"?: int}
        {"event": "quiesce"}
    """
    if not isinstance(data, Mapping):
        raise RequestError("bad_request",
                           "each command must be a JSON object")
    kind = data.get("event")
    if kind not in SESSION_COMMAND_KINDS:
        raise RequestError(
            "bad_request",
            f"command event must be one of "
            f"{list(SESSION_COMMAND_KINDS)}, got {kind!r}")
    if kind == "quiesce":
        return {"event": "quiesce"}
    if kind == "advance":
        return {"event": "advance",
                "to": _nonneg_int(data.get("to"), "advance 'to'")}
    if kind == "fault":
        overruns = data.get("overruns")
        if not isinstance(overruns, Mapping) or not overruns:
            raise RequestError(
                "bad_request",
                "fault command needs a non-empty 'overruns' object")
        normalized: "dict[str, int]" = {}
        for task, extra in overruns.items():
            if not isinstance(task, str) or not task:
                raise RequestError(
                    "bad_request",
                    f"overrun keys must be task names, got {task!r}")
            normalized[task] = _nonneg_int(
                extra, f"overrun for {task!r}")
        out = {"event": "fault", "overruns": normalized}
        if "at" in data and data["at"] is not None:
            out["at"] = _nonneg_int(data["at"], "fault 'at'")
        return out
    # arrival
    task = data.get("task")
    if not isinstance(task, Mapping):
        raise RequestError("bad_request",
                           "arrival command needs a 'task' object")
    unknown = [key for key in task if key not in _ARRIVAL_TASK_KEYS]
    if unknown:
        # A typo such as "powr" would otherwise admit a 0 W task, and
        # an "operating_points" ladder would be dropped.
        raise RequestError(
            "bad_request",
            f"arrival task takes only {list(_ARRIVAL_TASK_KEYS)}, "
            f"got unknown field(s) {unknown}")
    name = task.get("name")
    if not isinstance(name, str) or not name:
        raise RequestError(
            "bad_request",
            f"arrival task needs a non-empty string name, "
            f"got {name!r}")
    duration = task.get("duration")
    if not isinstance(duration, int) or isinstance(duration, bool) \
            or duration <= 0:
        raise RequestError(
            "bad_request",
            f"arrival task duration must be a positive integer, "
            f"got {duration!r}")
    normalized_task: "dict[str, Any]" = {"name": name,
                                         "duration": duration}
    power = _power(task.get("power", 0.0), "arrival task power")
    if power:
        normalized_task["power"] = power
    resource = task.get("resource")
    if resource is not None:
        if not isinstance(resource, str) or not resource:
            raise RequestError(
                "bad_request",
                f"arrival task resource must be a string, "
                f"got {resource!r}")
        normalized_task["resource"] = resource
    constraints = data.get("constraints", [])
    if not isinstance(constraints, (list, tuple)):
        raise RequestError("bad_request",
                           "arrival constraints must be an array")
    out = {"event": "arrival", "task": normalized_task,
           "constraints": [_session_constraint_from_dict(record)
                           for record in constraints]}
    if "at" in data and data["at"] is not None:
        out["at"] = _nonneg_int(data["at"], "arrival 'at'")
    return out


def session_commands_to_dict(commands: "list[Mapping[str, Any]]") \
        -> "dict[str, Any]":
    """Assemble a ``repro-session-commands`` batch (client side)."""
    return {"format": SESSION_COMMANDS_FORMAT,
            "version": SESSION_COMMANDS_VERSION,
            "commands": [dict(c) for c in commands]}


def session_commands_from_dict(data: Any) -> "list[dict[str, Any]]":
    """Validate a command batch (``POST /v1/sessions/{id}/events``)."""
    if not isinstance(data, Mapping):
        raise RequestError("bad_request",
                           "request body must be a JSON object")
    _check_version(data, SESSION_COMMANDS_FORMAT,
                   SESSION_COMMANDS_VERSION)
    commands = data.get("commands")
    if not isinstance(commands, (list, tuple)) or not commands:
        raise RequestError(
            "bad_request",
            "command batch needs a non-empty 'commands' array")
    return [session_command_from_dict(c) for c in commands]


def session_script_from_dict(data: Any):
    """Validate a ``repro-session-script`` document; returns a
    :class:`repro.online.script.SessionScript`."""
    from ..online.script import SessionScript
    if not isinstance(data, Mapping):
        raise RequestError("bad_request",
                           "script must be a JSON object")
    _check_version(data, SESSION_SCRIPT_FORMAT, SESSION_SCRIPT_VERSION)
    session = data.get("session")
    if not isinstance(session, Mapping):
        raise RequestError("bad_request",
                           "script needs a 'session' object")
    request = session_request_from_dict({
        "format": SESSION_REQUEST_FORMAT,
        "version": SESSION_REQUEST_VERSION,
        **session,
    })
    commands = data.get("commands")
    if not isinstance(commands, (list, tuple)):
        raise RequestError("bad_request",
                           "script needs a 'commands' array")
    parsed = [session_command_from_dict(c) for c in commands]
    seed = session.get("seed", 2001)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise RequestError("bad_request",
                           f"seed must be an integer, got {seed!r}")
    return SessionScript(p_max=request.p_max, p_min=request.p_min,
                         baseline=request.baseline,
                         scheduler=request.scheduler, seed=seed,
                         name=request.name, commands=parsed)


# ---------------------------------------------------------------------
# shared schedule-store service
# ---------------------------------------------------------------------


@dataclass
class StoreRequest:
    """A parsed, validated ``repro-store-request`` document.

    Two operations share the envelope:

    * ``get-range`` — probe the store for a schedule covering
      ``(p_max, p_min)`` under ``base_key``.  When both powers are
      omitted the request is a *prime probe*: "do you hold the
      certified timing-stage entry for this problem?", the question
      a :meth:`~repro.engine.schedule_store.ScheduleStore.ensure_primed`
      call asks before paying for a timing solve.
    * ``put-delta`` — merge a drained store journal (the
      ``{"base_key", "name", "entry"}`` records of
      :meth:`~repro.engine.schedule_store.ScheduleStore.drain_journal`)
      into the shared store.
    """

    op: str
    base_key: "str | None" = None
    p_max: "float | None" = None
    p_min: "float | None" = None
    delta: "list[dict[str, Any]]" = field(default_factory=list)


def store_request_to_dict(op: str,
                          base_key: "str | None" = None,
                          p_max: "float | None" = None,
                          p_min: "float | None" = None,
                          delta: "list[Mapping[str, Any]] | None"
                          = None) -> "dict[str, Any]":
    """Assemble a ``repro-store-request`` document (client side)."""
    doc: "dict[str, Any]" = {
        "format": STORE_REQUEST_FORMAT,
        "version": STORE_REQUEST_VERSION,
        "op": op,
    }
    if base_key is not None:
        doc["base_key"] = base_key
    if p_max is not None:
        doc["p_max"] = p_max
    if p_min is not None:
        doc["p_min"] = p_min
    if delta is not None:
        doc["delta"] = [dict(record) for record in delta]
    return doc


def store_request_from_dict(data: Any) -> StoreRequest:
    """Validate and parse a store request (service side)."""
    if not isinstance(data, Mapping):
        raise RequestError("bad_request",
                           "request body must be a JSON object")
    _check_version(data, STORE_REQUEST_FORMAT, STORE_REQUEST_VERSION)
    op = data.get("op")
    if op not in STORE_OPS:
        raise RequestError(
            "bad_request",
            f"op must be one of {list(STORE_OPS)}, got {op!r}")
    if op == "put-delta":
        delta = data.get("delta")
        if not isinstance(delta, (list, tuple)):
            raise RequestError(
                "bad_request",
                "put-delta needs a 'delta' array of journal records")
        for record in delta:
            if not isinstance(record, Mapping) \
                    or not isinstance(record.get("base_key"), str) \
                    or not isinstance(record.get("name"), str) \
                    or not isinstance(record.get("entry"), Mapping):
                raise RequestError(
                    "bad_request",
                    "each delta record needs string 'base_key' and "
                    "'name' plus an 'entry' object")
        return StoreRequest(op=op,
                            delta=[dict(record) for record in delta])
    base_key = data.get("base_key")
    if not isinstance(base_key, str) or not base_key:
        raise RequestError(
            "bad_request",
            f"get-range needs a non-empty string base_key, "
            f"got {base_key!r}")
    p_max = data.get("p_max")
    p_min = data.get("p_min")
    if (p_max is None) != (p_min is None):
        raise RequestError(
            "bad_request",
            "get-range needs both p_max and p_min, or neither "
            "(prime probe)")
    if p_max is not None:
        p_max, p_min = _window(_power(p_max, "p_max"),
                               _power(p_min, "p_min"))
    return StoreRequest(op=op, base_key=base_key,
                        p_max=p_max, p_min=p_min)


def store_response_envelope(op: str, **fields: Any) \
        -> "dict[str, Any]":
    """A ``repro-store-response`` document skeleton."""
    return {"format": STORE_RESPONSE_FORMAT,
            "version": STORE_RESPONSE_VERSION,
            "op": op, **fields}
