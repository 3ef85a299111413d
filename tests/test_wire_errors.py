"""Every malformed wire document gets a typed 4xx, never a 500.

The solve server, the router and the store service share one
connection loop (:class:`repro.serving.protocol.HttpService`).  This
suite drives that loop over raw sockets against a live store service,
one member and a router in front of it:

* the power-value probes: negative, non-finite and inverted
  ``(p_max, p_min)`` values are ``bad_request`` at parse time, not a
  ``500`` from the problem container or a silent ``NaN`` answer;
* the unknown-key probe: an embedded problem carrying a key its
  writer never writes (a ``powr`` typo) is ``bad_request`` naming it;
* the dropped-field probes: an arrival-task field a session would
  silently drop (a ``powr`` typo, an ``operating_points`` ladder) and
  ``freq_levels`` on a session are ``bad_request`` naming the field;
* a Hypothesis fuzz of malformed heads, wrong methods and unknown
  paths, and wrong-shaped JSON bodies for every POST route.  Each
  generated request is invalid by construction, so it must be answered
  with a 4xx whose ``error.code`` maps to that status; a 500 or a
  connection closed without an answer fails.
"""

from __future__ import annotations

import copy
import json
import math
import socket
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.examples_data import fig1_problem
from repro.io import problem_to_dict
from repro.io.requests import (ERROR_CODES, REQUEST_FORMAT,
                               RequestError, session_command_from_dict,
                               session_commands_to_dict,
                               session_request_from_dict,
                               session_request_to_dict,
                               session_script_from_dict,
                               store_request_to_dict)
from repro.online import script_from_problem
from repro.serving import ServingClient
from repro.serving.protocol import DEFAULT_MAX_BODY

from tests.test_scaling import ScalingStack

FIG1 = problem_to_dict(fig1_problem())
FUZZ = settings(max_examples=30, deadline=None)


@pytest.fixture(scope="module")
def stack():
    """Store service + one member + a router, with one session opened
    on the member directly and one through the router."""
    with ScalingStack(instances=1) as live:
        live.member_session = ServingClient(live.serves[0].url) \
            .open_session(12.0, p_min=2.0)["session"]
        live.router_session = ServingClient(live.router.url) \
            .open_session(12.0, p_min=2.0)["session"]
        yield live


def _port(stack, service: str) -> int:
    live = {"store": stack.store, "member": stack.serves[0],
            "router": stack.router}[service]
    return live.server.port


def _request(method: str, path: str, body: "bytes | None" = None,
             headers=()) -> bytes:
    lines = [f"{method} {path} HTTP/1.1", "Host: fuzz", *headers]
    if body is not None:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") \
        + (body or b"")


def _exchange(port: int, raw: bytes) -> "tuple[int, dict]":
    """Send one raw request; the answer's status and JSON body."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=30) as sock:
        sock.sendall(raw)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    assert data, f"connection closed without a response to {raw!r}"
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def _assert_typed_4xx(status: int, doc: dict, raw: bytes) -> None:
    assert 400 <= status < 500, (status, doc, raw[:300])
    code = doc["error"]["code"]
    assert ERROR_CODES.get(code) == status, (status, doc, raw[:300])


def _post_json(port: int, path: str, doc) -> "tuple[int, dict]":
    return _exchange(port, _request("POST", path,
                                    json.dumps(doc).encode("utf-8")))


# ---------------------------------------------------------------------
# power-value probes: each returned 500 or a NaN answer before
# ---------------------------------------------------------------------

POWER_PROBES = {
    "p_max-negative": {"p_max": -1},
    "p_min-negative": {"p_min": -1},
    "budgets-negative": {"budgets": [-1]},
    "points-negative": {"points": [[10, -5]]},
    "points-inverted": {"points": [[10, 20]]},
    "p_max-nan": {"p_max": math.nan},
    "p_max-infinity": {"p_max": math.inf},
    "p_max-minus-infinity": {"p_max": -math.inf},
}


@pytest.mark.parametrize("fields", POWER_PROBES.values(),
                         ids=POWER_PROBES)
def test_solve_power_value_is_bad_request(stack, fields):
    doc = {"format": REQUEST_FORMAT, "version": 1, "problem": FIG1,
           **fields}
    status, answer = _post_json(_port(stack, "member"), "/v1/solve",
                                doc)
    assert (status, answer["error"]["code"]) == (400, "bad_request"), \
        answer


@pytest.mark.parametrize("where", ["task", "top-level"])
def test_solve_problem_with_unknown_key_is_bad_request(stack, where):
    """A key the problem writer never writes was silently dropped (a
    ``powr`` typo solved a 0 W task); now the embedded problem is
    refused by name."""
    problem = copy.deepcopy(FIG1)
    if where == "task":
        problem["tasks"][0]["powr"] = problem["tasks"][0].pop("power")
    else:
        problem["p_mni"] = problem.pop("p_min")
    doc = {"format": REQUEST_FORMAT, "version": 1, "problem": problem}
    status, answer = _post_json(_port(stack, "member"), "/v1/solve",
                                doc)
    assert (status, answer["error"]["code"]) == (400, "bad_request"), \
        answer
    assert ("powr" if where == "task" else "p_mni") \
        in answer["error"]["message"]


def test_session_nan_p_max_is_bad_request(stack):
    status, answer = _post_json(_port(stack, "member"), "/v1/sessions",
                                session_request_to_dict(math.nan))
    assert (status, answer["error"]["code"]) == (400, "bad_request"), \
        answer


# ---------------------------------------------------------------------
# session fields the engine would silently drop are refused by name
# ---------------------------------------------------------------------

LADDER = [{"freq": 1.0}, {"freq": 0.5}]
SCRIPT = script_from_problem(fig1_problem()).to_dict()
DROPPED_FIELD_PROBES = {
    # a typo: the arrival used to become a 0 W task
    "arrival-powr": (session_command_from_dict, "powr", {
        "event": "arrival",
        "task": {"name": "a", "duration": 4, "powr": 2.0}}),
    # a DVFS ladder: sessions have none, it used to be dropped
    "arrival-operating-points": (session_command_from_dict,
                                 "operating_points", {
        "event": "arrival",
        "task": {"name": "a", "duration": 4, "power": 2.0,
                 "operating_points": LADDER}}),
    "session-freq-levels": (session_request_from_dict, "freq_levels", {
        **session_request_to_dict(12.0), "freq_levels": [1.0, 0.5]}),
    "script-freq-levels": (session_script_from_dict, "freq_levels", {
        **SCRIPT, "session": {**SCRIPT["session"],
                              "freq_levels": [1.0, 0.5]}}),
}


@pytest.mark.parametrize("probe", DROPPED_FIELD_PROBES.values(),
                         ids=DROPPED_FIELD_PROBES)
def test_session_codec_names_a_field_it_would_drop(probe):
    parse, key, doc = probe
    with pytest.raises(RequestError) as excinfo:
        parse(doc)
    assert excinfo.value.code == "bad_request"
    assert key in excinfo.value.message


# ---------------------------------------------------------------------
# fuzz: malformed heads, wrong methods, unknown paths
# ---------------------------------------------------------------------

SERVICES = ("store", "member", "router")
_TEXT = st.text(alphabet=st.characters(min_codepoint=32,
                                       max_codepoint=126), max_size=40)


def _is_request_line(line: str) -> bool:
    parts = line.split()
    return len(parts) == 3 and parts[2].startswith("HTTP/1.")


MALFORMED_HEADS = st.one_of(
    _TEXT.filter(lambda line: not _is_request_line(line))
    .map(lambda line: (line + "\r\n\r\n").encode("latin-1")),
    _TEXT.filter(lambda line: line and ":" not in line)
    .map(lambda line: _request("GET", "/healthz", headers=[line])),
    st.one_of(st.text(alphabet="abcxyz+-. ", max_size=8),
              st.integers(max_value=-1),
              st.integers(min_value=DEFAULT_MAX_BODY + 1))
    .map(lambda length: _request(
        "POST", "/v1/solve", headers=[f"Content-Length: {length}"])),
    st.just(_request("POST", "/v1/solve",
                     headers=["Transfer-Encoding: chunked"])),
)

_METHODS = st.text(alphabet=string.ascii_uppercase, min_size=1,
                   max_size=8)
_SEGMENT = st.text(alphabet=string.ascii_lowercase + string.digits
                   + "-._", max_size=10)
#: Ids no service has issued: plain, or tagged for router member m0.
_UNKNOWN_IDS = st.tuples(st.sampled_from(["x", "m0-x"]), _SEGMENT) \
    .map("".join)


@st.composite
def wrong_requests(draw, routes) -> bytes:
    """An unknown path, an unknown id, or a known path with a method
    none of its routes accepts."""
    if draw(st.booleans()):
        path = draw(st.lists(_SEGMENT, max_size=4)
                    .map(lambda segments: "/" + "/".join(segments))
                    .filter(lambda path: all(route.match(path) is None
                                             for route in routes)))
        return _request(draw(_METHODS), path)
    route = draw(st.sampled_from(routes))
    path = route.path
    while "{}" in path:
        path = path.replace("{}", draw(_UNKNOWN_IDS), 1)
    allowed = {other.method for other in routes
               if other.match(path) is not None}
    methods = _METHODS if "{}" in route.path \
        else _METHODS.filter(lambda method: method not in allowed)
    return _request(draw(methods), path)


@pytest.mark.parametrize("service", SERVICES)
@FUZZ
@given(raw=MALFORMED_HEADS)
def test_malformed_head_gets_typed_4xx(stack, service, raw):
    _assert_typed_4xx(*_exchange(_port(stack, service), raw), raw)


@pytest.mark.parametrize("service", SERVICES)
@FUZZ
@given(data=st.data())
def test_wrong_method_or_path_gets_typed_4xx(stack, service, data):
    routes = {"store": stack.store, "member": stack.serves[0],
              "router": stack.router}[service].server.routes
    raw = data.draw(wrong_requests(routes))
    _assert_typed_4xx(*_exchange(_port(stack, service), raw), raw)


# ---------------------------------------------------------------------
# fuzz: wrong-shaped JSON bodies for every POST route
# ---------------------------------------------------------------------

#: Sentinel: remove the key instead of setting it.
DROP = object()

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NEGATIVE = st.one_of(st.integers(max_value=-1),
                     st.floats(max_value=-1e-6))
BAD_POWER = st.one_of(NEGATIVE, NON_FINITE,
                      st.sampled_from(["12", True, [], {"w": 1}]))
#: Bad values for an optional non-negative integer field.
BAD_COUNT = st.one_of(st.integers(max_value=-1), NON_FINITE,
                      st.sampled_from([1.5, "3", True, []]))
BAD_FORMAT = st.sampled_from(["repro-problem", "", None, 1, DROP])
BAD_VERSION = st.one_of(st.integers(max_value=0),
                        st.integers(min_value=2),
                        st.sampled_from(["1", 1.5, True, None]))
BAD_TAGS = st.sampled_from(["x", 5, [1]])
BAD_SEED = st.sampled_from(["1", 1.5, True, math.nan])


def _with(doc, key: tuple, value):
    """A copy of ``doc`` with the field at ``key`` set to ``value``
    (removed for :data:`DROP`)."""
    doc = copy.deepcopy(doc)
    *parents, last = key
    target = doc
    for part in parents:
        target = target[part]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return doc


def _mutants(base, table) -> st.SearchStrategy:
    """Documents that differ from the valid ``base`` in one field, by a
    value the ``table`` strategy for that field draws."""
    return st.sampled_from(sorted(table)).flatmap(
        lambda key: table[key].map(lambda value: _with(base, key,
                                                       value)))


SOLVE = {"format": REQUEST_FORMAT, "version": 1, "problem": FIG1}
SOLVE_TABLE = {
    ("format",): BAD_FORMAT,
    ("version",): st.one_of(BAD_VERSION, st.just(DROP)),
    ("problem",): st.one_of(
        st.sampled_from([DROP, None, 5, "x", [], {},
                         {"format": "repro-problem"}]),
        st.one_of(NEGATIVE, st.just(math.nan))
        .map(lambda p_max: {**FIG1, "p_max": p_max})),
    ("p_max",): st.one_of(BAD_POWER, st.just(None)),
    ("p_min",): st.one_of(BAD_POWER, st.just(None)),
    ("budgets",): st.one_of(st.lists(BAD_POWER, min_size=1, max_size=3),
                            st.sampled_from(["12", 5, {"w": 1}])),
    ("levels",): st.one_of(st.lists(BAD_POWER, min_size=1, max_size=3),
                           st.sampled_from(["12", 5, {"w": 1}])),
    ("points",): st.one_of(
        BAD_POWER.map(lambda p_max: [[p_max, 4]]),
        BAD_POWER.map(lambda p_min: [[16, p_min]]),
        st.floats(min_value=16.5, max_value=1e6)
        .map(lambda p_min: [[16, p_min]]),
        st.sampled_from([None, [], [[16]], [[16, 4, 1]], [16, 4], "x",
                         5])),
    ("seed",): BAD_SEED,
    ("deadline_ms",): BAD_COUNT,
    ("tags",): BAD_TAGS,
    ("freq_levels",): st.one_of(
        st.sampled_from(["x", 5, [], {"w": 1}, [True], ["a"]]),
        st.lists(st.one_of(NEGATIVE, NON_FINITE, st.just(0),
                           st.floats(min_value=1.001, max_value=1e6)),
                 min_size=1, max_size=3)),
}

SESSION = session_request_to_dict(12.0, p_min=2.0)
SESSION_TABLE = {
    ("format",): BAD_FORMAT,
    ("version",): st.one_of(BAD_VERSION, st.just(DROP)),
    ("p_max",): st.one_of(BAD_POWER, st.sampled_from([None, DROP])),
    ("p_min",): st.one_of(BAD_POWER,
                          st.floats(min_value=12.5, max_value=1e6)),
    ("baseline",): BAD_POWER,
    ("scheduler",): st.sampled_from(["nope", 5, None]),
    ("seed",): BAD_SEED,
    ("name",): st.sampled_from(["", 5, None]),
    ("tags",): BAD_TAGS,
    ("freq_levels",): st.sampled_from([[1.0, 0.5], [1.0]]),
}

ARRIVAL = {"event": "arrival",
           "task": {"name": "t9", "duration": 2, "power": 1.0}}
BAD_CONSTRAINTS = st.sampled_from([
    "x", 5, {"w": 1}, [5], [{"kind": "nope"}],
    [{"kind": "min", "src": "", "dst": "t9", "sep": 1}],
    [{"kind": "max", "src": "t0", "dst": "t9", "sep": 1.5}],
    [{"kind": "precedence", "src": "t0", "gap": -1}],
    [{"kind": "release", "time": -1}],
    [{"kind": "deadline", "time": math.nan}],
])
BAD_COMMAND = st.one_of(
    st.sampled_from([5, "x", [], None, {}, {"event": "nope"},
                     {"event": "advance"}, {"event": "fault"},
                     {"event": "arrival"}]),
    st.one_of(BAD_COUNT, st.just(None))
    .map(lambda to: {"event": "advance", "to": to}),
    st.one_of(BAD_COUNT, st.just(None))
    .map(lambda extra: {"event": "fault", "overruns": {"t0": extra}}),
    st.sampled_from([{}, {"": 1}, "x", [], None])
    .map(lambda overruns: {"event": "fault", "overruns": overruns}),
    BAD_COUNT.map(lambda at: {"event": "fault", "overruns": {"t0": 1},
                              "at": at}),
    _mutants(ARRIVAL, {
        ("task",): st.sampled_from(["x", 5, None, [], DROP]),
        ("task", "name"): st.sampled_from(["", 5, None, DROP]),
        ("task", "duration"): st.one_of(BAD_COUNT,
                                        st.sampled_from([0, None])),
        ("task", "power"): st.one_of(BAD_POWER, st.just(None)),
        ("task", "resource"): st.sampled_from(["", 5]),
        ("task", "powr"): st.just(2.0),
        ("task", "operating_points"): st.just(LADDER),
        ("constraints",): BAD_CONSTRAINTS,
        ("at",): BAD_COUNT,
    }),
)
COMMANDS = session_commands_to_dict([{"event": "advance", "to": 1},
                                     ARRIVAL])
COMMANDS_TABLE = {
    ("format",): BAD_FORMAT,
    ("version",): st.one_of(BAD_VERSION, st.just(DROP)),
    ("commands",): st.sampled_from([DROP, None, [], "x", 5, {"w": 1}]),
    ("commands", 0): BAD_COMMAND,
    ("commands", 1): BAD_COMMAND,
}

GET_RANGE = store_request_to_dict("get-range", base_key="fuzz",
                                  p_max=12.0, p_min=4.0)
GET_RANGE_TABLE = {
    ("format",): BAD_FORMAT,
    ("version",): st.one_of(BAD_VERSION, st.just(DROP)),
    ("op",): st.sampled_from(["put-delta", "nope", None, DROP]),
    ("base_key",): st.sampled_from(["", 5, None, [], DROP]),
    ("p_max",): st.one_of(BAD_POWER, st.sampled_from([None, DROP])),
    ("p_min",): st.one_of(BAD_POWER, st.sampled_from([None, DROP]),
                          st.floats(min_value=12.5, max_value=1e6)),
}

ENTRY = {"label": "fuzz", "stage": "min_power", "starts": {"a": 0},
         "makespan": 5, "peak": 7.0, "floor": 0.0}
PUT_DELTA = store_request_to_dict(
    "put-delta", delta=[{"base_key": "fuzz", "name": "fuzz",
                         "entry": ENTRY}])
BAD_LEVEL = st.one_of(NEGATIVE, NON_FINITE,
                      st.sampled_from(["x", None, [], DROP]))
PUT_DELTA_TABLE = {
    ("format",): BAD_FORMAT,
    ("version",): st.one_of(BAD_VERSION, st.just(DROP)),
    ("op",): st.sampled_from(["get-range", "nope", None, DROP]),
    ("delta",): st.sampled_from([None, "x", 5, {"w": 1}, DROP]),
    ("delta", 0): st.sampled_from([5, "x", None, []]),
    ("delta", 0, "base_key"): st.sampled_from([5, None, [], DROP]),
    ("delta", 0, "name"): st.sampled_from([5, None, DROP]),
    ("delta", 0, "entry"): st.sampled_from(["x", 5, None, [], {},
                                            DROP]),
    ("delta", 0, "entry", "peak"): BAD_LEVEL,
    ("delta", 0, "entry", "floor"): st.one_of(
        BAD_LEVEL, st.floats(min_value=7.5, max_value=1e6)),
    ("delta", 0, "entry", "makespan"): st.one_of(
        st.integers(max_value=-1), NON_FINITE,
        st.sampled_from(["x", None, DROP])),
    ("delta", 0, "entry", "starts"): st.one_of(
        st.sampled_from(["x", 5, None, [1], DROP]),
        st.one_of(st.integers(max_value=-1), NON_FINITE)
        .map(lambda start: {"a": start})),
}

#: (service, path, valid base document, per-field bad values); the
#: session paths are filled in from the fixture's open sessions.
BODY_ROUTES = {
    "member-solve": ("member", "/v1/solve", SOLVE, SOLVE_TABLE),
    "member-sweep": ("member", "/v1/sweep", SOLVE, SOLVE_TABLE),
    "member-sessions": ("member", "/v1/sessions", SESSION,
                        SESSION_TABLE),
    "member-session-events": ("member", "member_session", COMMANDS,
                              COMMANDS_TABLE),
    "router-solve": ("router", "/v1/solve", SOLVE, SOLVE_TABLE),
    "router-sweep": ("router", "/v1/sweep", SOLVE, SOLVE_TABLE),
    "router-sessions": ("router", "/v1/sessions", SESSION,
                        SESSION_TABLE),
    "router-session-events": ("router", "router_session", COMMANDS,
                              COMMANDS_TABLE),
    "store-get-range": ("store", "/v1/store/get-range", GET_RANGE,
                        GET_RANGE_TABLE),
    "store-put-delta": ("store", "/v1/store/put-delta", PUT_DELTA,
                        PUT_DELTA_TABLE),
}


@pytest.mark.parametrize("route", BODY_ROUTES.values(),
                         ids=BODY_ROUTES)
@FUZZ
@given(data=st.data())
def test_wrong_shaped_body_gets_typed_4xx(stack, route, data):
    service, path, base, table = route
    if not path.startswith("/"):
        path = f"/v1/sessions/{getattr(stack, path)}/events"
    body = data.draw(st.one_of(
        _mutants(base, table).map(
            lambda doc: json.dumps(doc).encode("utf-8")),
        st.binary(max_size=32)))
    raw = _request("POST", path, body)
    _assert_typed_4xx(*_exchange(_port(stack, service), raw), raw)
