"""Mission sessions over the wire (``/v1/sessions``).

The serving acceptance criteria of the online layer:

* a served session replay is **bit-identical** to a local
  :func:`repro.online.replay_script` of the same script — same events,
  same starts, same energy;
* mission rejections are normal stream events while protocol failures
  are in-stream ``error`` records, and the terminal ``end`` line makes
  truncation detectable;
* session requests round-trip with trace-context propagation and are
  visible in the flight recorder (``/v1/debug/requests``) and the
  metrics registry;
* **doc conformance**: every JSON/NDJSON example in ``docs/online.md``
  is replayed against a live server, in document order, and must
  match; ``docs/formats.md`` documents every session wire schema at
  its current version.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.examples_data import fig1_problem
from repro.io.requests import (SESSION_COMMANDS_FORMAT,
                               SESSION_COMMANDS_VERSION,
                               SESSION_EVENT_FORMAT,
                               SESSION_EVENT_VERSION,
                               SESSION_REQUEST_FORMAT,
                               SESSION_REQUEST_VERSION,
                               SESSION_SCRIPT_FORMAT,
                               SESSION_SCRIPT_VERSION)
from repro.online import SessionScript, replay_script, script_from_problem
from repro.serving import ServingConfig, ServingError
from tests.test_serving import (LiveServer, _assert_like_doc,
                                _parse_doc_examples)

DOC_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                        "online.md")
FORMATS_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                            "docs", "formats.md")


def open_fig1_session(client, script):
    ack = client.open_session(
        p_max=script.p_max, p_min=script.p_min,
        baseline=script.baseline, scheduler=script.scheduler,
        seed=script.seed, name=script.name)
    assert ack["status"] == "open"
    return ack["session"]


# ---------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------


def test_served_session_is_bit_identical_to_local_replay():
    script = script_from_problem(fig1_problem(), seed=2001)
    local, local_events = replay_script(script)
    with LiveServer() as live:
        session_id = open_fig1_session(live.client, script)
        stream = live.client.session_apply(session_id,
                                           script.commands)
        status = live.client.session(session_id)

    # The stream is: header, the session events (each stamped with the
    # session id), terminal end.  Strip the stamps and the framing and
    # it must equal the local journal minus its `open` record (the
    # server emitted that during POST /v1/sessions).
    header, *events, end = stream
    assert header["format"] == SESSION_EVENT_FORMAT
    assert header["version"] == SESSION_EVENT_VERSION
    assert end["event"] == "end" and end["ok"] is True
    served = []
    for record in events:
        record = dict(record)
        assert record.pop("session") == session_id
        served.append(record)
    assert served == [e for e in local_events
                      if e["event"] != "open"]

    assert status["starts"] == local.schedule.as_dict()
    assert status["makespan"] == local.schedule.makespan
    assert status["admitted"] == list(local.admitted)
    [quiesced] = [e for e in served if e["event"] == "quiesce"]
    assert quiesced["energy_cost"] == local.result.energy_cost
    assert quiesced["peak_power"] == local.result.metrics.peak_power


#: A fault on a task still running at the fault tick: ``drill`` runs
#: [0, 4) as planned, overruns by 3 and is still running at tick 3, so
#: the replan holds it (and ``arm``) until 7 and pushes ``sample``.
FAULT_SCRIPT = {
    "format": SESSION_SCRIPT_FORMAT, "version": SESSION_SCRIPT_VERSION,
    "session": {"p_max": 10.0, "seed": 7, "name": "fault-probe"},
    "commands": [
        {"event": "arrival", "task": {"name": "drill", "duration": 4,
                                      "power": 6.0, "resource": "arm"}},
        {"event": "arrival", "task": {"name": "heat", "duration": 3,
                                      "power": 3.0}},
        {"event": "arrival", "task": {"name": "sample", "duration": 2,
                                      "power": 5.0, "resource": "arm"},
         "constraints": [{"kind": "precedence", "src": "drill"}]},
        {"event": "advance", "to": 2},
        {"event": "fault", "overruns": {"drill": 3}, "at": 3},
        {"event": "arrival", "task": {"name": "radio", "duration": 2,
                                      "power": 4.0},
         "constraints": [{"kind": "precedence", "src": "sample"}]},
        {"event": "quiesce"},
    ],
}


def test_served_fault_stream_matches_local_replay():
    script = SessionScript.from_dict(FAULT_SCRIPT)
    local, local_events = replay_script(script)
    assert local.spans["drill"] == (0, 7)        # stretched, not (0, 4)
    assert local.schedule.start("sample") == 7
    with LiveServer() as live:
        session_id = open_fig1_session(live.client, script)
        stream = live.client.session_apply(session_id,
                                           script.commands)
    header, *events, end = stream
    assert header["format"] == SESSION_EVENT_FORMAT
    assert end["event"] == "end" and end["ok"] is True
    served = [{key: value for key, value in record.items()
               if key != "session"} for record in events]
    assert [e["event"] for e in served].count("replan") == 1
    assert served == [e for e in local_events
                      if e["event"] != "open"]


def test_mission_rejection_is_a_normal_stream_event():
    with LiveServer() as live:
        ack = live.client.open_session(p_max=5.0, seed=7)
        session_id = ack["session"]
        stream = live.client.session_apply(session_id, [
            {"event": "arrival",
             "task": {"name": "ok", "duration": 2, "power": 4.0}},
            {"event": "arrival",
             "task": {"name": "hog", "duration": 2, "power": 50.0}},
        ])
    kinds = [record.get("event") for record in stream[1:]]
    assert kinds == ["admit", "reject", "end"]
    assert stream[-1]["ok"] is True
    assert stream[-1]["admitted"] == 1
    assert stream[-1]["rejected"] == 1


def test_closed_session_errors_in_stream():
    with LiveServer() as live:
        ack = live.client.open_session(p_max=10.0)
        session_id = ack["session"]
        closed = live.client.close_session(session_id)
        assert closed["status"] == "closed"
        stream = list(live.client.session_send(session_id, [
            {"event": "arrival",
             "task": {"name": "late", "duration": 1}},
        ]))
    kinds = [record.get("event") for record in stream[1:]]
    assert kinds == ["error", "end"]
    assert stream[1]["code"] == "bad_request"
    assert stream[-1]["ok"] is False


def test_error_mid_batch_keeps_prior_commands():
    with LiveServer() as live:
        ack = live.client.open_session(p_max=10.0)
        session_id = ack["session"]
        stream = list(live.client.session_send(session_id, [
            {"event": "arrival",
             "task": {"name": "a", "duration": 2, "power": 1.0}},
            {"event": "fault", "overruns": {"ghost": 1}},
            {"event": "arrival",
             "task": {"name": "never", "duration": 1}},
        ]))
        status = live.client.session(session_id)
    kinds = [record.get("event") for record in stream[1:]]
    assert kinds == ["admit", "error", "end"]
    assert status["admitted"] == ["a"]       # first command stuck
    assert "never" not in status["admitted"]  # third never ran


def test_unknown_session_is_not_found():
    with LiveServer() as live:
        with pytest.raises(ServingError) as excinfo:
            live.client.session("s-999999")
        assert excinfo.value.code == "not_found"
        assert excinfo.value.http_status == 404


def test_newer_session_request_version_is_rejected():
    with LiveServer() as live:
        status, doc = live.client.request("POST", "/v1/sessions", {
            "format": SESSION_REQUEST_FORMAT,
            "version": SESSION_REQUEST_VERSION + 1,
            "p_max": 9.0,
        })
    assert status == 400
    assert doc["error"]["code"] == "unsupported_version"


def test_empty_command_batch_is_rejected():
    with LiveServer() as live:
        ack = live.client.open_session(p_max=9.0)
        status, doc = live.client.request(
            "POST", f"/v1/sessions/{ack['session']}/events",
            {"format": SESSION_COMMANDS_FORMAT,
             "version": SESSION_COMMANDS_VERSION, "commands": []})
    assert status == 400
    assert doc["error"]["code"] == "bad_request"


# ---------------------------------------------------------------------
# observability: flight recorder, trace propagation, metrics
# ---------------------------------------------------------------------


def test_session_requests_reach_flight_recorder_with_trace():
    with LiveServer() as live:
        client = live.client
        ack = client.open_session(p_max=9.0, name="obs")
        session_id = ack["session"]
        client.session_apply(session_id, [
            {"event": "arrival",
             "task": {"name": "a", "duration": 2, "power": 1.0}},
            {"event": "quiesce"},
        ])
        client.session(session_id)
        debug = client.debug_requests()
    records = [record for record in debug["requests"]
               if record.get("session") == session_id]
    endpoints = {record["endpoint"] for record in records}
    assert endpoints == {"v1.sessions", "v1.sessions.events",
                         "v1.sessions.id"}
    trace_id = client.trace_context[0]
    for record in records:
        assert record["trace_id"] == trace_id, \
            "session requests must join the client's trace"
        assert record["parent_span_id"], \
            "client span ids must arrive via the traceparent header"
        assert record["status"] == 200


def test_session_metrics_are_exported():
    with LiveServer() as live:
        ack = live.client.open_session(p_max=5.0)
        live.client.session_apply(ack["session"], [
            {"event": "arrival",
             "task": {"name": "a", "duration": 2, "power": 4.0}},
            {"event": "arrival",
             "task": {"name": "hog", "duration": 2, "power": 50.0}},
            {"event": "advance", "to": 3},
        ])
        live.client.close_session(ack["session"])
        status, text = live.client.request("GET", "/metrics")
    assert status == 200
    samples = dict(
        line.split(" ", 1) for line in text.splitlines()
        if line and not line.startswith("#"))
    assert float(samples["repro_session_opened"]) >= 1
    assert float(samples["repro_session_closed"]) >= 1
    assert float(samples["repro_session_admits"]) >= 1
    assert float(samples["repro_session_rejects"]) >= 1
    assert float(samples["repro_session_commits"]) >= 1
    assert float(samples["repro_session_live"]) == 0


# ---------------------------------------------------------------------
# doc conformance: replay every example in docs/online.md
# ---------------------------------------------------------------------


def test_doc_conformance_replay():
    """Replay every example in docs/online.md against a live server.

    Examples are replayed in document order on a fresh server
    (``ServingConfig(port=0)``, as the doc states), so session ids,
    event sequence numbers, and solved values are deterministic.
    """
    with open(DOC_PATH, encoding="utf-8") as handle:
        text = handle.read()
    examples = list(_parse_doc_examples(text))
    assert len(examples) >= 6, "doc lost its examples?"
    paths = {path for _m, path, *_rest in examples}
    assert "/v1/sessions" in paths
    assert any(path.endswith("/events") for path in paths)

    with LiveServer(ServingConfig(port=0)) as live:
        for method, path, body, status, language, block in examples:
            where = f"{method} {path} -> {status}"
            if language == "ndjson":
                expected = [json.loads(line) for line in block if line]
                session_id = path.split("/")[3]
                actual = list(live.client.session_send(
                    session_id, body["commands"]))
                _assert_like_doc(expected, actual, where)
            else:
                got_status, got_doc = live.client.request(
                    method, path, body)
                assert got_status == status, where
                expected = json.loads("\n".join(block))
                _assert_like_doc(expected, got_doc, where)


def test_formats_doc_covers_session_schemas():
    """docs/formats.md documents every session wire format at the
    version the code stamps."""
    with open(FORMATS_PATH, encoding="utf-8") as handle:
        text = handle.read()
    for name, version in [
            (SESSION_REQUEST_FORMAT, SESSION_REQUEST_VERSION),
            (SESSION_COMMANDS_FORMAT, SESSION_COMMANDS_VERSION),
            (SESSION_EVENT_FORMAT, SESSION_EVENT_VERSION),
            (SESSION_SCRIPT_FORMAT, SESSION_SCRIPT_VERSION)]:
        assert f"`{name}`, version {version}" in text, \
            f"formats.md is missing {name} v{version}"


def test_online_doc_names_every_event_kind():
    """The doc's event-kind enumeration stays complete."""
    with open(DOC_PATH, encoding="utf-8") as handle:
        text = handle.read()
    for kind in ("open", "admit", "reject", "commit", "replan",
                 "quiesce", "close", "error", "end"):
        assert f"`{kind}`" in text, f"doc never mentions {kind!r}"
