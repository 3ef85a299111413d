"""Recording sessions are private to the context that opened them.

Two bugs this pins, both from one shared recorder state:

* two threads capturing at once restored each other's state out of
  order, and ``OBS.enabled`` stayed ``True`` for the rest of the
  process;
* while the server's engine thread held a capture open, request spans
  opened on the event-loop thread landed in it, under ``engine.job``.
"""

from __future__ import annotations

import threading

from repro.obs import OBS
from repro.serving import ServingClient, ServingConfig
from repro.workloads import RandomWorkloadConfig, random_problem
from tests.test_serving import LiveServer


def test_threads_capture_privately_and_exit_out_of_order():
    """``first`` opens its capture before ``second`` and closes it
    before ``second`` does: not the nesting order a shared state could
    survive."""
    both_open = threading.Barrier(2, timeout=10)
    first_entered = threading.Event()
    first_closed = threading.Event()
    captures = {}

    def record(name: str) -> None:
        with OBS.span(name):
            OBS.metrics.counter(f"{name}.count").inc()
            OBS.event(f"{name}.event")
            both_open.wait()
            if name == "second":
                first_closed.wait(10)

    def first() -> None:
        with OBS.capture() as cap:
            first_entered.set()
            record("first")
        captures["first"] = cap
        first_closed.set()

    def second() -> None:
        first_entered.wait(10)
        with OBS.capture() as cap:
            record("second")
        captures["second"] = cap

    threads = [threading.Thread(target=first),
               threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(20)
    assert not any(thread.is_alive() for thread in threads)

    for name, cap in captures.items():
        [root] = cap.spans
        assert root.name == name and not root.children
        assert [evt["name"] for evt in root.events] == [f"{name}.event"]
        assert cap.metrics_data["counters"] == {f"{name}.count": 1}
    assert set(captures) == {"first", "second"}
    assert not OBS.enabled
    assert OBS.collect() == []


def _names_below(span_doc: dict, below: bool = False) -> "list[str]":
    """Names of every span in ``span_doc``'s subtree that sits under an
    ``engine.job`` span."""
    names = [span_doc["name"]] if below else []
    below = below or span_doc["name"] == "engine.job"
    for child in span_doc.get("children", []):
        names.extend(_names_below(child, below))
    return names


def test_served_sweep_trace_holds_no_concurrent_request_spans():
    """A ``/healthz`` poller runs while a 10-point sweep of the 28-task
    problem solves: its request spans stay out of the sweep's engine
    captures."""
    problem = random_problem(11, RandomWorkloadConfig(
        tasks=28, resources=4, layers=5))
    points = [(round(problem.p_max * budget, 2),
               round(problem.p_max * level, 2))
              for budget in (0.8, 0.9, 1.0, 1.2, 1.5)
              for level in (0.1, 0.3)]
    with LiveServer(ServingConfig(port=0, flight_recorder=1024)) as live:
        poller = ServingClient(live.url)
        stop = threading.Event()
        polls = []

        def poll() -> None:
            while not stop.is_set():
                polls.append(poller.healthz())

        thread = threading.Thread(target=poll)
        thread.start()
        try:
            ack = live.client.sweep(problem, points=points)
            status = live.client.wait(ack["job"])
        finally:
            stop.set()
            thread.join(10)
        trace = live.client.debug_trace(live.client.trace_context[0])

    assert status["status"] == "done"
    assert polls
    # Every request of the client's trace carries the job's engine
    # spans; the sweep's own POST is enough.
    below = [name for span_doc in trace["spans"]
             if span_doc["attrs"]["path"] == "/v1/sweep"
             for name in _names_below(span_doc)]
    assert below.count("sched.pipeline") == len(points)
    assert "serving.request" not in below
