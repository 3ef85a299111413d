"""The async solve server: JSON-over-HTTP front-end to the engine.

One :class:`SolveServer` owns one event loop's worth of state: a
listening socket (``asyncio.start_server`` — pure stdlib), a
:class:`~repro.serving.batching.Batcher` feeding a shared
:class:`~repro.engine.runner.BatchRunner` (result cache and, when
enabled, validity-range schedule store attached), a bounded job
registry, and a :class:`~repro.obs.metrics.MetricsRegistry` exported at
``/metrics`` in Prometheus text form.

Endpoints (the authoritative, conformance-tested reference is
``docs/serving.md``):

=========================== ========================================
``POST /v1/solve``          synchronous: one problem, one (or a few)
                            points; the response carries the solved
                            rows
``POST /v1/sweep``          asynchronous: returns ``202`` with a job
                            id immediately
``GET /v1/jobs/{id}``       job status / results document
``GET /v1/jobs/{id}/events`` NDJSON progress stream
                            (``repro-serve-events`` v1)
``DELETE /v1/jobs/{id}``    cancel a queued or running job
``GET /healthz``            liveness + queue depths
``GET /metrics``            Prometheus text exposition
``GET /v1/debug/requests``  the flight recorder: the last K request
                            records plus every slow/errored one
``GET /v1/debug/trace/{t}`` one stitched distributed trace — the
                            request span(s) of trace id ``t`` with
                            their engine/scheduler span forests
``POST /v1/sessions``       open an online mission session
                            (``repro-session-request`` v1)
``POST /v1/sessions/{id}/events`` apply a batch of arrival / advance /
                            fault / quiesce commands; the response is
                            a ``repro-session-event`` v1 NDJSON
                            stream of admit/reject/commit/replan
                            events (``docs/online.md``)
``GET /v1/sessions/{id}``   session status document
``DELETE /v1/sessions/{id}`` close a session
=========================== ========================================

Observability: every request either carries a W3C-style
``traceparent`` header or gets a freshly minted trace id; the id
correlates the access-log event (:data:`repro.obs.LOG`), the
per-endpoint latency histogram exemplar on ``/metrics``, the flight
recorder record, and — for solve/sweep work — the engine run spans the
batcher attributes back to the submission.  ``docs/observability.md``
walks the whole pipeline.

Shutdown is a *drain*: :meth:`SolveServer.shutdown` stops admission
(new solve/sweep requests get ``503 shutting_down``), runs every
already-accepted job to completion, optionally writes the server trace
document, and only then closes the socket.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import Counter, deque
from dataclasses import dataclass, field

from ..engine import BatchRunner, RunnerConfig, ScheduleStore
from .. import files
from ..errors import ReproError
from ..io.requests import (RequestError, error_envelope,
                           response_envelope, solve_request_from_dict)
from ..io.requests import (DEBUG_REQUESTS_FORMAT,
                           DEBUG_REQUESTS_VERSION, DEBUG_TRACE_FORMAT,
                           DEBUG_TRACE_VERSION, EVENTS_FORMAT,
                           EVENTS_VERSION, SESSION_EVENT_FORMAT,
                           SESSION_EVENT_VERSION,
                           session_commands_from_dict,
                           session_request_from_dict)
from ..online import MissionSession, SessionConfig
from ..scheduling.base import SchedulerOptions
from ..obs import LOG
from .batching import Batcher, Submission
from .protocol import (DEFAULT_MAX_BODY, HttpRequest, HttpService,
                       Route, send_ndjson_line, start_ndjson,
                       write_json)

__all__ = ["ServingConfig", "SolveServer"]

#: Finished submissions kept in the job registry for later
#: ``GET /v1/jobs/{id}`` lookups; the oldest are evicted beyond this.
JOB_RETENTION = 1024

#: Mission sessions kept in the registry; closed sessions are evicted
#: oldest-first beyond this (live sessions are never evicted).
SESSION_RETENTION = 256


@dataclass
class ServingConfig:
    """Everything an operator tunes on a solve server.

    Attributes
    ----------
    host / port:
        Listening address.  Port ``0`` binds an ephemeral port
        (``SolveServer.port`` reports the actual one).
    max_batch:
        Most solve jobs dispatched as one engine batch.  A batch
        leaves as soon as the engine is free; requests that queue
        while it runs share the next one (:mod:`~repro.serving.batching`).
    queue_limit:
        Bound on undispatched queued jobs; admission beyond it is
        rejected with ``queue_full`` (HTTP 429).
    workers:
        Worker processes for the underlying engine batch (``0`` =
        solve in the server process).
    reuse_schedules / reuse_policy / store_path:
        Attach the validity-range schedule store (paper Section 5.3)
        so covered points are served without re-solving;
        ``store_path`` additionally loads the store at startup and
        writes it back on shutdown.
    store_url:
        Base URL of a shared schedule-store service
        (``repro-schedule store-serve``); implies
        ``reuse_schedules`` and swaps the private store for a
        :class:`~repro.serving.store_client.RemoteScheduleStore`, so
        validity-range hits are shared across every instance pointed
        at the same service (``docs/scaling.md``).
    session_ttl_s:
        When set, a background sweep closes and evicts mission
        sessions idle for at least this many seconds (the
        ``session.evicted`` metric counts them; ``docs/online.md``).
    max_body:
        Request body cap, bytes (``payload_too_large`` beyond it).
    trace_path:
        When set, shutdown writes a ``repro-serve-trace`` JSON
        document (metrics snapshot + per-job summaries) here.
    flight_recorder / slow_ms:
        Flight-recorder sizing: the last ``flight_recorder`` request
        records are always retained, and a second same-sized ring
        keeps every request that errored or took at least ``slow_ms``
        milliseconds (``GET /v1/debug/requests`` shows both).
    log_path:
        When set, the server enables the process-wide structured
        event log (:data:`repro.obs.LOG`) on this JSONL file at
        startup and closes it on shutdown.

    The server always runs its engine with span capture on, so
    ``GET /v1/debug/trace/{trace_id}`` can show scheduler-stage spans
    under each request.  ``max_batch`` and ``queue_limit`` below 1 are
    a :class:`~repro.errors.ReproError`.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_batch: int = 16
    queue_limit: int = 256
    workers: int = 0
    reuse_schedules: bool = False
    reuse_policy: str = "identical"
    store_path: "str | None" = None
    store_url: "str | None" = None
    session_ttl_s: "float | None" = None
    max_body: int = DEFAULT_MAX_BODY
    trace_path: "str | None" = None
    flight_recorder: int = 64
    slow_ms: float = 1000.0
    log_path: "str | None" = None

    def __post_init__(self) -> None:
        for name in ("max_batch", "queue_limit"):
            value = getattr(self, name)
            if value < 1:
                raise ReproError(f"{name} must be >= 1, got {value}")


@dataclass
class _SessionEntry:
    """One live mission session plus its serialization lock."""

    id: str
    session: MissionSession
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    opened_unix: float = field(default_factory=time.time)
    #: Last time any request touched this session; the idle-TTL
    #: eviction sweep (``--session-ttl``) keys off it.
    last_active_unix: float = field(default_factory=time.time)

    def touch(self) -> None:
        self.last_active_unix = time.time()

    def status_doc(self) -> "dict":
        """The ``GET /v1/sessions/{id}`` body."""
        engine = self.session
        doc = {
            "session": self.id,
            "scheduler": engine.config.scheduler,
            "p_max": engine.config.p_max,
            "p_min": engine.config.p_min,
            "now": engine.now,
            "admitted": list(engine.admitted),
            "committed": dict(engine.committed),
            "rejected": [name for name, _ in engine.rejected],
            "events": len(engine.events),
            "solves": engine.solves,
        }
        if engine.schedule is not None:
            doc["makespan"] = engine.schedule.makespan
            doc["starts"] = engine.schedule.as_dict()
        return doc


class SolveServer(HttpService):
    """Serve solve requests over HTTP; see the module docstring."""

    routes = (
        Route("/healthz", "GET", "healthz", "_get_health"),
        Route("/metrics", "GET", "metrics", "_get_metrics"),
        Route("/v1/solve", "POST", "v1.solve", "_handle_solve"),
        Route("/v1/sweep", "POST", "v1.sweep", "_handle_sweep"),
        Route("/v1/debug/requests", "GET", "v1.debug.requests",
              "_debug_requests"),
        Route("/v1/debug/trace/{}", "GET", "v1.debug.trace",
              "_debug_trace"),
        Route("/v1/sessions", "POST", "v1.sessions", "_open_session"),
        Route("/v1/sessions/{}", "GET", "v1.sessions.id",
              "_session_status"),
        Route("/v1/sessions/{}", "DELETE", "v1.sessions.id",
              "_close_session"),
        Route("/v1/sessions/{}/events", "POST", "v1.sessions.events",
              "_session_events"),
        Route("/v1/jobs/{}", "GET", "v1.jobs", "_job_status"),
        Route("/v1/jobs/{}", "DELETE", "v1.jobs", "_cancel_job"),
        Route("/v1/jobs/{}/events", "GET", "v1.jobs.events",
              "_stream_events"),
    )
    span_name = "serving.request"
    requests_metric = "serving.http.requests"
    errors_metric = "serving.http.errors"
    latency_prefix = "serving.latency"
    access_event = "http.access"
    start_event = "server.start"
    stop_event = "server.stop"

    def __init__(self, config: "ServingConfig | None" = None,
                 runner: "BatchRunner | None" = None):
        super().__init__(config or ServingConfig())
        if runner is not None:
            self.runner = runner
        else:
            store = None
            if self.config.store_url:
                from .store_client import RemoteScheduleStore
                store = RemoteScheduleStore(
                    self.config.store_url,
                    policy=self.config.reuse_policy)
            elif self.config.store_path \
                    and os.path.exists(self.config.store_path):
                store = ScheduleStore.read(
                    self.config.store_path,
                    policy=self.config.reuse_policy)
            elif self.config.reuse_schedules or self.config.store_path:
                store = ScheduleStore(policy=self.config.reuse_policy)
            self.runner = BatchRunner(
                RunnerConfig(workers=self.config.workers,
                             instrument=True),
                store=store)
        self.batcher = Batcher(self.runner, self.config, self.metrics)
        self.jobs: "dict[str, Submission]" = {}
        self._job_counter = 0
        #: Online mission sessions (``POST /v1/sessions``); each entry
        #: pairs the engine with an asyncio lock so command batches on
        #: one session serialize while distinct sessions run freely.
        self.sessions: "dict[str, _SessionEntry]" = {}
        self._session_counter = 0
        capacity = max(1, self.config.flight_recorder)
        #: Flight recorder: the last ``capacity`` requests, and every
        #: slow/errored request, each as a small JSON-able record.
        self.recent: "deque[dict]" = deque(maxlen=capacity)
        self.notable: "deque[dict]" = deque(maxlen=capacity)
        #: Records in either ring naming each job.  Only the debug
        #: trace reads a job's span forest, and only through these
        #: records, so the forest goes when the last one leaves.
        self._ring_refs: "Counter[str]" = Counter()

    # -- service hooks -------------------------------------------------

    def _start_fields(self) -> "dict":
        return {"host": self.config.host,
                "workers": self.config.workers}

    async def _on_start(self) -> None:
        """Start the dispatch loop and the session sweep."""
        self.batcher.start()
        if getattr(self.runner.store, "remote", False):
            # Warm the local cache from the shared store so this
            # instance starts with every entry its siblings already
            # paid for (best-effort: a dead service costs hit rate,
            # never startup).
            pulled = await asyncio.to_thread(self.runner.store.pull)
            if LOG.enabled:
                LOG.emit("store.pull", pulled=pulled,
                         url=self.runner.store.store_url)
        if self.config.session_ttl_s:
            self._tasks.append(asyncio.ensure_future(
                self._session_gc_loop()))

    async def _on_stop(self) -> "dict":
        """Drain: finish accepted jobs, then persist state."""
        await self.batcher.drain()
        if getattr(self.runner.store, "remote", False):
            # Last push so the shared store keeps entries this
            # instance solved after its final batch sync.
            await asyncio.to_thread(self.runner.store.sync)
        if self.config.store_path and self.runner.store is not None:
            self.runner.store.write(self.config.store_path)
        if self.config.trace_path:
            self.write_trace(self.config.trace_path)
        return {"batches": self.batcher.batches}

    def _health_doc(self) -> "dict":
        live = [s for s in self.jobs.values()
                if s.status in ("queued", "running")]
        return {
            "status": "draining" if self.batcher.draining else "ok",
            "draining": self.batcher.draining,
            "queued_jobs": self.batcher.queued_jobs,
            "live_submissions": len(live),
            "batches": self.batcher.batches,
        }

    async def _session_gc_loop(self) -> None:
        """Close and evict mission sessions idle past the TTL.

        The sweep runs every ``ttl / 4`` (bounded to [50 ms, 30 s]);
        a session whose lock is held (a command batch is running) is
        never considered idle, and already-closed sessions are evicted
        by the same idleness rule so the registry cannot pin dead
        state for ``SESSION_RETENTION``-scale lifetimes.
        """
        ttl = self.config.session_ttl_s
        interval = max(0.05, min(ttl / 4.0, 30.0))
        while True:
            await asyncio.sleep(interval)
            cutoff = time.time() - ttl
            expired = [entry for entry in self.sessions.values()
                       if not entry.lock.locked()
                       and entry.last_active_unix <= cutoff]
            for entry in expired:
                entry.session.close()
                del self.sessions[entry.id]
                self.metrics.counter("session.evicted").inc()
                if LOG.enabled:
                    LOG.emit("session.evicted", session=entry.id,
                             idle_s=round(
                                 time.time()
                                 - entry.last_active_unix, 3))
            if expired:
                self.metrics.gauge("session.live").set(
                    sum(1 for e in self.sessions.values()
                        if not e.session.closed))

    def write_trace(self, path: str) -> None:
        """The ``repro-serve-trace`` v1 document: metrics + jobs."""
        doc = {
            "format": "repro-serve-trace",
            "version": 1,
            "started_unix": round(self.started_unix, 3),
            "batches": self.batcher.batches,
            "metrics": self.metrics.snapshot(),
            "jobs": [
                {"job": submission.id, "status": submission.status,
                 "points": len(submission.points),
                 "elapsed_ms": submission.elapsed_ms()}
                for submission in self.jobs.values()],
        }
        files.write_json(path, doc)

    # -- submission plumbing -------------------------------------------

    def _admit(self, request: HttpRequest) -> Submission:
        """Parse, validate, and enqueue one solve/sweep request."""
        parsed = solve_request_from_dict(request.json())
        self._job_counter += 1
        submission = Submission(f"j-{self._job_counter:06d}", parsed,
                                asyncio.get_running_loop())
        # The request's distributed-trace identity rides on the
        # submission so the batcher can attribute engine spans back to
        # it (and run single-submission batches under this trace id).
        submission.trace_id = request.trace_id
        submission.parent_span_id = request.parent_span_id
        submission.request_span_id = request.span_id
        self.batcher.submit(submission)  # may raise 429/503
        self.jobs[submission.id] = submission
        request.job_id = submission.id
        self.metrics.counter("serving.jobs.accepted").inc()
        self.metrics.histogram("serving.job.points") \
            .observe(len(submission.points))
        while len(self.jobs) > JOB_RETENTION:
            oldest = next(iter(self.jobs))
            if self.jobs[oldest].status in ("done", "cancelled",
                                            "error"):
                del self.jobs[oldest]
            else:
                break
        return submission

    # -- flight recorder -----------------------------------------------

    def _record(self, request: HttpRequest, status: int,
                latency_ms: float, error_code: "str | None") -> "dict":
        """Keep the request in the flight-recorder rings; the access
        log carries its job and session ids."""
        record = {
            "at_unix": round(time.time(), 3),
            "method": request.method,
            "path": request.path,
            "endpoint": request.endpoint,
            "status": status,
            "latency_ms": latency_ms,
            "trace_id": request.trace_id,
            "span_id": request.span_id,
        }
        if request.parent_span_id:
            record["parent_span_id"] = request.parent_span_id
        if request.job_id:
            record["job"] = request.job_id
        if request.session_id:
            record["session"] = request.session_id
        if error_code:
            record["error"] = error_code
        self._ring_append(self.recent, record)
        if error_code or status >= 400 \
                or latency_ms >= self.config.slow_ms:
            self._ring_append(self.notable, record)
        return {key: record[key] for key in ("job", "session")
                if key in record}

    def _ring_append(self, ring: "deque[dict]", record: dict) -> None:
        """Append to a flight-recorder ring; a job that no record left
        in either ring names drops its span forest."""
        if "job" in record:
            self._ring_refs[record["job"]] += 1
        evicted = ring[0].get("job") if len(ring) == ring.maxlen \
            else None
        ring.append(record)
        if evicted is None:
            return
        self._ring_refs[evicted] -= 1
        if not self._ring_refs[evicted]:
            del self._ring_refs[evicted]
            submission = self.jobs.get(evicted)
            if submission is not None:
                submission.spans = None

    async def _debug_requests(self, request: HttpRequest,
                              writer) -> None:
        """``GET /v1/debug/requests``: both rings, newest first."""
        write_json(writer, 200, {
            "format": DEBUG_REQUESTS_FORMAT,
            "version": DEBUG_REQUESTS_VERSION,
            "capacity": self.recent.maxlen,
            "slow_ms": self.config.slow_ms,
            "requests": list(reversed(self.recent)),
            "notable": list(reversed(self.notable)),
        })

    async def _debug_trace(self, request: HttpRequest, writer,
                           trace_id: str) -> None:
        """``GET /v1/debug/trace/{id}``: assemble one stitched trace.

        Every recorded request span of the trace, oldest first, each
        carrying the engine span forest the batcher attributed to its
        submission (so a remote-backend solve shows
        client -> server -> engine.run -> engine.job -> sched.* in one
        tree).  ``not_found`` when the recorder holds no such trace.
        """
        records: "dict[str, dict]" = {}
        for record in list(self.recent) + list(self.notable):
            if record.get("trace_id") == trace_id:
                records[record["span_id"]] = record
        if not records:
            raise RequestError(
                "not_found",
                f"flight recorder holds no requests for trace "
                f"{trace_id!r}")
        spans = []
        for record in sorted(records.values(),
                             key=lambda rec: rec["at_unix"]):
            attr_keys = ("method", "path", "status", "trace_id",
                         "span_id", "parent_span_id", "job")
            span_doc = {
                "name": "serving.request",
                "start": 0.0,
                "duration": round(record["latency_ms"] / 1000.0, 6),
                "attrs": {key: record[key] for key in attr_keys
                          if key in record},
                "children": [],
            }
            submission = self.jobs.get(record.get("job") or "")
            if submission is not None:
                span_doc["children"] = [
                    dict(doc) for doc in submission.spans or []]
            spans.append(span_doc)
        write_json(writer, 200, {
            "format": DEBUG_TRACE_FORMAT,
            "version": DEBUG_TRACE_VERSION,
            "trace_id": trace_id,
            "spans": spans,
        })

    async def _handle_solve(self, request: HttpRequest,
                            writer) -> None:
        """``POST /v1/solve``: admit, await completion, answer."""
        submission = self._admit(request)
        timeout = None
        if submission.deadline is not None:
            timeout = max(0.0, submission.deadline
                          - asyncio.get_running_loop().time())
        try:
            await asyncio.wait_for(submission.done.wait(), timeout)
        except asyncio.TimeoutError:
            submission.expire()
        if submission.status == "done":
            self.metrics.histogram("serving.solve.seconds").observe(
                submission.elapsed_ms() / 1000.0)
            write_json(writer, 200, submission.to_response())
            return
        error = submission.error or RequestError(
            "internal", f"job ended as {submission.status}")
        doc = error_envelope(error)
        doc["job"] = submission.id
        self.metrics.counter("serving.http.errors").inc()
        write_json(writer, error.http_status, doc)

    async def _handle_sweep(self, request: HttpRequest,
                            writer) -> None:
        """``POST /v1/sweep``: admit and answer ``202`` at once."""
        submission = self._admit(request)
        write_json(writer, 202, submission.to_response())

    def _job(self, request: HttpRequest, job_id: str) -> Submission:
        submission = self.jobs.get(job_id)
        if submission is None:
            raise RequestError("not_found", f"unknown job {job_id!r}")
        request.job_id = submission.id
        return submission

    async def _job_status(self, request: HttpRequest, writer,
                          job_id: str) -> None:
        write_json(writer, 200,
                   self._job(request, job_id).to_response())

    async def _cancel_job(self, request: HttpRequest, writer,
                          job_id: str) -> None:
        submission = self._job(request, job_id)
        if submission.cancel():
            self.metrics.counter("serving.jobs.cancelled").inc()
        write_json(writer, 200, submission.to_response())

    async def _stream_events(self, request: HttpRequest, writer,
                             job_id: str) -> None:
        """``GET /v1/jobs/{id}/events``: replay + live-tail NDJSON."""
        submission = self._job(request, job_id)
        start_ndjson(writer, 200)
        send_ndjson_line(writer, {
            "format": EVENTS_FORMAT, "version": EVENTS_VERSION,
            "job": submission.id, "status": submission.status,
        })
        cursor = 0
        while True:
            limit = await submission.wait_events(cursor)
            for event in submission.events[cursor:limit]:
                send_ndjson_line(writer, {"job": submission.id,
                                          **event})
            cursor = limit
            try:
                await writer.drain()
            except Exception:  # noqa: BLE001 - client hung up
                return
            if submission.done.is_set() \
                    and cursor >= len(submission.events):
                return

    # -- mission sessions ----------------------------------------------

    async def _open_session(self, request: HttpRequest,
                            writer) -> None:
        """``POST /v1/sessions``: validate, register, acknowledge."""
        if self.batcher.draining:
            raise RequestError("shutting_down",
                               "server is draining; no new sessions")
        parsed = session_request_from_dict(request.json())
        options = SchedulerOptions(seed=parsed.seed) \
            if parsed.seed is not None else None
        try:
            config = SessionConfig(
                p_max=parsed.p_max, p_min=parsed.p_min,
                baseline=parsed.baseline, scheduler=parsed.scheduler,
                options=options, name=parsed.name)
            engine = MissionSession(config)
        except ReproError as exc:
            raise RequestError("bad_request", str(exc)) from exc
        self._session_counter += 1
        entry = _SessionEntry(f"s-{self._session_counter:06d}", engine)
        self.sessions[entry.id] = entry
        request.session_id = entry.id
        self.metrics.counter("session.opened").inc()
        self.metrics.gauge("session.live").set(
            sum(1 for e in self.sessions.values()
                if not e.session.closed))
        while len(self.sessions) > SESSION_RETENTION:
            evictable = [sid for sid, e in self.sessions.items()
                         if e.session.closed]
            if not evictable:
                break
            del self.sessions[evictable[0]]
        write_json(writer, 200, response_envelope(
            "open", session=entry.id, scheduler=parsed.scheduler,
            p_max=parsed.p_max, p_min=parsed.p_min, now=0))

    def _session_entry(self, request: HttpRequest,
                       session_id: str) -> _SessionEntry:
        entry = self.sessions.get(session_id)
        if entry is None:
            raise RequestError("not_found",
                               f"unknown session {session_id!r}")
        entry.touch()
        request.session_id = entry.id
        return entry

    async def _session_status(self, request: HttpRequest, writer,
                              session_id: str) -> None:
        entry = self._session_entry(request, session_id)
        # Snapshot under the session lock: a command batch may be
        # mutating the engine in an executor thread right now, and
        # iterating its dicts mid-mutation would tear the document.
        async with entry.lock:
            status = "closed" if entry.session.closed else "open"
            doc = entry.status_doc()
        write_json(writer, 200, response_envelope(status, **doc))

    async def _close_session(self, request: HttpRequest, writer,
                             session_id: str) -> None:
        entry = self._session_entry(request, session_id)
        async with entry.lock:
            was_open = not entry.session.closed
            entry.session.close()
            doc = entry.status_doc()
        if was_open:
            self.metrics.counter("session.closed").inc()
            self.metrics.gauge("session.live").set(
                sum(1 for e in self.sessions.values()
                    if not e.session.closed))
        write_json(writer, 200, response_envelope("closed", **doc))

    async def _session_events(self, request: HttpRequest, writer,
                              session_id: str) -> None:
        """``POST /v1/sessions/{id}/events``: apply a command batch,
        streaming the session events each command produced as
        ``repro-session-event`` v1 NDJSON lines.

        The stream is: one header line, the event records in order
        (each stamped with the session id), and a terminal
        ``{"event": "end"}`` record carrying ``ok`` plus counts — so a
        stream without its ``end`` line is known-truncated.  A command
        that is *rejected by the mission* (infeasible arrival) is a
        normal ``reject`` event; a command the session cannot process
        at all (unknown task in a fault, clock moved backward, closed
        session) terminates the stream with an ``error`` record but
        leaves prior commands' effects in place.
        """
        entry = self._session_entry(request, session_id)
        commands = session_commands_from_dict(request.json())
        engine = entry.session
        loop = asyncio.get_running_loop()
        start_ndjson(writer, 200)
        send_ndjson_line(writer, {
            "format": SESSION_EVENT_FORMAT,
            "version": SESSION_EVENT_VERSION,
            "session": entry.id, "now": engine.now,
            "commands": len(commands),
        })
        sent = 0
        ok = True
        async with entry.lock:
            for command in commands:
                self.metrics.counter("session.commands").inc()
                try:
                    # Solves are CPU work; keep the loop responsive.
                    events = await loop.run_in_executor(
                        None, engine.apply, command)
                except ReproError as exc:
                    ok = False
                    self.metrics.counter("session.errors").inc()
                    send_ndjson_line(writer, {
                        "session": entry.id, "event": "error",
                        "code": "bad_request", "message": str(exc)})
                    break
                for event in events:
                    kind = event.get("event")
                    if kind in ("admit", "reject", "commit",
                                "replan"):
                        self.metrics.counter(
                            f"session.{kind}s").inc()
                    send_ndjson_line(writer, {"session": entry.id,
                                              **event})
                    sent += 1
                try:
                    await writer.drain()
                except Exception:  # noqa: BLE001 - client hung up
                    return
        entry.touch()  # a long batch should not read as idle time
        send_ndjson_line(writer, {
            "session": entry.id, "event": "end", "ok": ok,
            "now": engine.now, "events": sent,
            "admitted": len(engine.admitted),
            "rejected": len(engine.rejected),
        })
