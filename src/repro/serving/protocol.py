"""Minimal HTTP/1.1 over asyncio streams — the serving wire layer.

The front-end speaks a deliberately small subset of HTTP/1.1, enough
for the documented API (``docs/serving.md``) and nothing more:

* request bodies must carry ``Content-Length`` (chunked uploads are
  rejected as ``bad_request``);
* every response closes the connection (``Connection: close``), so
  there is no keep-alive or pipelining state to get wrong — clients
  open one connection per request, which the stdlib ``http.client``
  does naturally;
* responses are either a complete JSON document (``Content-Length``
  set) or an NDJSON stream (no length; the closing connection
  delimits the stream).

Parsing is size-capped everywhere (request line, header block, body)
so a misbehaving client costs bounded memory.  All failures surface as
:class:`~repro.io.requests.RequestError` values carrying the
documented machine-readable error code.

:class:`HttpService` is the one connection loop and lifecycle the
solve server, the router and the store service share: each declares a
route table of :class:`Route` entries, its metric and log names, and
its start, stop and health hooks.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..io.requests import RequestError
from ..obs import (LOG, TRACEPARENT_HEADER, MetricsRegistry,
                   new_span_id, new_trace_id, parse_traceparent,
                   prometheus_text, reset_trace_context,
                   set_trace_context, span)

__all__ = ["HttpRequest", "HttpService", "Route", "read_request",
           "write_json", "write_error", "start_ndjson",
           "send_ndjson_line", "MAX_HEADER_BYTES", "DEFAULT_MAX_BODY"]

#: Cap on the request line + header block, bytes.
MAX_HEADER_BYTES = 16 * 1024
#: Default cap on a request body, bytes (a problem document of
#: thousands of tasks fits comfortably).
DEFAULT_MAX_BODY = 4 * 1024 * 1024

_STATUS_PHRASES = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class HttpRequest:
    """One parsed request: method, split path, headers, raw body.

    :class:`HttpService` fills in the rest while it handles the
    request: the adopted or minted trace identity, the route's latency
    label, and the job or session id a handler resolved.
    """

    method: str
    path: str
    headers: "dict[str, str]" = field(default_factory=dict)
    body: bytes = b""
    trace_id: str = ""
    span_id: str = ""
    parent_span_id: "str | None" = None
    endpoint: str = "other"
    job_id: "str | None" = None
    session_id: "str | None" = None

    def json(self) -> Any:
        """The body as JSON; ``bad_request`` on a parse failure."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise RequestError("bad_request",
                               f"body is not valid JSON: {exc}") \
                from exc


async def read_request(reader,
                       max_body: int = DEFAULT_MAX_BODY) \
        -> "HttpRequest | None":
    """Parse one HTTP request off ``reader``.

    Returns ``None`` when the client closed the connection before
    sending anything; raises :class:`RequestError` for anything
    malformed or over-size.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except Exception as exc:  # IncompleteRead, LimitOverrun, reset
        name = type(exc).__name__
        if name == "IncompleteReadError" and not exc.partial:
            return None
        if name == "LimitOverrunError":
            raise RequestError("payload_too_large",
                               "header block exceeds the size cap") \
                from exc
        return None
    if len(head) > MAX_HEADER_BYTES:
        raise RequestError("payload_too_large",
                           "header block exceeds the size cap")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise RequestError("bad_request",
                           f"malformed request line: {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    path = target.split("?", 1)[0]
    headers: "dict[str, str]" = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise RequestError("bad_request",
                               f"malformed header line: {line!r}")
        name, value = line.split(":", 1)
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding"):
        raise RequestError(
            "bad_request",
            "chunked request bodies are not supported; "
            "send Content-Length")
    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError as exc:
            raise RequestError(
                "bad_request",
                f"invalid Content-Length: {length_header!r}") from exc
        if length < 0:
            raise RequestError("bad_request",
                               f"invalid Content-Length: {length}")
        if length > max_body:
            raise RequestError(
                "payload_too_large",
                f"body of {length} bytes exceeds the "
                f"{max_body}-byte cap")
        if length:
            try:
                body = await reader.readexactly(length)
            except Exception:  # noqa: BLE001 - client went away
                return None
    return HttpRequest(method=method, path=path, headers=headers,
                       body=body)


def _head(status: int, content_type: str,
          length: "int | None") -> bytes:
    phrase = _STATUS_PHRASES.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {phrase}",
             f"Content-Type: {content_type}",
             "Connection: close"]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def write_json(writer, status: int,
               document: "Mapping[str, Any]") -> None:
    """Send a complete JSON response (does not close the writer)."""
    payload = (json.dumps(document, sort_keys=False) + "\n") \
        .encode("utf-8")
    writer.write(_head(status, "application/json", len(payload)))
    writer.write(payload)
    writer.last_status = status


def write_text(writer, status: int, text: str,
               content_type: str = "text/plain; version=0.0.4") \
        -> None:
    """Send a complete plain-text response (e.g. ``/metrics``)."""
    payload = text.encode("utf-8")
    writer.write(_head(status, content_type, len(payload)))
    writer.write(payload)
    writer.last_status = status


def write_error(writer, error: RequestError) -> None:
    """Send the documented error envelope for ``error``."""
    from ..io.requests import error_envelope
    write_json(writer, error.http_status, error_envelope(error))


def start_ndjson(writer, status: int = 200) -> None:
    """Open an NDJSON stream (connection-close delimited)."""
    writer.write(_head(status, "application/x-ndjson", None))
    writer.last_status = status


def send_ndjson_line(writer, record: "Mapping[str, Any]") -> None:
    """Append one NDJSON record to an open stream."""
    writer.write((json.dumps(record, sort_keys=False) + "\n")
                 .encode("utf-8"))


@dataclass(frozen=True)
class Route:
    """One entry of a service's route table.

    ``path`` is matched segment by segment; a ``{}`` segment matches
    any one non-empty segment and is passed to the handler.  ``method``
    ``None`` accepts every method.  ``label`` keys the latency
    histogram and the flight recorder; ``handler`` names an async
    method of the service, looked up on each request.
    """

    path: str
    method: "str | None"
    label: str
    handler: str

    def match(self, path: str) -> "list[str] | None":
        """The captured segments when ``path`` matches, else ``None``."""
        if "{}" not in self.path:
            return [] if path == self.path else None
        want, got = self.path.split("/"), path.split("/")
        if len(want) != len(got):
            return None
        args = []
        for pattern, segment in zip(want, got):
            if pattern == "{}" and segment:
                args.append(segment)
            elif pattern != segment:
                return None
        return args


class HttpService:
    """The connection loop and lifecycle every HTTP service shares.

    A subclass declares :attr:`routes`, the names below, and its hooks
    (:meth:`_on_start`, :meth:`_on_stop`, :meth:`_health_doc`, and
    optionally :meth:`_start_fields`, :meth:`_refresh_gauges` and
    :meth:`_record`).  Its config needs ``host``, ``port``,
    ``max_body`` and ``log_path``.  Every request is parsed, joined to
    the caller's trace (or a fresh one), routed, and answered; a
    :class:`RequestError` becomes its typed envelope and any other
    exception a ``500 internal`` one, so a handler never drops a
    connection without an answer.
    """

    routes: "tuple[Route, ...]" = ()
    #: Span around each request, request and error counters, latency
    #: histogram prefix, and structured-log events.
    span_name = requests_metric = errors_metric = latency_prefix = ""
    access_event = start_event = stop_event = ""

    def __init__(self, config):
        self.config = config
        self.metrics = MetricsRegistry()
        self.port: "int | None" = None
        self.started_unix = time.time()
        self._server: "asyncio.AbstractServer | None" = None
        self._tasks: "list[asyncio.Task]" = []
        #: Set by :meth:`shutdown` before it cancels the background
        #: loops, which check it: Python 3.11's ``asyncio.wait_for``
        #: drops a cancel that lands as its inner await completes.
        self._stopping = False
        self._owns_log = False

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Open the structured log when configured, run the start
        hook, and bind the socket."""
        self._stopping = False
        if self.config.log_path and not LOG.enabled:
            LOG.enable(path=self.config.log_path)
            self._owns_log = True
            LOG.emit(self.start_event, **self._start_fields())
        await self._on_start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host,
            self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Stop and cancel background tasks, run the stop hook, close
        the socket, and close the log this service opened."""
        self._stopping = True
        for task in self._tasks:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks = []
        stop_fields = await self._on_stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._owns_log:
            LOG.emit(self.stop_event, **stop_fields)
            LOG.disable()
            self._owns_log = False

    def _start_fields(self) -> "dict":
        """Fields of the start log event."""
        return {}

    async def _on_start(self) -> None:
        """Start hook: runs before the socket binds; background loops
        appended to ``self._tasks`` are cancelled at shutdown.  A loop
        that awaits ``asyncio.wait_for`` must also return once
        ``self._stopping`` is set."""

    async def _on_stop(self) -> "dict":
        """Stop hook: runs before the socket closes; returns the stop
        log event's fields."""
        return {}

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        t0 = time.perf_counter()
        request = None
        error_code = None
        try:
            try:
                request = await read_request(reader,
                                             self.config.max_body)
            except RequestError as exc:
                error_code = exc.code
                write_error(writer, exc)
                return
            if request is None:
                return
            # Adopt the caller's trace (W3C-style traceparent header)
            # or mint a fresh one; the request span id is what
            # downstream spans hang beneath.
            context = parse_traceparent(
                request.headers.get(TRACEPARENT_HEADER))
            if context is not None:
                request.trace_id, request.parent_span_id = context
            else:
                request.trace_id = new_trace_id()
            request.span_id = new_span_id()
            self.metrics.counter(self.requests_metric).inc()
            token = set_trace_context((request.trace_id,
                                       request.span_id))
            try:
                with span(self.span_name, method=request.method,
                          path=request.path,
                          trace_id=request.trace_id,
                          span_id=request.span_id):
                    await self._route(request, writer)
            except RequestError as exc:
                error_code = exc.code
                self.metrics.counter(self.errors_metric).inc()
                write_error(writer, exc)
            except Exception as exc:  # noqa: BLE001 - 500, not a crash
                error_code = "internal"
                self.metrics.counter(self.errors_metric).inc()
                write_error(writer, RequestError(
                    "internal", f"{type(exc).__name__}: {exc}"))
            finally:
                reset_trace_context(token)
        finally:
            if request is not None:
                self._observe(request, writer,
                              time.perf_counter() - t0, error_code)
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 - peer already gone
                pass

    async def _route(self, request: HttpRequest, writer) -> None:
        """Run the first route matching path and method.

        A route matching the path alone still sets the latency label,
        so a wrong-method request is timed under its endpoint.
        """
        allowed = []
        for route in self.routes:
            args = route.match(request.path)
            if args is None:
                continue
            request.endpoint = route.label
            if route.method in (None, request.method):
                await getattr(self, route.handler)(request, writer,
                                                   *args)
                return
            allowed.append(route.method)
        if allowed:
            raise RequestError(
                "method_not_allowed",
                f"use {' or '.join(allowed)} for this endpoint, "
                f"not {request.method}")
        raise RequestError("not_found",
                           f"no route for {request.path!r}")

    # -- shared endpoints ----------------------------------------------

    async def _get_health(self, request: HttpRequest, writer) -> None:
        write_json(writer, 200, self._health_doc())

    async def _get_metrics(self, request: HttpRequest, writer) -> None:
        self._refresh_gauges()
        write_text(writer, 200,
                   prometheus_text(self.metrics.snapshot()))

    def _health_doc(self) -> "dict":
        """Health hook: the ``GET /healthz`` body."""
        raise NotImplementedError

    def _refresh_gauges(self) -> None:
        """Set gauges that are read off live state, before a scrape."""

    # -- observability -------------------------------------------------

    def _observe(self, request: HttpRequest, writer, elapsed_s: float,
                 error_code: "str | None") -> None:
        """Record one finished request: the endpoint's latency
        histogram (this trace id as exemplar candidate), the service's
        :meth:`_record` hook, and the access log."""
        status = getattr(writer, "last_status", 200)
        self.metrics.histogram(
            f"{self.latency_prefix}.{request.endpoint}.seconds") \
            .observe(elapsed_s, trace_id=request.trace_id)
        latency_ms = round(elapsed_s * 1000.0, 3)
        extra = self._record(request, status, latency_ms, error_code)
        if LOG.enabled:
            LOG.emit(self.access_event, trace_id=request.trace_id,
                     span_id=request.span_id, method=request.method,
                     path=request.path, status=status,
                     latency_ms=latency_ms, **extra)

    def _record(self, request: HttpRequest, status: int,
                latency_ms: float, error_code: "str | None") -> "dict":
        """Keep a finished request; returns the access event's fields
        beyond the common ones."""
        return {"error": error_code} if error_code else {}
