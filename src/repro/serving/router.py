"""The front-door router: one address over N solve servers.

A :class:`Router` listens like a :class:`~repro.serving.server
.SolveServer` and forwards every request to one of its *members*
(``repro-schedule serve`` instances), so clients — including
:class:`~repro.engine.backends.remote.RemoteBackend` — scale across a
fleet without knowing its shape:

* **Balanced**: ``POST /v1/solve``, ``POST /v1/sweep`` and
  ``POST /v1/sessions`` round-robin over healthy members, reusing
  ``RemoteBackend``'s retry-and-reassignment discipline — a dead
  connection or a retryable error envelope (``queue_full``,
  ``shutting_down``, ...; :data:`~repro.engine.backends.remote
  .RETRYABLE_CODES`) moves the request to the next member, up to
  ``retries`` reassignments.  When every attempt fails at the
  connection level the router answers ``502 bad_gateway`` — itself
  retryable, so a ``RemoteBackend`` pointed at the router keeps its
  own retry budget meaningful.
* **Sticky**: job and session state lives on the member that admitted
  it, so the router *rewrites ids*: member ``i``'s ``j-000001``
  becomes ``m{i}-j-000001`` on the way out, and ``/v1/jobs/m1-...`` /
  ``/v1/sessions/m0-...`` requests are routed back to that member
  (``404 not_found`` when the prefix names no member).  NDJSON event
  streams relay live, line by line, with the same rewrite.
* **Health-gated**: a background probe polls each member's
  ``/healthz``; ``fail_threshold`` consecutive failures bench a
  member until a probe succeeds again.  ``GET /v1/router/members``
  reports the membership (``repro-router-members`` v1).

``/v1/debug/*`` is deliberately *not* proxied — flight recorders are
per-instance diagnostics; ask the member directly (``docs/scaling.md``
shows how).  The conformance-tested operator's guide is
``docs/scaling.md``.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from dataclasses import dataclass, field

from ..engine.backends.remote import RETRYABLE_CODES
from ..io.requests import (ROUTER_MEMBERS_FORMAT,
                           ROUTER_MEMBERS_VERSION, RequestError)
from ..obs import LOG, TRACEPARENT_HEADER, format_traceparent
from .protocol import (DEFAULT_MAX_BODY, HttpRequest, HttpService,
                       Route, send_ndjson_line, start_ndjson,
                       write_json)

__all__ = ["RouterConfig", "Router"]

#: Matches a router-rewritten id: ``m{member}-{upstream id}``.
_MEMBER_ID_RE = re.compile(r"^m(\d+)-(.+)$")

#: Top-level response fields that carry ids the router rewrites.
_ID_FIELDS = ("job", "session")


@dataclass
class RouterConfig:
    """Everything an operator tunes on a front-door router.

    Attributes
    ----------
    host / port:
        Listening address.  Port ``0`` binds an ephemeral port
        (``Router.port`` reports the actual one).
    members:
        Base URLs of the ``serve`` instances behind this router.
    retries:
        Reassignment budget per balanced request (a request may be
        offered to up to ``retries + 1`` members).
    timeout:
        Seconds to wait for a member connection + response head.
    health_interval_s:
        Seconds between background ``/healthz`` probes per member.
    fail_threshold:
        Consecutive probe/forward failures before a member is benched.
    max_body:
        Request body cap, bytes (``payload_too_large`` beyond it).
    log_path:
        When set, enable the process-wide structured event log
        (:data:`repro.obs.LOG`) on this JSONL file.
    """

    host: str = "127.0.0.1"
    port: int = 8081
    members: "list[str]" = field(default_factory=list)
    retries: int = 2
    timeout: float = 60.0
    health_interval_s: float = 1.0
    fail_threshold: int = 3
    max_body: int = DEFAULT_MAX_BODY
    log_path: "str | None" = None


@dataclass
class _Member:
    """One upstream ``serve`` instance and its observed health."""

    index: int
    url: str
    host: str
    port: int
    healthy: bool = True
    consecutive_failures: int = 0
    last_ok_unix: "float | None" = None
    last_error: "str | None" = None
    jobs: int = 0
    sessions: int = 0

    def to_doc(self) -> "dict":
        doc = {
            "member": f"m{self.index}",
            "url": self.url,
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
            "jobs": self.jobs,
            "sessions": self.sessions,
        }
        if self.last_ok_unix is not None:
            doc["last_ok_unix"] = round(self.last_ok_unix, 3)
        if self.last_error is not None:
            doc["last_error"] = self.last_error
        return doc


def _parse_member_url(index: int, url: str) -> _Member:
    import urllib.parse
    parsed = urllib.parse.urlparse(url)
    return _Member(index=index, url=url,
                   host=parsed.hostname or "127.0.0.1",
                   port=parsed.port or 8080)


class Router(HttpService):
    """Load-balance solve serving over N members; see module doc."""

    routes = (
        Route("/healthz", "GET", "healthz", "_get_health"),
        Route("/metrics", "GET", "metrics", "_get_metrics"),
        Route("/v1/router/members", "GET", "members", "_get_members"),
        Route("/v1/solve", "POST", "v1.solve", "_forward_balanced"),
        Route("/v1/sweep", "POST", "v1.sweep", "_forward_balanced"),
        Route("/v1/sessions", "POST", "v1.sessions",
              "_forward_balanced"),
        Route("/v1/sessions/{}", None, "v1.sessions.id",
              "_forward_sticky"),
        Route("/v1/sessions/{}/events", None, "v1.sessions.events",
              "_forward_sticky"),
        Route("/v1/jobs/{}", None, "v1.jobs", "_forward_sticky"),
        Route("/v1/jobs/{}/events", None, "v1.jobs.events",
              "_forward_sticky"),
        Route("/v1/debug/{}", None, "other", "_refuse_debug"),
        Route("/v1/debug/trace/{}", None, "other", "_refuse_debug"),
    )
    span_name = "router.request"
    requests_metric = "router.requests"
    errors_metric = "router.errors"
    latency_prefix = "router.latency"
    access_event = "router.access"
    start_event = "router.start"
    stop_event = "router.stop"

    def __init__(self, config: RouterConfig):
        if not config.members:
            raise ValueError("a router needs at least one member")
        super().__init__(config)
        self.members = [_parse_member_url(index, url)
                        for index, url in enumerate(config.members)]
        self._rr = 0

    # -- service hooks -------------------------------------------------

    def _start_fields(self) -> "dict":
        return {"members": len(self.members)}

    async def _on_start(self) -> None:
        """Start the health probe loop."""
        self._tasks.append(asyncio.ensure_future(self._health_loop()))

    def _health_doc(self) -> "dict":
        healthy = sum(1 for m in self.members if m.healthy)
        return {
            "status": "ok" if healthy == len(self.members)
                      else ("degraded" if healthy else "down"),
            "members": len(self.members),
            "healthy": healthy,
        }

    def _refresh_gauges(self) -> None:
        self.metrics.gauge("router.members.healthy").set(
            sum(1 for m in self.members if m.healthy))

    # -- membership health ---------------------------------------------

    async def _health_loop(self) -> None:
        # A probe's ``wait_for`` may swallow shutdown's cancel, so the
        # loop also ends on the flag shutdown sets first.
        while not self._stopping:
            await asyncio.sleep(self.config.health_interval_s)
            for member in self.members:
                if self._stopping:
                    return
                try:
                    status, _headers, _raw, _r, _w = \
                        await self._roundtrip(member, "GET",
                                              "/healthz", None, None)
                except (OSError, asyncio.TimeoutError,
                        asyncio.IncompleteReadError,
                        ValueError) as exc:
                    self._note_failure(member,
                                       f"{type(exc).__name__}: {exc}")
                    continue
                if status == 200:
                    self._note_success(member)
                else:
                    self._note_failure(member, f"healthz {status}")

    def _note_success(self, member: _Member) -> None:
        member.consecutive_failures = 0
        member.last_ok_unix = time.time()
        member.last_error = None
        if not member.healthy:
            member.healthy = True
            self.metrics.counter("router.member.revived").inc()
            if LOG.enabled:
                LOG.emit("router.member.revived",
                         member=f"m{member.index}", url=member.url)
        self._refresh_gauges()

    def _note_failure(self, member: _Member, reason: str) -> None:
        member.consecutive_failures += 1
        member.last_error = reason[:200]
        if member.healthy and member.consecutive_failures \
                >= self.config.fail_threshold:
            member.healthy = False
            self.metrics.counter("router.member.benched").inc()
            if LOG.enabled:
                LOG.emit("router.member.benched",
                         member=f"m{member.index}", url=member.url,
                         reason=member.last_error)
        self._refresh_gauges()

    def _pick(self, attempt: int) -> _Member:
        """Round-robin over healthy members; when every member is
        benched, rotate over all of them anyway (health information
        may be stale, and a doomed attempt beats a blind 502)."""
        pool = [m for m in self.members if m.healthy] or self.members
        member = pool[(self._rr + attempt) % len(pool)]
        if attempt == 0:
            self._rr += 1
        return member

    # -- upstream I/O --------------------------------------------------

    async def _roundtrip(self, member: _Member, method: str,
                         path: str, body: "bytes | None",
                         trace_header: "str | None"):
        """One upstream request.  Returns ``(status, headers, raw,
        reader, writer)``: ``raw`` is the buffered body when the
        response carries a Content-Length, else ``reader``/``writer``
        are the open stream the caller must relay and close."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(member.host, member.port),
            self.config.timeout)
        try:
            head = [f"{method} {path} HTTP/1.1",
                    f"Host: {member.host}:{member.port}",
                    "Connection: close"]
            if trace_header:
                head.append(f"{TRACEPARENT_HEADER}: {trace_header}")
            if body is not None:
                head.append("Content-Type: application/json")
                head.append(f"Content-Length: {len(body)}")
            writer.write(("\r\n".join(head) + "\r\n\r\n")
                         .encode("ascii"))
            if body is not None:
                writer.write(body)
            await writer.drain()
            status, headers = await asyncio.wait_for(
                self._read_head(reader), self.config.timeout)
            length = headers.get("content-length")
            if length is not None:
                raw = await asyncio.wait_for(
                    reader.readexactly(int(length)),
                    self.config.timeout)
                return status, headers, raw, None, None
            stream_reader, stream_writer = reader, writer
            reader = writer = None  # caller owns the stream now
            return status, headers, None, stream_reader, stream_writer
        finally:
            if writer is not None:
                writer.close()

    @staticmethod
    async def _read_head(reader) -> "tuple[int, dict[str, str]]":
        status_line = await reader.readline()
        parts = status_line.decode("ascii", "replace").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ValueError(
                f"malformed upstream status line: {status_line!r}")
        status = int(parts[1])
        headers: "dict[str, str]" = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    # -- id rewriting --------------------------------------------------

    @staticmethod
    def _rewrite_ids(doc, member: _Member):
        """Prefix top-level job/session ids with the member tag."""
        if isinstance(doc, dict):
            for fld in _ID_FIELDS:
                value = doc.get(fld)
                if isinstance(value, str):
                    doc[fld] = f"m{member.index}-{value}"
        return doc

    def _resolve_id(self, tagged: str) -> "tuple[_Member, str]":
        """Map a rewritten id back to ``(member, upstream id)``."""
        match = _MEMBER_ID_RE.match(tagged)
        if match is not None:
            index = int(match.group(1))
            if index < len(self.members):
                return self.members[index], match.group(2)
        raise RequestError(
            "not_found",
            f"id {tagged!r} names no member of this router")

    # -- router endpoints ----------------------------------------------

    async def _get_members(self, request: HttpRequest, writer) -> None:
        write_json(writer, 200, {
            "format": ROUTER_MEMBERS_FORMAT,
            "version": ROUTER_MEMBERS_VERSION,
            "members": [member.to_doc() for member in self.members],
        })

    async def _refuse_debug(self, request: HttpRequest, writer,
                            *_ids: str) -> None:
        raise RequestError(
            "not_found",
            "debug endpoints are per-instance; ask the member "
            "directly (see docs/scaling.md)")

    # -- forwarding ----------------------------------------------------

    def _upstream_trace(self, request: HttpRequest) -> str:
        return format_traceparent(request.trace_id, request.span_id)

    async def _forward_balanced(self, request: HttpRequest,
                                writer) -> None:
        """Offer the request to members until one accepts it.

        Mirrors ``RemoteBackend._run_shard``: connection-level
        failures and :data:`RETRYABLE_CODES` envelopes rotate to the
        next member; a non-retryable answer (success *or* client
        error) is relayed immediately.  When the budget runs out the
        last HTTP answer is relayed if there was one, else the router
        answers ``502 bad_gateway``.
        """
        body = request.body or b""
        trace_header = self._upstream_trace(request)
        last_response = None
        last_error = "no members"
        attempts = 0
        while attempts <= self.config.retries:
            member = self._pick(attempts)
            attempts += 1
            try:
                status, _headers, raw, _r, _w = await self._roundtrip(
                    member, request.method, request.path, body,
                    trace_header)
            except (OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError, ValueError) as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                self._note_failure(member, last_error)
                self.metrics.counter("router.retries").inc()
                if LOG.enabled:
                    LOG.emit("router.retry",
                             member=f"m{member.index}",
                             path=request.path, reason=last_error,
                             trace_id=request.trace_id)
                continue
            self._note_success(member)
            try:
                doc = json.loads(raw)
            except ValueError:
                doc = None
            code = None
            if status >= 400 and isinstance(doc, dict) \
                    and isinstance(doc.get("error"), dict):
                code = doc["error"].get("code")
            if code in RETRYABLE_CODES:
                last_response = (status, doc)
                self.metrics.counter("router.upstream_errors").inc()
                self.metrics.counter("router.retries").inc()
                if LOG.enabled:
                    LOG.emit("router.retry",
                             member=f"m{member.index}",
                             path=request.path, reason=code,
                             trace_id=request.trace_id)
                continue
            if isinstance(doc, dict):
                if request.path == "/v1/sessions":
                    member.sessions += 1
                elif "job" in doc:
                    member.jobs += 1
                write_json(writer, status,
                           self._rewrite_ids(doc, member))
            else:
                write_json(writer, status, {"raw": raw.decode(
                    "utf-8", "replace")})
            return
        if last_response is not None:
            status, doc = last_response
            write_json(writer, status, doc)
            return
        raise RequestError(
            "bad_gateway",
            f"no member answered {request.path} after {attempts} "
            f"attempt(s); last error: {last_error}")

    async def _forward_sticky(self, request: HttpRequest, writer,
                              tagged_id: str) -> None:
        """Route an id-addressed request to the member that owns it.

        No reassignment: the job/session state lives on exactly one
        member, so a dead member is answered with ``502 bad_gateway``
        (clients see a retryable code and can resubmit — the job id
        itself is lost with its instance).
        """
        member, upstream_id = self._resolve_id(tagged_id)
        # ["", "v1", "jobs"|"sessions", "<tagged id>", ...suffix]
        parts = request.path.split("/")
        parts[3] = upstream_id
        upstream_path = "/".join(parts)
        trace_header = self._upstream_trace(request)
        try:
            status, _headers, raw, up_reader, up_writer = \
                await self._roundtrip(member, request.method,
                                      upstream_path, request.body,
                                      trace_header)
        except (OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, ValueError) as exc:
            self._note_failure(member, f"{type(exc).__name__}: {exc}")
            raise RequestError(
                "bad_gateway",
                f"member m{member.index} ({member.url}) did not "
                f"answer: {type(exc).__name__}") from exc
        self._note_success(member)
        if raw is not None:
            try:
                doc = json.loads(raw)
            except ValueError:
                write_json(writer, status, {"raw": raw.decode(
                    "utf-8", "replace")})
                return
            write_json(writer, status,
                       self._rewrite_ids(doc, member))
            return
        # NDJSON stream: relay line by line with the id rewrite.  A
        # member dying mid-stream simply ends the relay early — the
        # client's truncated-stream detection takes over from there.
        try:
            start_ndjson(writer, status)
            while True:
                line = await up_reader.readline()
                if not line:
                    break
                text = line.strip()
                if not text:
                    continue
                try:
                    record = json.loads(text)
                except ValueError:
                    break
                if isinstance(record, dict):
                    self._rewrite_ids(record, member)
                send_ndjson_line(writer, record)
                await writer.drain()
        finally:
            up_writer.close()
