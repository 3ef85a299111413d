"""Hierarchical spans: where the time goes inside one solve.

A :class:`Span` is a named, nestable wall-clock interval with string
attributes, instant events, and child spans — the unit every exporter
(:mod:`repro.obs.export`) understands.  Spans are recorded against the
:class:`Instrumentation` singleton (:data:`OBS`), which is **off by
default**: when disabled, :func:`span` returns a shared no-op context
manager and the only cost at an instrumentation point is one session
lookup, so the hot paths (``longest_paths``, the executor's tick loop)
stay unencumbered.  Each context records into its own session: the one
a :class:`Capture` opened in it, else the process-wide one — so two
threads capturing at once never see each other's spans.

Times are ``perf_counter`` seconds relative to the session's *epoch*
(set when it is enabled or a :func:`capture` begins), so a
span tree is self-consistent within one process.  Cross-process
stitching — a worker's spans re-parented under the parent's job span —
uses the wall-clock anchor each :class:`Capture` records (see
``repro.engine.jobs.run_job`` / ``repro.engine.runner.BatchRunner``).
"""

from __future__ import annotations

import os
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

from .metrics import MetricsRegistry

__all__ = ["Span", "Instrumentation", "Capture", "OBS", "enable",
           "disable", "enabled", "reset", "span", "event", "collect",
           "capture", "TRACEPARENT_HEADER", "new_trace_id",
           "new_span_id", "format_traceparent", "parse_traceparent",
           "current_trace_context", "set_trace_context",
           "reset_trace_context"]

#: Hard cap on recorded spans per session (a runaway loop with
#: instrumentation enabled degrades to dropped spans, never to
#: unbounded memory).  Drops are counted in ``obs.spans.dropped``.
MAX_SPANS = 200_000

#: HTTP header carrying the trace context across the wire protocol
#: (W3C Trace Context shape: ``00-<trace_id>-<parent_id>-01``).
TRACEPARENT_HEADER = "traceparent"


# ----------------------------------------------------------------------
# distributed trace context
# ----------------------------------------------------------------------
#
# A trace context is ``(trace_id, parent_span_id | None)``: the 32-hex
# id of the whole distributed trace plus the 16-hex id of the span that
# caused the current work.  It travels ambiently through a ContextVar
# inside one process (surviving ``asyncio.to_thread`` hand-offs) and
# explicitly over process boundaries: the ``traceparent`` HTTP header
# on the wire protocol and the ``runner.trace`` key of shard manifests.

_TRACE_CONTEXT: "ContextVar[tuple[str, str | None] | None]" = \
    ContextVar("repro_trace_context", default=None)


def new_trace_id() -> str:
    """A fresh 32-hex-character trace id."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 16-hex-character span id."""
    return os.urandom(8).hex()


def format_traceparent(trace_id: str, span_id: str) -> str:
    """The ``traceparent`` header value for an outgoing request."""
    return f"00-{trace_id}-{span_id}-01"


def parse_traceparent(value: "str | None") \
        -> "tuple[str, str] | None":
    """``(trace_id, parent_span_id)`` from a header, else ``None``.

    Malformed values are ignored rather than rejected — tracing is
    best-effort and must never fail a request.
    """
    if not value:
        return None
    parts = value.strip().split("-")
    if len(parts) != 4:
        return None
    trace_id, span_id = parts[1], parts[2]
    if len(trace_id) != 32 or len(span_id) != 16:
        return None
    try:
        int(trace_id, 16)
        int(span_id, 16)
    except ValueError:
        return None
    return trace_id, span_id


def current_trace_context() -> "tuple[str, str | None] | None":
    """The ambient ``(trace_id, parent_span_id)``, if any."""
    return _TRACE_CONTEXT.get()


def set_trace_context(context: "tuple[str, str | None] | None"):
    """Install an ambient trace context; returns the reset token."""
    return _TRACE_CONTEXT.set(context)


def reset_trace_context(token) -> None:
    """Restore the context saved by :func:`set_trace_context`."""
    _TRACE_CONTEXT.reset(token)


@dataclass
class Span:
    """One named interval in the trace tree."""

    name: str
    start: float
    end: "float | None" = None
    attrs: "dict[str, Any]" = field(default_factory=dict)
    children: "list[Span]" = field(default_factory=list)
    events: "list[dict[str, Any]]" = field(default_factory=list)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) \
            - self.start

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attrs.update(attrs)
        return self

    def shift(self, offset: float) -> "Span":
        """Translate this subtree in time (re-parenting helper)."""
        self.start += offset
        if self.end is not None:
            self.end += offset
        for evt in self.events:
            evt["at"] = evt.get("at", 0.0) + offset
        for child in self.children:
            child.shift(offset)
        return self

    def walk(self) -> "Iterator[tuple[int, Span]]":
        """Depth-first ``(depth, span)`` pairs, self included."""
        stack: "list[tuple[int, Span]]" = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))

    def to_dict(self) -> "dict[str, Any]":
        doc: "dict[str, Any]" = {
            "name": self.name,
            "start": round(self.start, 6),
            "duration": round(self.duration, 6),
        }
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        if self.events:
            doc["events"] = [
                {"name": evt["name"], "at": round(evt.get("at", 0.0), 6),
                 **({"attrs": evt["attrs"]} if evt.get("attrs") else {})}
                for evt in self.events]
        if self.children:
            doc["children"] = [child.to_dict() for child in self.children]
        return doc

    @classmethod
    def from_dict(cls, doc: "dict[str, Any]") -> "Span":
        start = float(doc.get("start", 0.0))
        span_obj = cls(name=doc["name"], start=start,
                       end=start + float(doc.get("duration", 0.0)),
                       attrs=dict(doc.get("attrs", {})))
        span_obj.events = [
            {"name": evt["name"], "at": float(evt.get("at", 0.0)),
             "attrs": dict(evt.get("attrs", {}))}
            for evt in doc.get("events", [])]
        span_obj.children = [cls.from_dict(child)
                             for child in doc.get("children", [])]
        return span_obj


class _NoopSpan:
    """The shared do-nothing span handed out while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class _LiveSpan:
    """Context manager closing a real span on exit."""

    __slots__ = ("_session", "_span")

    def __init__(self, session: "_Session", span_obj: Span):
        self._session = session
        self._span = span_obj

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._session.close(self._span)


class _Session:
    """One recording session: the state every :data:`OBS` call acts on."""

    __slots__ = ("enabled", "metrics", "epoch", "roots", "stack",
                 "count")

    def __init__(self, enabled: bool = False) -> None:
        self.clear(enabled)

    def clear(self, enabled: bool = False) -> None:
        """Drop every span and metric; restart the epoch at now."""
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.epoch = time.perf_counter()
        self.roots: "list[Span]" = []
        self.stack: "list[Span]" = []
        self.count = 0

    def now(self) -> float:
        return time.perf_counter() - self.epoch

    def close(self, span_obj: Span) -> None:
        span_obj.end = self.now()
        # Unwind to (and past) the span being closed; tolerates callers
        # that leak an inner span.
        while self.stack:
            top = self.stack.pop()
            if top is span_obj:
                break
            if top.end is None:
                top.end = span_obj.end

    def collect(self) -> "list[Span]":
        for open_span in self.stack:
            if open_span.end is None:
                open_span.end = self.now()
        return list(self.roots)


class Instrumentation:
    """Span recorder + metrics registry; off by default.

    Every call acts on the current context's session: the one a
    :class:`Capture` opened in it, else the process-wide one.
    """

    def __init__(self) -> None:
        # The default is the process-wide session.
        self._current: "ContextVar[_Session]" = \
            ContextVar("repro_obs_session", default=_Session())

    @property
    def enabled(self) -> bool:
        """Is the current context's session recording?"""
        return self._current.get().enabled

    @property
    def metrics(self) -> MetricsRegistry:
        """The current context's metrics registry."""
        return self._current.get().metrics

    # -- lifecycle -----------------------------------------------------

    def enable(self) -> None:
        """Switch recording on with a fresh, empty session."""
        self._current.get().clear(enabled=True)

    def disable(self) -> None:
        self._current.get().enabled = False

    def reset(self) -> None:
        """Drop all recorded spans/metrics; keep the enabled flag off."""
        self._current.get().clear()

    def now(self) -> float:
        """Seconds since the session epoch."""
        return self._current.get().now()

    # -- recording -----------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span; ``with OBS.span("sched.timing") as sp: ...``."""
        session = self._current.get()
        if not session.enabled:
            return _NOOP
        if session.count >= MAX_SPANS:
            session.metrics.counter("obs.spans.dropped").inc()
            return _NOOP
        session.count += 1
        span_obj = Span(name=name, start=session.now(),
                        attrs=dict(attrs) if attrs else {})
        if session.stack:
            session.stack[-1].children.append(span_obj)
        else:
            session.roots.append(span_obj)
        session.stack.append(span_obj)
        return _LiveSpan(session, span_obj)

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instant event on the currently-open span."""
        session = self._current.get()
        if not session.enabled or not session.stack:
            return
        session.stack[-1].events.append(
            {"name": name, "at": session.now(),
             "attrs": dict(attrs) if attrs else {}})

    def attach(self, span_obj: Span) -> None:
        """Adopt an externally-built span (a re-parented worker tree)."""
        session = self._current.get()
        if session.stack:
            session.stack[-1].children.append(span_obj)
        else:
            session.roots.append(span_obj)

    # -- extraction ----------------------------------------------------

    def collect(self) -> "list[Span]":
        """The root spans recorded so far (open spans closed at now)."""
        return self._current.get().collect()

    def capture(self) -> "Capture":
        """Run a nested, isolated recording session (see below)."""
        return Capture(self)


class Capture:
    """Isolated recording session — the worker-process span shipper.

    ``with OBS.capture() as cap:`` makes a fresh enabled session (epoch
    = now) the current context's session until exit; other threads
    and event loops keep their own (``asyncio.to_thread`` copies the
    context, so a capture there is private to that call).  The spans
    recorded inside are available as ``cap.spans`` (times relative to
    the capture start), the metric increments as ``cap.metrics_data``,
    and ``cap.wall0`` anchors the capture on the shared wall clock so a
    parent process can re-base the tree onto its own timeline.
    """

    def __init__(self, recorder: Instrumentation):
        self._recorder = recorder
        self._session: "_Session | None" = None
        self._token = None
        self.wall0 = 0.0
        self.spans: "list[Span]" = []
        self.metrics_data: "dict[str, Any]" = {}

    def __enter__(self) -> "Capture":
        self._session = _Session(enabled=True)
        self._token = self._recorder._current.set(self._session)
        self.wall0 = time.time()
        return self

    def __exit__(self, *exc_info) -> None:
        self.spans = self._session.collect()
        self.metrics_data = self._session.metrics.data()
        self._recorder._current.reset(self._token)


#: The process-wide recorder every instrumentation point talks to.
OBS = Instrumentation()

# Module-level conveniences bound to the singleton.


def enable() -> None:
    """Turn recording on for the process-wide :data:`OBS` singleton."""
    OBS.enable()


def disable() -> None:
    """Turn recording off for the process-wide :data:`OBS` singleton."""
    OBS.disable()


def enabled() -> bool:
    """Is the process-wide :data:`OBS` singleton recording?"""
    return OBS.enabled


def reset() -> None:
    """Drop all spans and metrics recorded by :data:`OBS` so far."""
    OBS.reset()


def span(name: str, **attrs: Any):
    """Open a span on :data:`OBS` (a no-op stub while disabled)."""
    return OBS.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """Record a zero-duration span on :data:`OBS`."""
    OBS.event(name, **attrs)


def collect() -> "list[Span]":
    """Detach and return the finished root spans of :data:`OBS`."""
    return OBS.collect()


def capture() -> Capture:
    """An isolated recording session on :data:`OBS` (worker shipper)."""
    return OBS.capture()
