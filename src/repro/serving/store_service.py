"""The shared schedule-store service: one store, many servers.

A :class:`StoreService` owns a single authoritative
:class:`~repro.engine.schedule_store.ScheduleStore` and serves it over
the ``repro-store-request``/``repro-store-response`` v1 protocol, so N
``repro-schedule serve`` instances (each wrapping the store in a
:class:`~repro.serving.store_client.RemoteScheduleStore`) share
validity-range hits instead of warming private stores.

Endpoints (the conformance-tested reference is ``docs/scaling.md``;
the document schemas live in ``docs/formats.md``):

=============================== ====================================
``POST /v1/store/get-range``    probe for a covering schedule under
                                ``(base_key, p_max, p_min)``; with
                                both powers omitted, a *prime probe*
                                for the certified timing-stage entry
``POST /v1/store/put-delta``    merge a drained store journal
                                (journal-dedupe, commutative — see
                                DESIGN.md 5e)
``GET /v1/store/snapshot``      the full ``repro-schedule-store`` v1
                                document (warm a new instance)
``GET /healthz``                liveness + entry counts
``GET /metrics``                Prometheus text exposition
                                (``store.*`` series)
=============================== ====================================

Concurrency: handlers run on one asyncio event loop and never await
between touching store state, so the store needs no lock — concurrent
``put-delta`` merges serialize naturally and commute (DESIGN.md 5e).

Shutdown persists the store back to ``store_path`` when one is
configured, mirroring ``serve --store``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..engine.schedule_store import CERTIFIED_STAGE, ScheduleStore
from ..errors import SerializationError
from ..io.requests import (RequestError, store_request_from_dict,
                           store_response_envelope)
from ..obs import LOG
from .protocol import (DEFAULT_MAX_BODY, HttpRequest, HttpService,
                       Route, write_json)

__all__ = ["StoreServiceConfig", "StoreService"]


@dataclass
class StoreServiceConfig:
    """Everything an operator tunes on a schedule-store service.

    Attributes
    ----------
    host / port:
        Listening address.  Port ``0`` binds an ephemeral port
        (``StoreService.port`` reports the actual one).
    reuse_policy:
        ``identical`` or ``valid`` — the policy :meth:`probe
        <repro.engine.schedule_store.ScheduleStore.probe>` answers
        ``get-range`` with.  Every serve instance sharing the store
        should run the same policy.
    store_path:
        Load the store document at startup (when the file exists) and
        write it back on shutdown.
    max_body:
        Request body cap, bytes (``payload_too_large`` beyond it).
    log_path:
        When set, enable the process-wide structured event log
        (:data:`repro.obs.LOG`) on this JSONL file.
    """

    host: str = "127.0.0.1"
    port: int = 8090
    reuse_policy: str = "identical"
    store_path: "str | None" = None
    max_body: int = DEFAULT_MAX_BODY
    log_path: "str | None" = None


class StoreService(HttpService):
    """Serve one shared :class:`ScheduleStore` over HTTP."""

    routes = (
        Route("/healthz", "GET", "healthz", "_get_health"),
        Route("/metrics", "GET", "metrics", "_get_metrics"),
        Route("/v1/store/get-range", "POST", "get_range",
              "_handle_get_range"),
        Route("/v1/store/put-delta", "POST", "put_delta",
              "_handle_put_delta"),
        Route("/v1/store/snapshot", "GET", "snapshot", "_get_snapshot"),
    )
    span_name = "store.request"
    requests_metric = "store.requests"
    errors_metric = "store.errors"
    latency_prefix = "store.latency"
    access_event = "store.access"
    start_event = "store.start"
    stop_event = "store.stop"

    def __init__(self, config: "StoreServiceConfig | None" = None,
                 store: "ScheduleStore | None" = None):
        super().__init__(config or StoreServiceConfig())
        if store is not None:
            self.store = store
        elif self.config.store_path \
                and os.path.exists(self.config.store_path):
            self.store = ScheduleStore.read(
                self.config.store_path,
                policy=self.config.reuse_policy)
        else:
            self.store = ScheduleStore(
                policy=self.config.reuse_policy)

    # -- service hooks -------------------------------------------------

    def _start_fields(self) -> "dict":
        return {"host": self.config.host, "policy": self.store.policy,
                "entries": len(self.store)}

    async def _on_stop(self) -> "dict":
        """Persist the store when configured."""
        if self.config.store_path:
            self.store.write(self.config.store_path)
        return {"entries": len(self.store)}

    def _health_doc(self) -> "dict":
        return {
            "status": "ok",
            "policy": self.store.policy,
            "problems": len(self.store.problems),
            "entries": len(self.store),
        }

    def _refresh_gauges(self) -> None:
        self.metrics.gauge("store.entries").set(len(self.store))

    # -- the store protocol --------------------------------------------

    async def _handle_get_range(self, request: HttpRequest,
                                writer) -> None:
        parsed = store_request_from_dict(request.json())
        if parsed.op != "get-range":
            raise RequestError(
                "bad_request",
                f"op {parsed.op!r} does not match this endpoint")
        if parsed.p_max is None:
            # Prime probe: the certified timing-stage entry, if the
            # store holds one for this workload — regardless of policy
            # (a "valid"-policy store still primes with timing
            # entries, and the caller is asking "has someone already
            # paid for the priming solve?").
            entry = None
            bucket = self.store.problems.get(parsed.base_key)
            if bucket is not None:
                entry = next((e for e in bucket.entries
                              if e.stage == CERTIFIED_STAGE), None)
        else:
            entry = self.store.probe(parsed.base_key, parsed.p_max,
                                     parsed.p_min)
            bucket = self.store.problems.get(parsed.base_key)
        if entry is None:
            self.store.misses += 1
            self.metrics.counter("store.get_range.misses").inc()
            write_json(writer, 200, store_response_envelope(
                "get-range", hit=False, base_key=parsed.base_key))
            return
        self.store.range_hits += 1
        self.metrics.counter("store.get_range.hits").inc()
        write_json(writer, 200, store_response_envelope(
            "get-range", hit=True, base_key=parsed.base_key,
            name=bucket.name if bucket is not None else "",
            entry=entry.to_dict()))

    async def _handle_put_delta(self, request: HttpRequest,
                                writer) -> None:
        parsed = store_request_from_dict(request.json())
        if parsed.op != "put-delta":
            raise RequestError(
                "bad_request",
                f"op {parsed.op!r} does not match this endpoint")
        try:
            merged = self.store.merge_delta(parsed.delta)
        except SerializationError as exc:
            raise RequestError(
                "bad_request",
                f"invalid stored-schedule entry: {exc}") from exc
        # The service is the root store: nobody drains *its* journal,
        # so discard it to keep memory bounded.
        self.store.drain_journal()
        deduped = len(parsed.delta) - merged
        self.metrics.counter("store.put_delta.merged").inc(merged)
        self.metrics.counter("store.put_delta.deduped").inc(deduped)
        if LOG.enabled:
            LOG.emit("store.merge", merged=merged, deduped=deduped,
                     entries=len(self.store),
                     trace_id=request.trace_id)
        write_json(writer, 200, store_response_envelope(
            "put-delta", merged=merged, deduped=deduped,
            entries=len(self.store)))

    async def _get_snapshot(self, request: HttpRequest,
                            writer) -> None:
        write_json(writer, 200, store_response_envelope(
            "snapshot", store=self.store.to_dict()))
