"""Async solve-serving front-end over :mod:`repro.engine`.

The ROADMAP's online-serving layer: a stdlib-``asyncio`` HTTP server
that accepts solve requests, coalesces them into engine batches, and
streams results and progress events back — turning the batch engine
(:class:`~repro.engine.runner.BatchRunner`), the observability layer
(:mod:`repro.obs`), and the validity-range schedule store (paper
Section 5.3) into a system that serves many concurrent clients from
one shared cache.

The pieces:

* :class:`~repro.serving.server.SolveServer` /
  :class:`~repro.serving.server.ServingConfig` — the HTTP front-end:
  ``POST /v1/solve`` (synchronous), ``POST /v1/sweep``
  (asynchronous + NDJSON event stream), job status/cancel,
  ``/healthz``, Prometheus ``/metrics``;
* :class:`~repro.serving.batching.Batcher` — the micro-batching loop:
  a batch of up to ``max_batch`` jobs leaves as soon as the engine is
  free, with a bounded queue and 429 backpressure, per-request
  deadlines, cancellation and graceful drain;
* :class:`~repro.serving.client.ServingClient` — the blocking
  reference client (``repro-schedule submit`` uses it);
* online mission sessions (``POST /v1/sessions``) — the server hosts
  :class:`~repro.online.session.MissionSession` engines behind the
  wire protocol: tasks arrive over time, each is admitted or rejected
  against the power/timing constraints, and the command stream's
  effects come back as a ``repro-session-event`` v1 NDJSON stream
  (``docs/online.md``);
* :mod:`repro.serving.protocol` — the size-capped HTTP/1.1 subset the
  server speaks;
* the horizontal-scaling tier (``docs/scaling.md``):
  :class:`~repro.serving.router.Router` — a front-door that
  load-balances solve/sweep/session-open traffic over N serve
  instances with retry-and-reassignment, sticky id-prefixed routing
  for jobs and sessions, and health-gated membership — and
  :class:`~repro.serving.store_service.StoreService` /
  :class:`~repro.serving.store_client.RemoteScheduleStore` — a shared
  schedule-store service (``repro-store-request`` v1) so every
  instance reuses every other's validity-range entries.

Wire documents (``repro-solve-request``/``-response`` v1, the
``repro-serve-events`` v1 stream) live in :mod:`repro.io.requests`;
the operator's guide — every endpoint, schema, error code and tuning
knob, conformance-tested against a live server — is
``docs/serving.md``.

Run one::

    repro-schedule serve --port 8080 --reuse-schedules

    # or programmatically
    import asyncio
    from repro.serving import ServingConfig, SolveServer

    async def main():
        server = SolveServer(ServingConfig(port=8080))
        await server.start()
        await server.serve_forever()

    asyncio.run(main())
"""

from .batching import Batcher, Submission
from .client import ServingClient, ServingError, TruncatedStreamError
from .protocol import HttpRequest
from .router import Router, RouterConfig
from .server import ServingConfig, SolveServer
from .store_client import RemoteScheduleStore, StoreClient
from .store_service import StoreService, StoreServiceConfig

__all__ = [
    "Batcher",
    "HttpRequest",
    "RemoteScheduleStore",
    "Router",
    "RouterConfig",
    "ServingClient",
    "ServingConfig",
    "ServingError",
    "SolveServer",
    "StoreClient",
    "StoreService",
    "StoreServiceConfig",
    "Submission",
    "TruncatedStreamError",
]
