"""The decision service: a long-lived concurrent daemon over Sessions.

The batch runner (:mod:`repro.runner`) answers "run this matrix once";
this package answers "keep answering decisions forever".  It is the
served system the ROADMAP's top open item names, built on exactly the
substrate the earlier PRs prepared: every request executes inside a
per-worker :class:`~repro.session.Session` (PR 5) and ships back a
payload-stripped :class:`~repro.session.Decision` record (the batch
runner's wire shape), and worker crashes, hangs, and overruns surface
as the resilience layer's typed error categories (PR 7) instead of
dropped connections.

The pieces, front to back:

* :mod:`repro.service.protocol` -- the wire protocol: newline-delimited
  JSON requests/responses over a unix socket (or TCP), typed
  ``bad-request`` rejections for malformed input, and the coalescing
  key (Session config fingerprint + canonical payload digest).
* :mod:`repro.service.admission` -- admission control: a bounded
  admit-count with deterministic ``overload`` rejections carrying a
  ``retry_after_ms`` hint, so saturation degrades into fast typed
  refusals rather than unbounded queueing.
* :mod:`repro.service.coalescer` -- request coalescing: identical
  in-flight requests (same coalescing key) await one underlying
  computation and receive bit-identical decision records.
* :mod:`repro.service.pool` -- worker-side execution: per-worker
  Sessions and per-request deadlines, run on the shared
  :class:`~repro.resilience.WorkerPool` (process or thread executor:
  chaos injection, bounded retries with deterministic backoff, pool
  respawn on worker death, and quarantine as a typed error response).
* :mod:`repro.service.server` -- the asyncio front door wiring the
  above together, plus :func:`start_in_thread` for embedding a live
  server in tests and docs.
* :mod:`repro.service.client` -- a small blocking client (one JSON
  object per request) used by the tests, the CLI ``request``
  subcommand, and the load driver.

Start it from the shell with ``python -m repro serve --socket PATH``;
drive it with ``python -m repro request --socket PATH '{"op": ...}'``.
The wire protocol and lifecycle are documented in ``docs/SERVICE.md``;
``benchmarks/bench_service.py`` measures p50/p99 latency and sustained
decisions/sec into ``BENCH_service.json``.
"""

from __future__ import annotations

from ..lazy import lazy_exports

# The client needs only the protocol module: nothing here is imported
# before first use.  The daemon imports ``.server``, whose pool loads
# the decision stack before its workers fork.
__getattr__, __dir__ = lazy_exports(__name__, {
    "..resilience": "PoolConfig",
    ".admission": "AdmissionController",
    ".cache": "ResultCache",
    ".coalescer": "Coalescer",
    ".protocol": "MAX_LINE_BYTES PROTOCOL_VERSION ProtocolError Request"
                 " coalesce_key decode_request decision_response"
                 " encode_response error_response fingerprint_for"
                 " ok_response overload_response status_response",
    ".server": "ServiceConfig ServiceServer start_in_thread",
})

__all__ = [
    "AdmissionController",
    "Coalescer",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "PoolConfig",
    "ProtocolError",
    "Request",
    "ResultCache",
    "ServiceConfig",
    "ServiceServer",
    "coalesce_key",
    "decision_response",
    "decode_request",
    "encode_response",
    "error_response",
    "fingerprint_for",
    "ok_response",
    "overload_response",
    "start_in_thread",
    "status_response",
]
