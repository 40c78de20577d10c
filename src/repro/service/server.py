"""The asyncio front door: sockets in, decision records out.

One :class:`ServiceServer` owns the listening sockets (a unix socket,
an optional TCP endpoint, or both), the
:class:`~repro.service.admission.AdmissionController`, the
:class:`~repro.service.coalescer.Coalescer`, and the
:class:`~repro.resilience.WorkerPool`.  Per connection it reads
newline-delimited JSON requests and answers each with exactly one
response line; requests on one connection are served **concurrently**
(pipelining), so responses may arrive out of order -- clients match on
the echoed ``id``.

The request path, in order (each step a module of this package)::

    decode -> (control op? answer inline)
           -> coalesce-join?  await the shared future, no slot used
           -> admit           full? typed overload, done
           -> coalesce-lead   publish the in-flight key
           -> pool.run        execute on a worker Session, retries,
                              typed Quarantined after max attempts
           -> resolve + respond (and fan the record out to joiners)

Failure containment is strictly per request: malformed lines get
``bad-request`` responses, worker deaths get ``crash`` errors after
the pool respawns, deadline overruns get ``timeout`` -- the
connection, and every other in-flight request, keeps going.

:func:`start_in_thread` runs a server on a background thread with its
own event loop -- how the tests, the docs snippets, and the load
driver's in-process mode embed a live daemon.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from ..resilience import PoolConfig, Quarantined, WorkerPool
from .admission import AdmissionController
from .cache import ResultCache
from .coalescer import Coalescer
from .pool import service_execute, worker_cache_stats
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    coalesce_key,
    decode_request,
    decision_response,
    encode_response,
    error_response,
    ok_response,
    overload_response,
    status_response,
)

__all__ = [
    "ServiceConfig",
    "ServiceHandle",
    "ServiceServer",
    "start_in_thread",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``python -m repro serve`` exposes as flags.

    At least one of ``socket_path`` / ``tcp`` must be set.  ``pool``
    carries the worker knobs; ``capacity``/``retry_after_ms`` the
    admission bound.
    """

    socket_path: Optional[str] = None
    tcp: Optional[Tuple[str, int]] = None
    capacity: int = 64
    retry_after_ms: float = 50.0
    pool: PoolConfig = field(default_factory=PoolConfig)
    #: Served-decision result cache (entries; 0 = off).  Hits replay
    #: the stored record -- no admission slot, no pool dispatch -- and
    #: are marked ``"cached": true`` on the wire.
    result_cache: int = 0
    #: Optional per-entry TTL for the result cache, in seconds.
    result_cache_ttl_s: Optional[float] = None

    def __post_init__(self):
        if self.socket_path is None and self.tcp is None:
            raise ValueError("ServiceConfig needs socket_path or tcp")
        if self.result_cache < 0:
            raise ValueError("result_cache must be >= 0, "
                             f"got {self.result_cache}")


class ServiceServer:
    """The daemon: bind, serve until stopped (or a ``shutdown`` op)."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.admission = AdmissionController(
            capacity=config.capacity,
            retry_after_ms=config.retry_after_ms)
        self.coalescer = Coalescer()
        self.result_cache = ResultCache(
            capacity=config.result_cache,
            ttl_s=config.result_cache_ttl_s)
        self.pool: Optional[WorkerPool] = None
        self._servers = []
        self._conn_tasks: Set[asyncio.Task] = set()
        self._stop_event: Optional[asyncio.Event] = None
        self._started_at = 0.0
        self._served = 0
        self._errors = 0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Create the pool and bind every configured endpoint."""
        self._stop_event = asyncio.Event()
        self.pool = WorkerPool(self.config.pool)
        self._started_at = time.monotonic()
        if self.config.socket_path is not None:
            self._servers.append(await asyncio.start_unix_server(
                self._handle_connection, path=self.config.socket_path,
                limit=MAX_LINE_BYTES))
        if self.config.tcp is not None:
            host, port = self.config.tcp
            self._servers.append(await asyncio.start_server(
                self._handle_connection, host=host, port=port,
                limit=MAX_LINE_BYTES))

    @property
    def endpoints(self) -> Tuple[str, ...]:
        """Human-readable bound addresses (TCP ports resolved, so
        ``port=0`` callers can discover the real one)."""
        where = []
        if self.config.socket_path is not None:
            where.append(f"unix:{self.config.socket_path}")
        for server in self._servers:
            for sock in server.sockets:
                if sock.family.name == "AF_INET":
                    host, port = sock.getsockname()[:2]
                    where.append(f"tcp:{host}:{port}")
        return tuple(where)

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` or a ``shutdown`` request, then
        tear down."""
        await self._stop_event.wait()
        await self._teardown()

    def request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    async def stop(self) -> None:
        self.request_stop()
        await self._teardown()

    async def _teardown(self) -> None:
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers = []
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks,
                                 return_exceptions=True)
        if self.pool is not None:
            await self.pool.shutdown()
            self.pool = None

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """The ``status`` op's payload: every layer's counters."""
        return {
            "protocol": PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "served": self._served,
            "errors": self._errors,
            "admission": self.admission.stats(),
            "coalescer": self.coalescer.stats(),
            "result_cache": self.result_cache.stats(),
            "pool": self.pool.stats() if self.pool is not None else {},
            "worker_sessions": worker_cache_stats(),
        }

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        write_lock = asyncio.Lock()
        request_tasks: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Line framing is lost; answer once and hang up.
                    await self._write(writer, write_lock, error_response(
                        None, "bad-request",
                        f"request line exceeds {MAX_LINE_BYTES} bytes"))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode_request(line)
                except ProtocolError as exc:
                    await self._write(writer, write_lock, error_response(
                        _best_effort_id(line), "bad-request", str(exc),
                        diagnostics=exc.diagnostics))
                    continue
                if request.op == "status":
                    await self._write(writer, write_lock, status_response(
                        request.id, self.status()))
                    continue
                if request.op == "shutdown":
                    await self._write(writer, write_lock,
                                      ok_response(request.id))
                    self.request_stop()
                    continue
                # Decision ops execute concurrently per connection.
                sub = asyncio.ensure_future(
                    self._serve_request(request, writer, write_lock))
                request_tasks.add(sub)
                sub.add_done_callback(request_tasks.discard)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            for sub in list(request_tasks):
                sub.cancel()
            if request_tasks:
                await asyncio.gather(*request_tasks,
                                     return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._conn_tasks.discard(task)

    async def _write(self, writer: asyncio.StreamWriter,
                     lock: asyncio.Lock, response: Dict[str, Any]) -> None:
        async with lock:
            writer.write(encode_response(response))
            await writer.drain()

    async def _serve_request(self, request: Request,
                             writer: asyncio.StreamWriter,
                             lock: asyncio.Lock) -> None:
        arrived = time.perf_counter()
        key = coalesce_key(request)
        cached = self.result_cache.get(key)
        if cached is not None:
            # The answer is already known bit-identically (the cache
            # is keyed by the full coalescing key): replay it without
            # an admission slot or a pool dispatch.
            record, attempts = cached
            self._served += 1
            waited_ms = (time.perf_counter() - arrived) * 1000.0
            await self._write(writer, lock, decision_response(
                request.id, record, coalesced=False, cached=True,
                attempts=attempts, queue_ms=0.0, service_ms=waited_ms))
            return
        shared = self.coalescer.join(key)
        if shared is not None:
            # A bit-identical request is in flight: wait for its
            # record, consume no admission slot.
            try:
                record, attempts = await asyncio.shield(shared)
            except Quarantined as failure:
                self._errors += 1
                await self._write(writer, lock, error_response(
                    request.id, failure.category, str(failure),
                    attempts=failure.attempts))
                return
            except asyncio.CancelledError:
                raise
            self._served += 1
            waited_ms = (time.perf_counter() - arrived) * 1000.0
            await self._write(writer, lock, decision_response(
                request.id, record, coalesced=True, attempts=attempts,
                queue_ms=0.0, service_ms=waited_ms))
            return

        if not self.admission.try_admit():
            stats = self.admission.stats()
            await self._write(writer, lock, overload_response(
                request.id, queue_depth=stats["depth"],
                capacity=stats["capacity"],
                retry_after_ms=self.admission.retry_after_ms))
            return

        future = self.coalescer.lead(key)
        dispatched = time.perf_counter()
        try:
            record = (await self.pool.run(
                service_execute, request.op, dict(request.payload), key,
                self.config.pool, key=key)).record()
        except Quarantined as failure:
            self.coalescer.resolve(key, error=failure)
            self._errors += 1
            await self._write(writer, lock, error_response(
                request.id, failure.category, str(failure),
                attempts=failure.attempts))
            return
        except asyncio.CancelledError:
            self.coalescer.resolve(
                key, error=Quarantined("error", "server shutting down",
                                       attempts=1))
            raise
        except Exception as exc:  # defense: run() classifies its own
            failure = Quarantined("error", f"{type(exc).__name__}: {exc}",
                                  attempts=1)
            self.coalescer.resolve(key, error=failure)
            self._errors += 1
            await self._write(writer, lock, error_response(
                request.id, failure.category, str(failure), attempts=1))
            return
        finally:
            self.admission.release()
        attempts = record.get("attempts", 1)
        self.coalescer.resolve(key, result=(record, attempts))
        # Only completed decisions are cached; every failure path
        # above returned without a put, so future repeats re-execute.
        self.result_cache.put(key, record, attempts)
        self._served += 1
        done = time.perf_counter()
        await self._write(writer, lock, decision_response(
            request.id, record, coalesced=False, attempts=attempts,
            queue_ms=(dispatched - arrived) * 1000.0,
            service_ms=(done - dispatched) * 1000.0))


def _best_effort_id(line: bytes) -> Optional[str]:
    """Echo the client's id on a bad-request when the line was at
    least JSON -- lets pipelining clients attribute the rejection."""
    import json

    try:
        fields = json.loads(line)
    except Exception:
        return None
    if isinstance(fields, dict):
        request_id = fields.get("id")
        if isinstance(request_id, (str, int)):
            return request_id
    return None


# ----------------------------------------------------------------------
# Embedding: a live server on a background thread.
# ----------------------------------------------------------------------

class ServiceHandle:
    """A running embedded server: join the thread via :meth:`stop`."""

    def __init__(self, server: ServiceServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def socket_path(self) -> Optional[str]:
        return self.server.config.socket_path

    @property
    def endpoints(self) -> Tuple[str, ...]:
        return self.server.endpoints

    def stop(self, timeout: float = 10.0) -> None:
        if not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:
                pass  # loop closed between the check and the call
        self._thread.join(timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False


def start_in_thread(config: ServiceConfig,
                    ready_timeout: float = 30.0) -> ServiceHandle:
    """Run a :class:`ServiceServer` on a daemon thread with its own
    event loop; returns once the sockets are bound.  The embedded mode
    behind the tests, the docs snippets, and in-process load drives.

        >>> import tempfile, os
        >>> from repro.service import ServiceConfig, PoolConfig
        >>> from repro.service.client import ServiceClient
        >>> path = os.path.join(tempfile.mkdtemp(), "repro.sock")
        >>> config = ServiceConfig(socket_path=path,
        ...     pool=PoolConfig(workers=1, executor="thread"))
        >>> with start_in_thread(config) as handle:
        ...     with ServiceClient(socket_path=path) as client:
        ...         response = client.request({"op": "status"})
        >>> response["type"], response["status"]["served"]
        ('status', 0)
    """
    ready = threading.Event()
    startup_error = []
    holder: Dict[str, Any] = {}

    def runner():
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = ServiceServer(config)
        holder["loop"] = loop
        holder["server"] = server
        try:
            loop.run_until_complete(server.start())
        except Exception as exc:
            startup_error.append(exc)
            ready.set()
            loop.close()
            return
        ready.set()
        try:
            loop.run_until_complete(server.serve_until_stopped())
        finally:
            loop.close()

    thread = threading.Thread(target=runner, name="repro-service",
                              daemon=True)
    thread.start()
    if not ready.wait(ready_timeout):
        raise RuntimeError("service failed to start within "
                           f"{ready_timeout}s")
    if startup_error:
        raise startup_error[0]
    return ServiceHandle(holder["server"], holder["loop"], thread)
