"""Asyncio TCP front end: one event loop, many thousands of sockets.

The thread-per-connection :class:`~repro.net.tcp.TCPServer` tops out at a
few hundred sockets — each connection costs a stack and a scheduler slot
whether or not it is talking. This backend serves the same framed
transport, sealed-envelope protocol, and three-phase handler interface
from a single event loop running in a background thread, so ten thousand
mostly-idle market participants cost ten thousand small coroutine frames
instead of ten thousand OS threads.

Division of labour — nothing *expensive* ever runs on the loop:

* **loop**: accept, framed reads/writes, timeouts, admission control,
  rate limiting, queueing.
* **worker pool** (a plain :class:`~concurrent.futures.ThreadPoolExecutor`):
  ``prepare`` (channel unwrap), ``complete`` (the bank operation), and
  ``seal`` (channel wrap) — the three phases the threaded backend runs
  back to back on a connection's own thread. Here they are split, with
  an ordering contract of their own:

  - ``prepare`` is awaited *serially per connection* from its reader
    coroutine, so cipher records are unwrapped in wire order;
  - ``complete`` runs concurrently across connections on the pool, up
    to :data:`MAX_INFLIGHT` unanswered requests per connection;
  - ``seal`` and the write *enqueue* happen under the connection's seal
    lock — wrapping assigns the response sequence number, so seal order
    must equal transmit order. Writes are enqueued onto the loop's
    callback queue while the lock is held, and that queue is FIFO, so
    wire order == enqueue order == seal order whether a stage ran on the
    loop or on a pool worker.

Offload is **adaptive**: an executor hop costs more than trivial work
(submit, worker wake-up, loop wake-up — tens of microseconds each on a
busy box), so each stage keeps a moving average of its observed runtime
and is dispatched inline on the loop once it proves cheaper than
``_OFFLOAD_THRESHOLD``. Stages start pessimistic (offloaded) and a stage
that turns expensive again (the average rises) moves back to the pool,
so the loop never blocks longer than roughly the threshold per
misclassified call. A request the handler's ``blocks(request)`` names
(a profiling window) always goes to the pool. Crypto handshakes and
ledger commits stay on the pool; echo-cheap steady-state work skips the
hop entirely.

Timeout enforcement is also off the per-read path: instead of arming a
timer around every read (``wait_for`` allocates a task per call), each
connection stamps ``last_activity`` as frames arrive and a single reaper
coroutine sweeps all connections on a coarse interval, injecting EOF
into any that overstayed their handshake/idle budget.

On top of the port, the production-traffic controls a thread pool never
needed: a connection cap that sheds accepts outright, a bounded dispatch
queue that answers ``Overloaded`` (typed, sealed, retryable) instead of
queueing unboundedly, per-principal token buckets answering
``RateLimited``, and handshake/mid-frame timeouts that reap slow-loris
clients without ever occupying a pool worker.

Shutdown follows the same contract as the threaded backend (and is
tested against both): stop accepting, stop reading, drain every
in-flight dispatch so accepted requests get their response written,
close handlers and sockets, then join the loop thread and pool
deterministically.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time as _time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

from repro.errors import ProtocolError
from repro.net.message import MAX_FRAME, frame, make_error
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger

__all__ = ["AsyncTCPServer", "TokenBucket", "MAX_INFLIGHT"]

_log = get_logger("net.aio")

_LEN = struct.Struct(">I")

#: unanswered requests a single connection may have queued; the reader
#: stops reading at the bound (backpressure)
MAX_INFLIGHT = 32

#: a stage whose average runtime is under this (seconds) runs inline on
#: the loop: an executor hop costs tens of microseconds on a busy box
_OFFLOAD_THRESHOLD = 0.0005
#: how long an overload_signal answer is reused (seconds)
_OVERLOAD_SIGNAL_INTERVAL = 0.25


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second up to ``burst``.

    Single-threaded by construction — each bucket is only touched from
    the event loop, so there is no lock. Time is passed in rather than
    read here so the refill math is testable without sleeping.
    """

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be > 0")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = now

    def try_take(self, now: float, amount: float = 1.0) -> bool:
        """Refill for elapsed time, then take *amount* tokens if present."""
        elapsed = now - self.stamp
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.stamp = now
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False


class _StageCost:
    """Moving average of a dispatch stage's runtime, deciding offload.

    Starts pessimistic (offload to the pool) and flips to inline-on-loop
    once the average proves the stage cheaper than the threshold; flips
    back if it rises again. Observed from both the loop and pool threads
    without a lock — a lost update just delays the flip by one sample.
    """

    __slots__ = ("ema",)

    def __init__(self) -> None:
        self.ema: Optional[float] = None

    def observe(self, seconds: float) -> None:
        ema = self.ema
        self.ema = seconds if ema is None else 0.8 * ema + 0.2 * seconds

    @property
    def offload(self) -> bool:
        return self.ema is None or self.ema >= _OFFLOAD_THRESHOLD


class _Connection:
    """Loop-side state for one accepted socket."""

    __slots__ = ("handler", "blocks", "reader", "writer", "seal_lock", "inflight",
                 "last_activity", "mid_frame", "established")

    def __init__(
        self,
        handler,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.handler = handler
        #: ``(request) -> bool``: calls never run inline (None: no such calls)
        self.blocks = getattr(handler, "blocks", None)
        self.reader = reader
        self.writer = writer
        # a *threading* lock: seal may run on a pool worker or inline on
        # the loop, and whoever seals enqueues the write onto the loop's
        # FIFO callback queue before releasing — wire order == seal order
        self.seal_lock = threading.Lock()
        self.inflight = asyncio.Semaphore(MAX_INFLIGHT)
        self.last_activity = _time.monotonic()
        self.mid_frame = False
        self.established = False


class AsyncTCPServer:
    """Event-loop TCP front end, drop-in beside :class:`TCPServer`.

    Same constructor shape and sync facade (``address``, ``close()``,
    context manager) so callers select a backend without changing code.
    The loop runs in a daemon thread; the constructor blocks until the
    socket is accepting so ``address`` is connectable on return.

    Extra knobs over the threaded backend:

    * ``max_connections`` — accepts past this are closed immediately
      (``net.overload_rejections{reason=connections}``); the client sees
      a reset, which the retry classifier already treats as retryable.
    * ``dispatch_queue`` — bound on requests unwrapped but not yet
      dispatched; when full the request is answered with a sealed
      ``Overloaded`` error instead of queueing (shed strictly before any
      bank effect, so retrying with the same idempotency key is safe).
    * ``rate_limit`` / ``rate_burst`` — per-principal token bucket in
      requests/second, answered with ``RateLimited`` (an ``Overloaded``).
    * ``handshake_timeout`` — budget for any read while the peer is
      unauthenticated AND for finishing a started frame at any time: a
      client stalling mid-frame is a slow loris whether or not it has
      handshaken, and gets reaped without ever holding a pool worker.
    * ``idle_timeout`` — optional cap on silence *between* frames once
      established (``None`` = idle connections may park forever, which
      is the point of an event loop).
    """

    backend = "async"

    def __init__(
        self,
        handler_factory: Callable[[], object],
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        max_connections: Optional[int] = None,
        dispatch_queue: int = 256,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[float] = None,
        handshake_timeout: float = 5.0,
        idle_timeout: Optional[float] = None,
        overload_signal: Optional[Callable[[], bool]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("the async backend needs at least one pool worker")
        if dispatch_queue < 1:
            raise ValueError("dispatch_queue must be >= 1")
        self._factory = handler_factory
        self._max_connections = max_connections
        self._dispatch_queue = dispatch_queue
        self._rate_limit = rate_limit
        self._rate_burst = rate_burst if rate_burst is not None else (rate_limit or 0) * 2
        self._handshake_timeout = handshake_timeout
        self._idle_timeout = idle_timeout
        # optional load-aware admission (e.g. bank.overloaded — True while
        # an SLO objective is paging): consulted at the queue gate, but
        # cached for _OVERLOAD_SIGNAL_INTERVAL seconds so burn-rate
        # evaluation stays off the per-request path
        self._overload_signal = overload_signal
        self._overload_cached = (0.0, False)  # (checked_at, overloaded)
        self._prepare_cost = _StageCost()
        self._complete_cost = _StageCost()
        self._seal_cost = _StageCost()
        # reaper sweep cadence: a quarter of the tightest budget gives at
        # most ~25% overshoot on a reap, floored so tiny test timeouts do
        # not spin the loop and capped so huge budgets still sweep
        budgets = [handshake_timeout] + ([idle_timeout] if idle_timeout else [])
        self._reap_interval = max(0.05, min(min(budgets) / 4.0, 1.0))
        self._pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="gridbank-aio-dispatch")
        self._workers = workers
        # bind synchronously so `address` is final before the loop spins up
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(512)
        self.address: tuple[str, int] = self._sock.getsockname()

        self._open_connections = 0
        self._buckets: dict[str, TokenBucket] = {}
        self._conn_tasks: set[asyncio.Task] = set()
        self._connections: set[_Connection] = set()
        self._closed = False
        self._close_lock = threading.Lock()

        self._accepts = obs_metrics.counter("net.accepts", backend="async")
        self._conn_gauge = obs_metrics.gauge("net.connections_open", backend="async")
        self._queue_gauge = obs_metrics.gauge("net.dispatch_queue_depth", backend="async")
        self._shed_connections = obs_metrics.counter(
            "net.overload_rejections", backend="async", reason="connections"
        )
        self._shed_queue = obs_metrics.counter(
            "net.overload_rejections", backend="async", reason="queue"
        )
        self._shed_slo = obs_metrics.counter(
            "net.overload_rejections", backend="async", reason="slo"
        )
        self._rate_limited = obs_metrics.counter("net.rate_limited", backend="async")
        self._reaped = obs_metrics.counter("net.idle_reaped", backend="async")

        self._loop = asyncio.new_event_loop()
        self._stop_event: Optional[asyncio.Event] = None  # created on the loop
        started = threading.Event()
        boot_error: list[BaseException] = []
        self._thread = threading.Thread(
            target=self._run_loop, args=(started, boot_error),
            name="gridbank-aio-loop", daemon=True,
        )
        self._thread.start()
        started.wait(timeout=10)
        if boot_error:
            self._thread.join(timeout=5)
            raise boot_error[0]

    # -- loop thread ----------------------------------------------------------

    def _run_loop(self, started: threading.Event, boot_error: list) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main(started, boot_error))
        finally:
            # always release the constructor, even on a boot crash
            started.set()
            self._loop.close()

    async def _main(self, started: threading.Event, boot_error: list) -> None:
        self._stop_event = asyncio.Event()
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=self._dispatch_queue)
        try:
            server = await asyncio.start_server(self._on_connection, sock=self._sock)
        except OSError as exc:
            boot_error.append(exc)
            return
        dispatchers = [
            self._loop.create_task(self._dispatch_loop(), name=f"aio-dispatch-{i}")
            for i in range(self._workers)
        ]
        reaper = self._loop.create_task(self._reaper_loop(), name="aio-reaper")
        started.set()
        await self._stop_event.wait()
        reaper.cancel()
        # -- shutdown contract (mirrors TCPServer.close, in order) ------------
        # 1. reject new accepts
        server.close()
        await server.wait_closed()
        # 2. stop intake at a frame boundary: inject EOF into every stream
        #    reader (the async twin of the threaded backend's SHUT_RD).
        #    Frames already received keep flowing through prepare/queue,
        #    each reader then falls off its loop cleanly and its teardown
        #    drains the connection's in-flight dispatches — every accepted
        #    request gets its response written before the socket goes away
        for conn in list(self._connections):
            try:
                transport = conn.writer.transport
                if transport is not None:
                    transport.pause_reading()
                conn.reader.feed_eof()
            except (RuntimeError, AssertionError):
                pass  # transport already closing
        if self._conn_tasks:
            _done, pending = await asyncio.wait(set(self._conn_tasks), timeout=10)
            if pending:
                # a connection refused to quiesce (peer stopped reading
                # its responses, most likely): escalate to cancellation,
                # like the threaded backend's force-close fallback
                _log.error("aio.shutdown.connections_wedged", count=len(pending))
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
        # 3. dispatch queue is drained by construction (every queued item
        #    held an inflight permit a reader just re-acquired); now stop
        #    the dispatchers
        for task in dispatchers:
            task.cancel()
        await asyncio.gather(reaper, *dispatchers, return_exceptions=True)

    # -- connection lifecycle -------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._accepts.inc()
        if self._max_connections is not None and self._open_connections >= self._max_connections:
            # admission control: shed at the door. No protocol bytes are
            # owed yet, so a hard close is cheapest — the client sees a
            # reset/EOF, which is already classified retryable.
            self._shed_connections.inc()
            writer.close()
            return
        self._open_connections += 1
        self._conn_gauge.add(1)
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        handler = self._factory()
        try:
            handler.transport_backend = self.backend
        except AttributeError:
            pass
        conn = _Connection(handler, reader, writer)
        self._connections.add(conn)
        try:
            await self._read_loop(reader, conn)
        except (asyncio.CancelledError, ProtocolError):
            pass  # server shutdown or a malformed frame; fall through to drain + close
        except Exception as exc:  # noqa: BLE001 - a reader bug must not leak the conn
            _log.error("aio.reader.unexpected_error", error=type(exc).__name__, reason=str(exc))
        finally:
            try:
                # drain: re-acquire every permit so no dispatch outlives
                # the socket silently
                for _ in range(MAX_INFLIGHT):
                    await conn.inflight.acquire()
            except asyncio.CancelledError:
                pass  # cancelled again mid-drain: give up gracefully
            handler.close()
            writer.close()
            self._open_connections -= 1
            self._conn_gauge.add(-1)
            self._connections.discard(conn)
            self._conn_tasks.discard(task)

    async def _reaper_loop(self) -> None:
        """Sweep every connection for an overstayed timeout budget.

        Timeout policy: silence *between* frames is billed against the
        handshake timeout until the peer authenticates, then against the
        (optional) idle timeout. A started-but-unfinished frame is always
        billed against the handshake timeout — stalling mid-frame is the
        slow-loris signature regardless of authentication state. One
        coarse sweeper replaces a ``wait_for`` timer per read: at 10k
        connections that is 20k fewer task allocations per second of
        traffic, for at most ~25% overshoot on reap latency.
        """
        while True:
            await asyncio.sleep(self._reap_interval)
            now = _time.monotonic()
            for conn in list(self._connections):
                if conn.mid_frame or not conn.established:
                    budget: Optional[float] = self._handshake_timeout
                else:
                    budget = self._idle_timeout
                if budget is None or now - conn.last_activity <= budget:
                    continue
                self._reaped.inc()
                _log.info(
                    "aio.connection.reaped",
                    phase="mid-frame" if conn.mid_frame
                    else ("idle" if conn.established else "handshake"),
                )
                # inject EOF instead of aborting: the reader falls off its
                # loop at the (broken) frame boundary and teardown closes
                # the socket with FIN, so the peer reads a clean EOF
                try:
                    transport = conn.writer.transport
                    if transport is not None:
                        transport.pause_reading()
                    conn.reader.feed_eof()
                except (RuntimeError, AssertionError):
                    pass  # transport already closing

    async def _read_frame(self, conn: _Connection) -> Optional[bytes]:
        """One framed payload, or ``None`` on EOF / reap / reset."""
        try:
            header = await conn.reader.readexactly(_LEN.size)
            (length,) = _LEN.unpack(header)
            if length > MAX_FRAME:
                raise ProtocolError(f"frame too large: {length} bytes")
            conn.mid_frame = True
            conn.last_activity = _time.monotonic()
            payload = await conn.reader.readexactly(length)
            conn.mid_frame = False
            conn.last_activity = _time.monotonic()
            return payload
        except asyncio.IncompleteReadError:
            return None  # EOF (clean close, reap, or death mid-frame)

    async def _read_loop(self, reader: asyncio.StreamReader, conn: _Connection) -> None:
        handler = conn.handler
        prepare = handler.prepare
        while True:
            try:
                payload = await self._read_frame(conn)
            except (ConnectionError, OSError, ProtocolError):
                return
            if payload is None:
                return
            # phase 1 — serial per connection, in wire order
            if self._prepare_cost.offload:
                kind, value = await self._loop.run_in_executor(
                    self._pool, self._timed_stage, self._prepare_cost, prepare, payload
                )
            else:
                started = _time.perf_counter()
                kind, value = prepare(payload)
                self._prepare_cost.observe(_time.perf_counter() - started)
            subject = getattr(handler, "peer_subject", None)
            if kind != "call":
                if value is None:
                    return
                if not await self._write(conn, value):
                    return
                conn.established = conn.established or subject is not None
                continue
            conn.established = True
            request_id = value.get("id", 0) if isinstance(value, dict) else 0
            # per-principal rate limit, charged before the queue so one
            # chatty principal cannot convert its excess into queue depth
            if self._rate_limit is not None and subject is not None:
                bucket = self._buckets.get(subject)
                if bucket is None:
                    bucket = self._buckets[subject] = TokenBucket(
                        self._rate_limit, self._rate_burst, _time.monotonic()
                    )
                if not bucket.try_take(_time.monotonic()):
                    self._rate_limited.inc()
                    await self._shed_reply(
                        conn,
                        make_error(
                            request_id,
                            "RateLimited",
                            f"principal {subject!r} exceeded {self._rate_limit:g} req/s",
                        ),
                    )
                    continue
            if self._overload_signal is not None and self._slo_overloaded():
                self._shed_slo.inc()
                await self._shed_reply(
                    conn,
                    make_error(request_id, "Overloaded", "server is paging its SLO; retry with backoff"),
                )
                continue
            # per-connection backpressure: cap unanswered requests
            await conn.inflight.acquire()
            try:
                self._queue.put_nowait((conn, value))
                self._queue_gauge.set(float(self._queue.qsize()))
            except asyncio.QueueFull:
                # global backpressure: the dispatch queue is the server's
                # commitment ledger — full means "answer later" would be a
                # lie, so shed NOW with a typed, sealed, retryable error.
                # Nothing has touched the bank yet, so the client's
                # idempotent re-send is safe by construction.
                conn.inflight.release()
                self._shed_queue.inc()
                await self._shed_reply(
                    conn,
                    make_error(request_id, "Overloaded", "dispatch queue full; retry with backoff"),
                )

    def _slo_overloaded(self) -> bool:
        """Cached read of the external overload signal (loop thread only)."""
        now = _time.monotonic()
        checked_at, overloaded = self._overload_cached
        if now - checked_at >= _OVERLOAD_SIGNAL_INTERVAL:
            assert self._overload_signal is not None
            try:
                overloaded = bool(self._overload_signal())
            except Exception:  # noqa: BLE001 - a broken signal must not kill reads
                overloaded = False
            self._overload_cached = (now, overloaded)
        return overloaded

    # -- dispatch -------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            conn, request = await self._queue.get()
            self._queue_gauge.set(float(self._queue.qsize()))
            try:
                # phases 2+3 fused into one pool hop (or run inline once
                # the stage has proven itself cheap): complete, then seal
                # and enqueue the write under the connection's seal lock
                if self._complete_cost.offload or (
                    conn.blocks is not None and conn.blocks(request)
                ):
                    await self._loop.run_in_executor(
                        self._pool, self._complete_and_send, conn, request
                    )
                else:
                    self._complete_and_send(conn, request)
            except (ConnectionError, OSError, ProtocolError):
                pass  # connection is gone; its reader owns cleanup
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - never kill a dispatcher
                _log.error("aio.dispatch.unexpected_error", error=type(exc).__name__, reason=str(exc))
            finally:
                conn.inflight.release()

    @staticmethod
    def _timed_stage(cost: _StageCost, fn, arg):
        """Run one stage on a pool worker, timing the work itself (the
        executor hop is deliberately excluded — the average must reflect
        the stage's cost, not the offload overhead being weighed)."""
        started = _time.perf_counter()
        result = fn(arg)
        cost.observe(_time.perf_counter() - started)
        return result

    def _complete_and_send(self, conn: _Connection, request) -> None:
        """Phases 2+3: runs on a pool worker or inline on the loop.

        Seal order must equal wire order (sealing assigns the response's
        cipher sequence number), so the write is enqueued onto the loop's
        FIFO callback queue *while the seal lock is still held* — two
        responses sealed A-then-B are enqueued A-then-B no matter which
        thread sealed them.
        """
        started = _time.perf_counter()
        response = conn.handler.complete(request)
        with conn.seal_lock:
            payload = frame(conn.handler.seal(response))
            self._enqueue_write(conn, payload)
        self._complete_cost.observe(_time.perf_counter() - started)

    async def _shed_reply(self, conn: _Connection, response: bytes) -> None:
        """Seal and send a pre-dispatch rejection (Overloaded/RateLimited)."""
        if self._seal_cost.offload:
            await self._loop.run_in_executor(self._pool, self._seal_and_send, conn, response)
        else:
            self._seal_and_send(conn, response)

    def _seal_and_send(self, conn: _Connection, response: bytes) -> None:
        started = _time.perf_counter()
        with conn.seal_lock:
            payload = frame(conn.handler.seal(response))
            self._enqueue_write(conn, payload)
        self._seal_cost.observe(_time.perf_counter() - started)

    def _enqueue_write(self, conn: _Connection, payload: bytes) -> None:
        # call_soon_threadsafe is safe from the loop thread too, and using
        # it unconditionally keeps every write on the one FIFO queue that
        # guarantees the seal-order contract
        try:
            self._loop.call_soon_threadsafe(self._write_frame, conn, payload)
        except RuntimeError:
            pass  # loop already closed: shutdown drained what it could

    def _write_frame(self, conn: _Connection, payload: bytes) -> None:
        if not conn.writer.is_closing():
            conn.writer.write(payload)

    async def _write(self, conn: _Connection, payload: bytes) -> bool:
        """Unsealed inline write (handshake replies), loop thread only."""
        try:
            conn.writer.write(frame(payload))
            await conn.writer.drain()
            return True
        except (ConnectionError, OSError):
            return False

    # -- sync facade ----------------------------------------------------------

    def close(self) -> None:
        """Deterministic shutdown: reject accepts, drain in-flight
        dispatches, close every connection, join loop thread and pool."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._stop_event is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            _log.error("aio.shutdown.loop_thread_leaked", address=str(self.address))
        self._pool.shutdown(wait=True)
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "AsyncTCPServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
