"""Real TCP transport over loopback.

The same per-connection handlers that serve the in-process transport serve
real sockets here: the server accepts connections, reads length-prefixed
frames, feeds them to a fresh handler, and writes the response frames back.
This demonstrates the GridBank server is an actual network service (the
"easy web service" of the reproduction brief), not only a simulated one.

Pipelining: handlers exposing the three-phase interface (``prepare`` /
``complete`` / ``seal``, see :mod:`repro.net.rpc`) get their requests
dispatched on a small shared worker pool — ``prepare`` runs serially in
the connection's read thread (the secure channel unwraps records in wire
order), ``complete`` runs on the pool, and ``seal`` + transmit happen
under a per-connection send lock so response sequence numbers match wire
order. Handlers with only ``handle`` are served serially as before. An
in-flight semaphore bounds per-connection queued work, and connection
teardown drains it so no dispatch outlives its socket silently.

Shutdown is deterministic: ``close()`` stops accepting, force-closes every
live connection socket (unblocking workers stuck in ``recv``), then joins
the workers; any thread that survives the join is logged loudly instead of
being leaked silently.
"""

from __future__ import annotations

import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from typing import Optional

from repro.errors import ProtocolError, TransportError, TransportTimeout
from repro.net.message import frame, unframe_stream
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger

__all__ = ["TCPServer", "TCPClientConnection", "MAX_INFLIGHT"]

_log = get_logger("net.tcp")

#: unanswered requests a single connection may have queued, on either
#: front end; the reader stops reading at the bound (backpressure)
MAX_INFLIGHT = 32


class TCPServer:
    """Threaded TCP front-end for a handler factory.

    ``with TCPServer(endpoint.connection_handler) as server: ...`` listens
    on an ephemeral loopback port; :attr:`address` is ``(host, port)``.
    *workers* sizes the shared dispatch pool used for pipelined handlers
    (0 disables pipelined dispatch entirely); :data:`MAX_INFLIGHT` bounds
    the number of unanswered requests a single connection may queue.
    *max_connections* caps live connection threads — accepts past the cap
    are closed at the door (``net.overload_rejections{reason=connections}``)
    rather than spawning yet another stack. *idle_timeout* arms a socket
    timeout on every connection so a stalled peer (slow loris or dead
    client) releases its thread instead of parking in ``recv`` forever.
    """

    backend = "threads"

    def __init__(
        self,
        handler_factory: Callable[[], object],
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        max_connections: Optional[int] = None,
        idle_timeout: Optional[float] = None,
    ) -> None:
        self._factory = handler_factory
        self._max_connections = max_connections
        self._idle_timeout = idle_timeout
        self._accepts = obs_metrics.counter("net.accepts", backend=self.backend)
        self._conn_gauge = obs_metrics.gauge("net.connections_open", backend=self.backend)
        self._shed_connections = obs_metrics.counter(
            "net.overload_rejections", backend=self.backend, reason="connections"
        )
        self._reaped = obs_metrics.counter("net.idle_reaped", backend=self.backend)
        self._pool = (
            ThreadPoolExecutor(max_workers=workers, thread_name_prefix="gridbank-tcp-dispatch")
            if workers > 0
            else None
        )
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        # deep backlog: a C10k connect ramp arrives faster than the accept
        # loop can spawn threads, and backlog overflow turns into seconds
        # of kernel SYN retransmits on loopback
        self._sock.listen(512)
        self.address: tuple[str, int] = self._sock.getsockname()
        self._stop = threading.Event()
        self._lock = threading.Lock()
        # live worker threads and their sockets; entries are removed by the
        # worker itself on exit so close() only deals with true survivors
        self._workers: dict[threading.Thread, socket.socket] = {}
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # socket closed during shutdown
            if self._stop.is_set():
                conn.close()
                return
            self._accepts.inc()
            if self._max_connections is not None:
                with self._lock:
                    at_capacity = len(self._workers) >= self._max_connections
                if at_capacity:
                    # admission control: close at the door instead of
                    # spawning a thread we cannot afford; the client sees
                    # a reset, which the retry classifier calls retryable
                    self._shed_connections.inc()
                    conn.close()
                    continue
            if self._idle_timeout is not None:
                conn.settimeout(self._idle_timeout)
            worker = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            with self._lock:
                self._workers[worker] = conn
            worker.start()

    def _serve(self, conn: socket.socket) -> None:
        handler = self._factory()
        try:
            handler.transport_backend = self.backend
        except AttributeError:
            pass
        send_lock = threading.Lock()
        inflight = threading.BoundedSemaphore(MAX_INFLIGHT)
        prepare = getattr(handler, "prepare", None) if self._pool is not None else None
        self._conn_gauge.add(1)
        try:
            for payload in unframe_stream(conn.recv):
                if prepare is None:
                    response = handler.handle(payload)
                    if response is None:
                        break
                    with send_lock:
                        conn.sendall(frame(response))
                    continue
                kind, value = prepare(payload)
                if kind != "call":
                    if value is None:
                        break
                    with send_lock:
                        conn.sendall(frame(value))
                    continue
                inflight.acquire()
                try:
                    self._pool.submit(self._dispatch, handler, value, conn, send_lock, inflight)
                except RuntimeError:  # pool shut down mid-serve
                    inflight.release()
                    break
        except TimeoutError:
            # idle_timeout fired: a slow loris (or dead peer) gets reaped
            # so the thread it was holding goes back to the accept budget
            self._reaped.inc()
        except (ProtocolError, OSError):
            pass
        finally:
            # drain in-flight dispatches before tearing the socket down so
            # every accepted request gets its response written (or fails
            # loudly against a peer-closed socket, never silently dropped)
            for _ in range(MAX_INFLIGHT):
                inflight.acquire()
            handler.close()
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
            self._conn_gauge.add(-1)
            with self._lock:
                self._workers.pop(threading.current_thread(), None)

    def _dispatch(self, handler, request: dict, conn: socket.socket, send_lock: threading.Lock, inflight: threading.BoundedSemaphore) -> None:
        try:
            response = handler.complete(request)
            # seal under the send lock: wrapping assigns the response's
            # cipher sequence number, which must match transmit order
            with send_lock:
                conn.sendall(frame(handler.seal(response)))
        except (ProtocolError, OSError):
            pass  # connection is gone; the serve loop owns cleanup
        except Exception as exc:  # noqa: BLE001 - never kill a pool thread
            _log.error("tcp.dispatch.unexpected_error", error=type(exc).__name__, reason=str(exc))
        finally:
            inflight.release()

    def close(self) -> None:
        """Deterministic shutdown, same contract as the async backend:
        reject new accepts, stop intake, drain in-flight dispatches (their
        responses still get written), then join every worker — escalating
        to a force-close, and finally a loud log, for any that wedge."""
        self._stop.set()
        # shutdown() before close(): close() alone does not unblock a
        # thread already parked in accept() on Linux, shutdown() does
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5)
        if self._accept_thread.is_alive():
            _log.error("tcp.shutdown.accept_thread_leaked", address=str(self.address))
        with self._lock:
            live = list(self._workers.items())
        # half-close the read side only: recv() unblocks with EOF, the
        # serve loop exits at a frame boundary and its teardown drains
        # in-flight dispatches with the write side still usable — every
        # request the server accepted gets its response on the wire
        for _worker, conn in live:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        for worker, conn in live:
            worker.join(timeout=5)
            if worker.is_alive():
                # drain wedged (peer stopped reading, dispatch stuck):
                # escalate to a full close, which errors the pending
                # writes and unwedges the worker
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    conn.close()
                except OSError:
                    pass
                worker.join(timeout=5)
            if worker.is_alive():
                _log.error(
                    "tcp.shutdown.worker_leaked",
                    address=str(self.address),
                    thread=worker.name,
                )
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "TCPServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TCPClientConnection:
    """Client connection satisfying the same interface as the in-process one
    (``request(bytes) -> bytes`` plus the ``send_frame``/``recv_frame``
    pipelining split), usable directly by :class:`RPCClient`.

    One persistent unframing iterator spans the connection's lifetime, so
    a frame delivered across several TCP segments is reassembled
    correctly even when reads interleave with new requests — the old
    per-request iterator silently discarded reader state, which under
    pipelining turned a partial read into a truncated-frame crash."""

    def __init__(self, address: tuple[str, int], timeout: float = 10.0) -> None:
        self._sock = socket.create_connection(address, timeout=timeout)
        self._healthy = True
        self._frames = unframe_stream(self._sock.recv)
        self._peer = self._sock.getpeername()

    @property
    def peer(self) -> tuple:
        """The address this connection reached — what an
        :class:`~repro.net.rpc.RPCClient` keys its cached session by."""
        return self._peer

    @property
    def healthy(self) -> bool:
        """False after any socket failure: the stream state is unknown (a
        late response may still arrive), so a retrying client must open a
        fresh connection instead of reusing this one."""
        return self._healthy

    def request(self, payload: bytes) -> bytes:
        self.send_frame(payload)
        return self.recv_frame()

    def send_frame(self, payload: bytes) -> None:
        """Transmit one framed payload without waiting for a response."""
        try:
            self._sock.sendall(frame(payload))
        except TimeoutError as exc:
            self._healthy = False
            raise TransportTimeout(f"tcp send timed out: {exc}") from exc
        except OSError as exc:
            self._healthy = False
            raise TransportError(f"tcp send failed: {exc}") from exc

    def recv_frame(self) -> bytes:
        """Block for the next response frame off the shared reader."""
        try:
            return next(self._frames)
        except StopIteration:
            self._healthy = False
            raise TransportError("service closed the connection") from None
        except TimeoutError as exc:
            # socket.timeout is TimeoutError (an OSError): surface "slow"
            # distinctly from "dead" so the retry classifier can tell them
            # apart — both force a reconnect, but timeouts are retryable
            # against a live server while resets usually mean it is gone.
            # A timeout mid-frame also poisons the reader (bytes already
            # consumed), which `healthy = False` accounts for.
            self._healthy = False
            raise TransportTimeout(f"tcp request timed out: {exc}") from exc
        except ProtocolError:
            self._healthy = False
            raise
        except OSError as exc:
            self._healthy = False
            raise TransportError(f"tcp request failed: {exc}") from exc

    def close(self) -> None:
        self._healthy = False
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
