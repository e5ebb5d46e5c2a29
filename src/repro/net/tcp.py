"""Real TCP transport over loopback.

The same per-connection handlers that serve the in-process transport serve
real sockets here: the server accepts connections, reads length-prefixed
frames, feeds them to a fresh handler, and writes the response frames back.
This demonstrates the GridBank server is an actual network service (the
"easy web service" of the reproduction brief), not only a simulated one.

Dispatch runs on the connection's own thread: each frame goes through the
handler's three phases (``prepare`` / ``complete`` / ``seal``, see
:mod:`repro.net.rpc`) and its answer is written before the next frame is
read. A client has one request in flight, so there is nothing to hand off;
a second frame sent before the first is answered waits in the socket and
is answered after it, in wire order.

Shutdown is deterministic: ``close()`` stops accepting, half-closes every
live connection so its thread answers the frames it has already received
and exits, then joins the threads; any thread that survives the join is
logged loudly instead of being leaked silently.
"""

from __future__ import annotations

import socket
import threading
from typing import Callable, Optional

from repro.errors import ProtocolError, TransportError, TransportTimeout
from repro.net.message import frame, unframe_stream
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger

__all__ = ["TCPServer", "TCPClientConnection"]

_log = get_logger("net.tcp")


class TCPServer:
    """Threaded TCP front-end for a handler factory.

    ``with TCPServer(endpoint.connection_handler) as server: ...`` listens
    on an ephemeral loopback port; :attr:`address` is ``(host, port)``.
    Each connection's thread runs its requests one at a time, in wire
    order. *max_connections* caps live connection threads — accepts past
    the cap are closed at the door
    (``net.overload_rejections{reason=connections}``) rather than
    spawning yet another stack. *idle_timeout* arms a socket
    timeout on every connection so a stalled peer (slow loris or dead
    client) releases its thread instead of parking in ``recv`` forever.
    """

    backend = "threads"

    def __init__(
        self,
        handler_factory: Callable[[], object],
        host: str = "127.0.0.1",
        port: int = 0,
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
        self._conn_gauge.add(1)
        try:
            for payload in unframe_stream(conn.recv):
                kind, value = handler.prepare(payload)
                if kind == "call":
                    value = handler.seal(handler.complete(value))
                if value is None:
                    break
                conn.sendall(frame(value))
        except TimeoutError:
            # idle_timeout fired: a slow loris (or dead peer) gets reaped
            # so the thread it was holding goes back to the accept budget
            self._reaped.inc()
        except (ProtocolError, OSError):
            pass
        except Exception as exc:  # noqa: BLE001 - a handler bug must not kill the thread
            _log.error("tcp.serve.unexpected_error", error=type(exc).__name__, reason=str(exc))
        finally:
            handler.close()
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
            self._conn_gauge.add(-1)
            with self._lock:
                self._workers.pop(threading.current_thread(), None)

    def close(self) -> None:
        """Deterministic shutdown, same contract as the async backend:
        reject new accepts, stop intake, let each connection finish the
        request it is running (its response still gets written), then
        join every worker — escalating to a force-close, and finally a
        loud log, for any that wedge."""
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
        # half-close the read side only: frames already received are still
        # read and answered, then recv() returns EOF and the serve loop
        # exits at a frame boundary with the write side still usable —
        # every request the server accepted gets its response on the wire
        for _worker, conn in live:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        for worker, conn in live:
            worker.join(timeout=5)
            if worker.is_alive():
                # drain wedged (peer stopped reading, handler stuck):
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

    def __enter__(self) -> "TCPServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TCPClientConnection:
    """Client connection satisfying the same interface as the in-process one
    (``request(bytes) -> bytes``, made of the ``send_frame`` / ``recv_frame``
    halves), usable directly by :class:`RPCClient`.

    One persistent unframing iterator spans the connection's lifetime, so
    a frame delivered across several TCP segments is reassembled
    correctly even when reads interleave with new requests."""

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
