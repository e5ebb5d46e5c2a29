"""Front-end traffic controls: admission, backpressure, rate limiting,
slow-loris reaping, and the shared shutdown contract.

Most tests here drive the servers with a deliberately lightweight
three-phase handler (no GSI, no crypto) so they exercise exactly the
front-end mechanics — queue bounds, timeouts, connection accounting —
without RSA handshakes dominating the runtime. The RPC-level behaviour of
the same servers is covered in test_net.py (parametrized over backends)
and the exactly-once storm in test_chaos_property.py.
"""

import json
import random
import socket
import threading
import time

import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    Overloaded,
    RateLimited,
    TransportError,
)
from repro.bank.server import GridBankServer
from repro.net import frontend_snapshot
from repro.net.aio import AsyncTCPServer, TokenBucket
from repro.net.message import frame, resolve_error_class, unframe_stream
from repro.net.retry import CircuitBreaker, RetryPolicy, is_retryable
from repro.net.rpc import RPCClient
from repro.net.tcp import TCPClientConnection, TCPServer
from repro.obs import metrics as obs_metrics
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.validation import CertificateStore
from repro.util.gbtime import VirtualClock
from repro.util.money import Credits

SERVER_BACKENDS = {"threads": TCPServer, "async": AsyncTCPServer}


@pytest.fixture(params=sorted(SERVER_BACKENDS))
def server_cls(request):
    return SERVER_BACKENDS[request.param]


class EchoHandler:
    """Minimal three-phase handler: parse JSON, echo, no sealing.

    ``peer_subject`` mimics an authenticated principal so the async
    backend's per-principal rate limiting applies to it.
    """

    peer_subject = "/O=Test/CN=loadgen"

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay
        self.closed = False

    def prepare(self, payload):
        return ("call", json.loads(payload))

    def complete(self, request):
        if self.delay:
            time.sleep(self.delay)
        return json.dumps({"kind": "response", "id": request.get("id", 0),
                           "result": request.get("x")}).encode()

    def seal(self, response):
        return response

    def close(self):
        self.closed = True


def send_request(sock: socket.socket, request_id: int, x=None) -> None:
    sock.sendall(frame(json.dumps({"id": request_id, "x": x}).encode()))


def read_responses(sock: socket.socket, count: int, timeout: float = 10.0) -> list[dict]:
    sock.settimeout(timeout)
    frames = unframe_stream(sock.recv)
    return [json.loads(next(frames)) for _ in range(count)]


def open_conns() -> float:
    return frontend_snapshot()["connections_open"]


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=3.0, now=0.0)
        assert [bucket.try_take(0.0) for _ in range(4)] == [True, True, True, False]
        # 0.2s at 10/s refills 2 tokens, capped nowhere near burst
        assert bucket.try_take(0.2)
        assert bucket.try_take(0.2)
        assert not bucket.try_take(0.2)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0, now=0.0)
        assert bucket.try_take(0.0)
        # an hour idle still refills to burst, not rate*elapsed
        assert [bucket.try_take(3600.0) for _ in range(3)] == [True, True, False]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0, now=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0, now=0.0)


class TestOverloadClassification:
    def test_overloaded_is_retryable(self):
        assert is_retryable(Overloaded("queue full"))
        assert is_retryable(RateLimited("bucket empty"))
        assert RetryPolicy().is_retryable(Overloaded("queue full"))
        # terminal classes stay terminal
        assert not RetryPolicy().is_retryable(DeadlineExceeded("late"))
        assert not is_retryable(CircuitOpenError("open"))

    def test_overloaded_resolves_over_the_wire(self):
        assert resolve_error_class("Overloaded") is Overloaded
        assert resolve_error_class("RateLimited") is RateLimited
        assert issubclass(RateLimited, Overloaded)
        assert not issubclass(Overloaded, TransportError)

    def test_breaker_counts_overload_as_success(self):
        """An Overloaded answer proves the endpoint is alive: the breaker
        must NOT open on a shedding-but-healthy server — that would turn
        a load spike into a self-inflicted outage."""
        breaker = CircuitBreaker("frontend", failure_threshold=2, clock=VirtualClock())

        def shed():
            raise Overloaded("dispatch queue full")

        for _ in range(5):
            with pytest.raises(Overloaded):
                breaker.call(shed)
        assert breaker.state == "closed"

    def test_policy_backoff_spaces_overload_retries(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, rng=random.Random(3))
        delays = [policy.backoff(attempt) for attempt in range(1, 5)]
        assert all(d >= 0.0 for d in delays)
        assert max(delays) <= 1.0


class TestDispatchQueueShedding:
    def test_queue_full_answers_typed_overloaded(self):
        """With a one-slot dispatch queue and a slow operation, a burst
        must yield a mix of real responses and typed Overloaded errors —
        every request answered, none hanging, connection intact."""
        before = frontend_snapshot()["overload_rejections"]
        with AsyncTCPServer(lambda: EchoHandler(delay=0.15), workers=1,
                            dispatch_queue=1) as server:
            with socket.create_connection(server.address) as sock:
                for i in range(8):
                    send_request(sock, i, x=i)
                replies = read_responses(sock, 8)
        by_id = {r["id"]: r for r in replies}
        assert sorted(by_id) == list(range(8))
        shed = [r for r in replies if r.get("kind") == "error"]
        served = [r for r in replies if r.get("kind") == "response"]
        assert shed and served, f"expected a mix, got {len(served)} served / {len(shed)} shed"
        assert all(r["error_type"] == "Overloaded" for r in shed)
        assert frontend_snapshot()["overload_rejections"] > before

    def test_connection_cap_sheds_at_the_door(self, server_cls):
        before = frontend_snapshot()["overload_rejections"]
        with server_cls(EchoHandler, max_connections=2) as server:
            keep = [socket.create_connection(server.address) for _ in range(2)]
            # prove both are actually being served (threads backend counts
            # live worker threads, so they must exist before the 3rd connect)
            for i, sock in enumerate(keep):
                send_request(sock, i, x=i)
                assert read_responses(sock, 1)[0]["result"] == i
            extra = socket.create_connection(server.address)
            extra.settimeout(5.0)
            assert extra.recv(1) == b"", "connection over the cap must be closed"
            extra.close()
            for sock in keep:
                sock.close()
        assert frontend_snapshot()["overload_rejections"] > before

    def test_rate_limit_answers_typed_ratelimited(self):
        with AsyncTCPServer(EchoHandler, rate_limit=5.0, rate_burst=3.0) as server:
            with socket.create_connection(server.address) as sock:
                for i in range(10):
                    send_request(sock, i, x=i)
                replies = read_responses(sock, 10)
        limited = [r for r in replies if r.get("kind") == "error"]
        served = [r for r in replies if r.get("kind") == "response"]
        assert served, "burst allowance must serve the first requests"
        assert limited, "a 10-request burst against burst=3 must be limited"
        assert all(r["error_type"] == "RateLimited" for r in limited)
        assert frontend_snapshot()["rate_limited"] > 0


class TestSlowLoris:
    def test_mid_frame_stall_is_reaped(self):
        """A client that sends half a frame and stalls must be reaped by
        the handshake timeout: no pool worker is held (a healthy client
        keeps getting served meanwhile) and the connection gauge returns
        to its baseline — the loris does not leak."""
        baseline = open_conns()
        with AsyncTCPServer(EchoHandler, workers=1, handshake_timeout=0.4) as server:
            loris = socket.create_connection(server.address)
            header = frame(b"x" * 100)[:4]  # announce 100 bytes...
            loris.sendall(header + b"x" * 10)  # ...deliver 10, stall
            # the single pool worker stays available to a healthy client
            # while the loris waits out its timeout
            with socket.create_connection(server.address) as healthy:
                send_request(healthy, 1, x="alive")
                assert read_responses(healthy, 1)[0]["result"] == "alive"
            loris.settimeout(5.0)
            assert loris.recv(1) == b"", "server must close the stalled connection"
            loris.close()
            deadline = time.monotonic() + 5.0
            while open_conns() > baseline and time.monotonic() < deadline:
                time.sleep(0.02)
            assert open_conns() == baseline, "reaped connection leaked the gauge"
        assert frontend_snapshot()["idle_reaped"] > 0

    def test_idle_threads_connection_is_reaped(self):
        """The threaded backend reaps via its per-socket idle timeout, so a
        stalled peer releases its connection thread."""
        with TCPServer(EchoHandler, idle_timeout=0.3) as server:
            sock = socket.create_connection(server.address)
            sock.settimeout(5.0)
            assert sock.recv(1) == b"", "idle connection must be closed"
            sock.close()

    def test_established_idle_timeout_async(self):
        """idle_timeout bounds silence between frames after establishment;
        the default (None) lets idle connections park forever."""
        with AsyncTCPServer(EchoHandler, handshake_timeout=5.0, idle_timeout=0.3) as server:
            sock = socket.create_connection(server.address)
            send_request(sock, 1, x=1)  # "call" marks the conn established
            assert read_responses(sock, 1)[0]["result"] == 1
            sock.settimeout(5.0)
            assert sock.recv(1) == b"", "established-but-idle connection must be reaped"
            sock.close()


class TestOneRequestInFlight:
    def test_second_frame_is_answered_after_the_first(self, server_cls):
        """A second frame sent before the first is answered waits its turn:
        both are answered, in wire order, one after the other. The async
        backend keeps this order with one pool worker; with more it may
        complete one connection's requests side by side (DESIGN §12)."""
        delay = 0.2
        kwargs = {"workers": 1} if server_cls is AsyncTCPServer else {}
        with server_cls(lambda: EchoHandler(delay=delay), **kwargs) as server:
            with socket.create_connection(server.address) as sock:
                started = time.perf_counter()
                send_request(sock, 0, x="first")
                send_request(sock, 1, x="second")
                replies = read_responses(sock, 2)
                elapsed = time.perf_counter() - started
        assert [(r["id"], r["result"]) for r in replies] == [(0, "first"), (1, "second")]
        assert elapsed >= 2 * delay  # served one after the other


class TestShutdownContract:
    def test_close_drains_inflight_and_rejects_new_accepts(self, server_cls):
        """The shared contract: in-flight dispatches get their responses
        written, new accepts are rejected, and close() joins everything
        deterministically (returning at all is the assertion)."""
        kwargs = {"workers": 2} if server_cls is AsyncTCPServer else {}
        server = server_cls(lambda: EchoHandler(delay=0.25), **kwargs)
        sock = socket.create_connection(server.address)
        for i in range(3):
            send_request(sock, i, x=i)
        time.sleep(0.15)  # let the server read all three frames
        closer = threading.Thread(target=server.close)
        closer.start()
        replies = read_responses(sock, 3)
        assert {r["id"] for r in replies} == {0, 1, 2}
        assert all(r["kind"] == "response" for r in replies)
        sock.settimeout(5.0)
        assert sock.recv(1) == b"", "drained connection must then be closed"
        sock.close()
        closer.join(timeout=15)
        assert not closer.is_alive(), "close() must join deterministically"
        with pytest.raises(OSError):
            socket.create_connection(server.address, timeout=1.0)

    def test_close_is_idempotent(self, server_cls):
        server = server_cls(EchoHandler)
        server.close()
        server.close()

    def test_gauge_returns_to_baseline_after_close(self, server_cls):
        baseline = open_conns()
        with server_cls(EchoHandler) as server:
            socks = [socket.create_connection(server.address) for _ in range(4)]
            for i, sock in enumerate(socks):
                send_request(sock, i, x=i)
                assert read_responses(sock, 1)[0]["result"] == i
            assert open_conns() == baseline + 4
            for sock in socks:
                sock.close()
        assert open_conns() == baseline


class TestExactlyOnceOverBackends:
    """Representative exactly-once subset over real sockets, parametrized
    on both backends: a transfer whose response is lost on the wire gets
    retried on a fresh connection with the same idempotency key and lands
    exactly one ledger row. (The full storm suite runs in-process in
    test_exactly_once.py / test_chaos_property.py.)"""

    def test_response_loss_retries_exactly_once(
        self, server_cls, ca_keypair, keypair_a, keypair_b
    ):
        clock = VirtualClock()
        ca = CertificateAuthority(
            DistinguishedName("GridBank", "Root CA"), clock=clock, keypair=ca_keypair
        )
        store = CertificateStore([ca.root_certificate])
        bank = GridBankServer(
            ca.issue_identity(DistinguishedName("GridBank", "server"), keypair=keypair_a),
            store,
            clock=clock,
            rng=random.Random(5),
            open_enrollment=True,
        )
        drop = {"next": False}

        class FlakyConn:
            """Real TCP connection that, when armed, receives a response
            and discards it — the server committed, the client never saw
            the confirmation, exactly the dropped-response failure mode."""

            def __init__(self):
                self._inner = TCPClientConnection(server.address)

            @property
            def healthy(self):
                return self._inner.healthy

            def send_frame(self, payload):
                self._inner.send_frame(payload)

            def recv_frame(self):
                data = self._inner.recv_frame()
                if drop["next"]:
                    drop["next"] = False
                    self._inner.close()
                    raise TransportError("injected response loss")
                return data

            def request(self, payload):
                self.send_frame(payload)
                return self.recv_frame()

            def close(self):
                self._inner.close()

        with server_cls(bank.connection_handler) as server:
            alice = ca.issue_identity(DistinguishedName("VO-A", "alice"), keypair=keypair_b)
            client = RPCClient(
                FlakyConn(),
                alice,
                store,
                clock=clock,
                rng=random.Random(6),
                retry_policy=RetryPolicy(max_attempts=4, rng=random.Random(7)),
                reconnect=FlakyConn,
            )
            client.connect()
            src = client.call("CreateAccount", organization_name="VO-A")["account_id"]
            dst = client.call("CreateAccount", organization_name="VO-A")["account_id"]
            bank.accounts.deposit(src, Credits(100))
            drop["next"] = True
            client.call(
                "RequestDirectTransfer",
                from_account=src, to_account=dst,
                amount=Credits(7), recipient_address="", rur_blob=b"",
            )
            client.close()
        assert bank.accounts.available_balance(dst) == Credits(7)
        assert bank.accounts.available_balance(src) == Credits(93)
        assert bank.db.count("transfers") == 1


class TestFrontendSnapshot:
    def test_rollup_sums_across_backends(self):
        snapshot = {
            "counters": {
                "net.accepts{backend=async}": 7.0,
                "net.accepts{backend=threads}": 3.0,
                "net.overload_rejections{backend=async,reason=queue}": 2.0,
                "net.overload_rejections{backend=async,reason=connections}": 1.0,
                "unrelated.counter": 99.0,
            },
            "gauges": {
                "net.connections_open{backend=async}": 5.0,
                "net.dispatch_queue_depth{backend=async}": 4.0,
            },
        }
        rollup = frontend_snapshot(snapshot)
        assert rollup["accepts"] == 10.0
        assert rollup["overload_rejections"] == 3.0
        assert rollup["connections_open"] == 5.0
        assert rollup["dispatch_queue_depth"] == 4.0
        assert rollup["rate_limited"] == 0.0
