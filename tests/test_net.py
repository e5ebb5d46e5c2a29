"""Unit + integration tests for transports and secure RPC."""

import random
import threading

import pytest

from repro.errors import (
    InsufficientFundsError,
    PaymentError,
    ProtocolError,
    RPCError,
    TransportError,
)
from repro.gsi.authorization import AllowAllPolicy, SubjectListPolicy
from repro.net.aio import AsyncTCPServer
from repro.net.message import frame, make_request, parse_payload, unframe_stream
from repro.net.rpc import ConnectionRefused, RPCClient, ServiceEndpoint
from repro.net.tcp import TCPClientConnection, TCPServer
from repro.net.transport import FaultPlan, InProcessNetwork
from repro.obs import logging as obs_logging
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.validation import CertificateStore
from repro.util.gbtime import VirtualClock
from repro.util.serialize import canonical_dumps


@pytest.fixture(scope="module")
def world(ca_keypair, keypair_a, keypair_b):
    clock = VirtualClock()
    ca = CertificateAuthority(
        DistinguishedName("GridBank", "Root CA"), clock=clock, keypair=ca_keypair
    )
    alice = ca.issue_identity(DistinguishedName("VO-A", "alice"), keypair=keypair_a)
    server_ident = ca.issue_identity(DistinguishedName("GridBank", "server"), keypair=keypair_b)
    store = CertificateStore([ca.root_certificate])
    return {"clock": clock, "alice": alice, "server": server_ident, "store": store}


def make_endpoint(world, policy=None) -> ServiceEndpoint:
    endpoint = ServiceEndpoint(
        world["server"],
        world["store"],
        policy if policy is not None else AllowAllPolicy(),
        clock=world["clock"],
        rng=random.Random(77),
    )
    endpoint.register("echo", lambda subject, params: {"subject": subject, **params})
    endpoint.register("add", lambda subject, params: params["a"] + params["b"])

    def overdraw(subject, params):
        raise InsufficientFundsError("balance too low")

    def bounce(subject, params):
        raise PaymentError("cheque bounced")

    def explode(subject, params):
        raise KeyError("missing_param")

    endpoint.register("overdraw", overdraw)
    endpoint.register("bounce", bounce)
    endpoint.register("explode", explode)
    return endpoint


def make_client(world, connection) -> RPCClient:
    return RPCClient(
        connection,
        world["alice"],
        world["store"],
        clock=world["clock"],
        rng=random.Random(88),
    )


class TestFraming:
    def test_frame_roundtrip(self):
        payloads = [b"one", b"", b"three" * 100]
        stream = b"".join(frame(p) for p in payloads)
        pos = 0

        def read(n):
            nonlocal pos
            chunk = stream[pos : pos + min(n, 3)]  # dribble 3 bytes at a time
            pos += len(chunk)
            return chunk

        assert list(unframe_stream(read)) == payloads

    def test_truncated_frame_raises(self):
        data = frame(b"hello")[:-2]
        pos = 0

        def read(n):
            nonlocal pos
            chunk = data[pos : pos + n]
            pos += len(chunk)
            return chunk

        with pytest.raises(ProtocolError):
            list(unframe_stream(read))

    def test_oversized_frame_rejected(self):
        with pytest.raises(ProtocolError):
            frame(b"x" * (17 * 1024 * 1024))

    def test_parse_payload_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            parse_payload(b"not json")
        with pytest.raises(ProtocolError):
            parse_payload(b'{"no":"kind"}')
        with pytest.raises(ProtocolError):
            parse_payload(b"[1,2]")
        with pytest.raises(ProtocolError):  # past the recursion limit
            parse_payload(b'{"kind":"gsi","token":' + b"[" * 5000 + b"]" * 5000 + b"}")


class TestInProcessRPC:
    def test_connect_and_call(self, world):
        network = InProcessNetwork()
        endpoint = make_endpoint(world)
        network.listen("bank", endpoint.connection_handler)
        client = make_client(world, network.connect("bank"))
        server_subject = client.connect()
        assert server_subject == world["server"].subject
        assert client.server_subject == world["server"].subject
        result = client.call("echo", x=1)
        assert result == {"subject": world["alice"].subject, "x": 1}
        assert client.call("add", a=2, b=3) == 5

    def test_remote_library_error_reraised_by_class(self, world):
        network = InProcessNetwork()
        network.listen("bank", make_endpoint(world).connection_handler)
        client = make_client(world, network.connect("bank"))
        client.connect()
        with pytest.raises(InsufficientFundsError, match="balance too low"):
            client.call("overdraw")

    def test_remote_payment_error_type_preserved(self, world):
        """Regression: a PaymentError raised inside a server operation must
        surface at the client as PaymentError — the exact class, not a
        generic RPCError — so payment-protocol callers can catch it."""
        network = InProcessNetwork()
        network.listen("bank", make_endpoint(world).connection_handler)
        client = make_client(world, network.connect("bank"))
        client.connect()
        with pytest.raises(PaymentError, match="cheque bounced") as excinfo:
            client.call("bounce")
        assert type(excinfo.value) is PaymentError

    def test_unexpected_server_error_survives_as_rpc_error(self, world):
        """A non-library bug (KeyError) in an operation must not kill the
        connection: the client sees an RPCError naming the remote type and
        the session stays usable."""
        network = InProcessNetwork()
        network.listen("bank", make_endpoint(world).connection_handler)
        client = make_client(world, network.connect("bank"))
        client.connect()
        with pytest.raises(RPCError) as excinfo:
            client.call("explode")
        assert excinfo.value.remote_type == "KeyError"
        assert client.call("add", a=1, b=2) == 3  # connection still alive

    def test_unknown_method(self, world):
        network = InProcessNetwork()
        network.listen("bank", make_endpoint(world).connection_handler)
        client = make_client(world, network.connect("bank"))
        client.connect()
        with pytest.raises((RPCError, ProtocolError)):
            client.call("nonexistent")

    def test_unauthorized_subject_refused(self, world):
        network = InProcessNetwork()
        endpoint = make_endpoint(world, policy=SubjectListPolicy(["/O=Other/CN=someone"]))
        network.listen("bank", endpoint.connection_handler)
        client = make_client(world, network.connect("bank"))
        with pytest.raises(ConnectionRefused, match="not authorized"):
            client.connect()
        assert endpoint.refused_connections == 1
        assert endpoint.accepted_connections == 0

    def test_call_before_connect(self, world):
        network = InProcessNetwork()
        network.listen("bank", make_endpoint(world).connection_handler)
        client = make_client(world, network.connect("bank"))
        with pytest.raises(ProtocolError):
            client.call("echo")

    def test_no_service_at_address(self, world):
        network = InProcessNetwork()
        with pytest.raises(TransportError, match="refused"):
            network.connect("nowhere")

    def test_stats_counted(self, world):
        network = InProcessNetwork()
        network.listen("bank", make_endpoint(world).connection_handler)
        client = make_client(world, network.connect("bank"))
        client.connect()
        base = network.stats.messages_sent
        client.call("add", a=1, b=1)
        assert network.stats.messages_sent == base + 1
        assert network.stats.messages_received >= base + 1
        assert network.stats.connections == 1
        assert network.stats.bytes_sent > 0

    def test_fault_injection_drops(self, world):
        network = InProcessNetwork(
            faults=FaultPlan(drop_request_probability=1.0, rng=random.Random(1))
        )
        network.listen("bank", make_endpoint(world).connection_handler)
        client = make_client(world, network.connect("bank"))
        with pytest.raises(TransportError, match="dropped"):
            client.connect()
        assert network.stats.drops == 1

    def test_closed_connection_rejects_requests(self, world):
        network = InProcessNetwork()
        network.listen("bank", make_endpoint(world).connection_handler)
        conn = network.connect("bank")
        client = make_client(world, conn)
        client.connect()
        client.close()
        with pytest.raises(TransportError):
            conn.request(b"{}")

    def test_duplicate_listen_rejected(self, world):
        network = InProcessNetwork()
        network.listen("bank", make_endpoint(world).connection_handler)
        with pytest.raises(TransportError):
            network.listen("bank", make_endpoint(world).connection_handler)
        network.unlisten("bank")
        network.listen("bank", make_endpoint(world).connection_handler)

    def test_plaintext_after_handshake_refused(self, world):
        network = InProcessNetwork()
        network.listen("bank", make_endpoint(world).connection_handler)
        conn = network.connect("bank")
        client = make_client(world, conn)
        client.connect()
        reply = parse_payload(conn.request(make_request("echo", {}, 1)))
        assert reply["kind"] == "refused"


#: Both socket backends serve the same framed/sealed protocol from the
#: same handler factories; every TCP test runs against each.
SERVER_BACKENDS = {"threads": TCPServer, "async": AsyncTCPServer}


@pytest.fixture(params=sorted(SERVER_BACKENDS))
def server_cls(request):
    return SERVER_BACKENDS[request.param]


class TestTCP:
    def test_rpc_over_real_sockets(self, world, server_cls):
        endpoint = make_endpoint(world)
        with server_cls(endpoint.connection_handler) as server:
            conn = TCPClientConnection(server.address)
            client = make_client(world, conn)
            assert client.connect() == world["server"].subject
            assert client.call("add", a=10, b=5) == 15
            with pytest.raises(InsufficientFundsError):
                client.call("overdraw")
            client.close()

    def test_pipelined_calls_over_real_sockets(self, world, server_cls):
        """Sealed requests written back to back, before any answer, are
        each answered once; plain calls still work afterwards (sequence
        numbers stayed in lockstep on both ends)."""
        endpoint = make_endpoint(world)
        with server_cls(endpoint.connection_handler) as server:
            conn = TCPClientConnection(server.address)
            client = make_client(world, conn)
            client.connect()
            context = client._context
            for i in range(8):
                record = context.wrap(make_request("add", {"a": i, "b": i}, 100 + i))
                conn.send_frame(canonical_dumps({"kind": "sealed", "record": record}))
            replies = [
                parse_payload(context.unwrap(parse_payload(conn.recv_frame())["record"]))
                for _ in range(8)
            ]
            assert sorted((r["id"], r["result"]) for r in replies) == [(100 + i, 2 * i) for i in range(8)]
            assert client.call("add", a=1, b=2) == 3
            client.close()

    def test_multiple_sequential_clients(self, world, server_cls):
        endpoint = make_endpoint(world)
        with server_cls(endpoint.connection_handler) as server:
            for i in range(3):
                conn = TCPClientConnection(server.address)
                client = make_client(world, conn)
                client.connect()
                assert client.call("add", a=i, b=1) == i + 1
                client.close()
        assert endpoint.accepted_connections == 3

    def test_refusal_over_tcp(self, world, server_cls):
        endpoint = make_endpoint(world, policy=SubjectListPolicy())
        with server_cls(endpoint.connection_handler) as server:
            conn = TCPClientConnection(server.address)
            client = make_client(world, conn)
            with pytest.raises(ConnectionRefused):
                client.connect()
            client.close()

    @pytest.mark.parametrize("where", ["pre-handshake", "sealed"])
    def test_deeply_nested_frame_refused_cleanly(self, world, server_cls, where, monkeypatch):
        """A frame nested past the interpreter's recursion limit is one more
        malformed frame: the connection closes (or, sealed, is refused),
        nothing dies with a traceback, nothing is logged as an unexpected
        reader error, and the next client is served."""
        deep = b"[" * 5000 + b"]" * 5000
        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        endpoint = make_endpoint(world)
        with obs_logging.capture() as logs, server_cls(endpoint.connection_handler) as server:
            conn = TCPClientConnection(server.address)
            if where == "sealed":
                client = make_client(world, conn)
                client.connect()
                record = client._context.wrap(deep)
                reply = parse_payload(conn.request(canonical_dumps({"kind": "sealed", "record": record})))
                assert reply["kind"] == "refused"
            else:
                conn.send_frame(deep)
                with pytest.raises(TransportError, match="closed"):
                    conn.recv_frame()
            conn.close()
            following = make_client(world, TCPClientConnection(server.address))
            following.connect()
            assert following.call("add", a=1, b=2) == 3
            following.close()
        assert crashes == []
        assert [event for event in logs.events() if "unexpected_error" in event] == []

    @pytest.mark.parametrize(
        "message",
        [
            {"kind": "gsi"},
            {"kind": "gsi", "token": 5},
            {"kind": "gsi", "token": {"type": "hello"}},
            {"kind": "sealed"},
            {"kind": "sealed", "record": 5},
        ],
        ids=["gsi-no-token", "gsi-int-token", "hello-no-chain", "sealed-no-record", "sealed-int-record"],
    )
    def test_malformed_fields_are_refused(self, world, server_cls, message, monkeypatch):
        """A handshake token or sealed record of the wrong shape is one more
        malformed frame: the peer is refused, nothing dies with a traceback,
        nothing is logged as an unexpected error, and the next client is
        served."""
        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        endpoint = make_endpoint(world)
        with obs_logging.capture() as logs, server_cls(endpoint.connection_handler) as server:
            conn = TCPClientConnection(server.address)
            if message["kind"] == "sealed":
                make_client(world, conn).connect()
            reply = parse_payload(conn.request(canonical_dumps(message)))
            assert reply["kind"] == "refused"
            conn.close()
            following = make_client(world, TCPClientConnection(server.address))
            following.connect()
            assert following.call("add", a=1, b=2) == 3
            following.close()
        assert crashes == []
        assert [event for event in logs.events() if "unexpected_error" in event] == []
