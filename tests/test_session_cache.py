"""Single sign-on that is paid once: the process-wide client session cache.

The stopwatch-free gate for the handshake saving is the count test: a
second client for the same principal reaches its first sealed request in
one round trip with no RSA private operation on either side. The rest
pins what the fast path must still refuse — everything the full
handshake refuses that needs no RSA.
"""

import gc
import random
import sys
import threading

import pytest

from repro.crypto.rsa import RSAPrivateKey
from repro.errors import AuthenticationError
from repro.gsi.authorization import SubjectListPolicy
from repro.net.rpc import (
    ConnectionRefused,
    RPCClient,
    ServiceEndpoint,
    _Session,
    session_cache,
)
from repro.net.tcp import TCPClientConnection, TCPServer
from repro.net.transport import InProcessNetwork
from repro.obs import metrics as obs_metrics
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.proxy import issue_proxy
from repro.pki.validation import CertificateStore
from repro.util.gbtime import VirtualClock
from repro.util.serialize import canonical_dumps

SVC = "bank.example.org"


@pytest.fixture()
def world(ca_keypair, keypair_a, keypair_b, keypair_c):
    clock = VirtualClock()
    ca = CertificateAuthority(
        DistinguishedName("GridBank", "Root CA"), clock=clock, keypair=ca_keypair
    )
    w = {
        "clock": clock,
        "ca": ca,
        # the two ends trust the same root through stores of their own,
        # as two processes would
        "server_store": CertificateStore([ca.root_certificate]),
        "client_store": CertificateStore([ca.root_certificate]),
        "bank": ca.issue_identity(DistinguishedName("GridBank", "server"), keypair=keypair_a),
        "alice": ca.issue_identity(DistinguishedName("VO-A", "alice"), keypair=keypair_b),
        "bob": ca.issue_identity(DistinguishedName("VO-A", "bob"), keypair=keypair_c),
        "network": InProcessNetwork(),
    }
    w["policy"] = SubjectListPolicy([w["alice"].subject, w["bob"].subject])
    w["endpoint"] = serve(w)
    return w


def serve(world, seed=7) -> ServiceEndpoint:
    """(Re)start the service at ``SVC``: a new endpoint knows no tickets."""
    endpoint = ServiceEndpoint(
        world["bank"], world["server_store"], world["policy"],
        clock=world["clock"], rng=random.Random(seed),
    )
    endpoint.register("add", lambda subject, params: params["a"] + params["b"])
    world["network"].unlisten(SVC)
    world["network"].listen(SVC, endpoint.connection_handler)
    return endpoint


def client_for(world, credential=None, store=None, seed=88, reconnect=True) -> RPCClient:
    network = world["network"]
    return RPCClient(
        network.connect(SVC),
        credential if credential is not None else world["alice"],
        store if store is not None else world["client_store"],
        clock=world["clock"],
        rng=random.Random(seed),
        reconnect=(lambda: network.connect(SVC)) if reconnect else None,
    )


def drop_connection(client: RPCClient) -> None:
    client._connection.close()


@pytest.fixture()
def private_ops(monkeypatch):
    """Count every RSA private operation (sign or decrypt) in the process."""
    calls = []
    real = RSAPrivateKey.decrypt_int

    def counting(self, c):
        calls.append(self)
        return real(self, c)

    monkeypatch.setattr(RSAPrivateKey, "decrypt_int", counting)
    return calls


class TestSecondClientResumes:
    def test_new_client_new_connection_one_round_trip_no_rsa(self, world, private_ops):
        first = client_for(world)
        first.connect()
        assert len(private_ops) == 3  # server: challenge proof + decrypt; client: exchange proof
        first.close()
        del private_ops[:]
        accepted = obs_metrics.counter("gsi.resume.accepted")
        before = accepted.value

        second = client_for(world, seed=89)
        second.connect()
        assert accepted.value == before + 1
        assert private_ops == []
        assert second._connection.stats.messages_sent == 1  # before the first sealed request
        assert second.call("add", a=2, b=3) == 5
        assert world["endpoint"].accepted_connections == 2

    def test_second_client_over_tcp_resumes(self, world):
        with TCPServer(world["endpoint"].connection_handler) as server:
            resumes = obs_metrics.counter("rpc.client.resumes")
            before = resumes.value
            for seed in (1, 2):
                client = RPCClient(
                    TCPClientConnection(server.address), world["alice"], world["client_store"],
                    clock=world["clock"], rng=random.Random(seed),
                )
                client.connect()
                assert client.call("add", a=seed, b=1) == seed + 1
                client.close()
            assert resumes.value == before + 1

    def test_connection_without_a_peer_caches_nothing(self, world):
        class Anonymous:
            """A transport that cannot say whom it reached."""

            def __init__(self, inner):
                self.request, self.close = inner.request, inner.close

        for _ in range(2):
            client = RPCClient(
                Anonymous(world["network"].connect(SVC)), world["alice"], world["client_store"],
                clock=world["clock"], rng=random.Random(5),
            )
            client.connect()
        assert len(session_cache) == 0
        assert len(world["endpoint"].session_tickets) == 2  # two full handshakes


class TestNeverAnothersSession:
    def test_other_credential_and_other_store_do_full_handshakes(self, world):
        client_for(world).connect()
        resumes = obs_metrics.counter("rpc.client.resumes")
        before = resumes.value
        bob = client_for(world, credential=world["bob"])
        assert bob.connect() == world["bank"].subject
        assert bob.call("add", a=1, b=1) == 2
        other_store = CertificateStore([world["ca"].root_certificate])
        client_for(world, store=other_store).connect()
        assert resumes.value == before
        assert len(world["endpoint"].session_tickets) == 3
        # and each of the three now has a session of its own
        client_for(world, credential=world["bob"]).connect()
        client_for(world, store=other_store).connect()
        assert resumes.value == before + 2

    def test_renewed_proxy_is_a_new_principal(self, world):
        client_for(world, credential=issue_proxy(world["alice"], clock=world["clock"])).connect()
        resumes = obs_metrics.counter("rpc.client.resumes")
        before = resumes.value
        renewed = issue_proxy(world["alice"], clock=world["clock"], rng=random.Random(3))
        client_for(world, credential=renewed).connect()
        assert resumes.value == before

    def test_entries_go_with_their_trust_store(self, world):
        store = CertificateStore([world["ca"].root_certificate])
        client = client_for(world, store=store, reconnect=False)
        client.connect()
        assert len(session_cache) == 1
        del client, store
        gc.collect()
        assert len(session_cache) == 0


class TestResumeRefusesWhatTheHandshakeRefuses:
    """Each of these *succeeds* at the parent commit: a 900 s ticket
    outlived the chain it was minted for and any CRL update after it."""

    def test_expired_proxy(self, world):
        proxy = issue_proxy(world["alice"], clock=world["clock"], lifetime_seconds=10.0)
        client = client_for(world, credential=proxy)
        client.connect()
        drop_connection(client)
        assert client.call("add", a=1, b=1) == 2  # resumes while the proxy lives
        world["clock"].advance(11.0)
        drop_connection(client)
        with pytest.raises(ConnectionRefused, match="expired"):
            client.call("add", a=1, b=1)
        assert len(world["endpoint"].session_tickets) == 0

    def test_serial_revoked_after_the_ticket_was_issued(self, world):
        client = client_for(world)
        client.connect()
        world["server_store"].update_crl(
            world["ca"].root_certificate.subject, [world["alice"].certificate.serial]
        )
        drop_connection(client)
        with pytest.raises(ConnectionRefused, match="revoked"):
            client.call("add", a=1, b=1)

    def test_client_side_server_chain_revoked_or_expired(self, world):
        client = client_for(world)
        client.connect()
        world["client_store"].update_crl(
            world["ca"].root_certificate.subject, [world["bank"].certificate.serial]
        )
        drop_connection(client)
        with pytest.raises(AuthenticationError, match="revoked"):
            client.call("add", a=1, b=1)
        assert len(session_cache) == 0

    def test_ticket_ttl_still_applies(self, world):
        client_for(world).connect()
        world["clock"].advance(901.0)
        misses = obs_metrics.counter("gsi.resume.missed")
        before = misses.value
        client_for(world).connect()  # client entry aged out: no resume attempted
        assert misses.value == before
        assert len(world["endpoint"].session_tickets) == 2

    def test_subject_the_policy_dropped(self, world):
        client_for(world).connect()
        world["policy"].discard(world["alice"].subject)
        with pytest.raises(ConnectionRefused, match="subject not authorized"):
            client_for(world).connect()


class TestMissAndImpostor:
    def test_restarted_server_costs_one_extra_round_trip(self, world):
        client_for(world).connect()
        key = ((world["network"].connect(SVC).peer, world["alice"].certificate.signature), world["client_store"])
        stale = session_cache.get(*key, world["clock"].epoch())
        restarted = serve(world, seed=8)
        misses = obs_metrics.counter("rpc.client.resume_misses")
        before = misses.value

        client = client_for(world, reconnect=False)
        client.connect()
        assert misses.value == before + 1
        # resume_miss, then hello/challenge and exchange/established, all on
        # the connection the client arrived with
        assert client._connection.stats.messages_sent == 3
        assert restarted.accepted_connections == 1
        fresh = session_cache.get(*key, world["clock"].epoch())
        assert fresh.ticket != stale.ticket and len(session_cache) == 1
        assert client.call("add", a=20, b=22) == 42

    def test_resumed_without_the_master_secret_is_an_authentication_error(self, world):
        client_for(world).connect()

        class Impostor:
            def handle(self, payload):
                return canonical_dumps({
                    "kind": "resumed", "subject": world["bank"].subject,
                    "nonce": b"\x01" * 32, "mac": b"\x02" * 32,
                })

            def close(self):
                pass

        world["network"].unlisten(SVC)
        world["network"].listen(SVC, Impostor)
        with pytest.raises(AuthenticationError, match="resumption proof"):
            client_for(world, reconnect=False).connect()


class TestBoundAndWireFormat:
    def test_sixty_fifth_principal_evicts_the_first(self, world):
        client_for(world).connect()
        peer = world["network"].connect(SVC).peer
        store, now = world["client_store"], world["clock"].epoch()
        session = session_cache.get((peer, world["alice"].certificate.signature), store, now)
        session_cache.clear()
        for i in range(session_cache.capacity + 1):
            session_cache.put((peer, b"leaf-%d" % i), store, session)
        assert len(session_cache) == session_cache.capacity == 64
        assert session_cache.get((peer, b"leaf-0"), store, now) is None
        assert session_cache.get((peer, b"leaf-1"), store, now) is session
        # a lookup is a use: leaf-1 is now the newest, leaf-2 the next to go
        session_cache.put((peer, b"leaf-65"), store, session)
        assert session_cache.get((peer, b"leaf-2"), store, now) is None
        assert session_cache.get((peer, b"leaf-1"), store, now) is session

    def test_resumption_mac_is_rfc2104_hmac_sha256(self):
        # computed at the parent commit with its hand-rolled construction
        session = _Session("/O=GridBank/CN=server", bytes(range(32)), 0.0, ())
        mac = session.proof(b"gsi-resume-client", b"ticket-0001", bytes(range(32, 64)))
        assert mac.hex() == "209fe0682d024d58633b02ce060819f8c6c099ceedfe548b61f84c4ec78bacca"
        assert session.proves(mac, b"gsi-resume-client", b"ticket-0001", bytes(range(32, 64)))
        assert not session.proves(mac[:-1] + b"\x00", b"gsi-resume-client", b"ticket-0001", bytes(range(32, 64)))
        assert not session.proves(mac.hex(), b"gsi-resume-client", b"ticket-0001", bytes(range(32, 64)))
        assert not session.proves(None, b"gsi-resume-client")


def test_many_threads_share_the_cache(world):
    """More workers than cores all signing on as two principals at once:
    every connect succeeds and the cache ends with exactly their entries."""
    errors: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def worker(index: int) -> None:
        try:
            for turn in range(15):
                who = world["alice"] if (index + turn) % 2 else world["bob"]
                client = client_for(world, credential=who, seed=index * 100 + turn, reconnect=False)
                client.connect()
                assert client.call("add", a=index, b=turn) == index + turn
                client.close()
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(session_cache) == 2
