"""Concurrent bank core: striped locks, group-commit WAL, calls over one
connection, session resumption, and the signature-verify cache.

The conservation property tests are the heart: N threads hammering
transfers between shared accounts must neither deadlock nor create or
destroy credits — and a WAL snapshot taken mid-storm must recover to a
state that still conserves the total (every transfer journals as one
atomic line).
"""

import random
import shutil
import socket
import threading
import time

import pytest

from repro.bank.locks import AccountLocks
from repro.bank.server import GridBankServer
from repro.crypto.signature import VERIFY_CACHE, configure_verify_cache, sign, verify
from repro.db.database import Database
from repro.errors import (
    InsufficientFundsError,
    PaymentError,
    ProtocolError,
    TransactionError,
    TransportError,
    TransportTimeout,
)
from repro.gsi.authorization import AllowAllPolicy
from repro.net.message import frame
from repro.net.rpc import RPCClient, RequestContext, ServiceEndpoint, request_scope, session_cache
from repro.net.tcp import TCPClientConnection, TCPServer
from repro.net.transport import InProcessNetwork
from repro.obs import metrics as obs_metrics
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.validation import CertificateStore
from repro.util.gbtime import VirtualClock
from repro.util.money import Credits


@pytest.fixture(scope="module")
def world(ca_keypair, keypair_a, keypair_b):
    clock = VirtualClock()
    ca = CertificateAuthority(
        DistinguishedName("GridBank", "Root CA"), clock=clock, keypair=ca_keypair
    )
    store = CertificateStore([ca.root_certificate])
    return {
        "clock": clock,
        "store": store,
        "bank_ident": ca.issue_identity(DistinguishedName("GridBank", "server"), keypair=keypair_a),
        "alice": ca.issue_identity(DistinguishedName("VO-A", "alice"), keypair=keypair_b),
    }


def make_echo_endpoint(world) -> ServiceEndpoint:
    endpoint = ServiceEndpoint(
        world["bank_ident"],
        world["store"],
        AllowAllPolicy(),
        clock=world["clock"],
        rng=random.Random(7),
    )
    endpoint.register("echo", lambda subject, params: {"subject": subject, **params})
    endpoint.register("add", lambda subject, params: params["a"] + params["b"])

    def bounce(subject, params):
        raise PaymentError("cheque bounced")

    endpoint.register("bounce", bounce)
    return endpoint


def make_client(world, connection, seed=88, reconnect=None) -> RPCClient:
    return RPCClient(
        connection,
        world["alice"],
        world["store"],
        clock=world["clock"],
        rng=random.Random(seed),
        reconnect=reconnect,
    )


# -- striped account locks ----------------------------------------------------


class TestAccountLocks:
    def test_exclusive_mutual_exclusion(self):
        locks = AccountLocks(stripes=4)
        counter = {"n": 0}

        def bump():
            for _ in range(500):
                with locks.exclusive("acct-1"):
                    current = counter["n"]
                    counter["n"] = current + 1

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["n"] == 2000

    def test_exclusive_is_reentrant(self):
        locks = AccountLocks()
        with locks.exclusive("a"):
            with locks.exclusive("a"):
                pass  # nested acquisition by the same thread must not hang

    def test_shared_readers_run_concurrently(self):
        locks = AccountLocks(stripes=1)  # every account collides
        inside = threading.Barrier(3, timeout=5)

        def reader():
            with locks.shared("x"):
                inside.wait()  # all three must be inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Barrier not broken => all 3 readers overlapped

    def test_writer_excludes_readers(self):
        locks = AccountLocks(stripes=1)
        events = []
        held = threading.Event()
        release = threading.Event()

        def writer():
            with locks.exclusive("x"):
                events.append("w-in")
                held.set()
                release.wait(timeout=5)
                events.append("w-out")

        def reader():
            held.wait(timeout=5)
            with locks.shared("x"):
                events.append("r-in")

        tw = threading.Thread(target=writer)
        tr = threading.Thread(target=reader)
        tw.start()
        tr.start()
        time.sleep(0.05)
        release.set()
        tw.join()
        tr.join()
        assert events == ["w-in", "w-out", "r-in"]

    def test_opposite_order_transfers_do_not_deadlock(self):
        """A→B and B→A contenders resolve via canonical stripe ordering."""
        locks = AccountLocks(stripes=64)
        done = []

        def churn(first, second):
            for _ in range(300):
                with locks.exclusive(first, second):
                    pass
            done.append(first)

        t1 = threading.Thread(target=churn, args=("acct-a", "acct-b"))
        t2 = threading.Thread(target=churn, args=("acct-b", "acct-a"))
        t1.start()
        t2.start()
        t1.join(timeout=30)
        t2.join(timeout=30)
        assert sorted(done) == ["acct-a", "acct-b"]


# -- group-commit WAL + conservation under threads ----------------------------


def boot_bank(world, path) -> GridBankServer:
    db = Database(path=path)
    bank = GridBankServer(
        world["bank_ident"], world["store"], db=db, clock=world["clock"], rng=random.Random(5)
    )
    bank.recover()
    return bank


class TestConcurrentConservation:
    def test_transfer_storm_conserves_credits(self, world, tmp_path):
        bank = boot_bank(world, tmp_path / "bank")
        accounts = [
            bank.accounts.create_account(f"/C=XX/O=VO/CN=user{i}") for i in range(6)
        ]
        for account in accounts:
            bank.accounts.deposit(account, Credits(1000))
        total_before = bank.accounts.total_bank_funds()
        errors = []

        def storm(seed):
            rng = random.Random(seed)
            for _ in range(40):
                src, dst = rng.sample(accounts, 2)
                try:
                    bank.accounts.transfer(src, dst, Credits(rng.randint(1, 5)))
                except InsufficientFundsError:
                    pass  # legal outcome, conservation still holds
                except Exception as exc:  # noqa: BLE001 - fail the test below
                    errors.append(exc)

        threads = [threading.Thread(target=storm, args=(100 + i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert not any(t.is_alive() for t in threads), "deadlock: storm thread hung"
        assert bank.accounts.total_bank_funds() == total_before
        bank.db.close()

    def test_mid_storm_snapshot_recovers_consistently(self, world, tmp_path):
        """A WAL copied *while* the storm runs recovers to a conserving
        state: each transfer is one atomic journal line, so any prefix of
        the journal is a consistent history."""
        live = tmp_path / "bank"
        bank = boot_bank(world, live)
        accounts = [
            bank.accounts.create_account(f"/C=XX/O=VO/CN=stormer{i}") for i in range(4)
        ]
        for account in accounts:
            bank.accounts.deposit(account, Credits(500))
        total = bank.accounts.total_bank_funds()

        crashed = tmp_path / "crashed"
        copied = threading.Event()

        def storm(seed):
            rng = random.Random(seed)
            for _ in range(60):
                src, dst = rng.sample(accounts, 2)
                try:
                    bank.accounts.transfer(src, dst, Credits(1))
                except InsufficientFundsError:
                    pass

        def snapshotter():
            time.sleep(0.02)  # land mid-storm
            shutil.copytree(live, crashed)
            copied.set()

        threads = [threading.Thread(target=storm, args=(i,)) for i in range(6)]
        threads.append(threading.Thread(target=snapshotter))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert copied.is_set()
        bank.db.close()

        recovered = boot_bank(world, crashed)
        assert recovered.accounts.total_bank_funds() == total
        recovered.db.close()

    def test_exactly_once_storm_through_dispatch(self, world, tmp_path):
        """Concurrent duplicate requests with one idempotency key execute
        once: the per-key in-flight locks serialize the cache miss."""
        bank = boot_bank(world, tmp_path / "bank")
        subject = world["alice"].subject
        src = bank.accounts.create_account(subject)
        dst = bank.accounts.create_account(subject)
        bank.accounts.deposit(src, Credits(100))
        operation = bank.endpoint.operations["RequestDirectTransfer"]
        params = {
            "from_account": src,
            "to_account": dst,
            "amount": Credits(7),
            "recipient_address": "",
            "rur_blob": b"",
        }
        results = []

        def fire():
            context = RequestContext(
                method="RequestDirectTransfer", subject=subject, idempotency_key="dup-key-1"
            )
            with request_scope(context):
                results.append(operation(subject, dict(params)))

        threads = [threading.Thread(target=fire) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(results) == 6
        # every response replays the SAME settlement
        txn_ids = {r["confirmation"]["payload"]["transaction_id"] for r in results}
        assert len(txn_ids) == 1
        details = bank.accounts.require_open(dst)
        assert Credits(details["AvailableBalance"]) == Credits(7)
        bank.db.close()


class TestCheckpointGuard:
    def test_checkpoint_refused_inside_own_transaction(self, world, tmp_path):
        bank = boot_bank(world, tmp_path / "bank")
        with bank.db.transaction():
            with pytest.raises(TransactionError):
                bank.db.checkpoint()
        bank.db.checkpoint()  # fine once the transaction is done
        bank.db.close()

    def test_checkpoint_refused_while_other_thread_in_transaction(self, world, tmp_path):
        bank = boot_bank(world, tmp_path / "bank")
        entered = threading.Event()
        release = threading.Event()

        def hold_transaction():
            with bank.db.transaction():
                entered.set()
                release.wait(timeout=10)

        holder = threading.Thread(target=hold_transaction)
        holder.start()
        assert entered.wait(timeout=10)
        try:
            with pytest.raises(TransactionError):
                bank.db.checkpoint()
        finally:
            release.set()
            holder.join(timeout=10)
        bank.db.checkpoint()
        bank.db.close()


# -- signature-verify cache ---------------------------------------------------


class TestVerifyCache:
    def setup_method(self):
        configure_verify_cache(enabled=True)
        VERIFY_CACHE.clear()

    def test_repeat_verification_hits_cache(self, keypair_a):
        payload = {"doc": "cheque", "amount": 12.5}
        signature = sign(keypair_a.private, payload)
        hits = obs_metrics.counter("crypto.verify_cache.hits")
        misses = obs_metrics.counter("crypto.verify_cache.misses")
        h0, m0 = hits.value, misses.value
        assert verify(keypair_a.public, payload, signature)
        assert misses.value == m0 + 1
        assert verify(keypair_a.public, payload, signature)
        assert hits.value == h0 + 1

    def test_negative_results_are_not_cached(self, keypair_a, keypair_b):
        payload = {"doc": "forged"}
        signature = sign(keypair_a.private, payload)
        before = len(VERIFY_CACHE)
        assert not verify(keypair_b.public, payload, signature)
        assert not verify(keypair_b.public, payload, signature)
        assert len(VERIFY_CACHE) == before  # only positives enter the cache

    def test_tampered_payload_misses_cache(self, keypair_a):
        payload = {"doc": "real"}
        signature = sign(keypair_a.private, payload)
        assert verify(keypair_a.public, payload, signature)
        assert not verify(keypair_a.public, {"doc": "fake"}, signature)

    def test_disabled_cache_bypasses(self, keypair_a):
        configure_verify_cache(enabled=False)
        try:
            payload = {"doc": "plain"}
            signature = sign(keypair_a.private, payload)
            assert verify(keypair_a.public, payload, signature)
            assert len(VERIFY_CACHE) == 0
        finally:
            configure_verify_cache(enabled=True)


# -- calls on one connection -------------------------------------------------


class TestCallsInProcess:
    def test_results_match_calls_in_order(self, world):
        network = InProcessNetwork()
        endpoint = make_echo_endpoint(world)
        network.listen("svc", endpoint.connection_handler)
        client = make_client(world, network.connect("svc"))
        client.connect()
        assert [client.call("add", a=i, b=i * 10) for i in range(20)] == [
            i + i * 10 for i in range(20)
        ]

    def test_remote_errors_surface_per_call(self, world):
        network = InProcessNetwork()
        endpoint = make_echo_endpoint(world)
        network.listen("svc", endpoint.connection_handler)
        client = make_client(world, network.connect("svc"))
        client.connect()
        assert client.call("add", a=1, b=2) == 3
        with pytest.raises(PaymentError):
            client.call("bounce")
        assert client.call("add", a=3, b=4) == 7  # the session survives


class TestCallsTCP:
    def test_calls_after_reconnect(self, world):
        """Forty calls on one connection, then a dropped connection: the
        next calls go out on a fresh one and are answered the same way."""
        endpoint = make_echo_endpoint(world)
        with TCPServer(endpoint.connection_handler) as server:
            client = make_client(
                world,
                TCPClientConnection(server.address),
                reconnect=lambda: TCPClientConnection(server.address),
            )
            client.connect()
            assert [client.call("add", a=i, b=1) for i in range(40)] == [i + 1 for i in range(40)]
            client._connection.close()
            assert [client.call("add", a=i, b=2) for i in range(3)] == [2, 3, 4]
            assert client.call("echo", tag="after")["tag"] == "after"
            client.close()
        assert endpoint.accepted_connections == 2


# -- session resumption -------------------------------------------------------


class TestSessionResumption:
    def test_reconnect_resumes_without_full_handshake(self, world):
        network = InProcessNetwork()
        endpoint = make_echo_endpoint(world)
        network.listen("svc", endpoint.connection_handler)
        client = make_client(
            world,
            network.connect("svc"),
            reconnect=lambda: network.connect("svc"),
        )
        client.connect()
        accepted_after_full = endpoint.accepted_connections
        resumes = obs_metrics.counter("rpc.client.resumes")
        r0 = resumes.value
        client._connection.close()  # simulate a dropped connection
        assert client.call("add", a=2, b=3) == 5
        assert resumes.value == r0 + 1
        assert endpoint.accepted_connections == accepted_after_full + 1

    def test_ticket_miss_falls_back_to_full_handshake(self, world):
        network = InProcessNetwork()
        endpoint = make_echo_endpoint(world)
        network.listen("svc", endpoint.connection_handler)
        client = make_client(
            world,
            network.connect("svc"),
            reconnect=lambda: network.connect("svc"),
        )
        client.connect()
        # server loses its tickets (restart / eviction)
        endpoint.session_tickets.clear()
        client._connection.close()
        key = ((network.connect("svc").peer, world["alice"].certificate.signature), world["store"])
        stale = session_cache.get(*key, world["clock"].epoch())
        assert client.call("add", a=4, b=5) == 9  # full handshake re-ran
        fresh = session_cache.get(*key, world["clock"].epoch())
        assert fresh is not None and fresh.ticket != stale.ticket  # and replaced the entry

    def test_forged_ticket_mac_is_a_miss(self, world):
        network = InProcessNetwork()
        endpoint = make_echo_endpoint(world)
        network.listen("svc", endpoint.connection_handler)
        client = make_client(
            world,
            network.connect("svc"),
            reconnect=lambda: network.connect("svc"),
        )
        client.connect()
        key = ((network.connect("svc").peer, world["alice"].certificate.signature), world["store"])
        session = session_cache.get(*key, world["clock"].epoch())
        # attacker knows the ticket but not the master secret
        session_cache.put(*key, session._replace(master=b"\x00" * 32))
        client._connection.close()
        assert client.call("add", a=1, b=1) == 2  # fell back to full handshake
        misses = obs_metrics.counter("gsi.resume.missed")
        assert misses.value >= 1

    def test_resumption_over_tcp(self, world):
        endpoint = make_echo_endpoint(world)
        with TCPServer(endpoint.connection_handler) as server:
            client = make_client(
                world,
                TCPClientConnection(server.address),
                reconnect=lambda: TCPClientConnection(server.address),
            )
            client.connect()
            resumes = obs_metrics.counter("rpc.client.resumes")
            r0 = resumes.value
            client._connection.close()
            assert client.call("add", a=8, b=9) == 17
            assert resumes.value == r0 + 1
            client.close()


# -- partial frames on the TCP client ----------------------------------------


def _one_shot_server(respond):
    """A raw loopback socket server running *respond(conn)* once."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def run():
        conn, _ = listener.accept()
        try:
            respond(conn)
        finally:
            try:
                conn.close()
            except OSError:
                pass
            listener.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return listener.getsockname(), thread


class TestPartialFrames:
    def test_fragmented_frames_reassemble(self):
        """Two responses delivered in 7-byte fragments still parse."""
        payloads = [b"first-response", b"second-response-somewhat-longer"]

        def respond(conn):
            conn.recv(1024)
            data = b"".join(frame(p) for p in payloads)
            for i in range(0, len(data), 7):
                conn.sendall(data[i : i + 7])
                time.sleep(0.001)

        address, thread = _one_shot_server(respond)
        client = TCPClientConnection(address, timeout=5.0)
        client.send_frame(b"go")
        assert client.recv_frame() == payloads[0]
        assert client.recv_frame() == payloads[1]
        client.close()
        thread.join(timeout=5)

    def test_timeout_mid_frame_is_clean_transport_timeout(self):
        """A stalled peer mid-frame surfaces TransportTimeout (retryable),
        not a truncated-frame ProtocolError crash, and poisons the
        connection so a retry reconnects."""
        stall = threading.Event()

        def respond(conn):
            conn.recv(1024)
            conn.sendall(frame(b"x" * 64)[:20])  # header + partial body
            stall.wait(timeout=5)

        address, thread = _one_shot_server(respond)
        client = TCPClientConnection(address, timeout=0.2)
        client.send_frame(b"go")
        with pytest.raises(TransportTimeout):
            client.recv_frame()
        assert not client.healthy
        stall.set()
        client.close()
        thread.join(timeout=5)

    def test_peer_close_mid_frame_is_protocol_error(self):
        def respond(conn):
            conn.recv(1024)
            conn.sendall(frame(b"y" * 64)[:10])  # then close mid-frame

        address, thread = _one_shot_server(respond)
        client = TCPClientConnection(address, timeout=5.0)
        client.send_frame(b"go")
        with pytest.raises(ProtocolError):
            client.recv_frame()
        assert not client.healthy
        client.close()
        thread.join(timeout=5)


# -- metrics registry under threads -------------------------------------------


class TestMetricsConcurrency:
    def test_concurrent_counter_increments_are_exact(self):
        counter = obs_metrics.counter("test.concurrency.counter")
        start = counter.value

        def bump():
            for _ in range(1000):
                obs_metrics.counter("test.concurrency.counter").inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == start + 8000

    def test_snapshot_shape_is_stable_during_churn(self):
        stop = threading.Event()

        def churn():
            i = 0
            while not stop.is_set():
                obs_metrics.counter(f"test.churn.{i % 50}").inc()
                obs_metrics.histogram("test.churn.h").observe(0.001)
                i += 1

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            for _ in range(50):
                snap = obs_metrics.snapshot()
                assert set(snap) >= {"counters", "gauges", "histograms"}
        finally:
            stop.set()
            thread.join()
