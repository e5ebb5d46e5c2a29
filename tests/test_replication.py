"""Replicated GridBank: WAL shipping, read replicas, and failover.

A primary streams its committed journal lines to a standby, which
replays them through the same path crash recovery uses — so the standby
database (ledger, instruments, reply cache, everything) is byte-identical
by construction. These tests drive the whole stack over the in-process
transport: streaming, read-replica semantics, typed write rejection with
client re-routing, controlled and lease-based promotion, fencing, and —
the availability half of exactly-once — a retried in-flight call served
from the *replicated* reply cache after the primary dies mid-call.
"""

import random
import time

import pytest

from repro.bank.cluster import PrimaryRouter, StandbyReplicator, cluster_client
from repro.bank.server import GridBankServer
from repro.core.api import GridBankAPI
from repro.db.database import Database
from repro.errors import (
    AuthorizationError,
    CorruptionError,
    NotPrimaryError,
    ReplicaStaleError,
    TransportError,
)
from repro.net.retry import RetryPolicy
from repro.net.rpc import RPCClient
from repro.net.transport import FaultPlan, InProcessNetwork
from repro.obs import metrics as obs_metrics
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.validation import CertificateStore
from repro.util.gbtime import VirtualClock
from repro.util.money import Credits

A, B = "bank-a", "bank-b"


def wait_until(predicate, timeout: float = 8.0, interval: float = 0.005) -> None:
    """Real-time wait for a cross-thread condition (the replicator runs on
    its own thread regardless of the world's virtual clock)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


def wait_caught_up(primary: GridBankServer, standby: GridBankServer) -> None:
    wait_until(
        lambda: primary.db.replication_position() == standby.db.replication_position()
    )


@pytest.fixture()
def world(ca_keypair, keypair_a, keypair_c, tmp_path, attach):
    clock = VirtualClock()
    ca = CertificateAuthority(
        DistinguishedName("GridBank", "Root CA"), clock=clock, keypair=ca_keypair
    )
    store = CertificateStore([ca.root_certificate])
    # one logical bank, two processes: both nodes hold the SAME bank
    # identity, so instruments/confirmations signed before a failover
    # still verify after it
    bank_ident = ca.issue_identity(DistinguishedName("GridBank", "server"), keypair=keypair_a)
    faults = FaultPlan(rng=random.Random(0), clock=clock)
    network = InProcessNetwork(faults=faults)

    def boot(name, seed):
        db = Database(path=tmp_path / name)
        bank = GridBankServer(bank_ident, store, db=db, clock=clock, rng=random.Random(seed))
        bank.recover()
        network.listen(name, bank.connection_handler)
        return bank

    bank_a = boot(A, 2)
    bank_b = boot(B, 3)
    node_a = attach(bank_a, A, network.connect)
    node_b = attach(bank_b, B, network.connect, staleness_bound=30.0)
    node_b.follow(A)

    # everything below REPLICATES: both WALs carry identical lines from seq 1
    admin_ident = ca.issue_identity(DistinguishedName("GridBank", "admin"), keypair=keypair_c)
    bank_a.admin.add_administrator(admin_ident.subject)
    alice_ident = ca.issue_identity(DistinguishedName("VO-A", "alice"), keypair=keypair_c)
    gsp_ident = ca.issue_identity(DistinguishedName("VO-B", "gsp"), keypair=keypair_c)

    def api_for(identity, seed, addresses=(A, B), policy=None, **retry_kw):
        if policy is None:
            policy = RetryPolicy(max_attempts=8, rng=random.Random(seed + 10), **retry_kw)
        client = cluster_client(
            identity, store, network.connect, addresses,
            clock=clock, rng=random.Random(seed), retry_policy=policy,
        )
        return GridBankAPI(client, rng=random.Random(seed + 50))

    alice = api_for(alice_ident, 1)
    admin = api_for(admin_ident, 3)
    alice_account = alice.create_account()
    gsp_account = api_for(gsp_ident, 2).create_account()
    admin.admin_deposit(alice_account, Credits(1000))
    yield {
        "clock": clock,
        "network": network,
        "faults": faults,
        "store": store,
        "ca": ca,
        "bank_a": bank_a,
        "bank_b": bank_b,
        "node_a": node_a,
        "node_b": node_b,
        "api_for": api_for,
        "alice": alice,
        "admin": admin,
        "alice_ident": alice_ident,
        "admin_ident": admin_ident,
        "alice_account": alice_account,
        "gsp_account": gsp_account,
    }
    node_a._stop_replicator()
    node_b._stop_replicator()


class TestStreaming:
    def test_standby_replays_to_identical_state(self, world):
        confirmation = world["alice"].request_direct_transfer(
            world["alice_account"], world["gsp_account"], Credits(250)
        )
        assert confirmation.amount == Credits(250)
        wait_caught_up(world["bank_a"], world["bank_b"])
        a, b = world["bank_a"], world["bank_b"]
        assert b.accounts.available_balance(world["gsp_account"]) == Credits(250)
        assert b.accounts.available_balance(world["alice_account"]) == Credits(750)
        assert b.db.count("transfers") == a.db.count("transfers") == 1
        assert b.db.count("replies") == a.db.count("replies")

    def test_replica_wal_is_byte_identical(self, world, tmp_path):
        """The tentpole invariant: the stream IS the WAL, so the standby's
        journal file holds the same bytes the primary's does."""
        world["alice"].request_direct_transfer(
            world["alice_account"], world["gsp_account"], Credits(5)
        )
        wait_caught_up(world["bank_a"], world["bank_b"])
        wal_a = (tmp_path / A / "wal.gbdb").read_bytes()
        wal_b = (tmp_path / B / "wal.gbdb").read_bytes()
        assert wal_a == wal_b
        assert len(wal_a) > 0

    def test_bit_flipped_in_primary_wal_never_reaches_the_standby(self, world, tmp_path):
        """The log serves what ``wal.gbdb`` holds now: damage after the
        commit is a CorruptionError where it is served, and the standby
        appends nothing."""
        alice = world["alice"]
        alice.request_direct_transfer(world["alice_account"], world["gsp_account"], Credits(5))
        wait_caught_up(world["bank_a"], world["bank_b"])
        replicator = world["node_b"].replicator
        replicator.stop()  # the standby falls one commit behind
        alice.request_direct_transfer(world["alice_account"], world["gsp_account"], Credits(6))
        wal_a, wal_b = tmp_path / A / "wal.gbdb", tmp_path / B / "wal.gbdb"
        damaged = bytearray(wal_a.read_bytes())
        assert len(damaged) > wal_b.stat().st_size
        damaged[-10] ^= 0x10
        wal_a.write_bytes(bytes(damaged))
        before = wal_b.read_bytes()
        epoch, seq = world["bank_b"].db.replication_position()
        with pytest.raises(CorruptionError):
            world["node_a"].log.fetch(epoch, seq)
        for _ in range(3):  # the live standby keeps polling and keeps being refused
            assert replicator.step() is None
        replicator.stop()
        assert wal_b.read_bytes() == before
        assert world["bank_b"].db.replication_position() == (epoch, seq)

    def test_checkpoint_forces_resync_and_standby_recovers(self, world):
        world["admin"].admin_deposit(world["alice_account"], Credits(7))
        wait_caught_up(world["bank_a"], world["bank_b"])
        world["bank_a"].db.checkpoint()  # bumps epoch, truncates WAL, resets log
        world["admin"].admin_deposit(world["alice_account"], Credits(13))
        wait_caught_up(world["bank_a"], world["bank_b"])
        assert world["bank_b"].accounts.available_balance(
            world["alice_account"]
        ) == Credits(1020)
        assert obs_metrics.counter("replication.bootstraps").value >= 1

    def test_lag_metrics_exported(self, world):
        world["admin"].admin_deposit(world["alice_account"], Credits(1))
        wait_caught_up(world["bank_a"], world["bank_b"])
        assert obs_metrics.gauge("replication.lag_records").value == 0.0
        assert obs_metrics.counter("replication.records_applied").value > 0
        assert obs_metrics.counter("replication.records_shipped").value > 0


class TestReadReplica:
    def _standby_client(self, world, identity, seed=77, **retry_kw):
        client = RPCClient(
            world["network"].connect(B), identity, world["store"],
            clock=world["clock"], rng=random.Random(seed), **retry_kw,
        )
        client.connect()
        return client

    def test_standby_serves_reads(self, world):
        wait_caught_up(world["bank_a"], world["bank_b"])
        client = self._standby_client(world, world["alice_ident"])
        details = client.call("RequestAccountDetails", account_id=world["alice_account"])
        assert Credits(details["AvailableBalance"]) == Credits(1000)
        client.close()

    def test_standby_rejects_writes_with_primary_address(self, world):
        wait_caught_up(world["bank_a"], world["bank_b"])
        client = self._standby_client(world, world["admin_ident"])
        with pytest.raises(NotPrimaryError) as excinfo:
            client.call("Admin.Deposit", account_id=world["alice_account"], amount=5.0)
        assert excinfo.value.primary_address == A
        assert world["bank_a"].accounts.available_balance(
            world["alice_account"]
        ) == Credits(1000)
        client.close()

    def test_client_reroutes_write_from_standby_to_primary(self, world):
        """A cluster client pointed at the standby first transparently
        lands its write on the primary via the NotPrimaryError redirect."""
        api = world["api_for"](world["admin_ident"], 21, addresses=(B, A))
        before = obs_metrics.counter(
            "rpc.client.reroutes", method="Admin.Deposit"
        ).value
        api.admin_deposit(world["alice_account"], Credits(5))
        assert world["bank_a"].accounts.available_balance(
            world["alice_account"]
        ) == Credits(1005)
        assert obs_metrics.counter(
            "rpc.client.reroutes", method="Admin.Deposit"
        ).value > before
        api.close()

    def test_stale_replica_refuses_reads(self, world):
        wait_caught_up(world["bank_a"], world["bank_b"])
        world["node_b"]._stop_replicator()  # replication stalls
        world["clock"].advance(3600.0)  # ...and an hour passes
        client = self._standby_client(world, world["alice_ident"])
        with pytest.raises(ReplicaStaleError):
            client.call("RequestAccountDetails", account_id=world["alice_account"])
        # discovery stays available: re-routing depends on it
        assert client.call("BankInfo")["role"] == "standby"
        client.close()
        # ...and so does the plumbing that measures and repairs the lag
        peer = self._standby_client(world, world["admin_ident"], seed=78)
        assert peer.call("Replication.Status")["role"] == "standby"
        # a write is still told where the primary is, not that reads are stale
        with pytest.raises(NotPrimaryError):
            peer.call("Admin.Deposit", account_id=world["alice_account"], amount=5.0)
        peer.close()


class TestFailover:
    def test_controlled_promote_fences_old_primary(self, world):
        world["admin"].admin_deposit(world["alice_account"], Credits(11))
        wait_caught_up(world["bank_a"], world["bank_b"])
        status = world["node_b"].promote(reason="test")
        assert status["role"] == "primary"
        assert world["bank_b"].role == "primary"
        # the old primary was demoted and now redirects to the new one
        assert world["bank_a"].role == "standby"
        assert world["bank_a"].primary_address == B
        # a stale epoch cannot fence the new primary back
        with pytest.raises(AuthorizationError):
            world["node_b"].demote(world["node_b"].cluster_epoch, A)
        # the new primary accepts writes and conserves funds
        api = world["api_for"](world["admin_ident"], 31, addresses=(A, B))
        api.admin_deposit(world["alice_account"], Credits(9))
        assert world["bank_b"].accounts.available_balance(
            world["alice_account"]
        ) == Credits(1020)
        assert world["bank_b"].accounts.total_bank_funds() == Credits(1020)
        assert obs_metrics.counter("replication.failovers").value >= 1
        api.close()

    @pytest.mark.parametrize("gap", ["resync", "ahead"])
    def test_promotion_drains_a_suffix_but_never_restores(self, world, gap):
        """A primary that can no longer serve the standby's position (it
        checkpointed past it) or is behind it (local writes on the
        standby) does not make promotion wait on a snapshot or throw the
        standby's history away: the node becomes primary with what it has."""
        bank_a, bank_b, node_b = world["bank_a"], world["bank_b"], world["node_b"]
        wait_caught_up(bank_a, bank_b)
        node_b._stop_replicator()
        node_b.replicator = StandbyReplicator(node_b, A)  # never started: promote drains
        if gap == "resync":
            bank_a.db.checkpoint()
            world["admin"].admin_deposit(world["alice_account"], Credits(5))
        else:
            bank_b.admin.add_administrator("/O=GridBank/CN=local")
        held = bank_b.db.replication_position()
        served = obs_metrics.counter("replication.snapshots_served").value
        assert node_b.promote(reason="test")["role"] == "primary"
        assert obs_metrics.counter("replication.snapshots_served").value == served
        assert bank_b.db.replication_position() == held
        if gap == "resync":  # the deposit after the checkpoint is the RPO window
            assert bank_b.accounts.available_balance(world["alice_account"]) == Credits(1000)
        else:
            assert bank_b.admin.is_administrator("/O=GridBank/CN=local")

    def test_promote_is_idempotent(self, world):
        first = world["node_b"].promote()
        second = world["node_b"].promote()
        assert first["cluster_epoch"] == second["cluster_epoch"]
        assert world["bank_b"].role == "primary"

    def test_auto_promote_on_lease_expiry(self, world):
        """The lease is read off the bank's clock inside the replicator's
        step, so the whole scenario is direct step() calls on virtual
        time: no thread, no real-time wait."""
        node_b, bank_b, clock = world["node_b"], world["bank_b"], world["clock"]
        node_b.auto_promote = True
        node_b.lease_timeout = 5.0
        wait_caught_up(world["bank_a"], bank_b)
        node_b._stop_replicator()  # the fixture's thread; drive one by hand
        node_b.long_poll = 0.0  # a dry fetch parks server-side in real time
        replicator = node_b.replicator = StandbyReplicator(node_b, A)
        assert replicator.step() is None  # caught up: pause one poll interval
        world["node_a"].crash()
        clock.advance(4.0)
        assert replicator.step() is None  # poll failed, lease not yet expired
        assert bank_b.role == "standby"
        clock.advance(1.5)  # 5.5 s of silence > the 5 s lease
        replicator.step()  # promotes, which stops this replicator from inside
        assert bank_b.role == "primary"
        assert bank_b.primary_address == B
        assert node_b.replicator is None and node_b.cluster_epoch == 2

    def test_a_backlog_drains_without_pausing(self, world):
        """step() returns 0.0 ("go again at once") while the standby is
        behind and None ("pause one poll interval") once it has caught up."""
        node_b = world["node_b"]
        wait_caught_up(world["bank_a"], world["bank_b"])
        node_b._stop_replicator()
        node_b.fetch_batch, node_b.long_poll = 1, 0.0
        for _ in range(3):
            world["alice"].request_direct_transfer(
                world["alice_account"], world["gsp_account"], Credits(1)
            )
        replicator = node_b.replicator = StandbyReplicator(node_b, A)
        delays = []
        while not delays or delays[-1] is not None:
            delays.append(replicator.step())
            assert len(delays) < 20
        assert delays[:-1] and set(delays[:-1]) == {0.0}
        assert replicator.lag_records == 0
        assert world["bank_a"].db.replication_position() == world["bank_b"].db.replication_position()

    def test_retry_in_flight_call_survives_failover_exactly_once(self, world):
        """The paper-critical composition: a client's write reaches the
        primary, the reply is lost, the primary dies — and the retry is
        served from the reply cache the standby received THROUGH THE
        STREAM. One transfer, not two."""
        clock, faults = world["clock"], world["faults"]
        bank_a, bank_b = world["bank_a"], world["bank_b"]
        fired = []

        def kill_primary_then_promote(attempt, exc):
            if fired:
                return
            fired.append(attempt)
            faults.drop_response_probability = 0.0
            # the committed-but-unconfirmed write must ship before the
            # primary dies (async shipping's RPO window is tested below)
            wait_caught_up(bank_a, bank_b)
            world["node_a"].crash()
            world["node_b"].promote(reason="chaos")

        policy = RetryPolicy(
            max_attempts=8, rng=random.Random(99), on_retry=kill_primary_then_promote
        )
        api = world["api_for"](world["alice_ident"], 41, policy=policy)
        before_hits = obs_metrics.counter("bank.dedup_hits").value
        transfers_before = bank_a.db.count("transfers")
        faults.drop_response_probability = 1.0
        confirmation = api.request_direct_transfer(
            world["alice_account"], world["gsp_account"], Credits(42)
        )
        assert fired, "the fault plan never forced a retry"
        assert confirmation.amount == Credits(42)
        assert bank_b.db.count("transfers") == transfers_before + 1
        assert bank_b.accounts.available_balance(world["gsp_account"]) == Credits(42)
        assert bank_b.accounts.total_bank_funds() == Credits(1000)
        assert obs_metrics.counter("bank.dedup_hits").value > before_hits
        api.close()


class TestPrimaryRouter:
    def test_hint_moves_address_to_front(self, world):
        router = PrimaryRouter(world["network"].connect, [A, B])
        router.hint(B)
        router()
        assert router.current == B

    def test_router_skips_dead_candidates(self, world):
        network = world["network"]
        network.unlisten(A)
        router = PrimaryRouter(network.connect, [A, B])
        router()
        assert router.current == B

    def test_router_raises_when_all_dead(self):
        network = InProcessNetwork()
        router = PrimaryRouter(network.connect, ["nowhere-1", "nowhere-2"])
        with pytest.raises(TransportError):
            router()


@pytest.mark.chaos
class TestChaosFailoverStorm:
    def test_transfer_storm_survives_mid_storm_failover(self, world):
        """Kill the primary in the middle of a transfer storm with lossy
        responses throughout; every transfer must land exactly once on
        the promoted standby, and the books must balance to the credit."""
        faults = world["faults"]
        bank_a, bank_b = world["bank_a"], world["bank_b"]
        api = world["api_for"](world["alice_ident"], 51)
        faults.drop_response_probability = 0.25
        storm, failover_at = 40, 20
        for i in range(storm):
            if i == failover_at:
                wait_caught_up(bank_a, bank_b)
                world["node_a"].crash()
                world["node_b"].promote(reason="storm")
            confirmation = api.request_direct_transfer(
                world["alice_account"], world["gsp_account"], Credits(1)
            )
            assert confirmation.amount == Credits(1)
        faults.drop_response_probability = 0.0
        survivor = bank_b
        # exactly-once: every confirmed transfer exists exactly once
        assert survivor.db.count("transfers") == storm
        assert survivor.accounts.available_balance(
            world["gsp_account"]
        ) == Credits(storm)
        assert survivor.accounts.available_balance(
            world["alice_account"]
        ) == Credits(1000 - storm)
        # conservation: nothing minted, nothing burned
        assert survivor.accounts.total_bank_funds() == Credits(1000)
        # reply cache primary keys never collided (no double-commit)
        replies = survivor.db.select("replies")
        keys = [row["IdempotencyKey"] for row in replies]
        assert len(keys) == len(set(keys))
        assert obs_metrics.counter("replication.failovers").value >= 1
        api.close()
