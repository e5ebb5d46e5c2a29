"""Horizontal sharding: consistent-hash shard groups + cross-shard 2PC.

The world is three shard groups of one logical bank over the in-process
transport — s1 (single primary), s2 (primary + standby, so a participant
can fail over mid-transaction), s3 (declared in the map with zero ranges,
the live-split target). Tests drive the whole stack: WrongShardError
bouncing and router adoption, the two-phase transfer protocol and each of
its recovery edges (coordinator crash between prepare and commit,
participant failover mid-prepare, duplicate client retries replaying the
cached reply, terminal aborts refunding the drawer), epoch-fenced live
rebalancing, and — chaos-marked — a cross-shard transfer storm with a
mid-storm participant-primary kill *and* a shard split, under global
conservation and exactly-once.
"""

import random
import threading
import time

import pytest

from repro.bank.cluster import ClusterNode, cluster_client
from repro.bank.records import INTENT_COMMITTED, INTENT_PREPARED
from repro.bank.server import GridBankServer
from repro.bank.shard import (
    RING_SIZE,
    ShardMap,
    ShardNode,
    ShardResolver,
    ShardRouter,
    account_token,
    sharded_total_funds,
    split_shard,
)
from repro.payments.direct import TransferConfirmation
from repro.db.database import Database
from repro.db.query import eq
from repro.errors import (
    AccountError,
    NotFoundError,
    ReproError,
    SettlementError,
    ValidationError,
    WrongShardError,
)
from repro.net.retry import RetryPolicy
from repro.net.rpc import RequestContext, request_scope
from repro.net.transport import FaultPlan, InProcessNetwork
from repro.obs import metrics as obs_metrics
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.validation import CertificateStore
from repro.util.gbtime import VirtualClock
from repro.util.money import Credits
from tests.conftest import deliver_keyed

S1, S2A, S2B, S3 = "s1-a", "s2-a", "s2-b", "s3-a"
HALF = RING_SIZE // 2


def wait_until(predicate, timeout: float = 8.0, interval: float = 0.005) -> None:
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


def initial_map() -> ShardMap:
    """s1 and s2 halve the ring; s3 is a declared zero-range member so a
    live split can move ranges to an already-serving group."""
    return ShardMap(
        1,
        {"s1": (S1,), "s2": (S2A, S2B), "s3": (S3,)},
        [(0, HALF, "s1"), (HALF, RING_SIZE, "s2")],
    )


@pytest.fixture()
def world(ca_keypair, keypair_a, keypair_c, tmp_path):
    clock = VirtualClock()
    ca = CertificateAuthority(
        DistinguishedName("GridBank", "Root CA"), clock=clock, keypair=ca_keypair
    )
    store = CertificateStore([ca.root_certificate])
    # every shard group is the same logical bank: one shared identity, so
    # inter-shard RPCs authorize as the cluster and a confirmation signed
    # by any coordinator verifies everywhere
    bank_ident = ca.issue_identity(DistinguishedName("GridBank", "server"), keypair=keypair_a)
    faults = FaultPlan(rng=random.Random(0), clock=clock)
    network = InProcessNetwork(faults=faults)
    shard_map = initial_map()

    def boot(name, seed):
        db = Database(path=tmp_path / name)
        bank = GridBankServer(bank_ident, store, db=db, clock=clock, rng=random.Random(seed))
        bank.recover()
        network.listen(name, bank.connection_handler)
        return bank

    banks = {name: boot(name, seed) for seed, name in enumerate((S1, S2A, S2B, S3), start=2)}
    nodes = {
        name: ClusterNode(banks[name], name, network.connect, poll_interval=0.005)
        for name in (S1, S2A, S2B, S3)
    }
    shards = {
        "s1": ShardNode(nodes[S1], "s1", shard_map=shard_map),
        "s2": ShardNode(nodes[S2A], "s2", shard_map=shard_map),
        "s2b": ShardNode(nodes[S2B], "s2"),
        "s3": ShardNode(nodes[S3], "s3", shard_map=shard_map),
    }
    nodes[S2B].follow(S2A)

    admin_ident = ca.issue_identity(DistinguishedName("GridBank", "admin"), keypair=keypair_c)
    for name in (S1, S2A, S3):
        banks[name].admin.add_administrator(admin_ident.subject)
    alice_ident = ca.issue_identity(DistinguishedName("VO-A", "alice"), keypair=keypair_c)
    bob_ident = ca.issue_identity(DistinguishedName("VO-B", "bob"), keypair=keypair_c)

    def router_for(identity, seed, **kw):
        return ShardRouter(
            identity,
            store,
            network.connect,
            shard_map,
            clock=clock,
            rng=random.Random(seed),
            retry_policy=RetryPolicy(
                max_attempts=8, base_delay=0.02, max_delay=0.5, rng=random.Random(seed + 10)
            ),
            **kw,
        )

    alice = router_for(alice_ident, 1)
    bob = router_for(bob_ident, 2)
    admin = router_for(admin_ident, 3)
    alice_account = alice.call("CreateAccount", shard_id="s1")["account_id"]
    bob_account = bob.call("CreateAccount", shard_id="s2")["account_id"]
    assert shard_map.shard_for(alice_account) == "s1"
    assert shard_map.shard_for(bob_account) == "s2"
    admin.call("Admin.Deposit", account_id=alice_account, amount=Credits(1000))
    admin.call("Admin.Deposit", account_id=bob_account, amount=Credits(500))

    yield {
        "clock": clock,
        "network": network,
        "store": store,
        "ca": ca,
        "map": shard_map,
        "banks": banks,
        "nodes": nodes,
        "shards": shards,
        "bank_ident": bank_ident,
        "admin_ident": admin_ident,
        "alice_ident": alice_ident,
        "bob_ident": bob_ident,
        "router_for": router_for,
        "alice": alice,
        "bob": bob,
        "admin": admin,
        "alice_account": alice_account,
        "bob_account": bob_account,
    }
    for router in (alice, bob, admin):
        router.close()
    for shard in shards.values():
        shard.close()
    for node in nodes.values():
        node._stop_replicator()


def primaries(world):
    """The ShardNodes whose banks currently serve as shard primaries."""
    out = []
    for shard in world["shards"].values():
        bank = shard.bank
        if bank.role == "primary" and not bank.endpoint.crashed:
            out.append(shard)
    return out


def total_funds(world) -> Credits:
    return sharded_total_funds(primaries(world))


def mint_in_range(world, shard_id: str, lo: int, hi: int, deposit=None) -> str:
    """Create accounts on *shard_id* until one hashes into [lo, hi)."""
    for _ in range(64):
        account = world["admin"].call("CreateAccount", shard_id=shard_id)["account_id"]
        if lo <= account_token(account) < hi:
            if deposit is not None:
                world["admin"].call("Admin.Deposit", account_id=account, amount=deposit)
            return account
    raise AssertionError(f"no mintable account in [{lo}, {hi}) after 64 tries")


def keyed_transfer(world, subject: str, params: dict, key: str):
    """RequestDirectTransfer on s1's primary under idempotency key *key*."""
    return deliver_keyed(world["banks"][S1], "RequestDirectTransfer", subject, key, **params)


def peer_clients(world):
    """Orchestration clients (bank credential = peer auth), one per shard."""
    return {
        sid: cluster_client(
            world["bank_ident"],
            world["store"],
            world["network"].connect,
            world["map"].addresses_of(sid),
            clock=world["clock"],
        )
        for sid in ("s1", "s2", "s3")
    }


class TestShardMap:
    def test_initial_tiles_ring_equally(self):
        m = ShardMap.initial({"a": ("x",), "b": ("y",), "c": ("z",)})
        assert [r[2] for r in m.ranges] == ["a", "b", "c"]
        assert m.ranges[0][0] == 0 and m.ranges[-1][1] == RING_SIZE

    def test_gaps_and_overlaps_rejected(self):
        with pytest.raises(ValidationError):
            ShardMap(1, {"a": ("x",)}, [(0, HALF, "a")])
        with pytest.raises(ValidationError):
            ShardMap(1, {"a": ("x",)}, [(0, HALF, "a"), (HALF - 1, RING_SIZE, "a")])

    def test_split_moves_upper_halves_and_bumps_version(self):
        m = initial_map()
        m2 = m.split("s1", "s3")
        assert m2.version == 2
        assert m2.owned_ranges("s3") == ((HALF // 2, HALF),)
        assert m2.owned_ranges("s1") == ((0, HALF // 2),)
        # accounts in the moved range change owner; others keep theirs
        for account in (f"01-0001-{i:08d}" for i in range(1, 200)):
            old, new = m.shard_for(account), m2.shard_for(account)
            if old == "s2":
                assert new == "s2"
            else:
                assert new in ("s1", "s3")

    def test_merge_coalesces_and_retires(self):
        m = initial_map().split("s1", "s3")
        m3 = m.merge("s3", "s1")
        assert m3.version == 3
        assert "s3" not in m3.shards
        assert m3.owned_ranges("s1") == ((0, HALF),)

    def test_json_roundtrip(self):
        m = initial_map().split("s1", "s3")
        assert ShardMap.from_json(m.to_json()) == m

    def test_token_is_stable(self):
        assert account_token("01-0001-00000001") == account_token("01-0001-00000001")
        assert 0 <= account_token("01-0001-00000042") < RING_SIZE


class TestRoutingAndGuard:
    def test_misrouted_read_bounces_with_hint(self, world):
        client = cluster_client(
            world["alice_ident"], world["store"], world["network"].connect, (S1,),
            clock=world["clock"],
        )
        try:
            with pytest.raises(WrongShardError) as excinfo:
                client.call("RequestAccountDetails", account_id=world["bob_account"])
        finally:
            client.close()
        assert excinfo.value.shard_id == "s2"
        assert excinfo.value.map_version == 1
        assert S2A in excinfo.value.addresses

    def test_router_routes_by_account_hash(self, world):
        details = world["alice"].call(
            "RequestAccountDetails", account_id=world["alice_account"]
        )
        assert details["AccountID"] == world["alice_account"]
        details = world["bob"].call("RequestAccountDetails", account_id=world["bob_account"])
        assert details["AccountID"] == world["bob_account"]

    def test_minted_ids_hash_into_own_shard(self, world):
        for sid in ("s1", "s2"):
            account = world["alice"].call("CreateAccount", shard_id=sid)["account_id"]
            assert world["map"].shard_for(account) == sid

    def test_zero_range_shard_bounces_everything(self, world):
        client = cluster_client(
            world["alice_ident"], world["store"], world["network"].connect, (S3,),
            clock=world["clock"],
        )
        try:
            with pytest.raises(WrongShardError):
                client.call("RequestAccountDetails", account_id=world["alice_account"])
        finally:
            client.close()

    def test_create_account_on_zero_range_shard_fails_fast(self, world):
        """A zero-range member refuses the mint outright instead of
        spinning the counter through ~10^8 rejected candidates."""
        bank_s3 = world["banks"][S3]
        counter_before = bank_s3.accounts._next_account
        client = cluster_client(
            world["alice_ident"], world["store"], world["network"].connect, (S3,),
            clock=world["clock"],
        )
        try:
            for _ in range(2):  # repeatable: the counter must not burn
                with pytest.raises(AccountError):
                    client.call("CreateAccount")
            assert bank_s3.accounts._next_account == counter_before
            # once the shard gains ranges, minting works on the spot
            world["shards"]["s3"].install_map(world["map"].split("s1", "s3"))
            account = client.call("CreateAccount")["account_id"]
        finally:
            client.close()
        assert world["map"].split("s1", "s3").shard_for(account) == "s3"

    def test_router_create_account_skips_zero_range_shards(self, world):
        """Round-robin placement must never pick s3 while it owns no
        ranges — a create routed there could only fail."""
        for _ in range(4):
            account = world["alice"].create_account()["account_id"]
            assert world["map"].shard_for(account) in ("s1", "s2")


class TestCrossShard2PC:
    def test_cross_shard_transfer_commits(self, world):
        before = total_funds(world)
        result = world["alice"].transfer(
            world["alice_account"], world["bob_account"], Credits(250)
        )
        confirmation = TransferConfirmation.from_dict(result["confirmation"])
        payload = confirmation.verify(world["banks"][S1].identity.private_key.public_key())
        assert payload["cross_shard"] is True
        assert confirmation.amount == Credits(250)
        bank_s1, bank_s2 = world["banks"][S1], world["banks"][S2A]
        assert bank_s1.accounts.available_balance(world["alice_account"]) == Credits(750)
        assert bank_s2.accounts.available_balance(world["bob_account"]) == Credits(750)
        intent = bank_s1.db.find("xfer_intents", (payload["intent_id"],))
        assert intent["State"] == INTENT_COMMITTED
        # drawer-side ledger on s1, recipient-side ledger on s2
        assert bank_s1.db.count("transfers") == 1
        assert total_funds(world) == before

    def test_local_transfer_unaffected(self, world):
        carol_account = world["alice"].call("CreateAccount", shard_id="s1")["account_id"]
        world["alice"].transfer(world["alice_account"], carol_account, Credits(100))
        bank_s1 = world["banks"][S1]
        assert bank_s1.accounts.available_balance(carol_account) == Credits(100)
        assert bank_s1.db.count("xfer_intents") == 0

    def test_insufficient_funds_leaves_no_intent(self, world):
        with pytest.raises(AccountError):
            world["alice"].transfer(
                world["alice_account"], world["bob_account"], Credits(99999)
            )
        bank_s1 = world["banks"][S1]
        assert bank_s1.db.count("xfer_intents") == 0
        assert bank_s1.accounts.available_balance(world["alice_account"]) == Credits(1000)

    def test_terminal_refusal_aborts_and_refunds(self, world):
        # an account id that hashes to s2 but was never created
        ghost = next(
            f"01-0001-{i:08d}" for i in range(900000, 999999)
            if world["map"].shard_for(f"01-0001-{i:08d}") == "s2"
        )
        before = total_funds(world)
        with pytest.raises(NotFoundError):
            world["alice"].transfer(world["alice_account"], ghost, Credits(10))
        bank_s1 = world["banks"][S1]
        assert bank_s1.accounts.available_balance(world["alice_account"]) == Credits(1000)
        rows = bank_s1.db.select("xfer_intents")
        assert len(rows) == 1 and rows[0]["State"] == "aborted"
        assert total_funds(world) == before

    def test_duplicate_retry_replays_cached_reply(self, world):
        """A client retry of a committed cross-shard transfer must replay
        the original confirmation — not run a second transfer."""
        subject = world["alice_ident"].subject
        params = {
            "from_account": world["alice_account"],
            "to_account": world["bob_account"],
            "amount": Credits(40),
        }
        hits = obs_metrics.counter("bank.dedup_hits")
        first = keyed_transfer(world, subject, params, "retry-key-1")
        before = hits.value
        again = keyed_transfer(world, subject, params, "retry-key-1")
        assert again == first
        # answered from the reply cache, before the coordinator is reached
        assert hits.value == before + 1
        bank_s1 = world["banks"][S1]
        assert bank_s1.accounts.available_balance(world["alice_account"]) == Credits(960)
        assert world["banks"][S2A].accounts.available_balance(
            world["bob_account"]
        ) == Credits(540)
        assert bank_s1.db.count("xfer_intents") == 1

    def test_coordinator_crash_between_prepare_and_commit(self, world):
        """Prepare commits, then the coordinator dies before driving the
        remote credit. Recovery (resolve_pending) re-drives the intent
        from its WAL'd row; the client's retry of the same key replays
        the now-cached reply."""
        shard = world["shards"]["s1"]
        subject = world["alice_ident"].subject
        bank_s1 = world["banks"][S1]
        row = shard._prepare(
            subject, world["alice_account"], world["bob_account"], Credits(75), "crash-key-1"
        )
        # funds reserved under the intent; nothing reached s2 yet
        assert bank_s1.accounts.available_balance(world["alice_account"]) == Credits(925)
        assert world["banks"][S2A].accounts.available_balance(
            world["bob_account"]
        ) == Credits(500)
        assert total_funds(world) == Credits(1500)

        # "recovered coordinator": re-derive state from tables, then sweep
        bank_s1.rescan_state()
        verdict = shard.resolve_pending()
        assert verdict == {"resolved": 1, "aborted": 0, "pending": 0}
        assert bank_s1.db.find("xfer_intents", (row["IntentID"],))["State"] == INTENT_COMMITTED
        assert world["banks"][S2A].accounts.available_balance(
            world["bob_account"]
        ) == Credits(575)
        assert total_funds(world) == Credits(1500)

        # the client retry resumes the same intent and gets the cached reply
        replayed = keyed_transfer(
            world,
            subject,
            {
                "from_account": world["alice_account"],
                "to_account": world["bob_account"],
                "amount": Credits(75),
            },
            "crash-key-1",
        )
        payload = TransferConfirmation.from_dict(replayed["confirmation"]).payload
        assert payload["intent_id"] == row["IntentID"]
        assert bank_s1.accounts.available_balance(world["alice_account"]) == Credits(925)

    def test_resolver_step_redrives_on_the_primary_only(self, world):
        """The background resolver is a step: called directly here, no
        thread. s2's coordinator prepares and "dies"; the intent row
        replicates to s2's standby, whose step must leave it alone (the
        primary resolves it and the outcome ships through the WAL)."""
        shards, banks = world["shards"], world["banks"]
        row = shards["s2"]._prepare(
            world["bob_ident"].subject, world["bob_account"], world["alice_account"],
            Credits(40), "resolver-step-1",
        )
        wait_caught_up(banks[S2A], banks[S2B])
        assert [r["IntentID"] for r in shards["s2b"].pending_intents()] == [row["IntentID"]]

        def alice_balance():
            return banks[S1].accounts.available_balance(world["alice_account"])

        ShardResolver(shards["s2b"], 60.0).step()  # a standby: nothing
        banks[S2A].endpoint.crashed = True
        ShardResolver(shards["s2"], 60.0).step()  # a dead primary: nothing
        banks[S2A].endpoint.crashed = False
        assert alice_balance() == Credits(1000)
        assert [r["IntentID"] for r in shards["s2"].pending_intents()] == [row["IntentID"]]

        ShardResolver(shards["s2"], 60.0).step()
        assert alice_balance() == Credits(1040)
        assert banks[S2A].db.find("xfer_intents", (row["IntentID"],))["State"] == INTENT_COMMITTED
        assert total_funds(world) == Credits(1500)
        ShardResolver(shards["s2"], 60.0).step()  # nothing left: idempotent
        assert alice_balance() == Credits(1040)

    def test_participant_down_leaves_funds_reserved(self, world):
        """With the whole destination group unreachable the transfer
        parks as a prepared intent (typed SettlementError) — no lost
        debit, and the retry path completes once the participant heals."""
        world["nodes"][S2A].crash()
        world["nodes"][S2B].crash()
        with pytest.raises((SettlementError, ReproError)):
            world["alice"].transfer(world["alice_account"], world["bob_account"], Credits(30))
        bank_s1 = world["banks"][S1]
        rows = bank_s1.db.select("xfer_intents")
        assert len(rows) == 1 and rows[0]["State"] == INTENT_PREPARED
        assert bank_s1.accounts.available_balance(world["alice_account"]) == Credits(970)
        # conservation on the surviving shard counts the reserved amount
        # (s2's 500 is unreachable while both its nodes are down)
        shard = world["shards"]["s1"]
        assert shard.owned_funds() + shard.prepared_total() == Credits(1000)

    def test_participant_failover_mid_prepare(self, world):
        """Prepared on s1, then s2's primary dies before the credit: the
        promoted standby serves Shard.Apply and the intent commits."""
        shard = world["shards"]["s1"]
        subject = world["alice_ident"].subject
        shard._prepare(
            subject, world["alice_account"], world["bob_account"], Credits(60), "failover-key"
        )
        wait_caught_up(world["banks"][S2A], world["banks"][S2B])
        world["nodes"][S2A].crash()
        world["nodes"][S2B].promote(reason="drill")

        verdict = shard.resolve_pending()
        assert verdict == {"resolved": 1, "aborted": 0, "pending": 0}
        promoted = world["banks"][S2B]
        assert promoted.accounts.available_balance(world["bob_account"]) == Credits(560)
        assert total_funds(world) == Credits(1500)

    def test_apply_is_idempotent_across_participant_failover(self, world):
        """The dest reply cache replicates, so a coordinator that retries
        against the promoted standby replays instead of double-crediting."""
        shard = world["shards"]["s1"]
        row = shard._prepare(
            world["alice_ident"].subject,
            world["alice_account"],
            world["bob_account"],
            Credits(20),
            "idem-key",
        )
        first = shard._apply_remote(dict(row))
        wait_caught_up(world["banks"][S2A], world["banks"][S2B])
        world["nodes"][S2A].crash()
        world["nodes"][S2B].promote(reason="drill")
        second = shard._apply_remote(dict(row))
        assert second == first
        assert world["banks"][S2B].accounts.available_balance(
            world["bob_account"]
        ) == Credits(520)

    def test_probe_steady_through_apply_window(self, world):
        """The conservation probe must not report a transient surplus
        between apply (credit landed, reply cached) and commit (intent
        still 'prepared'): applied intents are excluded from the
        prepared total."""
        before = total_funds(world)
        shard = world["shards"]["s1"]
        row = shard._prepare(
            world["alice_ident"].subject,
            world["alice_account"],
            world["bob_account"],
            Credits(25),
            "window-key",
        )
        assert total_funds(world) == before  # reserved, not yet applied
        shard._apply_remote(dict(row))
        assert total_funds(world) == before  # applied, not yet committed
        shard._complete(row["IntentID"])
        assert total_funds(world) == before  # committed


class TestRebalance:
    def test_live_split_moves_accounts_and_conserves(self, world):
        # accounts across the s1 range, funded
        accounts = [world["alice_account"]]
        for _ in range(6):
            account = world["alice"].call("CreateAccount", shard_id="s1")["account_id"]
            world["admin"].call("Admin.Deposit", account_id=account, amount=Credits(100))
            accounts.append(account)
        before = total_funds(world)

        clients = peer_clients(world)
        try:
            new_map = split_shard(clients, world["map"], "s1", "s3")
        finally:
            for client in clients.values():
                client.close()
        moved = [a for a in accounts if new_map.shard_for(a) == "s3"]
        kept = [a for a in accounts if new_map.shard_for(a) == "s1"]
        assert moved, "split moved no test accounts — hash layout changed?"

        # the old owner now bounces moved accounts with the new version...
        client = cluster_client(
            world["alice_ident"], world["store"], world["network"].connect, (S1,),
            clock=world["clock"],
        )
        try:
            with pytest.raises(WrongShardError) as excinfo:
                client.call("RequestAccountDetails", account_id=moved[0])
        finally:
            client.close()
        assert excinfo.value.shard_id == "s3"
        assert excinfo.value.map_version == 2
        # ...and a router on the stale map follows the hint transparently
        for account in moved:
            details = world["alice"].call("RequestAccountDetails", account_id=account)
            assert details["AccountID"] == account
        assert world["alice"].map.version == 2
        # source evicted the moved rows; kept rows still served locally
        bank_s1, bank_s3 = world["banks"][S1], world["banks"][S3]
        for account in moved:
            assert bank_s1.db.find("accounts", (account,)) is None
            assert bank_s3.db.find("accounts", (account,)) is not None
        for account in kept:
            assert bank_s1.db.find("accounts", (account,)) is not None
        assert total_funds(world) == before

    def test_cross_shard_transfer_lands_on_new_owner_after_split(self, world):
        clients = peer_clients(world)
        try:
            new_map = split_shard(clients, world["map"], "s2", "s3")
        finally:
            for client in clients.values():
                client.close()
        target = world["bob_account"]
        owner = new_map.shard_for(target)
        world["alice"].transfer(world["alice_account"], target, Credits(35))
        owner_bank = world["banks"][S3 if owner == "s3" else S2A]
        assert owner_bank.accounts.available_balance(target) == Credits(535)

    def test_prepared_intent_survives_recipient_range_split(self, world):
        """The reviewed double-credit: a coordinator on s1 crashes between
        apply and commit, then the recipient's range splits away from s2.
        The export cut carries the participant's '2pc:<IntentID>' reply
        row, so the re-driven apply at the new owner replays instead of
        crediting a second time."""
        # a recipient in the half of s2's range a split moves to s3
        upper = HALF + (RING_SIZE - HALF) // 2
        victim = mint_in_range(world, "s2", upper, RING_SIZE, deposit=Credits(500))
        shard1 = world["shards"]["s1"]
        row = shard1._prepare(
            world["alice_ident"].subject,
            world["alice_account"],
            victim,
            Credits(75),
            "split-crash-key",
        )
        shard1._apply_remote(dict(row))  # credit lands on s2, reply cached
        before = total_funds(world)

        clients = peer_clients(world)
        try:
            split_shard(clients, world["map"], "s2", "s3")
        finally:
            for client in clients.values():
                client.close()

        bank_s3 = world["banks"][S3]
        assert bank_s3.db.find("accounts", (victim,)) is not None
        assert bank_s3.db.find("replies", (f"2pc:{row['IntentID']}",)) is not None
        # the rebalance's fleet-wide resolve sweep (or this explicit one)
        # drives the intent home through the new owner — exactly once
        shard1.resolve_pending()
        assert world["banks"][S1].db.find("xfer_intents", (row["IntentID"],))[
            "State"
        ] == INTENT_COMMITTED
        assert bank_s3.accounts.available_balance(victim) == Credits(575)
        assert total_funds(world) == before

    def test_client_retry_after_split_replays_cached_reply(self, world):
        """Client idempotency replies move with the account: a post-split
        retry of a committed op must replay at the new owner, not
        re-execute."""
        upper = HALF + (RING_SIZE - HALF) // 2
        victim = mint_in_range(world, "s2", upper, RING_SIZE)
        subject = world["admin_ident"].subject
        context = RequestContext(
            method="Admin.Deposit", subject=subject, idempotency_key="dep-retry-1"
        )
        operation = world["banks"][S2A].endpoint.operations["Admin.Deposit"]
        with request_scope(context):
            first = operation(subject, {"account_id": victim, "amount": Credits(90)})

        clients = peer_clients(world)
        try:
            split_shard(clients, world["map"], "s2", "s3")
        finally:
            for client in clients.values():
                client.close()

        bank_s3 = world["banks"][S3]
        operation = world["banks"][S3].endpoint.operations["Admin.Deposit"]
        with request_scope(context):
            again = operation(subject, {"account_id": victim, "amount": Credits(90)})
        assert again == first
        assert bank_s3.accounts.available_balance(victim) == Credits(90)

    def test_statement_history_moves_with_account(self, world):
        """Ledger rows ride the export cut: statements at the new owner
        show pre-move activity (re-identified, but joined consistently)."""
        upper = HALF + (RING_SIZE - HALF) // 2
        victim = mint_in_range(world, "s2", upper, RING_SIZE, deposit=Credits(100))
        world["admin"].call(
            "RequestDirectTransfer",
            from_account=victim,
            to_account=world["bob_account"],
            amount=Credits(30),
        )

        clients = peer_clients(world)
        try:
            split_shard(clients, world["map"], "s2", "s3")
        finally:
            for client in clients.values():
                client.close()

        statement = world["admin"].call(
            "RequestAccountStatement",
            account_id=victim,
            start="19700101000000",
            end="29991231235959",
        )
        # deposit entry + transfer drawer entry, and the transfer record
        types = sorted(t["Type"] for t in statement["transactions"])
        assert types == ["Deposit", "Transfer"]
        assert len(statement["transfers"]) == 1
        transfer = statement["transfers"][0]
        assert transfer["DrawerAccountID"] == victim
        assert transfer["RecipientAccountID"] == world["bob_account"]
        # the join is intact: the transfer shares the (re-identified)
        # TransactionID with the drawer-side entry
        entry_txns = {t["TransactionID"] for t in statement["transactions"]}
        assert transfer["TransactionID"] in entry_txns
        # and the history left the source with the account
        assert world["banks"][S2A].db.select("transactions", [eq("AccountID", victim)]) == []

    def test_stale_install_rejected(self, world):
        shard = world["shards"]["s1"]
        shard.install_map(initial_map().split("s1", "s3"))  # v2
        with pytest.raises(ValidationError):
            shard.install_map(initial_map())  # v1 < v2: stale
        with pytest.raises(ValidationError):
            shard.install_map(initial_map().split("s2", "s3"))  # v2, different body
        # same version, same body: idempotent no-op
        result = shard.install_map(initial_map().split("s1", "s3"))
        assert result["changed"] is False


@pytest.mark.chaos
class TestShardChaos:
    def test_storm_with_participant_kill_and_split(self, world):
        """Transfer storm across 2 shards; mid-storm the participant
        primary is killed (standby promoted) AND s1 splits half its
        ranges to s3. Global conservation and exactly-once must hold."""
        rng = random.Random(4242)
        admin = world["admin"]
        s1_accounts = [world["alice_account"]]
        s2_accounts = [world["bob_account"]]
        for _ in range(5):
            a = admin.call("CreateAccount", shard_id="s1")["account_id"]
            admin.call("Admin.Deposit", account_id=a, amount=Credits(1000))
            s1_accounts.append(a)
            b = admin.call("CreateAccount", shard_id="s2")["account_id"]
            admin.call("Admin.Deposit", account_id=b, amount=Credits(1000))
            s2_accounts.append(b)
        initial_total = total_funds(world)

        confirmed: list[dict] = []
        terminal = pending = 0
        bookkeeping = threading.Lock()
        stop = threading.Event()

        def driver(seed: int) -> None:
            nonlocal terminal, pending
            # admin owns no accounts but passes the owner-or-admin check;
            # a generous bounce budget rides out the split window
            router = world["router_for"](world["admin_ident"], seed, max_bounces=24)
            local_rng = random.Random(seed)
            try:
                for _ in range(12):
                    if stop.is_set():
                        break
                    frm = local_rng.choice(s1_accounts)
                    # ~50% cross-shard
                    to = local_rng.choice(
                        s2_accounts if local_rng.random() < 0.5 else s1_accounts
                    )
                    if frm == to:
                        continue
                    try:
                        result = router.transfer(frm, to, Credits(3))
                    except SettlementError:
                        with bookkeeping:
                            pending += 1
                        continue
                    except (AccountError, WrongShardError):
                        with bookkeeping:
                            terminal += 1
                        continue
                    except ReproError:
                        with bookkeeping:
                            pending += 1
                        continue
                    payload = TransferConfirmation.from_dict(result["confirmation"]).payload
                    with bookkeeping:
                        confirmed.append(payload)
            finally:
                router.close()

        threads = [
            threading.Thread(target=driver, args=(100 + i,), daemon=True) for i in range(4)
        ]
        for thread in threads:
            thread.start()

        # mid-storm: kill the participant primary, promote its standby
        time.sleep(0.15)
        wait_caught_up(world["banks"][S2A], world["banks"][S2B])
        world["nodes"][S2A].crash()
        world["nodes"][S2B].promote(reason="chaos")

        # mid-storm: split s1's upper ranges to s3 while traffic flows
        time.sleep(0.1)
        clients = peer_clients(world)
        try:
            for attempt in range(8):
                try:
                    split_shard(clients, world["map"], "s1", "s3")
                    break
                except (SettlementError, ReproError):
                    if attempt == 7:
                        raise
                    time.sleep(0.1)
        finally:
            for client in clients.values():
                client.close()

        for thread in threads:
            thread.join(timeout=30)
        stop.set()
        assert not any(thread.is_alive() for thread in threads)

        # quiesce: every coordinator drives its surviving intents home
        for shard in primaries(world):
            for _ in range(20):
                if shard.resolve_pending()["pending"] == 0 and not shard.pending_intents():
                    break
                time.sleep(0.05)
            assert not shard.pending_intents()

        # conservation: no credit minted, no debit lost — including every
        # transfer whose client saw only SettlementError
        assert total_funds(world) == initial_total

        # exactly-once: every confirmed cross-shard transfer has exactly
        # one committed intent, and no intent committed twice (the intent
        # id is the primary key; the dest credit is reply-cache-deduped)
        cross_payloads = [p for p in confirmed if p.get("cross_shard")]
        committed_ids = set()
        for shard in primaries(world):
            for row in shard.bank.db.select("xfer_intents"):
                assert row["State"] in ("committed", "aborted")
                if row["State"] == "committed":
                    assert row["IntentID"] not in committed_ids
                    committed_ids.add(row["IntentID"])
        for payload in cross_payloads:
            assert payload["intent_id"] in committed_ids
        assert rng is not None  # seed documented in the drill output
