"""Exactly-once RPC: idempotency keys, the durable reply cache, and
retries that survive drops, duplicates, resets — and bank crashes.

The client retries with a stable idempotency key; the bank commits every
mutating operation's reply in the same WAL transaction as its ledger
effects. Together: a retried request is either served from the cache
(the op ran) or executed fresh (it never ran) — never executed twice.
"""

import random
import sys
import threading

import pytest

from repro.bank.replies import ReplyCache
from repro.bank.server import GridBankServer
from repro.core.api import GridBankAPI
from repro.db.database import Database
from repro.errors import DeadlineExceeded, ProtocolError, TransactionError, TransportError
from repro.net.retry import RetryPolicy
from repro.net.rpc import RPCClient, RequestContext, request_scope
from repro.net.transport import FaultPlan, InProcessNetwork
from repro.obs import metrics as obs_metrics
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.validation import CertificateStore
from repro.util.gbtime import VirtualClock
from repro.util.money import Credits


@pytest.fixture()
def world(ca_keypair, keypair_a, keypair_b, keypair_c, tmp_path):
    clock = VirtualClock()
    ca = CertificateAuthority(
        DistinguishedName("GridBank", "Root CA"), clock=clock, keypair=ca_keypair
    )
    store = CertificateStore([ca.root_certificate])
    bank_ident = ca.issue_identity(DistinguishedName("GridBank", "server"), keypair=keypair_a)

    def boot_bank() -> GridBankServer:
        db = Database(path=tmp_path / "bank")
        bank = GridBankServer(bank_ident, store, db=db, clock=clock, rng=random.Random(2))
        bank.recover()
        return bank

    bank = boot_bank()
    faults = FaultPlan(rng=random.Random(0), clock=clock)
    network = InProcessNetwork(faults=faults)
    network.listen("gridbank", bank.connection_handler)
    state = {"bank": bank}

    def restart_bank() -> GridBankServer:
        """Crash the current bank process and boot a fresh one from WAL."""
        state["bank"].db.close()
        network.unlisten("gridbank")
        state["bank"] = boot_bank()
        network.listen("gridbank", state["bank"].connection_handler)
        return state["bank"]

    def api_for(identity, seed, policy=None):
        client = RPCClient(
            network.connect("gridbank"),
            identity,
            store,
            clock=clock,
            rng=random.Random(seed),
            retry_policy=policy
            if policy is not None
            else RetryPolicy(max_attempts=8, rng=random.Random(seed + 10)),
            reconnect=lambda: network.connect("gridbank"),
        )
        client.connect()
        return GridBankAPI(client, rng=random.Random(seed + 50))

    alice_ident = ca.issue_identity(DistinguishedName("VO-A", "alice"), keypair=keypair_b)
    gsp_ident = ca.issue_identity(DistinguishedName("VO-B", "gsp"), keypair=keypair_c)
    admin_ident = ca.issue_identity(DistinguishedName("GridBank", "admin"), keypair=keypair_b)
    bank.admin.add_administrator(admin_ident.subject)
    alice = api_for(alice_ident, 1)
    gsp = api_for(gsp_ident, 2)
    admin = api_for(admin_ident, 3)
    alice_account = alice.create_account()
    gsp_account = gsp.create_account()
    admin.admin_deposit(alice_account, Credits(1000))
    return {
        "clock": clock,
        "bank": lambda: state["bank"],
        "restart_bank": restart_bank,
        "network": network,
        "faults": faults,
        "api_for": api_for,
        "store": store,
        "ca": ca,
        "alice": alice,
        "gsp": gsp,
        "alice_ident": alice_ident,
        "gsp_ident": gsp_ident,
        "gsp_subject": gsp_ident.subject,
        "alice_account": alice_account,
        "gsp_account": gsp_account,
    }


class TestRetryWithDedup:
    def test_dropped_response_retry_applies_transfer_once(self, world):
        """The dangerous case from test_fault_injection, now healed: the
        server acted, the response was lost, the retry returns the cached
        reply instead of failing (or paying twice)."""
        bank = world["bank"]()
        world["faults"].drop_response_probability = 0.6
        before_hits = obs_metrics.counter("bank.dedup_hits").value
        confirmation = world["alice"].request_direct_transfer(
            world["alice_account"], world["gsp_account"], Credits(10)
        )
        world["faults"].drop_response_probability = 0.0
        assert confirmation.amount == Credits(10)
        assert bank.accounts.available_balance(world["gsp_account"]) == Credits(10)
        assert bank.db.count("transfers") == 1
        assert bank.accounts.total_bank_funds() == Credits(1000)
        assert obs_metrics.counter("bank.dedup_hits").value >= before_hits

    def test_retried_redemption_returns_original_confirmation(self, world):
        """PR-seed behaviour: a retried redemption died on DoubleSpendError.
        Now the reply cache returns the original settlement."""
        bank = world["bank"]()
        cheque = world["alice"].request_cheque(
            world["alice_account"], world["gsp_subject"], Credits(50)
        )
        world["faults"].drop_response_probability = 0.6
        result = world["gsp"].redeem_cheque(cheque, world["gsp_account"], Credits(50))
        world["faults"].drop_response_probability = 0.0
        assert Credits(result["paid"]) == Credits(50)
        assert bank.accounts.available_balance(world["gsp_account"]) == Credits(50)
        assert bank.accounts.total_bank_funds() == Credits(1000)

    def test_duplicate_delivery_cannot_double_apply(self, world):
        """A duplicated frame kills the secure channel (anti-replay); the
        client reconnects and the ledger still sees exactly one effect per
        key."""
        bank = world["bank"]()
        world["faults"].duplicate_request_probability = 0.5
        for _ in range(8):
            world["alice"].request_direct_transfer(
                world["alice_account"], world["gsp_account"], Credits(1)
            )
        world["faults"].duplicate_request_probability = 0.0
        assert bank.accounts.available_balance(world["gsp_account"]) == Credits(8)
        assert bank.db.count("transfers") == 8
        assert bank.accounts.total_bank_funds() == Credits(1000)

    def test_connection_resets_are_survived(self, world):
        bank = world["bank"]()
        world["faults"].reset_probability = 0.2
        for _ in range(8):
            world["alice"].request_direct_transfer(
                world["alice_account"], world["gsp_account"], Credits(1)
            )
        world["faults"].reset_probability = 0.0
        assert bank.accounts.available_balance(world["gsp_account"]) == Credits(8)
        assert bank.accounts.total_bank_funds() == Credits(1000)

    def test_retries_are_observable(self, world):
        key = "rpc.client.retries{method=RequestDirectTransfer}"
        world["faults"].drop_response_probability = 0.6
        world["alice"].request_direct_transfer(
            world["alice_account"], world["gsp_account"], Credits(1)
        )
        world["faults"].drop_response_probability = 0.0
        assert obs_metrics.REGISTRY.snapshot()["counters"].get(key, 0) >= 1


class TestDeadlines:
    def test_expired_deadline_rejected_before_dispatch(self, world):
        """Latency injection pushes the virtual clock past the request's
        deadline in flight; the server must refuse to execute it."""
        bank = world["bank"]()
        slow = world["api_for"](
            world["gsp_ident"],
            7,
            policy=RetryPolicy(
                max_attempts=1, call_deadline=0.5, rng=random.Random(70)
            ),
        )
        account = slow.create_account()
        before_rows = bank.db.count("transactions")
        world["faults"].latency_probability = 1.0
        world["faults"].latency_range = (2.0, 3.0)
        with pytest.raises(DeadlineExceeded):
            slow.request_direct_transfer(
                world["alice_account"], account, Credits(5)
            )
        world["faults"].latency_probability = 0.0
        # nothing executed, nothing cached
        assert bank.db.count("transactions") == before_rows
        assert bank.accounts.total_bank_funds() == Credits(1000)

    def test_deadline_bounds_the_retry_loop(self, world):
        """With requests dropping forever, the deadline — not the attempt
        count — ends the call, as DeadlineExceeded rather than a transport
        error."""
        client = world["api_for"](
            world["gsp_ident"],
            8,
            policy=RetryPolicy(
                max_attempts=50,
                base_delay=0.5,
                max_delay=2.0,
                call_deadline=5.0,
                rng=random.Random(80),
            ),
        )
        world["faults"].drop_request_probability = 1.0
        start = world["clock"].epoch()
        with pytest.raises(DeadlineExceeded):
            client.check_balance(world["alice_account"])
        world["faults"].drop_request_probability = 0.0
        # the loop gave up within (deadline + one max backoff) virtual seconds
        assert world["clock"].epoch() - start <= 7.0


class TestReplyCacheCrashRecovery:
    def test_cached_reply_survives_crash_and_replays(self, world):
        """Satellite: issue + redeem a cheque, crash before the response is
        delivered, restart from WAL, retry the same idempotency key —
        exactly one settlement row and an identical replayed response."""
        bank = world["bank"]()
        cheque = world["alice"].request_cheque(
            world["alice_account"], world["gsp_subject"], Credits(40)
        )
        redeem_params = {
            "cheque": cheque.to_dict(),
            "payee_account": world["gsp_account"],
            "charge": Credits(40),
            "rur_blob": b"",
        }
        context = RequestContext(
            method="RedeemGridCheque",
            subject=world["gsp_subject"],
            idempotency_key="gsp-retry:77",
        )
        operation = bank.endpoint.operations["RedeemGridCheque"]
        with request_scope(context):
            original = operation(world["gsp_subject"], redeem_params)
        rows_before = bank.db.count("transactions")

        # crash before the response reached the client; reboot from WAL
        revived = world["restart_bank"]()
        assert revived.accounts.available_balance(world["gsp_account"]) == Credits(40)

        # the client retries the same key against the revived bank
        operation = revived.endpoint.operations["RedeemGridCheque"]
        with request_scope(context):
            replayed = operation(world["gsp_subject"], redeem_params)
        assert replayed == original
        assert revived.db.count("transactions") == rows_before
        assert revived.accounts.available_balance(world["gsp_account"]) == Credits(40)
        assert revived.accounts.total_bank_funds() == Credits(1000)

    def test_end_to_end_retry_across_bank_restart(self, world):
        """The on_retry hook crashes and restarts the bank between attempts:
        the client's re-sent request lands on the revived process and is
        answered from the recovered reply cache."""
        restarted = []

        def crash_restart(attempt, exc):
            if not restarted:
                restarted.append(attempt)
                world["restart_bank"]()

        gsp = world["api_for"](world["gsp_ident"], 9)
        account = gsp.create_account()

        # drop only the first response: the transfer commits server-side,
        # the bank then crashes, and the retry must hit the revived cache
        def stop_dropping_and_restart(attempt, exc):
            world["faults"].drop_response_probability = 0.0
            crash_restart(attempt, exc)

        client = world["api_for"](
            world["alice_ident"],
            11,
            policy=RetryPolicy(
                max_attempts=8, rng=random.Random(92), on_retry=stop_dropping_and_restart
            ),
        )
        world["faults"].drop_response_probability = 1.0
        confirmation = client.request_direct_transfer(
            world["alice_account"], account, Credits(25)
        )
        bank = world["bank"]()
        assert confirmation.amount == Credits(25)
        assert bank.accounts.available_balance(account) == Credits(25)
        assert bank.db.count("transfers") == 1
        assert bank.accounts.total_bank_funds() == Credits(1000)
        assert restarted  # the bank really did restart mid-call


class TestReplyCacheUnit:
    def make_cache(self, max_entries=10_000):
        clock = VirtualClock()
        db = Database()
        return ReplyCache(db, clock, max_entries=max_entries), db

    def test_store_requires_transaction(self):
        cache, db = self.make_cache()
        with pytest.raises(TransactionError):
            cache.store("k1", "/O=VO-A/CN=alice", "RequestDirectTransfer", {"x": 1})

    def test_lookup_roundtrip(self):
        cache, db = self.make_cache()
        with db.transaction():
            cache.store("k1", "/O=VO-A/CN=alice", "Op", {"paid": 5})
        row = cache.lookup("k1", "/O=VO-A/CN=alice", "Op")
        assert ReplyCache.replay(row) == {"paid": 5}
        assert cache.lookup("nope", "/O=VO-A/CN=alice", "Op") is None

    def test_key_reuse_by_other_subject_or_method_refused(self):
        cache, db = self.make_cache()
        with db.transaction():
            cache.store("k1", "/O=VO-A/CN=alice", "Op", 1)
        with pytest.raises(ProtocolError):
            cache.lookup("k1", "/O=VO-B/CN=mallory", "Op")
        with pytest.raises(ProtocolError):
            cache.lookup("k1", "/O=VO-A/CN=alice", "OtherOp")

    def test_rollback_discards_reply(self):
        cache, db = self.make_cache()
        with pytest.raises(RuntimeError):
            with db.transaction():
                cache.store("k1", "s", "Op", 1)
                raise RuntimeError("op failed after store")
        assert cache.lookup("k1", "s", "Op") is None

    def test_eviction_bounds_size(self):
        cache, db = self.make_cache(max_entries=100)
        for i in range(260):
            with db.transaction():
                cache.store(f"k{i}", "s", "Op", i)
        assert len(cache) <= 100
        # newest entries survive, oldest were evicted
        assert cache.lookup("k259", "s", "Op") is not None
        assert cache.lookup("k0", "s", "Op") is None

    def test_two_writers_at_the_bound_never_fail(self):
        """gridbench finding F1: two writers at the bound used to pick the
        same victims; the loser's delete raised NotFoundError."""
        bound, per_writer = 80, 600
        cache, db = self.make_cache(max_entries=bound)
        with db.transaction():
            for i in range(bound):
                cache.store(f"aged{i}", "s", "Op", i)
        errors, sizes = [], []

        def writer(name):
            try:
                for i in range(per_writer):
                    with db.transaction():
                        cache.store(f"{name}{i}", "s", "Op", i)
                    sizes.append(len(cache))
            except Exception as exc:  # noqa: BLE001 - the assertion below reports it
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(name,)) for name in "ab"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert max(sizes) <= bound and len(cache) <= bound
        # exactly the newest stores are retained, whoever made them
        stored = bound + 2 * per_writer
        seqs = [row["Seq"] for row in db.select("replies", order_by="Seq")]
        assert seqs == list(range(stored - len(seqs) + 1, stored + 1))

    def test_rescan_reads_the_index_not_the_rows(self, monkeypatch):
        cache, db = self.make_cache()
        with db.transaction():
            cache.store("k1", "s", "Op", 1)
        monkeypatch.setattr(db.table("replies"), "all_rows", None)  # a copy would raise
        cache.rescan()
        with db.transaction():
            cache.store("k2", "s", "Op", 2)
        assert db.get("replies", ("k2",))["Seq"] == db.get("replies", ("k1",))["Seq"] + 1

    def test_sequence_survives_rescan(self):
        cache, db = self.make_cache()
        with db.transaction():
            cache.store("k1", "s", "Op", 1)
        cache.rescan()
        with db.transaction():
            cache.store("k2", "s", "Op", 2)
        rows = sorted(
            db.table("replies").all_rows(), key=lambda r: r["Seq"]
        )
        assert [r["IdempotencyKey"] for r in rows] == ["k1", "k2"]
        assert rows[0]["Seq"] < rows[1]["Seq"]
