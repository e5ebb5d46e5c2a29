"""Tests for GridCoin — the sec 3.2 extensibility demonstration.

The protocol is added to a *running* server by registering operations;
no accounts-layer or security-layer code changes. Bearer semantics:
coins circulate offline, first presenter redeems, double spends lose.
"""

import random

import pytest

from repro.bank.server import GridBankServer
from repro.errors import (
    DoubleSpendError,
    InstrumentError,
    InsufficientFundsError,
    NotPrimaryError,
    WrongShardError,
)
from repro.net.rpc import RPCClient
from repro.net.transport import InProcessNetwork
from repro.payments.coin import GridCoin, GridCoinProtocol, install
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.validation import CertificateStore
from repro.util.gbtime import VirtualClock
from repro.util.money import Credits, ZERO
from tests.conftest import attach_foreign_shard, deliver_keyed

ALICE = "/O=VO-A/CN=alice"
BOB = "/O=VO-B/CN=bob"
CAROL = "/O=VO-C/CN=carol"


@pytest.fixture()
def world(ca_keypair, keypair_a):
    clock = VirtualClock()
    ca = CertificateAuthority(
        DistinguishedName("GridBank", "Root CA"), clock=clock, keypair=ca_keypair
    )
    store = CertificateStore([ca.root_certificate])
    bank = GridBankServer(
        ca.issue_identity(DistinguishedName("GridBank", "server"), keypair=keypair_a),
        store, clock=clock, rng=random.Random(3),
    )
    protocol = install(bank)
    accounts = {
        name: bank.accounts.create_account(subject)
        for name, subject in (("alice", ALICE), ("bob", BOB), ("carol", CAROL))
    }
    bank.admin.deposit(accounts["alice"], Credits(100))
    return {"clock": clock, "bank": bank, "protocol": protocol, "accounts": accounts,
            "ca": ca, "store": store}


class TestMinting:
    def test_mint_pre_debits_into_locked(self, world):
        coins = world["protocol"].mint(ALICE, world["accounts"]["alice"], Credits(5), count=4)
        assert len(coins) == 4
        assert len({c.coin_id for c in coins}) == 4
        assert world["bank"].accounts.available_balance(world["accounts"]["alice"]) == Credits(80)
        assert world["bank"].accounts.locked_balance(world["accounts"]["alice"]) == Credits(20)

    def test_cannot_mint_beyond_funds(self, world):
        with pytest.raises(InsufficientFundsError):
            world["protocol"].mint(ALICE, world["accounts"]["alice"], Credits(60), count=2)

    def test_only_owner_mints(self, world):
        with pytest.raises(InstrumentError):
            world["protocol"].mint(BOB, world["accounts"]["alice"], Credits(1))

    def test_mint_validation(self, world):
        with pytest.raises(InstrumentError):
            world["protocol"].mint(ALICE, world["accounts"]["alice"], Credits(1), count=0)


class TestBearerSemantics:
    def test_anyone_holding_may_redeem(self, world):
        (coin,) = world["protocol"].mint(ALICE, world["accounts"]["alice"], Credits(10))
        # alice hands the coin to bob offline; bob redeems
        result = world["protocol"].redeem(BOB, coin, world["accounts"]["bob"])
        assert result["paid"] == Credits(10)
        assert world["bank"].accounts.available_balance(world["accounts"]["bob"]) == Credits(10)
        assert world["bank"].accounts.locked_balance(world["accounts"]["alice"]) == ZERO

    def test_coin_circulates_but_redeems_once(self, world):
        (coin,) = world["protocol"].mint(ALICE, world["accounts"]["alice"], Credits(10))
        # alice pays bob; bob pays carol with the same coin (offline hops);
        # carol redeems first, then a copy bob kept is worthless
        world["protocol"].redeem(CAROL, coin, world["accounts"]["carol"])
        with pytest.raises(DoubleSpendError):
            world["protocol"].redeem(BOB, coin, world["accounts"]["bob"])
        # funds moved exactly once
        assert world["bank"].accounts.total_bank_funds() == Credits(100)

    def test_forged_coin_rejected(self, world, keypair_b):
        from repro.crypto.signature import Signed

        forged = GridCoin(
            signed=Signed.make(
                keypair_b.private,
                {
                    "instrument": "GridCoin",
                    "id": "coin-99999999",
                    "drawer_account": world["accounts"]["alice"],
                    "payee_subject": "",
                    "amount_limit": Credits(1000),
                },
                signer="/O=GridBank/CN=server",
            )
        )
        with pytest.raises(InstrumentError):
            world["protocol"].redeem(BOB, forged, world["accounts"]["bob"])

    def test_expired_coin_rejected(self, world):
        (coin,) = world["protocol"].mint(ALICE, world["accounts"]["alice"], Credits(1))
        world["clock"].advance(31 * 24 * 3600)
        with pytest.raises(InstrumentError, match="expired"):
            world["protocol"].redeem(BOB, coin, world["accounts"]["bob"])

    def test_refund_unspent_coin(self, world):
        (coin,) = world["protocol"].mint(ALICE, world["accounts"]["alice"], Credits(10))
        refunded = world["protocol"].refund(ALICE, coin)
        assert refunded == Credits(10)
        assert world["bank"].accounts.available_balance(world["accounts"]["alice"]) == Credits(100)
        with pytest.raises(InstrumentError):
            world["protocol"].redeem(BOB, coin, world["accounts"]["bob"])

    def test_only_drawer_refunds(self, world):
        (coin,) = world["protocol"].mint(ALICE, world["accounts"]["alice"], Credits(10))
        with pytest.raises(InstrumentError):
            world["protocol"].refund(BOB, coin)


def keyed(world, method: str, subject: str, key: str, **params):
    return deliver_keyed(world["bank"], method, subject, key, **params)


class TestInheritsTheGuards:
    """Registering in the op table is all it takes: the coin operations
    are exactly-once, primary-only and shard-guarded like sec 5.2's."""

    def test_resent_key_replays_the_original_coins(self, world):
        account = world["accounts"]["alice"]
        mint = dict(account_id=account, value=Credits(3), count=2)
        first = keyed(world, "MintGridCoins", ALICE, "mint-1", **mint)
        again = keyed(world, "MintGridCoins", ALICE, "mint-1", **mint)
        assert again == first
        assert world["bank"].accounts.locked_balance(account) == Credits(6)
        coin = first["coins"][0]
        redeem = dict(coin=coin, payee_account=world["accounts"]["bob"])
        paid = keyed(world, "RedeemGridCoin", BOB, "redeem-1", **redeem)
        # the retry gets the confirmation back, not a DoubleSpendError
        assert keyed(world, "RedeemGridCoin", BOB, "redeem-1", **redeem) == paid
        assert world["bank"].accounts.available_balance(world["accounts"]["bob"]) == Credits(3)

    def test_a_redemption_is_metered_at_the_coins_value(self, world):
        (coin,) = world["protocol"].mint(ALICE, world["accounts"]["alice"], Credits(7))
        redeem = dict(coin=coin.to_dict(), payee_account=world["accounts"]["bob"])
        keyed(world, "RedeemGridCoin", BOB, "redeem-7", **redeem)
        (bob,) = [r for r in world["bank"].usage.top_principals(5) if r["principal"] == BOB]
        assert bob["ops"] == 1 and bob["currency_moved"] == 7.0

    def test_standby_refuses_all_three(self, world):
        account = world["accounts"]["alice"]
        (coin,) = world["protocol"].mint(ALICE, account, Credits(4))
        world["bank"].role = "standby"
        calls = [
            ("MintGridCoins", ALICE, dict(account_id=account, value=Credits(1))),
            ("RedeemGridCoin", BOB, dict(coin=coin.to_dict(), payee_account=world["accounts"]["bob"])),
            ("RefundGridCoin", ALICE, dict(coin=coin.to_dict())),
        ]
        for index, (method, subject, params) in enumerate(calls):
            with pytest.raises(NotPrimaryError):
                keyed(world, method, subject, f"standby-{index}", **params)
        assert world["bank"].accounts.locked_balance(account) == Credits(4)

    def test_sharded_bank_bounces_a_foreign_account(self, world):
        account = world["accounts"]["alice"]
        (coin,) = world["protocol"].mint(ALICE, account, Credits(4))
        shard = attach_foreign_shard(world["bank"], account)
        calls = [
            ("MintGridCoins", ALICE, dict(account_id=account, value=Credits(1))),
            ("RedeemGridCoin", BOB, dict(coin=coin.to_dict(), payee_account=account)),
            ("RefundGridCoin", ALICE, dict(coin=coin.to_dict())),
        ]
        try:
            for index, (method, subject, params) in enumerate(calls):
                with pytest.raises(WrongShardError) as excinfo:
                    keyed(world, method, subject, f"foreign-{index}", **params)
                assert excinfo.value.shard_id != shard.shard_id
        finally:
            shard.close()
        assert world["bank"].accounts.locked_balance(account) == Credits(4)


class TestLayeringClaim:
    """Sec 3.2: new schemes plug in without touching other modules."""

    def test_installed_over_rpc_on_a_live_server(self, world, keypair_b, keypair_c):
        network = InProcessNetwork()
        network.listen("bank", world["bank"].connection_handler)
        alice_ident = world["ca"].issue_identity(
            DistinguishedName("VO-A", "alice"), keypair=keypair_b
        )
        bob_ident = world["ca"].issue_identity(DistinguishedName("VO-B", "bob"), keypair=keypair_c)

        def client(identity, seed):
            c = RPCClient(network.connect("bank"), identity, world["store"],
                          clock=world["clock"], rng=random.Random(seed))
            c.connect()
            return c

        alice = client(alice_ident, 1)
        bob = client(bob_ident, 2)
        minted = alice.call(
            "MintGridCoins", account_id=world["accounts"]["alice"], value=Credits(3), count=2
        )
        assert len(minted["coins"]) == 2
        result = bob.call(
            "RedeemGridCoin", coin=minted["coins"][0], payee_account=world["accounts"]["bob"]
        )
        assert result["paid"] == Credits(3)
        refund = alice.call("RefundGridCoin", coin=minted["coins"][1])
        assert refund["refunded"] == Credits(3)

    def test_no_new_tables_or_account_operations_needed(self, world):
        # the protocol reuses the shared instruments registry and the
        # existing accounts tables — the database schema is unchanged, and
        # holds only the ledger ("replies" belongs to the exactly-once RPC
        # layer, "shard_meta" and "xfer_intents" to the sharding layer, not
        # GridCoin; spans and usage rollups are telemetry, kept in rings
        # beside the database)
        assert sorted(world["bank"].db.table_names()) == [
            "accounts", "administrators", "instruments", "replies",
            "shard_meta", "transactions", "transfers", "xfer_intents",
        ]

    def test_coexists_with_other_instruments(self, world):
        (coin,) = world["protocol"].mint(ALICE, world["accounts"]["alice"], Credits(5))
        cheque = world["bank"].cheques.issue(
            ALICE, world["accounts"]["alice"], BOB, Credits(5)
        )
        world["protocol"].redeem(BOB, coin, world["accounts"]["bob"])
        world["bank"].cheques.redeem(BOB, cheque, world["accounts"]["bob"], Credits(5))
        assert world["bank"].accounts.available_balance(world["accounts"]["bob"]) == Credits(10)
