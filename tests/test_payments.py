"""Unit tests for the payment protocol modules (cheque, hashchain, coin, direct)."""

import random

import pytest

from repro.bank.accounts import GBAccounts
from repro.bank.admin import GBAdmin
from repro.crypto.hashes import HashChain
from repro.db.database import Database
from repro.errors import (
    DoubleSpendError,
    InstrumentError,
    InsufficientFundsError,
    PaymentError,
    SignatureError,
    ValidationError,
)
from repro.payments.cheque import GridCheque, GridChequeProtocol
from repro.payments.coin import GridCoinProtocol
from repro.payments.direct import DirectTransferProtocol, TransferConfirmation
from repro.payments.hashchain import (
    GridHashProtocol,
    HashChainVerifier,
    HashChainWallet,
    PaymentTick,
)
from repro.payments.instruments import InstrumentRegistry
from repro.util.gbtime import VirtualClock
from repro.util.serialize import canonical_dumps
from repro.util.money import Credits, ZERO

GSC = "/O=VO-A/CN=alice"
GSP = "/O=VO-B/CN=gsp"


@pytest.fixture()
def world(keypair_a, keypair_b):
    clock = VirtualClock()
    db = Database()
    accounts = GBAccounts(db, clock=clock)
    admin = GBAdmin(accounts)
    registry = InstrumentRegistry(db, clock)
    gsc_account = accounts.create_account(GSC)
    gsp_account = accounts.create_account(GSP)
    admin.deposit(gsc_account, Credits(1000))
    bank_key = keypair_a.private
    return {
        "clock": clock,
        "accounts": accounts,
        "admin": admin,
        "registry": registry,
        "gsc_account": gsc_account,
        "gsp_account": gsp_account,
        "bank_key": bank_key,
        "bank_public": keypair_a.public,
        "other_key": keypair_b,
        "cheques": GridChequeProtocol(accounts, registry, bank_key, "/O=GB/CN=bank", clock),
        "hashchains": GridHashProtocol(accounts, registry, bank_key, "/O=GB/CN=bank", clock),
        "direct": DirectTransferProtocol(accounts, bank_key, "/O=GB/CN=bank", clock),
    }


class TestGridCheque:
    def test_issue_locks_funds(self, world):
        cheque = world["cheques"].issue(GSC, world["gsc_account"], GSP, Credits(100))
        assert world["accounts"].available_balance(world["gsc_account"]) == Credits(900)
        assert world["accounts"].locked_balance(world["gsc_account"]) == Credits(100)
        assert cheque.amount_limit == Credits(100)
        assert cheque.payee_subject == GSP
        cheque.verify(world["bank_public"])

    def test_redeem_settles_and_releases(self, world):
        cheque = world["cheques"].issue(GSC, world["gsc_account"], GSP, Credits(100))
        result = world["cheques"].redeem(GSP, cheque, world["gsp_account"], Credits(60), b"\x01r")
        assert result.paid == Credits(60)
        assert result.released == Credits(40)
        assert world["accounts"].available_balance(world["gsp_account"]) == Credits(60)
        assert world["accounts"].available_balance(world["gsc_account"]) == Credits(940)
        assert world["accounts"].locked_balance(world["gsc_account"]) == ZERO
        transfer = world["accounts"].transfer_record(result.transaction_id)
        assert transfer["ResourceUsageRecord"] == b"\x01r"

    def test_double_redeem_rejected(self, world):
        cheque = world["cheques"].issue(GSC, world["gsc_account"], GSP, Credits(50))
        world["cheques"].redeem(GSP, cheque, world["gsp_account"], Credits(50))
        with pytest.raises(DoubleSpendError):
            world["cheques"].redeem(GSP, cheque, world["gsp_account"], Credits(50))

    def test_wrong_payee_rejected(self, world):
        cheque = world["cheques"].issue(GSC, world["gsc_account"], GSP, Credits(50))
        eve_account = world["accounts"].create_account("/O=X/CN=eve")
        with pytest.raises(InstrumentError, match="different payee"):
            world["cheques"].redeem("/O=X/CN=eve", cheque, eve_account, Credits(50))

    def test_payee_account_ownership_checked(self, world):
        cheque = world["cheques"].issue(GSC, world["gsc_account"], GSP, Credits(50))
        with pytest.raises(InstrumentError, match="not owned"):
            world["cheques"].redeem(GSP, cheque, world["gsc_account"], Credits(50))

    def test_charge_beyond_limit_rejected(self, world):
        cheque = world["cheques"].issue(GSC, world["gsc_account"], GSP, Credits(50))
        with pytest.raises(InstrumentError, match="exceeds"):
            world["cheques"].redeem(GSP, cheque, world["gsp_account"], Credits(51))

    def test_forged_cheque_rejected(self, world):
        from repro.crypto.signature import Signed

        forged = GridCheque(
            signed=Signed.make(
                world["other_key"].private,
                {
                    "instrument": "GridCheque",
                    "id": "chq-99999999",
                    "drawer_account": world["gsc_account"],
                    "drawer_subject": GSC,
                    "payee_subject": GSP,
                    "amount_limit": Credits(1000),
                },
                signer="/O=GB/CN=bank",
            )
        )
        with pytest.raises(InstrumentError, match="signature"):
            world["cheques"].redeem(GSP, forged, world["gsp_account"], Credits(1))

    def test_tampered_amount_rejected(self, world):
        cheque = world["cheques"].issue(GSC, world["gsc_account"], GSP, Credits(10))
        from repro.crypto.signature import Signed

        tampered_payload = dict(cheque.payload)
        tampered_payload["amount_limit"] = Credits(999)
        tampered = GridCheque(
            signed=Signed(payload=tampered_payload, signature=cheque.signed.signature, signer=cheque.signed.signer)
        )
        with pytest.raises(InstrumentError):
            world["cheques"].redeem(GSP, tampered, world["gsp_account"], Credits(999))

    def test_expired_cheque_rejected(self, world):
        cheque = world["cheques"].issue(GSC, world["gsc_account"], GSP, Credits(10))
        world["clock"].advance(8 * 24 * 3600)
        with pytest.raises(InstrumentError, match="expired"):
            world["cheques"].redeem(GSP, cheque, world["gsp_account"], Credits(10))

    def test_overspend_prevented_by_locking(self, world):
        # 1000 G$ in the account: cheques totalling more cannot be issued.
        world["cheques"].issue(GSC, world["gsc_account"], GSP, Credits(600))
        with pytest.raises(InsufficientFundsError):
            world["cheques"].issue(GSC, world["gsc_account"], GSP, Credits(600))

    def test_zero_charge_releases_everything(self, world):
        cheque = world["cheques"].issue(GSC, world["gsc_account"], GSP, Credits(100))
        result = world["cheques"].redeem(GSP, cheque, world["gsp_account"], ZERO)
        assert result.transaction_id is None
        assert result.released == Credits(100)
        assert world["accounts"].available_balance(world["gsc_account"]) == Credits(1000)

    def test_cancel_restores_funds(self, world):
        cheque = world["cheques"].issue(GSC, world["gsc_account"], GSP, Credits(100))
        released = world["cheques"].cancel(GSC, cheque)
        assert released == Credits(100)
        assert world["accounts"].available_balance(world["gsc_account"]) == Credits(1000)
        with pytest.raises(InstrumentError):
            world["cheques"].redeem(GSP, cheque, world["gsp_account"], Credits(1))

    def test_only_drawer_cancels(self, world):
        cheque = world["cheques"].issue(GSC, world["gsc_account"], GSP, Credits(10))
        with pytest.raises(InstrumentError):
            world["cheques"].cancel(GSP, cheque)

    def test_drawer_must_own_account(self, world):
        with pytest.raises(InstrumentError):
            world["cheques"].issue(GSP, world["gsc_account"], GSP, Credits(10))

    def test_dict_roundtrip(self, world):
        cheque = world["cheques"].issue(GSC, world["gsc_account"], GSP, Credits(10))
        again = GridCheque.from_dict(cheque.to_dict())
        assert again.cheque_id == cheque.cheque_id
        again.verify(world["bank_public"])


class TestGridHash:
    def _issue(self, world, length=10, link_value=Credits(2)):
        chain = HashChain(length, rng=random.Random(5))
        commitment = world["hashchains"].issue(
            GSC, world["gsc_account"], GSP, chain.root, length, link_value
        )
        return chain, commitment

    def test_issue_locks_total(self, world):
        self._issue(world, length=10, link_value=Credits(2))
        assert world["accounts"].locked_balance(world["gsc_account"]) == Credits(20)

    def test_commitment_without_a_payee_is_refused_and_locks_nothing(self, world):
        """An empty payee is bearer only for a bearer kind: a commitment
        made out to nobody could never be redeemed or released."""
        chain = HashChain(10, rng=random.Random(5))
        with pytest.raises(ValidationError, match="commitment must be made out to a payee"):
            world["hashchains"].issue(GSC, world["gsc_account"], "", chain.root, 10, Credits(2))
        assert world["accounts"].locked_balance(world["gsc_account"]) == ZERO
        assert world["registry"].outstanding_for(world["gsc_account"]) == []

    def test_wallet_and_verifier_flow(self, world):
        chain, commitment = self._issue(world)
        wallet = HashChainWallet(chain, commitment)
        verifier = HashChainVerifier(commitment, world["bank_public"])
        total = ZERO
        for _ in range(4):
            total = total + verifier.accept(wallet.pay())
        assert total == Credits(8)
        assert verifier.verified_index == 4
        assert wallet.remaining == 6
        assert wallet.spent_value() == Credits(8)

    def test_multi_tick_payment(self, world):
        chain, commitment = self._issue(world)
        wallet = HashChainWallet(chain, commitment)
        verifier = HashChainVerifier(commitment, world["bank_public"])
        delta = verifier.accept(wallet.pay(ticks=5))
        assert delta == Credits(10)
        assert verifier.hash_operations == 5

    def test_verifier_rejects_bogus_links(self, world):
        chain, commitment = self._issue(world)
        verifier = HashChainVerifier(commitment, world["bank_public"])
        bogus = PaymentTick(commitment.commitment_id, 1, b"\x00" * 32)
        with pytest.raises(PaymentError):
            verifier.accept(bogus)
        with pytest.raises(PaymentError):
            verifier.accept(PaymentTick("other-id", 1, chain.link(1)))
        verifier.accept(PaymentTick(commitment.commitment_id, 2, chain.link(2)))
        with pytest.raises(PaymentError, match="not beyond"):
            verifier.accept(PaymentTick(commitment.commitment_id, 1, chain.link(1)))
        with pytest.raises(PaymentError, match="beyond committed"):
            verifier.accept(PaymentTick(commitment.commitment_id, 99, chain.link(10)))

    def test_wallet_exhaustion(self, world):
        chain, commitment = self._issue(world, length=3)
        wallet = HashChainWallet(chain, commitment)
        wallet.pay(ticks=3)
        with pytest.raises(PaymentError, match="exhausted"):
            wallet.pay()
        with pytest.raises(ValidationError):
            wallet.pay(ticks=0)

    def test_wallet_requires_matching_root(self, world):
        chain, commitment = self._issue(world)
        other_chain = HashChain(10, rng=random.Random(99))
        with pytest.raises(PaymentError):
            HashChainWallet(other_chain, commitment)

    def test_redeem_pays_and_releases(self, world):
        chain, commitment = self._issue(world)  # 10 links x 2 G$
        wallet = HashChainWallet(chain, commitment)
        verifier = HashChainVerifier(commitment, world["bank_public"])
        for _ in range(7):
            verifier.accept(wallet.pay())
        result = world["hashchains"].redeem(
            GSP, commitment, world["gsp_account"], verifier.best_tick, b"\x01r"
        )
        assert result.paid == Credits(14)
        assert result.released == Credits(6)
        assert result.units == 7
        assert world["accounts"].available_balance(world["gsp_account"]) == Credits(14)
        assert world["accounts"].locked_balance(world["gsc_account"]) == ZERO

    def test_redeem_none_releases_all(self, world):
        _chain, commitment = self._issue(world)
        result = world["hashchains"].redeem(GSP, commitment, world["gsp_account"], None)
        assert result.paid == ZERO
        assert result.released == Credits(20)
        assert world["accounts"].available_balance(world["gsc_account"]) == Credits(1000)

    def test_redeem_rejects_forged_tick(self, world):
        _chain, commitment = self._issue(world)
        forged = PaymentTick(commitment.commitment_id, 5, b"\x01" * 32)
        with pytest.raises(InstrumentError, match="root"):
            world["hashchains"].redeem(GSP, commitment, world["gsp_account"], forged)

    def test_redeem_double_spend_rejected(self, world):
        chain, commitment = self._issue(world)
        tick = PaymentTick(commitment.commitment_id, 3, chain.link(3))
        world["hashchains"].redeem(GSP, commitment, world["gsp_account"], tick)
        with pytest.raises(DoubleSpendError):
            world["hashchains"].redeem(GSP, commitment, world["gsp_account"], tick)

    def test_issue_validation(self, world):
        chain = HashChain(5, rng=random.Random(1))
        with pytest.raises(ValidationError):
            world["hashchains"].issue(GSC, world["gsc_account"], GSP, chain.root, 0, Credits(1))
        with pytest.raises(ValidationError):
            world["hashchains"].issue(GSC, world["gsc_account"], GSP, b"short", 5, Credits(1))
        with pytest.raises(ValidationError):
            world["hashchains"].issue(GSC, world["gsc_account"], GSP, chain.root, 5, ZERO)

    def test_amortization_one_signature_many_payments(self, world):
        # The protocol's selling point: the signature count stays 1 no
        # matter how many micropayments flow.
        chain, commitment = self._issue(world, length=10, link_value=Credits(1))
        wallet = HashChainWallet(chain, commitment)
        verifier = HashChainVerifier(commitment, world["bank_public"])
        for _ in range(10):
            verifier.accept(wallet.pay())
        assert verifier.hash_operations == 10  # one hash per payment
        # exactly one signed object was involved (the commitment itself)


class TestDirectTransfer:
    def test_transfer_with_confirmation(self, world):
        confirmation = world["direct"].transfer(
            GSC, world["gsc_account"], world["gsp_account"], Credits(25), "gsp.example.org/confirm"
        )
        assert world["accounts"].available_balance(world["gsp_account"]) == Credits(25)
        payload = confirmation.verify(world["bank_public"])
        assert payload["amount"] == Credits(25)
        assert confirmation.recipient_address == "gsp.example.org/confirm"
        assert confirmation.transaction_id > 0

    def test_confirmation_tamper_detected(self, world):
        confirmation = world["direct"].transfer(
            GSC, world["gsc_account"], world["gsp_account"], Credits(25), "url"
        )
        from repro.crypto.signature import Signed

        tampered = TransferConfirmation(
            signed=Signed(
                payload={**confirmation.payload, "amount": Credits(9999)},
                signature=confirmation.signed.signature,
                signer=confirmation.signed.signer,
            )
        )
        with pytest.raises(SignatureError):
            tampered.verify(world["bank_public"])

    def test_requires_ownership_and_funds(self, world):
        with pytest.raises(InstrumentError):
            world["direct"].transfer(GSP, world["gsc_account"], world["gsp_account"], Credits(1), "u")
        with pytest.raises(InsufficientFundsError):
            world["direct"].transfer(GSC, world["gsc_account"], world["gsp_account"], Credits(100000), "u")

    def test_dict_roundtrip(self, world):
        confirmation = world["direct"].transfer(
            GSC, world["gsc_account"], world["gsp_account"], Credits(5), "url"
        )
        again = TransferConfirmation.from_dict(confirmation.to_dict())
        again.verify(world["bank_public"])
        assert again.amount == Credits(5)


def _coins(world) -> GridCoinProtocol:
    return GridCoinProtocol(
        world["accounts"], world["registry"], world["bank_key"], "/O=GB/CN=bank", world["clock"]
    )


def _kind(world, kind: str):
    """(issue, settle, release) for *kind*, each over the world's accounts.
    An instrument locks 10 G$; a settle pays 6 of it (a coin pays all 10).
    GridHash has no release operation of its own, so its row calls the
    shared lifecycle's release directly."""
    drawer, payee = world["gsc_account"], world["gsp_account"]
    if kind == "cheque":
        protocol = world["cheques"]
        return (
            lambda: protocol.issue(GSC, drawer, GSP, Credits(10)),
            lambda cheque: protocol.redeem(GSP, cheque, payee, Credits(6)),
            lambda cheque: protocol.cancel(GSC, cheque),
        )
    if kind == "hash":
        protocol = world["hashchains"]
        chains = {}

        def issue():
            chain = HashChain(10, rng=random.Random(len(chains)))
            commitment = protocol.issue(GSC, drawer, GSP, chain.root, 10, Credits(1))
            chains[commitment.commitment_id] = chain
            return commitment

        def settle(commitment):
            link = chains[commitment.commitment_id].link(6)
            return protocol.redeem(GSP, commitment, payee, PaymentTick(commitment.commitment_id, 6, link))

        return issue, settle, lambda commitment: protocol._release(commitment.verify(world["bank_public"]))
    protocol = _coins(world)
    return (
        lambda: protocol.mint(GSC, drawer, Credits(10))[0],
        lambda coin: protocol.redeem(GSP, coin, payee),
        lambda coin: protocol.refund(GSC, coin),
    )


@pytest.mark.parametrize("kind", ["cheque", "hash", "coin"])
def test_one_lifecycle_for_every_kind(world, kind):
    """Release ends a lock as settle does, and each ends the instrument.

    A second settle is a double spend for every kind already
    (test_double_redeem_rejected, test_redeem_double_spend_rejected,
    test_coin_circulates_but_redeems_once); this table adds what those
    leave out: release for GridHash at all, the locked balance after a
    release, conservation at every step, and each order of settle and
    release on one instrument."""
    accounts = world["accounts"]
    drawer, payee = world["gsc_account"], world["gsp_account"]
    issue, settle, release = _kind(world, kind)

    def held() -> tuple:
        available = accounts.available_balance(drawer)
        locked = accounts.locked_balance(drawer)
        paid = accounts.available_balance(payee)
        assert available + locked + paid == Credits(1000)
        return locked, paid

    settled, released = issue(), issue()
    assert held() == (Credits(20), ZERO)
    settle(settled)
    locked, paid = held()
    assert locked == Credits(10) and paid > ZERO
    assert release(released) == Credits(10)
    assert held() == (ZERO, paid)
    with pytest.raises(InstrumentError, match="is cancelled"):
        settle(released)
    with pytest.raises(InstrumentError, match="is cancelled"):
        release(released)
    with pytest.raises(DoubleSpendError):
        release(settled)
    assert held() == (ZERO, paid)


#: a fresh VirtualClock reads 2003-01-01T00:00:00Z: every pinned payload's issue time
ISSUED_AT = 1041379200.0


def test_issued_payloads_are_pinned(world):
    """The signed payload of each kind, key for key and byte for byte."""
    drawer = world["gsc_account"]
    chain = HashChain(4, rng=random.Random(5))
    issued = {
        "cheque": world["cheques"].issue(GSC, drawer, GSP, Credits(10)),
        "hash": world["hashchains"].issue(GSC, drawer, GSP, chain.root, 4, Credits(2)),
        "coin": _coins(world).mint(GSC, drawer, Credits(3))[0],
    }
    common = {"drawer_account": drawer, "currency": "GridDollar", "issued_at": ISSUED_AT}
    expected = {
        "cheque": {
            **common, "instrument": "GridCheque", "id": "chq-00000001",
            "drawer_subject": GSC, "payee_subject": GSP, "payee_account": "",
            "amount_limit": Credits(10), "expires_at": ISSUED_AT + 7 * 24 * 3600,
        },
        "hash": {
            **common, "instrument": "GridHash", "id": "hsh-00000002",
            "drawer_subject": GSC, "payee_subject": GSP, "amount_limit": Credits(8),
            "root": chain.root, "length": 4, "link_value": Credits(2),
            "expires_at": ISSUED_AT + 24 * 3600,
        },
        "coin": {
            **common, "instrument": "GridCoin", "id": "coin-00000003",
            "payee_subject": "", "amount_limit": Credits(3),
            "expires_at": ISSUED_AT + 30 * 24 * 3600,
        },
    }
    for kind, instrument in issued.items():
        assert instrument.payload == expected[kind], kind
        assert canonical_dumps(instrument.payload) == canonical_dumps(expected[kind]), kind
        assert instrument.signed.signer == "/O=GB/CN=bank"
