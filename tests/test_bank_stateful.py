"""Stateful property testing of the GridBank server.

Hypothesis drives random interleavings of the public API — deposits,
withdrawals, transfers, locks, cheque/hash-chain issue/redeem/cancel —
against a live bank and checks the accounting invariants after every
step:

* conservation: sum(available + locked) == external in - external out;
* no account below -CreditLimit;
* locked balances never negative;
* every issued instrument redeems at most once;
* the reply cache stays within its (deliberately tiny) bound and every
  ordered index equals ``sorted(rows)``, also after rolled-back stores
  that evicted.
"""

import random

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule
from hypothesis import strategies as st

from repro.bank.server import GridBankServer
from repro.crypto.hashes import HashChain
from repro.errors import ReproError
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.validation import CertificateStore
from repro.util.gbtime import VirtualClock
from repro.util.money import Credits, ZERO
from tests.test_db import assert_ordered_indexes_match_rows

SUBJECTS = [f"/O=VO/CN=user{i}" for i in range(4)]


class BankMachine(RuleBasedStateMachine):
    @initialize()
    def boot(self):
        clock = VirtualClock()
        ca = CertificateAuthority(
            DistinguishedName("GridBank", "Root CA"), clock=clock,
            rng=random.Random(0), key_bits=512,
        )
        store = CertificateStore([ca.root_certificate])
        ident = ca.issue_identity(DistinguishedName("GridBank", "server"), key_bits=512)
        self.bank = GridBankServer(ident, store, clock=clock, rng=random.Random(1))
        self.bank.replies.max_entries = 6  # every few stores evict
        self.reply_keys = 0
        self.accounts = [self.bank.accounts.create_account(s) for s in SUBJECTS]
        self.external_in = ZERO
        self.external_out = ZERO
        self.live_cheques = []      # (subject_idx, payee_idx, cheque)
        self.live_chains = []      # (subject_idx, payee_idx, chain, commitment)
        self.redeemed_ids = set()

    # -- funds ------------------------------------------------------------------

    @rule(idx=st.integers(0, 3), micro=st.integers(1, 50_000_000))
    def deposit(self, idx, micro):
        amount = Credits.from_micro(micro)
        self.bank.admin.deposit(self.accounts[idx], amount)
        self.external_in = self.external_in + amount

    @rule(idx=st.integers(0, 3), micro=st.integers(1, 50_000_000))
    def withdraw(self, idx, micro):
        amount = Credits.from_micro(micro)
        try:
            self.bank.admin.withdraw(self.accounts[idx], amount)
        except ReproError:
            return
        self.external_out = self.external_out + amount

    @rule(src=st.integers(0, 3), dst=st.integers(0, 3), micro=st.integers(1, 50_000_000))
    def transfer(self, src, dst, micro):
        try:
            self.bank.accounts.transfer(
                self.accounts[src], self.accounts[dst], Credits.from_micro(micro)
            )
        except ReproError:
            pass

    @rule(idx=st.integers(0, 3), micro=st.integers(1, 50_000_000))
    def lock(self, idx, micro):
        try:
            self.bank.accounts.lock_funds(self.accounts[idx], Credits.from_micro(micro))
        except ReproError:
            pass

    @rule(idx=st.integers(0, 3), micro=st.integers(1, 50_000_000))
    def unlock(self, idx, micro):
        # through the server op: releasing instrument-backing funds is
        # forbidden (the sec 3.4 guarantee this machine once falsified)
        try:
            self.bank.op_release_funds(
                SUBJECTS[idx],
                {"account_id": self.accounts[idx], "amount": Credits.from_micro(micro)},
            )
        except ReproError:
            pass

    @rule(idx=st.integers(0, 3), micro=st.integers(0, 10_000_000))
    def change_credit_limit(self, idx, micro):
        try:
            self.bank.admin.change_credit_limit(self.accounts[idx], Credits.from_micro(micro))
        except ReproError:
            pass

    # -- reply cache at its bound ---------------------------------------------------

    @rule(src=st.integers(0, 3), dst=st.integers(0, 3), commit=st.booleans())
    def keyed_transfer(self, src, dst, commit):
        """What the exactly-once wrapper does: ledger effects and the reply
        row in one transaction — which may evict, and may roll back."""
        self.reply_keys += 1
        key = f"key-{self.reply_keys}"
        try:
            with self.bank.db.transaction():
                txn_id = self.bank.accounts.transfer(
                    self.accounts[src], self.accounts[dst], Credits.from_micro(1_000)
                )
                self.bank.replies.store(key, SUBJECTS[src], "RequestDirectTransfer", txn_id)
                if not commit:
                    raise ZeroDivisionError
        except (ReproError, ZeroDivisionError):
            assert self.bank.replies.lookup(key, SUBJECTS[src], "RequestDirectTransfer") is None

    # -- instruments ----------------------------------------------------------------

    @rule(drawer=st.integers(0, 3), payee=st.integers(0, 3), micro=st.integers(1, 20_000_000))
    def issue_cheque(self, drawer, payee, micro):
        if drawer == payee:
            return
        try:
            cheque = self.bank.cheques.issue(
                SUBJECTS[drawer], self.accounts[drawer], SUBJECTS[payee], Credits.from_micro(micro)
            )
        except ReproError:
            return
        self.live_cheques.append((drawer, payee, cheque))

    @precondition(lambda self: self.live_cheques)
    @rule(pick=st.integers(0, 10**6), fraction=st.floats(0.0, 1.0))
    def redeem_cheque(self, pick, fraction):
        drawer, payee, cheque = self.live_cheques.pop(pick % len(self.live_cheques))
        charge = cheque.amount_limit * fraction
        self.bank.cheques.redeem(SUBJECTS[payee], cheque, self.accounts[payee], charge)
        assert cheque.cheque_id not in self.redeemed_ids
        self.redeemed_ids.add(cheque.cheque_id)

    @precondition(lambda self: self.live_cheques)
    @rule(pick=st.integers(0, 10**6))
    def cancel_cheque(self, pick):
        drawer, _payee, cheque = self.live_cheques.pop(pick % len(self.live_cheques))
        self.bank.cheques.cancel(SUBJECTS[drawer], cheque)

    @rule(
        drawer=st.integers(0, 3),
        payee=st.integers(0, 3),
        length=st.integers(1, 8),
        micro=st.integers(1, 2_000_000),
    )
    def issue_chain(self, drawer, payee, length, micro):
        if drawer == payee:
            return
        chain = HashChain(length, seed=b"stateful-seed-0123456789abcdef")
        try:
            commitment = self.bank.hashchains.issue(
                SUBJECTS[drawer], self.accounts[drawer], SUBJECTS[payee],
                chain.root, length, Credits.from_micro(micro),
            )
        except ReproError:
            return
        self.live_chains.append((drawer, payee, chain, commitment))

    @precondition(lambda self: self.live_chains)
    @rule(pick=st.integers(0, 10**6), spend=st.integers(0, 8))
    def redeem_chain(self, pick, spend):
        _drawer, payee, chain, commitment = self.live_chains.pop(pick % len(self.live_chains))
        from repro.payments.hashchain import PaymentTick

        index = min(spend, commitment.length)
        tick = (
            PaymentTick(commitment.commitment_id, index, chain.link(index)) if index else None
        )
        self.bank.hashchains.redeem(
            SUBJECTS[payee], commitment, self.accounts[payee], tick
        )
        assert commitment.commitment_id not in self.redeemed_ids
        self.redeemed_ids.add(commitment.commitment_id)

    # -- invariants -----------------------------------------------------------------------

    @invariant()
    def conservation(self):
        if not hasattr(self, "bank"):
            return
        assert self.bank.accounts.total_bank_funds() == self.external_in - self.external_out

    @invariant()
    def bounded_tables_and_their_indexes(self):
        if not hasattr(self, "bank"):
            return
        assert len(self.bank.replies) <= self.bank.replies.max_entries
        assert_ordered_indexes_match_rows(self.bank.db)

    @invariant()
    def guarantees_fully_backed(self):
        """Sec 3.4: locked funds always cover outstanding instruments."""
        if not hasattr(self, "bank"):
            return
        for account in self.accounts:
            assert self.bank.unreserved_locked(account) >= ZERO

    @invariant()
    def no_account_beyond_credit(self):
        if not hasattr(self, "bank"):
            return
        for account in self.accounts:
            row = self.bank.accounts.get_account(account)
            assert row["AvailableBalance"] >= -row["CreditLimit"] - 1e-9
            assert row["LockedBalance"] >= 0.0


BankMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestBankStateful = BankMachine.TestCase
