"""Unit + property tests for GB Accounts and GB Admin."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bank.accounts import GBAccounts
from repro.bank.admin import GBAdmin
from repro.bank.records import AccountID
from repro.db.database import Database
from repro.db.query import between, eq
from repro.errors import (
    AccountClosedError,
    AccountError,
    InsufficientFundsError,
    NotFoundError,
    ValidationError,
)
from repro.util.gbtime import Timestamp, VirtualClock
from repro.util.money import Credits, ZERO
from repro.util.serialize import canonical_dumps


@pytest.fixture()
def clock():
    return VirtualClock()


@pytest.fixture()
def bank(clock):
    return GBAccounts(Database(), clock=clock)


@pytest.fixture()
def admin(bank):
    return GBAdmin(bank)


def funded(bank, admin, subject, amount):
    account = bank.create_account(subject)
    admin.deposit(account, Credits(amount))
    return account


class TestAccountID:
    def test_format(self):
        aid = AccountID(bank=1, branch=1, account=1)
        assert str(aid) == "01-0001-00000001"
        assert len(str(aid)) == 16  # fits VARCHAR(16) exactly

    def test_parse_roundtrip(self):
        aid = AccountID(bank=7, branch=42, account=12345678)
        assert AccountID.parse(str(aid)) == aid

    def test_parse_rejects_malformed(self):
        for bad in ("", "1-1-1", "01-0001-0000001", "ab-0001-00000001", "01-0001-000000012"):
            with pytest.raises(ValidationError):
                AccountID.parse(bad)

    def test_range_checks(self):
        with pytest.raises(ValidationError):
            AccountID(bank=100, branch=0, account=0)
        with pytest.raises(ValidationError):
            AccountID(bank=0, branch=10000, account=0)
        with pytest.raises(ValidationError):
            AccountID(bank=0, branch=0, account=100_000_000)

    def test_same_branch(self):
        a = AccountID(1, 1, 1)
        assert a.same_branch(AccountID(1, 1, 2))
        assert not a.same_branch(AccountID(1, 2, 1))
        assert not a.same_branch(AccountID(2, 1, 1))


class TestAccountLifecycle:
    def test_create_and_get(self, bank):
        account = bank.create_account("/O=A/CN=alice", organization_name="VO-A")
        row = bank.get_account(account)
        assert row["CertificateName"] == "/O=A/CN=alice"
        assert row["OrganizationName"] == "VO-A"
        assert row["AvailableBalance"] == 0.0
        assert row["Currency"] == "GridDollar"
        assert row["Status"] == "open"

    def test_sequential_account_numbers(self, bank):
        a1 = bank.create_account("/O=A/CN=a")
        a2 = bank.create_account("/O=A/CN=b")
        assert AccountID.parse(a2).account == AccountID.parse(a1).account + 1

    def test_update_restricted_fields(self, bank):
        account = bank.create_account("/O=A/CN=alice")
        row = bank.update_account(account, organization_name="NewOrg", certificate_name="/O=A/CN=alice2")
        assert row["OrganizationName"] == "NewOrg"
        assert row["CertificateName"] == "/O=A/CN=alice2"
        with pytest.raises(ValidationError):
            bank.update_account(account, certificate_name="")

    def test_subject_lookup(self, bank):
        a1 = bank.create_account("/O=A/CN=alice")
        bank.create_account("/O=A/CN=bob")
        assert bank.subject_has_account("/O=A/CN=alice")
        assert not bank.subject_has_account("/O=A/CN=eve")
        assert [r["AccountID"] for r in bank.accounts_for_subject("/O=A/CN=alice")] == [a1]
        assert bank.owner_of(a1) == "/O=A/CN=alice"

    def test_missing_account(self, bank):
        with pytest.raises(NotFoundError):
            bank.get_account("01-0001-99999999")

    def test_create_validation(self, bank):
        with pytest.raises(ValidationError):
            bank.create_account("")
        with pytest.raises(ValidationError):
            bank.create_account("/O=A/CN=x", credit_limit=Credits(-1))


class TestFundsMovement:
    def test_deposit_withdraw(self, bank, admin):
        account = funded(bank, admin, "/O=A/CN=alice", 100)
        assert bank.available_balance(account) == Credits(100)
        admin.withdraw(account, Credits(30))
        assert bank.available_balance(account) == Credits(70)
        assert admin.external_funds_in == Credits(100)
        assert admin.external_funds_out == Credits(30)

    def test_withdraw_cannot_use_credit(self, bank, admin):
        account = funded(bank, admin, "/O=A/CN=alice", 10)
        admin.change_credit_limit(account, Credits(100))
        with pytest.raises(InsufficientFundsError):
            admin.withdraw(account, Credits(50))

    def test_transfer_moves_funds_and_records(self, bank, admin, clock):
        src = funded(bank, admin, "/O=A/CN=alice", 100)
        dst = bank.create_account("/O=B/CN=gsp")
        txn = bank.transfer(src, dst, Credits(25), rur_blob=b"\x01rur")
        assert bank.available_balance(src) == Credits(75)
        assert bank.available_balance(dst) == Credits(25)
        record = bank.transfer_record(txn)
        assert record["DrawerAccountID"] == src
        assert record["RecipientAccountID"] == dst
        assert record["Amount"] == 25.0  # always positive per the paper
        assert record["ResourceUsageRecord"] == b"\x01rur"

    def test_transfer_respects_credit_limit(self, bank, admin):
        src = funded(bank, admin, "/O=A/CN=alice", 10)
        dst = bank.create_account("/O=B/CN=gsp")
        with pytest.raises(InsufficientFundsError):
            bank.transfer(src, dst, Credits(20))
        admin.change_credit_limit(src, Credits(15))
        bank.transfer(src, dst, Credits(20))
        assert bank.available_balance(src) == Credits(-10)
        with pytest.raises(InsufficientFundsError):
            bank.transfer(src, dst, Credits(6))

    def test_transfer_validation(self, bank, admin):
        src = funded(bank, admin, "/O=A/CN=alice", 10)
        dst = bank.create_account("/O=B/CN=gsp")
        with pytest.raises(AccountError):
            bank.transfer(src, src, Credits(1))
        with pytest.raises(ValidationError):
            bank.transfer(src, dst, ZERO)
        with pytest.raises(ValidationError):
            bank.transfer(src, dst, Credits(-5))

    def test_transactions_recorded_with_signs(self, bank, admin, clock):
        src = funded(bank, admin, "/O=A/CN=alice", 50)
        dst = bank.create_account("/O=B/CN=gsp")
        start = clock.now()
        bank.transfer(src, dst, Credits(20))
        clock.advance(60)
        statement = bank.statement(src, start, clock.now())
        transfer_rows = [t for t in statement["transactions"] if t["Type"] == "Transfer"]
        assert len(transfer_rows) == 1
        assert transfer_rows[0]["Amount"] == -20.0
        dst_statement = bank.statement(dst, start, clock.now())
        assert dst_statement["transactions"][0]["Amount"] == 20.0


class TestLockedFunds:
    def test_lock_unlock(self, bank, admin):
        account = funded(bank, admin, "/O=A/CN=alice", 100)
        bank.lock_funds(account, Credits(40))
        assert bank.available_balance(account) == Credits(60)
        assert bank.locked_balance(account) == Credits(40)
        bank.unlock_funds(account, Credits(10))
        assert bank.available_balance(account) == Credits(70)
        assert bank.locked_balance(account) == Credits(30)

    def test_lock_may_draw_on_credit(self, bank, admin):
        account = funded(bank, admin, "/O=A/CN=alice", 10)
        admin.change_credit_limit(account, Credits(20))
        bank.lock_funds(account, Credits(25))
        assert bank.available_balance(account) == Credits(-15)
        assert bank.locked_balance(account) == Credits(25)
        with pytest.raises(InsufficientFundsError):
            bank.lock_funds(account, Credits(10))

    def test_unlock_more_than_locked(self, bank, admin):
        account = funded(bank, admin, "/O=A/CN=alice", 100)
        bank.lock_funds(account, Credits(5))
        with pytest.raises(AccountError):
            bank.unlock_funds(account, Credits(10))

    def test_transfer_from_locked(self, bank, admin):
        src = funded(bank, admin, "/O=A/CN=alice", 100)
        dst = bank.create_account("/O=B/CN=gsp")
        bank.lock_funds(src, Credits(40))
        txn = bank.transfer_from_locked(src, dst, Credits(30), rur_blob=b"\x01x")
        assert bank.locked_balance(src) == Credits(10)
        assert bank.available_balance(dst) == Credits(30)
        assert bank.transfer_record(txn)["Amount"] == 30.0

    def test_transfer_from_locked_bounded(self, bank, admin):
        src = funded(bank, admin, "/O=A/CN=alice", 100)
        dst = bank.create_account("/O=B/CN=gsp")
        bank.lock_funds(src, Credits(10))
        with pytest.raises(InsufficientFundsError):
            bank.transfer_from_locked(src, dst, Credits(20))


class TestStatements:
    def test_window_filtering(self, bank, admin, clock):
        src = funded(bank, admin, "/O=A/CN=alice", 100)
        dst = bank.create_account("/O=B/CN=gsp")
        clock.advance(60)
        window_start = clock.now()
        bank.transfer(src, dst, Credits(10))
        clock.advance(60)
        window_end = clock.now()
        clock.advance(60)
        bank.transfer(src, dst, Credits(5))  # outside window

        statement = bank.statement(src, window_start, window_end)
        assert len(statement["transactions"]) == 1
        assert len(statement["transfers"]) == 1
        assert statement["transfers"][0]["Amount"] == 10.0
        assert statement["account"]["AccountID"] == src

    def test_statement_validation(self, bank, admin, clock):
        account = funded(bank, admin, "/O=A/CN=alice", 1)
        end = clock.now()
        clock.advance(10)
        with pytest.raises(ValidationError):
            bank.statement(account, clock.now(), end)


def reference_statement(bank, account_id, start, end):
    """The scan-join ``statement()`` replaced in PR 12, kept as the oracle:
    every TRANSFER row in the window, filtered against the account's ids."""
    account = bank.get_account(account_id)
    window = between("Date", start.stamp14, end.stamp14)
    transactions = bank.db.select(
        "transactions", [eq("AccountID", account_id), window], order_by="EntryID"
    )
    txn_ids = {t["TransactionID"] for t in transactions}
    transfers = [
        row
        for row in bank.db.select("transfers", [window], order_by="TransactionID")
        if row["TransactionID"] in txn_ids
    ]
    return {"account": account, "transactions": transactions, "transfers": transfers}


class TestStatementKeyJoin:
    @pytest.mark.parametrize("seed", [11, 21, 22])
    def test_byte_identical_to_the_scan_join(self, bank, admin, clock, seed):
        rng = random.Random(seed)
        # the first two accounts share an owner: a self-owned drawer/recipient pair
        owners = ["/O=A/CN=alice", "/O=A/CN=alice", "/O=B/CN=gsp", "/O=C/CN=carol"]
        accounts = [funded(bank, admin, owner, 1_000) for owner in owners]
        clock.advance(30)
        quiet = clock.now()  # nothing happens in this second
        clock.advance(30)
        moments = [clock.now()]
        for _ in range(150):
            src, dst = rng.sample(accounts, 2)
            roll = rng.random()
            if roll < 0.15:
                admin.deposit(src, Credits(rng.randint(1, 50)))
            elif roll < 0.25:
                admin.withdraw(src, Credits(1))
            elif roll < 0.35:
                bank.lock_funds(src, Credits(2))
                bank.transfer_from_locked(src, dst, Credits(2), rur_blob=b"rur")
            else:
                bank.transfer(src, dst, Credits(rng.randint(1, 5)))
            clock.advance(rng.choice([0, 0, 1, 3]))  # several entries share a second
            moments.append(clock.now())
        windows = [(moments[0], moments[-1]), (quiet, quiet)]
        windows += [(moment, moment) for moment in rng.sample(moments, 5)]
        windows += [tuple(sorted(rng.sample(moments, 2), key=lambda t: t.stamp14)) for _ in range(10)]
        compared = 0
        for start, end in windows:
            for account in accounts:
                got = bank.statement(account, start, end)
                assert canonical_dumps(got) == canonical_dumps(
                    reference_statement(bank, account, start, end)
                )
                compared += len(got["transfers"])
        assert compared > 100  # the windows did cut through real history
        assert bank.statement(accounts[0], quiet, quiet)["transactions"] == []
        with pytest.raises(ValidationError):
            bank.statement(accounts[0], moments[-1], quiet)

    def test_visits_only_the_accounts_own_transfer_rows(self, bank, admin, clock, monkeypatch):
        crowd = [funded(bank, admin, f"/O=X/CN=user{i}", 10_000) for i in range(4)]
        for i in range(5_000):
            bank.transfer(crowd[i % 4], crowd[(i + 1) % 4], Credits(1))
        mine = funded(bank, admin, "/O=A/CN=alice", 100)  # entry 1: the deposit
        for _ in range(12):  # entries 2..13
            bank.transfer(mine, crowd[0], Credits(1))
        admin.withdraw(mine, Credits(1))  # entry 14
        entries = 14

        visited = 0
        db = bank.db
        real_find, real_select = db.find, db.select

        def counted(condition):
            def test(row):
                nonlocal visited
                visited += 1
                return condition.test(row)

            return dataclasses.replace(condition, test=test)

        def counting_find(table_name, pk):
            nonlocal visited
            visited += table_name == "transfers"
            return real_find(table_name, pk)

        def counting_select(table_name, conditions=(), *args, **kwargs):
            nonlocal visited
            if table_name == "transfers":
                if not conditions:
                    visited += len(db.table(table_name))
                conditions = [counted(condition) for condition in conditions]
            return real_select(table_name, conditions, *args, **kwargs)

        monkeypatch.setattr(db, "find", counting_find)
        monkeypatch.setattr(db, "select", counting_select)
        epoch = Timestamp(0.0)
        statement = bank.statement(mine, epoch, clock.now())
        assert len(statement["transactions"]) == entries
        assert len(statement["transfers"]) == 12
        assert 12 <= visited <= 2 * entries  # not the 5,012 rows in the table


class TestAdmin:
    def test_administrator_table(self, admin):
        admin.add_administrator("/O=GB/CN=root")
        assert admin.is_administrator("/O=GB/CN=root")
        admin.add_administrator("/O=GB/CN=root")  # idempotent
        admin.remove_administrator("/O=GB/CN=root")
        assert not admin.is_administrator("/O=GB/CN=root")
        with pytest.raises(ValidationError):
            admin.add_administrator("")

    def test_cancel_transfer(self, bank, admin):
        src = funded(bank, admin, "/O=A/CN=alice", 100)
        dst = bank.create_account("/O=B/CN=gsp")
        txn = bank.transfer(src, dst, Credits(30))
        admin.cancel_transfer(txn)
        assert bank.available_balance(src) == Credits(100)
        assert bank.available_balance(dst) == ZERO
        # both the original and the compensating transfer remain on record
        assert bank.db.count("transfers") == 2

    def test_cancel_missing_transfer(self, admin):
        with pytest.raises(NotFoundError):
            admin.cancel_transfer(999)

    def test_credit_limit_cannot_strand_overdrawn(self, bank, admin):
        account = funded(bank, admin, "/O=A/CN=alice", 10)
        dst = bank.create_account("/O=B/CN=gsp")
        admin.change_credit_limit(account, Credits(50))
        bank.transfer(account, dst, Credits(40))  # balance now -30
        with pytest.raises(AccountError):
            admin.change_credit_limit(account, Credits(10))
        admin.change_credit_limit(account, Credits(30))  # exactly covers

    def test_close_account_with_balance_to_other(self, bank, admin):
        src = funded(bank, admin, "/O=A/CN=alice", 80)
        heir = bank.create_account("/O=A/CN=heir")
        returned = admin.close_account(src, transfer_to=heir)
        assert returned == Credits(80)
        assert bank.available_balance(heir) == Credits(80)
        assert bank.get_account(src)["Status"] == "closed"

    def test_close_account_withdraws_externally(self, bank, admin):
        src = funded(bank, admin, "/O=A/CN=alice", 80)
        admin.close_account(src)
        assert admin.external_funds_out == Credits(80)

    def test_closed_account_rejects_operations(self, bank, admin):
        src = funded(bank, admin, "/O=A/CN=alice", 10)
        dst = bank.create_account("/O=B/CN=gsp")
        admin.close_account(src)
        with pytest.raises(AccountClosedError):
            admin.deposit(src, Credits(1))
        with pytest.raises(AccountClosedError):
            bank.transfer(dst, src, Credits(1))
        with pytest.raises(AccountClosedError):
            bank.lock_funds(src, Credits(1))
        with pytest.raises(AccountClosedError):
            bank.update_account(src, organization_name="x")

    def test_close_rejects_locked_or_negative(self, bank, admin):
        locked = funded(bank, admin, "/O=A/CN=a", 10)
        bank.lock_funds(locked, Credits(5))
        with pytest.raises(AccountError):
            admin.close_account(locked)
        debtor = funded(bank, admin, "/O=A/CN=b", 10)
        sink = bank.create_account("/O=B/CN=sink")
        admin.change_credit_limit(debtor, Credits(20))
        bank.transfer(debtor, sink, Credits(25))
        with pytest.raises(AccountError):
            admin.close_account(debtor)


class TestConservation:
    """The core accounting invariant: internal movements conserve funds."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["transfer", "lock", "unlock", "settle"]),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=1, max_value=5_000_000),  # micro-credits
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_internal_operations_conserve_total(self, ops):
        bank = GBAccounts(Database(), clock=VirtualClock())
        admin = GBAdmin(bank)
        accounts = []
        for i in range(4):
            account = bank.create_account(f"/O=A/CN=user{i}")
            admin.deposit(account, Credits(100))
            accounts.append(account)
        expected_total = Credits(400)
        assert bank.total_bank_funds() == expected_total
        for op, i, j, micro in ops:
            amount = Credits.from_micro(micro)
            src, dst = accounts[i], accounts[j]
            try:
                if op == "transfer":
                    bank.transfer(src, dst, amount)
                elif op == "lock":
                    bank.lock_funds(src, amount)
                elif op == "unlock":
                    bank.unlock_funds(src, amount)
                else:
                    bank.transfer_from_locked(src, dst, amount)
            except (AccountError, InsufficientFundsError, ValidationError):
                pass
            assert bank.total_bank_funds() == expected_total

    def test_deposits_and_withdrawals_match_external_ledger(self, bank, admin):
        a = bank.create_account("/O=A/CN=a")
        b = bank.create_account("/O=A/CN=b")
        admin.deposit(a, Credits(100))
        admin.deposit(b, Credits(50))
        bank.transfer(a, b, Credits(30))
        admin.withdraw(b, Credits(60))
        assert bank.total_bank_funds() == admin.external_funds_in - admin.external_funds_out

    def test_id_allocation_survives_recovery(self, tmp_path):
        clock = VirtualClock()
        db = Database(path=tmp_path)
        bank = GBAccounts(db, clock=clock)
        db.recover()
        admin = GBAdmin(bank)
        a = bank.create_account("/O=A/CN=a")
        b = bank.create_account("/O=A/CN=b")
        admin.deposit(a, Credits(10))
        txn1 = bank.transfer(a, b, Credits(5))
        db.close()

        db2 = Database(path=tmp_path)
        bank2 = GBAccounts(db2, clock=clock)
        db2.recover()
        # recovery happens after table creation; rescan ids
        bank2 = GBAccounts.__new__(GBAccounts)
        bank2.__init__(db2, clock=clock)
        assert bank2.available_balance(a) == Credits(5)
        assert bank2.available_balance(b) == Credits(5)
        c = bank2.create_account("/O=A/CN=c")
        assert c not in (a, b)
        txn2 = bank2.transfer(b, a, Credits(1))
        assert txn2 > txn1
