"""GB Accounts — the core module interacting with the GB database.

"It provides functions for basic account operations such as creation of
accounts, requesting and updating account details, transfer of funds from
one account to another, locking funds and transfer from locked funds.
This module is independent of payment scheme, protocols used and
underlying security model." (paper sec 3.2)

Every mutating operation runs inside a database transaction, keeping the
conservation-of-funds invariant exact: transfers never create or destroy
credits; only Deposit/Withdrawal (admin operations) change the bank total.

Concurrency: each mutator holds its accounts' striped locks (exclusive,
canonical order — see :mod:`repro.bank.locks`) across the transaction
*and its commit*, so conflicting writers serialize and the WAL records
them in execution order. The locks are re-entrant, so the server layer
may pre-acquire an operation's full lock set around a wider transaction.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.bank.records import (
    ACCOUNT_STATUS_OPEN,
    TXN_DEPOSIT,
    TXN_TRANSFER,
    TXN_WITHDRAWAL,
    AccountID,
    account_schema,
    admin_schema,
    credits_to_db,
    db_to_credits,
    instrument_schema,
    transaction_schema,
    transfer_schema,
)
from repro.bank.locks import AccountLocks
from repro.db.database import Database
from repro.db.query import between, eq
from repro.errors import (
    AccountClosedError,
    AccountError,
    InsufficientFundsError,
    NotFoundError,
    ValidationError,
)
from repro.obs.trace import current_trace_id
from repro.util.gbtime import Clock, SystemClock, Timestamp
from repro.util.ids import IdGenerator
from repro.util.money import Credits, ZERO

__all__ = ["GBAccounts"]


class GBAccounts:
    """Account operations over the GridBank database."""

    #: Cap on consecutive ``id_filter`` rejections per mint. A shard owning
    #: a fraction f of the hash ring accepts a candidate with probability f,
    #: so even a 1/10_000 sliver clears this comfortably; hitting the cap
    #: means the shard effectively owns nothing and the caller should mint
    #: elsewhere instead of exhausting the id space.
    _MAX_MINT_REJECTIONS = 50_000

    def __init__(
        self,
        db: Database,
        clock: Optional[Clock] = None,
        bank_number: int = 1,
        branch_number: int = 1,
    ) -> None:
        self.db = db
        self.clock = clock if clock is not None else SystemClock()
        self.bank_number = bank_number
        self.branch_number = branch_number
        self.locks = AccountLocks()
        self._counter_lock = threading.Lock()
        # sharding hook: when set (see repro.bank.shard.ShardNode), newly
        # minted AccountIDs must satisfy the predicate — a shard only
        # creates accounts that hash into its own ranges
        self.id_filter: Optional[Callable[[str], bool]] = None
        for schema_fn in (account_schema, transaction_schema, transfer_schema, admin_schema, instrument_schema):
            schema = schema_fn()
            if schema.name not in db.table_names():
                db.create_table(schema)
        self.rescan_ids()

    def rescan_ids(self) -> None:
        """Re-derive id counters from persisted rows.

        Called at construction and again after :meth:`Database.recover`
        replays the journal (recovery happens after tables exist, so the
        construction-time scan sees an empty database).
        """
        self._next_account = self._scan_next_account()
        self._txn_ids = IdGenerator(
            start=self._scan_max(("transactions", "TransactionID"), ("transfers", "TransactionID")) + 1
        )
        self._entry_ids = IdGenerator(start=self._scan_max(("transactions", "EntryID")) + 1)

    # -- id allocation (recovery-safe: continue after max persisted id) -----

    def _scan_next_account(self) -> int:
        highest = 0
        for row in self.db.table("accounts").all_rows():
            highest = max(highest, AccountID.parse(row["AccountID"]).account)
        return highest + 1

    def _scan_max(self, *columns: tuple[str, str]) -> int:
        highest = 0
        for table_name, column in columns:
            for row in self.db.table(table_name).all_rows():
                highest = max(highest, row[column])
        return highest

    # -- account lifecycle ----------------------------------------------------

    def create_account(
        self,
        certificate_name: str,
        organization_name: str = "",
        currency: str = "GridDollar",
        credit_limit: Credits = ZERO,
    ) -> str:
        """Open an account for *certificate_name*; returns the AccountID."""
        if not certificate_name:
            raise ValidationError("certificate name must be non-empty")
        if credit_limit < ZERO:
            raise ValidationError("credit limit must be >= 0")
        with self._counter_lock:
            # mint candidates past the filter WITHOUT advancing the durable
            # counter until one is accepted: a shard that owns a sliver of
            # the ring (or, transiently, none — the filter raises then)
            # must not burn through the 10^8 id space on rejections
            candidate = self._next_account
            rejections = 0
            while True:
                if candidate > 99_999_999:
                    raise AccountError("account number space exhausted")
                account_id = str(
                    AccountID(self.bank_number, self.branch_number, candidate)
                )
                accept = self.id_filter
                if accept is None or accept(account_id):
                    self._next_account = candidate + 1
                    break
                candidate += 1
                rejections += 1
                if rejections >= self._MAX_MINT_REJECTIONS:
                    raise AccountError(
                        f"no account id hashing into this shard's ranges within "
                        f"{rejections} candidates — retry on another shard"
                    )
        self.db.insert(
            "accounts",
            {
                "AccountID": account_id,
                "CertificateName": certificate_name,
                "OrganizationName": organization_name,
                "Currency": currency,
                "CreditLimit": credits_to_db(credit_limit),
            },
        )
        return account_id

    def get_account(self, account_id: str) -> dict:
        """ACCOUNT RECORD for *account_id* (Request Account Details)."""
        row = self.db.find("accounts", (account_id,))
        if row is None:
            raise NotFoundError(f"no account {account_id!r}")
        return row

    def require_open(self, account_id: str) -> dict:
        row = self.get_account(account_id)
        if row["Status"] != ACCOUNT_STATUS_OPEN:
            raise AccountClosedError(f"account {account_id!r} is closed")
        return row

    def update_account(self, account_id: str, certificate_name: Optional[str] = None,
                       organization_name: Optional[str] = None) -> dict:
        """Update Account Details — "Only CertificateName and
        OrganizationName can be modified" (sec 5.2)."""
        self.require_open(account_id)
        changes: dict = {}
        if certificate_name is not None:
            if not certificate_name:
                raise ValidationError("certificate name must be non-empty")
            changes["CertificateName"] = certificate_name
        if organization_name is not None:
            changes["OrganizationName"] = organization_name
        if changes:
            self.db.update("accounts", (account_id,), changes)
        return self.get_account(account_id)

    def accounts_for_subject(self, certificate_name: str) -> list[dict]:
        return self.db.select("accounts", [eq("CertificateName", certificate_name)], order_by="AccountID")

    def subject_has_account(self, certificate_name: str) -> bool:
        return self.db.table("accounts").exists([eq("CertificateName", certificate_name)])

    def owner_of(self, account_id: str) -> str:
        return self.get_account(account_id)["CertificateName"]

    # -- balances -----------------------------------------------------------------

    def available_balance(self, account_id: str) -> Credits:
        return db_to_credits(self.get_account(account_id)["AvailableBalance"])

    def locked_balance(self, account_id: str) -> Credits:
        return db_to_credits(self.get_account(account_id)["LockedBalance"])

    def credit_limit(self, account_id: str) -> Credits:
        return db_to_credits(self.get_account(account_id)["CreditLimit"])

    def total_bank_funds(self) -> Credits:
        """Sum of available+locked across all accounts (invariant probe)."""
        total = ZERO
        for row in self.db.table("accounts").all_rows():
            total = total + db_to_credits(row["AvailableBalance"]) + db_to_credits(row["LockedBalance"])
        return total

    def _set_balances(self, account_id: str, available: Credits, locked: Optional[Credits] = None) -> None:
        changes = {"AvailableBalance": credits_to_db(available)}
        if locked is not None:
            changes["LockedBalance"] = credits_to_db(locked)
        self.db.update("accounts", (account_id,), changes)

    def _require_same_currency(self, drawer: dict, recipient: dict) -> None:
        """VOs may run their own currencies (sec 1); the single-branch
        ledger never converts — mismatched transfers are rejected. Cross-
        currency settlement is a multi-bank protocol concern (sec 6)."""
        if drawer["Currency"] != recipient["Currency"]:
            raise AccountError(
                f"currency mismatch: {drawer['AccountID']} holds {drawer['Currency']}, "
                f"{recipient['AccountID']} holds {recipient['Currency']}"
            )

    def _require_covered(self, row: dict, amount: Credits) -> None:
        available = db_to_credits(row["AvailableBalance"])
        limit = db_to_credits(row["CreditLimit"])
        if available - amount < -limit:
            raise InsufficientFundsError(
                f"account {row['AccountID']}: available {available} + credit limit {limit} "
                f"cannot cover {amount}"
            )

    # -- transaction journal helpers ------------------------------------------------

    def _post_entry(self, account_id: str, txn_id: int, txn_type: str, amount: Credits,
                    when: Timestamp) -> None:
        self.db.insert(
            "transactions",
            {
                "EntryID": self._entry_ids.next_int(),
                "TransactionID": txn_id,
                "AccountID": account_id,
                "Type": txn_type,
                "Date": when,
                "Amount": credits_to_db(amount),
                "TraceID": current_trace_id(),
            },
        )

    # -- funds movement ----------------------------------------------------------------

    def deposit(self, account_id: str, amount: Credits) -> int:
        """Credit external funds (admin path); returns the TransactionID."""
        amount = Credits(amount).require_positive("deposit amount")
        with self.locks.exclusive(account_id), self.db.transaction():
            row = self.require_open(account_id)
            txn_id = self._txn_ids.next_int()
            when = self.clock.now()
            self._set_balances(account_id, db_to_credits(row["AvailableBalance"]) + amount)
            self._post_entry(account_id, txn_id, TXN_DEPOSIT, amount, when)
            return txn_id

    def withdraw(self, account_id: str, amount: Credits) -> int:
        """Debit funds out of the bank (admin path); no credit-limit use."""
        amount = Credits(amount).require_positive("withdrawal amount")
        with self.locks.exclusive(account_id), self.db.transaction():
            row = self.require_open(account_id)
            available = db_to_credits(row["AvailableBalance"])
            if available < amount:
                raise InsufficientFundsError(
                    f"account {account_id}: cannot withdraw {amount} from {available}"
                )
            txn_id = self._txn_ids.next_int()
            self._set_balances(account_id, available - amount)
            self._post_entry(account_id, txn_id, TXN_WITHDRAWAL, -amount, self.clock.now())
            return txn_id

    def transfer(
        self,
        from_account: str,
        to_account: str,
        amount: Credits,
        rur_blob: bytes = b"",
    ) -> int:
        """Move *amount* between accounts; returns the TransactionID.

        Writes the TRANSFER record plus the two per-account TRANSACTION
        entries (drawer negative, recipient positive) atomically.
        """
        amount = Credits(amount).require_positive("transfer amount")
        if from_account == to_account:
            raise AccountError("cannot transfer to the same account")
        with self.locks.exclusive(from_account, to_account), self.db.transaction():
            drawer = self.require_open(from_account)
            recipient = self.require_open(to_account)
            self._require_same_currency(drawer, recipient)
            self._require_covered(drawer, amount)
            txn_id = self._txn_ids.next_int()
            when = self.clock.now()
            self._set_balances(from_account, db_to_credits(drawer["AvailableBalance"]) - amount)
            self._set_balances(to_account, db_to_credits(recipient["AvailableBalance"]) + amount)
            self._post_entry(from_account, txn_id, TXN_TRANSFER, -amount, when)
            self._post_entry(to_account, txn_id, TXN_TRANSFER, amount, when)
            self.db.insert(
                "transfers",
                {
                    "TransactionID": txn_id,
                    "Date": when,
                    "DrawerAccountID": from_account,
                    "Amount": credits_to_db(amount),
                    "RecipientAccountID": to_account,
                    "ResourceUsageRecord": rur_blob,
                    "TraceID": current_trace_id(),
                },
            )
            return txn_id

    # -- locked funds (payment guarantee, sec 3.4) ---------------------------------------

    def lock_funds(self, account_id: str, amount: Credits) -> None:
        """Move *amount* from available to locked balance.

        The lock may draw on the credit limit (a cheque can reserve up to
        balance + credit), but locked funds themselves are always real:
        the available balance may go negative only down to -CreditLimit.
        """
        amount = Credits(amount).require_positive("lock amount")
        with self.locks.exclusive(account_id), self.db.transaction():
            row = self.require_open(account_id)
            self._require_covered(row, amount)
            self._set_balances(
                account_id,
                db_to_credits(row["AvailableBalance"]) - amount,
                db_to_credits(row["LockedBalance"]) + amount,
            )

    def unlock_funds(self, account_id: str, amount: Credits) -> None:
        """Return *amount* from locked to available."""
        amount = Credits(amount).require_positive("unlock amount")
        with self.locks.exclusive(account_id), self.db.transaction():
            row = self.get_account(account_id)
            locked = db_to_credits(row["LockedBalance"])
            if locked < amount:
                raise AccountError(f"account {account_id}: only {locked} locked, cannot unlock {amount}")
            self._set_balances(
                account_id,
                db_to_credits(row["AvailableBalance"]) + amount,
                locked - amount,
            )

    def transfer_from_locked(
        self,
        from_account: str,
        to_account: str,
        amount: Credits,
        rur_blob: bytes = b"",
    ) -> int:
        """Settle a guaranteed payment out of the drawer's locked balance."""
        amount = Credits(amount).require_positive("transfer amount")
        if from_account == to_account:
            raise AccountError("cannot transfer to the same account")
        with self.locks.exclusive(from_account, to_account), self.db.transaction():
            drawer = self.get_account(from_account)
            recipient = self.require_open(to_account)
            self._require_same_currency(drawer, recipient)
            locked = db_to_credits(drawer["LockedBalance"])
            if locked < amount:
                raise InsufficientFundsError(
                    f"account {from_account}: locked balance {locked} cannot cover {amount}"
                )
            txn_id = self._txn_ids.next_int()
            when = self.clock.now()
            self.db.update(
                "accounts", (from_account,), {"LockedBalance": credits_to_db(locked - amount)}
            )
            self._set_balances(to_account, db_to_credits(recipient["AvailableBalance"]) + amount)
            self._post_entry(from_account, txn_id, TXN_TRANSFER, -amount, when)
            self._post_entry(to_account, txn_id, TXN_TRANSFER, amount, when)
            self.db.insert(
                "transfers",
                {
                    "TransactionID": txn_id,
                    "Date": when,
                    "DrawerAccountID": from_account,
                    "Amount": credits_to_db(amount),
                    "RecipientAccountID": to_account,
                    "ResourceUsageRecord": rur_blob,
                    "TraceID": current_trace_id(),
                },
            )
            return txn_id

    # -- statements ------------------------------------------------------------------------

    def statement(self, account_id: str, start: Timestamp, end: Timestamp) -> dict:
        """Request Account Statement (sec 5.2): the account record plus its
        TRANSACTION entries and related TRANSFER records in [start, end]."""
        account = self.get_account(account_id)
        if end < start:
            raise ValidationError("statement end before start")
        window = between("Date", start.stamp14, end.stamp14)
        transactions = self.db.select(
            "transactions", [eq("AccountID", account_id), window], order_by="EntryID"
        )
        # join by primary key: only deposits/withdrawals lack a TRANSFER row
        candidates = (
            self.db.find("transfers", (txn_id,))
            for txn_id in sorted({t["TransactionID"] for t in transactions})
        )
        transfers = [row for row in candidates if row is not None and window(row)]
        return {"account": account, "transactions": transactions, "transfers": transfers}

    def transfer_record(self, txn_id: int) -> dict:
        row = self.db.find("transfers", (txn_id,))
        if row is None:
            raise NotFoundError(f"no transfer {txn_id}")
        return row
