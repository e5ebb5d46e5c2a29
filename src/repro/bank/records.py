"""Database record types — the paper's sec 5.1 schemas, verbatim where
possible.

ACCOUNT RECORD: AccountID VARCHAR(16) (``bank-branch-account``, e.g.
``01-0001-00000001``), CertificateName VARCHAR(150), OrganizationName
VARCHAR(30) optional, AvailableBalance FLOAT, LockedBalance FLOAT,
Currency VARCHAR(10), CreditLimit FLOAT.

TRANSACTION RECORD: TransactionID BIGINT(20) UNSIGNED, Type VARCHAR(10)
(Deposit / Withdrawal / Transfer), Date TIMESTAMP(14), Amount FLOAT
(negative when funds leave the account).

TRANSFER RECORD: TransactionID, Date, DrawerAccountID, Amount (always
positive), RecipientAccountID, ResourceUsageRecord BLOB.

Documented deviations (see DESIGN.md): the TRANSACTION record as printed
has no account linkage, yet statements are per-account — an ``AccountID``
column is added (it is plainly implied: "if withdrawal or transfer *from
the account*..."). An account ``Status`` column supports the Admin API's
close-account operation, and per-account transaction rows need their own
``EntryID`` because one TransactionID produces two rows (drawer negative,
recipient positive). Balances are carried as FLOAT per the paper but all
arithmetic happens in fixed-point :class:`~repro.util.money.Credits`.
TRANSACTION and TRANSFER rows additionally carry a ``TraceID`` column
(empty when written outside any request trace) linking each ledger write
to the RPC trace that caused it — see :mod:`repro.obs.trace`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.db.schema import Column, TableSchema
from repro.db.types import BigIntUnsigned, Blob, Float, Text, Timestamp14, VarChar
from repro.errors import ValidationError
from repro.util.money import Credits

__all__ = [
    "AccountID",
    "TXN_DEPOSIT",
    "TXN_WITHDRAWAL",
    "TXN_TRANSFER",
    "ACCOUNT_STATUS_OPEN",
    "ACCOUNT_STATUS_CLOSED",
    "account_schema",
    "transaction_schema",
    "transfer_schema",
    "admin_schema",
    "instrument_schema",
    "reply_schema",
    "xfer_intent_schema",
    "shard_meta_schema",
    "INTENT_PREPARED",
    "INTENT_COMMITTED",
    "INTENT_ABORTED",
    "credits_to_db",
    "db_to_credits",
]

TXN_DEPOSIT = "Deposit"
TXN_WITHDRAWAL = "Withdrawal"
TXN_TRANSFER = "Transfer"

ACCOUNT_STATUS_OPEN = "open"
ACCOUNT_STATUS_CLOSED = "closed"

INTENT_PREPARED = "prepared"
INTENT_COMMITTED = "committed"
INTENT_ABORTED = "aborted"

_ACCOUNT_ID_RE = re.compile(r"^(\d{2})-(\d{4})-(\d{8})$")


@dataclass(frozen=True)
class AccountID:
    """``bank-branch-account``: 2, 4, and 8 decimal digits (16 chars total).

    "It is precisely for this purpose that GridBank accounts have branch
    numbers" (sec 6) — the bank and branch components route inter-branch
    settlement.
    """

    bank: int
    branch: int
    account: int

    def __post_init__(self) -> None:
        if not 0 <= self.bank <= 99:
            raise ValidationError("bank number out of range")
        if not 0 <= self.branch <= 9999:
            raise ValidationError("branch number out of range")
        if not 0 <= self.account <= 99_999_999:
            raise ValidationError("account number out of range")

    def __str__(self) -> str:
        return f"{self.bank:02d}-{self.branch:04d}-{self.account:08d}"

    @classmethod
    def parse(cls, text: str) -> "AccountID":
        match = _ACCOUNT_ID_RE.match(text)
        if match is None:
            raise ValidationError(f"not an AccountID: {text!r}")
        return cls(bank=int(match.group(1)), branch=int(match.group(2)), account=int(match.group(3)))

    def same_branch(self, other: "AccountID") -> bool:
        return self.bank == other.bank and self.branch == other.branch


def credits_to_db(amount: Credits) -> float:
    """Credits -> the FLOAT column value (exact for realistic balances)."""
    return amount.to_float()


def db_to_credits(value: float) -> Credits:
    return Credits(value)


def account_schema() -> TableSchema:
    return TableSchema(
        "accounts",
        [
            Column.make("AccountID", VarChar(16)),
            Column.make("CertificateName", VarChar(150)),
            Column.make("OrganizationName", VarChar(30), default=""),
            Column.make("AvailableBalance", Float(), default=0.0),
            Column.make("LockedBalance", Float(), default=0.0),
            Column.make("Currency", VarChar(10), default="GridDollar"),
            Column.make("CreditLimit", Float(), default=0.0),
            Column.make("Status", VarChar(10), default=ACCOUNT_STATUS_OPEN),
        ],
        primary_key=["AccountID"],
        indexes=["CertificateName"],
    )


def transaction_schema() -> TableSchema:
    return TableSchema(
        "transactions",
        [
            Column.make("EntryID", BigIntUnsigned()),
            Column.make("TransactionID", BigIntUnsigned()),
            Column.make("AccountID", VarChar(16)),
            Column.make("Type", VarChar(10)),
            Column.make("Date", Timestamp14()),
            Column.make("Amount", Float()),
            Column.make("TraceID", VarChar(32), default=""),
        ],
        primary_key=["EntryID"],
        indexes=["AccountID"],
    )


def transfer_schema() -> TableSchema:
    return TableSchema(
        "transfers",
        [
            Column.make("TransactionID", BigIntUnsigned()),
            Column.make("Date", Timestamp14()),
            Column.make("DrawerAccountID", VarChar(16)),
            Column.make("Amount", Float()),
            Column.make("RecipientAccountID", VarChar(16)),
            Column.make("ResourceUsageRecord", Blob(), default=b""),
            Column.make("TraceID", VarChar(32), default=""),
        ],
        primary_key=["TransactionID"],
    )


def admin_schema() -> TableSchema:
    """Administrators table — privileged subjects (sec 3.2)."""
    return TableSchema(
        "administrators",
        [Column.make("CertificateName", VarChar(150))],
        primary_key=["CertificateName"],
    )


def reply_schema() -> TableSchema:
    """REPLY table — the durable reply cache behind exactly-once dispatch.

    One row per executed mutating operation, keyed by the request's
    idempotency key. ``Body`` is the canonical serialization of the
    operation's result; ``Subject``/``Method`` pin the key to its
    original caller and operation so a replay under a different identity
    or method is refused instead of served. Rows commit in the *same* WAL
    transaction as the operation's ledger effects, so after crash
    recovery an operation and its cached reply are either both present or
    both absent — never one without the other. ``Seq`` orders rows for
    bounded-size eviction.
    """
    return TableSchema(
        "replies",
        [
            Column.make("IdempotencyKey", VarChar(64)),
            Column.make("Seq", BigIntUnsigned()),
            Column.make("Subject", VarChar(150)),
            Column.make("Method", VarChar(40)),
            Column.make("Date", Timestamp14()),
            Column.make("Body", Text()),
        ],
        primary_key=["IdempotencyKey"],
        ordered=["Seq"],
    )


def xfer_intent_schema() -> TableSchema:
    """Cross-shard transfer intents — the 2PC write-ahead decision log.

    Prepare debits the drawer and inserts a ``prepared`` row in ONE local
    transaction (one WAL line), so a coordinator crash can never lose
    track of reserved funds: recovery re-reads ``prepared`` rows and
    re-drives the remote credit (idempotent on the participant via its
    reply cache keyed ``2pc:<IntentID>``) before marking the row
    ``committed`` — or refunds it and marks ``aborted`` when the
    participant reported a terminal refusal. ``IdempotencyKey`` is
    indexed so a client retry of an in-flight transfer resumes the SAME
    intent instead of preparing (and debiting) a second time. ``Detail``
    carries the abort reason so a retry of an aborted transfer can
    re-raise something meaningful.
    """
    return TableSchema(
        "xfer_intents",
        [
            Column.make("IntentID", VarChar(48)),
            Column.make("State", VarChar(10)),  # prepared | committed | aborted
            Column.make("DrawerAccountID", VarChar(16)),
            Column.make("RecipientAccountID", VarChar(16)),
            Column.make("Amount", Float()),
            Column.make("Currency", VarChar(10), default="GridDollar"),
            Column.make("Subject", VarChar(150)),
            Column.make("IdempotencyKey", VarChar(64), default=""),
            Column.make("Date", Timestamp14()),
            Column.make("TransactionID", BigIntUnsigned(), default=0),
            Column.make("Detail", VarChar(150), default=""),
            Column.make("TraceID", VarChar(32), default=""),
        ],
        primary_key=["IntentID"],
        indexes=["State", "IdempotencyKey"],
    )


def shard_meta_schema() -> TableSchema:
    """Shard identity + installed shard map, as durable replicated state.

    A single ``map`` row holds the canonical JSON of the installed
    :class:`~repro.bank.shard.ShardMap` (its ``Version`` duplicated in a
    column for cheap staleness checks) and a ``shard`` row names which
    shard this node serves. Living in the database means the map rides
    the WAL to standbys and survives crash recovery, so a promoted
    standby fences misrouted traffic with exactly the map version its
    ex-primary had installed.
    """
    return TableSchema(
        "shard_meta",
        [
            Column.make("Key", VarChar(16)),
            Column.make("Version", BigIntUnsigned(), default=0),
            Column.make("Body", Blob(), default=b""),
        ],
        primary_key=["Key"],
    )


def instrument_schema() -> TableSchema:
    """Issued/redeemed payment instruments (double-spend registry)."""
    return TableSchema(
        "instruments",
        [
            Column.make("InstrumentID", VarChar(24)),
            Column.make("Type", VarChar(10)),
            Column.make("DrawerAccountID", VarChar(16)),
            Column.make("PayeeSubject", VarChar(150)),
            Column.make("AmountLimit", Float()),
            Column.make("IssuedAt", Timestamp14()),
            Column.make("State", VarChar(10)),  # issued | redeemed | cancelled
            Column.make("RedeemedUnits", BigIntUnsigned(), default=0),
        ],
        primary_key=["InstrumentID"],
        indexes=["DrawerAccountID", "State"],
    )
