"""Payment instruments: the registry, and the one lifecycle every kind shares.

Every instrument the bank issues is a :class:`~repro.crypto.signature.Signed`
envelope over a payload dict carrying at least ``instrument`` (type name),
``id``, ``drawer_account``, ``payee_subject`` and ``amount_limit``. The
registry rows in the ``instruments`` table track lifecycle (issued ->
redeemed / cancelled) — the double-spend defence: a redeemed id can never
redeem again, even across server restarts (the table is WAL-persisted with
everything else).

:class:`InstrumentProtocol` is that lifecycle, written once (DESIGN §22):
issue locks the drawer's funds, settle pays from the lock and releases the
rest, release gives the whole lock back. GridCheque, GridHash and GridCoin
subclass it and write only the checks that are their own; nothing else
takes, pays from or gives back a reservation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

from repro.bank.accounts import GBAccounts
from repro.bank.records import credits_to_db, db_to_credits
from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.crypto.signature import Signed
from repro.db.database import Database
from repro.errors import DoubleSpendError, InstrumentError, ValidationError
from repro.util.gbtime import Clock, Timestamp
from repro.util.ids import IdGenerator
from repro.util.money import Credits, ZERO

__all__ = ["Instrument", "InstrumentProtocol", "InstrumentRegistry", "Settlement"]

STATE_ISSUED = "issued"
STATE_REDEEMED = "redeemed"
STATE_CANCELLED = "cancelled"

_REQUIRED_FIELDS = ("id", "drawer_account", "payee_subject", "amount_limit")


@dataclass(frozen=True)
class Instrument:
    """Client-side view of an issued instrument: its bank-signed envelope."""

    #: the payload's ``instrument`` value (and the registry's ``Type``)
    kind: ClassVar[str] = ""

    signed: Signed

    @property
    def payload(self) -> dict:
        return self.signed.payload

    def verify(self, bank_key: RSAPublicKey) -> dict:
        """Verify the bank signature and basic shape; returns the payload."""
        kind = self.kind
        if not self.signed.check(bank_key):
            raise InstrumentError(f"{kind}: bank signature invalid")
        payload = self.signed.payload
        if not isinstance(payload, dict) or payload.get("instrument") != kind:
            raise InstrumentError(f"expected a {kind} instrument")
        for field in _REQUIRED_FIELDS:
            if field not in payload:
                raise InstrumentError(f"{kind}: missing field {field!r}")
        return payload

    def to_dict(self) -> dict:
        return self.signed.to_dict()

    @classmethod
    def from_dict(cls, data: dict):
        return cls(signed=Signed.from_dict(data))


@dataclass(frozen=True)
class Settlement:
    """What one redemption did. ``transaction_id`` is None when nothing
    was paid; ``units`` is what the instrument counts (GridHash links)."""

    instrument_id: str
    transaction_id: Optional[int]
    paid: Credits
    released: Credits
    units: int


class InstrumentRegistry:
    """Lifecycle tracking for issued instruments (the ``instruments`` table)."""

    def __init__(self, db: Database, clock: Clock) -> None:
        self.db = db
        self.clock = clock
        self.rescan_ids()

    def rescan_ids(self) -> None:
        """Re-derive the id counter from persisted rows (post-recovery)."""
        highest = 0
        for row in self.db.table("instruments").all_rows():
            suffix = row["InstrumentID"].rsplit("-", 1)[-1]
            if suffix.isdigit():
                highest = max(highest, int(suffix))
        self._ids = IdGenerator(prefix="ins", start=highest + 1, width=8)

    def new_id(self, kind_prefix: str) -> str:
        return f"{kind_prefix}-{self._ids.next_int():08d}"

    def register(
        self,
        instrument_id: str,
        kind: str,
        drawer_account: str,
        payee_subject: str,
        amount_limit: Credits,
    ) -> Timestamp:
        """Insert the issued row; returns its ``IssuedAt`` stamp."""
        issued_at = self.clock.now()
        self.db.insert(
            "instruments",
            {
                "InstrumentID": instrument_id,
                "Type": kind,
                "DrawerAccountID": drawer_account,
                "PayeeSubject": payee_subject,
                "AmountLimit": credits_to_db(amount_limit),
                "IssuedAt": issued_at,
                "State": STATE_ISSUED,
            },
        )
        return issued_at

    def require_issued(self, instrument_id: str) -> dict:
        row = self.db.find("instruments", (instrument_id,))
        if row is None:
            raise InstrumentError(f"unknown instrument {instrument_id!r}")
        if row["State"] == STATE_REDEEMED:
            raise DoubleSpendError(f"instrument {instrument_id!r} already redeemed")
        if row["State"] != STATE_ISSUED:
            raise InstrumentError(f"instrument {instrument_id!r} is {row['State']}")
        return row

    def mark_redeemed(self, instrument_id: str, redeemed_units: int = 0) -> None:
        self.db.update(
            "instruments",
            (instrument_id,),
            {"State": STATE_REDEEMED, "RedeemedUnits": redeemed_units},
        )

    def mark_cancelled(self, instrument_id: str) -> None:
        self.db.update("instruments", (instrument_id,), {"State": STATE_CANCELLED})

    def amount_limit(self, row: dict) -> Credits:
        return db_to_credits(row["AmountLimit"])

    def outstanding_for(self, drawer_account: str) -> list[dict]:
        from repro.db.query import eq

        return [
            row
            for row in self.db.select("instruments", [eq("DrawerAccountID", drawer_account)])
            if row["State"] == STATE_ISSUED
        ]


def require_not_expired(payload: dict, clock: Clock) -> None:
    expires = payload.get("expires_at")
    if expires is not None and clock.now().epoch > expires:
        raise InstrumentError(f"instrument {payload.get('id')!r} expired")


def require_amount(value, what: str) -> Credits:
    amount = Credits(value) if not isinstance(value, Credits) else value
    return amount.require_positive(what)


class InstrumentProtocol:
    """Issue, settle and release: the lifecycle of a funds-locking
    instrument (paper sec 3.1/3.4), in one fixed order.

    A subclass names its client class, id prefix, the noun its errors use
    and its lifetime, and overrides :meth:`_claim` (what a redemption
    pays); it adds its own checks before calling :meth:`_issue` or
    :meth:`_release`. The accounts layer is called through
    ``self.accounts`` at call time, never through a stored bound method.
    """

    instrument: ClassVar[type[Instrument]]
    prefix: ClassVar[str]
    noun: ClassVar[str]
    lifetime: ClassVar[float]
    #: a bearer instrument names no payee: whoever presents it first redeems
    bearer: ClassVar[bool] = False

    def __init__(
        self,
        accounts: GBAccounts,
        registry: InstrumentRegistry,
        bank_private_key: RSAPrivateKey,
        bank_subject: str,
        clock: Clock,
    ) -> None:
        self.accounts = accounts
        self.registry = registry
        self._key = bank_private_key
        self._public = bank_private_key.public_key()
        self._subject = bank_subject
        self.clock = clock

    def _issue(
        self,
        drawer_subject: str,
        drawer_account: str,
        payee_subject: str,
        amount: Credits,
        fields: dict,
        count: int = 1,
    ) -> list:
        """Lock ``amount x count`` on the drawer and sign *count*
        instruments of *amount* each, all in one transaction. *fields* are
        the kind's own payload entries beside the common ones."""
        if not self.bearer and not payee_subject:
            raise ValidationError(f"{self.noun} must be made out to a payee")
        account = self.accounts.require_open(drawer_account)
        if account["CertificateName"] != drawer_subject:
            raise InstrumentError(f"{self.noun} drawer does not own the account")
        kind = self.instrument.kind
        issued = []
        with self.accounts.db.transaction():
            # one lock for the lot; only a mint has count > 1 (x1 costs 8 calls)
            self.accounts.lock_funds(drawer_account, amount * count if count > 1 else amount)
            for _ in range(count):
                instrument_id = self.registry.new_id(self.prefix)
                issued_at = self.registry.register(
                    instrument_id, kind, drawer_account, payee_subject, amount
                )
                now = issued_at.epoch
                payload = {
                    "instrument": kind,
                    "id": instrument_id,
                    "drawer_account": drawer_account,
                    "payee_subject": payee_subject,
                    "amount_limit": amount,
                    "currency": account["Currency"],
                    "issued_at": now,
                    "expires_at": now + self.lifetime,
                    **fields,
                }
                signed = Signed.make(self._key, payload, signer=self._subject)
                issued.append(self.instrument(signed=signed))
        return issued

    def _claim(self, payload: dict, limit: Credits, claim) -> tuple[Credits, int]:
        """(amount paid, units redeemed) for *claim*; at most *limit*."""
        raise NotImplementedError

    def _settle(
        self,
        redeemer_subject: str,
        instrument: Instrument,
        payee_account: str,
        claim,
        rur_blob: bytes,
    ) -> Settlement:
        """Pay what *claim* is worth from the drawer's lock into
        *payee_account*, release the rest and mark the instrument redeemed."""
        payload = instrument.verify(self._public)
        require_not_expired(payload, self.clock)
        if not self.bearer and payload["payee_subject"] != redeemer_subject:
            raise InstrumentError(f"{self.noun} is made out to a different payee")
        payee_row = self.accounts.require_open(payee_account)
        if payee_row["CertificateName"] != redeemer_subject:
            raise InstrumentError("payee account is not owned by the redeemer")
        limit = Credits(payload["amount_limit"])
        paid, units = self._claim(payload, limit, claim)
        instrument_id = payload["id"]
        drawer_account = payload["drawer_account"]
        with self.accounts.db.transaction():
            self.registry.require_issued(instrument_id)
            txn_id: Optional[int] = None
            if paid > ZERO:
                txn_id = self.accounts.transfer_from_locked(
                    drawer_account, payee_account, paid, rur_blob=rur_blob
                )
            released = limit - paid
            if released > ZERO:
                self.accounts.unlock_funds(drawer_account, released)
            self.registry.mark_redeemed(instrument_id, redeemed_units=units)
        return Settlement(instrument_id, txn_id, paid, released, units)

    def _release(self, payload: dict) -> Credits:
        """Give an unredeemed instrument's whole lock back to its drawer
        and mark it cancelled. The caller has verified *payload* and
        checked who may release it."""
        amount = Credits(payload["amount_limit"])
        with self.accounts.db.transaction():
            self.registry.require_issued(payload["id"])
            self.accounts.unlock_funds(payload["drawer_account"], amount)
            self.registry.mark_cancelled(payload["id"])
        return amount
