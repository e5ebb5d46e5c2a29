"""GridBank Charging Module (GBCM) — the GSP-side accountant.

Per the paper's conclusion, GBCM "is responsible for determining
legitimacy of payment instruments passed to it by the GridBank Payment
Module, setting up and removing (after execution of user application)
temporary local accounts, calculating total charge using the Resource
Usage Record and the service rates passed by the Grid Trade Service, and
redeeming the payment with the GridBank server."

The charge calculation, rates and RUR are signed by the GSP "to provide
non-repudiation of the transaction" (sec 2.1) and submitted with the
payment instrument for processing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.api import GridBankAPI
from repro.core.rates import ServiceRatesRecord
from repro.crypto.rsa import RSAPublicKey
from repro.crypto.signature import Signed
from repro.errors import InstrumentError, SignatureError, ValidationError
from repro.grid.accounts_pool import TemplateAccountPool
from repro.obs import metrics as obs_metrics
from repro.payments.cheque import GridCheque
from repro.payments.hashchain import GridHashCommitment, HashChainVerifier, PaymentTick
from repro.pki.ca import Identity
from repro.rur.formats import to_blob
from repro.rur.record import ResourceUsageRecord
from repro.util.money import Credits, ZERO

__all__ = ["ChargeCalculation", "GridBankChargingModule"]


@dataclass(frozen=True)
class ChargeCalculation:
    """The signed (calculation + rates + RUR) bundle of sec 2.1."""

    signed: Signed

    @property
    def payload(self) -> dict:
        return self.signed.payload

    @property
    def total(self) -> Credits:
        return self.payload["total"]

    @property
    def item_charges(self) -> dict:
        return self.payload["item_charges"]

    @property
    def rur(self) -> ResourceUsageRecord:
        return ResourceUsageRecord.from_dict(self.payload["rur"])

    def verify(self, gsp_key: RSAPublicKey) -> dict:
        if not self.signed.check(gsp_key):
            raise SignatureError("charge calculation: GSP signature invalid")
        return self.payload

    def recompute_check(self) -> None:
        """Anyone (bank, auditor, consumer) can re-derive the total from
        the embedded rates and RUR and compare."""
        rates = ServiceRatesRecord.from_dict(self.payload["rates"])
        rur = self.rur
        expected = rates.total_charge(rur.usage)
        if expected != self.total:
            raise ValidationError(
                f"charge calculation does not match rates x usage: "
                f"claimed {self.total}, recomputed {expected}"
            )


@dataclass
class AdmissionTicket:
    """A consumer admitted to the GSP: instrument + temporary local account.

    ``ref`` distinguishes concurrent engagements of the same consumer (a
    campaign running several jobs at once shares one template account —
    the local account is per *user*, the instrument per *engagement*).
    """

    subject: str
    local_account: str
    instrument: Union[GridCheque, GridHashCommitment, None]
    verifier: Optional[HashChainVerifier] = None  # pay-as-you-go only
    ref: str = ""


class GridBankChargingModule:
    def __init__(
        self,
        gsp_identity: Identity,
        bank_api: GridBankAPI,
        pool: TemplateAccountPool,
        gsp_account_id: str,
    ) -> None:
        self.identity = gsp_identity
        self.bank = bank_api
        self.pool = pool
        self.gsp_account_id = gsp_account_id
        self.admitted: dict[str, AdmissionTicket] = {}  # keyed by engagement ref
        self._subject_engagements: dict[str, int] = {}
        self.charges_settled = 0
        self.revenue = ZERO

    # -- instrument legitimacy + admission (sec 2.3) ---------------------------

    def _validate_instrument(self, subject: str, instrument) -> None:
        if isinstance(instrument, GridCheque):
            payload = instrument.verify(self.bank.bank_public_key)
        elif isinstance(instrument, GridHashCommitment):
            payload = instrument.verify(self.bank.bank_public_key)
        elif instrument is None:
            return  # pay-before-use: confirmation checked separately
        else:
            raise InstrumentError(f"unsupported payment instrument {type(instrument).__name__}")
        if payload["payee_subject"] != self.identity.subject:
            raise InstrumentError("instrument is not made out to this GSP")
        if payload.get("drawer_subject") not in (None, subject):
            raise InstrumentError("instrument drawer does not match the presenting consumer")

    def admit(self, subject: str, instrument=None, ref: str = "") -> AdmissionTicket:
        """Validate the payment instrument and map the consumer to a
        template account ("provided GSC presents a well-formed payment
        instrument, GSP dynamically assigns one of the template accounts").

        *ref* names the engagement (defaults to the subject); concurrent
        engagements of one subject share its template account.
        """
        ref = ref or subject
        if ref in self.admitted:
            raise InstrumentError(f"engagement {ref!r} already admitted")
        self._validate_instrument(subject, instrument)
        local_account = self.pool.assign(subject)  # idempotent per subject
        self._subject_engagements[subject] = self._subject_engagements.get(subject, 0) + 1
        verifier = None
        if isinstance(instrument, GridHashCommitment):
            verifier = HashChainVerifier(instrument, self.bank.bank_public_key)
        ticket = AdmissionTicket(
            subject=subject, local_account=local_account, instrument=instrument,
            verifier=verifier, ref=ref,
        )
        self.admitted[ref] = ticket
        return ticket

    def accept_tick(self, ref: str, tick: PaymentTick) -> Credits:
        """Pay-as-you-go: verify one micropayment offline."""
        ticket = self._ticket(ref)
        if ticket.verifier is None:
            raise InstrumentError("consumer is not paying by hash chain")
        return ticket.verifier.accept(tick)

    def _ticket(self, ref: str) -> AdmissionTicket:
        ticket = self.admitted.get(ref)
        if ticket is None:
            raise InstrumentError(f"engagement {ref!r} was not admitted")
        return ticket

    # -- charge calculation (sec 2.1) -----------------------------------------------

    def calculate_charge(self, rur: ResourceUsageRecord, rates: ServiceRatesRecord) -> ChargeCalculation:
        item_charges = rates.item_charges(rur.usage)
        total = sum(item_charges.values(), ZERO)
        payload = {
            "calculation": "GridCharge",
            "gsp_subject": self.identity.subject,
            "rur": rur.to_dict(),
            "rates": rates.to_dict(),
            "item_charges": item_charges,
            "total": total,
        }
        return ChargeCalculation(
            signed=Signed.make(self.identity.private_key, payload, signer=self.identity.subject)
        )

    # -- settlement -------------------------------------------------------------------

    def settle(
        self,
        ref: str,
        rur: ResourceUsageRecord,
        rates: ServiceRatesRecord,
    ) -> tuple[ChargeCalculation, dict]:
        """Full post-execution flow: calculate, redeem, free the account.

        Returns the signed charge calculation and the bank's redemption
        result. For hash-chain consumers the redeemed amount is what the
        verifier actually received, capped by the calculated charge only
        in the consumer's favour (the GSP cannot take more than was paid).
        """
        ticket = self._ticket(ref)
        calculation = self.calculate_charge(rur, rates)
        rur_blob = to_blob(rur)
        instrument = ticket.instrument
        if isinstance(instrument, GridCheque):
            charge = calculation.total
            if charge > instrument.amount_limit:
                charge = instrument.amount_limit  # guarantee bound (sec 3.4)
            result = self.bank.redeem_cheque(instrument, self.gsp_account_id, charge, rur_blob)
            earned = result["paid"]
        elif isinstance(instrument, GridHashCommitment):
            assert ticket.verifier is not None
            result = self.bank.redeem_hashchain(
                instrument, self.gsp_account_id, ticket.verifier.best_tick, rur_blob
            )
            earned = result["paid"]
        elif instrument is None:
            # pay-before-use: funds already arrived; nothing to redeem
            result = {"paid": ZERO, "prepaid": True}
            earned = ZERO
        else:  # pragma: no cover - admit() already rejects these
            raise InstrumentError("unsupported instrument at settlement")
        self.release(ref)
        self.charges_settled += 1
        self.revenue = self.revenue + earned
        obs_metrics.counter("core.charging.settlements").inc()
        obs_metrics.counter("core.charging.amount_charged").inc(calculation.total.to_float())
        obs_metrics.counter("core.charging.revenue").inc(earned.to_float())
        return calculation, result

    def release(self, ref: str) -> None:
        """End an engagement; when the consumer's last engagement ends,
        remove the grid-mapfile association and return the template
        account to the pool."""
        ticket = self.admitted.pop(ref, None)
        if ticket is None:
            return
        subject = ticket.subject
        remaining = self._subject_engagements.get(subject, 1) - 1
        if remaining <= 0:
            self._subject_engagements.pop(subject, None)
            self.pool.release(subject)
        else:
            self._subject_engagements[subject] = remaining
