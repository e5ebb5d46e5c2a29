"""GridCheque — the pay-after-use protocol (NetCheque model, sec 3.1/3.4).

"When the service charge is unknown beforehand, GSC forwards a payment
order in the form of a digital cheque to GSP. The cheque is made out to
GSP so no one else can redeem it. After computation has finished, GSP
calculates total cost and forwards the cheque along with resource usage
record to GridBank for processing. This can be done in batches."

Payment guarantee (sec 3.4): at issue time the bank moves the cheque's
reserved amount into the drawer's *locked* balance, so a GSP holding a
valid GridCheque can never be left unpaid, and a GSC can never overspend
by writing many cheques against the same funds. Redemption settles the
actual (metered) charge from the locked funds and releases the unused
remainder back to the drawer.
"""

from __future__ import annotations

from repro.errors import InstrumentError, ReproError, ValidationError
from repro.obs import metrics as obs_metrics
from repro.payments.instruments import Instrument, InstrumentProtocol, Settlement, require_amount
from repro.util.money import Credits, ZERO

__all__ = ["GridCheque", "GridChequeProtocol", "CHEQUE_LIFETIME"]

CHEQUE_LIFETIME = 7 * 24 * 3600.0


class GridCheque(Instrument):
    """Client-side view of an issued cheque."""

    kind = "GridCheque"

    @property
    def cheque_id(self) -> str:
        return self.payload["id"]

    @property
    def amount_limit(self) -> Credits:
        return self.payload["amount_limit"]

    @property
    def payee_subject(self) -> str:
        return self.payload["payee_subject"]

    @property
    def drawer_account(self) -> str:
        return self.payload["drawer_account"]


class GridChequeProtocol(InstrumentProtocol):
    """Server-side GridCheque module (Figure 3, Payment Protocol Layer)."""

    instrument = GridCheque
    prefix = "chq"
    noun = "cheque"
    lifetime = CHEQUE_LIFETIME

    # -- issue (Request GridCheque, sec 5.2) ---------------------------------

    def issue(
        self,
        drawer_subject: str,
        drawer_account: str,
        payee_subject: str,
        amount: Credits,
    ) -> GridCheque:
        """Lock *amount* on the drawer and return the bank-signed cheque."""
        amount = require_amount(amount, "cheque amount")
        fields = {"drawer_subject": drawer_subject, "payee_account": ""}
        cheque = self._issue(drawer_subject, drawer_account, payee_subject, amount, fields)[0]
        obs_metrics.counter("payments.cheque.issued").inc()
        return cheque

    # -- redeem (Redeem GridCheque, sec 5.2) --------------------------------------

    def redeem(
        self,
        redeemer_subject: str,
        cheque: GridCheque,
        payee_account: str,
        charge: Credits,
        rur_blob: bytes = b"",
    ) -> Settlement:
        """Settle *charge* (<= cheque limit) to *payee_account*.

        The unused remainder of the locked reservation returns to the
        drawer's available balance. A zero charge releases everything.
        """
        try:
            settlement = self._settle(redeemer_subject, cheque, payee_account, charge, rur_blob)
        except ReproError:
            obs_metrics.counter("payments.cheque.bounced").inc()
            raise
        obs_metrics.counter("payments.cheque.redeemed").inc()
        obs_metrics.counter("payments.cheque.settled_value").inc(settlement.paid.to_float())
        return settlement

    def _claim(self, payload: dict, limit: Credits, charge) -> tuple[Credits, int]:
        charge = Credits(charge)
        if charge < ZERO:
            raise ValidationError("charge must be >= 0")
        if charge > limit:
            raise InstrumentError(
                f"charge {charge} exceeds cheque limit {limit}"
            )
        return charge, 0

    # -- cancel (drawer reclaims an unredeemed cheque) ---------------------------

    def cancel(self, drawer_subject: str, cheque: GridCheque) -> Credits:
        """Cancel an unredeemed cheque and unlock its reservation."""
        payload = cheque.verify(self._public)
        if payload["drawer_subject"] != drawer_subject:
            raise InstrumentError("only the drawer may cancel a cheque")
        released = self._release(payload)
        obs_metrics.counter("payments.cheque.cancelled").inc()
        return released
