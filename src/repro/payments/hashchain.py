"""GridHash — the pay-as-you-go protocol (PayWord model, sec 3.1).

"A hash chain scheme based on PayWord would allow service consumers to
dynamically pay service providers for CPU time or per each computation
result delivered."

Flow:

1. The consumer generates a :class:`~repro.crypto.hashes.HashChain` of N
   links locally and asks the bank to *commit* to it (root, link value,
   length, payee). The bank locks ``N x link_value`` — pre-debiting means
   "a client could never overspend" (sec 3.4) — and returns a signed
   :class:`GridHashCommitment`.
2. During service the consumer reveals successive links; the GSP verifies
   each with **one hash, offline** (:class:`HashChainVerifier`) — no bank
   round-trip per micropayment, which is the entire point of the scheme.
3. Afterwards the GSP redeems the commitment with the highest link it
   holds; the bank verifies ``sha256^k(link_k) == root``, pays
   ``k x link_value`` from the locked funds and releases the remainder.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.crypto.hashes import HashChain, verify_link
from repro.crypto.rsa import RSAPublicKey
from repro.errors import InstrumentError, PaymentError, ValidationError
from repro.obs import metrics as obs_metrics
from repro.payments.instruments import Instrument, InstrumentProtocol, Settlement, require_amount
from repro.util.money import Credits

__all__ = [
    "GridHashCommitment",
    "GridHashProtocol",
    "HashChainWallet",
    "HashChainVerifier",
    "PaymentTick",
]

COMMITMENT_LIFETIME = 24 * 3600.0


class GridHashCommitment(Instrument):
    """Bank-signed commitment to a consumer's hash chain."""

    kind = "GridHash"

    @property
    def commitment_id(self) -> str:
        return self.payload["id"]

    @property
    def root(self) -> bytes:
        return self.payload["root"]

    @property
    def link_value(self) -> Credits:
        return self.payload["link_value"]

    @property
    def length(self) -> int:
        return self.payload["length"]

    def verify(self, bank_key: RSAPublicKey) -> dict:
        payload = super().verify(bank_key)
        if not isinstance(payload.get("root"), bytes) or len(payload["root"]) != 32:
            raise InstrumentError("GridHash commitment has a malformed root")
        if not isinstance(payload.get("length"), int) or payload["length"] < 1:
            raise InstrumentError("GridHash commitment has a malformed length")
        return payload


@dataclass(frozen=True)
class PaymentTick:
    """One revealed micropayment: link *index* of a committed chain."""

    commitment_id: str
    index: int
    link: bytes


class HashChainWallet:
    """Consumer-side: the secret chain plus its bank commitment."""

    def __init__(self, chain: HashChain, commitment: GridHashCommitment) -> None:
        if chain.root != commitment.root:
            raise PaymentError("commitment root does not match local chain")
        self.chain = chain
        self.commitment = commitment
        self.spent = 0

    @property
    def remaining(self) -> int:
        return self.chain.length - self.spent

    def pay(self, ticks: int = 1) -> PaymentTick:
        """Reveal the next *ticks* links as one payment."""
        if ticks < 1:
            raise ValidationError("must pay at least one tick")
        if self.spent + ticks > self.chain.length:
            raise PaymentError(
                f"chain exhausted: {self.remaining} links left, {ticks} requested"
            )
        self.spent += ticks
        return PaymentTick(
            commitment_id=self.commitment.commitment_id,
            index=self.spent,
            link=self.chain.link(self.spent),
        )

    def spent_value(self) -> Credits:
        return self.commitment.link_value * self.spent


class HashChainVerifier:
    """GSP-side: offline verification of successive payment ticks."""

    def __init__(self, commitment: GridHashCommitment, bank_key: RSAPublicKey) -> None:
        commitment.verify(bank_key)
        self.commitment = commitment
        self._last_link = commitment.root
        self._last_index = 0
        self.hash_operations = 0

    @property
    def verified_index(self) -> int:
        return self._last_index

    @property
    def best_tick(self) -> Optional[PaymentTick]:
        if self._last_index == 0:
            return None
        return PaymentTick(self.commitment.commitment_id, self._last_index, self._last_link)

    def accept(self, tick: PaymentTick) -> Credits:
        """Verify *tick*; returns the incremental value received."""
        if tick.commitment_id != self.commitment.commitment_id:
            raise PaymentError("tick belongs to a different commitment")
        if tick.index <= self._last_index:
            raise PaymentError(f"tick index {tick.index} not beyond {self._last_index}")
        if tick.index > self.commitment.length:
            raise PaymentError("tick index beyond committed chain length")
        distance = tick.index - self._last_index
        self.hash_operations += distance
        with obs_metrics.timed("payments.hashchain.verify_seconds"):
            verified = verify_link(tick.link, self._last_link, distance=distance)
        if not verified:
            raise PaymentError(f"tick {tick.index} does not hash back to last verified link")
        delta = self.commitment.link_value * distance
        self._last_link = tick.link
        self._last_index = tick.index
        return delta

    def received_value(self) -> Credits:
        return self.commitment.link_value * self._last_index


class GridHashProtocol(InstrumentProtocol):
    """Server-side GridHash module (Figure 3, Payment Protocol Layer)."""

    instrument = GridHashCommitment
    prefix = "hsh"
    noun = "commitment"
    lifetime = COMMITMENT_LIFETIME

    def issue(
        self,
        drawer_subject: str,
        drawer_account: str,
        payee_subject: str,
        root: bytes,
        length: int,
        link_value: Credits,
    ) -> GridHashCommitment:
        """Commit to a consumer chain, locking ``length x link_value``."""
        link_value = require_amount(link_value, "link value")
        if not isinstance(length, int) or length < 1:
            raise ValidationError("chain length must be a positive int")
        if not isinstance(root, bytes) or len(root) != 32:
            raise ValidationError("chain root must be 32 bytes")
        fields = {
            "drawer_subject": drawer_subject,
            "root": root,
            "length": length,
            "link_value": link_value,
        }
        commitment = self._issue(
            drawer_subject, drawer_account, payee_subject, link_value * length, fields
        )[0]
        obs_metrics.counter("payments.hashchain.issued").inc()
        return commitment

    def redeem(
        self,
        redeemer_subject: str,
        commitment: GridHashCommitment,
        payee_account: str,
        tick: Optional[PaymentTick],
        rur_blob: bytes = b"",
    ) -> Settlement:
        """Redeem the highest verified tick; release the rest of the lock.

        ``tick=None`` redeems nothing (releases the whole reservation back
        to the drawer — e.g. the service was never delivered).
        """
        settlement = self._settle(redeemer_subject, commitment, payee_account, tick, rur_blob)
        obs_metrics.counter("payments.hashchain.redeemed").inc()
        obs_metrics.counter("payments.hashchain.links_redeemed").inc(settlement.units)
        return settlement

    def _claim(self, payload: dict, limit: Credits, tick: Optional[PaymentTick]) -> tuple[Credits, int]:
        links = 0
        if tick is not None:
            if tick.commitment_id != payload["id"]:
                raise InstrumentError("tick belongs to a different commitment")
            if not isinstance(tick.index, int) or not 1 <= tick.index <= payload["length"]:
                raise InstrumentError("tick index outside committed chain")
            with obs_metrics.timed("payments.hashchain.verify_seconds"):
                digest = tick.link
                for _ in range(tick.index):
                    digest = hashlib.sha256(digest).digest()
            if digest != payload["root"]:
                raise InstrumentError("tick does not hash back to the committed root")
            links = tick.index
        return Credits(payload["link_value"]) * links, links
