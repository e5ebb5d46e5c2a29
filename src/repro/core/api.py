"""GridBank API — the client-side facade of sec 5.2.

"GridBank API provides an interface to the Protocol layer, which is
responsible for obtaining payment instruments or performing direct
transfers. GridBank Payment Module and GridBank Charging Module interface
to GridBank API module to invoke GridBank operations." (sec 3.3)

Wraps a connected :class:`~repro.net.rpc.RPCClient`, learns the bank's
public key from ``BankInfo`` (used to verify every instrument it
receives), and converts wire dicts into typed instruments.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.crypto.hashes import HashChain
from repro.crypto.keys import public_key_from_dict
from repro.crypto.rsa import RSAPublicKey
from repro.net.rpc import RPCClient
from repro.payments.cheque import GridCheque
from repro.payments.direct import TransferConfirmation
from repro.payments.hashchain import GridHashCommitment, HashChainWallet, PaymentTick
from repro.util.gbtime import Timestamp
from repro.util.money import Credits

__all__ = ["GridBankAPI"]


class GridBankAPI:
    def __init__(self, client: RPCClient, rng: Optional[random.Random] = None) -> None:
        self._client = client
        self._rng = rng if rng is not None else random.Random()
        info = client.call("BankInfo")
        self.bank_subject: str = info["subject"]
        self.bank_number: int = info["bank_number"]
        self.branch_number: int = info["branch_number"]
        self.bank_public_key: RSAPublicKey = public_key_from_dict(info["public_key"])

    # -- account operations (sec 5.2) -----------------------------------------

    def create_account(self, organization_name: str = "", currency: str = "GridDollar") -> str:
        return self._client.call(
            "CreateAccount", organization_name=organization_name, currency=currency
        )["account_id"]

    def account_details(self, account_id: str) -> dict:
        return self._client.call("RequestAccountDetails", account_id=account_id)

    def check_balance(self, account_id: str) -> Credits:
        return Credits(self.account_details(account_id)["AvailableBalance"])

    def update_account(self, account_id: str, certificate_name: Optional[str] = None,
                       organization_name: Optional[str] = None) -> dict:
        params: dict = {"account_id": account_id}
        if certificate_name is not None:
            params["certificate_name"] = certificate_name
        if organization_name is not None:
            params["organization_name"] = organization_name
        return self._client.call("UpdateAccountDetails", **params)

    def account_statement(self, account_id: str, start: Timestamp, end: Timestamp) -> dict:
        return self._client.call(
            "RequestAccountStatement",
            account_id=account_id,
            start=start.stamp14,
            end=end.stamp14,
        )

    def funds_availability_check(self, account_id: str, amount: Credits) -> bool:
        return self._client.call(
            "FundsAvailabilityCheck", account_id=account_id, amount=amount
        )["confirmed"]

    def release_funds(self, account_id: str, amount: Credits) -> None:
        self._client.call("ReleaseFunds", account_id=account_id, amount=amount)

    # -- pay before use ------------------------------------------------------------

    def request_direct_transfer(
        self,
        from_account: str,
        to_account: str,
        amount: Credits,
        recipient_address: str = "",
        rur_blob: bytes = b"",
    ) -> TransferConfirmation:
        result = self._client.call(
            "RequestDirectTransfer",
            from_account=from_account,
            to_account=to_account,
            amount=amount,
            recipient_address=recipient_address,
            rur_blob=rur_blob,
        )
        confirmation = TransferConfirmation.from_dict(result["confirmation"])
        confirmation.verify(self.bank_public_key)
        return confirmation

    def fetch_confirmations(self, address: str) -> list[TransferConfirmation]:
        inbox = self._client.call("FetchConfirmations", address=address)
        confirmations = [TransferConfirmation.from_dict(item) for item in inbox]
        for confirmation in confirmations:
            confirmation.verify(self.bank_public_key)
        return confirmations

    # -- pay after use (GridCheque) ---------------------------------------------------

    def request_cheque(self, account_id: str, payee_subject: str, amount: Credits) -> GridCheque:
        result = self._client.call(
            "RequestGridCheque",
            account_id=account_id,
            payee_subject=payee_subject,
            amount=amount,
        )
        cheque = GridCheque.from_dict(result["cheque"])
        cheque.verify(self.bank_public_key)
        return cheque

    def redeem_cheque(
        self, cheque: GridCheque, payee_account: str, charge: Credits, rur_blob: bytes = b""
    ) -> dict:
        return self._client.call(
            "RedeemGridCheque",
            cheque=cheque.to_dict(),
            payee_account=payee_account,
            charge=charge,
            rur_blob=rur_blob,
        )

    def redeem_cheque_batch(
        self, items: Sequence[tuple[GridCheque, str, Credits, bytes]]
    ) -> list[dict]:
        return self._client.call(
            "RedeemGridChequeBatch",
            items=[
                {
                    "cheque": cheque.to_dict(),
                    "payee_account": payee_account,
                    "charge": charge,
                    "rur_blob": rur_blob,
                }
                for cheque, payee_account, charge, rur_blob in items
            ],
        )

    def cancel_cheque(self, cheque: GridCheque) -> Credits:
        return self._client.call("CancelGridCheque", cheque=cheque.to_dict())["released"]

    # -- pay as you go (GridHash) ----------------------------------------------------------

    def request_hashchain(
        self,
        account_id: str,
        payee_subject: str,
        length: int,
        link_value: Credits,
    ) -> HashChainWallet:
        """Generate a chain locally and have the bank commit to it."""
        chain = HashChain(length, rng=self._rng)
        result = self._client.call(
            "RequestGridHash",
            account_id=account_id,
            payee_subject=payee_subject,
            root=chain.root,
            length=length,
            link_value=link_value,
        )
        commitment = GridHashCommitment.from_dict(result["commitment"])
        commitment.verify(self.bank_public_key)
        return HashChainWallet(chain, commitment)

    def redeem_hashchain(
        self,
        commitment: GridHashCommitment,
        payee_account: str,
        tick: Optional[PaymentTick],
        rur_blob: bytes = b"",
    ) -> dict:
        return self._client.call(
            "RedeemGridHash",
            commitment=commitment.to_dict(),
            payee_account=payee_account,
            index=tick.index if tick is not None else 0,
            link=tick.link if tick is not None else b"",
            rur_blob=rur_blob,
        )

    # -- misc ------------------------------------------------------------------------------

    def ping(self) -> bool:
        """Cheap liveness probe: a ``BankInfo`` round trip.

        Used as the half-open trial call by circuit-breaker wiring — it is
        read-only, so probing a possibly-broken service has no effects.
        """
        info = self._client.call("BankInfo")
        return info["subject"] == self.bank_subject

    def estimate_price(self, description) -> Credits:
        return self._client.call(
            "EstimatePrice",
            description={
                "cpu_speed_mips": description.cpu_speed_mips,
                "num_processors": description.num_processors,
                "memory_mb": description.memory_mb,
                "storage_gb": description.storage_gb,
                "bandwidth_mbps": description.bandwidth_mbps,
            },
        )["unit_price"]

    # -- admin (sec 5.2.1) ---------------------------------------------------------------------

    def admin_deposit(self, account_id: str, amount: Credits) -> int:
        return self._client.call("Admin.Deposit", account_id=account_id, amount=amount)[
            "transaction_id"
        ]

    def admin_withdraw(self, account_id: str, amount: Credits) -> int:
        return self._client.call("Admin.Withdraw", account_id=account_id, amount=amount)[
            "transaction_id"
        ]

    def admin_change_credit_limit(self, account_id: str, credit_limit: Credits) -> None:
        self._client.call(
            "Admin.ChangeCreditLimit", account_id=account_id, credit_limit=credit_limit
        )

    def admin_cancel_transfer(self, transaction_id: int) -> int:
        return self._client.call("Admin.CancelTransfer", transaction_id=transaction_id)[
            "compensating_transaction_id"
        ]

    def admin_close_account(self, account_id: str, transfer_to: str = "") -> Credits:
        return self._client.call(
            "Admin.CloseAccount", account_id=account_id, transfer_to=transfer_to
        )["outstanding_balance"]

    def close(self) -> None:
        self._client.close()
