"""GridCoin — a NetCash-style bearer-token scheme, added as a *fourth*
payment protocol.

This module exists to demonstrate the paper's layering claim (sec 3.2):
"Any other payment scheme that defines its own data structures and
communication protocol can be added without need to modify GB Accounts or
GB Security modules." GridCoin is built exclusively on the public
GBAccounts API (lock at mint, transfer-from-locked at redemption) and the
shared instrument registry — zero changes anywhere else; the server wires
it in by registering three more operations.

Semantics (after NetCash [Medvinsky & Neuman 1993], which the paper
cites as its scalability model): a coin is a bank-signed bearer note of
fixed value. Unlike cheques it names no payee — whoever presents it first
redeems it; the registry's double-spend defence makes the *second*
presenter lose. Coins may change hands offline any number of times.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bank.accounts import GBAccounts
from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.crypto.signature import Signed
from repro.errors import InstrumentError
from repro.payments.instruments import (
    InstrumentRegistry,
    require_amount,
    require_not_expired,
    verify_instrument,
)
from repro.util.gbtime import Clock
from repro.util.money import Credits

__all__ = ["GridCoin", "GridCoinProtocol"]

INSTRUMENT_TYPE = "GridCoin"
DEFAULT_COIN_LIFETIME = 30 * 24 * 3600.0


@dataclass(frozen=True)
class GridCoin:
    """A bearer note: whoever holds it may redeem it (once)."""

    signed: Signed

    @property
    def payload(self) -> dict:
        return self.signed.payload

    @property
    def coin_id(self) -> str:
        return self.payload["id"]

    @property
    def value(self) -> Credits:
        return self.payload["amount_limit"]

    def verify(self, bank_key: RSAPublicKey) -> dict:
        return verify_instrument(self.signed, bank_key, INSTRUMENT_TYPE)

    def to_dict(self) -> dict:
        return self.signed.to_dict()

    @classmethod
    def from_dict(cls, data: dict) -> "GridCoin":
        return cls(signed=Signed.from_dict(data))


class GridCoinProtocol:
    """Server-side GridCoin module — pure Payment Protocol Layer code."""

    def __init__(
        self,
        accounts: GBAccounts,
        registry: InstrumentRegistry,
        bank_private_key: RSAPrivateKey,
        bank_subject: str,
        clock: Clock,
        lifetime_seconds: float = DEFAULT_COIN_LIFETIME,
    ) -> None:
        self.accounts = accounts
        self.registry = registry
        self._key = bank_private_key
        self._subject = bank_subject
        self.clock = clock
        self.lifetime = lifetime_seconds

    def mint(self, drawer_subject: str, drawer_account: str, value: Credits,
             count: int = 1) -> list[GridCoin]:
        """Mint *count* coins of *value* each, pre-debiting the drawer.

        The backing funds move to the locked balance until redemption —
        bearer notes are fully guaranteed, like hash chains (sec 3.4).
        """
        value = require_amount(value, "coin value")
        if not isinstance(count, int) or count < 1:
            raise InstrumentError("coin count must be a positive int")
        account = self.accounts.require_open(drawer_account)
        if account["CertificateName"] != drawer_subject:
            raise InstrumentError("coin drawer does not own the account")
        coins = []
        with self.accounts.db.transaction():
            self.accounts.lock_funds(drawer_account, value * count)
            now = self.clock.now().epoch
            for _ in range(count):
                coin_id = self.registry.new_id("coin")
                payload = {
                    "instrument": INSTRUMENT_TYPE,
                    "id": coin_id,
                    "drawer_account": drawer_account,
                    "payee_subject": "",  # bearer note: no payee
                    "amount_limit": value,
                    "currency": account["Currency"],
                    "issued_at": now,
                    "expires_at": now + self.lifetime,
                }
                self.registry.register(coin_id, INSTRUMENT_TYPE, drawer_account, "", value)
                coins.append(GridCoin(signed=Signed.make(self._key, payload, signer=self._subject)))
        return coins

    def redeem(self, redeemer_subject: str, coin: GridCoin, payee_account: str,
               rur_blob: bytes = b"") -> dict:
        """First presenter wins; the coin's full value settles to them."""
        payload = coin.verify(self._key.public_key())
        require_not_expired(payload, self.clock)
        payee_row = self.accounts.require_open(payee_account)
        if payee_row["CertificateName"] != redeemer_subject:
            raise InstrumentError("payee account is not owned by the redeemer")
        value = Credits(payload["amount_limit"])
        with self.accounts.db.transaction():
            self.registry.require_issued(payload["id"])
            txn_id = self.accounts.transfer_from_locked(
                payload["drawer_account"], payee_account, value, rur_blob=rur_blob
            )
            self.registry.mark_redeemed(payload["id"])
        return {"coin_id": payload["id"], "transaction_id": txn_id, "paid": value}

    def refund(self, drawer_subject: str, coin: GridCoin) -> Credits:
        """The drawer reclaims an unspent coin it still holds."""
        payload = coin.verify(self._key.public_key())
        drawer = self.accounts.get_account(payload["drawer_account"])
        if drawer["CertificateName"] != drawer_subject:
            raise InstrumentError("only the original drawer may refund a coin")
        with self.accounts.db.transaction():
            self.registry.require_issued(payload["id"])
            value = Credits(payload["amount_limit"])
            self.accounts.unlock_funds(payload["drawer_account"], value)
            self.registry.mark_cancelled(payload["id"])
            return value


def install(server) -> GridCoinProtocol:
    """Wire GridCoin into an existing :class:`GridBankServer` instance.

    This is the whole integration — three rows in the server's op table.
    Nothing in GB Accounts, GB Security, or the other protocol modules
    changes, and the rows get what every write gets: the shard guard,
    primary-only service, exactly-once replay of a re-sent idempotency
    key, the ``standing`` access check, account stripes, usage metering
    (a redemption reports the coin's value as currency moved) and
    ``bank.op.*`` instruments.
    """
    protocol = GridCoinProtocol(
        server.accounts, server.registry, server.identity.private_key,
        server.subject, server.clock,
    )

    def op_mint_coins(subject: str, params: dict):
        count = params.get("count", 1)
        coins = protocol.mint(subject, params["account_id"], params["value"], count=count)
        return {"coins": [coin.to_dict() for coin in coins]}

    def op_redeem_coin(subject: str, params: dict):
        return protocol.redeem(
            subject,
            GridCoin.from_dict(params["coin"]),
            params["payee_account"],
            rur_blob=params.get("rur_blob", b""),
        )

    def op_refund_coin(subject: str, params: dict):
        return {"refunded": protocol.refund(subject, GridCoin.from_dict(params["coin"]))}

    # a coin's wire dict carries its drawer account like a cheque's does;
    # a redemption adds the payee account from the request
    coin_accounts = server._instrument_accounts("coin")
    mint_accounts = server._param_accounts("account_id")
    server.register(
        "MintGridCoins", op_mint_coins, mint_accounts, access="standing", kind="write"
    )
    server.register(
        "RedeemGridCoin", op_redeem_coin, coin_accounts, access="standing", kind="write",
        moved=lambda params, result: result["paid"],
    )
    server.register(
        "RefundGridCoin", op_refund_coin, coin_accounts, access="standing", kind="write"
    )
    return protocol
