"""GridCoin — a NetCash-style bearer-token scheme, added as a *fourth*
payment protocol.

This module exists to demonstrate the paper's layering claim (sec 3.2):
"Any other payment scheme that defines its own data structures and
communication protocol can be added without need to modify GB Accounts or
GB Security modules." GridCoin is the shared instrument lifecycle
(lock at mint, transfer-from-locked at redemption, unlock at refund) plus
a count and a bearer rule — zero changes anywhere else; the server wires
it in by registering three more operations.

Semantics (after NetCash [Medvinsky & Neuman 1993], which the paper
cites as its scalability model): a coin is a bank-signed bearer note of
fixed value. Unlike cheques it names no payee — whoever presents it first
redeems it; the registry's double-spend defence makes the *second*
presenter lose. Coins may change hands offline any number of times.
"""

from __future__ import annotations

from repro.errors import InstrumentError
from repro.payments.instruments import Instrument, InstrumentProtocol, require_amount
from repro.util.money import Credits

__all__ = ["GridCoin", "GridCoinProtocol"]

COIN_LIFETIME = 30 * 24 * 3600.0


class GridCoin(Instrument):
    """A bearer note: whoever holds it may redeem it (once)."""

    kind = "GridCoin"

    @property
    def coin_id(self) -> str:
        return self.payload["id"]

    @property
    def value(self) -> Credits:
        return self.payload["amount_limit"]


class GridCoinProtocol(InstrumentProtocol):
    """Server-side GridCoin module — pure Payment Protocol Layer code."""

    instrument = GridCoin
    prefix = "coin"
    noun = "coin"
    lifetime = COIN_LIFETIME
    bearer = True

    def mint(self, drawer_subject: str, drawer_account: str, value: Credits,
             count: int = 1) -> list[GridCoin]:
        """Mint *count* coins of *value* each, pre-debiting the drawer.

        The backing funds move to the locked balance until redemption —
        bearer notes are fully guaranteed, like hash chains (sec 3.4).
        """
        value = require_amount(value, "coin value")
        if not isinstance(count, int) or count < 1:
            raise InstrumentError("coin count must be a positive int")
        # a bearer note names neither its drawer's subject nor a payee
        return self._issue(drawer_subject, drawer_account, "", value, {}, count)

    def redeem(self, redeemer_subject: str, coin: GridCoin, payee_account: str,
               rur_blob: bytes = b"") -> dict:
        """First presenter wins; the coin's full value settles to them."""
        settlement = self._settle(redeemer_subject, coin, payee_account, None, rur_blob)
        return {
            "coin_id": settlement.instrument_id,
            "transaction_id": settlement.transaction_id,
            "paid": settlement.paid,
        }

    def _claim(self, payload: dict, limit: Credits, claim: None) -> tuple[Credits, int]:
        return limit, 0

    def refund(self, drawer_subject: str, coin: GridCoin) -> Credits:
        """The drawer reclaims an unspent coin it still holds."""
        payload = coin.verify(self._public)
        drawer = self.accounts.get_account(payload["drawer_account"])
        if drawer["CertificateName"] != drawer_subject:
            raise InstrumentError("only the original drawer may refund a coin")
        return self._release(payload)


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
