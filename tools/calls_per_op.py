#!/usr/bin/env python3
"""Python calls per keyed in-process bank operation, counted by cProfile.

    python tools/calls_per_op.py

Builds one bank on a ``VirtualClock`` with a 1,024-bit bank key, opens a
drawer and a payee account, and delivers each operation below the way the
RPC server does: a ``RequestContext`` carrying a fresh idempotency key,
made current with ``request_scope``, handed to the registered operation.
After ``WARMUP`` unprofiled calls, ``OPS_COUNT`` calls run under
``cProfile`` and the total call count divided by ``OPS_COUNT`` is printed.
Both are fixed so that readings from different trees compare.

A call count measures the Python work a request does, not the host: it
moves when a change adds or removes a layer, a copy or a check, and it
reads the same on every run of the same tree. The instruments a redeem
or cancel consumes are issued beforehand, outside the profiled window.
"""

from __future__ import annotations

import cProfile
import pstats
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bank.server import GridBankServer  # noqa: E402
from repro.crypto.hashes import HashChain  # noqa: E402
from repro.crypto.rsa import generate_keypair  # noqa: E402
from repro.net.rpc import RequestContext, request_scope  # noqa: E402
from repro.pki.ca import CertificateAuthority  # noqa: E402
from repro.pki.certificate import DistinguishedName  # noqa: E402
from repro.pki.validation import CertificateStore  # noqa: E402
from repro.util.gbtime import VirtualClock  # noqa: E402
from repro.util.money import Credits  # noqa: E402

OPS = (
    "RequestGridCheque",
    "RedeemGridCheque",
    "CancelGridCheque",
    "RequestGridHash",
    "RedeemGridHash",
    "RequestDirectTransfer",
)
CHAIN_LENGTH = 10
OPS_COUNT = 200
WARMUP = 50


class Bench:
    """One bank, two accounts, and a param source per operation."""

    def __init__(self) -> None:
        clock = VirtualClock()
        ca = CertificateAuthority(
            DistinguishedName("GridBank", "Root CA"),
            clock=clock,
            keypair=generate_keypair(bits=512, rng=random.Random(2001)),
        )
        identity = ca.issue_identity(
            DistinguishedName("GridBank", "server"),
            keypair=generate_keypair(bits=1024, rng=random.Random(1001)),
        )
        self.bank = GridBankServer(
            identity, CertificateStore([ca.root_certificate]), clock=clock, rng=random.Random(2)
        )
        self.drawer = "/O=VO-A/CN=alice"
        self.payee = "/O=VO-B/CN=gsp"
        self.drawer_account = self.bank.accounts.create_account(self.drawer)
        self.payee_account = self.bank.accounts.create_account(self.payee)
        self.bank.admin.deposit(self.drawer_account, Credits(10**9))
        self._keys = 0

    def call(self, method: str, subject: str, params: dict):
        self._keys += 1
        context = RequestContext(method=method, subject=subject, idempotency_key=f"calls:{self._keys}")
        with request_scope(context):
            return self.bank.endpoint.operations[method](subject, params)

    def cheque(self) -> dict:
        params = {"account_id": self.drawer_account, "payee_subject": self.payee, "amount": Credits(10)}
        return self.call("RequestGridCheque", self.drawer, params)["cheque"]

    def commitment(self) -> tuple[dict, HashChain]:
        chain = HashChain(CHAIN_LENGTH, rng=random.Random(self._keys))
        params = {
            "account_id": self.drawer_account, "payee_subject": self.payee,
            "root": chain.root, "length": CHAIN_LENGTH, "link_value": Credits(1),
        }
        return self.call("RequestGridHash", self.drawer, params)["commitment"], chain

    def requests(self, method: str, count: int) -> list[tuple[str, dict]]:
        """*count* (subject, params) pairs for *method*, built unprofiled."""
        if method == "RequestGridCheque":
            return [(self.drawer, {"account_id": self.drawer_account, "payee_subject": self.payee,
                                   "amount": Credits(10)}) for _ in range(count)]
        if method == "RedeemGridCheque":
            return [(self.payee, {"cheque": self.cheque(), "payee_account": self.payee_account,
                                  "charge": Credits(7), "rur_blob": b""}) for _ in range(count)]
        if method == "CancelGridCheque":
            return [(self.drawer, {"cheque": self.cheque()}) for _ in range(count)]
        if method == "RequestGridHash":
            root = HashChain(CHAIN_LENGTH, rng=random.Random(7)).root
            return [(self.drawer, {"account_id": self.drawer_account, "payee_subject": self.payee,
                                   "root": root, "length": CHAIN_LENGTH,
                                   "link_value": Credits(1)}) for _ in range(count)]
        if method == "RedeemGridHash":
            out = []
            for _ in range(count):
                commitment, chain = self.commitment()
                out.append((self.payee, {"commitment": commitment, "payee_account": self.payee_account,
                                         "index": 6, "link": chain.link(6), "rur_blob": b""}))
            return out
        if method == "RequestDirectTransfer":
            return [(self.drawer, {"from_account": self.drawer_account, "to_account": self.payee_account,
                                   "amount": Credits(1)}) for _ in range(count)]
        raise ValueError(method)


def calls_per_op(bench: Bench, method: str) -> float:
    requests = bench.requests(method, WARMUP + OPS_COUNT)
    for subject, params in requests[:WARMUP]:
        bench.call(method, subject, params)
    profiler = cProfile.Profile()
    profiler.enable()
    for subject, params in requests[WARMUP:]:
        bench.call(method, subject, params)
    profiler.disable()
    return pstats.Stats(profiler).total_calls / OPS_COUNT


def main() -> int:
    bench = Bench()
    for method in OPS:
        sys.stdout.write(f"{method:<24}{calls_per_op(bench, method):>10.3f}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
