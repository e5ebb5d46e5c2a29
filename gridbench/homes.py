"""Bank-home builders: the state each workload starts from.

Homes are built **in-process** through the same ``repro.cli`` entry points
an operator uses (``init``, ``issue-identity``) plus the accounts/admin
layers, once per invocation, as a *template* that every set-up trial then
``copytree``s — so each cold start sees byte-identical storage. Key sizes,
backend and durability are the CLI defaults on purpose.

``aged`` template: 64 drawer + 64 recipient accounts owned by one consumer
subject, then *aged_transfers* prior keyed transfers written through
``GBAccounts.transfer`` + ``ReplyCache.store`` in one transaction each (the
same rows ``RequestDirectTransfer`` commits, minus the RSA signature, which
would cost ~2 ms apiece and whose bytes the server never reads back). Past
10,000 rows the reply cache is at its bound and evicting.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro.bank.cluster import ClusterNode
from repro.bank.shard import ShardMap, ShardNode
from repro.cli import _load_bank, _load_credential, _tcp_connect, main as gridbank
from repro.util.money import Credits

DRAWERS = 64
RECIPIENTS = 64
AGED_TRANSFERS = 12_000
# open_read_mix: a statement scans every TRANSFER row (README, F2); at 5,000 it
# takes ~20 ms, half of the open loop's 40 ms gap, so statements do not meet
OPEN_AGED_TRANSFERS = 5_000
SMOKE_AGED_TRANSFERS = 500
JOB_ACCOUNTS = 16
SHARD_ACCOUNTS = 16
FUNDING = 1_000_000  # credits per drawer: no workload can overdraw

CONSUMER = ("VO-Bench", "consumer")
PROVIDER = ("VO-Bench", "provider")


@dataclass
class Inputs:
    """What a workload needs to know about its template home(s)."""

    homes: dict[str, Path]                      # shard id (or "bank") -> template home
    consumer_cred: Path
    provider_cred: Path
    consumer_subject: str
    provider_subject: str
    drawers: list[str] = field(default_factory=list)
    recipients: list[str] = field(default_factory=list)
    by_shard: dict[str, list[str]] = field(default_factory=dict)
    balances: dict[str, Credits] = field(default_factory=dict)   # start balance per account
    owners: dict[str, str] = field(default_factory=dict)         # account -> "consumer"/"provider"
    deposited: Credits = Credits(0)
    ports: dict[str, int] = field(default_factory=dict)
    shard_map: ShardMap | None = None

    def credentials(self, which: str):
        return _load_credential(str(self.consumer_cred if which == "consumer" else self.provider_cred))


def _quiet(argv: list[str]) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gridbank(argv)
    if code != 0:
        raise RuntimeError(f"gridbank {' '.join(argv)} exited {code}: {out.getvalue()}")


def _init_home(work: Path, name: str, seed: int) -> tuple[Path, Inputs]:
    home = work / name
    _quiet(["init", "--home", str(home), "--seed", str(seed)])
    creds = {}
    for organization, who in (CONSUMER, PROVIDER):
        creds[who] = work / f"{who}.gbk"
        _quiet(["issue-identity", "--home", str(home), "--organization", organization,
                "--name", who, "--out", str(creds[who])])
    inputs = Inputs(
        homes={},
        consumer_cred=creds["consumer"],
        provider_cred=creds["provider"],
        consumer_subject=_load_credential(str(creds["consumer"]))[0].subject,
        provider_subject=_load_credential(str(creds["provider"]))[0].subject,
    )
    return home, inputs


def _open_funded(bank, inputs: Inputs, who: str, count: int, amount: int) -> list[str]:
    subject = inputs.consumer_subject if who == "consumer" else inputs.provider_subject
    accounts = []
    for _ in range(count):
        account = bank.accounts.create_account(subject, organization_name="VO-Bench")
        if amount:
            bank.admin.deposit(account, Credits(amount))
            inputs.deposited = inputs.deposited + Credits(amount)
        inputs.balances[account] = Credits(amount)
        inputs.owners[account] = who
        accounts.append(account)
    return accounts


def build_aged(work: Path, seed: int, aged_transfers: int) -> Inputs:
    """Single-bank template with history (``direct_tcp``, ``open_read_mix``)."""
    home, inputs = _init_home(work, "template-aged", seed)
    bank = _load_bank(home)
    try:
        subject = inputs.consumer_subject
        inputs.drawers = _open_funded(bank, inputs, "consumer", DRAWERS, FUNDING)
        inputs.recipients = _open_funded(bank, inputs, "consumer", RECIPIENTS, 0)
        rng = random.Random(f"{seed}:aging")
        signature = bytes(rng.getrandbits(8) for _ in range(128))  # 1024-bit RSA size
        for index in range(aged_transfers):
            drawer = rng.choice(inputs.drawers)
            recipient = rng.choice(inputs.recipients)
            amount = Credits(rng.randint(1, 5))
            with bank.db.transaction():
                txn_id = bank.accounts.transfer(drawer, recipient, amount)
                confirmation = {
                    "payload": {
                        "confirmation": "DirectTransfer",
                        "transaction_id": txn_id,
                        "drawer_account": drawer,
                        "recipient_account": recipient,
                        "amount": amount,
                        "recipient_address": "",
                        "committed_at": bank.clock.now().epoch,
                    },
                    "signature": signature,
                    "signer": bank.subject,
                }
                bank.replies.store(
                    f"aged{seed}:{index}", subject, "RequestDirectTransfer",
                    {"confirmation": confirmation},
                )
            inputs.balances[drawer] = inputs.balances[drawer] - amount
            inputs.balances[recipient] = inputs.balances[recipient] + amount
    finally:
        bank.db.close()
    inputs.homes = {"bank": home}
    return inputs


def build_fresh(work: Path, seed: int) -> Inputs:
    """Single-bank template without history (``job_cycle``)."""
    home, inputs = _init_home(work, "template-fresh", seed)
    bank = _load_bank(home)
    try:
        inputs.drawers = _open_funded(bank, inputs, "consumer", JOB_ACCOUNTS, FUNDING)
        inputs.recipients = _open_funded(bank, inputs, "provider", 1, 0)
    finally:
        bank.db.close()
    inputs.homes = {"bank": home}
    return inputs


def build_sharded(work: Path, seed: int, ports: dict[str, int]) -> Inputs:
    """Two shard-group templates sharing one bank identity, as in
    ``tools/shard_drill.py``: each home durably installs the same map and
    mints accounts that hash into its own half of the ring."""
    first, inputs = _init_home(work, "template-s1", seed)
    homes = {"s1": first, "s2": work / "template-s2"}
    shutil.copytree(first, homes["s2"])
    addresses = {sid: f"127.0.0.1:{ports[sid]}" for sid in homes}
    shard_map = ShardMap.initial({sid: (addresses[sid],) for sid in homes})
    for sid, home in homes.items():
        bank = _load_bank(home)
        node = ClusterNode(bank, addresses[sid], _tcp_connect)
        shard = ShardNode(node, sid, shard_map=shard_map)
        try:
            inputs.by_shard[sid] = _open_funded(bank, inputs, "consumer", SHARD_ACCOUNTS, FUNDING)
        finally:
            shard.close()
            node.close()
            bank.db.close()
    inputs.homes = homes
    inputs.ports = dict(ports)
    inputs.shard_map = shard_map
    return inputs
