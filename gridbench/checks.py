"""The correctness gate every gridbench run ends with.

Runs **after** the servers were ``SIGKILL``ed and restarted on the same
homes, through the same client surface the workload used — so every read
also proves an acknowledged write survived the crash. ``kill -9`` keeps the
OS page cache, so this is process-crash durability, not power-loss
durability.

1. every account's balance equals its start ± the transfers the bank
   acknowledged (accounts touched by a failed write may differ by that
   write only in the sense that they are excused from the equality, never
   from conservation);
2. Σ balances (available + locked, + nothing left in prepared intents on
   ``shard_cross`` after resolving) equals Σ deposits;
3. a seeded sample of confirmations / redeemed cheques verifies against
   the bank certificate, itself validated against the trust root on disk.
"""

from __future__ import annotations

from repro.cli import _bank_credential
from repro.crypto.signature import Signed
from repro.errors import ReproError
from repro.pki.validation import validate_chain
from repro.util.gbtime import SystemClock
from repro.util.money import Credits

import workloads


def _read_accounts(workload, inputs, servers) -> dict[str, dict]:
    addresses = {sid: server.address for sid, server in servers.items()}
    rows: dict[str, dict] = {}
    if inputs.shard_map is not None:
        workload.connect(inputs, addresses, seed=0)  # a fresh router on the restarted fleet
        try:
            for account in inputs.owners:
                rows[account] = workload.router.call("RequestAccountDetails", account_id=account)
        finally:
            workload.close()
        return rows
    for who in sorted(set(inputs.owners.values())):
        api = workloads.open_api(workload.dial, addresses["bank"], *inputs.credentials(who))
        try:
            for account, owner in inputs.owners.items():
                if owner == who:
                    rows[account] = api.account_details(account)
        finally:
            api.close()
    return rows


def verify(workload, inputs, servers, warm, tally) -> list[str]:
    problems: list[str] = []
    try:
        rows = _read_accounts(workload, inputs, servers)
    except ReproError as exc:
        return [f"could not read accounts back after kill/restart: {type(exc).__name__}: {exc}"]

    uncertain = warm.uncertain | tally.uncertain
    total = Credits(0)
    for account, start in inputs.balances.items():
        row = rows[account]
        held = Credits(row["AvailableBalance"]) + Credits(row["LockedBalance"])
        total = total + held
        expected = start + warm.deltas.get(account, Credits(0)) + tally.deltas.get(account, Credits(0))
        if account not in uncertain and held != expected:
            problems.append(f"{account}: balance {held} after restart, acknowledged history says {expected}")
    if inputs.shard_map is not None:
        addresses = {sid: server.address for sid, server in servers.items()}
        pending = workload.pending_intents(inputs, addresses)
        if pending:
            problems.append(f"{pending} cross-shard intent(s) still prepared after Shard.Resolve")
    if total != inputs.deposited:
        problems.append(f"conservation broken: {inputs.deposited} deposited, {total} on the books")

    # the bank's own certificate must chain to the root the clients trust
    identity, store = _bank_credential(next(iter(inputs.homes.values())))
    try:
        validate_chain([identity.certificate], store, SystemClock().now())
    except ReproError as exc:
        problems.append(f"bank certificate does not validate: {exc}")
    bank_key = identity.certificate.public_key()
    for kind, signed in warm.samples + tally.samples:
        if not Signed.from_dict(signed).check(bank_key):
            problems.append(f"sampled {kind} does not verify against the bank certificate")
    return problems
