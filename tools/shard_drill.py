#!/usr/bin/env python
"""Shard drill: a live split under a cross-shard transfer storm.

A CI gate for the sharding promise on *real* TCP: two shard groups of
one logical bank serve a seeded transfer storm (local + cross-shard 2PC
mix) while, mid-storm, half of s1's hash ranges are split off to a
third, initially empty shard group — epoch-fenced rebalancing with
clients still writing. After the storm:

1. **conservation** — Σ owned balances + Σ prepared reservations across
   the whole fleet equals the total deposited; a 2PC that lost or minted
   a credit fails here no matter which side dropped it;
2. **exactly-once** — every confirmation handed to a client maps to
   exactly one committed transfer intent, and no intent committed twice,
   across the coordinator retries and WrongShardError bounces the split
   storm produces;
3. **fencing** — every shard ends on the post-split map version, the old
   owner holds none of the moved accounts, the new owner serves them;
4. the ``gridbank shard-status`` CLI answers for every group with the
   same picture the asserts verified.

Usage: PYTHONPATH=src python tools/shard_drill.py  (exit 0 = pass)
"""

import contextlib
import io
import json
import random
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.bank.cluster import cluster_client
from repro.bank.node import Node, NodeConfig
from repro.bank.shard import (
    RING_SIZE,
    ShardMap,
    ShardRouter,
    sharded_total_funds,
    split_shard,
)
from repro.cli import (
    _bank_credential,
    _load_bank,
    _load_credential,
    _tcp_connect,
    main as gridbank,
)
from repro.errors import ReproError, SettlementError
from repro.net.tcp import TCPServer
from repro.payments.direct import TransferConfirmation
from repro.pki.certificate import DistinguishedName
from repro.util.money import Credits

SEED = 31337
ACCOUNTS_PER_SHARD = 6
DRIVERS = 3
TRANSFERS_PER_DRIVER = 15
CROSS_MIX = 0.4
ADMIN_SUBJECT = str(DistinguishedName("VO-Drill", "admin"))


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def run_drill(work: Path) -> None:
    home_s1 = work / "shard-s1"
    check(gridbank(["init", "--home", str(home_s1), "--key-bits", "512",
                    "--seed", str(SEED)]) == 0, "init failed")
    # one logical bank, three shard groups: every group holds the SAME
    # bank identity, so inter-shard 2PC RPCs authorize as the cluster
    # and confirmations verify regardless of which coordinator signed
    home_s2 = work / "shard-s2"
    home_s3 = work / "shard-s3"
    shutil.copytree(home_s1, home_s2)
    shutil.copytree(home_s1, home_s3)
    admin_file = work / "admin.gbk"
    check(gridbank(["issue-identity", "--home", str(home_s1),
                    "--organization", "VO-Drill", "--name", "admin",
                    "--out", str(admin_file), "--key-bits", "512"]) == 0,
          "issue-identity failed")

    banks = {sid: _load_bank(work / f"shard-{sid}") for sid in ("s1", "s2", "s3")}
    servers = {sid: TCPServer(bank.connection_handler) for sid, bank in banks.items()}
    addrs = {sid: f"{srv.address[0]}:{srv.address[1]}" for sid, srv in servers.items()}
    # s3 starts as a declared zero-range member: booted, serving, owning
    # nothing — the live split moves ranges onto it while clients write
    shard_map = ShardMap(
        1,
        {sid: (addrs[sid],) for sid in ("s1", "s2", "s3")},
        [(0, RING_SIZE // 2, "s1"), (RING_SIZE // 2, RING_SIZE, "s2")],
    )
    nodes = {}
    try:
        for sid, bank in banks.items():
            bank.admin.add_administrator(ADMIN_SUBJECT)
            # no background resolver: the drill drives intents home itself
            config = NodeConfig(poll_interval=0.05, shard_id=sid, shard_map=shard_map,
                                resolve_interval=None)
            nodes[sid] = Node(bank, config, _tcp_connect).start(addrs[sid])
        shards = {sid: node.shard for sid, node in nodes.items()}

        accounts = {"s1": [], "s2": []}
        for sid in ("s1", "s2"):
            for _ in range(ACCOUNTS_PER_SHARD):
                account = banks[sid].accounts.create_account(ADMIN_SUBJECT)
                banks[sid].admin.deposit(account, Credits(1_000))
                accounts[sid].append(account)
        primaries = list(shards.values())
        initial_total = sharded_total_funds(primaries)

        admin_ident, store = _load_credential(str(admin_file))
        confirmed: list[dict] = []
        pending_count = [0]
        bookkeeping = threading.Lock()

        def driver(index: int) -> None:
            rng = random.Random(SEED * 101 + index)
            router = ShardRouter(
                admin_ident, store, _tcp_connect, shard_map,
                rng=random.Random(SEED * 103 + index), max_bounces=24,
            )
            try:
                for _ in range(TRANSFERS_PER_DRIVER):
                    frm = rng.choice(accounts["s1"])
                    if rng.random() < CROSS_MIX:
                        to = rng.choice(accounts["s2"])
                    else:
                        to = rng.choice([a for a in accounts["s1"] if a != frm])
                    try:
                        result = router.transfer(frm, to, Credits(3))
                    except (SettlementError, ReproError):
                        # parked (funds reserved under a prepared intent)
                        # or bounced out of budget — NEVER re-call: a new
                        # call is a new idempotency key, a second transfer
                        with bookkeeping:
                            pending_count[0] += 1
                        continue
                    payload = TransferConfirmation.from_dict(
                        result["confirmation"]
                    ).payload
                    with bookkeeping:
                        confirmed.append(payload)
            finally:
                router.close()

        threads = [threading.Thread(target=driver, args=(i,)) for i in range(DRIVERS)]
        for thread in threads:
            thread.start()

        # -- mid-storm: split half of s1's ranges onto the empty s3 -------
        time.sleep(0.2)
        bank_ident, bank_store = _bank_credential(home_s1)
        clients = {
            sid: cluster_client(bank_ident, bank_store, _tcp_connect, (addrs[sid],))
            for sid in ("s1", "s2", "s3")
        }
        try:
            for attempt in range(10):
                try:
                    new_map = split_shard(clients, shard_map, "s1", "s3")
                    break
                except (SettlementError, ReproError):
                    if attempt == 9:
                        raise
                    time.sleep(0.1)
        finally:
            for client in clients.values():
                client.close()

        for thread in threads:
            thread.join(timeout=60)
        check(not any(t.is_alive() for t in threads), "storm drivers hung")

        # -- quiesce: every coordinator drives surviving intents home ----
        for shard in primaries:
            for _ in range(40):
                if (shard.resolve_pending()["pending"] == 0
                        and not shard.pending_intents()):
                    break
                time.sleep(0.05)
            check(not shard.pending_intents(),
                  f"{shard.shard_id}: intents stuck in prepared after the storm")

        # 1. conservation across the whole fleet
        final_total = sharded_total_funds(primaries)
        check(final_total == initial_total,
              f"conservation broken: {initial_total} deposited, "
              f"{final_total} on the books")

        # 2. exactly-once: one committed intent per confirmation, none twice
        committed = {}
        for sid, bank in banks.items():
            for row in bank.db.select("xfer_intents"):
                check(row["State"] in ("committed", "aborted"),
                      f"{sid}: non-terminal intent {row['IntentID']}")
                if row["State"] == "committed":
                    check(row["IntentID"] not in committed,
                          f"intent {row['IntentID']} committed on two shards")
                    committed[row["IntentID"]] = sid
        cross = [p for p in confirmed if p.get("cross_shard")]
        for payload in cross:
            check(payload["intent_id"] in committed,
                  f"confirmed transfer {payload['intent_id']} has no committed intent")

        # 3. fencing: everyone on the split map; moved accounts moved
        for sid, shard in shards.items():
            installed = shard.installed_map()
            check(installed is not None and installed.version == new_map.version,
                  f"{sid}: still on map v{installed and installed.version}")
        moved = [a for a in accounts["s1"] if new_map.shard_for(a) == "s3"]
        for account in moved:
            check(banks["s1"].db.find("accounts", (account,)) is None,
                  f"{account} still on s1 after the split")
            check(banks["s3"].db.find("accounts", (account,)) is not None,
                  f"{account} missing from s3 after the split")

        # 4. the operator CLI sees the same picture
        for sid in ("s1", "s2", "s3"):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = gridbank(["shard-status", "--credential", str(admin_file),
                                 "--address", addrs[sid]])
            check(code == 0, f"gridbank shard-status {sid} exited {code}")
            status = json.loads(stdout.getvalue())
            check(status["shard"] == sid and status["map_version"] == new_map.version,
                  f"shard-status {sid} reports {status.get('shard')}"
                  f"@v{status.get('map_version')}")
            check(status["prepared_intents"] == 0,
                  f"shard-status {sid} shows unresolved intents")

        sys.stdout.write(
            f"shard-drill: PASS — {len(confirmed)} transfers confirmed "
            f"({len(cross)} cross-shard, {pending_count[0]} parked+resolved), "
            f"split s1→s3 mid-storm ({len(moved)} accounts moved, map "
            f"v{new_map.version}), {initial_total} conserved\n"
        )
    finally:
        for server in servers.values():
            server.close()
        for node in reversed(list(nodes.values())):
            node.close()


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="gridbank-shard-drill-"))
    try:
        run_drill(work)
        return 0
    except AssertionError as exc:
        sys.stderr.write(f"shard-drill: FAIL — {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
