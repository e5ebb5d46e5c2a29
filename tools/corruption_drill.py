#!/usr/bin/env python
"""Corruption drill: seeded bit flips + ``fsck --repair`` round trip.

A CI gate for the storage-integrity promise on a *real* two-node TCP
cluster: a primary streams a transfer storm to a standby, the standby
stops, seeded bit flips damage its WAL on disk, and then

1. ``gridbank fsck`` (read-only) must detect the damage and exit 1 —
   never report a damaged home as clean;
2. booting the damaged home must refuse with a typed corruption error —
   never silently replay garbage into the ledger;
3. ``gridbank fsck --repair --peer`` must restore verified bytes from
   the healthy primary and exit 0;
4. the repaired home must re-verify clean and recover a bank whose
   total funds equal the primary's — conservation across the whole
   damage/repair cycle.

Usage: PYTHONPATH=src python tools/corruption_drill.py  (exit 0 = pass)
"""

import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.bank.node import Node, NodeConfig
from repro.cli import _load_bank, _tcp_connect, main as gridbank
from repro.db import integrity
from repro.net.tcp import TCPServer
from repro.util.money import Credits

SEED = 4242
TRANSFERS = 40


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("replication did not catch up within timeout")


def flip_bits(wal_file: Path, rng: random.Random, flips: int = 3) -> None:
    """Damage the WAL mid-file: seeded random bit flips, re-rolled away
    from newlines so the damage reads as corruption, not a torn tail."""
    data = bytearray(wal_file.read_bytes())
    check(len(data) > 200, f"WAL too small to damage meaningfully ({len(data)}B)")
    for _ in range(flips):
        while True:
            offset = rng.randrange(len(data) // 4, (len(data) * 3) // 4)
            if data[offset] != ord("\n"):
                break
        data[offset] ^= 1 << rng.randrange(8)
    wal_file.write_bytes(bytes(data))


def run_drill(work: Path) -> None:
    rng = random.Random(SEED)
    home_a = work / "bank-a"
    home_b = work / "bank-b"
    check(gridbank(["init", "--home", str(home_a), "--key-bits", "512",
                    "--seed", "7"]) == 0, "init failed")
    # one logical bank, two processes: the standby holds the SAME bank
    # identity (exactly how test_replication builds its cluster)
    shutil.copytree(home_a, home_b)

    bank_a = _load_bank(home_a)
    bank_b = _load_bank(home_b)
    server_a = TCPServer(bank_a.connection_handler)
    server_b = TCPServer(bank_b.connection_handler)
    addr_a = f"{server_a.address[0]}:{server_a.address[1]}"
    addr_b = f"{server_b.address[0]}:{server_b.address[1]}"
    node_a = Node(bank_a, NodeConfig(poll_interval=0.01), _tcp_connect).start(addr_a)
    node_b = Node(bank_b, NodeConfig(poll_interval=0.01), _tcp_connect).start(addr_b)
    try:
        # no resync: the copied home shares the primary's exact position,
        # so every storm record streams through apply_replicated and
        # lands in the standby's own WAL — the bytes this drill damages
        node_b.cluster.follow(addr_a)

        gsc = bank_a.accounts.create_account("/O=VO-A/CN=alice")
        gsp = bank_a.accounts.create_account("/O=VO-B/CN=gsp")
        bank_a.admin.deposit(gsc, Credits(1000))
        for _ in range(TRANSFERS):
            bank_a.accounts.transfer(gsc, gsp, Credits(2))
        wait_until(
            lambda: bank_a.db.replication_position()
            == bank_b.db.replication_position()
        )
        total = bank_a.accounts.total_bank_funds()
        check(bank_b.accounts.total_bank_funds() == total,
              "standby books diverged before the drill even started")
    finally:
        server_b.close()
        node_b.close()

    # -- the standby is down; its cold bytes rot ---------------------------
    wal_file = home_b / "db" / integrity.WAL_NAME
    flip_bits(wal_file, rng)

    try:
        code = gridbank(["fsck", "--home", str(home_b)])
        check(code == 1, f"fsck must detect the damage (exit {code})")

        code = gridbank(["balance", "--home", str(home_b), "--account", gsc])
        check(code == 1, "a damaged home must refuse to serve, not replay garbage")
        check(integrity.read_marker(home_b / "db") is not None,
              "the refused boot must leave a corruption marker")

        code = gridbank(["fsck", "--home", str(home_b), "--repair",
                         "--peer", addr_a])
        check(code == 0, f"fsck --repair failed (exit {code})")

        report = integrity.verify_dir(home_b / "db")
        check(report.ok, f"repaired home fails re-verification: {report.describe()}")
        check(not (home_b / "db" / integrity.MARKER_NAME).exists(),
              "repair must clear the corruption marker")
        check((home_b / "db" / integrity.QUARANTINE_NAME).exists(),
              "the quarantined suffix must be preserved for forensics")

        repaired = _load_bank(home_b)
        try:
            check(repaired.accounts.total_bank_funds() == total,
                  f"conservation broken: primary holds {total}, "
                  f"repaired standby {repaired.accounts.total_bank_funds()}")
            check(repaired.accounts.available_balance(gsp)
                  == Credits(2 * TRANSFERS),
                  "transfer history did not survive the repair")
        finally:
            repaired.db.close()
    finally:
        server_a.close()
        node_a.close()

    sys.stdout.write(
        f"corruption-drill: PASS — damage detected, boot refused, "
        f"repaired from {addr_a}, {total} conserved\n"
    )


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="gridbank-corruption-drill-"))
    try:
        run_drill(work)
        return 0
    except AssertionError as exc:
        sys.stderr.write(f"corruption-drill: FAIL — {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
