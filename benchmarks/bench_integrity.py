"""ROBUST — the framed write path, and scrub throughput.

Two scenarios. The first times a settled-transfer storm against a
persistent bank: every committed line pays one CRC32 plus a ~20-byte
header, and there is no unframed mode to compare against (the control
arm was removed with the legacy readers), so what holds the cost down is
the trajectory gate on this scenario's ops/s. The second measures the
scrubber's full re-verification pass (snapshot manifest + every WAL
frame + payload decode) in records/s, the number that sizes how often a
node can afford to re-check its cold bytes, and holds it above a floor.
Both land in the metrics sidecar (``bench.integrity.framed_ops``,
``bench.integrity.scrub_records_per_s``).
"""

import random
import time

import pytest

from repro.bank.server import GridBankServer
from repro.db.database import Database
from repro.obs import metrics as obs_metrics
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.validation import CertificateStore
from repro.util.gbtime import VirtualClock
from repro.util.money import Credits

TRANSFERS = 150
FUNDS = 1_000_000.0
SCRUB_FLOOR_RECORDS_PER_S = 500.0


def build_bank(tmp, seed: int):
    """A persistent bank with one funded account pair, driven directly
    (no network) so the WAL write path dominates what we time."""
    clock = VirtualClock()
    ca = CertificateAuthority(
        DistinguishedName("GridBank", "Root CA"), clock=clock,
        rng=random.Random(seed), key_bits=512,
    )
    store = CertificateStore([ca.root_certificate])
    ident = ca.issue_identity(DistinguishedName("GridBank", "server"), key_bits=512)
    db = Database(path=tmp)
    bank = GridBankServer(ident, store, db=db, clock=clock, rng=random.Random(seed + 1))
    bank.recover()
    gsc = bank.accounts.create_account("/O=VO-A/CN=alice")
    gsp = bank.accounts.create_account("/O=VO-B/CN=gsp")
    bank.admin.deposit(gsc, Credits(FUNDS))
    return bank, gsc, gsp


def transfer_storm(bank, gsc, gsp) -> float:
    start = time.perf_counter()
    for _ in range(TRANSFERS):
        bank.accounts.transfer(gsc, gsp, Credits(1))
    return TRANSFERS / (time.perf_counter() - start)


def test_integrity_framed_transfer_storm(benchmark, tmp_path):
    """Settled transfers/s with CRC+length framing on every WAL line."""

    rounds = iter(range(100))

    def fresh_bank():  # untimed: keygen and account setup are not the WAL
        return build_bank(tmp_path / f"framed-{next(rounds)}", 501), {}

    def storm(bank, gsc, gsp):
        try:
            return transfer_storm(bank, gsc, gsp)
        finally:
            bank.db.close()

    framed = benchmark.pedantic(storm, setup=fresh_bank, rounds=3, iterations=1)
    obs_metrics.gauge("bench.integrity.framed_ops").set(framed)


def test_integrity_scrub_throughput(benchmark, tmp_path):
    """A full verification pass sustains a usable records/s rate."""

    rounds = iter(range(100))

    def scrub_pass():
        bank, gsc, gsp = build_bank(tmp_path / f"scrub-{next(rounds)}", 601)
        try:
            for _ in range(TRANSFERS):
                bank.accounts.transfer(gsc, gsp, Credits(1))
            start = time.perf_counter()
            report = bank.db.scrub_once()
            elapsed = time.perf_counter() - start
            assert report.ok
            records = report.wal_records + max(report.snapshot_records, 0)
            return records / elapsed
        finally:
            bank.db.close()

    rate = benchmark.pedantic(scrub_pass, rounds=2, iterations=1)
    obs_metrics.gauge("bench.integrity.scrub_records_per_s").set(rate)
    assert rate > SCRUB_FLOOR_RECORDS_PER_S, (
        f"scrub verified only {rate:.0f} records/s "
        f"(floor {SCRUB_FLOOR_RECORDS_PER_S:.0f})"
    )
