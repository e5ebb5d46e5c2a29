"""Per-principal usage metering: accumulation, rollup, and the ring.

The meter folds every principal's consumption of the bank (ops, wire
bytes, latency, GridCurrency) into live accumulators and, once per
period, into one line per principal of a segment ring beside the
database — telemetry, not ledger. These tests pin the period gating
under a VirtualClock, the line shape, what a rolled period survives, the
ring's bound, and that each node — a standby included — meters what it
served and nothing of the cluster's own plumbing.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.net.rpc import RPCClient
from repro.obs import metrics as obs_metrics
from repro.obs import store as obs_store
from repro.obs import usage as obs_usage
from repro.obs.usage import UsageMeter, hot_operations
from repro.util.gbtime import VirtualClock
from tests.conftest import deliver_keyed
from tests.test_replication import B, wait_caught_up, world  # noqa: F401 - primary + standby

ALICE = "O=VO-A, CN=alice"
BOB = "O=VO-B, CN=bob"
PERIOD = 10.0


@pytest.fixture(autouse=True)
def short_period(monkeypatch):
    """Ten-second periods, set before any meter (or world) is built."""
    monkeypatch.setattr(obs_usage, "PERIOD_SECONDS", PERIOD)


@pytest.fixture()
def clock():
    return VirtualClock(start=10_000.0)


def lines_in(directory: Path) -> list[dict]:
    """Every rollup line on disk under *directory*, oldest segment first."""
    return [
        json.loads(line)
        for segment in sorted(directory.iterdir())
        for line in segment.read_text().splitlines()
    ]


class TestAccumulation:
    def test_meter_writes_nothing_until_a_rollup(self, clock, tmp_path):
        directory = tmp_path / "usage" / "db"
        meter = UsageMeter(clock, directory)
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1)
        assert not directory.exists()
        assert meter.maybe_rollup(force=True) == 1
        assert [line["principal"] for line in lines_in(directory)] == [ALICE]

    def test_live_accumulators_fold_ops_and_bytes(self, clock):
        meter = UsageMeter(clock)
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1,
                        currency_moved=50.0)
        meter.record_op(ALICE, "direct_transfer", ok=False, latency_seconds=0.3)
        meter.record_bytes(ALICE, 100, 200)
        snap = meter.snapshot()
        assert snap["live_principals"] == 1
        assert snap["rollup_lines"] == 0
        (top,) = snap["top"]
        assert top["principal"] == ALICE
        assert top["ops"] == 2
        assert top["errors"] == 1
        assert top["bytes_in"] == 100
        assert top["bytes_out"] == 200
        assert top["latency_seconds"] == pytest.approx(0.4)
        assert top["currency_moved"] == pytest.approx(50.0)

    def test_live_principals_cap_overflows_to_other(self, clock, monkeypatch):
        obs_metrics.reset()
        monkeypatch.setattr(obs_usage, "MAX_LIVE_PRINCIPALS", 2)
        meter = UsageMeter(clock)
        meter.record_op(ALICE, "a", ok=True, latency_seconds=0.0)
        meter.record_op(BOB, "a", ok=True, latency_seconds=0.0)
        meter.record_op("O=VO-C, CN=carol", "a", ok=True, latency_seconds=0.0)
        principals = {e["principal"] for e in meter.top_principals(10)}
        assert principals == {ALICE, BOB, "(other)"}
        counters = obs_metrics.snapshot()["counters"]
        assert counters["usage.principals_capped"] == 1


class TestRollup:
    def test_rollup_waits_for_the_period_to_complete(self, clock):
        meter = UsageMeter(clock)
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1)
        assert meter.maybe_rollup() == 0
        assert meter.snapshot()["rollup_lines"] == 0
        clock.advance(PERIOD + 1)
        assert meter.maybe_rollup() == 1
        assert meter.snapshot()["rollup_lines"] == 1

    def test_record_path_triggers_due_rollup(self, clock):
        meter = UsageMeter(clock)
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1)
        clock.advance(PERIOD + 1)
        # the next record both rolls the old period and starts the new one
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1)
        assert meter.snapshot()["rollup_lines"] == 1
        assert meter.snapshot()["live_principals"] == 1

    def test_rollup_line_carries_sums_and_opcounts(self, clock, tmp_path):
        meter = UsageMeter(clock, tmp_path)
        period_start = meter.snapshot()["period_start"]
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.25,
                        currency_moved=75.0)
        meter.record_op(ALICE, "account_statement", ok=False, latency_seconds=0.05)
        meter.record_bytes(ALICE, 1_000_000, 2_000_000)
        clock.advance(PERIOD * 1.5)
        assert meter.maybe_rollup() == 1
        (line,) = lines_in(tmp_path)
        assert line == {
            "principal": ALICE,
            "period_start": period_start,
            "period_end": clock.epoch(),
            "ops": 2,
            "errors": 1,
            "bytes_in": 1_000_000,
            "bytes_out": 2_000_000,
            "latency_seconds": pytest.approx(0.30),
            "currency_moved": pytest.approx(75.0),
            "op_counts": {"direct_transfer": 1, "account_statement": 1},
        }

    def test_a_rollup_line_is_never_clipped(self, clock, tmp_path):
        """The span encoder sheds everything but identity past 4,096 bytes;
        a rollup line is not a span, and keeps its sums at any length."""
        meter = UsageMeter(clock, tmp_path)
        for i in range(200):
            meter.record_op(ALICE, f"extension_operation_{i:04d}", ok=True,
                            latency_seconds=0.01, currency_moved=1.0)
        meter.maybe_rollup(force=True)
        [segment] = tmp_path.iterdir()
        assert len(segment.read_bytes()) > obs_store.MAX_LINE_BYTES
        (line,) = lines_in(tmp_path)
        assert line["ops"] == 200 and line["currency_moved"] == pytest.approx(200.0)
        assert len(line["op_counts"]) == 200
        assert UsageMeter(clock, tmp_path).top_principals(1)[0]["ops"] == 200

    def test_force_rollup_flushes_a_partial_period(self, clock):
        meter = UsageMeter(clock)
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1)
        assert meter.maybe_rollup(force=True) == 1
        assert meter.snapshot()["rollup_lines"] == 1
        assert meter.maybe_rollup(force=True) == 0  # nothing live: no line

    def test_same_period_collision_merges_not_errors(self, clock, tmp_path):
        """A restart inside one period (``serve`` rolls the partial period
        on the way out, the next process rolls the rest) leaves two lines
        for one (principal, period); the read side folds them."""
        meter = UsageMeter(clock, tmp_path)
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1,
                        currency_moved=10.0)
        assert meter.maybe_rollup(force=True) == 1
        other = UsageMeter(VirtualClock(start=10_000.0), tmp_path)
        other.record_op(ALICE, "direct_transfer", ok=False, latency_seconds=0.2,
                        currency_moved=5.0)
        other.record_op(ALICE, "redeem_cheque", ok=True, latency_seconds=0.1)
        assert other.maybe_rollup(force=True) == 1
        assert len({line["period_start"] for line in lines_in(tmp_path)}) == 1
        (alice,) = UsageMeter(clock, tmp_path).top_principals(5)
        assert alice["ops"] == 3
        assert alice["errors"] == 1
        assert alice["currency_moved"] == pytest.approx(15.0)
        assert alice["latency_seconds"] == pytest.approx(0.4)

    def test_eviction_drops_oldest_periods_past_max_rows(self, clock, tmp_path, monkeypatch):
        """At the ring bound the oldest segment goes whole — and is not a
        dropped *span*: ``obs.spans_dropped`` does not move."""
        monkeypatch.setattr(obs_store, "SEGMENT_RECORDS", 1)
        monkeypatch.setattr(obs_store, "MAX_SEGMENTS", 2)
        dropped = obs_metrics.counter("obs.spans_dropped")
        before = dropped.value
        meter = UsageMeter(clock, tmp_path)
        for _ in range(3):
            meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1)
            clock.advance(PERIOD)
            meter.maybe_rollup()
        starts = [line["period_start"] for line in lines_in(tmp_path)]
        assert starts == [10_010.0, 10_020.0]  # the 10_000.0 period went
        assert meter.top_principals(1)[0]["ops"] == 2
        assert dropped.value == before


class TestDurability:
    def test_completed_period_survives_a_clean_restart(self, clock, tmp_path):
        meter = UsageMeter(clock, tmp_path)
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1)
        clock.advance(PERIOD + 1)
        assert meter.maybe_rollup() == 1
        restarted = UsageMeter(clock, tmp_path)
        assert [(e["principal"], e["ops"]) for e in restarted.top_principals(5)] == [(ALICE, 1)]

    def test_completed_period_survives_kill_9_right_after_the_rollup(self, tmp_path):
        """The lines are written before ``maybe_rollup`` returns: a process
        SIGKILLed on the next instruction leaves them whole on disk."""
        script = (
            "import os, signal\n"
            "from repro.obs.usage import UsageMeter\n"
            "from repro.util.gbtime import VirtualClock\n"
            f"meter = UsageMeter(VirtualClock(start=10_000.0), {str(tmp_path)!r})\n"
            f"meter.record_op({ALICE!r}, 'direct_transfer', ok=True, latency_seconds=0.1)\n"
            f"meter.record_op({BOB!r}, 'redeem_cheque', ok=True, latency_seconds=0.1)\n"
            "assert meter.maybe_rollup(force=True) == 2\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        src = str(Path(obs_usage.__file__).parents[2])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", script], env=env, timeout=60)
        assert result.returncode == -9
        survivors = UsageMeter(VirtualClock(start=10_000.0), tmp_path).top_principals(5)
        assert sorted(e["principal"] for e in survivors) == [ALICE, BOB]


class TestQuerySide:
    def test_top_principals_ranks_persisted_plus_live(self, clock):
        meter = UsageMeter(clock)
        for _ in range(5):
            meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1)
        meter.maybe_rollup(force=True)
        for _ in range(3):
            meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1)
        for _ in range(7):
            meter.record_op(BOB, "redeem_cheque", ok=True, latency_seconds=0.1)
        ranked = meter.top_principals(2)
        assert [e["principal"] for e in ranked] == [ALICE, BOB]
        assert ranked[0]["ops"] == 8  # 5 rolled + 3 live
        assert ranked[1]["ops"] == 7

    def test_top_k_truncates(self, clock):
        meter = UsageMeter(clock)
        meter.record_op(ALICE, "a", ok=True, latency_seconds=0.0)
        meter.record_op(BOB, "a", ok=True, latency_seconds=0.0)
        assert len(meter.top_principals(1)) == 1


class TestEachNodeMetersWhatItServed:
    def test_standby_reports_reads_across_a_period_boundary(self, world, tmp_path):  # noqa: F811
        """A standby rolls the periods it served into its own ring; before
        rollups left the database it discarded them."""
        standby = world["bank_b"]
        wait_caught_up(world["bank_a"], standby)
        reader = RPCClient(
            world["network"].connect(B), world["alice_ident"], world["store"],
            clock=world["clock"], rng=random.Random(77),
        )
        reader.connect()
        try:
            reader.call("RequestAccountDetails", account_id=world["alice_account"])
            world["clock"].advance(PERIOD + 1)  # inside the 30 s staleness bound
            reader.call("RequestAccountDetails", account_id=world["alice_account"])
        finally:
            reader.close()
        alice = world["alice_ident"].subject
        assert [(e["principal"], e["ops"]) for e in standby.usage.top_principals(5)] == [(alice, 2)]
        assert [line["principal"] for line in lines_in(tmp_path / "usage" / B)] == [alice]

    def test_plumbing_bytes_are_not_metered(self, world):  # noqa: F811
        """The standby's fetch stream is the bank's own subject calling
        ``Replication.Fetch``: an untracked row, so neither its ops nor its
        wire volume reach the primary's usage."""
        primary = world["bank_a"]
        wait_caught_up(primary, world["bank_b"])
        top = {e["principal"]: e for e in primary.usage.top_principals(50)}
        assert primary.subject not in top
        # ... while principal workload is billed its bytes
        assert top[world["alice_ident"].subject]["bytes_in"] > 0


class TestHotOperations:
    def test_ranks_bank_ops_and_skips_cluster_plumbing(self, attached_bank):
        snapshot = {
            "counters": {
                "bank.op.direct_transfer.requests": 40,
                "bank.op.direct_transfer.errors": 2,
                "bank.op.account_statement.requests": 15,
                "bank.op.replication_fetch.requests": 9_000,
                "bank.op.telemetry_snapshot.requests": 500,
                "unrelated.counter": 7,
            },
            "histograms": {
                "bank.op.direct_transfer.latency_seconds": {"p95": 0.125},
                "bank.op.replication_fetch.latency_seconds": {"p95": 0.5},
            },
        }
        plumbing = {op.name for op in attached_bank.ops.values() if not op.tracked}
        ranked = hot_operations(snapshot, limit=5, skip=plumbing)
        assert [e["op"] for e in ranked] == ["direct_transfer", "account_statement"]
        assert ranked[0]["errors"] == 2
        assert ranked[0]["p95_seconds"] == pytest.approx(0.125)
        assert ranked[1]["errors"] == 0

    def test_zero_request_ops_are_omitted(self):
        assert hot_operations({"counters": {"bank.op.pay.errors": 3}}) == []

    def test_untracked_ops_cover_the_cluster_plane(self, attached_bank):
        ops = attached_bank.ops
        assert not ops["Replication.Fetch"].tracked
        assert not ops["Telemetry.Snapshot"].tracked
        assert ops["RequestDirectTransfer"].tracked

    def test_a_health_poll_is_neither_sampled_nor_billed(self, attached_bank):
        bank = attached_bank
        slo_before = bank.slo.snapshot()
        status = deliver_keyed(bank, "Integrity.Status", bank.subject, "")
        assert status["ok"] is True
        assert bank.slo.snapshot() == slo_before
        assert bank.usage.top_principals(5) == []
        # ... while principal workload on the same bank is both
        deliver_keyed(bank, "BankInfo", bank.subject, "")
        assert bank.slo.snapshot() != slo_before
        assert [row["ops"] for row in bank.usage.top_principals(5)] == [1]
