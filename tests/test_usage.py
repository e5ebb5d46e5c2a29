"""Per-principal usage metering: accumulation, rollup, and the RUR loop.

The meter's promise is GASA's own: every principal's consumption of the
bank (ops, wire bytes, latency, GridCurrency) becomes a durable
``usage_rollups`` row carrying a standard RUR blob — so the bank's
self-accounting interoperates with every other RUR consumer. These
tests pin the period gating under a VirtualClock, the row/blob shape,
the promoted-standby merge path, both memory bounds, and the standby
persistence gate.
"""

import pytest

from repro.db.database import Database
from repro.obs import metrics as obs_metrics
from repro.obs.usage import (
    USAGE_TABLE,
    UsageMeter,
    hot_operations,
)
from repro.rur.formats import from_blob
from repro.util.gbtime import VirtualClock
from repro.util.serialize import canonical_loads
from tests.conftest import deliver_keyed

ALICE = "O=VO-A, CN=alice"
BOB = "O=VO-B, CN=bob"


@pytest.fixture()
def clock():
    return VirtualClock(start=10_000.0)


@pytest.fixture()
def db():
    database = Database()  # in-memory: the meter only needs the table API
    yield database
    database.close()


def make_meter(db, clock, **kwargs):
    defaults = dict(bank_subject="O=GridBank, CN=server", host="bank-a", period=100.0)
    defaults.update(kwargs)
    return UsageMeter(db, clock, **defaults)


class TestAccumulation:
    def test_meter_creates_its_table(self, db, clock):
        make_meter(db, clock)
        assert USAGE_TABLE in db.table_names()

    def test_rejects_nonpositive_period(self, db, clock):
        with pytest.raises(ValueError):
            make_meter(db, clock, period=0.0)

    def test_live_accumulators_fold_ops_and_bytes(self, db, clock):
        meter = make_meter(db, clock)
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1,
                        currency_moved=50.0)
        meter.record_op(ALICE, "direct_transfer", ok=False, latency_seconds=0.3)
        meter.record_bytes(ALICE, 100, 200)
        snap = meter.snapshot()
        assert snap["live_principals"] == 1
        assert snap["persisted_rows"] == 0
        (top,) = snap["top"]
        assert top["principal"] == ALICE
        assert top["ops"] == 2
        assert top["errors"] == 1
        assert top["bytes_in"] == 100
        assert top["bytes_out"] == 200
        assert top["latency_seconds"] == pytest.approx(0.4)
        assert top["currency_moved"] == pytest.approx(50.0)

    def test_live_principals_cap_overflows_to_other(self, db, clock):
        obs_metrics.reset()
        meter = make_meter(db, clock, max_live_principals=2)
        meter.record_op(ALICE, "a", ok=True, latency_seconds=0.0)
        meter.record_op(BOB, "a", ok=True, latency_seconds=0.0)
        meter.record_op("O=VO-C, CN=carol", "a", ok=True, latency_seconds=0.0)
        principals = {e["principal"] for e in meter.top_principals(10)}
        assert principals == {ALICE, BOB, "(other)"}
        counters = obs_metrics.snapshot()["counters"]
        assert counters["usage.principals_capped"] == 1


class TestRollup:
    def test_rollup_waits_for_the_period_to_complete(self, db, clock):
        meter = make_meter(db, clock)
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1)
        assert meter.maybe_rollup() == 0
        assert db.count(USAGE_TABLE) == 0
        clock.advance(101.0)
        assert meter.maybe_rollup() == 1
        assert db.count(USAGE_TABLE) == 1

    def test_record_path_triggers_due_rollup(self, db, clock):
        meter = make_meter(db, clock)
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1)
        clock.advance(101.0)
        # the next record both rolls the old period and starts the new one
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1)
        assert db.count(USAGE_TABLE) == 1
        assert meter.snapshot()["live_principals"] == 1

    def test_persisted_row_carries_sums_opcounts_and_rur(self, db, clock):
        meter = make_meter(db, clock)
        period_start = meter.snapshot()["period_start"]
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.25,
                        currency_moved=75.0)
        meter.record_op(ALICE, "account_statement", ok=False, latency_seconds=0.05)
        meter.record_bytes(ALICE, 1_000_000, 2_000_000)
        clock.advance(150.0)
        assert meter.maybe_rollup() == 1
        (row,) = db.table(USAGE_TABLE).all_rows()
        assert row["Principal"] == ALICE
        assert row["PeriodStart"] == period_start
        assert row["Ops"] == 2
        assert row["Errors"] == 1
        assert row["BytesIn"] == 1_000_000
        assert row["BytesOut"] == 2_000_000
        assert row["LatencySum"] == pytest.approx(0.30)
        assert row["CurrencyMoved"] == pytest.approx(75.0)
        assert canonical_loads(row["OpCounts"]) == {
            "direct_transfer": 1, "account_statement": 1,
        }
        # the blob is a standard RUR any consumer in the codebase can read
        record = from_blob(row["RUR"])
        assert record.user_certificate_name == ALICE
        assert record.application_name == "gridbank.usage_rollup"
        assert record.resource_certificate_name == "O=GridBank, CN=server"
        assert record.resource_host == "bank-a"
        assert record.job_start_epoch == period_start
        assert record.usage.cpu_time_s == pytest.approx(0.30)
        assert record.usage.network_mb == pytest.approx(3.0)

    def test_force_rollup_flushes_a_partial_period(self, db, clock):
        meter = make_meter(db, clock)
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1)
        assert meter.maybe_rollup(force=True) == 1
        assert db.count(USAGE_TABLE) == 1

    def test_same_period_collision_merges_not_errors(self, db, clock):
        """A promoted standby rolling a period the dead primary already
        shipped lands on the same (Principal, PeriodStart) key — the row
        must absorb the second rollup, not raise."""
        meter = make_meter(db, clock)
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1,
                        currency_moved=10.0)
        assert meter.maybe_rollup(force=True) == 1
        # a second meter anchored at the same period start (same epoch)
        other = make_meter(db, VirtualClock(start=10_000.0))
        other.record_op(ALICE, "direct_transfer", ok=False, latency_seconds=0.2,
                        currency_moved=5.0)
        other.record_op(ALICE, "redeem_cheque", ok=True, latency_seconds=0.1)
        assert other.maybe_rollup(force=True) == 1
        (row,) = db.table(USAGE_TABLE).all_rows()
        assert row["Ops"] == 3
        assert row["Errors"] == 1
        assert row["CurrencyMoved"] == pytest.approx(15.0)
        assert canonical_loads(row["OpCounts"]) == {
            "direct_transfer": 2, "redeem_cheque": 1,
        }
        assert from_blob(row["RUR"]).usage.cpu_time_s == pytest.approx(0.4)

    def test_standby_discards_instead_of_writing(self, db, clock):
        obs_metrics.reset()
        meter = make_meter(db, clock, should_persist=lambda: False)
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1)
        meter.record_op(BOB, "direct_transfer", ok=True, latency_seconds=0.1)
        assert meter.maybe_rollup(force=True) == 0
        assert db.count(USAGE_TABLE) == 0
        counters = obs_metrics.snapshot()["counters"]
        assert counters["usage.rollups_skipped"] == 2
        # the live accumulators were consumed either way
        assert meter.snapshot()["live_principals"] == 0

    def test_eviction_drops_oldest_periods_past_max_rows(self, db, clock):
        obs_metrics.reset()
        meter = make_meter(db, clock, max_rows=2)
        for _ in range(3):
            meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1)
            clock.advance(100.0)
            meter.maybe_rollup()
        assert db.count(USAGE_TABLE) == 2
        starts = sorted(row["PeriodStart"] for row in db.table(USAGE_TABLE).all_rows())
        assert starts == [10_100.0, 10_200.0]  # the 10_000.0 period evicted
        counters = obs_metrics.snapshot()["counters"]
        assert counters["usage.rollups_evicted"] == 1

    def test_rollup_exports_top_principal_gauges(self, db, clock):
        obs_metrics.reset()
        meter = make_meter(db, clock)
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1,
                        currency_moved=42.0)
        meter.maybe_rollup(force=True)
        gauges = obs_metrics.snapshot()["gauges"]
        # the DN label value is escaped in the registry key
        key = f"usage.principal.ops{{principal={ALICE.replace(',', chr(92) + ',').replace('=', chr(92) + '=')}}}"
        assert gauges[key] == 1

    def test_rescan_restarts_the_live_period(self, db, clock):
        meter = make_meter(db, clock)
        meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1)
        clock.advance(250.0)
        meter.rescan()
        assert meter.snapshot()["live_principals"] == 0
        assert meter.snapshot()["period_start"] == 10_200.0


class TestQuerySide:
    def test_top_principals_ranks_persisted_plus_live(self, db, clock):
        meter = make_meter(db, clock)
        for _ in range(5):
            meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1)
        meter.maybe_rollup(force=True)
        for _ in range(3):
            meter.record_op(ALICE, "direct_transfer", ok=True, latency_seconds=0.1)
        for _ in range(7):
            meter.record_op(BOB, "redeem_cheque", ok=True, latency_seconds=0.1)
        ranked = meter.top_principals(2)
        assert [e["principal"] for e in ranked] == [ALICE, BOB]
        assert ranked[0]["ops"] == 8  # 5 persisted + 3 live
        assert ranked[1]["ops"] == 7

    def test_top_k_truncates(self, db, clock):
        meter = make_meter(db, clock)
        meter.record_op(ALICE, "a", ok=True, latency_seconds=0.0)
        meter.record_op(BOB, "a", ok=True, latency_seconds=0.0)
        assert len(meter.top_principals(1)) == 1


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
