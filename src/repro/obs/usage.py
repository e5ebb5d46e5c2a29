"""Per-principal usage metering — the GASA accounting loop, turned inward.

The paper's whole point (sec 2.1, 5.1) is metering who consumed what and
keeping a provable record. The bank itself is a consumed resource: every
authenticated principal spends bank CPU (op dispatch), wire bytes and
GridCurrency. :class:`UsageMeter` folds those into in-memory per-principal
accumulators on the dispatch path and, once per rollup period, persists
one ``usage_rollups`` row per active principal through the same WAL'd
database as the ledger — each row carrying a standard
:class:`~repro.rur.record.ResourceUsageRecord` blob (via
:func:`repro.rur.formats.to_blob`), so the bank's own consumption records
interoperate with every other RUR consumer in the codebase.

Rollup is opportunistic (checked on the record path against the injected
clock — no timer thread, so it works under a VirtualClock) and persists
only while the node believes it is the primary: a standby writing local
rows would desynchronize the replicated WAL, exactly like span rows.
Collisions on ``(Principal, PeriodStart)`` — a promoted standby rolling
the same period the dead primary already shipped — merge into the
existing row instead of erroring.

Memory is bounded twice over: live accumulators cap at
``max_live_principals`` (overflow folds into the ``(other)`` principal,
counted by ``usage.principals_capped``), and persisted rows evict
oldest-period-first past ``max_rows`` (counted by
``usage.rollups_evicted``).
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Collection, Optional

from repro.db.database import Database
from repro.db.schema import Column, TableSchema
from repro.db.types import BigIntUnsigned, Blob, Float, VarChar
from repro.errors import IntegrityError
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.rur.formats import to_blob
from repro.rur.record import ResourceUsageRecord, UsageVector
from repro.util.gbtime import Clock
from repro.util.serialize import canonical_dumps, canonical_loads

__all__ = [
    "USAGE_TABLE",
    "usage_schema",
    "UsageMeter",
    "hot_operations",
]

_log = get_logger("obs.usage")

USAGE_TABLE = "usage_rollups"

_W_PRINCIPAL = 128
_OVERFLOW_PRINCIPAL = "(other)"

def usage_schema() -> TableSchema:
    """USAGE_ROLLUPS — one row per (principal, rollup period).

    Sums are first-class columns so ``top_principals`` can fold rows
    without decoding blobs; ``OpCounts`` (canonical JSON) and ``RUR``
    (tagged blob, sec 5.1 binary format) carry the detail.
    """
    return TableSchema(
        USAGE_TABLE,
        [
            Column.make("Principal", VarChar(_W_PRINCIPAL)),
            Column.make("PeriodStart", Float()),
            Column.make("PeriodEnd", Float()),
            Column.make("Ops", BigIntUnsigned()),
            Column.make("Errors", BigIntUnsigned()),
            Column.make("BytesIn", BigIntUnsigned()),
            Column.make("BytesOut", BigIntUnsigned()),
            Column.make("LatencySum", Float()),
            Column.make("CurrencyMoved", Float()),
            Column.make("OpCounts", Blob(), default=b""),
            Column.make("RUR", Blob(), default=b""),
        ],
        primary_key=["Principal", "PeriodStart"],
        ordered=["PeriodStart"],
    )


class _Accum:
    __slots__ = ("ops", "errors", "bytes_in", "bytes_out", "latency_sum",
                 "currency_moved", "op_counts")

    def __init__(self) -> None:
        self.ops = 0
        self.errors = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.latency_sum = 0.0
        self.currency_moved = 0.0
        self.op_counts: dict[str, int] = {}


class UsageMeter:
    """Dispatch-path accumulation + periodic WAL'd per-principal rollups."""

    def __init__(
        self,
        db: Database,
        clock: Clock,
        bank_subject: str = "gridbank",
        host: str = "",
        period: float = 3600.0,
        max_rows: int = 50_000,
        max_live_principals: int = 10_000,
        should_persist: Optional[Callable[[], bool]] = None,
    ) -> None:
        if period <= 0:
            raise ValueError("rollup period must be positive")
        self.db = db
        self.clock = clock
        self.bank_subject = bank_subject
        self.host = host
        self.period = period
        self.max_rows = max_rows
        self.max_live_principals = max_live_principals
        self.should_persist = should_persist
        self._lock = threading.Lock()
        self._live: dict[str, _Accum] = {}
        self._period_start = self._quantize(clock.epoch())
        if USAGE_TABLE not in db.table_names():
            db.create_table(usage_schema())

    def _quantize(self, epoch: float) -> float:
        return math.floor(epoch / self.period) * self.period

    def _accum(self, principal: str) -> _Accum:
        # caller holds self._lock
        accum = self._live.get(principal)
        if accum is None:
            if len(self._live) >= self.max_live_principals:
                obs_metrics.counter("usage.principals_capped").inc()
                return self._live.setdefault(_OVERFLOW_PRINCIPAL, _Accum())
            accum = self._live[principal] = _Accum()
        return accum

    # -- record path -------------------------------------------------------

    def record_op(
        self,
        principal: str,
        op: str,
        ok: bool,
        latency_seconds: float,
        currency_moved: float = 0.0,
    ) -> None:
        # roll a completed period BEFORE folding this event in: an op
        # past the boundary belongs to the new period, not the one it
        # just closed
        self.maybe_rollup()
        with self._lock:
            accum = self._accum(principal)
            accum.ops += 1
            if not ok:
                accum.errors += 1
            accum.latency_sum += max(0.0, latency_seconds)
            accum.currency_moved += currency_moved
            accum.op_counts[op] = accum.op_counts.get(op, 0) + 1

    def record_bytes(self, principal: str, bytes_in: int, bytes_out: int) -> None:
        """Wire accounting hook (the RPC endpoint calls this per request)."""
        with self._lock:
            accum = self._accum(principal)
            accum.bytes_in += int(bytes_in)
            accum.bytes_out += int(bytes_out)

    # -- rollup ------------------------------------------------------------

    def maybe_rollup(self, force: bool = False) -> int:
        """Persist the completed period's accumulators, if any are due.

        A no-op while a database transaction is open (the next record
        outside one retries) and while ``should_persist`` says this node
        must not write (a standby); in the latter case due accumulators
        are *discarded*, counted by ``usage.rollups_skipped`` — their
        rows arrive through replication from the primary instead.
        """
        now = self.clock.epoch()
        if not force and now < self._period_start + self.period:
            return 0
        if self.db.in_transaction:
            return 0
        with self._lock:
            if not force and now < self._period_start + self.period:
                return 0
            live, self._live = self._live, {}
            period_start, self._period_start = self._period_start, self._quantize(now)
            period_end = max(now, period_start)
        if not live:
            return 0
        if self.should_persist is not None and not self.should_persist():
            obs_metrics.counter("usage.rollups_skipped").inc(len(live))
            return 0
        written = 0
        for principal, accum in live.items():
            self._persist(principal, period_start, period_end, accum)
            written += 1
        self._evict_persisted()
        self._export_top_gauges()
        _log.info("usage.rollup", principals=written,
                  period_start=period_start, period_end=period_end)
        return written

    def _rur_blob(self, principal: str, period_start: float, period_end: float,
                  ops: int, errors: int, bytes_in: int, bytes_out: int,
                  latency_sum: float, currency_moved: float) -> bytes:
        record = ResourceUsageRecord(
            user_certificate_name=principal,
            user_host="",
            job_id=f"usage:{principal}:{int(period_start)}",
            application_name="gridbank.usage_rollup",
            job_start_epoch=period_start,
            job_end_epoch=period_end,
            resource_certificate_name=self.bank_subject or "gridbank",
            resource_host=self.host,
            usage=UsageVector(
                cpu_time_s=max(0.0, latency_sum),
                network_mb=max(0, bytes_in + bytes_out) / 1e6,
                wall_clock_s=max(0.0, period_end - period_start),
            ),
        )
        return to_blob(record)

    def _persist(self, principal: str, period_start: float, period_end: float,
                 accum: _Accum) -> None:
        principal = principal[:_W_PRINCIPAL]
        row = {
            "Principal": principal,
            "PeriodStart": period_start,
            "PeriodEnd": period_end,
            "Ops": accum.ops,
            "Errors": accum.errors,
            "BytesIn": accum.bytes_in,
            "BytesOut": accum.bytes_out,
            "LatencySum": accum.latency_sum,
            "CurrencyMoved": accum.currency_moved,
            "OpCounts": canonical_dumps(accum.op_counts),
            "RUR": self._rur_blob(
                principal, period_start, period_end, accum.ops, accum.errors,
                accum.bytes_in, accum.bytes_out, accum.latency_sum,
                accum.currency_moved,
            ),
        }
        try:
            self.db.insert(USAGE_TABLE, row)
        except IntegrityError:
            self._merge_existing(principal, period_start, period_end, accum)

    def _merge_existing(self, principal: str, period_start: float,
                        period_end: float, accum: _Accum) -> None:
        existing = self.db.find(USAGE_TABLE, (principal, period_start))
        if existing is None:  # pragma: no cover - insert raced a delete
            return
        op_counts = canonical_loads(existing["OpCounts"]) if existing["OpCounts"] else {}
        for op, count in accum.op_counts.items():
            op_counts[op] = op_counts.get(op, 0) + count
        merged = {
            "PeriodEnd": max(float(existing["PeriodEnd"]), period_end),
            "Ops": existing["Ops"] + accum.ops,
            "Errors": existing["Errors"] + accum.errors,
            "BytesIn": existing["BytesIn"] + accum.bytes_in,
            "BytesOut": existing["BytesOut"] + accum.bytes_out,
            "LatencySum": existing["LatencySum"] + accum.latency_sum,
            "CurrencyMoved": existing["CurrencyMoved"] + accum.currency_moved,
            "OpCounts": canonical_dumps(op_counts),
        }
        merged["RUR"] = self._rur_blob(
            principal, period_start, merged["PeriodEnd"], merged["Ops"],
            merged["Errors"], merged["BytesIn"], merged["BytesOut"],
            merged["LatencySum"], merged["CurrencyMoved"],
        )
        self.db.update(USAGE_TABLE, (principal, period_start), merged)

    def _evict_persisted(self) -> None:
        excess = self.db.count(USAGE_TABLE) - self.max_rows
        if excess > 0:
            obs_metrics.counter("usage.rollups_evicted").inc(
                self.db.evict_lowest(USAGE_TABLE, "PeriodStart", excess)
            )

    def _export_top_gauges(self, k: int = 5) -> None:
        # bounded cardinality: only the current top-K principals become
        # label values (full DNs — the exporter escapes them)
        for entry in self.top_principals(k, include_live=False):
            principal = entry["principal"]
            obs_metrics.gauge("usage.principal.ops", principal=principal).set(entry["ops"])
            obs_metrics.gauge(
                "usage.principal.currency_moved", principal=principal
            ).set(entry["currency_moved"])

    # -- query side --------------------------------------------------------

    def top_principals(self, k: int = 5, include_live: bool = True) -> list[dict]:
        """Top-*k* principals by op count, persisted rows + live period."""
        totals: dict[str, dict] = {}

        def fold(principal: str, ops: int, errors: int, bytes_in: int,
                 bytes_out: int, latency_sum: float, currency_moved: float) -> None:
            entry = totals.setdefault(
                principal,
                {"principal": principal, "ops": 0, "errors": 0, "bytes_in": 0,
                 "bytes_out": 0, "latency_seconds": 0.0, "currency_moved": 0.0},
            )
            entry["ops"] += ops
            entry["errors"] += errors
            entry["bytes_in"] += bytes_in
            entry["bytes_out"] += bytes_out
            entry["latency_seconds"] += latency_sum
            entry["currency_moved"] += currency_moved

        for row in self.db.table(USAGE_TABLE).all_rows():
            fold(row["Principal"], row["Ops"], row["Errors"], row["BytesIn"],
                 row["BytesOut"], row["LatencySum"], row["CurrencyMoved"])
        if include_live:
            with self._lock:
                for principal, accum in self._live.items():
                    fold(principal, accum.ops, accum.errors, accum.bytes_in,
                         accum.bytes_out, accum.latency_sum, accum.currency_moved)
        ranked = sorted(totals.values(), key=lambda e: (-e["ops"], e["principal"]))
        return ranked[: max(0, k)]

    def snapshot(self, k: int = 5) -> dict:
        """JSON-able view for the telemetry endpoint / healthz."""
        with self._lock:
            live = len(self._live)
            period_start = self._period_start
        return {
            "period_seconds": self.period,
            "period_start": period_start,
            "live_principals": live,
            "persisted_rows": self.db.count(USAGE_TABLE),
            "top": self.top_principals(k),
        }

    def rescan(self) -> None:
        """Re-anchor after recovery/promotion: replicated rows replaced
        the table contents underneath us; live accumulators restart."""
        with self._lock:
            self._live = {}
            self._period_start = self._quantize(self.clock.epoch())


def hot_operations(snapshot: dict, limit: int = 5, skip: Collection[str] = ()) -> list[dict]:
    """Rank bank ops by request count from a metrics snapshot.

    Reads the ``bank.op.<op>.requests`` / ``.errors`` counters and the
    ``.latency_seconds`` histogram summaries the dispatch wrapper
    maintains; *skip* names the ops to leave out (the caller passes the
    op table's untracked rows: cluster plumbing is not workload).
    """
    ops: dict[str, dict] = {}

    def entry(op: str) -> dict:
        return ops.setdefault(
            op, {"op": op, "requests": 0, "errors": 0, "p95_seconds": 0.0}
        )

    for key, value in snapshot.get("counters", {}).items():
        if not key.startswith("bank.op."):
            continue
        if key.endswith(".requests"):
            op = key[len("bank.op."):-len(".requests")]
            if op not in skip:
                entry(op)["requests"] = int(value)
        elif key.endswith(".errors"):
            op = key[len("bank.op."):-len(".errors")]
            if op not in skip:
                entry(op)["errors"] = int(value)
    for key, summary in snapshot.get("histograms", {}).items():
        if key.startswith("bank.op.") and key.endswith(".latency_seconds"):
            op = key[len("bank.op."):-len(".latency_seconds")]
            if op not in skip:
                entry(op)["p95_seconds"] = float(summary.get("p95", 0.0))
    ranked = sorted(ops.values(), key=lambda e: (-e["requests"], e["op"]))
    return [e for e in ranked if e["requests"] > 0][: max(0, limit)]
