"""Durable span store — traces that survive the process.

The paper's accountability story (sec 5.1 records, sec 2.2 RURs) is about
being able to reconstruct *after the fact* who paid whom and why. PR 1's
traces only lived in process memory; this module makes them part of the
audit record. Two sinks for :func:`repro.obs.trace.add_sink`:

* :class:`SpanStore` — persists each finished span as a SPAN row through
  the same WAL'd :class:`~repro.db.database.Database` that holds the
  ledger, so a crash-recovery replay restores traces together with the
  TRANSACTION/TRANSFER rows they explain. ``gridbank trace show`` joins
  the two through the ledger ``TraceID`` columns.
* :class:`JsonlSpanSink` — appends each record as one JSON line to a
  file, for out-of-process collectors that tail a log rather than open
  the database.

Span records arrive on the serving thread *after* the operation's
database transaction commits (the instrumentation wrapper sits outside
the transaction wrapper), so SPAN rows autocommit as their own WAL
lines. Defensively, a record arriving while a transaction *is* open is
buffered and flushed on the next out-of-transaction record (or an
explicit :meth:`SpanStore.flush`) — a span row must never ride inside,
and risk rollback with, an unrelated ledger transaction.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.db.database import Database
from repro.db.query import eq
from repro.db.schema import Column, TableSchema
from repro.db.types import BigIntUnsigned, Blob, Float, VarChar
from repro.errors import IntegrityError
from repro.obs import metrics as obs_metrics
from repro.util.ids import IdGenerator
from repro.util.serialize import canonical_dumps, canonical_loads

__all__ = [
    "SPAN_TABLE",
    "span_schema",
    "SpanStore",
    "JsonlSpanSink",
    "render_waterfall",
]

SPAN_TABLE = "spans"

# column widths, shared by the schema and the truncation on insert
_W_TRACE = 32
_W_SPAN = 16
_W_NAME = 64
_W_KIND = 16
_W_STATUS = 10
_W_ERROR = 64

# evict this many rows at once when full (same idiom as the reply cache)
_EVICTION_BATCH = 256


def span_schema() -> TableSchema:
    """SPAN table — one row per finished span.

    Primary key ``(TraceID, SpanID)``: span IDs are only 32 bits, so
    uniqueness is scoped to the trace they belong to. ``Attrs`` and
    ``Events`` are canonical-JSON blobs (small, schemaless, read back
    only for display); timing/identity/status columns are first-class so
    ``trace slowest`` and ``trace grep`` can filter without decoding.
    ``Seq`` orders rows for bounded-size eviction.
    """
    return TableSchema(
        SPAN_TABLE,
        [
            Column.make("TraceID", VarChar(_W_TRACE)),
            Column.make("SpanID", VarChar(_W_SPAN)),
            Column.make("ParentID", VarChar(_W_SPAN), default=""),
            Column.make("Seq", BigIntUnsigned()),
            Column.make("Name", VarChar(_W_NAME)),
            Column.make("Kind", VarChar(_W_KIND), default="internal"),
            Column.make("Status", VarChar(_W_STATUS), default="ok"),
            Column.make("ErrorType", VarChar(_W_ERROR), default=""),
            Column.make("StartEpoch", Float()),
            Column.make("DurationSeconds", Float()),
            Column.make("Attrs", Blob(), default=b""),
            Column.make("Events", Blob(), default=b""),
        ],
        primary_key=["TraceID", "SpanID"],
        indexes=["Name"],
        ordered=["Seq"],
    )


def _fit(value: object, width: int) -> str:
    return str(value)[:width]


def _jsonable(value: object) -> object:
    """Coerce an attr/event value to something canonical JSON can carry."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


class SpanStore:
    """Span sink persisting records as SPAN rows; also the query side.

    Instances are callable so they plug directly into
    :func:`repro.obs.trace.add_sink`. Construction creates the table if
    missing — on a persistent database this must happen *before*
    :meth:`~repro.db.database.Database.recover` (tables must exist for
    the journal replay to land in), after which :meth:`rescan` re-derives
    the eviction sequence from the recovered rows.
    """

    def __init__(self, db: Database, max_rows: int = 50_000) -> None:
        if max_rows < 1:
            raise ValueError("max_rows must be >= 1")
        self.db = db
        self.max_rows = max_rows
        self._lock = threading.Lock()
        self._deferred: list[dict] = []
        if SPAN_TABLE not in db.table_names():
            db.create_table(span_schema())
        self.rescan()

    def rescan(self) -> None:
        """Re-derive the insertion sequence from persisted rows (call
        after WAL recovery, like the reply cache's rescan)."""
        self._seq = IdGenerator(start=self.db.table(SPAN_TABLE).max_of("Seq", 0) + 1)

    # -- sink side ---------------------------------------------------------

    def __call__(self, record: dict) -> None:
        """Persist one finished span record (the sink protocol)."""
        if self.db.in_transaction:
            # never let a span row ride inside an unrelated ledger
            # transaction; hold it until the transaction is gone
            with self._lock:
                self._deferred.append(record)
            return
        self.flush()
        self._insert(record)

    def flush(self) -> int:
        """Persist any records deferred while a transaction was open."""
        if self.db.in_transaction:
            return 0
        with self._lock:
            pending, self._deferred = self._deferred, []
        for record in pending:
            self._insert(record)
        return len(pending)

    def _insert(self, record: dict) -> None:
        row = {
            "TraceID": _fit(record.get("trace_id", ""), _W_TRACE),
            "SpanID": _fit(record.get("span_id", ""), _W_SPAN),
            "ParentID": _fit(record.get("parent_id", ""), _W_SPAN),
            "Seq": self._seq.next_int(),
            "Name": _fit(record.get("name", ""), _W_NAME),
            "Kind": _fit(record.get("kind", "internal"), _W_KIND),
            "Status": _fit(record.get("status", "ok"), _W_STATUS),
            "ErrorType": _fit(record.get("error_type", ""), _W_ERROR),
            "StartEpoch": float(record.get("start_epoch", 0.0)),
            "DurationSeconds": float(record.get("duration_seconds", 0.0)),
            "Attrs": canonical_dumps(_jsonable(record.get("attrs", {}))),
            "Events": canonical_dumps(_jsonable(record.get("events", []))),
        }
        excess = len(self) - self.max_rows + 1
        if excess > 0:
            # audit history destroyed by capacity, not by choice — keep
            # the loss observable (sampling exists to keep this near zero)
            obs_metrics.counter("obs.spans_dropped").inc(
                self.db.evict_lowest(SPAN_TABLE, "Seq", max(excess, _EVICTION_BATCH))
            )
        try:
            self.db.insert(SPAN_TABLE, row)
        except IntegrityError:
            # duplicate (trace, span) — keep the first record, drop this one
            pass

    # -- query side --------------------------------------------------------

    @staticmethod
    def _decode(row: dict) -> dict:
        """SPAN row back to the record shape the sinks were handed."""
        return {
            "trace_id": row["TraceID"],
            "span_id": row["SpanID"],
            "parent_id": row["ParentID"],
            "name": row["Name"],
            "kind": row["Kind"],
            "status": row["Status"],
            "error_type": row["ErrorType"],
            "start_epoch": row["StartEpoch"],
            "duration_seconds": row["DurationSeconds"],
            "attrs": canonical_loads(row["Attrs"]) if row["Attrs"] else {},
            "events": canonical_loads(row["Events"]) if row["Events"] else [],
        }

    def spans_for_trace(self, trace_id: str) -> list[dict]:
        """Every span of *trace_id*, as records, ordered by start time."""
        rows = self.db.select(SPAN_TABLE, [eq("TraceID", trace_id)])
        records = [self._decode(row) for row in rows]
        records.sort(key=lambda r: (r["start_epoch"], r["span_id"]))
        return records

    def trace_ids(self) -> list[str]:
        """Distinct trace IDs, most recently started first."""
        latest: dict[str, float] = {}
        for row in self.db.table(SPAN_TABLE).all_rows():
            seen = latest.get(row["TraceID"])
            if seen is None or row["StartEpoch"] > seen:
                latest[row["TraceID"]] = row["StartEpoch"]
        return [tid for tid, _ in sorted(latest.items(), key=lambda kv: -kv[1])]

    def slowest(self, limit: int = 10, name: str = "") -> list[dict]:
        """The *limit* longest spans (optionally only those whose name
        starts with *name*), as records, slowest first."""
        conditions = []
        rows = self.db.select(SPAN_TABLE, conditions)
        if name:
            rows = [row for row in rows if row["Name"].startswith(name)]
        rows.sort(key=lambda r: -r["DurationSeconds"])
        return [self._decode(row) for row in rows[:limit]]

    def grep(self, needle: str, limit: int = 50) -> list[dict]:
        """Spans whose name, attrs, events, or error type contain *needle*
        (case-insensitive substring), newest first."""
        want = needle.lower()
        hits = []
        for row in self.db.table(SPAN_TABLE).all_rows():
            haystack = " ".join(
                (
                    row["Name"],
                    row["ErrorType"],
                    row["Attrs"].decode("utf-8", "replace") if row["Attrs"] else "",
                    row["Events"].decode("utf-8", "replace") if row["Events"] else "",
                )
            ).lower()
            if want in haystack:
                hits.append(row)
        hits.sort(key=lambda r: -r["StartEpoch"])
        return [self._decode(row) for row in hits[:limit]]

    def __len__(self) -> int:
        return self.db.count(SPAN_TABLE)


class JsonlSpanSink:
    """Span sink appending one JSON line per record to *path*.

    The file is opened per write (append mode), so the sink survives log
    rotation and never holds a handle across forks; span close is not a
    hot path. Thread-safe via a lock around the append.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()

    def __call__(self, record: dict) -> None:
        line = json.dumps(_jsonable(record), sort_keys=True, separators=(",", ":"))
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")

    @staticmethod
    def read(path: Union[str, Path]) -> list[dict]:
        """Parse a JSONL span file back into records (skips torn lines)."""
        records = []
        text = Path(path).read_text(encoding="utf-8")
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        return records


# -- waterfall rendering -----------------------------------------------------


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def render_waterfall(records: Iterable[dict], ledger_rows: Iterable[dict] = ()) -> str:
    """Text waterfall of one trace: parent/child indentation, per-span
    durations and offsets, inline events, and any ledger rows carrying
    the trace's TraceID appended at the bottom.

    *records* are span records (see :meth:`SpanStore.spans_for_trace`);
    *ledger_rows* are TRANSACTION/TRANSFER dicts with a ``_table`` key
    naming their source table (the CLI adds it when joining).
    """
    records = list(records)
    if not records:
        return "(no spans)"
    by_id = {r["span_id"]: r for r in records}
    children: dict[str, list[dict]] = {}
    roots: list[dict] = []
    for record in records:
        parent = record["parent_id"]
        if parent and parent in by_id:
            children.setdefault(parent, []).append(record)
        else:
            roots.append(record)
    origin = min(r["start_epoch"] for r in records)
    lines = [f"trace {records[0]['trace_id']}  ({len(records)} spans)"]

    def emit(record: dict, depth: int) -> None:
        indent = "  " * depth
        offset = record["start_epoch"] - origin
        status = "" if record["status"] == "ok" else f"  ERROR[{record['error_type']}]"
        attrs = record.get("attrs") or {}
        attr_text = ""
        if attrs:
            rendered = ", ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
            attr_text = f"  {{{rendered}}}"
        lines.append(
            f"{indent}+{_format_duration(offset):>9}  {record['name']:<28} "
            f"{_format_duration(record['duration_seconds']):>9}  "
            f"[{record['span_id']}]{status}{attr_text}"
        )
        for event in record.get("events") or []:
            fields = event.get("fields") or {}
            field_text = " ".join(f"{k}={fields[k]}" for k in sorted(fields))
            lines.append(
                f"{indent}  . +{_format_duration(event.get('offset_seconds', 0.0)):>8}"
                f"  {event.get('name', '?')} {field_text}".rstrip()
            )
        for child in sorted(
            children.get(record["span_id"], ()), key=lambda r: r["start_epoch"]
        ):
            emit(child, depth + 1)

    for root in sorted(roots, key=lambda r: r["start_epoch"]):
        emit(root, 1)

    ledger_rows = list(ledger_rows)
    if ledger_rows:
        lines.append("ledger rows:")
        for row in ledger_rows:
            table = row.get("_table", "?")
            fields = {k: v for k, v in row.items() if k != "_table" and v not in (b"", "")}
            rendered = ", ".join(f"{k}={fields[k]}" for k in sorted(fields))
            lines.append(f"  {table}: {rendered}")
    return "\n".join(lines)
