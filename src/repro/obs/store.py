"""Telemetry kept beside the ledger, not in it: the segment ring.

The paper's accounts layer journals ACCOUNT / TRANSACTION / TRANSFER
records (sec 3.2, 5.1): the audit trail a bank must never lose. A trace
span is none of those — it describes how a request was *served* — and
neither is a usage rollup, so both are kept the way telemetry is kept:
cheaply, bounded, off the money path. :class:`SegmentRing` is a bounded
ring of append-only JSON-lines segments in a directory of its own (the
same ring in memory for a bank without storage). An append takes the
ring's own lock and nothing else: no database call, no WAL record, no
fsync, no replication, no thread. The sink for
:func:`repro.obs.trace.add_sink` is :class:`SpanStore`, the ring under
``<home>/spans/``; :mod:`repro.obs.usage` keeps the other one.
``gridbank trace show`` still joins a trace to the TRANSACTION/TRANSFER
rows carrying its ``TraceID``, on the node that served the request, and
the flight recorder's post-mortems read the newest segments
(:meth:`SpanStore.recent`): the store is the one place spans are kept.

Spans survive a clean shutdown and a restart (``flush()`` writes the
buffer out); ``kill -9`` loses at most the write-behind buffer. A failed
write raises into :mod:`repro.obs.trace`'s sink machinery, which counts
it (``obs.span_sink_errors``) and keeps it away from the request.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.obs import metrics as obs_metrics

__all__ = ["SegmentRing", "SpanStore", "render_waterfall"]

#: a segment is closed at this many records and the next one opened
SEGMENT_RECORDS = 1_000
#: ring bound: opening one segment more unlinks the oldest whole, so a
#: full ring retains between 49,001 and 50,000 records
MAX_SEGMENTS = 50
#: what a post-mortem reads (SpanStore.recent): at most 2,000 records
RECENT_SEGMENTS = 2
#: write-behind: the buffer goes to the open segment at this many records,
#: or once its oldest record is this old at the next append, or on flush()
BUFFER_RECORDS = 16
BUFFER_SECONDS = 1.0
#: an encoded line longer than this sheds attrs and events and has its
#: strings clipped to _CLIP characters — shrunk, never refused
MAX_LINE_BYTES = 4_096
_CLIP = 64

# the record shape sinks are handed (and render_waterfall takes); a field
# equal to its default is left out of the stored line
_DEFAULTS = {
    "trace_id": "", "span_id": "", "parent_id": "", "name": "",
    "kind": "internal", "status": "ok", "error_type": "",
    "start_epoch": 0.0, "duration_seconds": 0.0, "attrs": {}, "events": [],
}

# one encoder for every line (json.dumps builds a new one per call when
# given separators); a value JSON cannot carry is stored as its str()
_dumps = json.JSONEncoder(separators=(",", ":"), default=str).encode


def _encode(record: dict) -> str:
    """One span record as one compact ASCII JSON line (no newline)."""
    fields = {
        key: record[key]
        for key, default in _DEFAULTS.items()
        if record.get(key, default) != default
    }
    # microseconds on the wall clock, nanoseconds on the duration
    for key, digits in (("start_epoch", 6), ("duration_seconds", 9)):
        if key in fields:
            fields[key] = round(float(fields[key]), digits)
    line = _dumps(fields)
    if len(line) > MAX_LINE_BYTES:
        # identity, timing and status always fit; the free-form part goes
        fields = {
            key: value[:_CLIP] if isinstance(value, str) else value
            for key, value in fields.items()
            if key not in ("attrs", "events")
        }
        line = _dumps(fields)
    return line


def _parse_lines(lines: Iterable[str]) -> Iterator[dict]:
    """The JSON objects among *lines*; anything else is skipped."""
    for line in lines:
        try:
            fields = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(fields, dict):
            yield fields


@dataclass
class _Segment:
    """One slot of the ring: a file of lines, or (in memory) the lines."""

    number: int
    count: Optional[int]  # None: left by an earlier process, counted on demand
    lines: Optional[list] = None  # None: the lines are in the segment's file


class SegmentRing:
    """A bounded ring of append-only JSON-lines segments, and its reader.

    *directory* is where the segments live (``None`` keeps the ring in
    memory). Constructing a ring touches no file: the directory is listed
    on the first flush or query and created by the first flush with
    something to write. Each process that writes starts a segment of its
    own, so a line torn by a crash is the last of its segment and nothing
    is ever appended after it. The span store and the usage meter each
    keep one.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self._lock = threading.RLock()
        self._buffer: list[str] = []
        self._flush_by = 0.0  # monotonic time the oldest buffered line is due out
        self._ring: Optional[list[_Segment]] = None  # oldest first
        self._open: Optional[_Segment] = None  # the segment this process appends to

    # -- write side --------------------------------------------------------

    def append(self, line: str) -> None:
        """Buffer one encoded line (no newline); it is written out with
        the buffer, at the latest by the next :meth:`flush`."""
        now = time.monotonic()
        with self._lock:
            if not self._buffer:
                self._flush_by = now + BUFFER_SECONDS
            self._buffer.append(line)
            if len(self._buffer) >= BUFFER_RECORDS or now >= self._flush_by:
                self.flush()

    def flush(self) -> None:
        """Move the buffer into the open segment. The buffer is handed
        over before the write, so a failing write loses those records
        rather than growing the buffer."""
        with self._lock:
            pending, self._buffer = self._buffer, []
            while pending:
                segment = self._open
                if segment is None or segment.count >= SEGMENT_RECORDS:
                    segment = self._open = self._rotate()
                chunk = pending[: SEGMENT_RECORDS - segment.count]
                pending = pending[len(chunk):]
                if segment.lines is not None:
                    segment.lines.extend(chunk)
                else:
                    with open(self._path(segment), "a", encoding="ascii") as handle:
                        handle.write("\n".join(chunk) + "\n")
                segment.count += len(chunk)

    def _rotate(self) -> _Segment:
        """Open the next segment; at the ring bound the oldest goes whole."""
        ring = self._segments()
        number = ring[-1].number + 1 if ring else 1
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        ring.append(_Segment(number, 0, [] if self.directory is None else None))
        while len(ring) > MAX_SEGMENTS:
            oldest = ring.pop(0)
            self._dropped(oldest)
            if oldest.lines is None:
                self._path(oldest).unlink(missing_ok=True)
        return ring[-1]

    def _dropped(self, segment: _Segment) -> None:
        """*segment* is about to leave the ring (the span store counts it)."""

    # -- the ring (callers hold the lock) ------------------------------------

    def _path(self, segment: _Segment) -> Path:
        return self.directory / f"seg-{segment.number:08d}.jsonl"

    def _segments(self) -> list[_Segment]:
        """The ring, oldest first; the directory is listed on first use."""
        if self._ring is None:
            found = self.directory.glob("seg-*.jsonl") if self.directory is not None else ()
            numbers = sorted(int(path.stem[4:]) for path in found)
            self._ring = [_Segment(number, None) for number in numbers]
        return self._ring

    def _read(self, segment: _Segment) -> list[str]:
        """The complete lines of *segment*: a torn last line is not one."""
        if segment.lines is not None:
            return list(segment.lines)
        try:
            text = self._path(segment).read_text(encoding="ascii", errors="replace")
        except FileNotFoundError:  # rotated away by another ring on this directory
            return []
        return text.split("\n")[:-1]

    def _count(self, segment: _Segment) -> int:
        if segment.count is None:
            segment.count = len(self._read(segment))
        return segment.count

    # -- read side ---------------------------------------------------------

    def records(self, newest: int = 0) -> Iterator[dict]:
        """Every retained record, oldest first, buffered ones included;
        with *newest*, only those of the newest that many segments."""
        with self._lock:
            self.flush()
            ring = self._segments()
            ring = ring[-newest:] if newest else ring
            lines = [line for segment in ring for line in self._read(segment)]
        return _parse_lines(lines)

    def __len__(self) -> int:
        """Records retained, the write-behind buffer included."""
        with self._lock:
            return sum(self._count(s) for s in self._segments()) + len(self._buffer)


class SpanStore(SegmentRing):
    """Span sink appending to a :class:`SegmentRing`; also the query side.

    Instances are callable so they plug directly into
    :func:`repro.obs.trace.add_sink`.
    """

    def __call__(self, record: dict) -> None:
        """Buffer one finished span record (the sink protocol)."""
        self.append(_encode(record))

    def _dropped(self, segment: _Segment) -> None:
        # history leaves by age, whole segments at a time: the ring's
        # bound is its retention (about a minute at direct_tcp's rate)
        obs_metrics.counter("obs.spans_dropped").inc(self._count(segment))

    def _spans(self, newest: int = 0) -> Iterator[dict]:
        """Every retained span record (see :meth:`records`), defaults filled in."""
        for fields in self.records(newest):
            yield {**_DEFAULTS, "attrs": {}, "events": [], **fields}

    def recent(self) -> list[dict]:
        """The spans of the newest RECENT_SEGMENTS segments, newest last:
        the bounded read a serving node's flight recorder makes."""
        return list(self._spans(RECENT_SEGMENTS))

    def spans_for_trace(self, trace_id: str) -> list[dict]:
        """Every span of *trace_id*, as records, ordered by start time."""
        records = (r for r in self._spans() if r["trace_id"] == trace_id)
        return sorted(records, key=lambda r: (r["start_epoch"], r["span_id"]))

    def trace_ids(self) -> list[str]:
        """Distinct trace IDs, most recently started first."""
        latest: dict[str, float] = {}
        for record in self._spans():
            if record["start_epoch"] >= latest.get(record["trace_id"], record["start_epoch"]):
                latest[record["trace_id"]] = record["start_epoch"]
        return sorted(latest, key=lambda tid: -latest[tid])

    def slowest(self, limit: int = 10, name: str = "") -> list[dict]:
        """The *limit* longest spans (optionally only those whose name
        starts with *name*), as records, slowest first."""
        records = (r for r in self._spans() if r["name"].startswith(name))
        return sorted(records, key=lambda r: -r["duration_seconds"])[:limit]

    def grep(self, needle: str, limit: int = 50) -> list[dict]:
        """Spans whose name, attrs, events, or error type contain *needle*
        (case-insensitive substring), newest first."""
        want = needle.lower()
        hits = [
            r for r in self._spans()
            if want in _dumps([r["name"], r["error_type"], r["attrs"], r["events"]]).lower()
        ]
        return sorted(hits, key=lambda r: -r["start_epoch"])[:limit]


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
