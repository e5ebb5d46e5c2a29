"""Storage integrity: CRC framing, snapshot manifests, scanning, repair.

The ledger is only as trustworthy as its bytes. This module gives the
database substrate an end-to-end integrity format:

* **WAL framing** — every journal line is wrapped as
  ``GB1 <payload-len> <crc32-hex8> <payload>\\n``. The CRC covers the
  payload bytes; the length makes truncation detectable even when the
  damaged bytes happen to contain a newline. A line without the
  frame is corruption like any other: no byte is accepted unverified.
* **Snapshot manifest** — a snapshot file carries its own whole-file
  checksum and record count in a first-line header:
  ``GBSNAP1 <payload-len> <crc32-hex8> <record-count>\\n<payload>``.
  Embedding the manifest *inside* the file (rather than a sidecar)
  means a single atomic rename publishes payload and manifest together
  — there is no crash window where they can disagree.
* **Torn-tail vs corruption policy** — a final WAL line without a
  terminating newline is a *torn tail*: an expected artifact of
  crashing mid-append, tolerated and truncated. A newline-*terminated*
  line that fails its frame, CRC, or decode is *corruption*: bytes
  that were once durable no longer verify, so recovery must stop,
  quarantine the damaged suffix, and raise a typed
  :class:`~repro.errors.CorruptionError` rather than replay garbage.
* **Atomic publication** — :func:`atomic_write` (tmp + flush + fsync +
  ``os.replace`` + parent-directory fsync) so a crash mid-write can
  never leave a half-written file as the only copy.
* **One reader** — :func:`verify_dir` reads a database directory for
  recovery, ``fsck`` and the scrubber alike, so a directory one of them
  refuses is refused by all of them. It streams the WAL and the
  snapshot, checking every frame and snapshot row before recovery
  applies a row, and holds one line plus the snapshot's raw bytes. Nothing outside :mod:`repro.db` names these
  files (``tools/check_no_print.py`` holds that line).
* **Scrubbing** — :class:`Scrubber` re-verifies cold bytes on an
  interval so latent corruption (bit rot under a page that is never
  read) is found before a failover depends on it.

Observability imports are deliberately lazy: ``repro.obs`` imports this
package at module load (``obs.store`` persists via ``db.database``), so
a top-level ``from repro.obs import metrics`` here would be circular.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, Optional, Tuple, Union

from repro.db.faultfs import crashpoint
from repro.errors import CorruptionError, ValidationError
from repro.util.runner import Runner
from repro.util.serialize import canonical_load_at, canonical_loads

__all__ = [
    "SNAPSHOT_NAME",
    "WAL_NAME",
    "EPOCH_NAME",
    "QUARANTINE_NAME",
    "MARKER_NAME",
    "crc32_hex",
    "frame_record",
    "parse_record",
    "scan_wal",
    "WalScan",
    "encode_snapshot",
    "decode_snapshot",
    "snapshot_tables",
    "atomic_write",
    "fsync_dir",
    "parse_epoch",
    "write_epoch",
    "read_dir",
    "verify_dir",
    "IntegrityReport",
    "set_aside_snapshot",
    "quarantine_wal_suffix",
    "read_marker",
    "clear_marker",
    "Scrubber",
]

# Canonical on-disk names, shared with Database and the tests.
SNAPSHOT_NAME = "snapshot.gbdb"
WAL_NAME = "wal.gbdb"
EPOCH_NAME = "epoch.gbdb"
QUARANTINE_NAME = "wal.quarantine.gbdb"
MARKER_NAME = "CORRUPT.gbdb"

_WAL_MAGIC = b"GB1"
_SNAP_MAGIC = b"GBSNAP1"


def crc32_hex(payload: bytes) -> bytes:
    """CRC32 of ``payload`` as 8 lowercase hex bytes (fixed width so the
    frame header length is predictable)."""
    return b"%08x" % (zlib.crc32(payload) & 0xFFFFFFFF)


def frame_record(payload: bytes) -> bytes:
    """Wrap one WAL payload in the ``GB1`` length+CRC frame.

    The payload must be newline-free (canonical JSON is); the frame adds
    the single record-terminating newline itself.
    """
    if b"\n" in payload:
        raise ValidationError("WAL payload must not contain newlines")
    return b"%s %d %s %s\n" % (_WAL_MAGIC, len(payload), crc32_hex(payload), payload)


def _bad_record(seq: int, offset: int, why: str) -> CorruptionError:
    return CorruptionError(f"WAL record {seq} at offset {offset}: {why}", seq=seq, offset=offset)


def parse_record(line: bytes, seq: int = -1, offset: int = -1) -> bytes:
    """Verify one newline-stripped WAL line's frame and return its payload.

    Anything that does not verify — bad magic (a bare JSON line
    included), bad length, bad CRC — raises :class:`CorruptionError`
    carrying ``seq``/``offset``.
    """
    if not line.startswith(_WAL_MAGIC + b" "):
        raise _bad_record(seq, offset, "unrecognized framing")
    parts = line.split(b" ", 3)
    if len(parts) != 4:
        raise _bad_record(seq, offset, "truncated frame header")
    _, length_b, crc_b, payload = parts
    try:
        length = int(length_b)
    except ValueError:
        raise _bad_record(seq, offset, "unparsable frame length") from None
    if length != len(payload):
        raise _bad_record(seq, offset, f"length mismatch (header {length}, actual {len(payload)})")
    if crc_b != crc32_hex(payload):
        raise _bad_record(seq, offset, "CRC32 mismatch")
    return payload


@dataclass
class WalScan:
    """What one walk over a WAL verified: ``records`` lines (frame, CRC
    and, if the walk decoded, the decode) making up the ``valid_bytes``
    prefix recovery truncates the file to; ``torn_bytes`` dropped as a
    torn tail (no terminating newline); or the ``corruption`` where a
    *complete* line failed and the walk stopped (seq = 1-based record
    number, ``base_seq``-offset; offset = the line's byte position)."""

    records: int = 0
    valid_bytes: int = 0
    torn_bytes: int = 0
    corruption: Optional[CorruptionError] = None


def scan_wal(wal: Union[bytes, BinaryIO], base_seq: int = 0,
             apply: Optional[Callable[[list], None]] = None) -> WalScan:
    """Walk a WAL (a binary file, rewound here, or its bytes) a line at
    a time, checking each newline-terminated line's frame; with *apply*,
    also decode it and hand the entry's ops to *apply* before reading
    on. Only the *final, unterminated* line may fail without being
    corruption. ``base_seq`` offsets the reported seq to the global one."""
    if isinstance(wal, bytes):
        wal = io.BytesIO(wal)
    wal.seek(0)
    scan = WalScan()
    for line in wal:
        if not line.endswith(b"\n"):  # no terminating newline: torn tail, not corruption
            scan.torn_bytes = len(line)
            break
        seq, offset = base_seq + scan.records + 1, scan.valid_bytes
        try:
            payload = parse_record(line[:-1], seq=seq, offset=offset)
            if apply is not None:
                try:
                    entry = canonical_loads(payload)
                except ValidationError as exc:
                    raise _bad_record(seq, offset, f"undecodable payload ({exc})") from exc
                if not isinstance(entry, dict) or "ops" not in entry:
                    raise _bad_record(seq, offset, "payload is not a journal entry")
                apply(entry["ops"])
        except CorruptionError as exc:
            scan.corruption = exc
            break
        scan.records += 1
        scan.valid_bytes += len(line)
    return scan


def encode_snapshot(payload: bytes, records: int) -> bytes:
    """Prefix ``payload`` with the ``GBSNAP1`` manifest header."""
    return b"%s %d %s %d\n%s" % (
        _SNAP_MAGIC, len(payload), crc32_hex(payload), records, payload,
    )


def decode_snapshot(data: bytes) -> Tuple[memoryview, int]:
    """Verify a snapshot file's manifest; return ``(payload, records)``,
    the payload a view into *data*, not a copy.

    An empty file decodes as an empty payload with ``records == -1``
    (unknown). A missing or mismatching manifest raises
    :class:`CorruptionError`.
    """
    if not data:
        return memoryview(data), -1
    if not data.startswith(_SNAP_MAGIC + b" "):
        raise CorruptionError("snapshot: unrecognized header magic")
    header_end = data.find(b"\n")
    if header_end < 0:
        raise CorruptionError("snapshot: truncated manifest header")
    parts = data[:header_end].split(b" ")
    if len(parts) != 4:
        raise CorruptionError("snapshot: malformed manifest header")
    try:
        length = int(parts[1])
        records = int(parts[3])
    except ValueError:
        raise CorruptionError("snapshot: unparsable manifest header") from None
    payload = memoryview(data)[header_end + 1:]
    if length != len(payload):
        raise CorruptionError(
            f"snapshot: length mismatch (manifest {length}, actual {len(payload)})"
        )
    if parts[2] != crc32_hex(payload):
        raise CorruptionError("snapshot: whole-file CRC32 mismatch")
    return payload, records


#: payload bytes decoded to text at a time; a longer row widens the window
_SNAPSHOT_WINDOW = 1 << 16


class _SnapshotText:
    """A cursor over a snapshot payload that decodes one canonical value
    at a time from a window of its text, so a walk holds the payload's
    bytes and one window, never the whole text or every decoded row.
    Anything but the canonical layout is corruption."""

    def __init__(self, payload: memoryview) -> None:
        self._payload, self._read = payload, 0
        self._text, self._pos = "", 0

    def corrupt(self, why: str) -> CorruptionError:
        at = self._read - len(self._text) + self._pos
        return CorruptionError(f"snapshot: undecodable ({why} at byte {at})")

    def _widen(self) -> bool:
        """Append the next payload bytes to the window; False at the end."""
        if self._read >= len(self._payload):
            return False
        size = max(_SNAPSHOT_WINDOW, len(self._text) - self._pos)
        try:
            chunk = str(self._payload[self._read:self._read + size], "ascii")
        except UnicodeDecodeError:
            raise self.corrupt("non-ASCII byte") from None
        self._text, self._pos = self._text[self._pos:] + chunk, 0
        self._read += size
        return True

    def peek(self) -> str:
        """The next character, or "" at the end of the payload."""
        if self._pos == len(self._text) and not self._widen():
            return ""
        return self._text[self._pos]

    def take(self, chars: str) -> str:
        char = self.peek()
        if not char or char not in chars:
            raise self.corrupt(f"expected one of {chars!r}")
        self._pos += 1
        return char

    def value(self, kind: type) -> Any:
        """Decode the value at the cursor, which must be a *kind*."""
        while True:
            try:
                value, self._pos = canonical_load_at(self._text, self._pos)
                break
            except ValidationError as exc:
                if not self._widen():
                    raise self.corrupt(str(exc)) from None
        if type(value) is not kind:
            raise self.corrupt(f"a {type(value).__name__} where a {kind.__name__} belongs")
        return value

    def items(self, opener: str, closer: str) -> Iterator[None]:
        """Walk ``opener item,item closer``, yielding with the cursor at
        each item for the caller to consume."""
        self.take(opener)
        if self.peek() == closer:
            self.take(closer)
            return
        yield
        while self.take("," + closer) == ",":
            yield


def snapshot_tables(payload: memoryview) -> Iterator[Tuple[str, Iterator[dict]]]:
    """Each table of a snapshot payload as ``(name, rows)``, in order,
    the rows decoded one at a time as taken: what ``canonical_loads``
    makes of the payload, without holding it all. Raises
    :class:`CorruptionError` at the first byte out of canonical layout."""
    text = _SnapshotText(payload)
    if not text.peek():
        return
    for _ in text.items("{", "}"):
        name = text.value(str)
        text.take(":")
        rows = (text.value(dict) for _ in text.items("[", "]"))
        yield name, rows
        for _ in rows:  # the rows a loader left, so the cursor reaches the next table
            pass
    if text.peek():
        raise text.corrupt("trailing data")


def fsync_dir(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Best-effort: some platforms/filesystems refuse O_RDONLY directory
    fds; the rename itself is still atomic there.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path: Path, data: bytes, storage=None, crash: str = "") -> None:
    """Publish ``data`` at ``path`` atomically.

    tmp file + flush + fsync + ``os.replace`` + parent-dir fsync: a
    crash at any point leaves either the old complete file or the new
    complete file, never a torn hybrid. ``storage`` (a
    :class:`~repro.db.faultfs.FaultyStorage`-compatible shim) lets the
    fault plan intercept the write path in tests; a *crash* prefix
    names the ``<crash>.pre_rename`` / ``<crash>.post_rename``
    crashpoints around the rename.
    """
    tmp = path.with_suffix(path.suffix + ".tmp")
    if storage is not None:
        handle = storage.open(tmp, "wb")
    else:
        handle = open(tmp, "wb")
    try:
        handle.write(data)
        handle.flush()
        if storage is not None:
            storage.fsync(handle)
        else:
            os.fsync(handle.fileno())
    finally:
        handle.close()
    if crash:
        crashpoint(crash + ".pre_rename")
    os.replace(tmp, path)
    fsync_dir(path.parent)
    if crash:
        crashpoint(crash + ".post_rename")


def parse_epoch(data: Optional[bytes], epoch_file: Path) -> Tuple[int, int]:
    """The epoch file's ``<epoch> <base_seq>``: which snapshot generation
    the local snapshot belongs to, and the sequence number it stands at
    (non-zero on a standby, whose snapshot is a mid-stream state dump).
    No file (``None``) is generation 1 at 0; anything but two integers
    is corruption."""
    if data is None:
        return 1, 0
    try:
        epoch_b, base_b = data.split()
        return int(epoch_b), int(base_b)
    except ValueError:
        raise CorruptionError(f"corrupt epoch file {epoch_file}: {data[:32]!r}") from None


def write_epoch(directory: Path, epoch: int, base_seq: int) -> None:
    atomic_write(Path(directory) / EPOCH_NAME, b"%d %d" % (epoch, base_seq))


@dataclass
class IntegrityReport:
    """What :func:`verify_dir` found in one database directory: what
    verified, or the first thing that failed."""

    corruption: Optional[CorruptionError] = None
    corruption_source: str = ""  # "", "marker", "epoch", "snapshot", "wal"
    epoch: int = 1
    base_seq: int = 0
    snapshot_records: int = -1
    snapshot_bytes: int = 0
    wal: WalScan = field(default_factory=WalScan)
    wal_bytes: int = 0

    @property
    def ok(self) -> bool:
        return self.corruption is None

    @property
    def wal_records(self) -> int:
        return self.wal.records

    def describe(self) -> str:
        if self.ok:
            extra = f", torn tail {self.wal.torn_bytes}B" if self.wal.torn_bytes else ""
            return (
                f"clean: snapshot {self.snapshot_records} record(s) "
                f"({self.snapshot_bytes}B), wal {self.wal_records} record(s) "
                f"({self.wal_bytes}B){extra}"
            )
        return f"CORRUPT ({self.corruption_source}): {self.corruption}"

    def failed(self, source: str, error: CorruptionError) -> "IntegrityReport":
        self.corruption_source, self.corruption = source, error
        return self


def _read_or_none(path: Path) -> Optional[bytes]:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def read_dir(directory: Path) -> tuple:
    """The raw contents :func:`verify_dir` checks: ``(marker, epoch,
    snapshot, wal)``, each ``None`` when absent, the WAL as a file over
    its bytes. Nothing is decoded, so a caller that must keep writers
    out while it reads (a live database) holds its lock for this only."""
    directory = Path(directory)
    marker, epoch, snapshot, wal = (read_marker(directory),) + tuple(
        _read_or_none(directory / name) for name in (EPOCH_NAME, SNAPSHOT_NAME, WAL_NAME)
    )
    return marker, epoch, snapshot, None if wal is None else io.BytesIO(wal)


def verify_dir(directory: Path, contents: Optional[tuple] = None,
               load: Optional[Callable[[str, Iterator[dict]], None]] = None,
               apply: Optional[Callable[[list], None]] = None) -> IntegrityReport:
    """Read and verify one database directory — the one reader behind
    recovery, ``gridbank fsck``, ``verify_storage`` and the scrubber.

    Read-only. Checks, in order, the refusal marker, the epoch file,
    the snapshot manifest (length, CRC, and its record count against
    the rows a walk of the payload decodes) and every WAL line — walked
    a line at a time, checking every frame, then decoding each — and
    stops at the first failure with its exact seq/offset. Only if every
    frame verified does a second walk of the snapshot hand *load* each
    table's rows (each decoded as taken) and the decoding walk of the
    WAL *apply* each entry's ops; a line that does not decode stops it,
    for the caller to discard what was applied. *contents* is a
    :func:`read_dir` the caller already took; by default the WAL is
    streamed from disk."""
    directory = Path(directory)
    if contents is None:
        wal_file = directory / WAL_NAME
        contents = (read_marker(directory), _read_or_none(directory / EPOCH_NAME),
                    _read_or_none(directory / SNAPSHOT_NAME),
                    open(wal_file, "rb") if wal_file.exists() else None)
    marker, epoch_data, snapshot_data, wal = contents
    contents = None  # so the snapshot's bytes go once loaded
    with wal or contextlib.nullcontext():
        report = IntegrityReport()
        if marker is not None:
            return report.failed("marker", CorruptionError(
                f"unresolved corruption marker: {marker.get('reason', 'unknown')}",
                seq=marker.get("seq", -1), offset=marker.get("offset", -1),
            ))
        try:
            report.epoch, report.base_seq = parse_epoch(epoch_data, directory / EPOCH_NAME)
        except CorruptionError as exc:
            return report.failed("epoch", exc)

        payload = memoryview(b"")
        if snapshot_data is not None:
            report.snapshot_bytes = len(snapshot_data)
            try:
                payload, records = decode_snapshot(snapshot_data)
                loaded = sum(1 for _, rows in snapshot_tables(payload) for _ in rows)
                if records >= 0 and records != loaded:
                    raise CorruptionError(
                        f"snapshot: manifest promises {records} record(s), decoded {loaded}"
                    )
            except CorruptionError as exc:
                return report.failed("snapshot", exc)
            report.snapshot_records = records
            snapshot_data = None  # the payload view holds the bytes until they are loaded

        framed = wal is None or scan_wal(wal, report.base_seq).corruption is None
        for name, rows in snapshot_tables(payload) if framed and load is not None else ():
            load(name, rows)
        payload = None
        if wal is not None:
            report.wal_bytes = wal.seek(0, io.SEEK_END)
            report.wal = scan_wal(wal, report.base_seq,
                                  apply if framed and apply else lambda ops: None)
            if report.wal.corruption is not None:
                return report.failed("wal", report.wal.corruption)
        return report


def set_aside_snapshot(directory: Path) -> None:
    """Move the snapshot aside together with the WAL and epoch file
    written against it — the WAL's records are relative to that
    snapshot, so neither is worth anything alone. Like the quarantine
    file they keep their bytes for forensics, as ``*.discarded.gbdb``,
    and are never deleted automatically; the directory then recovers
    as an empty generation 1."""
    directory = Path(directory)
    for name in (SNAPSHOT_NAME, WAL_NAME, EPOCH_NAME):
        try:
            os.replace(directory / name, directory / name.replace(".gbdb", ".discarded.gbdb"))
        except FileNotFoundError:
            pass
    fsync_dir(directory)


def quarantine_wal_suffix(directory: Path, error: CorruptionError,
                          valid_bytes: int) -> int:
    """Preserve the damaged WAL suffix and leave a refusal marker.

    The suffix from the first bad byte onward moves to
    ``wal.quarantine.gbdb`` (forensics — never deleted automatically),
    the WAL is truncated to its verified prefix, and ``CORRUPT.gbdb``
    records what happened. Recovery refuses to run while the marker
    exists: an operator (or ``fsck --repair``) must decide whether the
    quarantined records can be restored from a peer before the node
    serves traffic on a silently shortened history. Returns how many
    bytes were quarantined.
    """
    directory = Path(directory)
    with open(directory / WAL_NAME, "a+b") as handle:
        suffix = handle.seek(0, io.SEEK_END) - valid_bytes
        if suffix:
            handle.seek(valid_bytes)
            with open(directory / QUARANTINE_NAME, "wb") as quarantine:
                shutil.copyfileobj(handle, quarantine)
        handle.truncate(valid_bytes)
        handle.flush()
        os.fsync(handle.fileno())
    write_marker(directory, str(error), error.seq, error.offset,
                 quarantined_bytes=suffix)
    return suffix


def write_marker(directory: Path, reason: str, seq: int = -1, offset: int = -1,
                 **extra) -> None:
    """Leave the refusal marker: recovery refuses while it stands."""
    marker = {"reason": reason, "seq": seq, "offset": offset, **extra}
    atomic_write(Path(directory) / MARKER_NAME,
                 json.dumps(marker, sort_keys=True).encode("utf-8"))


def read_marker(directory: Path) -> Optional[dict]:
    marker_file = Path(directory) / MARKER_NAME
    if not marker_file.exists():
        return None
    try:
        loaded = json.loads(marker_file.read_text("utf-8"))
        return loaded if isinstance(loaded, dict) else {"reason": "unparsable marker"}
    except (ValueError, OSError):
        return {"reason": "unparsable marker"}


def clear_marker(directory: Path) -> None:
    """Remove the corruption marker (quarantine file is kept for forensics)."""
    marker_file = Path(directory) / MARKER_NAME
    try:
        marker_file.unlink()
    except FileNotFoundError:
        pass
    fsync_dir(Path(directory))


class Scrubber:
    """Re-verifies cold storage bytes every ``interval`` seconds.

    Latent corruption — a flipped bit under a page nobody reads — is
    only dangerous if it is discovered *during* a recovery or failover,
    when the healthy copy may already be gone. One :meth:`step` calls
    ``scrub()`` (typically ``Database.scrub_once``) and hands a detected
    corruption to ``on_corruption`` (e.g. ``ClusterNode.repair``); the
    runner keeps stepping, so a repaired node is re-checked on the next
    pass and a failed scrub or repair is counted, not lost.
    """

    def __init__(self, scrub: Callable[[], None], interval: float = 30.0,
                 on_corruption: Optional[Callable[[CorruptionError], None]] = None) -> None:
        self._scrub = scrub
        self._on_corruption = on_corruption
        self._runner = Runner("gridbank-scrubber", self.step, max(0.05, float(interval)))

    def start(self) -> None:
        self._runner.start()

    def stop(self) -> None:
        self._runner.stop()

    def step(self) -> None:
        """One scrub pass; whatever the scrub or the repair raises
        propagates (the runner counts it under ``runner.step_errors``)."""
        try:
            self._scrub()
        except CorruptionError as exc:
            if self._on_corruption is None:
                raise
            self._on_corruption(exc)
