"""Replication log: the stream a primary ships to its standbys.

The log retains every committed journal line since the last snapshot,
tagged with the snapshot epoch it belongs to and its 1-based sequence
number within that epoch. A standby streams ``(epoch, seq, payload)``
records and replays each payload through the exact recovery path used
after a crash (:meth:`repro.db.database.Database.apply_replicated`), so
replica state — including the replica's own WAL file — is byte-identical
to the primary's by construction.

Epoch rules:

* The epoch identifies *which snapshot* the sequence numbers are
  relative to. A checkpoint on the primary truncates the WAL, bumps the
  epoch, and resets the log; a standby polling with the old epoch gets
  a ``resync`` answer and re-bootstraps from a fresh state dump.
* A standby whose requested ``from_seq`` predates the log's base (the
  log was attached after some lines were already written, or reset by a
  checkpoint) also gets ``resync`` — the log never invents history.

The log holds no journal bytes of its own. It is an index — the byte
offset at which each retained record ends — over the journal the
database already wrote: ``wal.gbdb`` for a persistent home, read back
through the same storage shim the writer uses, or the
:class:`MemoryJournal` an in-memory database appends to instead. What
:meth:`ReplicationLog.fetch` verifies and ships is therefore what is on
disk, and a primary that goes a long time between checkpoints grows by
eight bytes a commit, not by the commit.
"""

from __future__ import annotations

import threading
from array import array
from typing import Callable, Optional

from repro.db import integrity

__all__ = ["ReplicationLog", "MemoryJournal", "FETCH_OK", "FETCH_RESYNC"]

FETCH_OK = "ok"
FETCH_RESYNC = "resync"

#: retention guard for a journal held in RAM — a :class:`MemoryJournal`
#: nobody checkpoints would otherwise grow without bound; past this many
#: records the oldest are dropped and slow standbys are forced into a
#: snapshot resync. A journal on disk is bounded by the checkpoint alone.
_MAX_RETAINED = 100_000


class MemoryJournal:
    """The journal of a database with no storage path: the same framed
    lines a WAL would hold, addressed by the same absolute offsets."""

    def __init__(self) -> None:
        self._data = bytearray()
        self._start = 0  # offset of _data[0]; grows as the head is discarded

    def write(self, payload: bytes) -> int:
        """Append one line; returns the offset of its first byte."""
        self._data += payload
        return self._start + len(self._data) - len(payload)

    def read(self, offset: int, length: int) -> bytes:
        at = offset - self._start
        return bytes(self._data[at : at + length])

    def discard(self, offset: int) -> None:
        """Drop everything before *offset*."""
        del self._data[: offset - self._start]
        self._start = offset

    def truncate(self) -> None:
        """Start over at offset 0, as reopening a WAL with ``"wb"`` does."""
        self._data.clear()
        self._start = 0


class ReplicationLog:
    """Condition-guarded index over the committed tail of a journal.

    *read* is ``read(offset, length) -> bytes`` over that journal and
    *start* the offset at which the first record after *base_seq* will
    begin. *discard*, given only for a journal held in RAM, is how the
    log hands back bytes it no longer indexes — and what makes it apply
    ``_MAX_RETAINED``.
    """

    def __init__(
        self,
        epoch: int,
        base_seq: int,
        read: Callable[[int, int], bytes],
        start: int = 0,
        discard: Optional[Callable[[int], None]] = None,
    ) -> None:
        self._cond = threading.Condition()
        self._read = read
        self._discard = discard
        self._epoch = int(epoch)
        self._base_seq = int(base_seq)  # records held: base_seq+1 .. base_seq+len
        # _ends[i] is where record base_seq+i ends, so record base_seq+i+1
        # is the bytes [_ends[i], _ends[i+1]); _ends[0] is the tail's start
        self._ends = array("q", [start])

    # -- primary side -------------------------------------------------------

    def append(self, epoch: int, seq: int, start: int, length: int) -> None:
        """Record one committed journal line, already written and flushed
        at ``[start, start + length)``. Caller (the database, under its
        I/O lock) guarantees *seq* is contiguous within *epoch*."""
        with self._cond:
            if epoch != self._epoch:
                # the database bumped its epoch (checkpoint) without
                # calling reset() first — treat as an implicit reset
                self._epoch = int(epoch)
                self._base_seq = int(seq) - 1
                self._ends = array("q", [start])
            self._ends.append(start + length)
            overflow = len(self._ends) - 1 - _MAX_RETAINED
            if self._discard is not None and overflow > 0:
                del self._ends[:overflow]
                self._base_seq += overflow
                self._discard(self._ends[0])
            self._cond.notify_all()

    def reset(self, epoch: int, base_seq: int) -> None:
        """Start a new epoch (checkpoint on the primary, or a state load
        on a standby that may later be promoted) over a journal about to
        be truncated to nothing. The database calls this *before* it
        truncates, so a fetch — which reads under the same condition —
        sees either the old bytes or the new epoch, never a journal cut
        from under it."""
        with self._cond:
            self._epoch = int(epoch)
            self._base_seq = int(base_seq)
            self._ends = array("q", [0])
            self._cond.notify_all()

    # -- standby side -------------------------------------------------------

    def fetch(
        self,
        epoch: int,
        from_seq: int,
        max_records: int = 256,
        timeout: float = 0.0,
    ) -> tuple[str, int, int, list]:
        """Long-poll for records after ``(epoch, from_seq)``.

        Returns ``(status, epoch, last_seq, records)`` where *records*
        is a list of ``[seq, payload]`` pairs. ``status`` is
        :data:`FETCH_RESYNC` when the caller's position cannot be served
        from the log (wrong epoch, or history already dropped) — the
        caller must re-bootstrap from a snapshot.
        """
        max_records = max(int(max_records), 1)
        with self._cond:
            if timeout > 0.0 and epoch == self._epoch:
                if from_seq >= self._base_seq + len(self._ends) - 1:
                    self._cond.wait(timeout)
            last = self._base_seq + len(self._ends) - 1
            if epoch != self._epoch or from_seq < self._base_seq:
                return FETCH_RESYNC, self._epoch, last, []
            first = from_seq - self._base_seq
            ends = self._ends[first : first + max_records + 1]
            if len(ends) < 2:
                return FETCH_OK, self._epoch, last, []
            data = self._read(ends[0], ends[-1] - ends[0])
            # verify each frame before shipping: these are the bytes the
            # journal holds now, and a record damaged since its commit
            # (bit rot, a bad sector) must raise CorruptionError on the
            # serving side, never stream garbage a standby would then
            # durably append
            records = []
            for i in range(len(ends) - 1):
                payload = data[ends[i] - ends[0] : ends[i + 1] - ends[0]]
                integrity.parse_record(payload.rstrip(b"\n"), seq=from_seq + i + 1)
                records.append([from_seq + i + 1, payload])
            return FETCH_OK, self._epoch, last, records
