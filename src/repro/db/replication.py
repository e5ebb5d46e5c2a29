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

The log lives entirely in memory: its contents are exactly the WAL
lines since the last snapshot, which recovery would replay from disk
anyway, so a primary restart rebuilds an equivalent stream position
from durable state alone.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.db import integrity

__all__ = ["ReplicationLog", "FETCH_OK", "FETCH_RESYNC"]

FETCH_OK = "ok"
FETCH_RESYNC = "resync"

#: retention guard — a primary that never checkpoints would otherwise
#: grow the log without bound; past this many records the oldest are
#: dropped and slow standbys are forced into a snapshot resync.
_MAX_RETAINED = 100_000


class ReplicationLog:
    """In-memory, condition-guarded tail of committed journal lines."""

    def __init__(self, epoch: int, base_seq: int) -> None:
        self._cond = threading.Condition()
        self._epoch = int(epoch)
        self._base_seq = int(base_seq)  # records held: base_seq+1 .. base_seq+len
        self._records: list[bytes] = []

    # -- primary side -------------------------------------------------------

    def append(self, epoch: int, seq: int, payload: bytes) -> None:
        """Record one committed journal line. Caller (the database, under
        its I/O lock) guarantees *seq* is contiguous within *epoch*."""
        with self._cond:
            if epoch != self._epoch:
                # the database bumped its epoch (checkpoint) without
                # calling reset() first — treat as an implicit reset
                self._epoch = int(epoch)
                self._base_seq = int(seq) - 1
                self._records = []
            self._records.append(payload)
            if len(self._records) > _MAX_RETAINED:
                overflow = len(self._records) - _MAX_RETAINED
                del self._records[:overflow]
                self._base_seq += overflow
            self._cond.notify_all()

    def reset(self, epoch: int, base_seq: int) -> None:
        """Start a new epoch (checkpoint on the primary, or a state load
        on a standby that may later be promoted)."""
        with self._cond:
            self._epoch = int(epoch)
            self._base_seq = int(base_seq)
            self._records = []
            self._cond.notify_all()

    # -- standby side -------------------------------------------------------

    def position(self) -> tuple[int, int]:
        """``(epoch, last_seq)`` of the newest record the log covers."""
        with self._cond:
            return self._epoch, self._base_seq + len(self._records)

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
                last = self._base_seq + len(self._records)
                if from_seq >= last:
                    self._cond.wait(timeout)
            last = self._base_seq + len(self._records)
            if epoch != self._epoch or from_seq < self._base_seq:
                return FETCH_RESYNC, self._epoch, last, []
            start = from_seq - self._base_seq
            chunk = self._records[start : start + max_records]
            # verify each frame before shipping: a record damaged after
            # commit (bit rot in this process's heap is unlikely, but the
            # bytes may have been re-read from a damaged WAL) must raise
            # CorruptionError on the serving side, never stream garbage
            # a standby would then durably append
            records = []
            for i, payload in enumerate(chunk):
                integrity.parse_record(payload.rstrip(b"\n"), seq=from_seq + i + 1)
                records.append([from_seq + i + 1, payload])
            return FETCH_OK, self._epoch, last, records

    def __len__(self) -> int:
        with self._cond:
            return len(self._records)
