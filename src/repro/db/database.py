"""The database: named tables, ACID-ish transactions, WAL persistence.

Transactions collect *undo* closures (for rollback) and *redo* operation
records (for the write-ahead journal). Commit appends one journal line per
transaction — crash recovery replays the snapshot plus every complete
journal line, so a transaction is either fully visible after recovery or
not at all. Nested ``transaction()`` blocks behave as savepoints: an inner
rollback undoes only the inner operations.

Concurrency model (see DESIGN.md "Concurrent bank core"):

* Transaction frames are **per thread** (``threading.local``), so many
  threads can run transactions concurrently. The internal lock guards
  individual table operations only — it is *not* held across a
  transaction block or during journal I/O.
* Commit durability goes through a **leader-based group commit**:
  committers queue their journal lines and whoever holds the flush lock
  (the *leader*) drains the whole queue into a single
  ``write()+flush()`` (plus ``fsync`` when ``durability="fsync"``),
  waking every committer in the batch only after the shared flush. An
  uncontended commit skips the queue and writes its own line directly —
  single-threaded cost is the same as without group commit. Journal
  format is unchanged — one line per transaction — so recovery replays
  batched and unbatched WALs identically.
* The database does NOT provide row locking: concurrent transactions
  writing the *same* rows must be serialized by the caller (the bank
  holds per-account striped locks across each transaction). Readers that
  race a writer may observe uncommitted state (read-uncommitted); the
  bank's read paths take the same account locks where that matters.
* WAL replay is idempotent over absolute redo ops (replace-on-insert,
  skip-missing on update/delete) so a journal line racing a checkpoint
  can never corrupt recovery.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence, Union

from repro.db import integrity
from repro.db.faultfs import crashpoint
from repro.db.query import Condition
from repro.db.schema import TableSchema
from repro.db.table import Table
from repro.errors import (
    CorruptionError,
    DatabaseError,
    DuplicateError,
    NotFoundError,
    TransactionError,
    TransactionRequiredError,
    ValidationError,
)
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.util.serialize import canonical_dumps, canonical_loads

__all__ = ["Database"]

_log = get_logger("db.integrity")
#: upper bound on the group-commit linger knob (seconds)
_MAX_LINGER = 0.002
#: most records one leader writes in a single batch while lingering
_MAX_BATCH = 128


class _TxnFrame:
    __slots__ = ("undo", "redo")

    def __init__(self) -> None:
        self.undo: list = []
        self.redo: list = []


class _CommitTicket:
    """One committer's seat in a group-commit batch."""

    __slots__ = ("event", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.error: Optional[BaseException] = None

    def wait(self) -> None:
        self.event.wait()
        if self.error is not None:
            raise DatabaseError(f"journal write failed: {self.error}") from self.error


#: returned by the uncontended fast path, where the write already happened
_COMPLETED_TICKET = _CommitTicket()
_COMPLETED_TICKET.event.set()


# WAL-path observability (the diagnosis plane, :mod:`repro.obs.diag`):
# when a hook is installed it receives ``hook(kind, seconds, batch)`` for
# each timed phase — ``commit_wait`` (a committer that took the slow
# path and waited on durability performed by a batch leader; the
# uncontended fast path never waits and is not timed), ``linger`` (the
# leader's batch-accumulation wait) and ``flush`` (the actual
# write+flush, with batch size). Disabled, every call site pays a single
# ``is not None`` check.
_wal_wait_hook = None


def set_wal_wait_hook(hook) -> None:
    """Install (or clear, with ``None``) the WAL flush-path hook."""
    global _wal_wait_hook
    _wal_wait_hook = hook


def wal_wait_hook():
    return _wal_wait_hook


def _notify_diag_corruption(exc: BaseException) -> None:
    """Tell any flight recorder a corruption latch just closed; lazy and
    fail-silent — diagnostics never alter the corruption path itself."""
    try:
        from repro.obs import diag as obs_diag

        obs_diag.notify_trigger(
            "corruption", error=type(exc).__name__, message=str(exc)
        )
    except Exception:  # noqa: BLE001
        pass


class _GroupCommitWriter:
    """Leader-based group commit: one committer flushes for the batch.

    A committer enqueues its serialized journal line, then competes for
    the flush lock. Whoever acquires it is the *leader*: it drains every
    record queued by then (its own included, plus — when a ``linger`` is
    configured — anything arriving within that bound, up to
    ``_MAX_BATCH``), hands the whole batch to ``write_batch`` for a single
    write+flush, and releases every ticket it covered. Committers that
    find their ticket already released when they get the lock were
    covered by the previous leader and return immediately.

    The batching is self-clocking: while a leader is inside a flush —
    especially an ``fsync``, which drops the GIL — later committers pile
    up behind the flush lock with their records queued, and the first
    one in becomes the leader of the accumulated batch. That is where
    the amortization comes from; crucially, an **uncontended** commit
    degenerates to the committer writing its own single record (one lock
    acquisition of overhead, no thread handoff), so single-threaded
    callers pay nothing for the concurrent case's win. The linger knob
    only adds latency to buy bigger batches and defaults to 0.
    """

    def __init__(self, write_batch, linger: float = 0.0) -> None:
        self._write_batch = write_batch
        self._linger = min(max(linger, 0.0), _MAX_LINGER)
        self._queue: deque = deque()
        self._cond = threading.Condition()
        self._flush_lock = threading.Lock()
        self._stopped = False

    def submit(self, payload: Optional[bytes]) -> _CommitTicket:
        # uncontended fast path: nothing queued, no linger, and the flush
        # lock is free right now — write our own record directly with no
        # ticket and no queue round trip, so a single-threaded committer
        # pays only one uncontended lock over a plain write
        if (
            payload is not None
            and self._linger == 0.0
            and not self._queue
            and self._flush_lock.acquire(blocking=False)
        ):
            try:
                if self._stopped:
                    raise DatabaseError("storage closed")
                hook = _wal_wait_hook
                if hook is None:
                    self._write_batch([payload])
                else:
                    started = time.perf_counter()
                    self._write_batch([payload])
                    hook("flush", time.perf_counter() - started, 1)
                return _COMPLETED_TICKET
            finally:
                self._flush_lock.release()
        # slow path: another committer holds the flush lock (or a linger
        # is configured), so this commit genuinely waits on durability
        # performed by the batch leader — the window ``commit_wait``
        # measures. The uncontended fast path above never waits and is
        # deliberately not timed: it records only its own ``flush``.
        hook = _wal_wait_hook
        started = time.perf_counter() if hook is not None else 0.0
        ticket = _CommitTicket()
        with self._cond:
            if self._stopped:
                raise DatabaseError("storage closed")
            self._queue.append((payload, ticket))
            self._cond.notify()  # wake a lingering leader; the batch grew
        with self._flush_lock:
            if not ticket.event.is_set():
                self._flush_as_leader()
        if hook is not None:
            hook("commit_wait", time.perf_counter() - started, 1)
        return ticket

    def drain(self) -> None:
        """Block until everything enqueued before this call is durable."""
        self.submit(None).wait()

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        with self._flush_lock:
            self._flush_as_leader()  # whatever a raced committer left queued

    def _flush_as_leader(self) -> None:
        """Drain the queue and flush it as one batch. Caller holds the
        flush lock; the caller's own record (if any) is still queued —
        FIFO order and the lock guarantee no one else drained it."""
        hook = _wal_wait_hook
        with self._cond:
            if self._linger > 0.0 and not self._stopped:
                started = time.perf_counter() if hook is not None else 0.0
                deadline = time.monotonic() + self._linger
                while len(self._queue) < _MAX_BATCH and not self._stopped:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        break
                    self._cond.wait(remaining)
                if hook is not None:
                    hook("linger", time.perf_counter() - started, len(self._queue))
            batch = [self._queue.popleft() for _ in range(len(self._queue))]
        error: Optional[BaseException] = None
        payloads = [payload for payload, _ in batch if payload is not None]
        if payloads:
            try:
                if hook is None:
                    self._write_batch(payloads)
                else:
                    started = time.perf_counter()
                    self._write_batch(payloads)
                    hook("flush", time.perf_counter() - started, len(payloads))
            except BaseException as exc:  # propagate to every committer
                error = exc
        for _, ticket in batch:
            ticket.error = error
            ticket.event.set()


class Database:
    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        *,
        durability: str = "flush",
        group_commit: bool = True,
        commit_linger: float = 0.0,
        storage=None,
    ) -> None:
        if durability not in ("flush", "fsync"):
            raise ValidationError("durability must be 'flush' or 'fsync'")
        self._tables: dict[str, Table] = {}
        self._lock = threading.RLock()  # guards table structure + per-op mutations
        self._io_lock = threading.Lock()  # guards the WAL handle
        self._tls = threading.local()
        self._active_txns = 0  # threads with an outermost transaction open
        self._path: Optional[Path] = Path(path) if path is not None else None
        self._wal_handle = None
        self._recovered = False
        self._durability = durability
        self._group_commit = group_commit
        self._commit_linger = commit_linger
        self._writer: Optional[_GroupCommitWriter] = None
        # replication position: journal lines committed since the last
        # snapshot, and which snapshot generation they belong to (see
        # repro.db.replication for the epoch rules)
        self._wal_seq = 0
        self._snapshot_epoch = 1
        self._replication = None  # Optional[ReplicationLog], attached lazily
        self._journal = None  # Optional[MemoryJournal]: what that log reads where there is no WAL
        # ``storage`` is a FaultyStorage-compatible shim routing file
        # opens and fsyncs through a disk fault plan in tests
        self._storage = storage
        # once a WAL write raises OSError the handle may hold a torn
        # prefix; further appends would merge into garbage, so the WAL
        # is poisoned until restart/repair (fsyncgate semantics)
        self._wal_poisoned: Optional[str] = None
        self._corruption: Optional[CorruptionError] = None

    # -- schema ---------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        with self._lock:
            if schema.name in self._tables:
                raise DuplicateError(f"table {schema.name!r} already exists")
            table = Table(schema)
            self._tables[schema.name] = table
            return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise NotFoundError(f"no table {name!r}") from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # -- transactions ----------------------------------------------------------

    def _frames(self) -> list:
        frames = getattr(self._tls, "frames", None)
        if frames is None:
            frames = self._tls.frames = []
        return frames

    @property
    def in_transaction(self) -> bool:
        """True while the *calling thread* is inside a :meth:`transaction`.

        Consumers that must commit atomically with other effects (the
        bank's reply cache writes its row in the same WAL transaction as
        the operation's ledger writes) assert on this instead of silently
        autocommitting a row that could then survive a rollback.
        """
        return bool(getattr(self._tls, "frames", None))

    def require_transaction(self, what: str) -> None:
        """Raise :class:`~repro.errors.TransactionRequiredError` unless a
        :meth:`transaction` block is open on the calling thread.

        *what* names the guarded effect for the error message. Typed (not
        a bare ``RuntimeError``) so the failure survives the RPC boundary
        as itself — the class is in :data:`repro.errors.__all__`, which is
        exactly the set the client-side envelope decoder re-raises by
        class.
        """
        if not self.in_transaction:
            raise TransactionRequiredError(
                f"{what} must run inside a database transaction"
            )

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Atomic block; nested blocks act as savepoints.

        The commit of an outermost block enqueues one journal line with
        the group-commit writer and returns only once that line is on
        disk (shared flush) — so callers may treat return as durability,
        exactly as before group commit.
        """
        frames = self._frames()
        frame = _TxnFrame()
        if not frames:
            with self._lock:
                self._active_txns += 1
        frames.append(frame)
        try:
            yield
        except BaseException:
            with self._lock:
                self._rollback_frame(frame)
            frames.pop()
            if not frames:
                with self._lock:
                    self._active_txns -= 1
            raise
        frames.pop()
        if frames:
            outer = frames[-1]
            outer.undo.extend(frame.undo)
            outer.redo.extend(frame.redo)
        else:
            try:
                self._write_journal(frame.redo)
            finally:
                with self._lock:
                    self._active_txns -= 1

    def _rollback_frame(self, frame: _TxnFrame) -> None:
        for undo in reversed(frame.undo):
            undo()

    def _record(self, undo, redo_op: Optional[dict]) -> Optional[list]:
        """Called under ``self._lock``. Returns ops to autocommit (if any)
        so the caller can journal them *after* releasing the lock — the
        commit wait must never happen while holding the table lock."""
        frames = getattr(self._tls, "frames", None)
        if frames:
            frames[-1].undo.append(undo)
            if redo_op is not None:
                frames[-1].redo.append(redo_op)
            return None
        if redo_op is not None:
            return [redo_op]
        return None

    # -- mutations ---------------------------------------------------------------

    def insert(self, table_name: str, row: dict) -> tuple:
        with self._lock:
            table = self.table(table_name)
            pk = table.insert(row)
            stored = table.get(pk)
            pending = self._record(
                lambda: table.delete(pk),
                {"op": "insert", "table": table_name, "row": stored},
            )
        if pending:
            self._write_journal(pending)
        return pk

    def update(self, table_name: str, pk: tuple, changes: dict) -> None:
        with self._lock:
            table = self.table(table_name)
            before = table.update(pk, changes)
            restore = {k: before[k] for k in changes if k in before}
            pending = self._record(
                lambda: table.update(pk, restore),
                {"op": "update", "table": table_name, "pk": list(pk), "changes": dict(changes)},
            )
        if pending:
            self._write_journal(pending)

    def delete(self, table_name: str, pk: tuple) -> None:
        with self._lock:
            table = self.table(table_name)
            removed = table.delete(pk)
            pending = self._record(
                lambda: table.insert(removed),
                {"op": "delete", "table": table_name, "pk": list(pk)},
            )
        if pending:
            self._write_journal(pending)

    def evict_lowest(self, table_name: str, column: str, n: int) -> int:
        """Delete the *n* rows lowest in ordered-index *column*; returns
        how many went.

        The one eviction step of every bounded table (reply cache, span
        store, usage rollups). Victims are picked and deleted under a
        single hold of the table lock, so two writers at the bound can
        never pick the same rows. The deletes form one record set: inside
        a transaction they join its WAL line and roll back with it;
        outside one they commit as a single line, written after the lock
        is released.
        """
        with self.transaction(), self._lock:
            table = self.table(table_name)
            victims = table.select(order_by=column, limit=n)
            for row in victims:
                self.delete(table_name, table.schema.pk_of(row))
            return len(victims)

    # -- reads --------------------------------------------------------------------

    def get(self, table_name: str, pk: tuple) -> dict:
        with self._lock:
            return self.table(table_name).get(pk)

    def find(self, table_name: str, pk: tuple) -> Optional[dict]:
        with self._lock:
            return self.table(table_name).find(pk)

    def select(
        self,
        table_name: str,
        conditions: Sequence[Condition] = (),
        order_by: Optional[str] = None,
        descending: bool = False,
        limit: Optional[int] = None,
    ) -> list[dict]:
        with self._lock:
            return self.table(table_name).select(conditions, order_by, descending, limit)

    def count(self, table_name: str, conditions: Sequence[Condition] = ()) -> int:
        with self._lock:
            return self.table(table_name).count(conditions)

    # -- persistence ----------------------------------------------------------------

    @property
    def path(self) -> Optional[Path]:
        """The storage directory (``None`` for an in-memory database)."""
        return self._path

    def _open_wal(self, wal_file: Path, mode: str):
        if self._storage is not None:
            return self._storage.open(wal_file, mode)
        return open(wal_file, mode)

    def _read_wal(self, offset: int, length: int) -> bytes:
        """What the WAL file holds at ``[offset, offset + length)`` now —
        the replication log's view of history, through the same storage
        shim the writer uses."""
        with self._open_wal(self._path / integrity.WAL_NAME, "rb") as handle:
            return os.pread(handle.fileno(), length, offset)

    def _fsync_handle(self, handle) -> None:
        if self._storage is not None:
            self._storage.fsync(handle)
        else:
            os.fsync(handle.fileno())

    def recover(self) -> int:
        """Load snapshot + journal from the storage path, verifying every byte.

        Must be called after all tables are created and before any
        writes. Returns the number of journal transactions replayed.

        The directory is read by :func:`~repro.db.integrity.verify_dir`,
        the reader ``fsck`` and the scrubber use (DESIGN §10): the epoch
        file, the snapshot's manifest (whole-file CRC32 + record count)
        and every WAL line's length+CRC32 frame are checked before the
        first row is applied; rows then load as the reader decodes them,
        so beyond its tables recovery holds one WAL line plus the
        snapshot's raw bytes, however long the history. A torn *final*
        line — the expected residue of a crash mid-append — is truncated
        away, logged, and counted (``db.wal_torn_tail``). Anything else
        that fails to verify is *corruption*: the tables are emptied,
        the damaged suffix is quarantined (``wal.quarantine.gbdb``), a
        refusal marker (``CORRUPT.gbdb``) refuses every later boot, and
        a :class:`~repro.errors.CorruptionError` with the exact
        seq/offset is raised instead of replaying garbage.
        """
        if self._path is None:
            raise DatabaseError("no storage path configured")
        with self._lock:
            if self._recovered:
                raise DatabaseError("recover() may only run once")
            self._path.mkdir(parents=True, exist_ok=True)
            # a crash mid-atomic-write can strand a *.tmp next to the
            # real file; the real file is still the complete old copy
            for stale in self._path.glob("*.tmp"):
                stale.unlink()
            report = integrity.verify_dir(self._path, load=self._load_rows, apply=self._apply_ops)
            if not report.ok:
                self._refuse(report)
            self._snapshot_epoch = report.epoch
            scan = report.wal
            wal_file = self._path / integrity.WAL_NAME
            if scan.torn_bytes:
                # expected crash residue — but never silent: count it
                # and truncate so the next append starts a clean line
                # instead of fusing with the torn bytes
                with open(wal_file, "r+b") as handle:
                    handle.truncate(scan.valid_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
                obs_metrics.counter("db.wal_torn_tail").inc()
                _log.warning(
                    "wal.torn_tail", path=str(wal_file),
                    dropped_bytes=scan.torn_bytes, kept_records=scan.records,
                )
            obs_metrics.counter("db.integrity.records_verified").inc(scan.records)
            self._wal_seq = report.base_seq + scan.records
            self._wal_handle = self._open_wal(wal_file, "ab")
            if self._group_commit:
                self._writer = _GroupCommitWriter(self._write_batch, linger=self._commit_linger)
            self._recovered = True
            return scan.records

    def _load_rows(self, table_name: str, rows) -> None:
        table = self.table(table_name)
        for row in rows:
            table.insert(row)

    def _refuse(self, report: "integrity.IntegrityReport") -> None:
        """Drop any rows loaded, then latch and raise what :meth:`recover`
        found. A damaged WAL suffix is quarantined first: the verified
        prefix stays, and the marker left behind refuses every later boot
        until an operator (or ``fsck --repair``) restores the records."""
        for table in self._tables.values():
            table.clear()
        error = report.corruption
        if report.corruption_source == "marker":
            error = CorruptionError(
                f"{error} — run `gridbank fsck` "
                "(--repair --peer ADDR to restore from a healthy peer)",
                seq=error.seq, offset=error.offset,
            )
        quarantined = 0
        if report.corruption_source == "wal":
            quarantined = integrity.quarantine_wal_suffix(
                self._path, error, report.wal.valid_bytes
            )
        self._corruption = error
        obs_metrics.counter("db.integrity.corruptions_detected").inc()
        _log.error(
            "storage.corrupt", source=report.corruption_source, path=str(self._path),
            seq=error.seq, offset=error.offset, quarantined_bytes=quarantined,
            reason=str(error),
        )
        _notify_diag_corruption(error)
        raise error

    def _apply_ops(self, ops: list[dict]) -> None:
        """Replay redo ops. Idempotent: redo values are absolute, so a
        line whose effects already landed in the snapshot (a commit racing
        a checkpoint) re-applies to the same state instead of failing."""
        for op in ops:
            table = self.table(op["table"])
            if op["op"] == "insert":
                table.insert(op["row"], replace=True)
            elif op["op"] == "update":
                try:
                    table.update(tuple(op["pk"]), op["changes"])
                except NotFoundError:
                    pass
            elif op["op"] == "delete":
                try:
                    table.delete(tuple(op["pk"]))
                except NotFoundError:
                    pass
            else:
                raise DatabaseError(f"unknown journal op {op['op']!r}")

    def _write_batch(self, payloads: Sequence[bytes]) -> None:
        """One shared write+flush for a whole group-commit batch.

        Any ``OSError`` on the way to disk — short write, failing flush,
        failing fsync — *poisons* the WAL: the handle may hold a torn
        prefix, and appending after it would fuse the next record into
        garbage, so every subsequent commit fails fast until the process
        restarts (recovery truncates the torn bytes) or a repair runs.
        """
        with self._io_lock:
            handle = self._wal_handle
            if handle is None:
                raise DatabaseError("storage closed")
            if self._wal_poisoned is not None:
                raise DatabaseError(
                    f"WAL poisoned by earlier write failure ({self._wal_poisoned}); "
                    "restart to recover"
                )
            crashpoint("db.commit.pre_write")
            start = handle.tell()
            try:
                handle.write(b"".join(payloads))
                handle.flush()
                if self._durability == "fsync":
                    self._fsync_handle(handle)
            except OSError as exc:
                self._wal_poisoned = str(exc)
                obs_metrics.counter("db.wal_write_errors").inc()
                _log.error("wal.write_failed", reason=str(exc))
                raise DatabaseError(f"journal write failed: {exc}") from exc
            crashpoint("db.commit.post_write")
            self._record_committed(payloads, start)

    def _record_committed(self, payloads: Sequence[bytes], start: int) -> None:
        """Advance the replication position past *payloads*, written
        back to back from journal offset *start*. Caller holds
        ``_io_lock``, which is also what makes log order identical to
        file order — the replication stream a standby replays IS the
        byte sequence recovery would replay, read back from where
        recovery would read it."""
        log = self._replication
        for payload in payloads:
            self._wal_seq += 1
            if log is not None:
                log.append(self._snapshot_epoch, self._wal_seq, start, len(payload))
            start += len(payload)

    def _write_journal(self, redo_ops: list[dict]) -> None:
        if not redo_ops:
            return
        if self._path is None:
            # in-memory databases have no WAL, but a replicated in-memory
            # primary still ships its committed lines — same serialized
            # form, same ordering lock. The sequence number advances even
            # while no log is attached: enable_replication() must see a
            # truthful base so a standby that missed earlier commits is
            # forced into a snapshot resync rather than silently
            # streaming from a diverged position.
            with self._io_lock:
                if self._journal is not None:
                    payload = integrity.frame_record(canonical_dumps({"ops": redo_ops}))
                    self._record_committed([payload], self._journal.write(payload))
                else:
                    self._wal_seq += 1
            return
        if self._wal_handle is None:
            if self._recovered:
                raise DatabaseError("storage closed")
            raise DatabaseError("call recover() before writing to a persistent database")
        payload = integrity.frame_record(canonical_dumps({"ops": redo_ops}))
        writer = self._writer
        if writer is not None:
            writer.submit(payload).wait()
        else:
            self._write_batch([payload])

    def checkpoint(self) -> None:
        """Write a full snapshot and truncate the journal.

        Refuses (typed :class:`TransactionError`) while ANY thread has a
        transaction open: checkpointing mid-transaction would snapshot
        uncommitted state and truncate the frame's redo ops out of the
        journal, so a crash right after would resurrect half a
        transaction. Holding the table lock for the duration keeps new
        mutations out; draining the group-commit writer first makes sure
        every already-acknowledged commit is in the old journal before it
        is truncated.
        """
        if self._path is None:
            raise DatabaseError("no storage path configured")
        with self._lock:
            if self._active_txns or self.in_transaction:
                raise TransactionError("cannot checkpoint inside a transaction")
            if self._writer is not None:
                self._writer.drain()
            dump = {name: table.all_rows() for name, table in self._tables.items()}
            # a crash at any checkpoint crashpoint leaves either the old
            # complete snapshot or the new one — and because WAL replay
            # is idempotent over absolute redo ops, a crash after the
            # rename but before the WAL truncation just re-applies the
            # old journal onto the new snapshot
            crashpoint("db.checkpoint.pre_write")
            self._publish_snapshot(dump, crash="db.checkpoint")
            with self._io_lock:
                # new snapshot generation: sequence numbers restart and
                # standbys polling the old epoch are told to resync. The
                # log learns first: a fetch reads the WAL under the
                # log's condition, so one racing this truncation sees
                # the old bytes or the new epoch, never half a file
                self._snapshot_epoch += 1
                self._wal_seq = 0
                if self._replication is not None:
                    self._replication.reset(self._snapshot_epoch, 0)
                self._restart_wal()
            crashpoint("db.checkpoint.post_truncate")

    # -- replication --------------------------------------------------------------

    def enable_replication(self):
        """Attach (or return) the :class:`~repro.db.replication.ReplicationLog`
        that records every journal line committed from now on. Lines
        committed *before* attachment are not in the log — a standby that
        needs them bootstraps from :meth:`state_dump` instead."""
        from repro.db.replication import MemoryJournal, ReplicationLog

        with self._io_lock:
            if self._replication is not None:
                return self._replication
            if self._path is None:
                journal = self._journal = MemoryJournal()
                read, start, discard = journal.read, 0, journal.discard
            else:
                handle = self._wal_handle
                read, discard = self._read_wal, None
                start = handle.tell() if handle is not None else 0
            self._replication = ReplicationLog(
                self._snapshot_epoch, self._wal_seq, read, start, discard
            )
            return self._replication

    def replication_position(self) -> tuple:
        """``(snapshot_epoch, wal_seq)`` — how much committed history exists."""
        with self._io_lock:
            return self._snapshot_epoch, self._wal_seq

    def state_dump(self) -> dict:
        """Full-state bootstrap for a standby: every table's rows plus the
        replication position they correspond to.

        Refuses mid-transaction for the same reason :meth:`checkpoint`
        does. An autocommit writer may have mutated a table but not yet
        journaled (the table lock is released before the journal wait),
        so the dump can be *ahead* of ``seq`` by those in-flight lines —
        harmless, because replay is idempotent over absolute redo ops.
        """
        with self._lock:
            if self._active_txns or self.in_transaction:
                raise TransactionError("cannot dump state inside a transaction")
            if self._writer is not None:
                self._writer.drain()
            with self._io_lock:
                return {
                    "epoch": self._snapshot_epoch,
                    "seq": self._wal_seq,
                    "tables": {name: table.all_rows() for name, table in self._tables.items()},
                }

    def load_state(self, dump: dict) -> None:
        """Replace all table contents with *dump* (a :meth:`state_dump`)
        and adopt its replication position. On a persistent database the
        dump is also written down as the local snapshot (and the WAL
        truncated), so a standby restart recovers from local disk into
        the same position it had adopted."""
        with self._lock:
            if self._active_txns or self.in_transaction:
                raise TransactionError("cannot load state inside a transaction")
            if self._writer is not None:
                self._writer.drain()
            for name, rows in dump["tables"].items():
                self.table(name).clear()
                self._load_rows(name, rows)
            with self._io_lock:
                self._snapshot_epoch = int(dump["epoch"])
                self._wal_seq = int(dump["seq"])
                if self._replication is not None:
                    self._replication.reset(self._snapshot_epoch, self._wal_seq)
                if self._journal is not None:
                    self._journal.truncate()
                if self._path is not None and self._recovered:
                    self._publish_snapshot(dump["tables"])
                    self._restart_wal()

    def _publish_snapshot(self, tables: dict, crash: str = "") -> None:
        """The one snapshot publisher: *tables* under their manifest,
        written to a tmp file, fsynced and renamed into place through
        the storage shim, with the *crash* crashpoints around the
        rename."""
        records = sum(len(rows) for rows in tables.values())
        integrity.atomic_write(
            self._path / integrity.SNAPSHOT_NAME,
            integrity.encode_snapshot(canonical_dumps(tables), records),
            storage=self._storage, crash=crash,
        )

    def _restart_wal(self) -> None:
        """Empty the WAL and write the current position to the epoch
        file: the rest of publishing a snapshot. Caller holds
        ``_io_lock`` and has moved the position and the replication
        log to the new generation."""
        if self._wal_handle is not None:
            self._wal_handle.close()
        self._wal_handle = self._open_wal(self._path / integrity.WAL_NAME, "wb")
        self._wal_handle.flush()
        self._wal_poisoned = None  # fresh handle, fresh file
        integrity.write_epoch(self._path, self._snapshot_epoch, self._wal_seq)

    def apply_replicated(self, seq: int, payload: bytes) -> None:
        """Replay one shipped journal line — the standby-side half of the
        stream. *payload* is the exact bytes the primary wrote to its
        WAL (trailing newline included); it is re-parsed through the
        same decoder recovery uses, applied through the same idempotent
        :meth:`_apply_ops`, and appended verbatim to this database's own
        WAL — which is what makes standby disk state byte-identical and
        lets a promoted standby serve its *own* replication stream.

        The shipped frame is CRC-verified *before* anything is applied:
        a record damaged in flight (or read back damaged from the
        primary's WAL) raises :class:`~repro.errors.CorruptionError`
        here rather than poisoning the standby's ledger."""
        try:
            serialized = integrity.parse_record(payload.rstrip(b"\n"), seq=seq)
        except CorruptionError as exc:
            obs_metrics.counter("db.integrity.corruptions_detected").inc()
            _notify_diag_corruption(exc)
            raise
        entry = canonical_loads(serialized)
        obs_metrics.counter("db.integrity.records_verified").inc()
        crashpoint("db.replication.pre_apply")
        with self._lock:
            if seq != self._wal_seq + 1:
                raise DatabaseError(
                    f"replication gap: expected seq {self._wal_seq + 1}, got {seq}"
                )
            self._apply_ops(entry["ops"])
        if self._path is not None:
            self._write_batch([payload])
        else:
            with self._io_lock:
                start = self._journal.write(payload) if self._journal is not None else 0
                self._record_committed([payload], start)
        crashpoint("db.replication.post_apply")

    # -- storage integrity ---------------------------------------------------------

    def verify_storage(self) -> "integrity.IntegrityReport":
        """Re-verify every cold byte with the reader :meth:`recover` uses
        (epoch file, snapshot manifest and record count, every WAL frame).

        Read-only and safe on a live database: the group-commit writer is
        drained and the WAL handle flushed first so the file reflects
        every acknowledged commit. Commits block only while the bytes
        are read under the I/O lock; decoding and checking them happens
        after it is released.
        """
        if self._path is None:
            raise DatabaseError("no storage path configured")
        if self._writer is not None:
            self._writer.drain()
        with self._io_lock:
            if self._wal_handle is not None:
                self._wal_handle.flush()
            contents = integrity.read_dir(self._path)
        return integrity.verify_dir(self._path, contents)

    def scrub_once(self) -> "integrity.IntegrityReport":
        """One scrub pass: verify, count, and raise on corruption.

        The raised :class:`~repro.errors.CorruptionError` is also latched
        into :meth:`integrity_status` so health endpoints keep reporting
        the damage until :meth:`clear_corruption` (post-repair).
        """
        report = self.verify_storage()
        obs_metrics.counter("db.integrity.scrub_passes").inc()
        obs_metrics.counter("db.integrity.records_verified").inc(
            report.wal_records + max(report.snapshot_records, 0)
        )
        if not report.ok:
            self._corruption = report.corruption
            obs_metrics.counter("db.integrity.corruptions_detected").inc()
            _log.error(
                "scrub.corruption", source=report.corruption_source,
                seq=report.corruption.seq, offset=report.corruption.offset,
            )
            _notify_diag_corruption(report.corruption)
            raise report.corruption
        return report

    def integrity_status(self) -> dict:
        """Corruption state for health endpoints and ``gridbank top``."""
        error = self._corruption
        return {
            "ok": error is None and self._wal_poisoned is None,
            "corruption": str(error) if error is not None else "",
            "seq": error.seq if error is not None else -1,
            "offset": error.offset if error is not None else -1,
            "wal_poisoned": self._wal_poisoned or "",
        }

    def clear_corruption(self) -> None:
        """Forget latched corruption after a successful repair (removes
        the on-disk refusal marker; the quarantine file stays for
        forensics)."""
        self._corruption = None
        self._wal_poisoned = None
        if self._path is not None:
            integrity.clear_marker(self._path)

    def close(self) -> None:
        writer = self._writer
        if writer is not None:
            self._writer = None
            writer.stop()
        with self._io_lock:
            if self._wal_handle is not None:
                self._wal_handle.close()
                self._wal_handle = None

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
