"""Durable reply cache — the server half of exactly-once RPC.

The bank routes every mutating operation through this cache: before
dispatch it looks the request's idempotency key up, and a hit returns the
*original* response without re-executing; after a successful execution it
stores the response **inside the same database transaction** as the
operation's ledger effects. Because the :class:`~repro.db.database.Database`
journals a transaction as one WAL line, a crash between "funds moved" and
"reply recorded" is impossible — recovery replays both or neither, and a
client retrying across the crash gets the cached reply instead of a
second execution. This is what upgrades the instrument registry's
"retried redemption fails loudly" into "retried redemption returns the
original confirmation".

The cache is bounded: a store that finds ``max_entries`` rows first evicts
the oldest (by insertion sequence) in batches, inside the same
transaction, so the table never holds more than ``max_entries`` rows
(see DESIGN.md "Bounds"). An evicted key's retry falls
back to ordinary execution — safe for instrument operations (the
double-spend registry still refuses), and in practice retries arrive
within seconds while eviction horizons are thousands of operations away.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.bank.records import reply_schema
from repro.db.database import Database
from repro.errors import ProtocolError
from repro.obs.logging import get_logger
from repro.util.gbtime import Clock
from repro.util.ids import IdGenerator
from repro.util.serialize import canonical_dumps, canonical_loads

__all__ = ["ReplyCache"]

_log = get_logger("bank.replies")

# evict this many rows at once when full: one eviction per 64 stores
_EVICTION_BATCH = 64


class ReplyCache:
    """Idempotency-keyed store of mutating-operation responses."""

    def __init__(self, db: Database, clock: Clock, max_entries: int = 10_000) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.db = db
        self.clock = clock
        self.max_entries = max_entries
        self._store_lock = threading.Lock()  # makes check-evict-insert one step
        if reply_schema().name not in db.table_names():
            db.create_table(reply_schema())
        self.rescan()

    def rescan(self) -> None:
        """Re-derive the insertion sequence from persisted rows (called at
        construction and again after WAL recovery replays the journal)."""
        self._seq = IdGenerator(start=self.db.table("replies").max_of("Seq", 0) + 1)

    def lookup(self, idempotency_key: str, subject: str, method: str) -> Optional[dict]:
        """The cached reply row for *idempotency_key*, if any.

        A key found under a different subject or method is a protocol
        violation (key reuse or a forged replay) and is refused loudly
        rather than served or re-executed.
        """
        row = self.db.find("replies", (idempotency_key,))
        if row is None:
            return None
        if row["Subject"] != subject or row["Method"] != method:
            _log.warning(
                "replies.key_conflict",
                key=idempotency_key,
                cached_method=row["Method"],
                request_method=method,
            )
            raise ProtocolError(
                f"idempotency key {idempotency_key!r} was already used by a "
                f"different caller or operation"
            )
        return row

    @staticmethod
    def replay(row: dict) -> Any:
        """Decode the cached result carried by a reply row."""
        return canonical_loads(row["Body"].encode("ascii"))

    def store(self, idempotency_key: str, subject: str, method: str, result: Any) -> None:
        """Record *result* for *idempotency_key*.

        Must run inside the operation's database transaction so the reply
        commits atomically (same WAL line) with the ledger effects it
        describes; calling it outside a transaction raises.
        """
        self.db.require_transaction("reply cache writes")
        # serialized before taking the lock; text, so the journal carries it as is
        body = canonical_dumps(result).decode("ascii")
        with self._store_lock:
            excess = len(self) - self.max_entries + 1
            if excess > 0:
                evicted = self.db.evict_lowest("replies", "Seq", max(excess, _EVICTION_BATCH))
                _log.debug("replies.evicted", count=evicted)
            self.db.insert(
                "replies",
                {
                    "IdempotencyKey": idempotency_key,
                    "Seq": self._seq.next_int(),
                    "Subject": subject,
                    "Method": method,
                    "Date": self.clock.now(),
                    "Body": body,
                },
            )

    def __len__(self) -> int:
        return len(self.db.table("replies"))
