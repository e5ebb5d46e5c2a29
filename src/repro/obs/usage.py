"""Per-principal usage metering — the GASA accounting loop, turned inward.

The paper's whole point (sec 2.1, 5.1) is metering who consumed what and
keeping a provable record. The bank itself is a consumed resource: every
authenticated principal spends bank CPU (op dispatch), wire bytes and
GridCurrency. :class:`UsageMeter` folds those into in-memory per-principal
accumulators on the dispatch path and, once per rollup period, writes one
JSON line per active principal to a :class:`~repro.obs.store.SegmentRing`
of its own (``<home>/usage/<db dir name>/``; in memory for an in-memory
bank).

Rollups are telemetry, not ledger. Sec 2.1's chargeable items are GSP
resources, metered by the GRM and charged through the ledger; no rollup
ever posts a transaction, and the currency a principal moved is already
in the TRANSACTION rows. So a rollup takes no database lock, writes no
WAL record and does not replicate: each node, a standby included,
records what *it* served, and ``gridbank top`` sums the nodes.

Rollup is opportunistic (checked on the record path against the injected
clock — no timer thread, so it works under a VirtualClock), and its lines
are flushed before :meth:`UsageMeter.maybe_rollup` returns: a completed
period survives ``kill -9``; the live period does not. Live accumulators
cap at :data:`MAX_LIVE_PRINCIPALS` (overflow folds into the ``(other)``
principal, counted by ``usage.principals_capped``); the ring's bound drops
the oldest segment whole.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import Collection, Optional, Union

from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.obs.store import SegmentRing
from repro.util.gbtime import Clock

__all__ = ["PERIOD_SECONDS", "MAX_LIVE_PRINCIPALS", "UsageMeter", "hot_operations"]

_log = get_logger("obs.usage")

#: length of one rollup period, seconds
PERIOD_SECONDS = 3600.0
#: live accumulators beyond this many principals fold into ``(other)``
MAX_LIVE_PRINCIPALS = 10_000

_OVERFLOW_PRINCIPAL = "(other)"

# a rollup line is encoded whole: the span encoder's line cap would shed
# the sums that are the line's point
_dumps = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


class _Accum:
    __slots__ = ("ops", "errors", "bytes_in", "bytes_out", "latency_seconds",
                 "currency_moved", "op_counts")

    def __init__(self) -> None:
        self.ops = 0
        self.errors = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.latency_seconds = 0.0
        self.currency_moved = 0.0
        self.op_counts: dict[str, int] = {}


#: the sums a rollup line carries and ``top_principals`` folds
_SUMS = ("ops", "errors", "bytes_in", "bytes_out", "latency_seconds", "currency_moved")


class UsageMeter:
    """Dispatch-path accumulation + periodic per-principal rollup lines."""

    def __init__(self, clock: Clock, directory: Optional[Union[str, Path]] = None) -> None:
        self.clock = clock
        self._ring = SegmentRing(directory)
        self._lock = threading.Lock()
        self._live: dict[str, _Accum] = {}
        self._period_start = self._quantize(clock.epoch())

    @staticmethod
    def _quantize(epoch: float) -> float:
        return math.floor(epoch / PERIOD_SECONDS) * PERIOD_SECONDS

    def _accum(self, principal: str) -> _Accum:
        # caller holds self._lock
        accum = self._live.get(principal)
        if accum is None:
            if len(self._live) >= MAX_LIVE_PRINCIPALS:
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
            accum.latency_seconds += max(0.0, latency_seconds)
            accum.currency_moved += currency_moved
            accum.op_counts[op] = accum.op_counts.get(op, 0) + 1

    def record_bytes(self, principal: str, bytes_in: int, bytes_out: int) -> None:
        """Wire accounting hook (the bank calls this per tracked request)."""
        with self._lock:
            accum = self._accum(principal)
            accum.bytes_in += int(bytes_in)
            accum.bytes_out += int(bytes_out)

    # -- rollup ------------------------------------------------------------

    def maybe_rollup(self, force: bool = False) -> int:
        """Write the completed period's accumulators, if any are due, as
        one ring line per principal; returns the number of lines."""
        now = self.clock.epoch()
        if not force and now < self._period_start + PERIOD_SECONDS:
            return 0
        with self._lock:
            if not force and now < self._period_start + PERIOD_SECONDS:
                return 0
            live, self._live = self._live, {}
            period_start, self._period_start = self._period_start, self._quantize(now)
        if not live:
            return 0
        period_end = max(now, period_start)
        for principal, accum in live.items():
            fields = {key: getattr(accum, key) for key in _SUMS}
            self._ring.append(_dumps({
                "principal": principal, "period_start": period_start,
                "period_end": period_end, "op_counts": accum.op_counts, **fields,
            }))
        self._ring.flush()
        _log.info("usage.rollup", principals=len(live),
                  period_start=period_start, period_end=period_end)
        return len(live)

    # -- query side --------------------------------------------------------

    def top_principals(self, k: int = 5) -> list[dict]:
        """Top-*k* principals by op count, rolled periods + the live one."""
        totals: dict[str, dict] = {}

        def fold(principal: str, sums: dict) -> None:
            entry = totals.setdefault(
                principal, {"principal": principal, **dict.fromkeys(_SUMS, 0)}
            )
            for key in _SUMS:
                entry[key] += sums.get(key, 0)

        for record in self._ring.records():
            fold(record.get("principal", ""), record)
        with self._lock:
            for principal, accum in self._live.items():
                fold(principal, {key: getattr(accum, key) for key in _SUMS})
        ranked = sorted(totals.values(), key=lambda e: (-e["ops"], e["principal"]))
        return ranked[: max(0, k)]

    def snapshot(self, k: int = 5) -> dict:
        """JSON-able view for the telemetry endpoint / healthz."""
        with self._lock:
            live = len(self._live)
            period_start = self._period_start
        return {
            "period_seconds": PERIOD_SECONDS,
            "period_start": period_start,
            "live_principals": live,
            "rollup_lines": len(self._ring),
            "top": self.top_principals(k),
        }


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
