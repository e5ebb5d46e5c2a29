"""Diagnosis plane — on-request profiler, flight recorder, debug bundles.

The telemetry stack (metrics, spans, SLO burn alerts, usage metering)
answers *what* happened; this module answers *why it was slow or wedged*
— the evidence an operator needs when a page fires.

Three cooperating pieces:

* :class:`SamplingProfiler` — folds every thread's stack, read from
  ``sys._current_frames()``, into collapsed form. Samples are attributed
  per operation by joining the thread ident against the active-span
  registry (:func:`repro.obs.trace.thread_spans`), so the output reads
  "62% of CPU under ``bank.op.direct_transfer``, hottest frame
  ``rsa:decrypt``". Nothing samples in the background: a
  ``Diag.Profile`` call that names a window samples on the thread
  serving it, for that long, and then stops.

* :class:`FlightRecorder` — bounded rings of the recent past: log
  records and per-second metric counter deltas; finished spans it reads
  from the node's span store, newest segments only. When a trigger
  fires — SLO page transition, corruption latch, deadline-exceeded
  storm, unhandled dispatch exception — the rings and those spans are
  snapshotted into a timestamped post-mortem directory. Dumps are
  rate-limited so a flapping trigger cannot fill a disk.

* :class:`DiagPlane` — wires both into the process: installs the
  stripe-lock wait hook (:func:`repro.bank.locks.set_wait_hook`) and the
  WAL flush-path hook (:func:`repro.db.database.set_wal_wait_hook`) so
  contention has first-class attribution, and exposes the snapshots the
  ``Diag.Profile`` / ``Diag.FlightRecord`` cluster RPCs and the
  ``gridbank debug-bundle`` CLI collect.

Everything here is observation of the observer, so the cardinal rule is
*do no harm*: hooks are single ``is not None`` checks when disabled,
ring appends are O(1) deque operations, trigger paths swallow their own
errors into counters, a sampling thread skips itself, and the plane's
RPCs are untracked rows of the op table (no usage metering, no SLO
sample).
"""

from __future__ import annotations

import gc
import json
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Optional, Union

from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.store import SpanStore
from repro.util.gbtime import Clock, SystemClock
from repro.util.runner import Runner

__all__ = [
    "SamplingProfiler",
    "FlightRecorder",
    "DiagPlane",
    "WaitStats",
    "LOCK_WAITS",
    "WAL_WAITS",
    "record_lock_wait",
    "record_wal_wait",
    "fold_stack",
    "render_profile",
    "notify_trigger",
    "notify_slo_transition",
    "MAX_PROFILE_SECONDS",
]

_log = obs_logging.get_logger("obs.diag")

# -- wait/contention accounting -----------------------------------------------


class WaitStats:
    """Aggregated blocked-wait totals keyed by origin.

    One instance per wait domain (account-stripe locks, WAL flush path);
    each recorded wait folds into ``count / total_seconds / max_seconds``
    per key, so a snapshot names the specific stripe or WAL phase a
    workload convoys on without storing individual events.
    """

    __slots__ = ("_lock", "_data")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: dict[str, list] = {}  # key -> [count, total, max]

    def record(self, key: str, seconds: float) -> None:
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                entry = self._data[key] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += seconds
            if seconds > entry[2]:
                entry[2] = seconds

    def snapshot(self) -> dict:
        with self._lock:
            return {
                key: {
                    "count": entry[0],
                    "total_seconds": entry[1],
                    "max_seconds": entry[2],
                }
                for key, entry in sorted(self._data.items())
            }

    def reset(self) -> None:
        with self._lock:
            self._data = {}


#: Blocked stripe-lock acquisitions, keyed ``stripe-<index>/<mode>``.
LOCK_WAITS = WaitStats()
#: Group-commit WAL waits, keyed by phase (``commit_wait``/``linger``/``flush``).
WAL_WAITS = WaitStats()


# The hooks sit on every WAL commit, so the histogram label-key lookup
# (~1.3us) is cached per label value and revalidated against registry
# resets via the generation counter (~0.3us on the hit path).
_hist_cache: dict[str, tuple] = {}


def _cached_histogram(key: str, name: str, **kw):
    generation = obs_metrics.REGISTRY.generation
    entry = _hist_cache.get(key)
    if entry is None or entry[0] != generation:
        entry = (generation, obs_metrics.histogram(name, **kw))
        _hist_cache[key] = entry
    return entry[1]


def record_lock_wait(stripe: int, mode: str, seconds: float) -> None:
    """Hook installed into :mod:`repro.bank.locks` — called only for
    acquisitions that actually blocked."""
    LOCK_WAITS.record(f"stripe-{stripe}/{mode}", seconds)
    _cached_histogram(f"lock/{mode}", "bank.lock.wait_seconds", mode=mode).observe(seconds)


def record_wal_wait(kind: str, seconds: float, batch: int = 0) -> None:
    """Hook installed into :mod:`repro.db.database`'s group-commit path."""
    WAL_WAITS.record(kind, seconds)
    _cached_histogram(f"wal/{kind}", "db.wal.wait_seconds", kind=kind).observe(seconds)
    if batch > 1:
        _cached_histogram(
            "wal/batch", "db.wal.flush_batch_size",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128),
        ).observe(batch)


# -- stack folding ------------------------------------------------------------

_STACK_DEPTH = 48


def fold_stack(frame, limit: int = _STACK_DEPTH) -> str:
    """Collapse a frame chain into ``root:fn;...;leaf:fn`` form.

    Frames are named ``<file stem>:<function>`` — enough to find the code
    without the noise (and cost) of full paths/line numbers at sampling
    rate. The walk is bounded so a pathological recursion cannot make a
    single sample expensive.
    """
    parts: list[str] = []
    depth = 0
    while frame is not None and depth < limit:
        code = frame.f_code
        filename = code.co_filename
        slash = filename.rfind("/")
        stem = filename[slash + 1:]
        if stem.endswith(".py"):
            stem = stem[:-3]
        parts.append(f"{stem}:{code.co_name}")
        frame = frame.f_back
        depth += 1
    parts.reverse()
    return ";".join(parts)


# -- sampling profiler --------------------------------------------------------

_frames_lock = threading.Lock()  # one sampler at a time owns the collector switch


def _current_frames() -> dict:
    """``sys._current_frames()`` with the cyclic collector held off.

    CPython 3.11 builds that dict under the runtime's thread-list lock.
    A collection one of its allocations sets off, freeing a
    ``threading.local`` (every Database holds one), takes the same lock
    again and wedges the whole process, GIL held.
    """
    with _frames_lock:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return sys._current_frames()  # noqa: SLF001 - the documented API
        finally:
            if enabled:
                gc.enable()


class SamplingProfiler:
    """Statistical profiler with per-operation attribution, for one window.

    :meth:`sample_for` runs on the caller's thread: ``hz`` times a second
    it snapshots every other thread's current frame via
    ``sys._current_frames()``, folds each stack, and attributes the
    sample to the span running on that thread (via
    :func:`repro.obs.trace.thread_spans`). Threads outside any span —
    idle connections, background runners — are attributed
    ``(untraced)``; the sampling thread skips itself.

    Fold storage is bounded: once ``max_stacks`` distinct (op, stack)
    keys exist, new stacks collapse into an ``(overflow)`` bucket per op
    so memory stays flat under pathological stack diversity.
    """

    DEFAULT_HZ = 25.0

    def __init__(self, hz: float = DEFAULT_HZ, max_stacks: int = 2000) -> None:
        if hz <= 0:
            raise ValueError("profiler hz must be positive")
        self.hz = float(hz)
        self._max_stacks = max_stacks
        self._lock = threading.Lock()
        self._folds: dict[tuple[str, str], int] = {}
        self._op_samples: dict[str, int] = {}
        self._samples = 0
        self._ticks = 0
        self._elapsed = 0.0

    def sample_for(self, seconds: float) -> None:
        """Sample ``round(hz * seconds)`` times (at least once), one tick
        every ``1 / hz`` seconds, on the calling thread."""
        started = time.perf_counter()
        for tick in range(max(1, round(self.hz * seconds))):
            pause = started + tick / self.hz - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            self.sample_once()
        self._elapsed += time.perf_counter() - started

    def sample_once(self) -> None:
        """Take one sample of every live thread but the calling one."""
        frames = _current_frames()
        spans = obs_trace.thread_spans()
        me = threading.get_ident()
        with self._lock:
            self._ticks += 1
            for ident, frame in frames.items():
                if ident == me:
                    continue
                entry = spans.get(ident)
                op = entry[0] if entry is not None else "(untraced)"
                key = (op, fold_stack(frame))
                if key not in self._folds and len(self._folds) >= self._max_stacks:
                    key = (op, "(overflow)")
                self._folds[key] = self._folds.get(key, 0) + 1
                self._op_samples[op] = self._op_samples.get(op, 0) + 1
                self._samples += 1

    def snapshot(self, top: int = 25) -> dict:
        """JSON-ready profile: per-op CPU shares plus the hottest stacks."""
        with self._lock:
            samples = self._samples
            ticks = self._ticks
            op_samples = dict(self._op_samples)
            folds = sorted(self._folds.items(), key=lambda kv: -kv[1])[:top]
        ops = {
            op: {
                "samples": count,
                "cpu_share": count / samples if samples else 0.0,
            }
            for op, count in sorted(op_samples.items(), key=lambda kv: -kv[1])
        }
        return {
            "enabled": True,
            "hz": self.hz,
            "ticks": ticks,
            "samples": samples,
            "duration_seconds": self._elapsed,
            "ops": ops,
            "hot_stacks": [
                {"op": op, "stack": stack, "samples": count}
                for (op, stack), count in folds
            ],
        }


# -- flight recorder ----------------------------------------------------------


def _jsonable(value: object) -> object:
    """Force *value* JSON-clean (RPC responses and dump files both need
    it); anything exotic is stringified rather than raising."""
    return json.loads(json.dumps(value, default=str))


def _repro_error_names() -> frozenset:
    """Names of every :class:`ReproError` subclass — the *expected*
    error vocabulary. A dispatch span failing outside it means an
    exception escaped the application's error model."""
    from repro.errors import ReproError

    names = {ReproError.__name__}
    stack = [ReproError]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__name__ not in names:
                names.add(sub.__name__)
                stack.append(sub)
    return frozenset(names)


#: ring sizes of the flight recorder: log records and per-tick metric
#: deltas (two minutes at the default tick)
_LOG_CAPACITY = 512
_DELTA_CAPACITY = 120


class FlightRecorder:
    """Bounded rings of the recent past, dumped when a trigger fires.

    Rings (all ``deque(maxlen=...)``, so appends are O(1) and memory is
    flat): log records (via a :class:`~repro.obs.logging.RingHandler` on
    the gridbank root) and per-tick metric counter deltas. Finished spans are not copied: *spans* is the
    node's span store, read with :meth:`SpanStore.recent` when a dump or
    a snapshot is taken.

    Triggers: :meth:`trigger` is called directly by the SLO engine
    (page transition), the database (corruption latch) — both through
    :func:`notify_trigger` — and internally from the span sink
    (deadline-exceeded storm, unhandled dispatch exception). A dump
    writes every ring, the store's recent spans, a metrics snapshot and
    wait stats into ``<dump_dir>/postmortem-<stamp>-<seq>-<reason>/``;
    dumps are rate-limited to one per ``min_dump_interval`` seconds.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        spans: Optional[SpanStore] = None,
        dump_dir: Optional[Union[str, Path]] = None,
        tick_interval: float = 1.0,
        min_dump_interval: float = 30.0,
        deadline_storm_threshold: int = 8,
        deadline_storm_window: float = 5.0,
    ) -> None:
        self.clock = clock if clock is not None else SystemClock()
        self.spans = spans if spans is not None else SpanStore()
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.tick_interval = tick_interval
        self.min_dump_interval = min_dump_interval
        self.deadline_storm_threshold = deadline_storm_threshold
        self.deadline_storm_window = deadline_storm_window
        self._deltas: deque = deque(maxlen=_DELTA_CAPACITY)
        self._log_handler = obs_logging.RingHandler(capacity=_LOG_CAPACITY)
        self._prev_level = 0
        self._deadlines: deque = deque()
        self._deadlines_lock = threading.Lock()  # every connection thread feeds it
        self._trigger_lock = threading.Lock()
        self._last_dump_perf: Optional[float] = None
        self._dump_count = 0
        self._last_triggers: deque = deque(maxlen=16)
        self._prev_counters: dict = {}
        self._error_names: frozenset = frozenset()
        self._ticker = Runner("gridbank-diag-recorder", self.tick, tick_interval)
        self._started = False

    def start(self) -> "FlightRecorder":
        if self._started:
            return self
        self._started = True
        # computed at start so subclasses defined by then are included
        self._error_names = _repro_error_names()
        self._prev_level = obs_logging.attach_ring(self._log_handler)
        obs_trace.add_sink(self._span_sink)
        _recorders.append(self)
        if self.tick_interval > 0:
            self._ticker.start()
        return self

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        self._ticker.stop()
        obs_trace.remove_sink(self._span_sink)
        obs_logging.detach_ring(self._log_handler, self._prev_level)
        if self in _recorders:
            _recorders.remove(self)

    # -- ring feeds -----------------------------------------------------------

    def _span_sink(self, record: dict) -> None:
        """Watch finished spans for the span-fired triggers; keeping them
        is the span store's job."""
        error_type = record.get("error_type") or ""
        if error_type:
            self._check_error_triggers(record, error_type)

    def _check_error_triggers(self, record: dict, error_type: str) -> None:
        if error_type.startswith("DeadlineExceeded"):
            with self._deadlines_lock:
                now = time.monotonic()
                window = self._deadlines
                window.append(now)
                while now - window[0] > self.deadline_storm_window:
                    window.popleft()
                count = len(window)
                if count < self.deadline_storm_threshold:
                    return
                window.clear()
            self.trigger(
                "deadline_storm",
                span=record,
                count=count,
                window_seconds=self.deadline_storm_window,
            )
        elif (
            record.get("name") == "rpc.server.dispatch"
            and error_type not in self._error_names
        ):
            attrs = record.get("attrs")
            method = attrs.get("method", "") if isinstance(attrs, dict) else ""
            self.trigger(
                "unhandled_exception", span=record, error=error_type, method=str(method)
            )

    def tick(self) -> None:
        """Capture one metric-delta sample (the runner's step; public so
        tests and virtual-time drills can tick deterministically)."""
        counters = obs_metrics.snapshot()["counters"]
        delta = {}
        for key, value in counters.items():
            moved = value - self._prev_counters.get(key, 0.0)
            if moved:
                delta[key] = moved
        self._prev_counters = counters
        self._deltas.append({"epoch": self.clock.epoch(), "counters": delta})

    # -- triggering and dumping -----------------------------------------------

    def trigger(
        self, reason: str, *, span: Optional[dict] = None, **details: object
    ) -> Optional[Path]:
        """Record a trigger; snapshot the rings to disk unless one was
        dumped less than ``min_dump_interval`` seconds ago. Returns the
        post-mortem directory, or ``None`` when suppressed/disabled.

        *span* is the record that fired the trigger, if a span did; the
        dump's ``meta.json`` carries it, because the store may not hold
        it (not yet stored, or a plumbing span it never keeps)."""
        obs_metrics.counter("obs.diag.triggers", reason=reason).inc()
        info = {"reason": reason, "details": _jsonable(dict(details)),
                "epoch": self.clock.epoch()}
        self._last_triggers.append(info)
        _log.warning("diag.trigger", reason=reason)
        now = time.perf_counter()
        with self._trigger_lock:
            if (
                self._last_dump_perf is not None
                and now - self._last_dump_perf < self.min_dump_interval
            ):
                obs_metrics.counter("obs.diag.dumps_suppressed").inc()
                return None
            self._last_dump_perf = now
            self._dump_count += 1
            sequence = self._dump_count
        if self.dump_dir is None:
            return None
        try:
            return self._dump(reason, info, sequence, span)
        except Exception:  # noqa: BLE001 - a failed dump must not take the
            # triggering request path down with it
            obs_metrics.counter("obs.diag.dump_errors").inc()
            return None

    def _dump(self, reason: str, info: dict, sequence: int, span: Optional[dict]) -> Path:
        stamp = self.clock.now().stamp14
        out = self.dump_dir / f"postmortem-{stamp}-{sequence:03d}-{reason}"
        out.mkdir(parents=True, exist_ok=True)
        meta = dict(info)
        meta["sequence"] = sequence
        meta["recent_triggers"] = list(self._last_triggers)
        if span is not None:
            meta["span"] = span
        (out / "meta.json").write_text(
            json.dumps(meta, indent=2, default=str), encoding="utf-8"
        )
        with (out / "spans.jsonl").open("w", encoding="utf-8") as fh:
            for record in self.spans.recent():
                fh.write(json.dumps(record, default=str) + "\n")
        with (out / "logs.jsonl").open("w", encoding="utf-8") as fh:
            for record in self._log_handler.tail():
                fh.write(json.dumps(record, default=str) + "\n")
        (out / "metrics.json").write_text(
            json.dumps(
                {"snapshot": obs_metrics.snapshot(), "deltas": list(self._deltas)},
                indent=2,
                default=str,
            ),
            encoding="utf-8",
        )
        (out / "waits.json").write_text(
            json.dumps(
                {"lock_waits": LOCK_WAITS.snapshot(), "wal_waits": WAL_WAITS.snapshot()},
                indent=2,
            ),
            encoding="utf-8",
        )
        obs_metrics.counter("obs.diag.dumps").inc()
        _log.warning("diag.dump", reason=reason, path=str(out))
        return out

    def snapshot(self, limit: int = 128) -> dict:
        """JSON-ready view of the rings for the ``Diag.FlightRecord``
        RPC: recent + slowest spans, logs, metric deltas."""
        spans = self.spans.recent()
        slow = sorted(
            spans, key=lambda r: r.get("duration_seconds", 0.0), reverse=True
        )[:20]
        return {
            "enabled": True,
            "spans": _jsonable(spans[-limit:]),
            "slow_spans": _jsonable(slow),
            "logs": self._log_handler.tail(limit),
            "metric_deltas": _jsonable(list(self._deltas)[-limit:]),
            "recent_triggers": list(self._last_triggers),
            "dump_count": self._dump_count,
            "metrics": obs_metrics.snapshot(),
        }


# -- the plane ----------------------------------------------------------------


#: the longest window one ``Diag.Profile`` call may sample for (seconds);
#: a longer request is clamped to it
MAX_PROFILE_SECONDS = 5.0


class DiagPlane:
    """On-request profiler + flight recorder + contention hooks as one
    lifecycle.

    A served :class:`repro.bank.node.Node` builds one (``--no-diag``
    leaves it out), hands it the bank's span store and hands it on to its
    cluster plane, whose Diag RPCs answer from it; tests build throwaway
    planes with virtual clocks. *profile_hz* is the sampling rate during
    a ``Diag.Profile`` window (``0`` refuses windows).
    """

    def __init__(
        self,
        profile_hz: float = SamplingProfiler.DEFAULT_HZ,
        dump_dir: Optional[Union[str, Path]] = None,
        clock: Optional[Clock] = None,
        spans: Optional[SpanStore] = None,
        **recorder_options: object,
    ) -> None:
        self.profile_hz = profile_hz
        self.recorder = FlightRecorder(
            clock=clock, spans=spans, dump_dir=dump_dir,
            **recorder_options,  # type: ignore[arg-type]
        )
        self._started = False

    def start(self) -> "DiagPlane":
        if self._started:
            return self
        self._started = True
        # imported here, not at module top: the obs layer must not drag
        # the bank/db layers in just to be importable
        from repro.bank import locks as bank_locks
        from repro.db import database as db_database

        bank_locks.set_wait_hook(record_lock_wait)
        db_database.set_wal_wait_hook(record_wal_wait)
        self.recorder.start()
        return self

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        self.recorder.stop()
        from repro.bank import locks as bank_locks
        from repro.db import database as db_database

        if bank_locks.wait_hook() is record_lock_wait:
            bank_locks.set_wait_hook(None)
        if db_database.wal_wait_hook() is record_wal_wait:
            db_database.set_wal_wait_hook(None)

    def profile_snapshot(self, top: int = 25, seconds: float = 0.0) -> dict:
        """Contention stats, plus per-op CPU attribution sampled on this
        thread for *seconds* (at most :data:`MAX_PROFILE_SECONDS`); no
        window answers an empty profile (``Diag.Profile``)."""
        if self.profile_hz > 0:
            profiler = SamplingProfiler(hz=self.profile_hz)
            if seconds > 0:
                profiler.sample_for(min(seconds, MAX_PROFILE_SECONDS))
            data = profiler.snapshot(top=top)
        else:
            data = {"enabled": False, "ops": {}, "hot_stacks": []}
        data["lock_waits"] = LOCK_WAITS.snapshot()
        data["wal_waits"] = WAL_WAITS.snapshot()
        return data

    def flight_snapshot(self, limit: int = 128) -> dict:
        return self.recorder.snapshot(limit=limit)


# -- process-wide notification plumbing ---------------------------------------

_recorders: list[FlightRecorder] = []


def notify_trigger(reason: str, **details: object) -> None:
    """Fan a trigger out to every started flight recorder.

    This is the entry point instrumented modules call lazily (the SLO
    engine on a page transition, the database on a corruption latch) —
    cheap and safe when no recorder exists."""
    for recorder in list(_recorders):
        try:
            recorder.trigger(reason, **details)
        except Exception:  # noqa: BLE001 - diagnostics never break callers
            pass


def notify_slo_transition(
    op: str = "", previous: str = "", state: str = "", **fields: object
) -> None:
    """SLO state-change hook; only *entering* page triggers a dump (the
    ok->warn and recovery edges are routine)."""
    if state == "page":
        notify_trigger("slo_page", op=op, previous=previous, **fields)


# -- rendering (`gridbank profile`) -------------------------------------------


def render_profile(profile: dict, top: int = 10) -> str:
    """Human-readable profile: per-op CPU%, hottest stacks, wait tables."""
    if not profile.get("enabled", False):
        return "(profiler disabled)"
    lines = [
        f"samples={profile.get('samples', 0)} hz={profile.get('hz', 0):g} "
        f"duration={profile.get('duration_seconds', 0.0):.1f}s"
    ]
    ops = profile.get("ops", {})
    if ops:
        lines.append("")
        lines.append(f"{'OP':<44} {'SAMPLES':>8} {'CPU%':>7}")
        for op, row in list(ops.items())[:top]:
            lines.append(
                f"{op:<44} {row.get('samples', 0):>8} "
                f"{100.0 * row.get('cpu_share', 0.0):>6.1f}%"
            )
    hot = profile.get("hot_stacks", [])
    if hot:
        lines.append("")
        lines.append("hot stacks (samples  [op] leaf frames):")
        for row in hot[:top]:
            stack = row.get("stack", "")
            leaf = ";".join(stack.split(";")[-3:])
            lines.append(f"{row.get('samples', 0):>8}  [{row.get('op', '')}] {leaf}")
    for title, key in (("lock waits", "lock_waits"), ("wal waits", "wal_waits")):
        waits = profile.get(key, {})
        if not waits:
            continue
        lines.append("")
        lines.append(f"{title.upper():<28} {'COUNT':>7} {'TOTAL s':>9} {'MAX s':>8}")
        rows = sorted(
            waits.items(), key=lambda kv: -kv[1].get("total_seconds", 0.0)
        )[:top]
        for key_name, row in rows:
            lines.append(
                f"{key_name:<28} {row.get('count', 0):>7} "
                f"{row.get('total_seconds', 0.0):>9.3f} "
                f"{row.get('max_seconds', 0.0):>8.3f}"
            )
    return "\n".join(lines)
