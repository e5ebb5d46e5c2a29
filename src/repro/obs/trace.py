"""Trace propagation — one trace ID per request path, spans per hop.

A :class:`SpanContext` names one unit of work: the ``trace_id`` is shared
by every hop of a request (client call, RPC dispatch, bank operation,
ledger write), each hop gets its own ``span_id``, and ``parent_id`` links
a server span back to the client span that caused it. The active span
lives in a :mod:`contextvars` context variable, so it follows the work
within a thread (each TCP connection is served by one thread) without any
explicit plumbing; the obs logger and the bank's TRANSACTION/TRANSFER
writers read it implicitly.

On top of pure context propagation sits *span recording*: the
:func:`span` context manager times a unit of work, collects point-in-time
events (:func:`add_event` — retry attempts, breaker transitions), and on
close flushes a plain-dict record to every registered sink
(:func:`add_sink`). Sinks are how spans become durable — the bank's
:class:`~repro.obs.store.SpanStore` appends them to a bounded segment
ring beside the database. A sink that raises never breaks the traced
request: failures are swallowed into the ``obs.span_sink_errors``
counter.

IDs come from explicitly-seeded :class:`random.Random` generators (the
library-wide determinism rule — see :mod:`repro.util.ids`); callers that
do not care pass ``rng=None`` and get a process-local generator.
"""

from __future__ import annotations

import contextlib
import contextvars
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.util.ids import random_token

__all__ = [
    "SpanContext",
    "SpanRecorder",
    "new_trace_id",
    "new_span_id",
    "current",
    "current_trace_id",
    "activate",
    "child_span",
    "span",
    "add_event",
    "add_sink",
    "remove_sink",
    "sink_installed",
    "thread_spans",
    "to_wire",
    "from_wire",
]

_TRACE_BYTES = 8  # 16 hex chars
_SPAN_BYTES = 4  # 8 hex chars

_fallback_rng = random.Random()


@dataclass(frozen=True)
class SpanContext:
    """Identity of one unit of work within a trace."""

    trace_id: str
    span_id: str
    parent_id: str = ""

    def child(self, rng: Optional[random.Random] = None) -> "SpanContext":
        """A new span in the same trace, parented to this one."""
        return SpanContext(trace_id=self.trace_id, span_id=new_span_id(rng), parent_id=self.span_id)


_current: contextvars.ContextVar[Optional[SpanContext]] = contextvars.ContextVar(
    "gridbank_active_span", default=None
)

# Thread-ident -> (span name, trace id) of the innermost *recorded* span
# running on that thread. Context variables cannot be read from another
# thread, but the sampling profiler (:mod:`repro.obs.diag`) must join
# ``sys._current_frames()`` — keyed by thread ident — against the active
# span to attribute CPU samples per operation. Individual dict get/set/del
# on a plain dict are atomic under the GIL, so a thread sampling a
# profile window can read this without taking a lock; torn views across
# *multiple* entries are acceptable for sampling.
_active_by_thread: dict[int, tuple[str, str]] = {}


def thread_spans() -> dict[int, tuple[str, str]]:
    """Live mapping of thread ident -> (span name, trace id).

    The returned dict is the live registry — callers must treat it as
    read-only and tolerate concurrent mutation (iterate via ``.get`` with
    idents from ``sys._current_frames()``, not ``.items()``).
    """
    return _active_by_thread


def new_trace_id(rng: Optional[random.Random] = None) -> str:
    return random_token(rng if rng is not None else _fallback_rng, nbytes=_TRACE_BYTES)


def new_span_id(rng: Optional[random.Random] = None) -> str:
    return random_token(rng if rng is not None else _fallback_rng, nbytes=_SPAN_BYTES)


def current() -> Optional[SpanContext]:
    """The span active in this execution context, if any."""
    return _current.get()


def current_trace_id() -> str:
    """Trace ID of the active span, or ``""`` outside any trace."""
    span = _current.get()
    return span.trace_id if span is not None else ""


@contextlib.contextmanager
def activate(span: Optional[SpanContext]) -> Iterator[Optional[SpanContext]]:
    """Make *span* the active span for the duration of the block."""
    token = _current.set(span)
    try:
        yield span
    finally:
        _current.reset(token)


def child_span(rng: Optional[random.Random] = None) -> SpanContext:
    """A span continuing the active trace, or rooting a fresh one."""
    parent = _current.get()
    if parent is not None:
        return parent.child(rng)
    return SpanContext(trace_id=new_trace_id(rng), span_id=new_span_id(rng))


# -- span recording ----------------------------------------------------------

_sinks: list[Callable[[dict], None]] = []
_sinks_lock = threading.Lock()


def add_sink(sink: Callable[[dict], None]) -> Callable[[dict], None]:
    """Register *sink* to receive every finished span record.

    A record is a JSON-serializable dict (see :meth:`SpanRecorder.finish`
    for the shape). Returns *sink* so callers can keep the handle for
    :func:`remove_sink`.
    """
    with _sinks_lock:
        if sink not in _sinks:
            _sinks.append(sink)
    return sink


def remove_sink(sink: Callable[[dict], None]) -> None:
    with _sinks_lock:
        if sink in _sinks:
            _sinks.remove(sink)


@contextlib.contextmanager
def sink_installed(sink: Callable[[dict], None]) -> Iterator[Callable[[dict], None]]:
    """Register *sink* for the duration of the block (tests, CLI serve)."""
    add_sink(sink)
    try:
        yield sink
    finally:
        remove_sink(sink)


def _emit(record: dict) -> None:
    with _sinks_lock:
        sinks = list(_sinks)
    for sink in sinks:
        try:
            sink(record)
        except Exception:  # noqa: BLE001 - a broken sink must never break
            # the traced request; the failure is still visible as a counter
            from repro.obs import metrics as obs_metrics

            obs_metrics.counter("obs.span_sink_errors").inc()


class SpanRecorder:
    """One in-flight recorded span: timing, attributes, events, status.

    Created by :func:`span`; user code usually only touches it through
    :func:`add_event` / :meth:`set_attr` / :meth:`set_error`. On close the
    recorder flushes a plain-dict record to every registered sink.
    """

    __slots__ = (
        "context", "name", "kind", "attrs", "events",
        "status", "error_type", "_start_epoch", "_start_perf", "duration",
    )

    def __init__(self, context: SpanContext, name: str, kind: str, attrs: dict) -> None:
        self.context = context
        self.name = name
        self.kind = kind
        self.attrs = attrs
        self.events: list[dict] = []
        self.status = "ok"
        self.error_type = ""
        self._start_epoch = time.time()
        self._start_perf = time.perf_counter()
        self.duration = 0.0

    def set_attr(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def set_error(self, error_type: str, reason: str = "") -> None:
        """Mark the span failed (server dispatch converts exceptions to
        error *responses*, so the ``with`` block never sees them raise)."""
        self.status = "error"
        self.error_type = error_type
        if reason:
            self.attrs.setdefault("error_reason", reason)

    def add_event(self, name: str, **fields: object) -> None:
        """Attach a timestamped point event (retry, breaker transition)."""
        self.events.append(
            {
                "offset_seconds": time.perf_counter() - self._start_perf,
                "name": name,
                "fields": fields,
            }
        )

    def finish(self) -> dict:
        self.duration = time.perf_counter() - self._start_perf
        return {
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "parent_id": self.context.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start_epoch": self._start_epoch,
            "duration_seconds": self.duration,
            "status": self.status,
            "error_type": self.error_type,
            "attrs": dict(self.attrs),
            "events": list(self.events),
        }


class _NullRecorder:
    """Recorder stand-in used on the no-sink fast path.

    When nothing is registered to receive span records, the work of a
    real :class:`SpanRecorder` (two clock reads, attr/event accumulation,
    record assembly) is pure overhead on every RPC — this keeps the full
    recorder API and the context propagation while doing nothing. A sink
    installed *while* such a span is open will not receive that span;
    sinks are installed at process setup, so this is a non-case outside
    pathological tests.
    """

    __slots__ = ("context",)

    status = "ok"
    error_type = ""
    duration = 0.0

    def __init__(self, context: SpanContext) -> None:
        self.context = context

    def set_attr(self, key: str, value: object) -> None:
        pass

    def set_error(self, error_type: str, reason: str = "") -> None:
        pass

    def add_event(self, name: str, **fields: object) -> None:
        pass


_recorder: contextvars.ContextVar[Optional[SpanRecorder]] = contextvars.ContextVar(
    "gridbank_active_recorder", default=None
)


def add_event(name: str, **fields: object) -> bool:
    """Attach an event to the active recorded span, if there is one.

    Returns whether an event was recorded — callers outside any recorded
    span lose nothing but the event (they usually also emit a structured
    log line, which stands on its own).
    """
    recorder = _recorder.get()
    if recorder is None:
        return False
    recorder.add_event(name, **fields)
    return True


@contextlib.contextmanager
def span(
    name: str,
    kind: str = "internal",
    rng: Optional[random.Random] = None,
    context: Optional[SpanContext] = None,
    **attrs: object,
) -> Iterator[SpanRecorder]:
    """Record one unit of work as a span and flush it to the sinks.

    Without *context* a child of the active span is minted (or a fresh
    trace rooted); servers pass the context they reconstructed from the
    wire so the recorded span carries the caller's trace/parent IDs. An
    exception escaping the block marks the span ``status=error`` with the
    exception's type name and re-raises; flushing happens either way.
    """
    ctx = context if context is not None else child_span(rng)
    ident = threading.get_ident()
    outer = _active_by_thread.get(ident)
    _active_by_thread[ident] = (name, ctx.trace_id)
    if not _sinks:
        # fast path: nobody is listening, so skip recorder bookkeeping
        # entirely — context propagation (logging, WAL trace columns)
        # still works because the span context is activated as usual
        null = _NullRecorder(ctx)
        span_token = _current.set(ctx)
        recorder_token = _recorder.set(null)  # type: ignore[arg-type]
        try:
            yield null  # type: ignore[misc]
        finally:
            _recorder.reset(recorder_token)
            _current.reset(span_token)
            if outer is None:
                _active_by_thread.pop(ident, None)
            else:
                _active_by_thread[ident] = outer
        return
    recorder = SpanRecorder(ctx, name, kind, dict(attrs))
    span_token = _current.set(ctx)
    recorder_token = _recorder.set(recorder)
    try:
        yield recorder
    except BaseException as exc:
        recorder.set_error(type(exc).__name__, str(exc))
        raise
    finally:
        _recorder.reset(recorder_token)
        _current.reset(span_token)
        if outer is None:
            _active_by_thread.pop(ident, None)
        else:
            _active_by_thread[ident] = outer
        _emit(recorder.finish())


# -- wire form (the RPC envelope's ``trace`` field) --------------------------


def to_wire(span: SpanContext) -> dict:
    wire = {"trace_id": span.trace_id, "span_id": span.span_id}
    if span.parent_id:
        wire["parent_id"] = span.parent_id
    return wire


def from_wire(wire: object) -> Optional[SpanContext]:
    """Parse an envelope ``trace`` field; tolerant of absence/malformation
    (tracing must never break the protocol)."""
    if not isinstance(wire, dict):
        return None
    trace_id = wire.get("trace_id")
    span_id = wire.get("span_id")
    if not isinstance(trace_id, str) or not trace_id:
        return None
    if not isinstance(span_id, str) or not span_id:
        return None
    parent_id = wire.get("parent_id", "")
    if not isinstance(parent_id, str):
        parent_id = ""
    return SpanContext(trace_id=trace_id, span_id=span_id, parent_id=parent_id)
