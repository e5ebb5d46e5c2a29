"""Adaptive trace sampling — keep the spans you'd grep for, drop the rest.

Every finished span is a record in the span store's bounded ring; under
a transfer storm that means the ring turns over, and quietly destroys
trace history, at line rate. This module sits between
:func:`repro.obs.trace.add_sink` and a durable sink and decides, per
finished span, whether it is worth a record:

* **Head sampling** — a per-op keep rate (``op_rates`` with a
  ``default_rate`` fallback). The decision hashes the *trace id*, so it
  is deterministic (replayable tests, no RNG) and all spans of one trace
  share their fate per op — a kept trace is kept whole for every op at
  or above its rate.
* **Tail retention** — overrides the head decision to always keep error
  spans, and spans slower than a configurable percentile of their op's
  own recent latency (estimated from a per-op fixed-bucket histogram;
  until ``min_samples`` spans have been seen the percentile is unknown
  and only the static ``slow_threshold`` floor, if configured, applies).

Dropped spans count into ``obs.spans_sampled_out``; kept spans count
into ``obs.spans_retained{reason=head|error|slow}``, so the effective
drop rate is always observable. :meth:`SamplingSpanSink.config` is what
``gridbank trace`` prints as "the sampling config in effect".
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.crypto.hashes import sha256
from repro.obs import metrics as obs_metrics

__all__ = ["SamplingPolicy", "SamplingSpanSink"]

_BANK_PREFIX = "bank.op."


def _op_of(name: str) -> str:
    """Span name to the op key rates are declared under."""
    if name.startswith(_BANK_PREFIX):
        return name[len(_BANK_PREFIX):]
    return name


@dataclass(frozen=True)
class SamplingPolicy:
    """Declarative sampling knobs (everything the sink needs to decide)."""

    default_rate: float = 1.0
    op_rates: dict = field(default_factory=dict)
    keep_errors: bool = True
    slow_percentile: float = 0.95
    slow_threshold: Optional[float] = None  # static floor in seconds
    min_samples: int = 50

    def __post_init__(self) -> None:
        for op, rate in dict(self.op_rates).items():
            if not 0.0 <= float(rate) <= 1.0:
                raise ValueError(f"sampling rate for {op!r} must be in [0, 1]")
        if not 0.0 <= self.default_rate <= 1.0:
            raise ValueError("default_rate must be in [0, 1]")
        if not 0.0 < self.slow_percentile < 1.0:
            raise ValueError("slow_percentile must be in (0, 1)")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")

    def rate_for(self, op: str) -> float:
        return float(self.op_rates.get(op, self.default_rate))

    def config(self) -> dict:
        return {
            "default_rate": self.default_rate,
            "op_rates": {op: float(rate) for op, rate in sorted(self.op_rates.items())},
            "keep_errors": self.keep_errors,
            "slow_percentile": self.slow_percentile,
            "slow_threshold": self.slow_threshold,
            "min_samples": self.min_samples,
        }


class SamplingSpanSink:
    """Span sink decorator applying a :class:`SamplingPolicy` to *inner*.

    Plugs into :func:`repro.obs.trace.add_sink` like any sink. The slow
    estimators are private :class:`~repro.obs.metrics.Histogram`
    instances (not registry instruments): the threshold must follow THIS
    sink's traffic, and a benchmark's registry reset must not blind it.
    """

    def __init__(self, inner: Callable[[dict], None], policy: Optional[SamplingPolicy] = None) -> None:
        self.inner = inner
        self.policy = policy if policy is not None else SamplingPolicy()
        self._lock = threading.Lock()
        self._estimators: dict[str, obs_metrics.Histogram] = {}
        self._sampled_out = obs_metrics.counter("obs.spans_sampled_out")

    # -- decision ----------------------------------------------------------

    def _estimator(self, op: str) -> obs_metrics.Histogram:
        estimator = self._estimators.get(op)
        if estimator is None:
            with self._lock:
                estimator = self._estimators.get(op)
                if estimator is None:
                    estimator = self._estimators[op] = obs_metrics.Histogram(
                        f"sampling.latency.{op}"
                    )
        return estimator

    def slow_threshold_for(self, op: str) -> Optional[float]:
        """The duration above which a span of *op* is tail-retained now.

        The static ``slow_threshold`` wins when configured; otherwise the
        learned percentile once the estimator has warmed up, else None.
        """
        policy = self.policy
        if policy.slow_threshold is not None:
            return policy.slow_threshold
        estimator = self._estimators.get(op)
        if estimator is None or estimator.count < policy.min_samples:
            return None
        threshold = estimator.percentile(policy.slow_percentile)
        # an all-fast op estimates a ~0 percentile; "slower than 0" would
        # tail-retain every span and defeat the head rate entirely
        if threshold <= 0.0:
            return None
        return threshold

    @staticmethod
    def _head_keep(trace_id: str, rate: float) -> bool:
        if rate >= 1.0:
            return True
        if rate <= 0.0 or not trace_id:
            return False
        digest = sha256(trace_id)
        fraction = int.from_bytes(digest[:8], "big") / 2.0**64
        return fraction < rate

    def decide(self, record: dict) -> tuple[bool, str]:
        """(keep, reason) for one span record; advances the estimator."""
        op = _op_of(str(record.get("name", "")))
        duration = float(record.get("duration_seconds", 0.0))
        # read the threshold BEFORE folding this span in: the decision
        # depends only on prior state, so replaying the same record
        # stream through a fresh sink reproduces the same decisions
        threshold = self.slow_threshold_for(op)
        self._estimator(op).observe(duration)
        if self.policy.keep_errors and str(record.get("status", "ok")) != "ok":
            return True, "error"
        if threshold is not None and duration >= threshold:
            return True, "slow"
        if self._head_keep(str(record.get("trace_id", "")), self.policy.rate_for(op)):
            return True, "head"
        return False, ""

    # -- sink protocol -----------------------------------------------------

    def __call__(self, record: dict) -> None:
        keep, reason = self.decide(record)
        if not keep:
            self._sampled_out.inc()
            return
        obs_metrics.counter("obs.spans_retained", reason=reason).inc()
        self.inner(record)

    def config(self) -> dict:
        """The policy plus the live per-op slow thresholds (for display)."""
        out = self.policy.config()
        with self._lock:
            ops = list(self._estimators)
        out["slow_thresholds"] = {
            op: self.slow_threshold_for(op) for op in sorted(ops)
        }
        return out
