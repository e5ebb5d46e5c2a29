"""Observability substrate: logs, metrics, traces — now durable.

GridBank's value is an auditable record of who used what and who paid
whom (GASA sec 3.2, 5.1); this package gives the reproduction the same
property for its own behaviour. Seven pieces:

* :mod:`repro.obs.metrics` — thread-safe in-process counters, gauges and
  fixed-bucket histograms (exponential bounds by default), read out via
  ``snapshot()`` (the benchmark sidecars and the ``gridbank metrics``
  CLI).
* :mod:`repro.obs.logging` — structured key=value / JSON-line logging on
  stdlib :mod:`logging`, with a capturing handler for tests.
* :mod:`repro.obs.trace` — trace/span IDs minted at the RPC client,
  carried in the envelope ``trace`` field, restored around server-side
  dispatch, and stamped onto ledger TRANSACTION/TRANSFER rows; spans are
  *recorded* (timing, events, status) and flushed to sinks on close.
* :mod:`repro.obs.store` — the bounded segment ring beside the database
  that keeps telemetry off the ledger's journal, and the span store built
  on it: every finished span, queryable by ``gridbank trace`` and read by
  the flight recorder's post-mortems.
* :mod:`repro.obs.export` — Prometheus-text rendering of the metrics
  snapshot, with file/HTTP polling sidecars (plus ``/healthz``).
* :mod:`repro.obs.slo` — declarative per-op objectives evaluated as
  multi-window burn rates, with an ok/warning/page alert state machine.
* :mod:`repro.obs.usage` — per-principal usage metering, rolled up into
  lines of a segment ring of its own, one per node.
"""

from repro.obs import export, logging, metrics, slo, store, trace, usage

__all__ = ["export", "logging", "metrics", "slo", "store", "trace", "usage"]
