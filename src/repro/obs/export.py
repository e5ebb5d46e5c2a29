"""Prometheus-text exporter over the metrics registry.

:func:`render_prometheus` turns a :func:`repro.obs.metrics.snapshot` dict
into the Prometheus text exposition format (version 0.0.4): counters and
gauges as their own types, histograms as native ``_bucket{le=...}``
series (the registry's snapshot carries cumulative bucket pairs). A
snapshot whose histogram summaries lack bucket data — hand-built fixtures
from before the buckets were exposed — falls back to a *summary* with
``{quantile="..."}`` series estimated from p50/p95/p99.

Registry names like ``rpc.breaker.state{breaker=bank}`` are split back
into a metric name and labels: dots become underscores (Prometheus names
cannot contain ``.``), label values are quoted and escaped.

Two sidecars poll the registry so external collectors need no hook into
the serving loop:

* :class:`FileExporter` — atomically rewrites a textfile every interval
  (the node-exporter "textfile collector" pattern).
* :class:`HTTPExporter` — a tiny stdlib HTTP server answering ``GET
  /metrics``; scrape it like any Prometheus target.
"""

from __future__ import annotations

import json
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Optional, Union

from repro.obs import metrics as obs_metrics
from repro.util.runner import Runner

__all__ = [
    "render_prometheus",
    "FileExporter",
    "HTTPExporter",
    "CONTENT_TYPE",
]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _split_key(key: str) -> tuple[str, dict[str, str]]:
    """``name{k=v,...}`` (the registry's instrument key) -> (name, labels).

    Label *values* may themselves contain key syntax — principal DNs are
    ``CN=...,O=...`` — which the registry backslash-escapes when it builds
    the key; this parser honors those escapes (``\\X`` means literal
    ``X``), so DN-valued labels round-trip intact.
    """
    if "{" not in key or not key.endswith("}"):
        return key, {}
    name, _, rest = key.partition("{")
    labels: dict[str, str] = {}
    label: list[str] = []
    value: list[str] = []
    target = label
    chars = iter(rest[:-1])
    for ch in chars:
        if ch == "\\":
            target.append(next(chars, ""))
        elif ch == "=" and target is label:
            target = value
        elif ch == ",":
            if label:
                labels["".join(label)] = "".join(value)
            label, value = [], []
            target = label
        else:
            target.append(ch)
    if label:
        labels["".join(label)] = "".join(value)
    return name, labels


def _prom_name(name: str) -> str:
    cleaned = _NAME_OK.sub("_", name.replace(".", "_"))
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        f'{_prom_name(k)}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + rendered + "}"


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(data: Optional[dict] = None, exemplars: bool = False) -> str:
    """Render *data* (default: a fresh registry snapshot) as Prometheus
    text. Series sharing a base name are grouped under one TYPE line.

    With ``exemplars=True``, ``_bucket`` lines whose histogram summary
    carries trace-ID exemplars get an OpenMetrics-style annotation
    (``... # {trace_id="..."} 1``). Off by default — the plain 0.0.4
    output stays byte-identical for strict parsers.
    """
    if data is None:
        data = obs_metrics.snapshot()
    lines: list[str] = []

    def section(entries: dict, prom_type: str) -> None:
        grouped: dict[str, list[tuple[dict, object]]] = {}
        for key in sorted(entries):
            name, labels = _split_key(key)
            grouped.setdefault(_prom_name(name), []).append((labels, entries[key]))
        for name in sorted(grouped):
            lines.append(f"# TYPE {name} {prom_type}")
            for labels, value in grouped[name]:
                lines.append(f"{name}{_labels_text(labels)} {_format_value(value)}")

    section(data.get("counters", {}), "counter")
    section(data.get("gauges", {}), "gauge")

    histograms = data.get("histograms", {})
    grouped: dict[str, list[tuple[dict, dict]]] = {}
    for key in sorted(histograms):
        name, labels = _split_key(key)
        grouped.setdefault(_prom_name(name), []).append((labels, histograms[key]))
    for name in sorted(grouped):
        entries = grouped[name]
        if all("buckets" in summary for _, summary in entries):
            # registry snapshots carry cumulative bucket pairs — render a
            # native Prometheus histogram (``_bucket{le=...}`` series)
            lines.append(f"# TYPE {name} histogram")
            for labels, summary in entries:
                exemplar_by_bound = (
                    {bound if isinstance(bound, str) else float(bound): trace_id
                     for bound, trace_id in summary.get("exemplars", [])}
                    if exemplars else {}
                )
                for bound, cumulative in summary["buckets"]:
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = (
                        bound if isinstance(bound, str) else _format_value(float(bound))
                    )
                    line = (
                        f"{name}_bucket{_labels_text(bucket_labels)} "
                        f"{_format_value(cumulative)}"
                    )
                    trace_id = exemplar_by_bound.get(
                        bound if isinstance(bound, str) else float(bound)
                    )
                    if trace_id:
                        line += f' # {{trace_id="{_escape_label(trace_id)}"}} 1'
                    lines.append(line)
                suffix = _labels_text(labels)
                lines.append(f"{name}_sum{suffix} {_format_value(summary.get('sum', 0.0))}")
                lines.append(f"{name}_count{suffix} {_format_value(summary.get('count', 0))}")
            continue
        # hand-built snapshots without bucket data: quantile summary
        lines.append(f"# TYPE {name} summary")
        for labels, summary in entries:
            for quantile, field in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                quantile_labels = dict(labels)
                quantile_labels["quantile"] = quantile
                lines.append(
                    f"{name}{_labels_text(quantile_labels)} "
                    f"{_format_value(summary.get(field, 0.0))}"
                )
            suffix = _labels_text(labels)
            lines.append(f"{name}_sum{suffix} {_format_value(summary.get('sum', 0.0))}")
            lines.append(f"{name}_count{suffix} {_format_value(summary.get('count', 0))}")

    return "\n".join(lines) + "\n"


class FileExporter:
    """Polling sidecar rewriting a Prometheus textfile every interval.

    The write is atomic (temp file + replace), so a collector reading the
    path never sees a torn exposition. ``write_once()`` is exposed for
    one-shot use (the CLI's ``metrics export --out``).
    """

    def __init__(
        self,
        path: Union[str, Path],
        interval: float = 5.0,
        snapshot_fn: Callable[[], dict] = obs_metrics.snapshot,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.path = Path(path)
        self.interval = interval
        self._snapshot_fn = snapshot_fn
        self._runner = Runner("gridbank-metrics-file", self.write_once, interval)

    def write_once(self) -> None:
        text = render_prometheus(self._snapshot_fn())
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(self.path)

    def start(self) -> "FileExporter":
        if self._runner.alive:
            raise RuntimeError("exporter already started")
        self.write_once()
        self._runner.start()
        return self

    def stop(self) -> None:
        self._runner.stop()
        # final write so the file reflects the last state at shutdown
        self.write_once()


class HTTPExporter:
    """Scrape endpoint: ``GET /metrics`` renders a fresh snapshot.

    Binds ``127.0.0.1`` by default (operational telemetry is not part of
    the authenticated GSI surface — do not expose it beyond the host).
    Pass ``port=0`` to let the OS choose; the bound port is ``self.port``
    after :meth:`start`.

    When *health_fn* is provided, ``GET /healthz`` serves its dict as
    JSON for load-balancer readiness checks — status 200 while the
    payload's ``ok`` field (default True) holds, 503 otherwise, so an LB
    can drop a paging or badly-lagged node without parsing the body.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        snapshot_fn: Callable[[], dict] = obs_metrics.snapshot,
        health_fn: Optional[Callable[[], dict]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self._snapshot_fn = snapshot_fn
        self._health_fn = health_fn
        self._server: Optional[ThreadingHTTPServer] = None
        self._runner: Optional[Runner] = None

    def start(self) -> "HTTPExporter":
        if self._server is not None:
            raise RuntimeError("exporter already started")
        snapshot_fn = self._snapshot_fn
        health_fn = self._health_fn

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
                path = self.path.split("?", 1)[0].rstrip("/")
                if path == "/healthz":
                    if health_fn is None:
                        self.send_response(404)
                        self.end_headers()
                        return
                    try:
                        payload = health_fn()
                        status = 200 if payload.get("ok", True) else 503
                        body = json.dumps(payload, sort_keys=True).encode("utf-8")
                    except Exception as exc:  # health must never crash the listener
                        status = 503
                        body = json.dumps(
                            {"ok": False, "error": type(exc).__name__}
                        ).encode("utf-8")
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json; charset=utf-8")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                    return
                if path not in ("", "/metrics"):
                    self.send_response(404)
                    self.end_headers()
                    return
                body = render_prometheus(snapshot_fn()).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: object) -> None:
                pass  # scrapes are not worth a log line each

        self._server = ThreadingHTTPServer((self.host, self.port), Handler)
        self.port = self._server.server_address[1]
        # the step is the stdlib server's own request poll: it blocks up
        # to `timeout` for a connection and hands it to a handler thread,
        # so the runner goes straight back into it (interval 0)
        self._server.timeout = 0.5
        self._runner = Runner("gridbank-metrics-http", self._server.handle_request, 0.0)
        self._runner.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._runner.stop()
            self._server.server_close()
            self._server = None
