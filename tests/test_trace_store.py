"""Durable spans: recording, the span store, trace CLI, exporter, gate.

The PR 3 subsystem end to end — spans recorded around RPC/bank dispatch,
flushed to sinks, kept in the segment ring beside the database
(surviving a restart once flushed), queried back by ``gridbank trace``,
metrics rendered as Prometheus text, and the benchmark-trajectory gate
logic.
"""

import importlib.util
import json
import random
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.bank.node import Node, NodeConfig
from repro.cli import _load_bank, _tcp_connect, main
from repro.db.database import Database
from repro.errors import (
    InsufficientFundsError,
    TransactionError,
    TransactionRequiredError,
    ValidationError,
)
from repro.net.retry import BREAKER_OPEN, CircuitBreaker
from repro.net.tcp import TCPServer
from repro.obs import export as obs_export
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs import store as obs_store
from repro.obs.store import SpanStore, render_waterfall
from repro.util.gbtime import VirtualClock
from repro.util.money import Credits

from tests.test_exactly_once import world  # noqa: F401 - reuse the crash harness


# -- span recording ----------------------------------------------------------


class TestSpanRecording:
    def test_span_record_shape_and_sink_delivery(self):
        records = []
        with obs_trace.sink_installed(records.append):
            with obs_trace.span("unit.work", kind="test", flavour="plain") as rec:
                rec.add_event("milestone", step=1)
        assert len(records) == 1
        record = records[0]
        assert record["name"] == "unit.work"
        assert record["kind"] == "test"
        assert record["status"] == "ok"
        assert record["error_type"] == ""
        assert record["attrs"] == {"flavour": "plain"}
        assert record["duration_seconds"] >= 0.0
        assert record["events"][0]["name"] == "milestone"
        assert record["events"][0]["fields"] == {"step": 1}
        assert record["trace_id"] and record["span_id"]

    def test_nested_spans_share_trace_and_link_parent(self):
        records = []
        with obs_trace.sink_installed(records.append):
            with obs_trace.span("outer"):
                with obs_trace.span("inner"):
                    pass
        inner, outer = records  # inner closes first
        assert inner["name"] == "inner"
        assert inner["trace_id"] == outer["trace_id"]
        assert inner["parent_id"] == outer["span_id"]

    def test_exception_marks_error_and_still_flushes(self):
        records = []
        with obs_trace.sink_installed(records.append):
            with pytest.raises(ValidationError):
                with obs_trace.span("doomed"):
                    raise ValidationError("boom")
        assert records[0]["status"] == "error"
        assert records[0]["error_type"] == "ValidationError"

    def test_broken_sink_is_swallowed_into_counter(self):
        before = obs_metrics.counter("obs.span_sink_errors").value

        def broken(_record):
            raise RuntimeError("sink is broken")

        with obs_trace.sink_installed(broken):
            with obs_trace.span("survives"):
                pass
        assert obs_metrics.counter("obs.span_sink_errors").value == before + 1

    def test_add_event_outside_any_span_is_a_noop(self):
        assert obs_trace.add_event("nobody.listening", x=1) is False


class TestBreakerEvents:
    def test_breaker_transition_lands_on_active_span(self):
        records = []
        clock = VirtualClock()
        breaker = CircuitBreaker(
            "evt-test", failure_threshold=1, reset_timeout=5.0, clock=clock
        )
        with obs_trace.sink_installed(records.append):
            with obs_trace.span("guarded.call"):
                breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        events = records[0]["events"]
        assert any(
            e["name"] == "breaker.transition"
            and e["fields"]["to_state"] == BREAKER_OPEN
            for e in events
        )


# -- the span store ----------------------------------------------------------


@pytest.fixture()
def small_ring(monkeypatch):
    """Three segments of ten records, written out every four: the ring
    bound within reach of a unit test (the sizes are module constants)."""
    monkeypatch.setattr(obs_store, "SEGMENT_RECORDS", 10)
    monkeypatch.setattr(obs_store, "MAX_SEGMENTS", 3)
    monkeypatch.setattr(obs_store, "BUFFER_RECORDS", 4)


@pytest.fixture()
def span_dirs(tmp_path):
    """Both homes of the one store: the ring in memory, and in a directory."""
    return (None, tmp_path / "spans" / "db")


class TestSpanStore:
    def _record(self, **overrides):
        record = {
            "trace_id": "t" * 16,
            "span_id": "s" * 8,
            "parent_id": "",
            "name": "unit.op",
            "kind": "internal",
            "status": "ok",
            "error_type": "",
            "start_epoch": 1000.0,
            "duration_seconds": 0.25,
            "attrs": {"k": "v"},
            "events": [{"offset_seconds": 0.1, "name": "e", "fields": {"n": 1}}],
        }
        record.update(overrides)
        return record

    def test_store_and_query_roundtrip(self, span_dirs):
        for span_dir in span_dirs:
            store = SpanStore(span_dir)
            store(self._record())
            [back] = store.spans_for_trace("t" * 16)
            assert back == self._record()  # omitted defaults come back filled in
            assert store.trace_ids() == ["t" * 16]
            assert len(store) == 1

    def test_nothing_touches_disk_until_a_record_is_written_out(self, tmp_path):
        directory = tmp_path / "spans" / "db"
        store = SpanStore(directory)
        store.flush()
        assert len(store) == 0 and store.trace_ids() == []
        assert not directory.exists()
        store(self._record())
        assert not directory.exists() and len(store) == 1  # buffered
        store.flush()
        [segment] = directory.iterdir()
        line = segment.read_text()
        assert line.endswith("\n") and len(line) < 200
        # empty and default fields are left out of the stored line
        assert "parent_id" not in line and "status" not in line and "kind" not in line

    def test_long_strings_truncated_not_refused(self, span_dirs):
        for span_dir in span_dirs:
            store = SpanStore(span_dir)
            store(self._record(
                name="n" * 5000, error_type="E" * 5000, status="error",
                attrs={"blob": "x" * 5000, "n": 7},
            ))
            store(self._record(span_id="wide0000", attrs={f"k{i}": "y" * 60 for i in range(500)}))
            long, wide = store.spans_for_trace("t" * 16)
            assert long["name"] == "n" * 64 and long["status"] == "error"
            assert long["error_type"] == "E" * 64
            # over the line cap the free-form part goes; identity and timing stay
            assert long["attrs"] == {} and wide["attrs"] == {}
            assert wide["span_id"] == "wide0000" and wide["duration_seconds"] == 0.25
            if span_dir is not None:
                [segment] = span_dir.iterdir()
                assert max(map(len, segment.read_bytes().splitlines())) <= obs_store.MAX_LINE_BYTES

    def test_buffer_is_written_at_its_count_and_at_its_age(self, tmp_path, small_ring, monkeypatch):
        directory = tmp_path / "spans" / "db"
        store = SpanStore(directory)
        for i in range(3):
            store(self._record(span_id=f"sp{i:06d}"))
        assert not directory.exists()
        store(self._record(span_id="sp000003"))  # the fourth reaches BUFFER_RECORDS
        [segment] = directory.iterdir()
        assert len(segment.read_text().splitlines()) == 4
        monkeypatch.setattr(obs_store, "BUFFER_SECONDS", 0.02)
        store(self._record(span_id="sp000004"))
        assert len(segment.read_text().splitlines()) == 4
        time.sleep(0.03)
        store(self._record(span_id="sp000005"))  # the next append finds the buffer old
        assert len(segment.read_text().splitlines()) == 6

    def test_eviction_keeps_newest(self, span_dirs, small_ring):
        """At the ring bound the oldest segment goes whole, and is counted."""
        for span_dir in span_dirs:
            dropped = obs_metrics.counter("obs.spans_dropped")
            before = dropped.value
            store = SpanStore(span_dir)
            for i in range(45):
                store(self._record(span_id=f"sp{i:06d}", trace_id=f"tr{i:06d}"))
            # segments 1 and 2 (ten records each) went; 3, 4 and half of 5 remain
            assert len(store) == 25
            assert dropped.value - before == 20
            assert store.spans_for_trace("tr000044")  # newest survived
            assert store.spans_for_trace("tr000020") and not store.spans_for_trace("tr000019")
            if span_dir is not None:
                store.flush()
                assert sorted(p.name for p in span_dir.iterdir()) == [
                    "seg-00000003.jsonl", "seg-00000004.jsonl", "seg-00000005.jsonl",
                ]

    def test_restart_continues_the_ring_and_counts_an_inherited_segment(self, tmp_path, small_ring):
        directory = tmp_path / "spans" / "db"
        first = SpanStore(directory)
        for i in range(25):
            first(self._record(span_id=f"sp{i:06d}"))
        first.flush()
        dropped = obs_metrics.counter("obs.spans_dropped")
        before = dropped.value
        second = SpanStore(directory)  # a new process: a segment of its own
        assert len(second) == 25
        second(self._record(span_id="sp000025"))
        second.flush()
        # opening segment 4 pushed segment 1 (ten inherited records) out
        assert dropped.value - before == 10
        assert len(second) == 16
        assert sorted(p.name for p in directory.iterdir())[0] == "seg-00000002.jsonl"

    def test_torn_last_line_is_skipped(self, tmp_path):
        directory = tmp_path / "spans" / "db"
        first = SpanStore(directory)
        first(self._record(span_id="whole000"))
        first.flush()
        [segment] = directory.iterdir()
        with open(segment, "a") as handle:
            handle.write('{"trace_id":"tttttttttttttttt","span_id":"torn')  # crash mid-write
        second = SpanStore(directory)
        assert len(second) == 1
        assert [r["span_id"] for r in second.spans_for_trace("t" * 16)] == ["whole000"]
        # and nothing is ever appended after the torn bytes
        second(self._record(span_id="after000"))
        second.flush()
        assert len(list(directory.iterdir())) == 2
        assert [r["span_id"] for r in second.grep("unit.op")] == ["whole000", "after000"]

    def test_unflushed_buffer_is_the_only_loss_after_an_abrupt_drop(self, tmp_path, small_ring):
        directory = tmp_path / "spans" / "db"
        store = SpanStore(directory)
        for i in range(10):
            store(self._record(span_id=f"sp{i:06d}"))
        del store  # kill -9: no flush, no close
        survivors = SpanStore(directory).spans_for_trace("t" * 16)
        assert [r["span_id"] for r in survivors] == [f"sp{i:06d}" for i in range(8)]

    def test_two_threads_appending_lose_nothing(self, span_dirs, small_ring, monkeypatch):
        monkeypatch.setattr(obs_store, "MAX_SEGMENTS", 1000)  # no drops: count every record
        for span_dir in span_dirs:
            store = SpanStore(span_dir)
            workers, each = 8, 250
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [
                    threading.Thread(
                        target=lambda w=w: [
                            store(self._record(span_id=f"w{w}-{i:05d}")) for i in range(each)
                        ]
                    )
                    for w in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert len(store) == workers * each
            seen = {r["span_id"] for r in store.spans_for_trace("t" * 16)}
            assert len(seen) == workers * each

    def test_slowest_and_grep(self, span_dirs):
        for span_dir in span_dirs:
            store = SpanStore(span_dir)
            store(self._record(span_id="fast0000", name="op.fast", duration_seconds=0.01))
            store(self._record(span_id="slow0000", name="op.slow", duration_seconds=2.0))
            slowest = store.slowest(limit=1)
            assert slowest[0]["name"] == "op.slow"
            assert [r["name"] for r in store.slowest(name="op.f")] == ["op.fast"]
            assert [r["name"] for r in store.grep("op.fast")] == ["op.fast"]
            # case-insensitive, and the events are searched too
            assert {r["name"] for r in store.grep('"N":1')} == {"op.fast", "op.slow"}
            assert store.grep("no-such-needle") == []

    def test_waterfall_renders_hierarchy_events_and_ledger(self):
        records = [
            self._record(span_id="root0000", name="rpc.call", start_epoch=1000.0),
            self._record(
                span_id="chld0000", parent_id="root0000",
                name="rpc.server.dispatch", start_epoch=1000.1,
            ),
        ]
        ledger = [{"_table": "transfers", "TransactionID": 7, "TraceID": "t" * 16}]
        text = render_waterfall(records, ledger)
        assert "rpc.call" in text and "rpc.server.dispatch" in text
        assert text.index("rpc.call") < text.index("rpc.server.dispatch")
        assert "transfers" in text and "TransactionID=7" in text
        assert "+" in text  # offsets rendered
        assert render_waterfall([]) == "(no spans)"


# -- typed transaction guard -------------------------------------------------


class TestTransactionRequired:
    def test_require_transaction_raises_typed_error(self):
        db = Database()
        with pytest.raises(TransactionRequiredError):
            db.require_transaction("test writes")
        with db.transaction():
            db.require_transaction("test writes")  # no raise inside

    def test_subclass_of_transaction_error(self):
        assert issubclass(TransactionRequiredError, TransactionError)

    def test_preserved_over_rpc(self, world):  # noqa: F811
        bank = world["bank"]()
        bank.endpoint.register(
            "Test.RequireTxn",
            lambda subject, params: bank.db.require_transaction("guarded effect"),
        )
        with pytest.raises(TransactionRequiredError):
            world["alice"]._client.call("Test.RequireTxn")


# -- trace propagation edge cases over real dispatch -------------------------


class TestDispatchTracing:
    def test_spans_cover_client_server_and_bank_op(self, world):  # noqa: F811
        records = []
        with obs_trace.sink_installed(records.append):
            world["alice"].request_direct_transfer(
                world["alice_account"], world["gsp_account"], Credits(5)
            )
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], record)
        client = by_name["rpc.call"]
        server = by_name["rpc.server.dispatch"]
        bank_op = by_name["bank.op.direct_transfer"]
        assert client["trace_id"] == server["trace_id"] == bank_op["trace_id"]
        assert server["parent_id"] == client["span_id"]
        assert bank_op["parent_id"] == server["span_id"]
        # the ledger rows carry the same trace id
        bank = world["bank"]()
        transfer = bank.db.select("transfers")[-1]
        assert transfer["TraceID"] == client["trace_id"]

    def test_malformed_trace_envelope_roots_fresh_server_trace(self, world, monkeypatch):  # noqa: F811
        records = []
        monkeypatch.setattr(obs_trace, "to_wire", lambda span: {"bogus": True})
        with obs_trace.sink_installed(records.append):
            details = world["alice"]._client.call(
                "RequestAccountDetails", account_id=world["alice_account"]
            )
        assert details["AccountID"] == world["alice_account"]
        server = next(r for r in records if r["name"] == "rpc.server.dispatch")
        client = next(r for r in records if r["name"] == "rpc.call")
        # the wire trace was garbage, so the server rooted its own trace
        assert server["parent_id"] == ""
        assert server["trace_id"] != client["trace_id"]

    def test_dispatch_error_still_flushes_error_span(self, world):  # noqa: F811
        records = []
        with obs_trace.sink_installed(records.append):
            with pytest.raises(InsufficientFundsError):
                world["alice"].request_direct_transfer(
                    world["alice_account"], world["gsp_account"], Credits(10**9)
                )
        server = next(r for r in records if r["name"] == "rpc.server.dispatch")
        assert server["status"] == "error"
        assert server["error_type"] == "InsufficientFundsError"

    def test_span_rows_survive_crash_recovery(self, world, tmp_path):  # noqa: F811
        """Flushed spans are readable after a restart and still join the
        recovered TRANSFER row; they are files beside the journal now,
        not rows in it."""
        bank = world["bank"]()
        assert bank.spans.directory == tmp_path / "spans" / "bank"
        with obs_trace.sink_installed(bank.spans):
            world["alice"].request_direct_transfer(
                world["alice_account"], world["gsp_account"], Credits(7)
            )
        trace_id = bank.db.select("transfers")[-1]["TraceID"]
        assert trace_id
        assert bank.spans.spans_for_trace(trace_id)
        bank.spans.flush()
        # crash + WAL replay into a fresh process-equivalent
        restarted = world["restart_bank"]()
        revived = restarted.spans.spans_for_trace(trace_id)
        names = {r["name"] for r in revived}
        assert "rpc.server.dispatch" in names
        assert "bank.op.direct_transfer" in names
        # and the waterfall joins spans with the recovered ledger row
        text = render_waterfall(
            revived,
            [{"_table": "transfers", **row}
             for row in restarted.db.select("transfers")
             if row["TraceID"] == trace_id],
        )
        assert "bank.op.direct_transfer" in text
        assert "transfers" in text

    def test_in_memory_bank_keeps_its_spans_in_memory(self, world):  # noqa: F811
        from repro.bank.server import GridBankServer

        bank = GridBankServer(world["bank"]().identity, world["store"])
        assert bank.spans.directory is None
        bank.spans({"trace_id": "m" * 16, "span_id": "s" * 8, "name": "unit.op"})
        assert [r["name"] for r in bank.spans.spans_for_trace("m" * 16)] == ["unit.op"]


# -- exponential buckets -----------------------------------------------------


class TestExponentialBuckets:
    def test_generator_values_and_validation(self):
        assert obs_metrics.exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)
        with pytest.raises(ValueError):
            obs_metrics.exponential_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            obs_metrics.exponential_buckets(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            obs_metrics.exponential_buckets(1.0, 2.0, 0)

    def test_default_buckets_configurable_for_new_histograms(self):
        original = obs_metrics.default_latency_buckets()
        try:
            obs_metrics.set_default_latency_buckets((0.1, 1.0, 10.0))
            histogram = obs_metrics.Histogram("cfg.test")
            assert histogram.buckets == (0.1, 1.0, 10.0)
        finally:
            obs_metrics.set_default_latency_buckets(original)
        assert obs_metrics.Histogram("cfg.test2").buckets == original

    def test_snapshot_shape_unchanged(self):
        histogram = obs_metrics.Histogram("shape.test")
        histogram.observe(0.5)
        assert set(histogram.summary()) == {
            "count", "sum", "mean", "min", "max", "p50", "p95", "p99", "buckets",
        }
        # cumulative pairs, ending at the +Inf overflow = total count
        buckets = histogram.summary()["buckets"]
        assert buckets[-1] == ["+Inf", 1]
        assert [count for _, count in buckets] == sorted(count for _, count in buckets)


# -- Prometheus export -------------------------------------------------------


class TestPrometheusExport:
    def _snapshot(self):
        return {
            "counters": {"bank.dedup_hits": 3.0, "rpc.client.retries{method=Pay}": 2.0},
            "gauges": {"rpc.breaker.state{breaker=bank}": 2.0},
            "histograms": {
                "rpc.client.call_seconds{method=Pay}": {
                    "count": 10, "sum": 1.5, "mean": 0.15, "min": 0.1,
                    "max": 0.2, "p50": 0.14, "p95": 0.19, "p99": 0.2,
                }
            },
        }

    def test_render_types_labels_and_quantiles(self):
        text = obs_export.render_prometheus(self._snapshot())
        assert "# TYPE bank_dedup_hits counter" in text
        assert "bank_dedup_hits 3" in text
        assert '# TYPE rpc_breaker_state gauge' in text
        assert 'rpc_breaker_state{breaker="bank"} 2' in text
        assert "# TYPE rpc_client_call_seconds summary" in text
        assert 'rpc_client_call_seconds{method="Pay",quantile="0.5"} 0.14' in text
        assert 'rpc_client_call_seconds_sum{method="Pay"} 1.5' in text
        assert 'rpc_client_call_seconds_count{method="Pay"} 10' in text

    def test_file_exporter_atomic_write(self, tmp_path):
        out = tmp_path / "metrics.prom"
        exporter = obs_export.FileExporter(out, snapshot_fn=self._snapshot)
        exporter.write_once()
        assert "bank_dedup_hits 3" in out.read_text()

    def test_file_exporter_survives_a_failed_write(self, tmp_path):
        """At the parent the loop had no ``try``: one failed write_once()
        ended the gridbank-metrics-file thread and the textfile went
        stale for the rest of the process."""
        out = tmp_path / "metrics.prom"
        calls = []
        rewritten = threading.Event()

        def snapshot():
            calls.append(1)
            if len(calls) == 2:  # the thread's first rewrite (start() made the first)
                raise OSError("disk full")
            if len(calls) == 3:
                rewritten.set()
            return {"counters": {"writes": float(len(calls))}, "gauges": {}, "histograms": {}}

        errors = obs_metrics.counter("runner.step_errors", runner="gridbank-metrics-file")
        before = errors.value
        exporter = obs_export.FileExporter(out, interval=0.02, snapshot_fn=snapshot).start()
        try:
            assert "writes 1" in out.read_text()
            assert rewritten.wait(5.0)
        finally:
            exporter.stop()  # joins, then the final write
        assert errors.value == before + 1
        assert f"writes {len(calls)}" in out.read_text() and len(calls) >= 4

    def test_http_exporter_serves_scrapes(self):
        exporter = obs_export.HTTPExporter(port=0, snapshot_fn=self._snapshot).start()
        try:
            url = f"http://127.0.0.1:{exporter.port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as response:
                assert response.status == 200
                assert "0.0.4" in response.headers["Content-Type"]
                body = response.read().decode("utf-8")
            assert 'rpc_breaker_state{breaker="bank"} 2' in body
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{exporter.port}/nope", timeout=5
                )
        finally:
            exporter.stop()


# -- trajectory recorder + regression gate (logic, no subprocess) ------------


def _load_module(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REPO = Path(__file__).resolve().parent.parent
trajectory = _load_module(REPO / "benchmarks" / "trajectory.py", "gb_trajectory")
gate = _load_module(REPO / "tools" / "check_bench_regression.py", "gb_bench_gate")


class TestTrajectory:
    def _report(self, mean):
        return {
            "benchmarks": [
                {
                    "fullname": "benchmarks/bench_x.py::test_y",
                    "stats": {"mean": mean, "rounds": 5},
                }
            ]
        }

    def _sidecar(self):
        return {
            "benchmarks/bench_x.py::test_y": {
                "histograms": {
                    "rpc.client.call_seconds": {
                        "count": 50, "p50": 0.01, "p95": 0.02, "p99": 0.03,
                    },
                    "minor.histogram": {"count": 2, "p50": 9.0, "p95": 9.0, "p99": 9.0},
                }
            }
        }

    def test_entry_schema_and_sidecar_join(self):
        entry = trajectory.build_entry(self._report(0.01), self._sidecar(), quick=True)
        assert entry["schema"] == 1
        assert entry["quick"] is True
        assert entry["commit"]
        assert entry["recorded_at"].endswith("Z")
        scenario = entry["scenarios"]["benchmarks/bench_x.py::test_y"]
        assert scenario["ops_per_second"] == pytest.approx(100.0)
        # the hot-path histogram (highest count) supplies the percentiles
        assert scenario["latency_metric"] == "rpc.client.call_seconds"
        assert scenario["p99"] == 0.03

    def test_append_builds_a_list(self, tmp_path):
        out = tmp_path / "BENCH_TRAJECTORY.json"
        entry = trajectory.build_entry(self._report(0.01), {}, quick=False)
        assert trajectory.append_entry(entry, out) == 1
        assert trajectory.append_entry(entry, out) == 2
        history = json.loads(out.read_text())
        assert isinstance(history, list) and len(history) == 2

    def test_gate_exits_3_with_fewer_than_two_entries(self, tmp_path, capsys):
        # exit 3 is the distinct "no baseline yet" code: not a pass (0),
        # not a regression (1) — CI tolerates it explicitly
        out = tmp_path / "BENCH_TRAJECTORY.json"
        assert gate.main(["--file", str(out)]) == 3  # no file at all
        entry = trajectory.build_entry(self._report(0.01), {}, quick=False)
        trajectory.append_entry(entry, out)
        assert gate.main(["--file", str(out)]) == 3  # baseline only
        assert "make bench-record" in capsys.readouterr().out

    def test_gate_fails_on_regression_and_passes_within_threshold(self, tmp_path):
        out = tmp_path / "BENCH_TRAJECTORY.json"
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.01), {}, quick=False), out
        )
        # 10% slower: within the 20% budget
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.011), {}, quick=False), out
        )
        assert gate.main(["--file", str(out)]) == 0
        # 50% slower than the previous full entry: gate trips
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.022), {}, quick=False), out
        )
        assert gate.main(["--file", str(out)]) == 1

    def _sidecar_p95(self, p95):
        return {
            "benchmarks/bench_x.py::test_y": {
                "histograms": {
                    "rpc.client.call_seconds": {
                        "count": 50, "p50": p95 / 2, "p95": p95, "p99": p95 * 1.5,
                    },
                }
            }
        }

    def test_gate_fails_on_p95_growth_even_with_steady_ops(self, tmp_path):
        out = tmp_path / "BENCH_TRAJECTORY.json"
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.01), self._sidecar_p95(0.020), quick=False), out
        )
        # same throughput, p95 +20%: within the 25% tail budget
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.01), self._sidecar_p95(0.024), quick=False), out
        )
        assert gate.main(["--file", str(out)]) == 0
        # same throughput again, but p95 +150% vs prior entry: gate trips
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.01), self._sidecar_p95(0.060), quick=False), out
        )
        assert gate.main(["--file", str(out)]) == 1
        # a tighter ops threshold does not excuse the tail, a looser p95 one does
        assert gate.main(["--file", str(out), "--p95-threshold", "2.0"]) == 0

    def test_gate_normalizes_by_machine_calibration(self, tmp_path):
        out = tmp_path / "BENCH_TRAJECTORY.json"
        # baseline on a fast machine: 100 ops/s at calibration 2M
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.01), {}, quick=False, calibration=2e6), out
        )
        # the box slowed to half speed and the scenario slowed with it:
        # raw drop is 40% (gate limit 20%) but calibrated it's a wash
        trajectory.append_entry(
            trajectory.build_entry(self._report(1 / 60.0), {}, quick=False, calibration=1e6), out
        )
        assert gate.main(["--file", str(out)]) == 0
        # same half-speed machine, but the scenario lost 50% even after
        # scaling: a real code regression the calibration must NOT excuse
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.04), {}, quick=False, calibration=1e6), out
        )
        assert gate.main(["--file", str(out)]) == 1

    def test_gate_rebaselines_when_only_one_entry_is_calibrated(self, tmp_path, capsys):
        out = tmp_path / "BENCH_TRAJECTORY.json"
        # uncalibrated baseline (recorded before the probe existed),
        # calibrated latest with a catastrophic raw drop: no comparison
        # is possible, the gate must re-baseline loudly instead of failing
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.01), {}, quick=False), out
        )
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.05), {}, quick=False, calibration=1e6), out
        )
        assert gate.main(["--file", str(out)]) == 0
        assert "RE-BASELINING" in capsys.readouterr().out

    def test_gate_never_compares_quick_against_full(self, tmp_path):
        out = tmp_path / "BENCH_TRAJECTORY.json"
        trajectory.append_entry(
            trajectory.build_entry(self._report(0.01), {}, quick=False), out
        )
        # a terrible quick run must not be judged against the full baseline;
        # with no quick baseline to compare against, that's the distinct
        # "nothing to compare" exit, not a pass
        trajectory.append_entry(
            trajectory.build_entry(self._report(1.0), {}, quick=True), out
        )
        assert gate.main(["--file", str(out)]) == 3


# -- CLI acceptance: Fig.1 pay-before-use, reconstructed after restart -------


class TestTraceCLI:
    def test_show_reconstructs_transfer_after_restart(self, tmp_path, capsys):
        home = str(tmp_path / "bankhome")
        assert main(["init", "--home", home, "--key-bits", "512", "--seed", "7"]) == 0
        alice_cred = str(tmp_path / "alice.gbk")
        gsp_cred = str(tmp_path / "gsp.gbk")
        for name, cred in (("alice", alice_cred), ("gsp", gsp_cred)):
            assert main(
                ["issue-identity", "--home", home, "--organization", "VO",
                 "--name", name, "--out", cred, "--key-bits", "512"]
            ) == 0
        capsys.readouterr()

        # serve in-process, as `gridbank serve` does: a Node behind TCP
        bank = _load_bank(Path(home))
        node = Node(bank, NodeConfig(), _tcp_connect)
        try:
            with TCPServer(bank.connection_handler) as server:
                address = f"{server.address[0]}:{server.address[1]}"
                node.start(address)
                assert main(
                    ["remote-create-account", "--credential", alice_cred,
                     "--address", address]
                ) == 0
                alice_account = capsys.readouterr().out.strip()
                assert main(
                    ["remote-create-account", "--credential", gsp_cred,
                     "--address", address]
                ) == 0
                gsp_account = capsys.readouterr().out.strip()
                bank.admin.deposit(alice_account, Credits(100))
                # Fig.1 pay-before-use: the user pays the GSP up front
                assert main(
                    ["remote-transfer", "--credential", alice_cred,
                     "--address", address, "--from-account", alice_account,
                     "--to-account", gsp_account, "--amount", "40"]
                ) == 0
                capsys.readouterr()
            trace_id = bank.db.select("transfers")[-1]["TraceID"]
            assert trace_id
        finally:
            node.close()  # "process exit": spans flushed, database closed

        # a fresh process: everything below re-loads from WAL storage
        code = main(["trace", "list", "--home", home])
        out = capsys.readouterr().out
        assert code == 0 and trace_id in out

        code = main(["trace", "show", trace_id, "--home", home])
        out = capsys.readouterr().out
        assert code == 0
        assert "rpc.call" in out
        assert "rpc.server.dispatch" in out
        assert "bank.op.direct_transfer" in out
        assert "ledger rows:" in out
        assert "transfers" in out and "transactions" in out

        code = main(["trace", "slowest", "--home", home, "-n", "3"])
        out = capsys.readouterr().out
        assert code == 0 and trace_id in out

        code = main(["trace", "grep", "direct_transfer", "--home", home])
        out = capsys.readouterr().out
        assert code == 0 and trace_id in out

        # unknown trace id fails loudly
        code = main(["trace", "show", "deadbeefdeadbeef", "--home", home])
        assert code == 1

    def test_metrics_export_renders_prometheus(self, tmp_path, capsys):
        home = str(tmp_path / "bankhome")
        assert main(["init", "--home", home, "--key-bits", "512", "--seed", "9"]) == 0
        capsys.readouterr()
        obs_metrics.counter("cli.export.test").inc()
        code = main(["metrics", "export", "--home", home, "--live"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE cli_export_test counter" in out
        out_file = tmp_path / "metrics.prom"
        code = main(
            ["metrics", "export", "--home", home, "--live", "--out", str(out_file)]
        )
        capsys.readouterr()
        assert code == 0
        assert "cli_export_test" in out_file.read_text()
