"""The diagnosis plane: profiler, flight recorder, debug bundles.

Covers the on-request sampling profiler (per-op attribution through the
thread->span registry, self-exclusion, bounded folds, windows that leave
no thread behind), the contention hooks (account-stripe lock waits, WAL
group-commit waits), the flight recorder's rings and trigger matrix (SLO
page, corruption, deadline storm, unhandled dispatch exception) with
rate-limited post-mortem dumps, the ``Diag.*`` cluster RPCs plus
``gridbank debug-bundle``'s gather path against a live two-node cluster,
profile windows on both socket front ends, trace-ID exemplars in
histograms, and the registry-vs-profiler race the plane must survive.
"""

import json
import os
import random
import subprocess
import sys
import tarfile
import threading
import time
from pathlib import Path

import pytest

import repro.cli as cli
from repro.bank.cluster import ClusterNode, cluster_client
from repro.bank.locks import AccountLocks
from repro.bank.node import Node, NodeConfig
from repro.bank.server import GridBankServer
from repro.core.api import GridBankAPI
from repro.db import database as db_database
from repro.errors import CorruptionError, ReproError
from repro.net.aio import AsyncTCPServer
from repro.net.retry import RetryPolicy
from repro.net.rpc import RPCClient
from repro.net.tcp import TCPClientConnection, TCPServer
from repro.net.transport import FaultPhase, FaultPlan, FaultSchedule, InProcessNetwork
from repro.obs import diag as obs_diag
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.diag import (
    LOCK_WAITS,
    WAL_WAITS,
    DiagPlane,
    FlightRecorder,
    SamplingProfiler,
    WaitStats,
    fold_stack,
    render_profile,
)
from repro.obs.export import render_prometheus
from repro.obs.logging import get_logger
from repro.obs.slo import Objective, SLOEngine
from repro.obs.store import SEGMENT_RECORDS, SpanStore
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.validation import CertificateStore
from repro.util.gbtime import VirtualClock
from repro.util.money import Credits
from repro.util.runner import Runner
from tests.conftest import deliver_keyed


@pytest.fixture(autouse=True)
def _clean_diag_state():
    """Every test starts with empty wait stats / metrics and no leaked
    recorders, and cannot leave exemplar capture on for its neighbours."""
    obs_metrics.reset()
    LOCK_WAITS.reset()
    WAL_WAITS.reset()
    yield
    for recorder in list(obs_diag._recorders):
        recorder.stop()
    obs_metrics.configure_exemplars(False)
    obs_metrics.reset()
    LOCK_WAITS.reset()
    WAL_WAITS.reset()


# -- stack folding and the thread->span registry ------------------------------


class TestFoldStack:
    def test_folds_to_stem_and_function_names(self):
        def inner():
            import sys

            return sys._current_frames()[threading.get_ident()]

        folded = fold_stack(inner())
        assert folded.endswith("test_diag:inner")
        assert "test_diag:test_folds_to_stem_and_function_names" in folded
        assert "/" not in folded and ".py" not in folded

    def test_depth_is_bounded(self):
        def recurse(n):
            if n == 0:
                import sys

                return sys._current_frames()[threading.get_ident()]
            return recurse(n - 1)

        folded = fold_stack(recurse(200), limit=10)
        assert folded.count(";") == 9  # exactly `limit` frames


class TestThreadSpans:
    def test_span_registers_and_unregisters_the_thread(self):
        ident = threading.get_ident()
        assert ident not in obs_trace.thread_spans()
        with obs_trace.span("bank.op.outer"):
            name, trace_id = obs_trace.thread_spans()[ident]
            assert name == "bank.op.outer"
            assert trace_id
            with obs_trace.span("bank.op.inner"):
                assert obs_trace.thread_spans()[ident][0] == "bank.op.inner"
            # nesting restores the outer span, not a blank slate
            assert obs_trace.thread_spans()[ident][0] == "bank.op.outer"
        assert ident not in obs_trace.thread_spans()

    def test_registry_is_visible_across_threads(self):
        seen = {}
        ready = threading.Event()
        done = threading.Event()

        def worker():
            with obs_trace.span("bank.op.busy"):
                ready.set()
                done.wait(timeout=5.0)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert ready.wait(timeout=5.0)
            seen = dict(obs_trace.thread_spans())
        finally:
            done.set()
            thread.join()
        assert seen[thread.ident][0] == "bank.op.busy"


# -- sampling profiler --------------------------------------------------------


class TestSamplingProfiler:
    def _busy_thread(self, name="bank.op.busy"):
        stop = threading.Event()
        ready = threading.Event()

        def worker():
            with obs_trace.span(name):
                ready.set()
                while not stop.is_set():
                    sum(i * i for i in range(200))

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        ready.wait(timeout=5.0)
        return stop, thread

    def test_samples_attribute_to_the_active_op(self):
        profiler = SamplingProfiler(hz=1000)
        stop, thread = self._busy_thread()
        try:
            for _ in range(10):
                profiler.sample_once()
        finally:
            stop.set()
            thread.join()
        snap = profiler.snapshot(top=5)
        assert snap["ticks"] == 10
        assert snap["samples"] >= 10
        assert "bank.op.busy" in snap["ops"]
        busy = snap["ops"]["bank.op.busy"]
        assert busy["samples"] >= 10
        assert 0.0 < busy["cpu_share"] <= 1.0
        assert any(row["op"] == "bank.op.busy" for row in snap["hot_stacks"])

    def test_diag_threads_are_excluded_from_samples(self):
        """The one diagnosis thread is the one sampling: it skips itself."""
        profiler = SamplingProfiler(hz=1000)
        with obs_trace.span("bank.op.sampler"):
            profiler.sample_once()
        assert "bank.op.sampler" not in profiler.snapshot()["ops"]

    def test_threads_outside_spans_fold_into_untraced(self):
        """An idle thread, a background runner's among them, is sampled
        as ``(untraced)``."""
        runner = Runner("t-idle", lambda: None, 60.0)
        runner.start()
        profiler = SamplingProfiler(hz=1000)
        try:
            profiler.sample_once()
        finally:
            assert runner.stop()
        stacks = [row["stack"] for row in profiler.snapshot(top=100)["hot_stacks"]
                  if row["op"] == "(untraced)"]
        assert any(stack.endswith("threading:wait") and "runner:_loop" in stack
                   for stack in stacks), stacks

    def test_fold_storage_is_bounded_by_overflow_bucket(self):
        profiler = SamplingProfiler(hz=1000, max_stacks=1)
        stop = threading.Event()

        def parked_a():
            stop.wait()

        def parked_b():
            stop.wait()

        threads = [threading.Thread(target=fn, daemon=True) for fn in (parked_a, parked_b)]
        for thread in threads:
            thread.start()
        try:
            profiler.sample_once()
            profiler.sample_once()
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        hot = profiler.snapshot(top=100)["hot_stacks"]
        assert len([row for row in hot if row["stack"] != "(overflow)"]) == 1
        assert any(row["stack"] == "(overflow)" and row["samples"] >= 2 for row in hot)

    def test_a_window_takes_hz_times_seconds_ticks_and_leaves_no_thread(self):
        before = set(threading.enumerate())
        profiler = SamplingProfiler(hz=200)
        profiler.sample_for(0.1)
        snap = profiler.snapshot()
        assert snap["ticks"] == 20
        # the last tick is due 19/200 s after the first
        assert snap["duration_seconds"] >= 0.095
        assert set(threading.enumerate()) <= before

    def test_a_collection_during_a_sample_does_not_wedge_the_process(self):
        """A sample's allocations may set off the cyclic collector. On
        CPython 3.11 one that frees a ``threading.local`` while
        ``sys._current_frames()`` holds the thread list deadlocks the
        process; the sampler holds the collector off, so this child ends."""
        script = (
            "import gc, threading\n"
            "from repro.obs.diag import SamplingProfiler\n"
            "class Cycle:\n"
            "    def __init__(self):\n"
            "        self.tls, self.me = threading.local(), self\n"
            "stop = threading.Event()\n"
            "threads = [threading.Thread(target=stop.wait) for _ in range(4)]\n"
            "for t in threads: t.start()\n"
            "profiler = SamplingProfiler()\n"
            "gc.set_threshold(1)  # collect on (nearly) every allocation\n"
            "for _ in range(2000):\n"
            "    Cycle()\n"
            "    profiler.sample_once()\n"
            "stop.set()\n"
            "assert gc.isenabled()\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(obs_diag.__file__).parents[2])}
        result = subprocess.run([sys.executable, "-c", script], env=env, timeout=60)
        assert result.returncode == 0

    def test_render_profile_shows_ops_and_waits(self):
        LOCK_WAITS.record("stripe-3/exclusive", 0.25)
        WAL_WAITS.record("linger", 0.002)
        profile = {
            "enabled": True, "samples": 10, "hz": 25.0, "duration_seconds": 1.0,
            "ops": {"bank.op.direct_transfer": {"samples": 6, "cpu_share": 0.6}},
            "hot_stacks": [{"op": "bank.op.direct_transfer",
                            "stack": "a:b;c:d;rsa:decrypt", "samples": 6}],
            "lock_waits": LOCK_WAITS.snapshot(),
            "wal_waits": WAL_WAITS.snapshot(),
        }
        text = render_profile(profile)
        assert "bank.op.direct_transfer" in text
        assert "60.0%" in text
        assert "rsa:decrypt" in text
        assert "stripe-3/exclusive" in text
        assert "linger" in text
        assert render_profile({"enabled": False}) == "(profiler disabled)"


# -- contention hooks ---------------------------------------------------------


class TestWaitStats:
    def test_aggregates_count_total_and_max(self):
        stats = WaitStats()
        stats.record("k", 0.1)
        stats.record("k", 0.3)
        snap = stats.snapshot()
        assert snap["k"]["count"] == 2
        assert snap["k"]["total_seconds"] == pytest.approx(0.4)
        assert snap["k"]["max_seconds"] == pytest.approx(0.3)
        stats.reset()
        assert stats.snapshot() == {}


class TestLockWaitHook:
    def test_blocked_stripe_acquisition_records_the_wait(self):
        from repro.bank import locks as bank_locks

        bank_locks.set_wait_hook(obs_diag.record_lock_wait)
        try:
            locks = AccountLocks(stripes=4)
            account = "01-0001-00000001"
            holding = threading.Event()
            release = threading.Event()

            def holder():
                with locks.exclusive(account):
                    holding.set()
                    release.wait(timeout=5.0)

            def waiter():
                # must block on the same stripe until the holder releases
                with locks.exclusive(account):
                    pass

            hold_thread = threading.Thread(target=holder)
            hold_thread.start()
            assert holding.wait(timeout=5.0)
            wait_thread = threading.Thread(target=waiter)
            wait_thread.start()
            time.sleep(0.05)
            release.set()
            hold_thread.join()
            wait_thread.join()
        finally:
            bank_locks.set_wait_hook(None)
        snap = LOCK_WAITS.snapshot()
        stripe = locks.stripe_of(account)
        entry = snap.get(f"stripe-{stripe}/exclusive")
        assert entry is not None, f"no exclusive stripe wait recorded: {snap}"
        assert entry["count"] >= 1
        assert entry["total_seconds"] > 0
        histograms = obs_metrics.snapshot()["histograms"]
        assert any(k.startswith("bank.lock.wait_seconds") for k in histograms)

    def test_uncontended_acquisition_records_nothing(self):
        from repro.bank import locks as bank_locks

        bank_locks.set_wait_hook(obs_diag.record_lock_wait)
        try:
            locks = AccountLocks(stripes=4)
            with locks.exclusive("01-0001-00000001"):
                pass
        finally:
            bank_locks.set_wait_hook(None)
        assert LOCK_WAITS.snapshot() == {}


class TestWalWaitHook:
    def test_solo_commit_records_flush_but_no_commit_wait(self, tmp_path):
        from repro.db import Column, TableSchema, VarChar

        db_database.set_wal_wait_hook(obs_diag.record_wal_wait)
        try:
            db = db_database.Database(path=tmp_path / "bank")
            db.create_table(TableSchema(
                "accounts",
                [Column.make("AccountID", VarChar(16))],
                primary_key=["AccountID"],
            ))
            db.recover()
            with db.transaction():
                db.insert("accounts", {"AccountID": "01"})
            db.close()
        finally:
            db_database.set_wal_wait_hook(None)
        snap = WAL_WAITS.snapshot()
        # the writer side records the physical flush (solo or batched) —
        # but an uncontended committer never waits, so no commit_wait
        assert "flush" in snap
        assert snap["flush"]["count"] >= 1
        assert "commit_wait" not in snap
        histograms = obs_metrics.snapshot()["histograms"]
        assert any(k.startswith("db.wal.wait_seconds") for k in histograms)

    def test_lingering_commit_records_commit_wait(self, tmp_path):
        from repro.db import Column, TableSchema, VarChar

        db_database.set_wal_wait_hook(obs_diag.record_wal_wait)
        try:
            # a linger forces every commit through the group-commit slow
            # path: the committer queues, lingers as leader, and records
            # how long durability made it wait
            db = db_database.Database(path=tmp_path / "bank", commit_linger=0.001)
            db.create_table(TableSchema(
                "accounts",
                [Column.make("AccountID", VarChar(16))],
                primary_key=["AccountID"],
            ))
            db.recover()
            with db.transaction():
                db.insert("accounts", {"AccountID": "01"})
            db.close()
        finally:
            db_database.set_wal_wait_hook(None)
        snap = WAL_WAITS.snapshot()
        assert "commit_wait" in snap
        assert snap["commit_wait"]["count"] >= 1
        assert snap["commit_wait"]["total_seconds"] > 0
        assert "linger" in snap
        assert "flush" in snap


# -- flight recorder ----------------------------------------------------------


def _record(name="bank.op.direct_transfer", error_type="", duration=0.01, **attrs):
    return {
        "name": name, "trace_id": "t" * 8, "span_id": "s" * 8,
        "duration_seconds": duration, "error_type": error_type,
        "attrs": attrs,
    }


@pytest.fixture()
def span_store():
    """An in-memory span store installed as a sink: where the recorder
    reads spans, as ``gridbank serve`` hands it the bank's store."""
    store = SpanStore()
    obs_trace.add_sink(store)
    yield store
    obs_trace.remove_sink(store)


def _meta(out):
    return json.loads((out / "meta.json").read_text())


class TestFlightRecorderRings:
    def test_rings_capture_spans_and_logs_until_stopped(self, span_store):
        clock = VirtualClock()
        recorder = FlightRecorder(clock=clock, spans=span_store, tick_interval=0)
        recorder.start()
        try:
            log = get_logger("test.diag")
            log.warning("something.odd", detail=7)
            for i in range(6):
                with obs_trace.span(f"bank.op.ring{i}"):
                    pass
            snap = recorder.snapshot()
            newest = recorder.snapshot(limit=4)
        finally:
            recorder.stop()
        names = [record["name"] for record in snap["spans"]]
        assert names == [f"bank.op.ring{i}" for i in range(6)]  # the store's, newest last
        assert [r["name"] for r in newest["spans"]] == names[2:]  # bounded by `limit`
        assert any(entry["event"] == "something.odd" for entry in snap["logs"])
        assert snap["slow_spans"]
        # after stop the sink is detached: a storm no longer reaches the triggers
        for _ in range(recorder.deadline_storm_threshold):
            with obs_trace.span("bank.op.after") as span:
                span.set_error("DeadlineExceeded", "late")
        assert not recorder._last_triggers

    @pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
    def test_spans_come_from_the_newest_two_segments_only(self, tmp_path, on_disk):
        """However full the store, a snapshot and a dump read its newest
        two segments: at most 2,000 spans, newest last, even when the
        slowest spans are older than that."""
        store = SpanStore(tmp_path / "spans" if on_disk else None)
        total = 4 * SEGMENT_RECORDS + SEGMENT_RECORDS // 2
        for i in range(total):
            # older spans are slower: a whole-ring scan would pick them
            store(_record(duration=float(total - i), seq=i))
        plane = DiagPlane(profile_hz=0, dump_dir=tmp_path / "diag", clock=VirtualClock(),
                          spans=store, tick_interval=0, min_dump_interval=0.0)
        newest_two = list(range(3 * SEGMENT_RECORDS, total))
        assert len(newest_two) <= 2_000

        snap = plane.flight_snapshot(limit=10 * SEGMENT_RECORDS)
        assert [r["attrs"]["seq"] for r in snap["spans"]] == newest_two
        assert {r["attrs"]["seq"] for r in snap["slow_spans"]} <= set(newest_two)
        assert snap["slow_spans"][0]["attrs"]["seq"] == newest_two[0]

        out = plane.recorder.trigger("corruption")
        dumped = [json.loads(l) for l in (out / "spans.jsonl").read_text().splitlines()]
        assert [r["attrs"]["seq"] for r in dumped] == newest_two

        # a full open segment as well: exactly two segments' worth
        for i in range(total, 5 * SEGMENT_RECORDS):
            store(_record(seq=i))
        snap = plane.flight_snapshot(limit=10 * SEGMENT_RECORDS)
        assert len(snap["spans"]) == 2 * SEGMENT_RECORDS == 2_000
        assert snap["spans"][-1]["attrs"]["seq"] == 5 * SEGMENT_RECORDS - 1

    def test_tick_captures_counter_deltas(self):
        clock = VirtualClock()
        recorder = FlightRecorder(clock=clock, tick_interval=0)
        recorder.start()
        try:
            recorder.tick()  # baseline
            obs_metrics.counter("bank.op.direct_transfer.requests").inc(3)
            clock.advance(1.0)
            recorder.tick()
            snap = recorder.snapshot()
        finally:
            recorder.stop()
        deltas = snap["metric_deltas"][-1]["counters"]
        assert deltas.get("bank.op.direct_transfer.requests") == 3


class TestFlightRecorderTriggers:
    @pytest.fixture(autouse=True)
    def _store(self, span_store):
        self.span_store = span_store

    def _recorder(self, tmp_path, **kw):
        kw.setdefault("clock", VirtualClock())
        kw.setdefault("tick_interval", 0)
        kw.setdefault("min_dump_interval", 0.0)
        return FlightRecorder(dump_dir=tmp_path / "diag", spans=self.span_store, **kw)

    def test_trigger_dumps_the_rings_to_disk(self, tmp_path):
        recorder = self._recorder(tmp_path)
        recorder.start()
        try:
            with obs_trace.span("bank.op.direct_transfer"):
                pass
            get_logger("test.diag").warning("incident.context")
            out = recorder.trigger("corruption", error="CorruptionError")
        finally:
            recorder.stop()
        assert out is not None and out.is_dir()
        assert "corruption" in out.name
        meta = _meta(out)
        assert meta["reason"] == "corruption"
        assert meta["details"]["error"] == "CorruptionError"
        assert "span" not in meta  # no span fired this one
        spans = [json.loads(l) for l in (out / "spans.jsonl").read_text().splitlines()]
        assert any(r["name"] == "bank.op.direct_transfer" for r in spans)
        logs = [json.loads(l) for l in (out / "logs.jsonl").read_text().splitlines()]
        assert any(r["event"] == "incident.context" for r in logs)
        assert (out / "metrics.json").exists()
        assert (out / "waits.json").exists()

    def test_dumps_are_rate_limited(self, tmp_path):
        recorder = self._recorder(tmp_path, min_dump_interval=60.0)
        recorder.start()
        try:
            first = recorder.trigger("corruption")
            second = recorder.trigger("corruption")
        finally:
            recorder.stop()
        assert first is not None
        assert second is None  # suppressed, but still counted as a trigger
        counters = obs_metrics.snapshot()["counters"]
        assert counters["obs.diag.triggers{reason=corruption}"] == 2
        assert counters["obs.diag.dumps_suppressed"] == 1

    def test_deadline_storm_trips_after_threshold(self, tmp_path):
        recorder = self._recorder(
            tmp_path, deadline_storm_threshold=3, deadline_storm_window=60.0
        )
        recorder.start()
        try:
            for _ in range(2):
                recorder._span_sink(_record(error_type="DeadlineExceeded"))
            assert not recorder._last_triggers
            last = _record(error_type="DeadlineExceeded", attempt=3)
            recorder._span_sink(last)
            assert recorder._last_triggers[-1]["reason"] == "deadline_storm"
            assert recorder._last_triggers[-1]["details"]["count"] == 3
        finally:
            recorder.stop()
        # the store never saw it; the dump carries it anyway
        (out,) = (tmp_path / "diag").glob("postmortem-*-deadline_storm")
        assert _meta(out)["span"] == last

    def test_concurrent_deadline_storms_trip_without_sink_errors(self, tmp_path):
        """Connection threads finish their spans concurrently; the storm
        window is shared, so it must not raise into the span sink, and
        every late span counts toward exactly one storm."""
        threads_n, per_thread = 8, 200
        recorder = self._recorder(tmp_path, deadline_storm_window=60.0)
        recorder.dump_dir = None  # count the triggers, write no dumps
        errors_before = obs_metrics.snapshot()["counters"].get("obs.span_sink_errors", 0)
        barrier = threading.Barrier(threads_n)

        def late_spans():
            barrier.wait(timeout=10.0)
            for _ in range(per_thread):
                with obs_trace.span("bank.op.direct_transfer") as span:
                    span.set_error("DeadlineExceeded", "late")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        recorder.start()
        try:
            threads = [threading.Thread(target=late_spans) for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            recorder.stop()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        counters = obs_metrics.snapshot()["counters"]
        assert counters.get("obs.span_sink_errors", 0) == errors_before
        storms = counters["obs.diag.triggers{reason=deadline_storm}"]
        assert storms >= 1
        assert storms * recorder.deadline_storm_threshold + len(recorder._deadlines) == (
            threads_n * per_thread
        )

    def test_unhandled_dispatch_exception_triggers(self, tmp_path):
        recorder = self._recorder(tmp_path)
        recorder.start()
        try:
            # an expected application error is NOT an anomaly
            recorder._span_sink(_record(
                name="rpc.server.dispatch", error_type="AuthorizationError"
            ))
            assert not recorder._last_triggers
            # an escaped KeyError is
            escaped = _record(
                name="rpc.server.dispatch", error_type="KeyError",
                method="Bank.Transfer",
            )
            recorder._span_sink(escaped)
            assert recorder._last_triggers[-1]["reason"] == "unhandled_exception"
            assert recorder._last_triggers[-1]["details"]["method"] == "Bank.Transfer"
        finally:
            recorder.stop()
        (out,) = (tmp_path / "diag").glob("postmortem-*-unhandled_exception")
        assert _meta(out)["span"] == escaped

    def test_slo_transition_only_pages_trigger(self, tmp_path):
        recorder = self._recorder(tmp_path)
        recorder.start()
        try:
            obs_diag.notify_slo_transition(op="*", previous="ok", state="warning")
            assert not recorder._last_triggers
            obs_diag.notify_slo_transition(op="*", previous="warning", state="page")
            assert recorder._last_triggers[-1]["reason"] == "slo_page"
        finally:
            recorder.stop()

    def test_corruption_latch_notifies_the_recorder(self, tmp_path):
        recorder = self._recorder(tmp_path)
        recorder.start()
        try:
            db_database._notify_diag_corruption(CorruptionError("wal record 7 bad crc"))
            assert recorder._last_triggers[-1]["reason"] == "corruption"
            assert "bad crc" in recorder._last_triggers[-1]["details"]["message"]
        finally:
            recorder.stop()


# -- the SLO-page drill: seeded fault storm -> post-mortem dump ---------------


class TestSLOPageDrill:
    def test_fault_storm_page_produces_a_flight_dump(self, tmp_path, ca_keypair,
                                                     keypair_a, keypair_b, keypair_c):
        clock = VirtualClock()
        start = clock.epoch()
        ca = CertificateAuthority(
            DistinguishedName("GridBank", "Root CA"), clock=clock, keypair=ca_keypair
        )
        store = CertificateStore([ca.root_certificate])
        bank_ident = ca.issue_identity(
            DistinguishedName("GridBank", "server"), keypair=keypair_a
        )
        schedule = FaultSchedule([
            FaultPhase(at=start + 5.0, settings={
                "latency_probability": 1.0,
                "latency_range": (0.3, 0.5),
                "drop_request_probability": 0.2,
            }),
        ])
        network = InProcessNetwork(
            faults=FaultPlan(rng=random.Random(0), clock=clock, schedule=schedule)
        )
        bank = GridBankServer(bank_ident, store, clock=clock, rng=random.Random(2))
        bank.slo = SLOEngine(clock=clock, objectives=(
            Objective(op="*", target=0.99, latency_threshold=0.15,
                      fast_window=60.0, slow_window=600.0),
        ))
        network.listen("bank-a", bank.connection_handler)
        node = ClusterNode(bank, "bank-a", network.connect, poll_interval=0.005)
        plane = DiagPlane(
            profile_hz=200.0, dump_dir=tmp_path / "diag", clock=clock,
            spans=bank.spans, tick_interval=0, min_dump_interval=0.0,
        ).start()
        obs_trace.add_sink(bank.spans)
        try:
            admin_ident = ca.issue_identity(
                DistinguishedName("GridBank", "admin"), keypair=keypair_b
            )
            bank.admin.add_administrator(admin_ident.subject)
            alice_ident = ca.issue_identity(
                DistinguishedName("VO-A", "alice"), keypair=keypair_c
            )

            def api_for(identity, seed):
                client = cluster_client(
                    identity, store, network.connect, ("bank-a",),
                    clock=clock, rng=random.Random(seed),
                    retry_policy=RetryPolicy(max_attempts=8, rng=random.Random(seed + 10)),
                )
                return GridBankAPI(client, rng=random.Random(seed + 50))

            alice, admin = api_for(alice_ident, 1), api_for(admin_ident, 3)
            src, dst = alice.create_account(), alice.create_account()
            admin.admin_deposit(src, Credits(1000))

            for _ in range(8):
                alice.request_direct_transfer(src, dst, Credits(1))
                clock.advance(0.5)
            assert bank.slo.worst_state() == "ok"

            clock.advance(max(0.0, (start + 5.0) - clock.epoch()) + 0.1)
            for _ in range(40):
                try:
                    alice.request_direct_transfer(src, dst, Credits(1))
                except ReproError:
                    pass
                plane.recorder.tick()
                clock.advance(0.5)
            assert bank.slo.worst_state() == "page"
        finally:
            obs_trace.remove_sink(bank.spans)
            node._stop_replicator()
            plane.stop()

        dumps = sorted((tmp_path / "diag").glob("postmortem-*-slo_page"))
        assert dumps, "the page transition must have dumped the flight recorder"
        out = dumps[0]
        meta = json.loads((out / "meta.json").read_text())
        assert meta["reason"] == "slo_page"
        assert meta["details"]["op"] == "*"
        assert meta["details"]["previous"] in ("ok", "warning")
        # the rings hold the triggering window's evidence; nothing sampled
        # before the page, so a post-mortem holds no profile
        assert sorted(path.name for path in out.iterdir()) == [
            "logs.jsonl", "meta.json", "metrics.json", "spans.jsonl", "waits.json",
        ]
        spans = (out / "spans.jsonl").read_text().splitlines()
        assert spans, "span ring was empty at dump time"
        assert (out / "logs.jsonl").read_text().splitlines()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["deltas"], "per-tick metric deltas missing from dump"


# -- cluster collection: Diag RPCs and the debug bundle -----------------------


A, B = "bank-a", "bank-b"


def _wait_until(predicate, timeout=8.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached within timeout")


@pytest.fixture()
def cluster(ca_keypair, keypair_a, keypair_c, tmp_path):
    clock = VirtualClock()
    ca = CertificateAuthority(
        DistinguishedName("GridBank", "Root CA"), clock=clock, keypair=ca_keypair
    )
    store = CertificateStore([ca.root_certificate])
    bank_ident = ca.issue_identity(
        DistinguishedName("GridBank", "server"), keypair=keypair_a
    )
    network = InProcessNetwork(faults=FaultPlan(rng=random.Random(0), clock=clock))

    def boot(name, seed):
        from repro.db.database import Database

        db = Database(path=tmp_path / name)
        bank = GridBankServer(bank_ident, store, db=db, clock=clock, rng=random.Random(seed))
        bank.recover()
        network.listen(name, bank.connection_handler)
        return bank

    bank_a, bank_b = boot(A, 2), boot(B, 3)
    # two served nodes, each with its own diagnosis plane (sinks are
    # process-wide: each store sees both nodes' spans)
    node_a = Node(bank_a, NodeConfig(diag_dir=tmp_path / "diag-a", poll_interval=0.005),
                  network.connect).start(A)
    node_b = Node(bank_b, NodeConfig(diag_dir=tmp_path / "diag-b", poll_interval=0.005,
                                     staleness_bound=30.0),
                  network.connect).start(B)
    node_b.cluster.follow(A)
    admin_ident = ca.issue_identity(DistinguishedName("GridBank", "admin"), keypair=keypair_c)
    bank_a.admin.add_administrator(admin_ident.subject)
    alice_ident = ca.issue_identity(DistinguishedName("VO-A", "alice"), keypair=keypair_c)

    def api_for(identity, seed):
        client = cluster_client(
            identity, store, network.connect, (A, B),
            clock=clock, rng=random.Random(seed),
            retry_policy=RetryPolicy(max_attempts=8, rng=random.Random(seed + 10)),
        )
        return GridBankAPI(client, rng=random.Random(seed + 50))

    alice, admin = api_for(alice_ident, 1), api_for(admin_ident, 3)
    src, dst = alice.create_account(), alice.create_account()
    admin.admin_deposit(src, Credits(100000))
    yield {
        "clock": clock, "network": network, "store": store,
        "banks": (bank_a, bank_b), "planes": (node_a.diag, node_b.diag),
        "admin_ident": admin_ident, "alice_ident": alice_ident,
        "alice": alice, "src": src, "dst": dst, "diag_a": tmp_path / "diag-a",
    }
    node_b.close()
    node_a.close()


def test_a_node_without_a_plane_answers_from_none(attached_bank, tmp_path):
    """Each node's Diag RPCs answer from its own plane: one another node
    started in this process is not this node's."""
    admin = "/O=GridBank/CN=admin"
    attached_bank.admin.add_administrator(admin)
    other = DiagPlane(profile_hz=200.0, dump_dir=tmp_path / "diag", clock=VirtualClock()).start()
    try:
        assert deliver_keyed(attached_bank, "Diag.Profile", admin, "k-1") == {"enabled": False}
        assert deliver_keyed(attached_bank, "Diag.FlightRecord", admin, "k-2") == {"enabled": False}
    finally:
        other.stop()


def _storm(cluster, workers=4, transfers=12, during=None):
    """Concurrent transfers hammering the same two accounts: real stripe
    contention plus real RSA work for the profiler to see. A spinner
    pinned inside a ``bank.op.`` span guarantees attributed samples in any
    profile window *during* opens, regardless of machine speed. Returns
    what *during* returns."""
    alice, src, dst = cluster["alice"], cluster["src"], cluster["dst"]
    errors = []
    stop = threading.Event()
    ready = threading.Event()

    def spinner():
        with obs_trace.span("bank.op.direct_transfer"):
            ready.set()
            while not stop.is_set():
                sum(i * i for i in range(100))

    def worker():
        for _ in range(transfers):
            try:
                alice.request_direct_transfer(src, dst, Credits(1))
            except ReproError as exc:  # pragma: no cover - storm tolerance
                errors.append(exc)

    spin = threading.Thread(target=spinner, daemon=True)
    spin.start()
    ready.wait(timeout=5.0)
    threads = [threading.Thread(target=worker) for _ in range(workers)]
    try:
        for t in threads:
            t.start()
        result = during() if during is not None else None
        for t in threads:
            t.join()
    finally:
        stop.set()
        spin.join()
    banks = cluster["banks"]
    _wait_until(lambda: banks[0].db.replication_position()
                == banks[1].db.replication_position())
    return result


def _admin_client(cluster):
    client = RPCClient(
        cluster["network"].connect(A), cluster["admin_ident"], cluster["store"],
        clock=cluster["clock"],
    )
    client.connect()
    return client


def test_a_served_node_runs_no_sampler_thread(cluster):
    names = {thread.name for thread in threading.enumerate()}
    assert "gridbank-diag-recorder" in names
    assert not [name for name in names if "profiler" in name]


class TestDiagRPCs:
    def test_profile_rpc_returns_attribution_and_contention(self, cluster):
        client = _admin_client(cluster)
        try:
            profile = _storm(
                cluster, during=lambda: client.call("Diag.Profile", top=10, seconds=0.2)
            )
            after = client.call("Diag.Profile", top=10)
        finally:
            client.close()
        assert profile["enabled"] is True
        assert profile["ticks"] == round(profile["hz"] * 0.2)
        assert profile["samples"] > 0
        assert profile["ops"]["bank.op.direct_transfer"]["samples"] >= profile["ticks"]
        # the stripes may be free while the window samples; the storm's
        # contention is in the tables by its end
        assert any(key.startswith("stripe-") for key in after["lock_waits"]), (
            "concurrent same-account transfers must show stripe contention"
        )
        assert after["wal_waits"], "journal writes must show WAL waits"

    def test_profile_without_a_window_answers_the_wait_tables(self, cluster):
        _storm(cluster, workers=2, transfers=3)
        client = _admin_client(cluster)
        try:
            started = time.perf_counter()
            profile = client.call("Diag.Profile", top=10)
            elapsed = time.perf_counter() - started
        finally:
            client.close()
        assert profile["ops"] == {} and profile["samples"] == 0
        assert profile["lock_waits"] == LOCK_WAITS.snapshot()
        assert profile["wal_waits"]["flush"]["count"] >= 1
        assert elapsed < 1.0

    def test_an_over_cap_window_is_clamped(self, cluster, monkeypatch):
        monkeypatch.setattr(obs_diag, "MAX_PROFILE_SECONDS", 0.05)
        client = _admin_client(cluster)
        try:
            profile = client.call("Diag.Profile", top=10, seconds=3600.0)
        finally:
            client.close()
        assert profile["ticks"] == round(profile["hz"] * 0.05)
        assert profile["duration_seconds"] < 1.0

    def test_flight_record_rpc_returns_the_rings(self, cluster):
        _storm(cluster, workers=1, transfers=3)
        client = RPCClient(
            cluster["network"].connect(A), cluster["admin_ident"], cluster["store"],
            clock=cluster["clock"],
        )
        client.connect()
        try:
            flight = client.call("Diag.FlightRecord", limit=64)
        finally:
            client.close()
        assert flight["enabled"] is True
        assert flight["spans"], "span ring empty after live traffic"
        assert flight["slow_spans"]
        assert "metrics" in flight
        json.dumps(flight)  # the whole payload must be JSON-clean

    def test_plain_users_cannot_profile(self, cluster):
        from repro.errors import AuthorizationError

        client = RPCClient(
            cluster["network"].connect(A), cluster["alice_ident"], cluster["store"],
            clock=cluster["clock"],
        )
        client.connect()
        try:
            with pytest.raises(AuthorizationError):
                client.call("Diag.Profile")
        finally:
            client.close()

    def test_diag_ops_are_untracked_and_unmetered(self, cluster):
        ops = cluster["banks"][0].ops
        assert not ops["Diag.Profile"].tracked
        assert not ops["Diag.FlightRecord"].tracked

    def test_an_untracked_op_escaping_dumps_its_span(self, cluster):
        """The store never keeps plumbing spans; a dump one of them fires
        still holds it, in meta.json."""
        bank_a = cluster["banks"][0]

        def op_plumbing_bug(subject, params):
            raise KeyError("no such stripe")

        bank_a.register("Test.PlumbingBug", op_plumbing_bug, access="anyone", tracked=False)
        client = RPCClient(
            cluster["network"].connect(A), cluster["alice_ident"], cluster["store"],
            clock=cluster["clock"],
        )
        client.connect()
        try:
            with pytest.raises(ReproError, match="KeyError|no such stripe"):
                client.call("Test.PlumbingBug")
        finally:
            client.close()
        (out,) = cluster["diag_a"].glob("postmortem-*-unhandled_exception")
        span = json.loads((out / "meta.json").read_text())["span"]
        assert span["name"] == "rpc.server.dispatch"
        assert span["error_type"] == "KeyError"
        assert span["attrs"]["method"] == "Test.PlumbingBug"
        stored = [json.loads(l) for l in (out / "spans.jsonl").read_text().splitlines()]
        assert stored, "the store's recent spans belong in the dump too"
        assert not [r for r in stored if r.get("attrs", {}).get("method") == "Test.PlumbingBug"]
        assert not [r for r in bank_a.spans.recent() if r["name"] == "bank.op.plumbing_bug"]


class TestDebugBundle:
    def test_gather_collects_every_node_and_tars(self, cluster, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "PROFILE_WINDOW_SECONDS", 0.2)
        # the gatherer's RPCClients run on the system clock; this world's
        # PKI lives on a virtual clock, so pin cert validation to it
        import repro.net.rpc as rpc_mod

        real_client = rpc_mod.RPCClient
        monkeypatch.setattr(
            rpc_mod, "RPCClient",
            lambda connection, credential, store: real_client(
                connection, credential, store, clock=cluster["clock"]
            ),
        )
        manifest, tar_path = _storm(cluster, during=lambda: cli._gather_debug_bundle(
            [A, B, "bank-x"],
            cluster["admin_ident"], cluster["store"],
            tmp_path / "bundle", top=10,
            connect=cluster["network"].connect,
        ))
        assert [entry["node"] for entry in manifest["nodes"]] == [A, B]
        assert manifest["errors"] and manifest["errors"][0]["node"] == "bank-x"
        for entry in manifest["nodes"]:
            node_dir = tmp_path / "bundle" / entry["dir"]
            profile = json.loads((node_dir / "profile.json").read_text())
            assert "bank.op.direct_transfer" in profile["ops"], f"{entry['node']}: no per-op attribution"
            assert entry["profile_samples"] == profile["samples"] > 0
            assert "lock_waits" in profile
            assert json.loads((node_dir / "flightrecord.json").read_text())["spans"]
            assert (node_dir / "telemetry.json").exists()
            assert (node_dir / "slo.json").exists()
            assert (node_dir / "slow_spans.jsonl").read_text().splitlines()
        # primary really saw the contention the storm produced
        a_profile = json.loads(
            (tmp_path / "bundle" / A / "profile.json").read_text()
        )
        assert any(key.startswith("stripe-") for key in a_profile["lock_waits"])
        assert tar_path.exists()
        with tarfile.open(tar_path) as tar:
            names = tar.getnames()
        assert f"bundle/{A}/profile.json" in names
        assert "bundle/manifest.json" in names


class TestProfileWindowOnFrontEnds:
    @pytest.mark.parametrize("backend", ["threads", "async"])
    def test_a_second_connection_is_answered_while_a_window_runs(
        self, backend, ca_keypair, keypair_a, keypair_b, keypair_c, tmp_path
    ):
        """A window holds only the thread serving its call. The event loop
        would run a call inline once the dispatch stage has proved cheap;
        a window must go to the pool all the same."""
        clock = VirtualClock()
        ca = CertificateAuthority(
            DistinguishedName("GridBank", "Root CA"), clock=clock, keypair=ca_keypair
        )
        store = CertificateStore([ca.root_certificate])
        bank = GridBankServer(
            ca.issue_identity(DistinguishedName("GridBank", "server"), keypair=keypair_a),
            store, clock=clock, rng=random.Random(4),
        )
        admin = ca.issue_identity(DistinguishedName("GridBank", "admin"), keypair=keypair_b)
        alice = ca.issue_identity(DistinguishedName("VO-A", "alice"), keypair=keypair_c)
        bank.admin.add_administrator(admin.subject)
        server = (TCPServer if backend == "threads" else AsyncTCPServer)(bank.connection_handler)
        node = Node(bank, NodeConfig(diag_dir=tmp_path / "diag"), cli._tcp_connect)
        clients = []
        try:
            node.start("%s:%d" % server.address)
            for identity in (admin, alice):
                clients.append(RPCClient(TCPClientConnection(server.address), identity,
                                         store, clock=clock))
                clients[-1].connect()
            profiler, other = clients
            if backend == "async":
                server._complete_cost.ema = 0.0  # proven cheap: calls run inline
            window = {}
            sampling = threading.Thread(target=lambda: window.update(
                profiler.call("Diag.Profile", top=5, seconds=1.0)))
            sampling.start()
            time.sleep(0.2)
            info = other.call("BankInfo")
            answered_during_window = sampling.is_alive()
            sampling.join(timeout=10.0)
        finally:
            for client in clients:
                client.close()
            server.close()
            node.close()
        assert info["bank_number"] == bank.bank_number
        assert answered_during_window
        assert window["ticks"] == round(window["hz"] * 1.0)


# -- exemplars ----------------------------------------------------------------


class TestExemplars:
    def test_disabled_by_default_and_shape_unchanged(self):
        histogram = obs_metrics.histogram("rpc.latency.seconds")
        with obs_trace.span("bank.op.direct_transfer"):
            histogram.observe(0.01)
        assert "exemplars" not in histogram.summary()
        assert " # {" not in render_prometheus()

    def test_enabled_capture_links_bucket_to_trace(self):
        obs_metrics.configure_exemplars(True)
        histogram = obs_metrics.histogram("rpc.latency.seconds")
        trace_ids = []
        with obs_trace.span("bank.op.direct_transfer"):
            trace_ids.append(obs_trace.current_trace_id())
            histogram.observe(0.01)
            histogram.observe(1e9)  # lands in the +Inf overflow bucket
        summary = histogram.summary()
        assert "exemplars" in summary
        bounds = [bound for bound, _ in summary["exemplars"]]
        assert "+Inf" in bounds
        assert all(tid == trace_ids[0] for _, tid in summary["exemplars"])

    def test_export_renders_openmetrics_exemplar_suffix_only_on_request(self):
        obs_metrics.configure_exemplars(True)
        histogram = obs_metrics.histogram("rpc.latency.seconds")
        with obs_trace.span("bank.op.direct_transfer"):
            histogram.observe(0.01)
        plain = render_prometheus()
        rich = render_prometheus(exemplars=True)
        assert " # {" not in plain
        exemplar_lines = [l for l in rich.splitlines() if " # {trace_id=" in l]
        assert exemplar_lines
        assert all("_bucket{" in l for l in exemplar_lines)
        # lines without the suffix are identical to the plain render
        assert plain == "".join(
            line.split(" # {")[0] + "\n" for line in rich.splitlines()
        )

    def test_observations_outside_spans_attach_nothing(self):
        obs_metrics.configure_exemplars(True)
        histogram = obs_metrics.histogram("rpc.latency.seconds")
        histogram.observe(0.01)
        assert "exemplars" not in histogram.summary()


# -- satellite: registry churn during active profiling ------------------------


class TestRegistryChurnUnderProfiling:
    def test_concurrent_registration_snapshot_and_profiling(self, tmp_path):
        """Threads registering instruments and snapshotting while two
        profile windows sample at once at a high rate and the recorder
        ticks: no raise, no deadlock."""
        plane = DiagPlane(profile_hz=500.0, dump_dir=tmp_path / "diag",
                          clock=VirtualClock(), tick_interval=0).start()
        errors = []
        stop = threading.Event()

        def registrar(seed):
            rng = random.Random(seed)
            try:
                while not stop.is_set():
                    n = rng.randrange(40)
                    obs_metrics.counter(f"churn.counter.{n}", worker=str(seed)).inc()
                    obs_metrics.histogram(f"churn.hist.{n}").observe(rng.random())
            except Exception as exc:  # noqa: BLE001 - the assertion target
                errors.append(exc)

        def snapshotter():
            try:
                while not stop.is_set():
                    obs_metrics.snapshot()
                    plane.recorder.tick()
                    plane.profile_snapshot(top=5, seconds=0.01)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=registrar, args=(s,)) for s in (1, 2)]
        threads.append(threading.Thread(target=snapshotter))
        try:
            for t in threads:
                t.start()
            profile = plane.profile_snapshot(top=5, seconds=0.5)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=5.0)
            plane.stop()
        assert not errors, errors
        assert all(not t.is_alive() for t in threads), "a worker deadlocked"
        assert profile["ticks"] == 250
        assert profile["samples"] > 0
