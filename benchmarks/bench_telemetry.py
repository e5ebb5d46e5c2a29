"""TELEMETRY — adaptive sampling keeps the span store small and honest.

Every finished span is a record in the span store's bounded ring; the
telemetry plane's claim is that head sampling + tail retention cuts that
turnover to a few percent of line rate WITHOUT losing the spans an
operator greps for: every error span and every over-threshold-latency
span survives. Two
scenarios pin it: a deterministic synthetic span storm (exact retention
accounting), and a live transfer storm through the bank with the sampled
durable store attached (real span shapes, real dispatch path). The
resulting rates land in ``BENCH_METRICS.json`` via ``bench.sampling.*``
gauges, so the bench-gate artifact records the achieved ratios.
"""

import random

from _worlds import connect_client, make_bank_world
from repro.core.api import GridBankAPI
from repro.errors import ReproError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.sampling import SamplingPolicy, SamplingSpanSink
from repro.obs.store import SpanStore
from repro.util.money import Credits

HEAD_RATE = 0.02
SLOW_THRESHOLD = 0.1  # static: exact, deterministic retention accounting
MAX_GROWTH = 0.10  # sampled rows must stay under 10% of unsampled rows


def synthetic_storm(n: int = 4000, seed: int = 7) -> list[dict]:
    """A transfer-storm span stream: ~1% errors, ~2% slow, the rest fast."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        roll = rng.random()
        status = "error" if roll < 0.01 else "ok"
        slow = rng.random() < 0.02
        duration = rng.uniform(0.2, 2.0) if slow else rng.uniform(0.0005, 0.02)
        records.append({
            "trace_id": f"{rng.getrandbits(128):032x}",
            "span_id": f"{rng.getrandbits(32):08x}",
            "parent_id": "",
            "name": "bank.op.direct_transfer",
            "kind": "server",
            "start_epoch": 1_041_379_200.0 + i * 0.01,
            "duration_seconds": duration,
            "status": status,
            "error_type": "InstrumentError" if status == "error" else "",
            "attrs": {},
            "events": [],
        })
    return records


def stored_ids(store: SpanStore) -> set:
    """(trace, span) of every record *store* retains."""
    return {(r["trace_id"], r["span_id"]) for r in store.slowest(limit=len(store))}


def test_sampled_store_growth_and_retention(benchmark):
    """Feed one span stream to an unsampled and a sampled durable store:
    sampled row growth stays under 10% while the grep-worthy tail
    (errors, over-threshold latency) is retained at exactly 100%."""
    records = synthetic_storm()
    unsampled = SpanStore()
    policy = SamplingPolicy(default_rate=HEAD_RATE, slow_threshold=SLOW_THRESHOLD)

    for record in records:
        unsampled(record)
    unsampled_rows = len(unsampled)
    assert unsampled_rows == len(records)

    def run_sampled():
        store = SpanStore()
        sink = SamplingSpanSink(store, policy)
        for record in records:
            sink(record)
        return store

    store = benchmark.pedantic(run_sampled, rounds=3, iterations=1)
    sampled_rows = len(store)
    growth = sampled_rows / unsampled_rows
    assert 0 < sampled_rows
    assert growth < MAX_GROWTH, f"sampled store grew {growth:.1%} of unsampled"

    kept = stored_ids(store)
    errors = [r for r in records if r["status"] != "ok"]
    slow = [r for r in records if r["duration_seconds"] >= SLOW_THRESHOLD]
    assert errors and slow, "storm must actually contain a tail"
    assert all((r["trace_id"], r["span_id"]) in kept for r in errors)
    assert all((r["trace_id"], r["span_id"]) in kept for r in slow)

    obs_metrics.gauge("bench.sampling.unsampled_rows").set(unsampled_rows)
    obs_metrics.gauge("bench.sampling.sampled_rows").set(sampled_rows)
    obs_metrics.gauge("bench.sampling.growth_ratio").set(growth)
    obs_metrics.gauge("bench.sampling.error_spans").set(len(errors))
    obs_metrics.gauge("bench.sampling.error_spans_retained").set(len(errors))
    obs_metrics.gauge("bench.sampling.slow_spans").set(len(slow))
    obs_metrics.gauge("bench.sampling.slow_spans_retained").set(len(slow))


def test_transfer_storm_with_live_sampling(benchmark):
    """The real dispatch path: a transfer storm with the sampled durable
    store installed as a trace sink. Every error span the storm produced
    must land in the store; stored records stay a small fraction of spans."""
    world = make_bank_world(seed=31)
    ca, store_pki = world["ca"], world["store"]
    from repro.pki.certificate import DistinguishedName

    alice_ident = ca.issue_identity(DistinguishedName("VO-A", "alice"), key_bits=512)
    alice = GridBankAPI(connect_client(world, alice_ident, seed=11),
                        rng=random.Random(61))
    admin = GridBankAPI(connect_client(world, world["admin_ident"], seed=12),
                        rng=random.Random(62))
    src = alice.create_account()
    dst = alice.create_account()
    admin.admin_deposit(src, Credits(1_000_000))

    span_store = SpanStore()
    sampler = SamplingSpanSink(
        span_store, SamplingPolicy(default_rate=HEAD_RATE, slow_threshold=SLOW_THRESHOLD)
    )
    seen: list[dict] = []

    def tee(record: dict) -> None:
        seen.append({k: record[k] for k in ("trace_id", "span_id", "status")})
        sampler(record)

    def storm(transfers: int = 150, failures: int = 5) -> None:
        for _ in range(transfers):
            alice.request_direct_transfer(src, dst, Credits(1))
        for _ in range(failures):
            try:
                alice.request_direct_transfer(src, dst, Credits(10**10))
            except ReproError:
                pass

    with obs_trace.sink_installed(tee):
        benchmark.pedantic(storm, rounds=1, iterations=1)

    total_spans = len(seen)
    rows = len(span_store)
    assert total_spans > 0
    # generous bound: the live stream is small, so per-span variance is
    # larger than in the synthetic storm — but sampling must still bite
    assert rows < total_spans * 0.25
    kept = stored_ids(span_store)
    error_spans = [r for r in seen if r["status"] != "ok"]
    assert error_spans, "the storm must produce error spans"
    assert all((r["trace_id"], r["span_id"]) in kept for r in error_spans)

    obs_metrics.gauge("bench.sampling.live_total_spans").set(total_spans)
    obs_metrics.gauge("bench.sampling.live_sampled_rows").set(rows)
    obs_metrics.gauge("bench.sampling.live_error_spans").set(len(error_spans))
