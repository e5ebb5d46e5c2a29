"""The pass-through left of span sampling: every span reaches the store.

``repro.obs.sampling`` survives only because gridbench's cost ledger
still builds its sinks from it; what it wraps must see every record,
unchanged, or the ledger's ``obs.cost_us`` would price a filter that
``gridbank serve`` no longer installs.
"""

from repro.obs import metrics as obs_metrics
from repro.obs.sampling import SamplingPolicy, SamplingSpanSink


def test_shim_passes_every_span_through():
    obs_metrics.reset()
    records = [
        {"trace_id": f"t{i}", "name": "bank.op.direct_transfer",
         "duration_seconds": 0.001 * i, "status": "error" if i % 5 == 0 else "ok"}
        for i in range(20)
    ]
    records.append({"trace_id": "", "name": "rpc.server.dispatch"})
    kept = []
    for sink in (SamplingSpanSink(kept.append), SamplingSpanSink(kept.append, SamplingPolicy())):
        for record in records:
            sink(record)
    assert kept == records + records
    assert not any(key.startswith("obs.spans_") for key in obs_metrics.snapshot()["counters"])
