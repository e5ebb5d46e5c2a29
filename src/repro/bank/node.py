"""One served GridBank node (paper sec 3.2, Fig. 3), assembled in one place.

:class:`Node` attaches to a bank what serving it takes, in one order (the
diagnosis plane, the SLO engine, the span sink, exporters and ``/healthz``,
the cluster and shard planes), and :meth:`Node.close` takes it all down.
``gridbank serve`` is a socket front end around one; tests, drills and
embedding services build the same (DESIGN section 21).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

from repro.bank.cluster import ClusterNode
from repro.bank.server import GridBankServer
from repro.errors import ValidationError
from repro.net import frontend_snapshot
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.diag import DiagPlane
from repro.obs.export import FileExporter, HTTPExporter
from repro.obs.slo import Objective, SLOEngine

if TYPE_CHECKING:  # an unsharded node never imports the shard plane
    from repro.bank.shard import ShardMap, ShardNode

__all__ = ["Node", "NodeConfig"]


@dataclass(frozen=True)
class NodeConfig:
    """``gridbank serve``'s options but the front end's, defaulting as its
    flags do (``poll_interval`` is the cluster plane's, not a flag)."""

    standby_of: Optional[str] = None
    peers: tuple[str, ...] = ()
    auto_promote: bool = False
    lease_timeout: Optional[float] = None
    staleness_bound: Optional[float] = None
    scrub_interval: Optional[float] = None
    poll_interval: float = 0.02
    #: objectives replacing the bank's built-in one; empty keeps it
    slo: tuple[Objective, ...] = ()
    #: False is ``--no-diag``: no Diag RPCs, flight recorder or exemplars
    diag: bool = True
    #: post-mortem directory; None is ``<home>/diag`` (no dumps in memory)
    diag_dir: Optional[Path] = None
    metrics_port: Optional[int] = None
    metrics_textfile: Optional[str] = None
    metrics_interval: float = 5.0
    shard_id: Optional[str] = None
    shard_map: Optional[ShardMap] = None
    #: None attaches no background intent resolver
    resolve_interval: Optional[float] = 5.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Refuse what would fail only once the home is open or a loop spins."""
        if self.shard_map is not None and not self.shard_id:
            raise ValidationError("--shard-map needs --shard-id")
        for name in ("metrics_interval", "scrub_interval", "resolve_interval"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValidationError(f"--{name.replace('_', '-')} must be > 0")


def _workload_span_sink(bank: GridBankServer) -> Callable[[dict], None]:
    """The span sink of a served bank: its span store (queryable later
    with ``gridbank trace``) behind the op table's ``tracked`` column.
    The store is local to the node, so a standby records what it serves
    just as a primary does."""
    plumbing: set[str] = set()
    rows = 0

    def persist(record):
        # plumbing (replication polls, telemetry scrapes, rebalance verbs)
        # runs at whatever cadence the topology needs; a span per poll
        # would turn the ring over at the poll rate. Its bank.op span and
        # its RPC dispatch span are dropped; what it runs underneath
        # (shard.2pc, integrity.repair) still persists, and the flight
        # recorder's triggers see everything. Rows are only ever added,
        # and the shard plane adds its rows after this sink is built.
        nonlocal rows
        if rows != len(bank.ops):
            rows = len(bank.ops)
            for op in bank.ops.values():
                if not op.tracked:
                    plumbing.update((op.span_name, op.method))
        if record.get("name") in plumbing or record.get("attrs", {}).get("method") in plumbing:
            return
        bank.spans(record)

    return persist


class Node:
    """A bank plus all that serves it. It owns the bank from construction:
    :meth:`close` closes the database whether or not :meth:`start` ran."""

    def __init__(self, bank: GridBankServer, config: NodeConfig, connect: Callable) -> None:
        self.bank = bank
        self.config = config
        self.connect = connect
        self.diag: Optional[DiagPlane] = None
        self.exporters: list = []
        self.cluster: Optional[ClusterNode] = None
        self.shard: Optional[ShardNode] = None
        self._span_sink: Optional[Callable[[dict], None]] = None
        self._closed = False

    def start(self, address: str) -> "Node":
        """Attach everything, advertising *address* to peers and clients."""
        bank, config = self.bank, self.config
        # the diagnosis plane first: its span sink goes in before the
        # store's, so a span that fires a post-mortem is not stored yet
        # and the dump carries it in meta.json. Exemplar capture rides
        # along so latency buckets link to trace ids
        if config.diag:
            dump_dir = config.diag_dir or (bank.db.path and bank.db.path.parent / "diag")
            self.diag = DiagPlane(dump_dir=dump_dir, clock=bank.clock, spans=bank.spans).start()
            obs_metrics.configure_exemplars(True)
        # the engine is swapped whole so the dispatch wrapper (which
        # reads bank.slo at call time) picks it up atomically
        if config.slo:
            bank.slo = SLOEngine(clock=bank.clock, objectives=config.slo)
        # every finished workload span goes to the span store
        self._span_sink = obs_trace.add_sink(_workload_span_sink(bank))
        exporters = []
        if config.metrics_port is not None:
            exporters.append(HTTPExporter(port=config.metrics_port, health_fn=self.health))
        if config.metrics_textfile:
            exporters.append(FileExporter(config.metrics_textfile, config.metrics_interval))
        for exporter in exporters:  # only a started exporter is stopped
            self.exporters.append(exporter.start())
        # every served bank is a cluster node (replication, failover,
        # scrubbing, the Diag RPCs); sharded ones add the shard plane
        self.cluster = ClusterNode(
            bank, address, self.connect, peer_subjects=config.peers,
            lease_timeout=config.lease_timeout, auto_promote=config.auto_promote,
            staleness_bound=config.staleness_bound, poll_interval=config.poll_interval,
            scrub_interval=config.scrub_interval, diag=self.diag,
        )
        if config.shard_id:
            from repro.bank.shard import ShardNode

            self.shard = ShardNode(self.cluster, config.shard_id, shard_map=config.shard_map,
                                   resolve_interval=config.resolve_interval)
        if config.standby_of:
            self.cluster.follow(config.standby_of, resync=True)
        return self

    def health(self) -> dict:
        """``/healthz`` for load balancers: readiness = not paging, and
        (for a standby under a staleness bound) not lagging past it."""
        bank, bound = self.bank, self.config.staleness_bound
        lag = self.cluster.lag_seconds() if self.cluster is not None else 0.0
        alert = bank.slo.worst_state()
        lag_ok = bank.role == "primary" or bound is None or lag <= bound
        integrity_state = bank.db.integrity_status()
        return {
            "ok": alert != "page" and lag_ok and integrity_state["ok"],
            "role": bank.role,
            "primary_address": bank.primary_address or "",
            "lag_seconds": lag,
            "alert": alert,
            "slo": bank.slo.states(),
            "integrity": integrity_state,
            "net": frontend_snapshot(),
        }

    def close(self) -> None:
        """Detach what :meth:`start` attached, put both telemetry rings out
        (buffered spans, the live usage period) and close the database."""
        if self._closed:
            return
        self._closed = True
        if self.shard is not None:
            self.shard.close()
        if self.cluster is not None:
            self.cluster.close()
        if self.diag is not None:
            self.diag.stop()
            obs_metrics.configure_exemplars(False)
        for exporter in self.exporters:
            exporter.stop()
        if self._span_sink is not None:
            obs_trace.remove_sink(self._span_sink)
        self.bank.spans.flush()
        self.bank.usage.maybe_rollup(force=True)
        self.bank.db.close()
