"""Primary/standby GridBank cluster — WAL shipping over the RPC layer.

The paper's sec 6 anticipates "multiple servers/branches across the
Grid"; PR 4 made one bank fast, this module keeps it *available*. A
:class:`ClusterNode` wraps a :class:`~repro.bank.server.GridBankServer`
and exposes the replication stream as ordinary authenticated RPC
operations on the bank's own endpoint:

``Replication.Status``
    position + role + fencing epoch (peers and admins only).
``Replication.Snapshot``
    full :meth:`~repro.db.database.Database.state_dump` bootstrap.
``Replication.Fetch``
    long-poll the :class:`~repro.db.replication.ReplicationLog` for
    committed journal lines after ``(epoch, seq)``. Refuses with
    :class:`~repro.errors.NotPrimaryError` on a non-primary, so a
    standby whose upstream was demoted re-routes automatically.
``Cluster.Promote`` / ``Cluster.Demote``
    controlled failover (admin-only promote; demote carries the new
    fencing epoch and is refused unless it is strictly newer).
``Telemetry.Snapshot``
    one node's telemetry view — replication status, SLO alert states,
    per-principal usage top-K, hottest ops — which ``gridbank top``
    aggregates across the whole cluster.

A standby pulls the stream with a :class:`StandbyReplicator` (a step
under the one runner) and replays each line through
:meth:`~repro.db.database.Database.apply_replicated` — the exact
recovery path a crashed primary would take — so replica state, *reply
cache included*, is byte-identical by construction. That last point is
the availability half of exactly-once: the reply cache commits in the
same WAL line as each operation's ledger effects, ships in the same
stream, and therefore a client retrying an in-flight call against the
promoted standby gets the original reply instead of a double-apply.

Fencing: every node carries a ``cluster_epoch``. Promotion bumps it;
the new primary best-effort demotes the old one with the bumped epoch,
and a node only ever accepts a demotion carrying a *strictly newer*
epoch — a stale ex-primary cannot fence the node that replaced it. A
demoted ex-primary does NOT rejoin the stream automatically: its WAL
may have committed lines the new primary never saw (the shipping window
is asynchronous), so rejoining requires an explicit
:meth:`ClusterNode.follow` with ``resync=True``, which discards local
state for a fresh snapshot bootstrap.
"""

from __future__ import annotations

import functools
import threading
from collections import deque
from typing import Callable, Iterable, Optional, Tuple

from repro.bank.server import PRIMARY, GridBankServer
from repro.db.integrity import Scrubber
from repro.db.replication import FETCH_OK
from repro.errors import (
    AuthorizationError,
    CorruptionError,
    DatabaseError,
    NotPrimaryError,
    ReproError,
    TransportError,
)
from repro.net import frontend_snapshot
from repro.net.rpc import RPCClient
from repro.net.retry import RetryPolicy
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.logging import get_logger
from repro.obs.usage import hot_operations
from repro.util.runner import Runner

__all__ = [
    "ClusterNode", "StandbyReplicator", "PrimaryRouter", "ReplicatedBranch", "cluster_client",
    "catch_up", "RestoreNeeded",
]

_log = get_logger("bank.cluster")


class RestoreNeeded(ReproError):
    """The peer cannot level this node by a suffix, and the caller of
    :func:`catch_up` asked for no restore."""


def catch_up(
    bank: GridBankServer,
    client: RPCClient,
    wait: float = 0.0,
    resync: bool = False,
    restore: bool = True,
    batch: int = 256,
) -> Tuple[int, int]:
    """One round of catching up from the peer behind *client* — the one
    routine the standby's pull, promotion's tail drain, ``repair`` and
    ``gridbank fsck --repair`` share.

    Fetches up to *batch* records from the bank database's replication
    position (the peer parks up to *wait* seconds when it has nothing
    newer) and replays each through ``apply_replicated``. Returns how
    many records the peer still holds beyond ours, and the peer's
    fencing epoch. When the peer answers ``resync``, when the local
    position is ahead of the peer's (local writes: silent divergence),
    when what it sends does not start at the next seq, or when the
    caller asks for *resync*, the round restores the peer's
    ``Replication.Snapshot`` through ``load_state`` + ``rescan_state``
    instead, which leaves the bank level with the peer as of its dump:
    it returns 0 behind. With *restore* false such a round raises
    :class:`RestoreNeeded` and leaves local state as it was.
    """
    db = bank.db
    if not resync:
        epoch, seq = db.replication_position()
        reply = client.call(
            "Replication.Fetch", epoch=epoch, from_seq=seq, max_records=batch, timeout=wait,
        )
        records, last_seq = reply["records"], int(reply["last_seq"])
        ok = reply["status"] == FETCH_OK
        if ok and seq <= last_seq and (not records or int(records[0][0]) == seq + 1):
            if records:
                with obs_trace.span("replication.replay", kind="cluster", count=len(records)):
                    for record_seq, payload in records:
                        db.apply_replicated(int(record_seq), payload)
                obs_metrics.counter("replication.records_applied").inc(len(records))
            return max(0, last_seq - db.replication_position()[1]), int(reply["cluster_epoch"])
        if not restore:
            raise RestoreNeeded(
                f"peer cannot serve a suffix from epoch {epoch} seq {seq} "
                f"({reply['status']}, peer at seq {last_seq})"
            )
        if ok and seq > last_seq:
            obs_metrics.counter("replication.divergence_resyncs").inc()
            _log.warning("replication.diverged", local_seq=seq, primary_seq=last_seq)
    reply = client.call("Replication.Snapshot")
    with obs_trace.span("replication.bootstrap", kind="cluster"):
        db.load_state(reply["state"])
        bank.rescan_state()
    obs_metrics.counter("replication.bootstraps").inc()
    _log.info("replication.bootstrapped", epoch=reply["state"]["epoch"], seq=reply["state"]["seq"])
    return 0, int(reply["cluster_epoch"])


class ClusterNode:
    """One bank process in a replicated cluster.

    *connect* is the transport dialer (``address -> connection``), e.g.
    ``network.connect`` for the in-process transport or a
    ``TCPClientConnection`` lambda. Nodes of one logical bank normally
    share the bank's identity — a cheque signed by the primary must
    still verify on the promoted standby — and a caller presenting that
    shared credential is automatically a cluster peer; *peer_subjects*
    adds further subjects (split-identity topologies), and the bank's
    administrators always qualify.
    """

    def __init__(
        self,
        bank: GridBankServer,
        address: str,
        connect: Callable[[str], object],
        peer_subjects: Iterable[str] = (),
        lease_timeout: Optional[float] = None,
        auto_promote: bool = False,
        staleness_bound: Optional[float] = None,
        poll_interval: float = 0.02,
        fetch_batch: int = 256,
        long_poll: float = 0.5,
        scrub_interval: Optional[float] = None,
        diag: Optional[object] = None,
    ) -> None:
        self.bank = bank
        self.address = address
        self.connect = connect
        #: the DiagPlane a served :class:`repro.bank.node.Node` hands over;
        #: without one the Diag RPCs answer ``{"enabled": False}``
        self.diag = diag
        self.peer_subjects = set(peer_subjects)
        self.lease_timeout = lease_timeout
        self.auto_promote = auto_promote
        self.staleness_bound = staleness_bound
        self.poll_interval = poll_interval
        self.fetch_batch = fetch_batch
        #: server-side wait when the stream is dry — the fetch parks on
        #: the log's condition and wakes the instant a line commits, so a
        #: longer value means FEWER round-trips AND lower shipping latency
        self.long_poll = long_poll
        #: fencing token — promotion bumps it, demotion only ever accepts
        #: a strictly newer one
        self.cluster_epoch = 1
        self.log = bank.db.enable_replication()
        self.replicator: Optional[StandbyReplicator] = None
        self._last_caught_up = bank.clock.epoch()
        self._role_lock = threading.RLock()
        bank.primary_address = address if bank.role == "primary" else bank.primary_address
        self._register_operations()
        #: background scrubber re-verifying cold WAL/snapshot bytes; on
        #: corruption it attempts a replica-backed repair
        self.scrubber: Optional[Scrubber] = None
        if scrub_interval is not None and bank.db.path is not None:
            self.scrubber = Scrubber(
                self._scrub_pass,
                interval=scrub_interval,
                on_corruption=self._on_scrub_corruption,
            )
            self.scrubber.start()

    # -- roles ---------------------------------------------------------------

    def follow(self, primary_address: str, resync: bool = False) -> "StandbyReplicator":
        """Become (or re-point) a standby of *primary_address*.

        ``resync=True`` discards local position and bootstraps from a
        fresh snapshot — required when this node's WAL may have diverged
        (an ex-primary rejoining after failover).
        """
        with self._role_lock:
            self._stop_replicator()
            bank = self.bank
            bank.role = "standby"
            bank.primary_address = primary_address
            bank.read_staleness_bound = self.staleness_bound
            bank.replica_lag = self.lag_seconds
            replicator = StandbyReplicator(self, primary_address, resync=resync)
            self.replicator = replicator
            replicator.start()
            _log.info(
                "cluster.follow", node=self.address, primary=primary_address, resync=resync
            )
            return replicator

    def promote(self, reason: str = "manual") -> dict:
        """Make this node the primary: drain whatever tail of the stream
        is still reachable, rescan in-memory state from the replicated
        tables, bump the fencing epoch, accept writes, and best-effort
        demote the old primary. Idempotent on an existing primary."""
        with self._role_lock:
            bank = self.bank
            if bank.role == "primary":
                return self.status()
            replicator = self.replicator
            old_primary = bank.primary_address
            with obs_trace.span(
                "replication.promote", kind="cluster", node=self.address, reason=reason
            ):
                # stop the poll thread first so the drain below is the
                # only writer replaying the stream. Pull whatever suffix
                # the (possibly dead) upstream can still serve: a dead
                # primary means the tail is what already shipped, the
                # documented RPO window of asynchronous shipping. Never a
                # restore: the node about to become the source of truth
                # keeps the history it has rather than wait on a snapshot
                self._stop_replicator()
                if replicator is not None:
                    try:
                        self._catch_up_from(replicator.primary_address, restore=False)
                    except (ReproError, OSError) as exc:
                        _log.info(
                            "cluster.tail_drain_stopped", node=self.address,
                            error=type(exc).__name__, reason=str(exc),
                        )
                # the replicated WAL repopulated tables underneath the
                # layers; counters/caches must resync before any write
                bank.rescan_state()
                self.cluster_epoch += 1
                bank.role = "primary"
                bank.primary_address = self.address
                bank.read_staleness_bound = None
                bank.replica_lag = None
            obs_metrics.counter("replication.failovers").inc()
            epoch, seq = bank.db.replication_position()
            _log.info(
                "cluster.promoted",
                node=self.address,
                reason=reason,
                cluster_epoch=self.cluster_epoch,
                epoch=epoch,
                seq=seq,
            )
            if old_primary and old_primary != self.address:
                self._demote_peer(old_primary)
            return self.status()

    def demote(self, cluster_epoch: int, primary_address: str) -> None:
        """Fence this node out in favour of *primary_address*.

        Only a strictly newer fencing epoch is honoured — a stale
        ex-primary replaying an old demotion cannot fence the node that
        superseded it. The demoted node stops accepting writes but does
        NOT auto-rejoin the stream (see module docstring)."""
        with self._role_lock:
            if cluster_epoch <= self.cluster_epoch:
                raise AuthorizationError(
                    f"stale demotion: epoch {cluster_epoch} <= current {self.cluster_epoch}"
                )
            self._stop_replicator()
            self.cluster_epoch = cluster_epoch
            self.bank.role = "standby"
            self.bank.primary_address = primary_address
            self.bank.read_staleness_bound = self.staleness_bound
            # no replicator: the lag is unknown/unbounded until an
            # explicit resync, so reads past the bound must refuse
            self.bank.replica_lag = self.lag_seconds
            _log.info(
                "cluster.demoted",
                node=self.address,
                new_primary=primary_address,
                cluster_epoch=cluster_epoch,
            )

    def crash(self) -> None:
        """Simulate process death: the endpoint stops answering anything
        (clients see connection-closed transport errors) and the
        replicator, if any, halts. Database state stays on disk exactly
        as a real crash would leave it."""
        self.bank.endpoint.crashed = True
        self._stop_replicator()
        _log.warning("cluster.crashed", node=self.address)

    def _stop_replicator(self) -> None:
        replicator = self.replicator
        self.replicator = None
        if replicator is not None:
            replicator.stop()

    def close(self) -> None:
        """Stop background machinery (scrubber + replicator)."""
        if self.scrubber is not None:
            self.scrubber.stop()
            self.scrubber = None
        self._stop_replicator()

    # -- storage integrity ----------------------------------------------------

    def _scrub_pass(self) -> None:
        with obs_trace.span("integrity.scrub", kind="integrity", node=self.address):
            self.bank.db.scrub_once()

    def _on_scrub_corruption(self, exc: CorruptionError) -> None:
        _log.error(
            "integrity.scrub_corruption",
            node=self.address, seq=exc.seq, offset=exc.offset, reason=str(exc),
        )
        # a failed repair propagates: the runner counts and logs it
        self.repair(reason="scrubber")

    # -- catching up from a peer ---------------------------------------------

    def _catch_up_from(self, address: str, resync: bool = False, restore: bool = True) -> None:
        """Dial *address* and run :func:`catch_up` rounds, with no fetch
        wait, until level with it."""
        client = self._peer_client(address)
        try:
            behind = 1
            while behind > 0:  # a restore answers 0, so only fetch rounds repeat
                behind, cluster_epoch = catch_up(
                    self.bank, client, resync=resync, restore=restore, batch=self.fetch_batch
                )
                self.cluster_epoch = max(self.cluster_epoch, cluster_epoch)
        finally:
            client.close()

    def repair(self, peer_address: Optional[str] = None, reason: str = "operator") -> dict:
        """Self-heal from a healthy peer after local storage corruption.

        Catches up from the peer with a forced resync — a fresh
        ``Replication.Snapshot`` that ``load_state`` writes down
        atomically, truncating the damaged WAL — and re-verifies every
        local byte before declaring victory: the node never rejoins the
        stream on bytes it has not checked. A standby resumes following
        its (possibly new) upstream afterwards.
        """
        with self._role_lock:
            peer = peer_address
            if peer is None and self.bank.primary_address not in (None, "", self.address):
                peer = self.bank.primary_address
            if peer is None:
                raise DatabaseError("repair requires a healthy peer address")
            was_standby = self.bank.role == "standby"
            db = self.bank.db
            with obs_trace.span(
                "integrity.repair", kind="integrity",
                node=self.address, peer=peer, reason=reason,
            ):
                self._stop_replicator()
                self._catch_up_from(peer, resync=True)
                db.clear_corruption()
                report = db.verify_storage() if db.path is not None else None
                if report is not None and not report.ok:
                    # the freshly-written bytes failed verification: the
                    # local medium is actively eating writes — latch and
                    # refuse rather than pretend the node is healthy
                    raise report.corruption
            obs_metrics.counter("db.integrity.repairs").inc()
            epoch, seq = db.replication_position()
            _log.info(
                "integrity.repaired",
                node=self.address, peer=peer, reason=reason, epoch=epoch, seq=seq,
            )
            if was_standby:
                self.follow(peer)
            return {
                "ok": True,
                "peer": peer,
                "epoch": epoch,
                "seq": seq,
                "snapshot_records": report.snapshot_records if report is not None else -1,
            }

    def _demote_peer(self, address: str) -> None:
        try:
            client = self._peer_client(address)
            try:
                client.call(
                    "Cluster.Demote",
                    cluster_epoch=self.cluster_epoch,
                    primary_address=self.address,
                )
            finally:
                client.close()
        except (ReproError, OSError) as exc:
            # best-effort: a dead old primary is fenced by construction
            # (it cannot demote us back without a newer epoch)
            _log.info(
                "cluster.demote_unreachable",
                peer=address,
                error=type(exc).__name__,
                reason=str(exc),
            )

    def _peer_client(self, address: str) -> RPCClient:
        client = RPCClient(
            self.connect(address),
            self.bank.identity,
            self.bank.endpoint.trust_store,
            clock=self.bank.clock,
        )
        client.connect()
        return client

    # -- observability -------------------------------------------------------

    def lag_records(self) -> int:
        replicator = self.replicator
        if replicator is None:
            return 0
        return replicator.lag_records

    def lag_seconds(self) -> float:
        """Seconds since this node last knew it matched the primary.

        With no running replicator (a fenced ex-primary, or a standby
        whose thread died) the lag grows without bound from the last
        caught-up instant — which is exactly what the staleness guard
        should see. A primary is its own source of truth: zero."""
        if self.bank.role == "primary":
            return 0.0
        replicator = self.replicator
        marker = replicator.caught_up_at if replicator is not None else self._last_caught_up
        return max(0.0, self.bank.clock.epoch() - marker)

    def status(self) -> dict:
        epoch, seq = self.bank.db.replication_position()
        integrity_state = self.bank.db.integrity_status()
        return {
            "node": self.address,
            "role": self.bank.role,
            "primary_address": self.bank.primary_address or "",
            "cluster_epoch": self.cluster_epoch,
            "epoch": epoch,
            "seq": seq,
            "lag_records": self.lag_records(),
            "lag_seconds": self.lag_seconds(),
            "integrity_ok": integrity_state["ok"],
            "corruption": integrity_state["corruption"],
        }

    # -- replication RPC operations -----------------------------------------

    def _require_peer(self, subject: str) -> None:
        # nodes of one logical bank share the bank's identity (payment
        # instruments signed by the primary must verify on the promoted
        # standby), so a caller holding the bank's own credential IS the
        # cluster; peer_subjects covers split-identity topologies
        if (
            subject == self.bank.subject
            or subject in self.peer_subjects
            or self.bank.admin.is_administrator(subject)
        ):
            return
        raise AuthorizationError(
            f"subject {subject!r} is neither a cluster peer nor an administrator"
        )

    def _register_operations(self) -> None:
        # plumbing: no account locks, a standby answers at any lag (these
        # are the verbs that measure and repair the lag), and none of it is
        # principal workload. Peers may call it; the two verbs that change
        # who is primary or rewrite local storage take an administrator.
        self.bank.access["peer"] = self._require_peer
        register = functools.partial(
            self.bank.register, access="peer", staleness_exempt=True, tracked=False
        )
        register("Replication.Status", self.op_replication_status)
        # the stream and its bootstrap come from the primary only, so a
        # standby whose upstream was demoted re-routes by the refusal
        register("Replication.Snapshot", self.op_replication_snapshot, kind=PRIMARY)
        register("Replication.Fetch", self.op_replication_fetch, kind=PRIMARY)
        register("Cluster.Promote", self.op_cluster_promote, access="admin")
        register("Cluster.Demote", self.op_cluster_demote)
        register("Telemetry.Snapshot", self.op_telemetry_snapshot)
        register("Integrity.Status", self.op_integrity_status)
        register("Integrity.Repair", self.op_integrity_repair, access="admin")
        register("Diag.Profile", self.op_diag_profile, blocking=True)
        register("Diag.FlightRecord", self.op_diag_flight_record)

    def op_replication_status(self, subject: str, params: dict) -> dict:
        return self.status()

    def op_replication_snapshot(self, subject: str, params: dict) -> dict:
        state = self.bank.db.state_dump()
        obs_metrics.counter("replication.snapshots_served").inc()
        return {"state": state, "cluster_epoch": self.cluster_epoch}

    def op_replication_fetch(self, subject: str, params: dict) -> dict:
        status, epoch, last_seq, records = self.log.fetch(
            int(params.get("epoch", 0)),
            int(params.get("from_seq", 0)),
            max_records=int(params.get("max_records", self.fetch_batch)),
            timeout=min(float(params.get("timeout", 0.0)), 1.0),
        )
        if records:
            obs_metrics.counter("replication.records_shipped").inc(len(records))
            obs_trace.add_event(
                "replication.ship", peer=subject, count=len(records), last_seq=last_seq
            )
        return {
            "status": status,
            "epoch": epoch,
            "last_seq": last_seq,
            "records": records,
            "cluster_epoch": self.cluster_epoch,
        }

    def op_cluster_promote(self, subject: str, params: dict) -> dict:
        return self.promote(reason=str(params.get("reason", "operator")))

    def op_cluster_demote(self, subject: str, params: dict) -> dict:
        self.demote(int(params["cluster_epoch"]), str(params.get("primary_address", "")))
        return self.status()

    def op_integrity_status(self, subject: str, params: dict) -> dict:
        """Latched corruption state plus (optionally) a fresh scrub."""
        if bool(params.get("scrub", False)) and self.bank.db.path is not None:
            try:
                self._scrub_pass()
            except CorruptionError:
                pass  # latched; reported below
        return self.bank.db.integrity_status()

    def op_integrity_repair(self, subject: str, params: dict) -> dict:
        peer = params.get("peer") or None
        return self.repair(peer_address=peer, reason=str(params.get("reason", "operator")))

    def op_telemetry_snapshot(self, subject: str, params: dict) -> dict:
        """One node's full telemetry view for ``gridbank top``: replication
        status, per-objective SLO state, usage top-K and hottest ops."""
        top = int(params.get("top", 5))
        snap = self.status()
        metrics_snap = obs_metrics.snapshot()
        snap["slo"] = self.bank.slo.snapshot()
        snap["usage"] = self.bank.usage.snapshot(top)
        plumbing = {op.name for op in self.bank.ops.values() if not op.tracked}
        snap["hot_ops"] = hot_operations(metrics_snap, limit=top, skip=plumbing)
        snap["net"] = frontend_snapshot(metrics_snap)
        return snap

    def op_diag_profile(self, subject: str, params: dict) -> dict:
        """Stripe-lock/WAL contention stats, plus per-op CPU attribution
        sampled for ``seconds`` on this thread, for ``gridbank profile`` /
        ``gridbank debug-bundle``."""
        if self.diag is None:
            return {"enabled": False}
        return self.diag.profile_snapshot(
            top=int(params.get("top", 25)), seconds=float(params.get("seconds", 0.0))
        )

    def op_diag_flight_record(self, subject: str, params: dict) -> dict:
        """The flight recorder's rings (recent/slow spans, logs, metric
        deltas, trigger history) for bundle collection."""
        if self.diag is None:
            return {"enabled": False}
        return self.diag.flight_snapshot(limit=int(params.get("limit", 128)))


class StandbyReplicator:
    """The replication pull: one :meth:`step` streams committed WAL lines
    from the primary and replays them locally. Tracks lag for the
    staleness guard and, when the node is configured with
    ``auto_promote`` + ``lease_timeout``, promotes the node once the
    primary has been silent past the lease. Time (lease, lag) is read
    from ``node.bank.clock`` only; the runner paces the polls in real
    time, so the loop keeps breathing when nothing advances a virtual
    clock."""

    def __init__(self, node: ClusterNode, primary_address: str, resync: bool = False) -> None:
        self.node = node
        self.primary_address = primary_address
        self._resync = resync
        self._client: Optional[RPCClient] = None
        clock = node.bank.clock
        #: last successful exchange with the primary (lease basis)
        self.last_contact = clock.epoch()
        #: last instant this node knew it matched the primary's position
        self.caught_up_at = clock.epoch()
        self.lag_records = 0
        self._lag_records_gauge = obs_metrics.gauge("replication.lag_records")
        self._lag_seconds_gauge = obs_metrics.gauge("replication.lag_seconds")
        self._runner = Runner(f"replicator-{node.address}", self.step, node.poll_interval)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._runner.start()

    def stop(self) -> None:
        """Close the upstream connection (which ends a long-poll in
        flight) and stop the runner; safe from inside :meth:`step`, as
        lease-timeout promotion does."""
        self._disconnect()
        self._runner.stop()
        # a step that lost the first close's race may have redialled
        self._disconnect()
        self.node._last_caught_up = self.caught_up_at

    def step(self) -> Optional[float]:
        """One fetch+replay round. Returns 0.0 to go again at once — a
        backlog (lag > 0) drains at full speed — and None to pause one
        poll interval: once caught up, group shipping lets the next
        fetch carry a batch instead of answering every primary commit
        with its own signed RPC round-trip."""
        try:
            # one reference for the whole round: stop() may drop
            # self._client under us, and a closed client fails typed
            client = self._ensure_client()
            node = self.node
            self.lag_records, cluster_epoch = catch_up(
                node.bank, client, node.long_poll, resync=self._resync, batch=node.fetch_batch
            )
            node.cluster_epoch = max(node.cluster_epoch, cluster_epoch)
            self._resync = False
            self._mark_contact(caught_up=self.lag_records == 0)
            if self.lag_records > 0:
                return 0.0
        except NotPrimaryError as exc:
            return self._reroute(exc)
        except (ReproError, OSError) as exc:
            self._disconnect()
            _log.debug(
                "replication.poll_failed",
                node=self.node.address,
                primary=self.primary_address,
                error=type(exc).__name__,
            )
            self._maybe_auto_promote()
        return None

    # -- plumbing ------------------------------------------------------------

    def _ensure_client(self) -> RPCClient:
        client = self._client
        if client is None:
            client = self._client = self.node._peer_client(self.primary_address)
        return client

    def _disconnect(self) -> None:
        client = self._client
        self._client = None
        if client is not None:
            try:
                client.close()
            except ReproError:
                pass

    def _reroute(self, exc: NotPrimaryError) -> Optional[float]:
        address = exc.primary_address
        if address and address not in (self.primary_address, self.node.address):
            _log.info(
                "replication.reroute",
                node=self.node.address,
                old=self.primary_address,
                new=address,
            )
            self.primary_address = address
            self.node.bank.primary_address = address
            self._disconnect()
            return 0.0
        self._maybe_auto_promote()
        return None

    def _mark_contact(self, caught_up: bool) -> None:
        now = self.node.bank.clock.epoch()
        self.last_contact = now
        if caught_up:
            self.caught_up_at = now
        self._lag_records_gauge.set(float(self.lag_records))
        self._lag_seconds_gauge.set(max(0.0, now - self.caught_up_at))

    def _maybe_auto_promote(self) -> None:
        node = self.node
        if not node.auto_promote or node.lease_timeout is None:
            return
        if node.bank.role != "standby":
            return
        silent = node.bank.clock.epoch() - self.last_contact
        if silent > node.lease_timeout:
            _log.warning(
                "replication.lease_expired",
                node=node.address,
                silent=silent,
                lease=node.lease_timeout,
            )
            node.promote(reason="lease-timeout")


class PrimaryRouter:
    """Reconnect factory that walks a cluster's addresses.

    Plugs into :class:`~repro.net.rpc.RPCClient` as its *reconnect*
    callable. Each invocation dials the head of the rotation and then
    advances it, so a client that keeps reconnecting (dead node, fenced
    ex-primary) probes the whole ring instead of hammering one member;
    :meth:`hint` — fed by the client from a
    :class:`~repro.errors.NotPrimaryError` redirect — moves the
    advertised primary to the front so the very next attempt lands
    there. One router serves one client: the client's nonce (and with it
    every idempotency key) survives the re-route, which is what makes a
    retried in-flight call exactly-once across failover.
    """

    def __init__(self, connect: Callable[[str], object], addresses: Iterable[str]) -> None:
        self._connect = connect
        self._order = deque(dict.fromkeys(addresses))
        if not self._order:
            raise ValueError("PrimaryRouter needs at least one address")
        self.current: Optional[str] = None

    def hint(self, address: Optional[str]) -> None:
        if not address:
            return
        try:
            self._order.remove(address)
        except ValueError:
            pass
        self._order.appendleft(address)

    def __call__(self):
        last_error: Optional[Exception] = None
        for _ in range(len(self._order)):
            address = self._order[0]
            self._order.rotate(-1)
            try:
                connection = self._connect(address)
            except (TransportError, OSError) as exc:
                last_error = exc
                continue
            self.current = address
            return connection
        if isinstance(last_error, TransportError):
            raise last_error
        raise TransportError(
            f"no cluster member reachable: {last_error}"
        ) from last_error


def cluster_client(
    credential,
    trust_store,
    connect: Callable[[str], object],
    addresses: Iterable[str],
    clock=None,
    rng=None,
    retry_policy: Optional[RetryPolicy] = None,
) -> RPCClient:
    """A connected, failover-aware :class:`RPCClient`: routes through a
    :class:`PrimaryRouter` and retries under *retry_policy* (a default
    policy is supplied — routing requires one, since redirects consume
    retry attempts)."""
    router = PrimaryRouter(connect, addresses)
    if retry_policy is None:
        retry_policy = RetryPolicy(max_attempts=8, base_delay=0.02, max_delay=0.5)
    client = RPCClient(
        router(),
        credential,
        trust_store,
        clock=clock,
        rng=rng,
        retry_policy=retry_policy,
        reconnect=router,
    )
    client.connect()
    return client


class ReplicatedBranch:
    """Duck-typed :class:`~repro.bank.server.GridBankServer` facade over a
    replicated pair (or larger group) for
    :class:`~repro.bank.branch.BranchNetwork`: account/admin access
    always resolves to the group's current live primary, so branch
    settlement keeps working across a failover."""

    def __init__(self, *nodes: ClusterNode) -> None:
        if not nodes:
            raise ValueError("ReplicatedBranch needs at least one node")
        self._nodes = nodes
        self.bank_number = nodes[0].bank.bank_number
        self.branch_number = nodes[0].bank.branch_number

    @property
    def primary_node(self) -> ClusterNode:
        for node in self._nodes:
            if node.bank.role == "primary" and not node.bank.endpoint.crashed:
                return node
        raise NotPrimaryError("no live primary in the replicated group")

    @property
    def accounts(self):
        return self.primary_node.bank.accounts

    @property
    def admin(self):
        return self.primary_node.bank.admin
