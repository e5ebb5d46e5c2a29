"""Command-line interface to a persistent GridBank.

A "bank home" directory holds the bank's CA, identity (certificate +
private key) and the WAL-backed database, so the books survive between
invocations::

    python -m repro.cli init --home ./mybank
    python -m repro.cli create-account --home ./mybank --subject "/O=VO-A/CN=alice"
    python -m repro.cli deposit --home ./mybank --account 01-0001-00000001 --amount 100
    python -m repro.cli transfer --home ./mybank --from-account ... --to-account ... --amount 25
    python -m repro.cli balance --home ./mybank --account 01-0001-00000001
    python -m repro.cli statement --home ./mybank --account 01-0001-00000001
    python -m repro.cli serve --home ./mybank --port 7776   # real TCP service
    python -m repro.cli serve --home ./standby --port 7777 --standby-of 127.0.0.1:7776
    python -m repro.cli promote --credential admin.gbk --address 127.0.0.1:7777
    python -m repro.cli cluster-status --credential admin.gbk --address 127.0.0.1:7777
    python -m repro.cli metrics --home ./mybank [--json]    # observability dump
    python -m repro.cli metrics export --home ./mybank      # Prometheus text
    python -m repro.cli trace show <trace-id> --home ./mybank
    python -m repro.cli trace slowest --home ./mybank -n 10
    python -m repro.cli trace grep redeem --home ./mybank
    python -m repro.cli top --credential admin.gbk \\
        --address 127.0.0.1:7776 --address 127.0.0.1:7777   # cluster telemetry
    python -m repro.cli profile --credential admin.gbk --address 127.0.0.1:7776
    python -m repro.cli debug-bundle --credential admin.gbk \\
        --address 127.0.0.1:7776 --address 127.0.0.1:7777 --out ./bundle

Administrative commands (deposit/withdraw/credit-limit/close) act as the
bank operator — the sec 5.2.1 role of "GridBank's administrators who are
responsible for transferring real money to and from clients".
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
from pathlib import Path
from typing import Optional

from repro.bank.server import GridBankServer
from repro.crypto.keys import private_key_from_dict, private_key_to_dict
from repro.db.database import Database
from repro.errors import CorruptionError, ReproError, ValidationError
from repro.obs import metrics as obs_metrics
from repro.obs.export import HTTPExporter, render_prometheus
from repro.obs.logging import configure_from_env
from repro.obs.slo import Objective
from repro.obs.store import render_waterfall
from repro.pki.ca import CertificateAuthority, Identity
from repro.pki.certificate import Certificate, DistinguishedName
from repro.pki.validation import CertificateStore
from repro.util.gbtime import SystemClock, Timestamp
from repro.util.money import Credits
from repro.util.serialize import canonical_dumps, canonical_loads

__all__ = ["main"]

_IDENTITY_FILE = "bank-identity.gbk"
_ROOT_FILE = "ca-root.gbk"
_DB_DIR = "db"
_METRICS_FILE = "metrics.json"
_TELEMETRY_FILE = "telemetry.json"


def _save_identity(home: Path, identity: Identity, root: Certificate) -> None:
    (home / _IDENTITY_FILE).write_bytes(
        canonical_dumps(
            {
                "certificate": identity.certificate.to_dict(),
                "private_key": private_key_to_dict(identity.private_key),
            }
        )
    )
    (home / _ROOT_FILE).write_bytes(canonical_dumps(root.to_dict()))


def _bank_credential(home: Path):
    """The bank home's own identity + trust store — nodes of one logical
    bank share the bank identity, and holding it is what authorizes the
    replication/repair RPCs against a peer."""
    identity = _identity(canonical_loads((home / _IDENTITY_FILE).read_bytes()))
    root = Certificate.from_dict(canonical_loads((home / _ROOT_FILE).read_bytes()))
    return identity, CertificateStore([root])


def _identity(blob: dict) -> Identity:
    return Identity(
        certificate=Certificate.from_dict(blob["certificate"]),
        private_key=private_key_from_dict(blob["private_key"]),
    )


def _load_bank(home: Path, bank_number: int = 1, branch_number: int = 1) -> GridBankServer:
    identity, store = _bank_credential(home)
    db = Database(path=home / _DB_DIR)
    server = GridBankServer(
        identity, store, db=db, clock=SystemClock(),
        bank_number=bank_number, branch_number=branch_number,
    )
    server.recover()
    return server


def cmd_init(args) -> int:
    home = Path(args.home)
    if (home / _IDENTITY_FILE).exists():
        print(f"error: {home} already holds a bank", file=sys.stderr)
        return 1
    home.mkdir(parents=True, exist_ok=True)
    clock = SystemClock()
    ca = CertificateAuthority(
        DistinguishedName("GridBank", f"CA-{args.bank_number:02d}-{args.branch_number:04d}"),
        clock=clock,
        rng=random.Random(args.seed) if args.seed is not None else None,
        key_bits=args.key_bits,
    )
    identity = ca.issue_identity(
        DistinguishedName("GridBank", f"server-{args.bank_number:02d}-{args.branch_number:04d}"),
        key_bits=args.key_bits,
    )
    _save_identity(home, identity, ca.root_certificate)
    # keep the CA signing key so this home can enroll users (issue-identity)
    (home / "ca-key.gbk").write_bytes(
        canonical_dumps({"private_key": private_key_to_dict(ca._private)})
    )
    db = _load_bank(home, args.bank_number, args.branch_number).db
    db.checkpoint()
    db.close()
    print(f"initialized GridBank {args.bank_number:02d}-{args.branch_number:04d} at {home}")
    print(f"bank subject: {identity.subject}")
    return 0


def cmd_init_standby(args) -> int:
    """Create a standby home for an existing bank.

    The standby is the same logical bank running as a second process, so
    it shares the primary home's identity and trust root — a cheque or
    confirmation the primary signed must still verify after a failover.
    Holding the bank's credential is also what authorizes the standby to
    pull the replication stream.
    """
    home = Path(args.home)
    primary_home = Path(args.primary_home)
    if (home / _IDENTITY_FILE).exists():
        print(f"error: {home} already holds a bank", file=sys.stderr)
        return 1
    if not (primary_home / _IDENTITY_FILE).exists():
        print(f"error: {primary_home} holds no bank identity", file=sys.stderr)
        return 1
    home.mkdir(parents=True, exist_ok=True)
    (home / _IDENTITY_FILE).write_bytes((primary_home / _IDENTITY_FILE).read_bytes())
    (home / _ROOT_FILE).write_bytes((primary_home / _ROOT_FILE).read_bytes())
    # no database: the standby's first `serve --standby-of` creates one
    # and bootstraps its contents from the primary's snapshot
    print(f"initialized standby home at {home} (shares {primary_home}'s bank identity)")
    print("start it with: serve --standby-of <primary host:port>")
    return 0


def cmd_create_account(args) -> int:
    bank = _load_bank(Path(args.home))
    account_id = bank.accounts.create_account(
        args.subject, organization_name=args.organization, currency=args.currency
    )
    bank.db.close()
    print(account_id)
    return 0


def cmd_deposit(args) -> int:
    bank = _load_bank(Path(args.home))
    txn = bank.admin.deposit(args.account, Credits(args.amount))
    bank.db.close()
    print(f"deposited G${args.amount} into {args.account} (transaction {txn})")
    return 0


def cmd_withdraw(args) -> int:
    bank = _load_bank(Path(args.home))
    txn = bank.admin.withdraw(args.account, Credits(args.amount))
    bank.db.close()
    print(f"withdrew G${args.amount} from {args.account} (transaction {txn})")
    return 0


def cmd_transfer(args) -> int:
    bank = _load_bank(Path(args.home))
    txn = bank.accounts.transfer(args.from_account, args.to_account, Credits(args.amount))
    bank.db.close()
    print(f"transferred G${args.amount}: {args.from_account} -> {args.to_account} "
          f"(transaction {txn})")
    return 0


def cmd_balance(args) -> int:
    bank = _load_bank(Path(args.home))
    row = bank.accounts.get_account(args.account)
    bank.db.close()
    print(f"account:   {row['AccountID']} ({row['Status']})")
    print(f"subject:   {row['CertificateName']}")
    print(f"available: {Credits(row['AvailableBalance'])}")
    print(f"locked:    {Credits(row['LockedBalance'])}")
    print(f"limit:     {Credits(row['CreditLimit'])}  currency: {row['Currency']}")
    return 0


def cmd_statement(args) -> int:
    bank = _load_bank(Path(args.home))
    start = Timestamp.from_stamp14(args.start) if args.start else Timestamp(0.0)
    end = Timestamp.from_stamp14(args.end) if args.end else bank.clock.now()
    statement = bank.accounts.statement(args.account, start, end)
    bank.db.close()
    print(f"statement for {args.account} [{start.stamp14} .. {end.stamp14}]")
    for entry in statement["transactions"]:
        print(
            f"  {entry['Date']}  txn {entry['TransactionID']:>6}  "
            f"{entry['Type']:<10} {Credits(entry['Amount'])}"
        )
    print(f"{len(statement['transactions'])} transaction(s), "
          f"{len(statement['transfers'])} transfer record(s)")
    return 0


def cmd_accounts(args) -> int:
    bank = _load_bank(Path(args.home))
    rows = bank.accounts.db.select("accounts", order_by="AccountID")
    bank.db.close()
    for row in rows:
        print(f"{row['AccountID']}  {row['Status']:<7} {Credits(row['AvailableBalance'])!s:>14}  "
              f"{row['CertificateName']}")
    print(f"{len(rows)} account(s)")
    return 0


def cmd_add_admin(args) -> int:
    bank = _load_bank(Path(args.home))
    bank.admin.add_administrator(args.subject)
    bank.db.close()
    print(f"administrator added: {args.subject}")
    return 0


def cmd_checkpoint(args) -> int:
    bank = _load_bank(Path(args.home))
    bank.db.checkpoint()
    bank.db.close()
    print("checkpoint written; journal truncated")
    return 0


def _repair_from(home: Path, peer: str, client) -> "integrity.IntegrityReport":
    """Boot a damaged home past its damage, catch up from the peer
    behind *client*, and return the re-verified directory.

    Recovery quarantines a damaged WAL suffix itself and leaves a marker
    naming it; with the quarantine done, the marker is cleared and the
    verified prefix boots. A damaged snapshot or epoch file leaves no
    marker: the snapshot is set aside together with the WAL written
    against it, and the home boots empty, to be restored whole. From
    the clear until the catch-up has finished, a marker saying so is
    left on every way out — a reboot then refuses the shortened (or
    empty) history instead of serving it."""
    from repro.bank.cluster import catch_up
    from repro.db import integrity

    db_dir = home / _DB_DIR
    pending = f"repair from {peer} did not complete"
    bank = None
    integrity.clear_marker(db_dir)
    try:
        try:
            bank = _load_bank(home)
        except CorruptionError:
            if integrity.read_marker(db_dir) is None:
                integrity.set_aside_snapshot(db_dir)
            integrity.clear_marker(db_dir)
            bank = _load_bank(home)
        integrity.write_marker(db_dir, pending)
        before = bank.db.replication_position()
        while catch_up(bank, client)[0] > 0:
            pass  # a restore answers 0, so only fetch rounds repeat
        after = bank.db.replication_position()
        print(f"caught up from {peer}: epoch {before[0]} seq {before[1]} -> "
              f"epoch {after[0]} seq {after[1]}")
        bank.db.clear_corruption()
        return bank.db.verify_storage()
    except BaseException:
        integrity.write_marker(db_dir, pending)
        raise
    finally:
        if bank is not None:
            bank.db.close()


def cmd_fsck(args) -> int:
    """Verify a bank home's storage integrity; optionally repair from a peer.

    Without flags: read-only verification with the reader recovery uses
    (exit 0 clean, 1 corrupt) — unresolved corruption markers, the epoch
    file, the snapshot manifest, every WAL record's CRC frame. With
    ``--repair --peer HOST:PORT``: dial the peer first — a wrong, dead
    or foreign peer fails before anything on disk moves — then boot the
    home past the damage and catch up through the same routine a
    standby uses (see :func:`_repair_from`): the missing WAL suffix, or
    the peer's whole snapshot when the suffix is no longer servable.
    Re-verify every byte, and prove the books still balance. The peer
    must be the cluster's current primary — if the *primary* is the
    corrupt node, promote the standby first.
    """
    from repro.db import integrity
    from repro.net.rpc import RPCClient

    home = Path(args.home)
    db_dir = home / _DB_DIR
    if not db_dir.exists():
        print(f"error: {db_dir} holds no database", file=sys.stderr)
        return 1
    report = integrity.verify_dir(db_dir)
    print(f"fsck {db_dir}: {report.describe()}")
    if report.ok:
        return 0
    if not args.repair:
        print("re-run with --repair --peer HOST:PORT to restore from a healthy peer",
              file=sys.stderr)
        return 1
    if not args.peer:
        print("error: --repair requires --peer HOST:PORT", file=sys.stderr)
        return 1

    identity, store = _bank_credential(home)
    with RPCClient(_tcp_connect(args.peer), identity, store) as client:
        client.connect()
        final = _repair_from(home, args.peer, client)
    print(f"re-verify: {final.describe()}")
    if not final.ok:
        print("error: repair did not converge — local medium may be failing",
              file=sys.stderr)
        return 1
    # the books must balance on the repaired bytes, end to end
    bank = _load_bank(home)
    total = bank.accounts.total_bank_funds()
    bank.db.close()
    print(f"repair complete: bank recovers cleanly, total funds {total}")
    return 0


def cmd_issue_identity(args) -> int:
    """Enroll a user: the bank home's CA signs a credential file the user
    can then present to ``remote`` commands (and any GSI service)."""
    home = Path(args.home)
    root = Certificate.from_dict(canonical_loads((home / _ROOT_FILE).read_bytes()))
    ca_file = home / "ca-key.gbk"
    if not ca_file.exists():
        print("error: this bank home has no CA signing key (ca-key.gbk)", file=sys.stderr)
        return 1
    ca_blob = canonical_loads(ca_file.read_bytes())
    from repro.crypto.rsa import generate_keypair
    from repro.pki.certificate import make_body

    ca_private = private_key_from_dict(ca_blob["private_key"])
    keypair = generate_keypair(bits=args.key_bits)
    clock = SystemClock()
    body = make_body(
        subject=str(DistinguishedName(args.organization, args.name)),
        issuer=root.subject,
        serial=int(clock.now().epoch),  # wall-clock serials avoid state here
        public_key=keypair.public,
        not_before=clock.now(),
        lifetime_seconds=args.lifetime_days * 24 * 3600.0,
    )
    certificate = Certificate.issue(body, ca_private)
    out = Path(args.out)
    out.write_bytes(
        canonical_dumps(
            {
                "certificate": certificate.to_dict(),
                "private_key": private_key_to_dict(keypair.private),
                "trust_root": root.to_dict(),
            }
        )
    )
    print(f"credential written to {out}")
    print(f"subject: {certificate.subject}")
    return 0


def _load_credential(path: str):
    blob = canonical_loads(Path(path).read_bytes())
    return _identity(blob), CertificateStore([Certificate.from_dict(blob["trust_root"])])


def _dial(address: str, identity, store, connect=None):
    """An authenticated RPC client of the bank at *address*."""
    from repro.net.rpc import RPCClient

    client = RPCClient((connect or _tcp_connect)(address), identity, store)
    client.connect()
    return client


def _remote_api(args):
    from repro.core.api import GridBankAPI

    return GridBankAPI(_dial(args.address, *_load_credential(args.credential)))


def _remote_call(args, method: str, **params):
    """One RPC on the bank at --address, as the --credential holder."""
    with _dial(args.address, *_load_credential(args.credential)) as client:
        return client.call(method, **params)


def cmd_remote_create_account(args) -> int:
    api = _remote_api(args)
    account = api.create_account(organization_name=args.organization)
    api.close()
    print(account)
    return 0


def cmd_remote_balance(args) -> int:
    api = _remote_api(args)
    details = api.account_details(args.account)
    api.close()
    print(f"available: {Credits(details['AvailableBalance'])}")
    print(f"locked:    {Credits(details['LockedBalance'])}")
    return 0


def cmd_remote_transfer(args) -> int:
    api = _remote_api(args)
    confirmation = api.request_direct_transfer(
        args.from_account, args.to_account, Credits(args.amount)
    )
    api.close()
    print(f"transferred G${args.amount} (transaction {confirmation.transaction_id})")
    return 0


def _tcp_connect(address: str):
    from repro.net.tcp import TCPClientConnection

    host, _, port = address.partition(":")
    return TCPClientConnection((host, int(port)))


def _node_config(args):
    """Serve's flags as a NodeConfig, checked before anything is opened: a
    refusal leaves no thread, socket or lock file behind."""
    from repro.bank.node import NodeConfig

    problem = None
    if args.workers is not None and args.backend != "async":
        problem = "--workers applies to the async backend only"
    elif args.workers is not None and args.workers < 1:
        problem = "--workers must be >= 1 on the async backend"
    elif args.dispatch_queue < 1:
        problem = "--dispatch-queue must be >= 1"
    elif args.max_connections is not None and args.max_connections < 1:
        problem = "--max-connections must be >= 1"
    elif args.rate_limit is not None and args.rate_limit <= 0:
        problem = "--rate-limit must be > 0"
    if problem is not None:
        raise ValidationError(problem)
    # a non-default catch-all objective replaces the bank's built-in one
    overrides = {"target": args.slo_target, "latency_threshold": args.slo_latency}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    try:
        slo = (Objective(op="*", **overrides),) if overrides else ()
    except ValueError as exc:
        raise ValidationError(f"--slo-target/--slo-latency: {exc}") from None
    shard_map = None
    if args.shard_map:
        from repro.bank.shard import ShardMap

        try:
            shard_map = ShardMap.from_json(Path(args.shard_map).read_bytes())
        except OSError as exc:
            raise ValidationError(f"cannot read --shard-map {args.shard_map} ({exc})") from None
    return NodeConfig(
        standby_of=args.standby_of, peers=tuple(args.peer or ()),
        auto_promote=args.auto_promote, lease_timeout=args.lease_timeout,
        staleness_bound=args.staleness_bound, scrub_interval=args.scrub_interval,
        slo=slo, diag=not args.no_diag,
        diag_dir=Path(args.diag_dir) if args.diag_dir else None,
        metrics_port=args.metrics_port, metrics_textfile=args.metrics_textfile,
        metrics_interval=args.metrics_interval, shard_id=args.shard_id,
        shard_map=shard_map, resolve_interval=args.resolve_interval,
    )


def _front_end(args, bank):
    """Bind the socket server. Both backends serve the same sealed protocol
    behind one handler factory; the async one adds admission knobs."""
    from repro.net.aio import AsyncTCPServer
    from repro.net.tcp import TCPServer

    common = dict(host=args.host, port=args.port, max_connections=args.max_connections,
                  idle_timeout=args.idle_timeout)
    if args.backend != "async":
        return TCPServer(bank.connection_handler, **common)
    return AsyncTCPServer(
        bank.connection_handler, workers=args.workers or 4, dispatch_queue=args.dispatch_queue,
        rate_limit=args.rate_limit, handshake_timeout=args.handshake_timeout,
        overload_signal=bank.overloaded, **common,
    )


def _print_banner(node, args, host: str, port: int) -> None:
    config, bank = node.config, node.bank
    if node.diag is not None:
        print(f"diagnosis plane: post-mortems under {node.diag.recorder.dump_dir}")
    for http in (e for e in node.exporters if isinstance(e, HTTPExporter)):
        print(f"metrics scrape endpoint: http://{http.host}:{http.port}/metrics")
        print(f"health check endpoint:   http://{http.host}:{http.port}/healthz")
    if node.shard is not None:
        installed = node.shard.installed_map()
        print(f"serving shard {config.shard_id} (map v{installed.version if installed else 0}, "
              f"resolver every {config.resolve_interval:g}s)")
    print(f"GridBank {bank.bank_number:02d}-{bank.branch_number:04d} "
          f"({bank.subject}) listening on {host}:{port} [{args.backend} backend]")
    if config.standby_of:
        note = "promote with `gridbank promote`"
        if config.auto_promote and config.lease_timeout is not None:
            note = f"auto-promote after {config.lease_timeout}s silence"
        print(f"standby of {config.standby_of} (advertised as {node.cluster.address}; {note})")


def cmd_serve(args) -> int:
    from repro.bank.node import Node

    config = _node_config(args)
    home = Path(args.home)
    node = Node(_load_bank(home), config, _tcp_connect)
    try:
        try:
            server = _front_end(args, node.bank)
        except OSError as exc:
            print(f"error: cannot listen on {args.host}:{args.port} ({exc})", file=sys.stderr)
            return 1
        with server:
            host, port = server.address
            node.start(args.advertise or f"{host}:{port}")
            _print_banner(node, args, host, port)
            try:
                threading.Event().wait(args.duration if args.duration else None)
            except KeyboardInterrupt:
                pass
    finally:
        node.close()
    # the run's metrics, for `gridbank metrics` later, and the objectives
    # the run was judged against
    slo = [objective.to_dict() for objective in node.bank.slo.objectives()]
    for name, data in ((_METRICS_FILE, obs_metrics.snapshot()), (_TELEMETRY_FILE, {"slo": slo})):
        (home / name).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print("server stopped")
    return 0


def cmd_promote(args) -> int:
    """Controlled failover: tell a standby to become the primary.

    The standby drains whatever tail of the stream is still reachable,
    fences the old primary behind a bumped cluster epoch, and starts
    accepting writes. Requires an administrator credential.
    """
    print(json.dumps(_remote_call(args, "Cluster.Promote", reason=args.reason),
                     indent=2, sort_keys=True))
    return 0


def cmd_cluster_status(args) -> int:
    """Show a node's replication position, role, and lag."""
    print(json.dumps(_remote_call(args, "Replication.Status"), indent=2, sort_keys=True))
    return 0


def cmd_shard_status(args) -> int:
    """Show a node's shard id, installed map version, owned ranges and
    in-flight cross-shard intents. Requires the bank credential or an
    administrator (the same authorization as the replication stream)."""
    print(json.dumps(_remote_call(args, "Shard.Status"), indent=2, sort_keys=True))
    return 0


def cmd_trace(args) -> int:
    """Query the span store a served bank left under ``<home>/spans/``.

    ``show <trace_id>`` renders the waterfall of one trace and joins the
    ledger rows stamped with its TraceID; ``slowest`` and ``grep`` locate
    traces worth showing; ``list`` enumerates known trace IDs.
    """
    from repro.db.query import eq

    bank = _load_bank(Path(args.home))
    spans = bank.spans
    try:
        if args.verb == "show":
            if not args.query:
                print("error: trace show requires a trace id", file=sys.stderr)
                return 1
            records = spans.spans_for_trace(args.query)
            if not records:
                print(f"no spans recorded for trace {args.query!r}", file=sys.stderr)
                return 1
            ledger = []
            for table in ("transactions", "transfers"):
                for row in bank.db.select(table, [eq("TraceID", args.query)]):
                    ledger.append({"_table": table, **row})
            print(render_waterfall(records, ledger))
            return 0
        if args.verb == "slowest":
            records = spans.slowest(limit=args.limit, name=args.query or "")
            for record in records:
                print(
                    f"{record['duration_seconds'] * 1e3:10.2f}ms  "
                    f"{record['trace_id']}  {record['name']:<28} "
                    f"{record['status']}"
                )
            if not records:
                print("(no spans recorded)")
            return 0
        if args.verb == "grep":
            if not args.query:
                print("error: trace grep requires a pattern", file=sys.stderr)
                return 1
            records = spans.grep(args.query, limit=args.limit)
            for record in records:
                print(
                    f"{record['trace_id']}  {record['name']:<28} "
                    f"{record['duration_seconds'] * 1e3:8.2f}ms  {record['status']}"
                )
            if not records:
                print(f"no spans matching {args.query!r}")
            return 0
        # list
        trace_ids = spans.trace_ids()[: args.limit]
        for trace_id in trace_ids:
            print(trace_id)
        if not trace_ids:
            print("(no traces recorded)")
        return 0
    finally:
        bank.db.close()


def cmd_metrics(args) -> int:
    """Dump the observability registry: per-operation request/error
    counters and latency histogram summaries (p50/p95/p99).

    Reads the ``metrics.json`` a previous ``serve`` wrote into the bank
    home; ``--live`` (or a home without one) shows the current process's
    registry instead.
    """
    source = Path(args.home) / _METRICS_FILE
    if not args.live and source.exists():
        data = json.loads(source.read_text())
    else:
        data = obs_metrics.snapshot()
    if getattr(args, "action", None) == "export":
        text = render_prometheus(data, exemplars=getattr(args, "exemplars", False))
        if args.out:
            out = Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(text, encoding="utf-8")
            print(f"wrote {out}")
        else:
            print(text, end="")
        return 0
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(obs_metrics.render_snapshot(data))
    return 0


_STATE_RANK = {"ok": 0, "warning": 1, "page": 2}


def _gather_telemetry(addresses, identity, store, top: int) -> list[dict]:
    """One ``Telemetry.Snapshot`` per node; unreachable nodes become
    ``{"node": address, "error": ...}`` entries instead of failing the
    whole view (an operator runs ``top`` *because* something is wrong)."""
    snapshots = []
    for address in addresses:
        try:
            with _dial(address, identity, store) as client:
                snap = client.call("Telemetry.Snapshot", top=top)
            snap.setdefault("node", address)
            snapshots.append(snap)
        except (ReproError, OSError) as exc:
            snapshots.append({"node": address, "error": f"{type(exc).__name__}: {exc}"})
    return snapshots


def render_top(snapshots: list[dict], top: int = 5) -> str:
    """The ``gridbank top`` screen: per-node roles/lag/SLO state, worst
    burn rates per objective, hottest ops, and top principals."""
    lines = [f"{'NODE':<22} {'ROLE':<8} {'EPOCH':>5} {'SEQ':>8} {'LAG(s)':>8} {'SLO':>8}"]
    reachable = []
    for snap in snapshots:
        if "error" in snap:
            lines.append(f"{snap['node']:<22} unreachable ({snap['error']})")
            continue
        reachable.append(snap)
        worst = "ok"
        for entry in snap.get("slo", {}).values():
            state = str(entry.get("state", "ok"))
            if _STATE_RANK.get(state, 0) > _STATE_RANK[worst]:
                worst = state
        lines.append(
            f"{snap['node']:<22} {snap['role']:<8} {snap['epoch']:>5} "
            f"{snap['seq']:>8} {snap['lag_seconds']:>8.2f} {worst:>8}"
        )

    # a corrupt node is the single most urgent thing this screen can say,
    # but it must not disturb the main table's layout — its own section
    corrupt = [snap for snap in reachable if not snap.get("integrity_ok", True)]
    if corrupt:
        lines.append("")
        lines.append("storage integrity:")
        for snap in corrupt:
            lines.append(f"  {snap['node']:<22} CORRUPT: {snap.get('corruption', '')}")

    burns: dict[str, dict] = {}
    for snap in reachable:
        for op, entry in snap.get("slo", {}).items():
            agg = burns.setdefault(
                op, {"burn_fast": 0.0, "burn_slow": 0.0, "state": "ok"}
            )
            agg["burn_fast"] = max(agg["burn_fast"], float(entry.get("burn_fast", 0.0)))
            agg["burn_slow"] = max(agg["burn_slow"], float(entry.get("burn_slow", 0.0)))
            state = str(entry.get("state", "ok"))
            if _STATE_RANK.get(state, 0) > _STATE_RANK[agg["state"]]:
                agg["state"] = state
    if burns:
        lines.append("")
        lines.append("slo burn rates (worst across nodes):")
        for op in sorted(burns):
            agg = burns[op]
            lines.append(
                f"  {op:<24} fast {agg['burn_fast']:>8.2f}  "
                f"slow {agg['burn_slow']:>8.2f}  [{agg['state']}]"
            )

    # front end: connection/queue pressure per node — the first thing to
    # look at when clients report Overloaded/RateLimited retries
    fronted = [snap for snap in reachable if snap.get("net")]
    if fronted:
        lines.append("")
        lines.append("front end:")
        for snap in fronted:
            net = snap["net"]
            lines.append(
                f"  {snap['node']:<22} {int(net.get('connections_open', 0)):>6} conns  "
                f"queue {int(net.get('dispatch_queue_depth', 0)):>4}  "
                f"shed {int(net.get('overload_rejections', 0)):>6}  "
                f"ratelim {int(net.get('rate_limited', 0)):>6}  "
                f"reaped {int(net.get('idle_reaped', 0)):>5}"
            )

    ops: dict[str, dict] = {}
    for snap in reachable:
        for entry in snap.get("hot_ops", []):
            agg = ops.setdefault(
                entry["op"], {"op": entry["op"], "requests": 0, "errors": 0, "p95_seconds": 0.0}
            )
            agg["requests"] += int(entry.get("requests", 0))
            agg["errors"] += int(entry.get("errors", 0))
            agg["p95_seconds"] = max(agg["p95_seconds"], float(entry.get("p95_seconds", 0.0)))
    hottest = sorted(ops.values(), key=lambda e: (-e["requests"], e["op"]))[:top]
    if hottest:
        lines.append("")
        lines.append("hottest ops:")
        for entry in hottest:
            lines.append(
                f"  {entry['op']:<24} {entry['requests']:>8} req  "
                f"{entry['errors']:>6} err  p95 {entry['p95_seconds'] * 1e3:8.2f}ms"
            )

    # each node meters only what it served (rollups do not replicate), so
    # a principal's cluster usage is the sum over the nodes
    principals: dict[str, dict] = {}
    for snap in reachable:
        for entry in (snap.get("usage", {}) or {}).get("top", []):
            agg = principals.setdefault(
                entry["principal"],
                {"principal": entry["principal"], "ops": 0, "errors": 0,
                 "currency_moved": 0.0},
            )
            agg["ops"] += int(entry.get("ops", 0))
            agg["errors"] += int(entry.get("errors", 0))
            agg["currency_moved"] += float(entry.get("currency_moved", 0.0))
    ranked = sorted(principals.values(), key=lambda e: (-e["ops"], e["principal"]))[:top]
    if ranked:
        lines.append("")
        lines.append("top principals (sum across nodes):")
        for entry in ranked:
            lines.append(
                f"  {entry['principal']:<40} {entry['ops']:>8} ops  "
                f"{entry['errors']:>6} err  G${entry['currency_moved']:.2f} moved"
            )
    return "\n".join(lines)


#: seconds ``gridbank profile`` and ``debug-bundle`` sample each node for
PROFILE_WINDOW_SECONDS = 2.0


def cmd_profile(args) -> int:
    """Render a node's live CPU profile: per-op attribution sampled for
    :data:`PROFILE_WINDOW_SECONDS` plus stripe-lock and WAL-path
    contention tables."""
    from repro.obs.diag import render_profile

    profile = _remote_call(args, "Diag.Profile", top=args.top, seconds=PROFILE_WINDOW_SECONDS)
    if not profile.get("enabled", False) and "ops" not in profile:
        print("diagnosis plane is disabled on this node (serve --no-diag?)",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(profile, indent=2, sort_keys=True))
    else:
        print(render_profile(profile, top=args.top))
    return 0


def _collect_node_diag(address, identity, store, top: int, connect) -> dict:
    with _dial(address, identity, store, connect) as client:
        return {
            "profile": client.call("Diag.Profile", top=top, seconds=PROFILE_WINDOW_SECONDS),
            "flight": client.call("Diag.FlightRecord", limit=256),
            "telemetry": client.call("Telemetry.Snapshot", top=top),
        }


def _gather_debug_bundle(
    addresses, identity, store, out_dir: Path, top: int = 25, connect=None
) -> tuple[dict, Path]:
    """Collect per-node diagnostics into ``out_dir/<node>/`` and tar the
    whole thing. Unreachable nodes land in the manifest's ``errors`` —
    an operator collects a bundle *because* something is wrong, so one
    dead node must not abort the evidence run."""
    import tarfile
    import time as _time

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"collected_epoch": _time.time(), "nodes": [], "errors": []}

    def _write(path: Path, payload) -> None:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")

    for address in addresses:
        try:
            data = _collect_node_diag(address, identity, store, top, connect)
        except (ReproError, OSError) as exc:
            manifest["errors"].append(
                {"node": address, "error": f"{type(exc).__name__}: {exc}"}
            )
            continue
        safe = address.replace(":", "_").replace("/", "_")
        node_dir = out_dir / safe
        node_dir.mkdir(parents=True, exist_ok=True)
        profile, flight, telemetry = data["profile"], data["flight"], data["telemetry"]
        _write(node_dir / "profile.json", profile)
        _write(node_dir / "flightrecord.json", flight)
        _write(node_dir / "metrics.json", flight.get("metrics", {}))
        _write(node_dir / "telemetry.json", telemetry)
        _write(node_dir / "slo.json", telemetry.get("slo", {}))
        with (node_dir / "slow_spans.jsonl").open("w", encoding="utf-8") as fh:
            for record in flight.get("slow_spans", []) or []:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        manifest["nodes"].append(
            {
                "node": address,
                "dir": safe,
                "role": telemetry.get("role", ""),
                "profiler_enabled": bool(profile.get("enabled", False)),
                "profile_samples": int(profile.get("samples", 0) or 0),
                "triggers": len(flight.get("recent_triggers", []) or []),
            }
        )
    _write(out_dir / "manifest.json", manifest)
    tar_path = out_dir.parent / (out_dir.name + ".tar.gz")
    with tarfile.open(tar_path, "w:gz") as tar:
        tar.add(out_dir, arcname=out_dir.name)
    return manifest, tar_path


def cmd_debug_bundle(args) -> int:
    """One tar of everything a post-incident analysis needs, from every
    reachable node: live profile (per-op CPU + contention), flight
    recorder rings, metrics snapshot, SLO state, recent slow traces."""
    identity, store = _load_credential(args.credential)
    manifest, tar_path = _gather_debug_bundle(
        args.address, identity, store, Path(args.out), top=args.top
    )
    for entry in manifest["nodes"]:
        print(f"collected {entry['node']} ({entry['role'] or 'unknown role'}): "
              f"{entry['profile_samples']} profile samples, "
              f"{entry['triggers']} recent trigger(s) -> {entry['dir']}/")
    for entry in manifest["errors"]:
        print(f"unreachable {entry['node']}: {entry['error']}", file=sys.stderr)
    print(f"bundle: {tar_path}")
    return 0 if manifest["nodes"] else 1


def cmd_top(args) -> int:
    """Aggregate ``Telemetry.Snapshot`` across cluster nodes — one pane
    for the whole replicated bank (repeat ``--address`` per node)."""
    import time as _time

    identity, store = _load_credential(args.credential)

    def once() -> str:
        snapshots = _gather_telemetry(args.address, identity, store, args.top)
        return render_top(snapshots, top=args.top)

    if not args.watch:
        print(once())
        return 0
    try:
        while True:
            sys.stdout.write("\x1b[2J\x1b[H" + once() + "\n")
            sys.stdout.flush()
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridbank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **help_kw):
        p = sub.add_parser(name, **help_kw)
        p.add_argument("--home", required=True, help="bank home directory")
        p.set_defaults(fn=fn)
        return p

    p = add("init", cmd_init, help="create a new bank home")
    p.add_argument("--bank-number", type=int, default=1)
    p.add_argument("--branch-number", type=int, default=1)
    p.add_argument("--key-bits", type=int, default=1024)
    p.add_argument("--seed", type=int, default=None, help="deterministic keys (testing)")

    p = add("init-standby", cmd_init_standby,
            help="create a standby home sharing an existing bank's identity")
    p.add_argument("--primary-home", required=True, help="home of the bank to replicate")

    p = add("create-account", cmd_create_account, help="open an account")
    p.add_argument("--subject", required=True, help="certificate name of the owner")
    p.add_argument("--organization", default="")
    p.add_argument("--currency", default="GridDollar")

    for name, fn in (("deposit", cmd_deposit), ("withdraw", cmd_withdraw)):
        p = add(name, fn, help=f"{name} external funds")
        p.add_argument("--account", required=True)
        p.add_argument("--amount", type=float, required=True)

    p = add("transfer", cmd_transfer, help="move funds between accounts")
    p.add_argument("--from-account", required=True)
    p.add_argument("--to-account", required=True)
    p.add_argument("--amount", type=float, required=True)

    p = add("balance", cmd_balance, help="show one account")
    p.add_argument("--account", required=True)

    p = add("statement", cmd_statement, help="account statement")
    p.add_argument("--account", required=True)
    p.add_argument("--start", default=None, help="TIMESTAMP(14), default epoch")
    p.add_argument("--end", default=None, help="TIMESTAMP(14), default now")

    add("accounts", cmd_accounts, help="list all accounts")

    p = add("add-admin", cmd_add_admin, help="grant administrator privilege")
    p.add_argument("--subject", required=True)

    add("checkpoint", cmd_checkpoint, help="compact the journal")

    p = add("fsck", cmd_fsck,
            help="verify WAL/snapshot integrity; --repair restores from a peer")
    p.add_argument("--repair", action="store_true",
                   help="repair detected corruption from a healthy peer")
    p.add_argument("--peer", default=None, metavar="HOST:PORT",
                   help="healthy cluster primary to fetch verified bytes from")

    p = add("serve", cmd_serve, help="serve the bank over TCP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--duration", type=float, default=None, help="seconds to run (default: forever)")
    p.add_argument("--metrics-port", type=int, default=None,
                   help="serve Prometheus text on this localhost port (0 = ephemeral)")
    p.add_argument("--metrics-textfile", default=None,
                   help="rewrite a Prometheus textfile at this path every interval")
    p.add_argument("--metrics-interval", type=float, default=5.0,
                   help="textfile rewrite interval in seconds")
    p.add_argument("--standby-of", default=None, metavar="HOST:PORT",
                   help="serve as a hot standby replicating from this primary")
    p.add_argument("--advertise", default=None, metavar="HOST:PORT",
                   help="address other nodes/clients should use to reach this node "
                        "(default: the bound host:port)")
    p.add_argument("--peer", action="append", default=None, metavar="SUBJECT",
                   help="certificate subject allowed to use the replication stream "
                        "(repeatable; administrators are always allowed)")
    p.add_argument("--auto-promote", action="store_true",
                   help="standby promotes itself when the primary lease expires")
    p.add_argument("--lease-timeout", type=float, default=None,
                   help="seconds of primary silence before the lease is considered lost")
    p.add_argument("--staleness-bound", type=float, default=None,
                   help="refuse standby reads older than this many seconds")
    p.add_argument("--slo-target", type=float, default=None,
                   help="availability target for the catch-all SLO (default 0.999)")
    p.add_argument("--slo-latency", type=float, default=None,
                   help="latency threshold in seconds for the catch-all SLO (default 0.5)")
    p.add_argument("--scrub-interval", type=float, default=None, metavar="SECONDS",
                   help="background-scrub the WAL/snapshot every this many seconds "
                        "(re-verifies every CRC; corruption triggers a replica-backed "
                        "repair when a peer is known)")
    p.add_argument("--diag-dir", default=None, metavar="DIR",
                   help="directory for flight-recorder post-mortem dumps "
                        "(default: HOME/diag)")
    p.add_argument("--no-diag", action="store_true",
                   help="disable the diagnosis plane entirely (Diag RPCs, "
                        "flight recorder, exemplars)")
    p.add_argument("--backend", choices=["threads", "async"], default="threads",
                   help="front-end concurrency model: thread-per-connection "
                        "or one event loop for all sockets (default: threads)")
    p.add_argument("--workers", type=int, default=None,
                   help="async backend: dispatch worker-pool size (default 4); "
                        "the threads backend dispatches on each connection's thread")
    p.add_argument("--max-connections", type=int, default=None,
                   help="admission control: accepts past this cap are shed "
                        "at the door (default: unbounded)")
    p.add_argument("--dispatch-queue", type=int, default=256,
                   help="async backend: bound on unwrapped-but-undispatched "
                        "requests; when full requests are answered with a "
                        "retryable Overloaded error")
    p.add_argument("--rate-limit", type=float, default=None, metavar="REQ_PER_SEC",
                   help="async backend: per-principal token-bucket rate "
                        "limit (default: unlimited)")
    p.add_argument("--handshake-timeout", type=float, default=5.0,
                   help="async backend: budget for unauthenticated reads and "
                        "for finishing any started frame (slow-loris reaping)")
    p.add_argument("--idle-timeout", type=float, default=None,
                   help="seconds of silence between frames before an "
                        "established connection is reaped (default: never)")
    p.add_argument("--shard-id", default=None, metavar="SHARD",
                   help="serve as this shard of a sharded deployment "
                        "(registers the Shard.* plane; see --shard-map)")
    p.add_argument("--shard-map", default=None, metavar="FILE",
                   help="JSON shard map to install at boot when newer than "
                        "the durably installed one (primary only)")
    p.add_argument("--resolve-interval", type=float, default=5.0,
                   help="seconds between background sweeps that re-drive "
                        "prepared cross-shard transfer intents")

    p = add("metrics", cmd_metrics, help="dump recorded metrics (text, JSON, or Prometheus)")
    p.add_argument("action", nargs="?", choices=["export"],
                   help="'export' renders Prometheus text instead of the human dump")
    p.add_argument("--json", action="store_true", help="machine-readable JSON dump")
    p.add_argument("--live", action="store_true",
                   help="show this process's registry, ignoring metrics.json")
    p.add_argument("--out", default=None, help="write Prometheus text here instead of stdout")
    p.add_argument("--exemplars", action="store_true",
                   help="attach trace-id exemplars to exported histogram buckets")

    p = add("trace", cmd_trace, help="query the durable span store")
    p.add_argument("verb", choices=["show", "grep", "slowest", "list"])
    p.add_argument("query", nargs="?", default=None,
                   help="trace id (show), pattern (grep), or name prefix (slowest)")
    p.add_argument("-n", "--limit", type=int, default=10, help="result cap for grep/slowest/list")

    p = add("issue-identity", cmd_issue_identity, help="enroll a user credential")
    p.add_argument("--organization", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--out", required=True, help="credential file to write")
    p.add_argument("--key-bits", type=int, default=1024)
    p.add_argument("--lifetime-days", type=float, default=365.0)

    def add_remote(name, fn, **help_kw):
        p = sub.add_parser(name, **help_kw)
        p.add_argument("--credential", required=True, help="credential file from issue-identity")
        p.add_argument("--address", required=True, help="host:port of a served bank")
        p.set_defaults(fn=fn)
        return p

    p = add_remote("remote-create-account", cmd_remote_create_account,
                   help="open an account over TCP")
    p.add_argument("--organization", default="")

    p = add_remote("remote-balance", cmd_remote_balance, help="check a balance over TCP")
    p.add_argument("--account", required=True)

    p = add_remote("remote-transfer", cmd_remote_transfer, help="pay over TCP")
    p.add_argument("--from-account", required=True)
    p.add_argument("--to-account", required=True)
    p.add_argument("--amount", type=float, required=True)

    p = add_remote("promote", cmd_promote,
                   help="promote a standby to primary (controlled failover)")
    p.add_argument("--reason", default="operator")

    add_remote("cluster-status", cmd_cluster_status,
               help="show a node's replication position and role")

    add_remote("shard-status", cmd_shard_status,
               help="show a node's shard id, installed map version, owned "
                    "ranges/accounts and prepared cross-shard intents")

    p = add_remote("profile", cmd_profile,
                   help="live CPU profile of a node: per-op attribution, "
                        "hot stacks, lock/WAL contention")
    p.add_argument("--top", type=int, default=10, help="rows per section")
    p.add_argument("--json", action="store_true", help="raw snapshot as JSON")

    p = sub.add_parser("debug-bundle",
                       help="collect profiles, flight-recorder rings, metrics "
                            "and SLO state from every node into one tarball")
    p.add_argument("--credential", required=True, help="credential file from issue-identity")
    p.add_argument("--address", action="append", required=True, metavar="HOST:PORT",
                   help="node to include (repeat per cluster node)")
    p.add_argument("--out", default="debug-bundle",
                   help="output directory (a sibling .tar.gz is also written)")
    p.add_argument("--top", type=int, default=25, help="profile rows per node")
    p.set_defaults(fn=cmd_debug_bundle)

    p = sub.add_parser("top", help="cluster-wide telemetry: per-node SLO state, "
                                   "replication lag, hottest ops and principals")
    p.add_argument("--credential", required=True, help="credential file from issue-identity")
    p.add_argument("--address", action="append", required=True, metavar="HOST:PORT",
                   help="node to include (repeat per cluster node)")
    p.add_argument("--top", type=int, default=5, help="rows per section")
    p.add_argument("--watch", action="store_true", help="refresh until interrupted")
    p.add_argument("--interval", type=float, default=2.0, help="refresh interval seconds")
    p.set_defaults(fn=cmd_top)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    configure_from_env()  # GRIDBANK_LOG_LEVEL / GRIDBANK_LOG_FORMAT=json
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CorruptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "storage failed verification — run `gridbank fsck` "
            "(--repair --peer HOST:PORT to restore from a healthy peer)",
            file=sys.stderr,
        )
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: bank home not initialized ({exc})", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream closed the pipe (e.g. `gridbank metrics | head`);
        # detach stdout so interpreter shutdown doesn't traceback on flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
