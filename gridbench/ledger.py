"""The outside-in layer ledger (``--trace 1``).

Replays the first N generated ops of a workload **in-process** — the same
workload code and client stack as the served run, but over a
benchmark-owned connection object that calls the handler's public
``prepare`` / ``complete`` / ``seal`` — and records a span around every
call into a layer's public functions. Nothing under ``src/`` is edited:
the spans are wrappers this file installs (instance attributes on the
bank's layer objects, class attributes on ``SecurityContext``, the
``canonical_dumps``/``sign``/… names in the ``repro`` modules that imported
them, a ``GridBankServer`` subclass that wraps the bare ``op_*`` handlers
before the dispatch stack closes over them) and removes again.

Three passes over one loaded world, same ops each time:

A. untraced, no span sinks        -> ``ledger.inproc_call_us``
B. traced (wrappers recording)    -> every layer row; B - A is the tracing overhead
C. untraced, ``serve``'s default sinks (sampling sink -> SPAN table, diagnosis
   plane at 25 Hz, exemplars)     -> ``obs.cost_us`` = C - A, ``obs.span_rows_per_op``

A layer row is the **mean self time per op** (its spans' duration minus the
part their child spans cover), so the leaf layers plus the RPC glue sum
exactly to the mean call. See README "How to read ``ledger.*``".
"""

from __future__ import annotations

import contextlib
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from repro.bank.cluster import ClusterNode
from repro.bank.server import GridBankServer
from repro.bank.shard import ShardNode
from repro.cli import _bank_credential
from repro.crypto import signature as crypto_signature
from repro.db import database as db_database
from repro.db.database import Database
from repro.errors import TransportError
from repro.gsi.context import SecurityContext
from repro.net.message import frame, unframe_stream
from repro.net.rpc import RequestContext, request_scope
from repro.net.tcp import TCPClientConnection
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.diag import DiagPlane
from repro.obs.sampling import SamplingPolicy, SamplingSpanSink
from repro.util import serialize
from repro.util.gbtime import SystemClock
from repro.util.money import Credits

import harness
import workloads

HERE = Path(__file__).resolve().parent
clock = time.perf_counter

#: leaf layers: their self times are what ``ledger.sum_us`` adds up
LEAVES = (
    "gsi.wrap", "gsi.unwrap", "gsi.handshake", "serialize.dumps", "serialize.loads",
    "bank.server.guards", "bank.server.op", "bank.replies.store", "bank.accounts.txn",
    "payments.sign", "payments.verify", "db.commit", "db.wal_flush",
    "bank.shard.guard", "bank.shard.leg",
)
PHASES = ("rpc.prepare", "rpc.complete", "rpc.seal")


class Tracer:
    """In-memory span stack; folds each finished span into per-name self
    and inclusive seconds, handed out per op by :meth:`take`."""

    def __init__(self) -> None:
        self.enabled = False
        self._stack: list[list] = []          # [name, started, child_seconds]
        self._opaque = 0                      # inside a span that hides its children
        self.self_s: dict = defaultdict(float)
        self.incl_s: dict = defaultdict(float)

    def begin(self, name: str) -> None:
        self._stack.append([name, clock(), 0.0])

    def end(self) -> None:
        name, started, children = self._stack.pop()
        spent = clock() - started
        self.self_s[name] += spent - children
        self.incl_s[name] += spent
        if self._stack:
            self._stack[-1][2] += spent

    def span(self, name: str | None):
        """Context manager form; a no-op while disabled or without a name."""
        return _Span(self, name) if self.enabled and name else _NO_SPAN

    def leaf(self, name: str, seconds: float) -> None:
        """A child span reported by a hook as a bare duration."""
        self.self_s[name] += seconds
        self.incl_s[name] += seconds
        if self._stack:
            self._stack[-1][2] += seconds

    def take(self) -> tuple[dict, dict]:
        taken = (dict(self.self_s), dict(self.incl_s))
        self.self_s.clear()
        self.incl_s.clear()
        return taken

    def wrap(self, name: str, fn, opaque: bool = False):
        """*fn* under a span called *name*; with *opaque*, spans opened
        inside it are not recorded (the GSI handshake keeps its RSA work)."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled or tracer._opaque:
                return fn(*args, **kwargs)
            tracer.begin(name)
            tracer._opaque += opaque
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._opaque -= opaque
                tracer.end()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


class _Span:
    __slots__ = ("_tracer", "_name")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer, self._name = tracer, name

    def __enter__(self) -> None:
        self._tracer.begin(self._name)

    def __exit__(self, *exc_info) -> None:
        self._tracer.end()


_NO_SPAN = contextlib.nullcontext()


class Patches:
    """Attribute replacements that :meth:`restore` undoes, newest first."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def set(self, owner, name: str, value) -> None:
        own = name in vars(owner)
        self._undo.append((owner, name, own, vars(owner).get(name)))
        setattr(owner, name, value)

    def everywhere(self, fn, replacement) -> None:
        """Rebind every ``repro`` module global that is *fn* (``from x
        import fn`` copies the name, so the defining module is not enough)."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, key, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, name, own, old = self._undo.pop()
            if own:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


class TracedBank(GridBankServer):
    """Wraps every bare ``op_*`` handler in a ``bank.server.op`` span
    *before* ``_register_operations`` builds the guard stack around it, and
    the registered operations in ``bank.server.guards`` after."""

    def __init__(self, tracer: Tracer, *args, **kwargs) -> None:
        self.tracer = tracer  # _register_operations runs inside the base __init__
        super().__init__(*args, **kwargs)

    def _register_operations(self) -> None:
        for name in dir(self):
            if name.startswith("op_"):
                setattr(self, name, self.tracer.wrap("bank.server.op", getattr(self, name)))
        super()._register_operations()
        operations = self.endpoint.operations
        for method in list(operations):
            operations[method] = self.tracer.wrap("bank.server.guards", operations[method])


class _TimedExit:
    """``db.transaction()`` whose exit (the commit) is a ``db.commit`` span."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner, self._tracer = inner, tracer

    def __enter__(self):
        return self._inner.__enter__()

    def __exit__(self, *exc_info):
        with self._tracer.span("db.commit"):
            return self._inner.__exit__(*exc_info)


def load_bank(home: Path, tracer: Tracer) -> tuple[TracedBank, float, int]:
    """What ``repro.cli._load_bank`` does, with the traced subclass; also
    returns the recovery time and the number of journal records replayed."""
    identity, store = _bank_credential(home)
    bank = TracedBank(tracer, identity, store, db=Database(path=home / "db"), clock=SystemClock())
    started = clock()
    replayed = bank.recover()
    seconds = clock() - started
    for name in ("transfer", "transfer_from_locked", "lock_funds", "unlock_funds"):
        setattr(bank.accounts, name, tracer.wrap("bank.accounts.txn", getattr(bank.accounts, name)))
    bank.replies.store = tracer.wrap("bank.replies.store", bank.replies.store)
    transaction = bank.db.transaction
    bank.db.transaction = lambda: _TimedExit(transaction(), tracer)
    return bank, seconds, replayed


class Meter:
    """Messages, bytes and seconds through one class of connection."""

    def __init__(self) -> None:
        self.msgs = 0
        self.req_bytes = 0
        self.resp_bytes = 0
        self.seconds = 0.0
        self.frames: list[tuple[bytes, bytes]] | None = None  # captured when a list


#: span names of a connection: (whole message, prepare, complete, seal)
CLIENT_SPANS = (None, *PHASES)
PEER_SPANS = ("bank.shard.leg", None, None, None)  # a 2PC leg is one span


class LoopConnection:
    """The benchmark's own transport: ``request(bytes) -> bytes`` straight
    into a connection handler's three public phases."""

    healthy = True

    def __init__(self, handler, tracer: Tracer, meter: Meter, spans: tuple) -> None:
        self._handler, self._tracer, self._meter, self._spans = handler, tracer, meter, spans

    def request(self, payload: bytes) -> bytes:
        tracer, meter, handler = self._tracer, self._meter, self._handler
        whole, prepare, complete, seal = self._spans
        started = clock()
        with tracer.span(whole):
            with tracer.span(prepare):
                kind, value = handler.prepare(payload)
            if kind == "call":
                with tracer.span(complete):
                    response = handler.complete(value)
                with tracer.span(seal):
                    value = handler.seal(response)
        if value is None:
            raise TransportError("service closed the connection")
        meter.msgs += 1
        meter.req_bytes += len(payload)
        meter.resp_bytes += len(value)
        meter.seconds += clock() - started
        if meter.frames is not None:
            meter.frames.append((payload, value))
        return value

    def close(self) -> None:
        self._handler.close()


class World:
    """The workload's template home(s), loaded in this process."""

    def __init__(self, inputs, work: harness.Workdir, tracer: Tracer) -> None:
        self.tracer = tracer
        self.client, self.peer = Meter(), Meter()
        self.banks, self.nodes, self.shards = {}, [], []
        self.addresses = {}
        self.recover_seconds = self.recovered = 0
        for sid, template in inputs.homes.items():
            home = work.path / f"ledger-{sid}"
            shutil.copytree(template, home)
            bank, seconds, replayed = load_bank(home, tracer)
            self.banks[sid] = bank
            self.recover_seconds += seconds
            self.recovered += replayed
            self.addresses[sid] = f"{harness.HOST}:{inputs.ports.get(sid, 0) or 1}"
        self._by_address = {address: sid for sid, address in self.addresses.items()}
        if inputs.shard_map is not None:
            for sid, bank in self.banks.items():
                node = ClusterNode(bank, self.addresses[sid], self.connect_peer)
                shard = ShardNode(node, sid)  # the map is already durably installed
                shard.guard = tracer.wrap("bank.shard.guard", shard.guard)
                shard.wants = tracer.wrap("bank.shard.guard", shard.wants)
                self.nodes.append(node)
                self.shards.append(shard)

    def _connect(self, address: str, meter: Meter, spans: tuple) -> LoopConnection:
        bank = self.banks[self._by_address[address]]
        return LoopConnection(bank.connection_handler(), self.tracer, meter, spans)

    def connect(self, address: str) -> LoopConnection:
        return self._connect(address, self.client, CLIENT_SPANS)

    def connect_peer(self, address: str) -> LoopConnection:
        return self._connect(address, self.peer, PEER_SPANS)

    def close(self) -> None:
        for shard in self.shards:
            shard.close()
        for node in self.nodes:
            node.close()
        for bank in self.banks.values():
            bank.db.close()


def _install_global_spans(tracer: Tracer, patches: Patches) -> None:
    patches.set(SecurityContext, "wrap", tracer.wrap("gsi.wrap", SecurityContext.wrap))
    patches.set(SecurityContext, "unwrap", tracer.wrap("gsi.unwrap", SecurityContext.unwrap))
    patches.set(SecurityContext, "step", tracer.wrap("gsi.handshake", SecurityContext.step, opaque=True))
    patches.everywhere(serialize.canonical_dumps, tracer.wrap("serialize.dumps", serialize.canonical_dumps))
    patches.everywhere(serialize.canonical_loads, tracer.wrap("serialize.loads", serialize.canonical_loads))
    patches.everywhere(crypto_signature.sign, tracer.wrap("payments.sign", crypto_signature.sign))
    patches.everywhere(crypto_signature.verify, tracer.wrap("payments.verify", crypto_signature.verify))


def _replay(workload, inputs, ops: list, tracer: Tracer) -> tuple[list, list]:
    """Run *ops* one after another; per-op seconds and (while tracing) span folds."""
    tally = workloads.Tally()
    seconds, folds = [], []
    for op in ops:
        started = clock()
        with tracer.span("call"):
            done = workload.execute(inputs, op, tally)
        seconds.append(clock() - started)
        folds.append(tracer.take())
        if done is None:
            raise harness.BenchError(f"in-process replay of {op} failed: {tally.errors}")
    return seconds, folds


def _hit_us(bank: TracedBank, inputs, rounds: int = 40) -> float:
    """Resend of a used idempotency key: the reply-cache hit path."""
    drawer = (inputs.by_shard.get("s1") or inputs.drawers)[0]
    recipient = (inputs.by_shard.get("s1") or inputs.recipients)[-1]
    params = {"from_account": drawer, "to_account": recipient, "amount": Credits(1)}
    operation = bank.endpoint.operations["RequestDirectTransfer"]
    subject = inputs.consumer_subject
    hits = []
    for index in range(rounds):
        context = RequestContext(
            method="RequestDirectTransfer", subject=subject, idempotency_key=f"gridbench-hit:{index}"
        )
        with request_scope(context):
            first = operation(subject, dict(params))
            started = clock()
            again = operation(subject, dict(params))
            hits.append(clock() - started)
        if again != first:
            raise harness.BenchError("reply-cache resend returned a different confirmation")
    return statistics.median(hits) * 1e6


def _frame_us(frames: list[tuple[bytes, bytes]]) -> float:
    """``message.frame`` + ``unframe_stream`` on the ops' real sealed bytes,
    both directions, mean per message."""
    started = clock()
    for pair in frames:
        for payload in pair:
            wire = frame(payload)
            cursor = [0]

            def read(n: int, wire=wire, cursor=cursor) -> bytes:
                chunk = wire[cursor[0]: cursor[0] + n]
                cursor[0] += n
                return chunk

            if next(unframe_stream(read)) != payload:
                raise harness.BenchError("frame/unframe round trip changed the payload")
    return (clock() - started) * 1e6 / max(len(frames), 1)


def _tcp_rtt_us(work: harness.Workdir, req_bytes: int, resp_bytes: int, rounds: int = 400) -> float:
    """Same-size echo through the default TCP server in a child process."""
    port = harness.free_port()
    child = work.server(work.path, port, argv=(
        str(HERE / "echo.py"), "--port", str(port), "--reply-bytes", str(resp_bytes),
    )).start()
    try:
        child.wait_listening()
        connection = TCPClientConnection((harness.HOST, port))
        try:
            payload = bytes(req_bytes)
            samples = []
            for index in range(rounds + 50):
                started = clock()
                connection.request(payload)
                if index >= 50:
                    samples.append(clock() - started)
        finally:
            connection.close()
    finally:
        child.kill()
    return statistics.median(samples) * 1e6


def run(served, inputs, seed: int, work: harness.Workdir, count: int, solo_p50_us: float) -> dict:
    """The traced pass for one workload; returns the ledger's metric rows."""
    tracer, patches = Tracer(), Patches()
    workload = type(served)()
    world = World(inputs, work, tracer)
    _install_global_spans(tracer, patches)
    try:
        workload.dial = world.connect
        workload.connect(inputs, world.addresses, seed)
        stream = workload.ops(inputs, seed, "c0")
        ops = [next(stream) for _ in range(count)]
        warm = workload.ops(inputs, seed, "warm")
        _replay(workload, inputs, [next(warm) for _ in range(min(50, count))], tracer)

        untraced, _ = _replay(workload, inputs, ops, tracer)                     # pass A

        world.client.frames = []
        msgs_before = world.client.msgs
        peer_before = (world.peer.msgs, world.peer.req_bytes + world.peer.resp_bytes, world.peer.seconds)
        db_database.set_wal_wait_hook(
            lambda kind, seconds, batch=0: tracer.leaf("db.wal_flush", seconds) if kind == "flush" else None
        )
        tracer.enabled = True
        try:
            traced, folds = _replay(workload, inputs, ops, tracer)            # pass B
        finally:
            tracer.enabled = False
            db_database.set_wal_wait_hook(None)
        frames, world.client.frames = world.client.frames, None
        round_trips = (world.client.msgs - msgs_before) / count
        peer_msgs = world.peer.msgs - peer_before[0]
        peer_bytes = world.peer.req_bytes + world.peer.resp_bytes - peer_before[1]
        peer_seconds = world.peer.seconds - peer_before[2]

        bank = next(iter(world.banks.values()))
        # what `gridbank serve` installs by default; span sinks are process-wide,
        # so one store receives the spans of every in-process bank exactly once
        span_rows = len(bank.spans)

        def served_spans(record: dict) -> None:
            # the load generator shares this process; a served bank never sees its root spans
            if record["name"] != "rpc.call" or record["parent_id"]:
                bank.spans(record)

        sink = obs_trace.add_sink(SamplingSpanSink(served_spans, SamplingPolicy()))
        plane = DiagPlane(profile_hz=25.0, dump_dir=work.subdir("ledger-diag"), clock=bank.clock).start()
        obs_metrics.configure_exemplars(True)
        try:
            with_obs, _ = _replay(workload, inputs, ops, tracer)                 # pass C
        finally:
            obs_metrics.configure_exemplars(False)
            plane.stop()
            obs_trace.remove_sink(sink)
        bank.spans.flush()
        span_rows = len(bank.spans) - span_rows

        hit_us = _hit_us(bank, inputs)
        frame_us = _frame_us(frames)
    finally:
        workload.close()
        world.close()
        patches.restore()

    req_bytes = statistics.median(len(req) for req, _resp in frames)
    resp_bytes = statistics.median(len(resp) for _req, resp in frames)
    rtt_us = _tcp_rtt_us(work, int(req_bytes), int(resp_bytes))

    def mean_us(values) -> float:
        return statistics.fmean(values) * 1e6

    self_us = {name: mean_us([fold[0].get(name, 0.0) for fold in folds]) for name in LEAVES}
    incl_us = {name: mean_us([fold[1].get(name, 0.0) for fold in folds]) for name in PHASES + ("bank.server.op",)}
    call_us = mean_us(traced)
    sum_us = sum(self_us[name] for name in LEAVES)
    inproc_us = statistics.median(untraced) * 1e6
    # paired per op (same op, same order in both passes): robust on mixed workloads
    obs_cost_us = statistics.median(c - a for c, a in zip(with_obs, untraced)) * 1e6

    cross = sum(1 for op in ops if op[0] == "cross")
    rows = {
        "ledger.inproc_call_us": inproc_us,
        "ledger.sum_us": sum_us,
        "ledger.unattributed_share": 1.0 - sum_us / call_us,
        "ledger.op_unattributed_share": (
            self_us["bank.server.op"] / incl_us["bank.server.op"] if incl_us["bank.server.op"] else 0.0
        ),
        "ledger.trace_overhead_share": (call_us - mean_us(untraced)) / mean_us(untraced),
        "ledger.tcp_gap_us": solo_p50_us - inproc_us - rtt_us * round_trips - obs_cost_us,
        "net.frame_us": frame_us,
        "net.tcp_rtt_us": rtt_us,
        "net.req_bytes": float(req_bytes),
        "net.resp_bytes": float(resp_bytes),
        "rpc.client_us": call_us - sum(incl_us[name] for name in PHASES),
        "rpc.prepare_us": incl_us["rpc.prepare"],
        "rpc.complete_us": incl_us["rpc.complete"],
        "rpc.seal_us": incl_us["rpc.seal"],
        "gsi.wrap_us": self_us["gsi.wrap"],
        "gsi.unwrap_us": self_us["gsi.unwrap"],
        "gsi.handshake_ms": self_us["gsi.handshake"] / 1e3,
        "serialize.dumps_us": self_us["serialize.dumps"],
        "serialize.loads_us": self_us["serialize.loads"],
        "bank.server.guards_us": self_us["bank.server.guards"],
        "bank.server.op_us": self_us["bank.server.op"],
        "bank.replies.store_us": self_us["bank.replies.store"],
        "bank.replies.hit_us": hit_us,
        "bank.accounts.txn_us": self_us["bank.accounts.txn"],
        "payments.sign_us": self_us["payments.sign"],
        "payments.verify_us": self_us["payments.verify"],
        "db.commit_us": self_us["db.commit"],
        "db.wal_flush_us": self_us["db.wal_flush"],
        "db.recover_ms_per_krec": world.recover_seconds * 1e3 / max(world.recovered / 1e3, 1e-9),
        "obs.cost_us": obs_cost_us,
        "obs.span_rows_per_op": span_rows / count,
        "bank.shard.guard_us": self_us["bank.shard.guard"],
        "bank.shard.xfer_msgs": peer_msgs / cross if cross else 0.0,
        "bank.shard.xfer_bytes": peer_bytes / cross if cross else 0.0,
        "bank.shard.leg_us": peer_seconds * 1e6 / peer_msgs if peer_msgs else 0.0,
    }
    return rows
