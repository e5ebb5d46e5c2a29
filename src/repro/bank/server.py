"""The GridBank server — Figure 3's three layers wired together.

Security Layer: GSI handshake + the accounts-or-administrators
connection policy (:mod:`repro.bank.security`). Payment Protocol Layer:
GridCheque, GridHash and direct-transfer modules (:mod:`repro.payments`).
Accounts Layer: :class:`~repro.bank.accounts.GBAccounts` and
:class:`~repro.bank.admin.GBAdmin` over the relational database.

Every sec 5.2 / 5.2.1 API operation is exposed as a named RPC operation;
the authenticated certificate subject is the caller identity for all
ownership and privilege checks. Instruments and confirmations cross the
wire as their ``to_dict()`` forms (canonically serializable).

``open_enrollment`` controls the connection policy: the paper's strict
rule refuses any subject without an account, but then nobody could ever
open one — with enrollment on (default), authenticated-but-unknown
subjects may connect and call ``CreateAccount`` only.
"""

from __future__ import annotations

import contextlib
import functools
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.bank.accounts import GBAccounts
from repro.bank.admin import GBAdmin
from repro.bank.pricing import PriceEstimator, ResourceDescription
from repro.bank.records import shard_meta_schema, xfer_intent_schema
from repro.bank.replies import ReplyCache
from repro.bank.security import bank_authorization_policy
from repro.db.database import Database
from repro.errors import (
    AuthorizationError,
    NotPrimaryError,
    ReplicaStaleError,
    ReproError,
    ValidationError,
)
from repro.gsi.authorization import CallbackPolicy
from repro.net.rpc import Operation, ServiceEndpoint, current_request
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.logging import get_logger
from repro.obs.slo import SLOEngine, default_bank_objectives
from repro.obs.store import SpanStore
from repro.obs.usage import UsageMeter
from repro.payments.cheque import GridCheque, GridChequeProtocol
from repro.payments.direct import DirectTransferProtocol
from repro.payments.hashchain import GridHashCommitment, GridHashProtocol, PaymentTick
from repro.payments.instruments import InstrumentRegistry
from repro.pki.ca import Identity
from repro.pki.validation import CertificateStore
from repro.util.gbtime import Clock, SystemClock, Timestamp
from repro.util.money import Credits

__all__ = ["GridBankServer", "Op", "READ", "PRIMARY", "WRITE"]

_log = get_logger("bank.server")

# what a request without an idempotency key holds instead of a key lock
_UNLOCKED = contextlib.nullcontext()

#: The three row kinds. A ``read`` is served by any node inside the
#: staleness bound, and re-executing it is harmless. A ``write`` is served
#: by the primary only and its effects apply at most once: they commit in
#: one WAL line with the reply row a re-sent key replays. ``primary`` is
#: the plumbing between them: verbs only the primary may answer (the
#: replication stream, the rebalance steps) that are idempotent by their
#: own construction, so they take no reply row. There is no fourth kind:
#: a deduplicated op that a standby serves cannot be written down.
READ, PRIMARY, WRITE = "read", "primary", "write"


def _anyone(subject: str) -> None:
    """The ``anyone`` access check: whoever the connection policy let in."""


# -- the ``moved`` column: GridCurrency one successful call moved ----------------


def _paid(params: dict, result):
    return result["paid"]


def _stated_amount(params: dict, result):
    return params["amount"]


def _transferred(params: dict, result):
    # the confirmation is a Signed envelope: the amount sits in its payload
    return result["confirmation"]["payload"]["amount"]


def _batch_paid(params: dict, result):
    return sum((entry["paid"] for entry in result if entry["ok"]), Credits(0))


@dataclass(frozen=True)
class Op:
    """What one wire operation *is* — a row of the bank's op table.

    Built by :meth:`GridBankServer.register`; everything
    :meth:`GridBankServer.dispatch` decides, it decides from these fields.
    """

    method: str  #: wire name (sec 5.2 / 5.2.1, or an extension's)
    handler: Operation  #: the layer code, ``(subject, params) -> result``
    name: str  #: metric/span/SLO stem: the handler's name minus ``op_``
    span_name: str
    kind: str  #: :data:`READ`, :data:`PRIMARY` or :data:`WRITE`
    #: Who may call: one of the bank's four named checks (``bank.access``),
    #: ``(subject) -> None`` raising :class:`AuthorizationError`. Decided
    #: from the subject alone; checks that need the row (does the caller
    #: own this account?) stay in the handler, where the row is read.
    access: Callable[[str], None]
    #: Accounts whose stripes the op holds (exclusive when mutating,
    #: shared otherwise). Best-effort on malformed input; None = no locks.
    accounts_of: Optional[Callable[[dict], tuple]]
    #: Accounts the shard guard checks. ``RequestDirectTransfer`` guards
    #: the drawer only: the coordinator of a cross-shard transfer IS the
    #: drawer's shard, and the recipient is reached through ``Shard.Apply``.
    guard_accounts: Optional[Callable[[dict], tuple]]
    staleness_exempt: bool  #: a read that answers on a standby at any lag
    #: The reply key, for a mutating op that dedups on something other
    #: than the request's idempotency key (``Shard.Apply``: the intent).
    reply_key: Optional[Callable[[dict], str]]
    #: GridCurrency one successful call moved, ``(params, result) ->
    #: amount``, for the caller's usage sample; None on rows that move none.
    moved: Optional[Callable[[dict, Any], Any]]
    #: Principal workload: sampled by the SLO engine and the usage meter,
    #: listed among the hot ops, its spans stored. False for the traffic
    #: nodes and operators generate themselves (replication polls,
    #: telemetry scrapes, rebalance verbs), which runs at whatever cadence
    #: the topology needs and would poison the latency objective.
    tracked: bool
    requests: obs_metrics.Counter
    errors: obs_metrics.Counter
    latency: obs_metrics.Histogram
    dedup_hits: obs_metrics.Counter
    rejections: obs_metrics.Counter

    @property
    def mutating(self) -> bool:
        """Effects apply at most once, through the durable reply cache."""
        return self.kind == WRITE


class GridBankServer:
    def __init__(
        self,
        identity: Identity,
        trust_store: CertificateStore,
        db: Optional[Database] = None,
        clock: Optional[Clock] = None,
        rng: Optional[random.Random] = None,
        bank_number: int = 1,
        branch_number: int = 1,
        open_enrollment: bool = True,
    ) -> None:
        self.identity = identity
        self.clock = clock if clock is not None else SystemClock()
        self.db = db if db is not None else Database()
        self.bank_number = bank_number
        self.branch_number = branch_number

        self.accounts = GBAccounts(
            self.db, clock=self.clock, bank_number=bank_number, branch_number=branch_number
        )
        self.admin = GBAdmin(self.accounts)
        self.replies = ReplyCache(self.db, self.clock)
        # sharding tables (cross-shard 2PC intents + the installed shard
        # map) exist on every bank, sharded or not, and must be created
        # before recover() replays the journal
        for schema_fn in (xfer_intent_schema, shard_meta_schema):
            schema = schema_fn()
            if schema.name not in self.db.table_names():
                self.db.create_table(schema)
        # attached by repro.bank.shard.ShardNode when this bank serves one
        # shard of a sharded deployment; None means "owns the whole ring"
        self.shard = None
        # spans and usage rollups are telemetry, not ledger: each a segment
        # ring beside the database directory (<home>/spans/<db dir name>/
        # and <home>/usage/<db dir name>/, so two databases under one
        # parent stay apart), in memory for an in-memory bank. The span
        # store is NOT auto-registered as a trace sink — callers that want
        # stored spans install it (the serve CLI does), so several banks
        # in one process don't capture each other's traces.
        path = self.db.path

        def beside(kind: str):
            return path.parent / kind / path.name if path is not None else None

        self.spans = SpanStore(beside("spans"))
        self.registry = InstrumentRegistry(self.db, self.clock)
        subject = identity.subject
        key = identity.private_key
        self.cheques = GridChequeProtocol(self.accounts, self.registry, key, subject, self.clock)
        self.hashchains = GridHashProtocol(self.accounts, self.registry, key, subject, self.clock)
        self.direct = DirectTransferProtocol(self.accounts, key, subject, self.clock)
        self.pricing = PriceEstimator()
        # pay-before-use confirmations awaiting pickup, keyed by GSP URL
        self._confirmation_inboxes: dict[str, list[dict]] = {}
        self._inbox_lock = threading.Lock()
        # the bank shares the accounts layer's striped locks so both
        # layers' holds are re-entrant within one operation
        self.locks = self.accounts.locks
        # per-idempotency-key in-flight locks: two concurrent requests
        # carrying the SAME key (a client retry racing its original over
        # another connection, or two pipelined duplicates) must not both
        # miss the reply cache and double-execute
        self._key_locks = tuple(threading.Lock() for _ in range(64))
        self._derived_key_locks = tuple(threading.Lock() for _ in range(64))

        # replication role, managed by repro.bank.cluster.ClusterNode: a
        # "standby" rejects mutating ops with NotPrimaryError (carrying
        # primary_address when known) and guards reads behind the
        # staleness bound; promotion flips role back to "primary"
        self.role = "primary"
        self.primary_address: Optional[str] = None
        self.read_staleness_bound: Optional[float] = None
        self.replica_lag: Optional[Callable[[], float]] = None

        base_policy = bank_authorization_policy(self.accounts, self.admin)
        if open_enrollment:
            policy = CallbackPolicy(lambda s: True, description="open enrollment")
        else:
            policy = base_policy
        self._has_standing = base_policy
        self.endpoint = ServiceEndpoint(
            identity, trust_store, policy, clock=self.clock, rng=rng
        )
        # telemetry plane: SLO burn-rate tracking over every dispatch, and
        # per-principal usage metering (op counts + wire bytes + currency
        # moved) of what this node serves, whatever its role
        self.slo = SLOEngine(clock=self.clock, objectives=default_bank_objectives())
        self.usage = UsageMeter(self.clock, beside("usage"))
        self.endpoint.usage_sink = self._record_wire_usage
        #: the named access checks a row chooses from; a ClusterNode adds
        #: ``peer`` (it knows the peers)
        self.access: dict[str, Callable[[str], None]] = {
            "anyone": _anyone,
            "standing": self._require_standing,
            "admin": self._require_admin,
        }
        #: the op table, wire method -> descriptor
        self.ops: dict[str, Op] = {}
        self._register_operations()

    # -- wiring ---------------------------------------------------------------

    @property
    def subject(self) -> str:
        return self.identity.subject

    def recover(self) -> int:
        """Replay persistent storage and re-derive id counters.

        For a bank on a persistent :class:`~repro.db.database.Database`,
        call this once right after construction (tables must exist before
        the journal replays). Returns the number of replayed journal
        transactions.
        """
        replayed = self.db.recover()
        self.rescan_state()
        return replayed

    def rescan_state(self) -> None:
        """Re-derive every in-memory counter/cache from database state.

        Used after :meth:`recover`, and again when a standby is promoted:
        the replicated WAL repopulated the tables underneath the layers,
        so id counters and the reply cache index must resync before the
        node accepts writes.
        """
        self.accounts.rescan_ids()
        self.registry.rescan_ids()
        self.replies.rescan()
        if self.shard is not None:
            self.shard.rescan()
        obs_metrics.gauge("bank.reply_cache.size").set(len(self.replies))

    def connection_handler(self):
        return self.endpoint.connection_handler()

    def overloaded(self) -> bool:
        """Admission-control signal for the serving front end.

        True while any SLO objective is paging — the bank is failing its
        promises for traffic it already accepted, so the front end should
        shed *new* requests (typed ``Overloaded``, retryable) rather than
        queue more work behind the backlog. Wire it up with
        ``AsyncTCPServer(..., overload_signal=bank.overloaded)``; the
        front end caches the answer briefly so the burn-rate evaluation
        stays off the per-request path.
        """
        return self.slo.overload()

    def _record_wire_usage(self, subject: str, method: str, bytes_in: int, bytes_out: int) -> None:
        """The endpoint's per-dispatch wire-volume hook (sealed sizes):
        tracked rows only, like the op sample (plumbing is not billed)."""
        op = self.ops.get(method)
        if op is not None and op.tracked:
            self.usage.record_bytes(subject, bytes_in, bytes_out)

    def _observed_latency(self, elapsed: float, sent_at: Optional[float]) -> float:
        """The latency the *caller* experienced, for SLO accounting.

        Server-side ``perf_counter`` time misses everything before
        dispatch — queueing, retry backoff, injected network faults. When
        the request carries the client's ``sent_at`` epoch, the clock
        delta captures those (both clocks are the shared virtual clock in
        drills); take whichever view is worse.
        """
        observed = elapsed
        if sent_at is not None:
            observed = max(observed, self.clock.epoch() - sent_at)
        return max(observed, 0.0)

    # -- the op table and its one dispatch ------------------------------------------

    def register(
        self,
        method: str,
        handler: Operation,
        accounts_of: Optional[Callable[[dict], tuple]] = None,
        *,
        access: str,
        kind: str = READ,
        guard_accounts: Optional[Callable[[dict], tuple]] = None,
        staleness_exempt: bool = False,
        reply_key: Optional[Callable[[dict], str]] = None,
        moved: Optional[Callable[[dict, Any], Any]] = None,
        tracked: bool = True,
        blocking: bool = False,
    ) -> Op:
        """Add *method* to the op table and expose it on the endpoint.

        The one registration call for the bank's own sec 5.2 / 5.2.1
        operations, the cluster and shard planes, and payment-protocol
        extensions alike: whatever is registered here is served by
        :meth:`dispatch` and gets every guard, the authorisation named by
        *access* (a key of ``bank.access``; there is no default, so a row
        cannot be added without saying who may call it), the exactly-once
        envelope, usage metering and the ``bank.op.<name>.*`` instruments.
        *guard_accounts* defaults to *accounts_of*. A *blocking* row may
        hold its thread for seconds, so an event-loop front end never runs
        it on its loop. Instruments are resolved once, here, so a dispatch
        pays no registry lookup for them.
        """
        if kind not in (READ, PRIMARY, WRITE):
            raise ValueError(f"{method}: unknown row kind {kind!r}")
        name = handler.__name__.removeprefix("op_")
        op = Op(
            method=method,
            handler=handler,
            name=name,
            span_name=f"bank.op.{name}",
            kind=kind,
            access=self.access[access],
            accounts_of=accounts_of,
            guard_accounts=guard_accounts if guard_accounts is not None else accounts_of,
            staleness_exempt=staleness_exempt,
            reply_key=reply_key,
            moved=moved,
            tracked=tracked,
            requests=obs_metrics.counter(f"bank.op.{name}.requests"),
            errors=obs_metrics.counter(f"bank.op.{name}.errors"),
            latency=obs_metrics.histogram(f"bank.op.{name}.latency_seconds"),
            dedup_hits=obs_metrics.counter("bank.dedup_hits"),
            rejections=obs_metrics.counter("bank.not_primary_rejections"),
        )
        self.endpoint.register(method, functools.partial(self.dispatch, op), blocking=blocking)
        self.ops[method] = op
        return op

    def dispatch(self, op: Op, subject: str, params: dict):
        """Serve one request for *op* — the only path from a wire method
        to layer code. The order of the steps is fixed; each says why it
        sits where it does."""
        # 1. count, before anything below can refuse
        op.requests.inc()
        started = time.perf_counter()
        # 2. span: a child of the RPC dispatch span (active in this
        #    context); it closes AFTER the operation's database transaction
        #    commits, and its record goes to the span store, not the journal
        with obs_trace.span(op.span_name, kind="bank", subject=subject):
            try:
                # 3. shard guard, before the role check: a misrouted client
                #    must learn the owning *shard* (WrongShardError's hint)
                #    before it would be told about the wrong shard's
                #    primary. Ops without guard accounts (CreateAccount,
                #    BankInfo, ...) serve anywhere; no-op until a ShardNode
                #    attaches and installs a map.
                shard = self.shard
                if shard is not None and op.guard_accounts is not None:
                    shard.guard(op.method, op.guard_accounts(params))
                if op.kind != READ:
                    # 4. role check, writes and primary-only plumbing: a
                    #    standby refuses BEFORE reading its reply cache,
                    #    which only reflects what has replicated so far —
                    #    answering from it could serve a stale reply for a
                    #    call the primary has since superseded. The error
                    #    carries the primary's address (when known) so
                    #    routing clients redirect without a topology lookup.
                    if self.role != "primary":
                        op.rejections.inc()
                        raise NotPrimaryError.for_primary(
                            self.primary_address,
                            f"{op.method} requires the primary; this node is a {self.role}",
                        )
                elif self.role != "primary" and not op.staleness_exempt:
                    # 4. role check, reads: a standby whose lag (seconds
                    #    since it last matched the primary's position)
                    #    exceeds the configured bound refuses with a typed
                    #    error instead of silently serving arbitrarily old
                    #    state. Primaries, standbys without a bound, and
                    #    exempt ops always answer.
                    bound = self.read_staleness_bound
                    lag_of = self.replica_lag
                    if bound is not None and lag_of is not None:
                        lag = lag_of()
                        if lag > bound:
                            raise ReplicaStaleError(
                                f"replica lag {lag:.3f}s exceeds the staleness bound {bound:.3f}s"
                            )
                if op.mutating:
                    if op.reply_key is not None:
                        key = op.reply_key(params)
                    else:
                        context = current_request()
                        key = context.idempotency_key if context is not None else ""
                    # a direct transfer whose recipient lives on another
                    # shard goes to step 8, and takes its own stripes there
                    detached = shard is not None and shard.wants(op.method, params)
                    touched = ()
                    if op.accounts_of is not None and not detached:
                        touched = op.accounts_of(params)
                    # 5. the key's in-flight lock, FIRST in the lock order
                    #    (key lock -> account stripes, deadlock-free): a
                    #    duplicate blocks until the original's reply is
                    #    cached rather than racing it. A request without a
                    #    key (in-process callers, legacy clients) skips
                    #    this, step 6 and the reply row of step 9.
                    derived = op.reply_key is not None
                    with self.key_lock(key, derived) if key else _UNLOCKED:
                        # 6. reply lookup: a live duplicate, or a retry
                        #    replayed after crash recovery, gets the
                        #    original response back without re-execution
                        cached = self.replies.lookup(key, subject, op.method) if key else None
                        if cached is not None:
                            op.dedup_hits.inc()
                            obs_trace.add_event("bank.dedup_hit", op=op.method, key=key)
                            _log.info("bank.dedup_hit", op=op.method, subject=subject, key=key)
                            result = ReplyCache.replay(cached)
                        else:
                            # 7. access: who may call is the row's, not the
                            #    handler's. AFTER the replay, which needs
                            #    no second check (a reply row answers only
                            #    the subject that wrote it); BEFORE
                            #    anything is taken, so an unauthorised
                            #    request holds no stripe, opens no
                            #    transaction and never reaches the 2PC.
                            op.access(subject)
                            if detached:
                                # 8. cross-shard: the prepare must be
                                #    durable BEFORE the remote credit, and
                                #    nested transaction blocks are
                                #    savepoints, not commits — so the
                                #    coordinator runs outside step 9's
                                #    single transaction and reaches
                                #    commit_once() itself, at its commit
                                #    phase
                                result = shard.coordinate(subject, params, key)
                            else:
                                # 9. stripes -> transaction -> handler -> reply
                                result = self.commit_once(
                                    key, subject, op.method, touched,
                                    functools.partial(op.handler, subject, params),
                                )
                else:
                    # 7. access, as above: before any stripe
                    op.access(subject)
                    # 8. shared stripes: many reads proceed in parallel,
                    #    but none overlaps a mutator mid-flight on the
                    #    same account
                    if op.accounts_of is None:
                        result = op.handler(subject, params)
                    else:
                        with self.locks.shared(*op.accounts_of(params)):
                            result = op.handler(subject, params)
            except Exception as exc:
                elapsed = time.perf_counter() - started
                op.errors.inc()
                op.latency.observe(elapsed)
                self._account(op, subject, params, None, elapsed, ok=False)
                _log.warning(
                    "bank.op.error", op=op.name, subject=subject,
                    error=type(exc).__name__, reason=str(exc),
                )
                raise
            # 10. latency, SLO sample, usage sample
            elapsed = time.perf_counter() - started
            op.latency.observe(elapsed)
            self._account(op, subject, params, result, elapsed, ok=True)
        _log.debug("bank.op", op=op.name, subject=subject, duration=elapsed)
        return result

    def commit_once(
        self, key: str, subject: str, method: str, touched: tuple, effects: Callable[[], Any]
    ):
        """Run *effects* and record its reply, under *touched*'s stripes.

        The last step of :meth:`dispatch`, and of the 2PC coordinator's
        commit phase (which arrives from a request *and* from the
        resolver, so it cannot live inline). The stripes are exclusive and
        sorted, and held through the transaction's commit acknowledgement
        so conflicting writers reach the WAL in execution order. With a
        key, *effects* and the reply row share one database transaction —
        "the op happened" and "its reply is cached" are a single WAL line,
        exactly-once across crashes. Without one, *effects* runs under
        the stripes with whatever transactions it opens itself.
        """
        with self.locks.exclusive(*touched):
            if not key:
                return effects()
            with self.db.transaction():
                result = effects()
                self.replies.store(key, subject, method, result)
        obs_metrics.gauge("bank.reply_cache.size").set(len(self.replies))
        return result

    def key_lock(self, key: str, derived: bool = False) -> threading.Lock:
        """The in-flight lock of one idempotency key.

        Keys an op derives from its params (``Shard.Apply``'s
        ``2pc:<IntentID>``) lock in an array of their own: the coordinator
        calling ``Shard.Apply`` already holds a client key's lock — on its
        node, or on this one when a rebalance moved the recipient home —
        and with one shared array two opposing cross-shard transfers could
        each hold the stripe the other's apply needs.
        """
        locks = self._derived_key_locks if derived else self._key_locks
        return locks[hash(key) % len(locks)]

    def _account(
        self, op: Op, subject: str, params: dict, result, elapsed: float, ok: bool
    ) -> None:
        """SLO and usage samples for one dispatch of a tracked row."""
        if not op.tracked:
            return
        context = current_request()
        sent_at = context.sent_at if context is not None else None
        observed = self._observed_latency(elapsed, sent_at)
        moved = Credits(op.moved(params, result)).to_float() if ok and op.moved else 0.0
        # attribute lookups at call time: the serve CLI may swap in a
        # differently-tuned engine after construction
        self.slo.record(op.name, ok=ok, latency=observed)
        self.usage.record_op(
            subject,
            op.name,
            ok=ok,
            latency_seconds=observed,
            currency_moved=moved,
        )

    # -- lock-set extraction ------------------------------------------------------

    @staticmethod
    def _param_accounts(*keys: str) -> Callable[[dict], tuple]:
        """Extractor for account ids carried directly in request params.

        Extraction is best-effort on malformed input: a missing or
        mistyped field yields no lock, and the operation itself raises
        the proper validation error while holding whatever was found.
        """

        def extract(params: dict) -> tuple:
            out = []
            for key in keys:
                value = params.get(key)
                if isinstance(value, str) and value:
                    out.append(value)
            return tuple(out)

        return extract

    @staticmethod
    def _drawer_of(signed: object) -> str:
        """Drawer account inside a cheque/commitment wire dict, or ''."""
        if isinstance(signed, dict):
            payload = signed.get("payload")
            if isinstance(payload, dict):
                account = payload.get("drawer_account")
                if isinstance(account, str):
                    return account
        return ""

    def _instrument_accounts(self, field: str) -> Callable[[dict], tuple]:
        """Extractor for redeem/cancel ops: the instrument's drawer
        account plus the payee account (when present)."""

        def extract(params: dict) -> tuple:
            out = [self._drawer_of(params.get(field))]
            payee = params.get("payee_account")
            if isinstance(payee, str):
                out.append(payee)
            return tuple(a for a in out if a)

        return extract

    @staticmethod
    def _batch_accounts(params: dict) -> tuple:
        out = []
        items = params.get("items")
        if isinstance(items, list):
            for item in items:
                if not isinstance(item, dict):
                    continue
                drawer = GridBankServer._drawer_of(item.get("cheque"))
                if drawer:
                    out.append(drawer)
                payee = item.get("payee_account")
                if isinstance(payee, str) and payee:
                    out.append(payee)
        return tuple(out)

    def _cancel_transfer_accounts(self, params: dict) -> tuple:
        """Resolve the transfer's two accounts before locking. Transfer
        rows are immutable, so the unlocked pre-read cannot go stale."""
        try:
            row = self.accounts.transfer_record(params.get("transaction_id"))
        except ReproError:
            return ()
        return (row["DrawerAccountID"], row["RecipientAccountID"])

    def _register_operations(self) -> None:
        """The sec 5.2 / 5.2.1 rows of the op table, by verb and by who
        may call: sec 5.2's account holders (``standing``: an account or
        the administrator bit) and sec 5.2.1's administrators."""
        read = functools.partial(self.register, access="standing")
        write = functools.partial(self.register, access="standing", kind=WRITE)
        admin = functools.partial(self.register, access="admin", kind=WRITE)
        account = self._param_accounts("account_id")
        # BankInfo stays serveable on any node at any lag — it is how
        # clients discover roles/addresses in the first place — and, like
        # CreateAccount, to a subject that holds nothing here yet
        read("BankInfo", self.op_bank_info, access="anyone", staleness_exempt=True)
        write("CreateAccount", self.op_create_account, access="anyone")
        read("RequestAccountDetails", self.op_account_details, account)
        write("UpdateAccountDetails", self.op_update_account, account)
        read("RequestAccountStatement", self.op_statement, account)
        write("FundsAvailabilityCheck", self.op_funds_availability_check, account)
        write("ReleaseFunds", self.op_release_funds, account)
        write(
            "RequestDirectTransfer",
            self.op_direct_transfer,
            self._param_accounts("from_account", "to_account"),
            guard_accounts=self._param_accounts("from_account"),
            moved=_transferred,
        )
        # drains the inbox: a duplicate must replay, not re-drain
        write("FetchConfirmations", self.op_fetch_confirmations)
        write("RequestGridCheque", self.op_request_cheque, account)
        cheque = self._instrument_accounts("cheque")
        write("RedeemGridCheque", self.op_redeem_cheque, cheque, moved=_paid)
        write(
            "RedeemGridChequeBatch", self.op_redeem_cheque_batch, self._batch_accounts,
            moved=_batch_paid,
        )
        write("CancelGridCheque", self.op_cancel_cheque, cheque)
        write("RequestGridHash", self.op_request_hashchain, account)
        write(
            "RedeemGridHash", self.op_redeem_hashchain, self._instrument_accounts("commitment"),
            moved=_paid,
        )
        read("EstimatePrice", self.op_estimate_price)
        admin("Admin.Deposit", self.op_admin_deposit, account, moved=_stated_amount)
        admin("Admin.Withdraw", self.op_admin_withdraw, account, moved=_stated_amount)
        admin("Admin.ChangeCreditLimit", self.op_admin_change_credit_limit, account)
        admin("Admin.CancelTransfer", self.op_admin_cancel_transfer, self._cancel_transfer_accounts)
        admin(
            "Admin.CloseAccount",
            self.op_admin_close_account,
            self._param_accounts("account_id", "transfer_to"),
        )
        admin("Admin.AddAdministrator", self.op_admin_add_administrator)

    # -- the access checks, and the per-row check handlers make ------------------

    def _require_standing(self, subject: str) -> None:
        """Operations beyond CreateAccount require an account or admin bit."""
        if not self._has_standing.is_authorized(subject):
            raise AuthorizationError(f"subject {subject!r} has no account at this bank")

    def _require_owner_or_admin(self, subject: str, account_id: str) -> dict:
        row = self.accounts.get_account(account_id)
        if row["CertificateName"] != subject and not self.admin.is_administrator(subject):
            raise AuthorizationError(f"subject {subject!r} does not own account {account_id}")
        return row

    def _require_admin(self, subject: str) -> None:
        if not self.admin.is_administrator(subject):
            raise AuthorizationError(f"subject {subject!r} is not an administrator")

    @staticmethod
    def _amount(params: dict, key: str = "amount") -> Credits:
        value = params.get(key)
        if isinstance(value, Credits):
            return value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return Credits(value)
        raise ValidationError(f"parameter {key!r} must be an amount")

    # -- public operations (sec 5.2) -------------------------------------------------

    def op_bank_info(self, subject: str, params: dict) -> dict:
        from repro.crypto.keys import public_key_to_dict

        return {
            "subject": self.subject,
            "bank_number": self.bank_number,
            "branch_number": self.branch_number,
            "public_key": public_key_to_dict(self.identity.private_key.public_key()),
            "role": self.role,
            "primary_address": self.primary_address or "",
        }

    def op_create_account(self, subject: str, params: dict) -> dict:
        account_id = self.accounts.create_account(
            certificate_name=subject,
            organization_name=params.get("organization_name", ""),
            currency=params.get("currency", "GridDollar"),
        )
        return {"account_id": account_id}

    def op_account_details(self, subject: str, params: dict) -> dict:
        return self._require_owner_or_admin(subject, params["account_id"])

    def op_update_account(self, subject: str, params: dict) -> dict:
        self._require_owner_or_admin(subject, params["account_id"])
        return self.accounts.update_account(
            params["account_id"],
            certificate_name=params.get("certificate_name"),
            organization_name=params.get("organization_name"),
        )

    def op_statement(self, subject: str, params: dict) -> dict:
        self._require_owner_or_admin(subject, params["account_id"])
        return self.accounts.statement(
            params["account_id"],
            Timestamp.from_stamp14(params["start"]),
            Timestamp.from_stamp14(params["end"]),
        )

    def op_funds_availability_check(self, subject: str, params: dict) -> dict:
        """Perform Funds Availability Check (sec 5.2): the confirmed amount
        moves to the locked balance as the guarantee."""
        account_id = params["account_id"]
        self._require_owner_or_admin(subject, account_id)
        amount = self._amount(params)
        self.accounts.lock_funds(account_id, amount)
        return {"confirmed": True, "locked": amount}

    def unreserved_locked(self, account_id: str) -> Credits:
        """Locked funds NOT backing an outstanding payment instrument.

        Only this portion may be released by the account owner; the rest
        is the sec 3.4 payment guarantee and can leave the locked balance
        only through instrument redemption or cancellation.
        """
        locked = self.accounts.locked_balance(account_id)
        reserved = Credits(0)
        for row in self.registry.outstanding_for(account_id):
            reserved = reserved + self.registry.amount_limit(row)
        return locked - reserved

    def op_release_funds(self, subject: str, params: dict) -> dict:
        account_id = params["account_id"]
        self._require_owner_or_admin(subject, account_id)
        amount = self._amount(params)
        releasable = self.unreserved_locked(account_id)
        if amount > releasable:
            from repro.errors import AccountError

            raise AccountError(
                f"only {releasable} of the locked balance is releasable; the rest "
                f"guarantees outstanding payment instruments"
            )
        self.accounts.unlock_funds(account_id, amount)
        return {"released": amount}

    def op_direct_transfer(self, subject: str, params: dict) -> dict:
        from_account = params["from_account"]
        self._require_owner_or_admin(subject, from_account)
        to_account = params["to_account"]
        confirmation = self.direct.transfer(
            drawer_subject=self.accounts.owner_of(from_account),
            from_account=from_account,
            to_account=to_account,
            amount=self._amount(params),
            recipient_address=params.get("recipient_address", ""),
            rur_blob=params.get("rur_blob", b""),
        )
        address = confirmation.recipient_address
        if address:
            # inbox entries are owned by the recipient account's subject;
            # only that principal may pick them up
            entry = {
                "owner": self.accounts.owner_of(to_account),
                "confirmation": confirmation.to_dict(),
            }
            with self._inbox_lock:
                self._confirmation_inboxes.setdefault(address, []).append(entry)
        return {"confirmation": confirmation.to_dict()}

    def op_fetch_confirmations(self, subject: str, params: dict) -> list:
        """GSP pickup of pay-before-use confirmations for its URL.

        Only entries addressed to accounts the caller owns are returned
        (and drained); other principals' confirmations stay queued.
        """
        with self._inbox_lock:
            inbox = self._confirmation_inboxes.get(params["address"], [])
            mine = [entry["confirmation"] for entry in inbox if entry["owner"] == subject]
            remaining = [entry for entry in inbox if entry["owner"] != subject]
            if remaining:
                self._confirmation_inboxes[params["address"]] = remaining
            else:
                self._confirmation_inboxes.pop(params["address"], None)
        return mine

    def op_request_cheque(self, subject: str, params: dict) -> dict:
        cheque = self.cheques.issue(
            drawer_subject=subject,
            drawer_account=params["account_id"],
            payee_subject=params["payee_subject"],
            amount=self._amount(params),
        )
        return {"cheque": cheque.to_dict()}

    def op_redeem_cheque(self, subject: str, params: dict) -> dict:
        result = self.cheques.redeem(
            redeemer_subject=subject,
            cheque=GridCheque.from_dict(params["cheque"]),
            payee_account=params["payee_account"],
            charge=self._amount(params, "charge"),
            rur_blob=params.get("rur_blob", b""),
        )
        return {
            "cheque_id": result.instrument_id,
            "transaction_id": result.transaction_id,
            "paid": result.paid,
            "released": result.released,
        }

    def op_redeem_cheque_batch(self, subject: str, params: dict) -> list:
        """Redeem a batch of cheques, one ledger TRANSACTION per cheque.

        Cheques settle independently in input order (so TransactionIDs
        are monotone in batch position); a rejected cheque does not abort
        the rest of the batch — it yields an ``ok: False`` entry carrying
        the error type, and a warning log line, while every other cheque
        still settles.
        """
        results: list[dict] = []
        rejected = obs_metrics.counter("bank.cheque_batch.rejected")
        for position, item in enumerate(params["items"]):
            cheque_id = ""
            try:
                cheque = GridCheque.from_dict(item["cheque"])
                cheque_id = cheque.cheque_id
                charge = item["charge"]
                result = self.cheques.redeem(
                    redeemer_subject=subject,
                    cheque=cheque,
                    payee_account=item["payee_account"],
                    charge=charge if isinstance(charge, Credits) else Credits(charge),
                    rur_blob=item.get("rur_blob", b""),
                )
            except ReproError as exc:
                rejected.inc()
                _log.warning(
                    "bank.cheque_batch.rejected",
                    position=position,
                    cheque_id=cheque_id,
                    error=type(exc).__name__,
                    reason=str(exc),
                )
                results.append(
                    {
                        "ok": False,
                        "position": position,
                        "cheque_id": cheque_id,
                        "transaction_id": None,
                        "paid": Credits(0),
                        "released": Credits(0),
                        "error_type": type(exc).__name__,
                        "error": str(exc),
                    }
                )
                continue
            results.append(
                {
                    "ok": True,
                    "position": position,
                    "cheque_id": result.instrument_id,
                    "transaction_id": result.transaction_id,
                    "paid": result.paid,
                    "released": result.released,
                }
            )
        return results

    def op_cancel_cheque(self, subject: str, params: dict) -> dict:
        released = self.cheques.cancel(subject, GridCheque.from_dict(params["cheque"]))
        return {"released": released}

    def op_request_hashchain(self, subject: str, params: dict) -> dict:
        length = params["length"]
        if not isinstance(length, int) or isinstance(length, bool):
            raise ValidationError("length must be an int")
        commitment = self.hashchains.issue(
            drawer_subject=subject,
            drawer_account=params["account_id"],
            payee_subject=params["payee_subject"],
            root=params["root"],
            length=length,
            link_value=self._amount(params, "link_value"),
        )
        return {"commitment": commitment.to_dict()}

    def op_redeem_hashchain(self, subject: str, params: dict) -> dict:
        commitment = GridHashCommitment.from_dict(params["commitment"])
        tick = None
        if params.get("index"):
            tick = PaymentTick(
                commitment_id=commitment.commitment_id,
                index=params["index"],
                link=params["link"],
            )
        result = self.hashchains.redeem(
            redeemer_subject=subject,
            commitment=commitment,
            payee_account=params["payee_account"],
            tick=tick,
            rur_blob=params.get("rur_blob", b""),
        )
        return {
            "commitment_id": result.instrument_id,
            "transaction_id": result.transaction_id,
            "paid": result.paid,
            "released": result.released,
            "links_redeemed": result.units,
        }

    def op_estimate_price(self, subject: str, params: dict) -> dict:
        description = ResourceDescription(**params["description"])
        estimate = self.pricing.estimate(description)
        return {"unit_price": estimate}

    # -- admin operations (sec 5.2.1) ------------------------------------------------

    def op_admin_deposit(self, subject: str, params: dict) -> dict:
        txn = self.admin.deposit(params["account_id"], self._amount(params))
        return {"transaction_id": txn}

    def op_admin_withdraw(self, subject: str, params: dict) -> dict:
        txn = self.admin.withdraw(params["account_id"], self._amount(params))
        return {"transaction_id": txn}

    def op_admin_change_credit_limit(self, subject: str, params: dict) -> dict:
        self.admin.change_credit_limit(params["account_id"], self._amount(params, "credit_limit"))
        return {"confirmed": True}

    def op_admin_cancel_transfer(self, subject: str, params: dict) -> dict:
        compensating = self.admin.cancel_transfer(params["transaction_id"])
        return {"compensating_transaction_id": compensating}

    def op_admin_close_account(self, subject: str, params: dict) -> dict:
        balance = self.admin.close_account(
            params["account_id"], transfer_to=params.get("transfer_to", "")
        )
        return {"outstanding_balance": balance}

    def op_admin_add_administrator(self, subject: str, params: dict) -> dict:
        self.admin.add_administrator(params["certificate_name"])
        return {"confirmed": True}
