"""Secure RPC: GSI-authenticated request/response services.

A :class:`ServiceEndpoint` owns a credential, a trust store, an
authorization policy and a registry of named operations. Each client
connection runs the three-token GSI handshake; after the final token the
endpoint authorizes the authenticated subject and either confirms
establishment or *refuses the connection* — the paper's DoS-limiting
behaviour ("Clients simply cannot send any requests before a connection is
established", sec 3.2). Established sessions carry encrypted, sequenced
records only.

Remote exceptions propagate by name: the server maps a raised library
exception to its class name, and the client re-raises the matching class
from :mod:`repro.errors` (falling back to :class:`RPCError`).

Server phases: a server connection's work is split into three phases —
:meth:`_ServerConnection.prepare` (unwrap; the channel cipher enforces
strictly increasing record sequence numbers, so requests are unwrapped in
wire order), :meth:`_ServerConnection.complete` (the dispatch itself), and
:meth:`_ServerConnection.seal` (wrap the response; seal order must equal
transmit order). The socket front ends drive the three phases; ``handle()``
composes them for the in-process transport. A client has one request in
flight per connection; the paper's way to settle many at once is a batch
operation (sec 5.3), not a window of calls.

Session resumption: the server returns a bearer ticket with the
``established`` reply, and the client files it with the session's
master secret in the process-wide :data:`session_cache`. Any later
client for the same server, credential and trust store skips the
three-token handshake via a ``gsi_resume`` exchange authenticated by
HMACs in both directions, with fresh nonces mixed into the resumed
channel keys — single sign-on that is paid once (DESIGN §18).

Exactly-once layer: every request envelope carries a stable idempotency
key (``client_nonce:seq``) and an optional absolute deadline. The server
rejects expired requests with :class:`~repro.errors.DeadlineExceeded`
*before* dispatch and exposes the key/deadline to operations through
:func:`current_request` (a context variable, like the trace span), which
the bank's durable reply cache consumes. A client built with a
:class:`~repro.net.retry.RetryPolicy` transparently re-sends on retryable
failures — reconnecting and re-running the handshake when the connection
died — which is safe precisely because the key never changes across
re-sends.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import hmac
import random
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple, Optional

from repro.errors import (
    AuthenticationError,
    ChannelError,
    DeadlineExceeded,
    NotPrimaryError,
    ProtocolError,
    ReproError,
    TransportError,
)
from repro.gsi.authorization import AuthorizationPolicy
from repro.gsi.context import Role, SecurityContext
from repro.net.message import (
    make_error,
    make_request,
    make_response,
    parse_payload,
    raise_remote_error,
)
from repro.net.retry import RetryPolicy, is_retryable, sleep_for
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.logging import get_logger
from repro.pki.validation import CertificateStore
from repro.util.gbtime import Clock, SystemClock
from repro.util.ids import random_token
from repro.util.serialize import canonical_dumps

__all__ = [
    "ServiceEndpoint",
    "RPCClient",
    "ConnectionRefused",
    "Operation",
    "RequestContext",
    "SessionCache",
    "session_cache",
    "current_request",
    "request_scope",
]

Operation = Callable[[str, dict], Any]

_log = get_logger("net.rpc")


class ConnectionRefused(TransportError):
    """The service refused the connection at authorization time."""


_RESUME_NONCE_LEN = 32
#: seconds a session ticket stays redeemable
_TICKET_TTL = 900.0


class _Session(NamedTuple):
    """What one side keeps of a full handshake so a later connection can
    skip it: the peer it authenticated, the secret both ends derived, and
    the facts about the peer's chain that must still hold on that day."""

    subject: str
    master: bytes
    #: min(mint time + ``_TICKET_TTL``, earliest ``not_after`` in the peer's chain)
    expires: float
    #: the validated peer chain's ``(issuer, serial)`` pairs
    serials: tuple
    #: the server's handle for the session (client side only)
    ticket: str = ""

    @classmethod
    def of(cls, context: SecurityContext, now: float, ticket: str = "") -> "_Session":
        assert context.peer_subject is not None and context.peer_chain is not None
        not_after, serials = context.peer_chain
        return cls(
            context.peer_subject, context.master_secret,
            min(now + _TICKET_TTL, not_after), serials, ticket,
        )

    def live(self, now: float, store: CertificateStore) -> bool:
        """Everything the full handshake refuses that needs no RSA: an
        expired chain, and a serial *store* has since listed as revoked."""
        return now <= self.expires and not any(
            store.revokes(issuer, serial) for issuer, serial in self.serials
        )

    def proof(self, label: bytes, *parts: bytes) -> bytes:
        return hmac.new(self.master, label + b"".join(parts), hashlib.sha256).digest()

    def proves(self, mac: Any, label: bytes, *parts: bytes) -> bool:
        return isinstance(mac, bytes) and hmac.compare_digest(mac, self.proof(label, *parts))


class SessionCache:
    """Bounded LRU of resumable sessions, one per ``(key, trust store)``.

    An endpoint keys it by the bearer ticket it returned with the
    ``established`` reply (TLS-session-ticket style); the process-wide
    :data:`session_cache` keys the client half by ``(peer address,
    fingerprint of the credential's leaf certificate)``. The trust store
    *object* is part of every key because what a side is willing to
    believe about its peer is part of who it is, and an entry goes when
    its store does. A session that is no longer :meth:`~_Session.live`
    is a miss (and gone); at the bound the one idle longest goes. A miss
    only ever costs the full handshake, which refuses with its own error
    where it must.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        # re-entrant: a trust store can be collected, and its callback
        # run, while this thread is inside one of the methods below
        self._lock = threading.RLock()
        self._entries: OrderedDict[tuple, tuple[_Session, weakref.ref]] = OrderedDict()

    def get(self, key: object, store: CertificateStore, now: float) -> Optional[_Session]:
        slot = (key, id(store))
        with self._lock:
            entry = self._entries.get(slot)
            if entry is None:
                return None
            if not entry[0].live(now, store):
                del self._entries[slot]
                return None
            self._entries.move_to_end(slot)
            return entry[0]

    def put(self, key: object, store: CertificateStore, session: _Session) -> None:
        slot = (key, id(store))
        with self._lock:
            self._entries[slot] = (session, weakref.ref(store, lambda _: self._drop(slot)))
            self._entries.move_to_end(slot)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def drop(self, key: object, store: CertificateStore, session: _Session) -> None:
        """Forget *session* (the peer did) unless a newer one replaced it."""
        self._drop((key, id(store)), session)

    def _drop(self, slot: tuple, session: Optional[_Session] = None) -> None:
        with self._lock:
            entry = self._entries.get(slot)
            if entry is not None and (session is None or entry[0] is session):
                del self._entries[slot]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: the client half, shared by every :class:`RPCClient` in the process;
#: there is deliberately no way to opt out, and at 64 principals the one
#: idle longest pays one full handshake
session_cache = SessionCache(64)


@dataclass(frozen=True)
class RequestContext:
    """Envelope metadata of the request being dispatched.

    Available to operations via :func:`current_request` while the server
    runs them — the idempotency key is what the bank's reply cache keys
    on, and the deadline lets long operations bail out early.
    """

    method: str
    subject: str
    idempotency_key: str = ""
    deadline: Optional[float] = None
    #: Client clock epoch when the logical call began (stable across
    #: re-sends). The bank's SLO accounting compares it against the server
    #: clock to include queueing/retry/network time in observed latency.
    sent_at: Optional[float] = None


_request_ctx: contextvars.ContextVar[Optional[RequestContext]] = contextvars.ContextVar(
    "gridbank_rpc_request", default=None
)


def current_request() -> Optional[RequestContext]:
    """The request context active in this dispatch, if any."""
    return _request_ctx.get()


@contextlib.contextmanager
def request_scope(context: Optional[RequestContext]) -> Iterator[Optional[RequestContext]]:
    """Make *context* the active request for the duration of the block.

    The server wraps every dispatch in this; tests replaying a specific
    idempotency key against a bank operation use it directly.
    """
    token = _request_ctx.set(context)
    try:
        yield context
    finally:
        _request_ctx.reset(token)


class _ServerConnection:
    """Per-connection state machine: handshake, then dispatch loop.

    Socket front ends drive the three-phase interface directly:
    ``prepare`` (unwrap consumes cipher sequence numbers in wire order),
    ``complete`` (the operation), ``seal`` (wrap assigns the response
    sequence number, so seal order must equal transmit order). ``handle``
    composes the phases for the in-process transport.
    """

    def __init__(self, endpoint: "ServiceEndpoint") -> None:
        self._endpoint = endpoint
        self._context = SecurityContext(
            Role.ACCEPT,
            endpoint.credential,
            endpoint.trust_store,
            clock=endpoint.clock,
            rng=random.Random(endpoint._rng.getrandbits(64)),
        )
        self._trace_rng = random.Random(endpoint._rng.getrandbits(64))
        self._rng = random.Random(endpoint._rng.getrandbits(64))
        self._open = False
        self._closed = False
        #: Which server backend drives this connection ("threads"/"async");
        #: transports stamp it at accept time and it lands on every
        #: dispatch span so per-backend latency can be compared in traces.
        self.transport_backend = ""

    @property
    def peer_subject(self) -> Optional[str]:
        """Authenticated peer identity once established, else ``None``.

        The front end keys per-principal rate limiting on this — before
        the handshake completes there is no principal to charge, which is
        exactly why pre-establishment traffic gets the (stricter)
        handshake timeout instead.
        """
        return self._context.peer_subject if self._open else None

    def blocks(self, request: Any) -> bool:
        """Is *request* a call to an operation registered as blocking?"""
        return isinstance(request, dict) and request.get("method") in self._endpoint.blocking

    def handle(self, payload: bytes) -> Optional[bytes]:
        kind, value = self.prepare(payload)
        if kind != "call":
            return value
        return self.seal(self.complete(value))

    def prepare(self, payload: bytes) -> tuple[str, Any]:
        """Phase 1 (serial): parse, handshake, or unwrap a sealed request.

        Returns ``("inline", response_bytes_or_None)`` for traffic that is
        already fully answered (handshake tokens, refusals, closed
        connections) or ``("call", request_dict)`` for a request the
        transport should run through :meth:`complete` + :meth:`seal`.
        """
        if self._closed or self._endpoint.crashed:
            return ("inline", None)
        message = parse_payload(payload)
        if not self._open:
            return ("inline", self._handle_handshake(message))
        record = message.get("record")
        if message.get("kind") != "sealed" or not isinstance(record, bytes):
            self._closed = True
            return ("inline", canonical_dumps({"kind": "refused", "reason": "expected sealed record"}))
        try:
            request = parse_payload(self._context.unwrap(record))
        except (ChannelError, ProtocolError) as exc:
            self._closed = True
            return ("inline", canonical_dumps({"kind": "refused", "reason": str(exc)}))
        if isinstance(request, dict):
            # wire size of the sealed request, for per-principal usage
            # accounting in complete() (prepare is the only phase that
            # still sees the payload)
            request["_nbytes"] = len(payload)
        return ("call", request)

    def seal(self, response: bytes) -> bytes:
        """Phase 3: wrap a response envelope for the wire (order-sensitive)."""
        return canonical_dumps({"kind": "sealed", "record": self._context.wrap(response)})

    def _handle_handshake(self, message: dict) -> Optional[bytes]:
        kind = message.get("kind")
        if kind == "gsi_resume":
            return self._handle_resume(message)
        if kind != "gsi":
            self._closed = True
            return canonical_dumps({"kind": "refused", "reason": "handshake required"})
        try:
            reply = self._context.step(message.get("token"))
        except ReproError as exc:
            self._closed = True
            return canonical_dumps({"kind": "refused", "reason": str(exc)})
        if not self._context.established:
            return canonical_dumps({"kind": "gsi", "token": reply})
        subject = self._context.peer_subject
        assert subject is not None
        if not self._endpoint.policy.is_authorized(subject):
            self._closed = True
            self._endpoint.refused_connections += 1
            return canonical_dumps({"kind": "refused", "reason": "subject not authorized"})
        self._open = True
        self._endpoint.accepted_connections += 1
        ticket = random_token(self._rng, nbytes=16)
        endpoint = self._endpoint
        endpoint.session_tickets.put(
            ticket, endpoint.trust_store, _Session.of(self._context, endpoint.clock.epoch())
        )
        return canonical_dumps({"kind": "established", "subject": subject, "ticket": ticket})

    def _handle_resume(self, message: dict) -> bytes:
        ticket = message.get("ticket")
        nonce_i = message.get("nonce")
        endpoint = self._endpoint
        session = (
            endpoint.session_tickets.get(ticket, endpoint.trust_store, endpoint.clock.epoch())
            if isinstance(ticket, str)
            else None
        )
        if (
            session is None
            or not isinstance(nonce_i, bytes)
            or len(nonce_i) != _RESUME_NONCE_LEN
            or not session.proves(message.get("mac"), b"gsi-resume-client", ticket.encode(), nonce_i)
        ):
            # not a refusal: the connection stays pre-handshake, and the
            # client falls back to the full three-token exchange on it
            obs_metrics.counter("gsi.resume.missed").inc()
            return canonical_dumps({"kind": "resume_miss"})
        subject, master = session.subject, session.master
        if not self._endpoint.policy.is_authorized(subject):
            # re-check at resume time: a revocation after ticket issue
            # must not be laundered through the resumption fast path
            self._closed = True
            self._endpoint.refused_connections += 1
            return canonical_dumps({"kind": "refused", "reason": "subject not authorized"})
        nonce_a = self._rng.getrandbits(8 * _RESUME_NONCE_LEN).to_bytes(_RESUME_NONCE_LEN, "big")
        self._context.resume(master, nonce_i, nonce_a, subject)
        self._open = True
        self._endpoint.accepted_connections += 1
        obs_metrics.counter("gsi.resume.accepted").inc()
        return canonical_dumps(
            {
                "kind": "resumed",
                "subject": subject,
                "nonce": nonce_a,
                "mac": session.proof(b"gsi-resume-server", nonce_i, nonce_a),
            }
        )

    def complete(self, request: dict) -> bytes:
        """Phase 2: dispatch one unwrapped request."""
        request_bytes = request.pop("_nbytes", 0)
        request_id = request.get("id", 0)
        method = request.get("method", "")
        subject = self._context.peer_subject
        assert subject is not None
        # reject expired deadlines BEFORE dispatch: the caller has already
        # given up (or will refuse the answer), so starting the work would
        # only risk effects nobody collects
        deadline = request.get("deadline")
        if not isinstance(deadline, (int, float)) or isinstance(deadline, bool):
            deadline = None
        if deadline is not None and self._endpoint.clock.epoch() > deadline:
            obs_metrics.counter("rpc.server.deadline_rejected").inc()
            _log.warning("rpc.deadline_rejected", method=method, subject=subject)
            return make_error(
                request_id,
                "DeadlineExceeded",
                f"request deadline expired before dispatch of {method!r}",
            )
        idempotency_key = request.get("idempotency_key", "")
        if not isinstance(idempotency_key, str):
            idempotency_key = ""
        sent_at = request.get("sent_at")
        if not isinstance(sent_at, (int, float)) or isinstance(sent_at, bool):
            sent_at = None
        # restore the caller's trace around dispatch: the server span is a
        # child of the client span, sharing its trace ID
        parent = obs_trace.from_wire(request.get("trace"))
        if parent is not None:
            span = parent.child(self._trace_rng)
        else:
            span = obs_trace.SpanContext(
                trace_id=obs_trace.new_trace_id(self._trace_rng),
                span_id=obs_trace.new_span_id(self._trace_rng),
            )
        operation = self._endpoint.operations.get(method)
        context = RequestContext(
            method=method, subject=subject, idempotency_key=idempotency_key,
            deadline=deadline, sent_at=sent_at,
        )
        # the dispatch runs inside a *recorded* span so the hop survives in
        # the span store; dispatch errors become error responses, so the
        # recorder is marked failed explicitly before they are swallowed
        with obs_trace.span(
            "rpc.server.dispatch", kind="server", context=span,
            method=method, subject=subject, backend=self.transport_backend,
        ) as recorder, request_scope(context):
            if operation is None:
                obs_metrics.counter("rpc.server.unknown_method").inc()
                recorder.set_error("ProtocolError", f"no such operation: {method!r}")
                response = make_error(request_id, "ProtocolError", f"no such operation: {method!r}")
            else:
                try:
                    result = operation(subject, request.get("params", {}))
                    response = make_response(request_id, result)
                except ReproError as exc:
                    recorder.set_error(type(exc).__name__, str(exc))
                    response = make_error(request_id, type(exc).__name__, str(exc))
                except Exception as exc:  # noqa: BLE001 - a bug in an operation
                    # must not kill the connection thread; the type name still
                    # crosses the wire so the client sees what happened
                    obs_metrics.counter("rpc.server.unexpected_errors").inc()
                    recorder.set_error(type(exc).__name__, str(exc))
                    _log.error(
                        "rpc.dispatch.unexpected_error",
                        method=method,
                        error=type(exc).__name__,
                        reason=str(exc),
                    )
                    response = make_error(request_id, type(exc).__name__, str(exc))
        usage_sink = self._endpoint.usage_sink
        if usage_sink is not None:
            try:
                usage_sink(subject, method, request_bytes, len(response))
            except Exception:  # noqa: BLE001 - accounting must never fail a call
                obs_metrics.counter("obs.usage_sink_errors").inc()
        return response

    def close(self) -> None:
        self._closed = True


class ServiceEndpoint:
    """A named, GSI-protected RPC service."""

    def __init__(
        self,
        credential,
        trust_store: CertificateStore,
        policy: AuthorizationPolicy,
        clock: Optional[Clock] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.credential = credential
        self.trust_store = trust_store
        self.policy = policy
        self.clock = clock if clock is not None else SystemClock()
        self._rng = rng if rng is not None else random.Random()
        # handler construction draws from the endpoint RNG; a threaded
        # transport (TCPServer) builds handlers concurrently, and Random
        # instances are not safe to share across threads unguarded
        self._rng_lock = threading.Lock()
        self.operations: dict[str, Operation] = {}
        #: methods whose operation may hold its thread for seconds
        self.blocking: set[str] = set()
        #: bearer ticket -> the session it resumes (reusable until it
        #: stops being live or 1,024 newer ones push it out)
        self.session_tickets = SessionCache(1024)
        self.accepted_connections = 0
        self.refused_connections = 0
        # kill switch for failover drills: a crashed endpoint answers
        # nothing (the transport surfaces "service closed the
        # connection", a retryable TransportError) — exactly what a
        # process death looks like to a client mid-call
        self.crashed = False
        # optional ``(subject, method, bytes_in, bytes_out)`` hook, called
        # after every dispatch; the bank points it at its UsageMeter so the
        # wire volume of principal workload lands in the usage rollups
        self.usage_sink: Optional[Callable[[str, str, int, int], None]] = None

    def register(self, method: str, operation: Operation, blocking: bool = False) -> None:
        """Expose ``operation(subject, params) -> result`` as *method*."""
        if method in self.operations:
            raise ProtocolError(f"operation already registered: {method!r}")
        self.operations[method] = operation
        if blocking:
            self.blocking.add(method)

    def connection_handler(self) -> _ServerConnection:
        """Factory for per-connection handlers (plug into a transport)."""
        with self._rng_lock:
            return _ServerConnection(self)


class RPCClient:
    """Client session: handshake on connect, then typed calls.

    With a :class:`~repro.net.retry.RetryPolicy` and a *reconnect* factory
    (``() -> connection``), :meth:`call` becomes exactly-once under
    message loss: retryable failures are re-sent with the same
    idempotency key after a jittered backoff, over a fresh connection and
    handshake whenever the old connection is no longer healthy. Without a
    policy the behaviour is unchanged from the at-most-once client.
    """

    def __init__(
        self,
        connection,
        credential,
        trust_store: CertificateStore,
        clock: Optional[Clock] = None,
        rng: Optional[random.Random] = None,
        retry_policy: Optional[RetryPolicy] = None,
        reconnect: Optional[Callable[[], Any]] = None,
    ) -> None:
        self._connection = connection
        self._credential = credential
        self._trust_store = trust_store
        self._clock = clock if clock is not None else SystemClock()
        base_rng = rng if rng is not None else random.Random()
        self._rng = base_rng
        self._trace_rng = random.Random(base_rng.getrandbits(64))
        # the client nonce scopes idempotency keys to this logical client:
        # key = "<nonce>:<request id>" is stable across re-sends of one
        # call but never collides across clients or across calls
        self._nonce = random_token(base_rng, nbytes=8)
        self._retry = retry_policy
        self._reconnect = reconnect
        self._context = self._new_context()
        self._next_id = 1
        self.server_subject: Optional[str] = None
        self.connected = False

    def _new_context(self) -> SecurityContext:
        return SecurityContext(
            Role.INITIATE,
            self._credential,
            self._trust_store,
            clock=self._clock,
            rng=self._rng,
        )

    # -- connection management ------------------------------------------------

    def _session_key(self) -> Optional[tuple]:
        """Where this client's session lives in :data:`session_cache`;
        ``None`` over a connection that cannot say whom it reached."""
        peer = getattr(self._connection, "peer", None)
        if peer is None:
            return None
        return (peer, self._context.local_fingerprint), self._trust_store

    def connect(self) -> str:
        """Run the handshake; returns the server's authenticated subject.

        Raises :class:`ConnectionRefused` if the server refuses (either a
        failed handshake or connection-time authorization) — refusals are
        terminal and never retried. Transport failures during the
        handshake are retried under the client's policy when a reconnect
        factory is available.
        """
        attempt = 0
        slept = 0.0
        while True:
            attempt += 1
            try:
                return self._handshake()
            except ReproError as exc:
                # a partially-run handshake poisons the security context;
                # any retry needs a fresh connection AND a fresh context
                if isinstance(exc, ConnectionRefused) or not is_retryable(exc) or self._reconnect is None:
                    raise
                retry_after = self._plan_retry(attempt, slept, None, exc)
                if retry_after is None:
                    raise
                slept += retry_after
                self._replace_connection()

    def _handshake(self) -> str:
        key = self._session_key()
        session = session_cache.get(*key, self._clock.epoch()) if key is not None else None
        if session is not None:
            if self._try_resume(session):
                return session.subject
            # resume miss: the connection is still pre-handshake on the
            # server side, so fall through to the full exchange on it
            session_cache.drop(*key, session)
        token = self._context.step()
        while True:
            reply = parse_payload(self._connection.request(canonical_dumps({"kind": "gsi", "token": token})))
            if reply["kind"] == "refused":
                raise ConnectionRefused(reply.get("reason", "connection refused"))
            if reply["kind"] == "established":
                if not self._context.established:
                    raise ProtocolError("server declared establishment prematurely")
                self.connected = True
                self.server_subject = self._context.peer_subject
                assert self.server_subject is not None
                ticket = reply.get("ticket")
                if key is not None and isinstance(ticket, str) and ticket:
                    session_cache.put(*key, _Session.of(self._context, self._clock.epoch(), ticket))
                return self.server_subject
            if reply["kind"] != "gsi":
                raise ProtocolError(f"unexpected handshake reply kind {reply['kind']!r}")
            token = self._context.step(reply.get("token"))
            if token is None:
                raise ProtocolError("handshake ended without establishment")

    def _try_resume(self, session: _Session) -> bool:
        """Attempt ticket resumption; ``False`` means fall back to the full
        handshake (the only non-error outcome besides success)."""
        nonce_i = self._rng.getrandbits(8 * _RESUME_NONCE_LEN).to_bytes(_RESUME_NONCE_LEN, "big")
        payload = canonical_dumps(
            {
                "kind": "gsi_resume",
                "ticket": session.ticket,
                "nonce": nonce_i,
                "mac": session.proof(b"gsi-resume-client", session.ticket.encode(), nonce_i),
            }
        )
        reply = parse_payload(self._connection.request(payload))
        kind = reply.get("kind")
        if kind == "resume_miss":
            obs_metrics.counter("rpc.client.resume_misses").inc()
            return False
        if kind == "refused":
            raise ConnectionRefused(reply.get("reason", "connection refused"))
        if kind != "resumed":
            raise ProtocolError(f"unexpected resume reply kind {kind!r}")
        nonce_a = reply.get("nonce")
        if not isinstance(nonce_a, bytes) or len(nonce_a) != _RESUME_NONCE_LEN:
            raise ProtocolError("bad resumption nonce from server")
        if not session.proves(reply.get("mac"), b"gsi-resume-server", nonce_i, nonce_a):
            # whoever answered does not hold the master secret
            raise AuthenticationError("server failed resumption proof")
        self._context.resume(session.master, nonce_i, nonce_a, session.subject)
        self.connected = True
        self.server_subject = session.subject
        obs_metrics.counter("rpc.client.resumes").inc()
        return True

    def _replace_connection(self) -> None:
        """Swap in a fresh connection + security context (pre-handshake)."""
        assert self._reconnect is not None
        try:
            self._connection.close()
        except ReproError:
            pass
        self.connected = False
        self._connection = self._reconnect()
        self._context = self._new_context()
        obs_metrics.counter("rpc.client.reconnects").inc()

    def _connection_usable(self) -> bool:
        return self.connected and getattr(self._connection, "healthy", True)

    # -- calls ----------------------------------------------------------------

    def call(self, method: str, **params: Any) -> Any:
        """Invoke *method*; re-raises remote library errors by class.

        Each call runs in its own client span — continuing the caller's
        active trace if there is one, otherwise rooting a fresh trace —
        and the span travels in the request envelope so the server's
        dispatch span shares the same trace ID. The envelope also carries
        the call's idempotency key and (under a retry policy with a
        deadline) its absolute deadline.
        """
        if not self.connected and self.server_subject is None:
            raise ProtocolError("call before connect()")
        request_id = self._next_id
        self._next_id += 1
        idempotency_key = f"{self._nonce}:{request_id}"
        # stamped once per logical call (like the key): re-sends carry the
        # original epoch, so the server sees latency the caller actually
        # experienced — backoff and network faults included
        sent_at = self._clock.epoch()
        deadline: Optional[float] = None
        if self._retry is not None and self._retry.call_deadline is not None:
            deadline = self._clock.epoch() + self._retry.call_deadline
        attempt = 0
        slept = 0.0
        # ONE recorded span covers the whole logical call, however many
        # re-sends it takes — its span ID is as stable as the idempotency
        # key, so every server dispatch span shares this single parent and
        # retry events land on the span that retried
        with obs_trace.span(
            "rpc.call", kind="client", rng=self._trace_rng, method=method
        ) as recorder:
            while True:
                attempt += 1
                try:
                    if not self._connection_usable():
                        if self._reconnect is None:
                            raise TransportError("connection is no longer usable and no reconnect factory was given")
                        self._replace_connection()
                        self._handshake()
                    return self._call_once(
                        method, params, request_id, idempotency_key, deadline, sent_at
                    )
                except NotPrimaryError as exc:
                    # a standby (or fenced ex-primary) refused a write; if
                    # the reconnect factory can be steered (a routing
                    # factory exposing hint(), e.g. cluster.PrimaryRouter)
                    # feed it the advertised primary and re-send — same
                    # idempotency key, so the call stays exactly-once
                    # across the redirect
                    hint = getattr(self._reconnect, "hint", None)
                    if hint is None or self._retry is None or attempt >= self._retry.max_attempts:
                        raise
                    address = exc.primary_address
                    hint(address)
                    self.connected = False
                    if address is None:
                        # no primary advertised (mid-failover): back off
                        # like a transport failure and re-probe the ring
                        retry_after = self._plan_retry(attempt, slept, deadline, exc)
                        if retry_after is None:
                            raise
                        slept += retry_after
                    obs_metrics.counter("rpc.client.reroutes", method=method).inc()
                    recorder.add_event("rpc.reroute", attempt=attempt, primary=address or "")
                    _log.info(
                        "rpc.call.reroute", method=method, attempt=attempt, primary=address or ""
                    )
                except ReproError as exc:
                    # classification goes through the policy when one is
                    # set so callers can widen/narrow it per client
                    retryable = (
                        self._retry.is_retryable(exc) if self._retry is not None else is_retryable(exc)
                    )
                    if not retryable:
                        raise
                    retry_after = self._plan_retry(attempt, slept, deadline, exc)
                    if retry_after is None:
                        raise
                    slept += retry_after
                    obs_metrics.counter("rpc.client.retries", method=method).inc()
                    recorder.add_event(
                        "rpc.retry",
                        attempt=attempt,
                        error=type(exc).__name__,
                        backoff=retry_after,
                    )
                    _log.info(
                        "rpc.call.retry",
                        method=method,
                        attempt=attempt,
                        error=type(exc).__name__,
                        backoff=retry_after,
                    )

    def _plan_retry(
        self,
        attempt: int,
        slept: float,
        deadline: Optional[float],
        exc: BaseException,
    ) -> Optional[float]:
        """Decide whether to retry after *exc*; sleep and return the delay.

        Returns ``None`` when the attempt budget is exhausted (caller
        re-raises *exc*); raises :class:`DeadlineExceeded` when the call's
        deadline has passed. The sleep is clock-aware and never overshoots
        the deadline or the policy's total sleep budget.
        """
        policy = self._retry
        if policy is None or attempt >= policy.max_attempts:
            return None
        if deadline is not None and self._clock.epoch() >= deadline:
            raise DeadlineExceeded(
                f"call deadline expired after {attempt} attempt(s)"
            ) from exc
        delay = policy.backoff(attempt)
        if policy.budget is not None:
            remaining_budget = policy.budget - slept
            if remaining_budget <= 0:
                return None
            delay = min(delay, remaining_budget)
        if deadline is not None:
            delay = min(delay, max(0.0, deadline - self._clock.epoch()))
        if policy.on_retry is not None:
            policy.on_retry(attempt, exc)
        sleep_for(self._clock, delay)
        return delay

    def _call_once(
        self,
        method: str,
        params: dict,
        request_id: int,
        idempotency_key: str,
        deadline: Optional[float],
        sent_at: Optional[float] = None,
    ) -> Any:
        if deadline is not None and self._clock.epoch() > deadline:
            raise DeadlineExceeded(f"call deadline expired before sending {method!r}")
        # the recorded rpc.call span in call() is already active; every
        # re-send travels under its (stable) span ID, like the idempotency key
        span = obs_trace.current()
        if span is None:
            span = obs_trace.child_span(self._trace_rng)
        with obs_trace.activate(span), obs_metrics.timed("rpc.client.call_seconds", method=method):
            sealed = self._context.wrap(
                make_request(
                    method,
                    params,
                    request_id,
                    trace=obs_trace.to_wire(span),
                    idempotency_key=idempotency_key,
                    deadline=deadline,
                    sent_at=sent_at,
                )
            )
            raw = self._connection.request(canonical_dumps({"kind": "sealed", "record": sealed}))
            reply = parse_payload(raw)
            if reply["kind"] == "refused":
                self.connected = False
                raise ConnectionRefused(reply.get("reason", "connection dropped"))
            if reply["kind"] != "sealed":
                raise ProtocolError(f"unexpected reply kind {reply['kind']!r}")
            try:
                response = parse_payload(self._context.unwrap(reply["record"]))
            except ChannelError:
                # the channel lost sync (e.g. a response was lost and the
                # sequence gap closed the wrong way): unusable from here on
                self.connected = False
                raise
            if response["kind"] == "error":
                obs_metrics.counter("rpc.client.remote_errors", method=method).inc()
                _log.debug(
                    "rpc.call.remote_error",
                    method=method,
                    error=response.get("error_type", ""),
                )
                raise_remote_error(response)
            if response["kind"] != "response" or response.get("id") != request_id:
                raise ProtocolError("response/request id mismatch")
            _log.debug("rpc.call", method=method)
            return response.get("result")

    def close(self) -> None:
        self.connected = False
        self._connection.close()

    def __enter__(self) -> "RPCClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
