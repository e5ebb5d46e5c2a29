"""In-process transport: deterministic message delivery with fault injection.

Services register on an :class:`InProcessNetwork` under string addresses
(e.g. ``"gridbank.vo-a.example.org"``). A client "connection" delivers each
request payload synchronously to the service's per-connection handler and
returns the response — no threads, no sockets, fully deterministic, which
is what protocol tests and the discrete-event benchmarks need.

Every delivery updates :class:`TransportStats` (message and byte counters —
the unit several paper-shaped benchmarks report) and consults an optional
:class:`FaultPlan` that can drop requests or responses, inject latency
(advancing a :class:`~repro.util.gbtime.VirtualClock`, which interacts
with request deadlines), deliver a request *twice* (the secure channel's
anti-replay sequencing refuses the duplicate and kills the connection —
exactly what a replayed TCP segment would do to a real session), or reset
the connection outright. A seeded :class:`FaultSchedule` re-configures the
plan at virtual-clock instants, so whole fault storms replay exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from repro.errors import Overloaded, TransportError
from repro.util.gbtime import Clock

__all__ = [
    "TransportStats",
    "FaultPlan",
    "FaultPhase",
    "FaultSchedule",
    "InProcessNetwork",
    "ClientConnection",
]


@dataclass
class TransportStats:
    """Counters accumulated across one network or one connection."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    drops: int = 0
    duplicates: int = 0
    resets: int = 0
    latency_injections: int = 0
    connections: int = 0
    overloads: int = 0

    def record_send(self, nbytes: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += nbytes

    def record_receive(self, nbytes: int) -> None:
        self.messages_received += 1
        self.bytes_received += nbytes

    def snapshot(self) -> dict:
        return {
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "drops": self.drops,
            "duplicates": self.duplicates,
            "resets": self.resets,
            "latency_injections": self.latency_injections,
            "connections": self.connections,
            "overloads": self.overloads,
        }


@dataclass(frozen=True)
class FaultPhase:
    """One step of a :class:`FaultSchedule`: at epoch *at*, apply *settings*."""

    at: float
    settings: dict


class FaultSchedule:
    """Clock-driven reconfiguration of a :class:`FaultPlan`.

    Phases are sorted by epoch; on every delivery the plan applies all
    phases whose time has come (``phase.at <= clock.epoch()``), updating
    its own probability fields from ``phase.settings``. Built from a seed
    and a clock, a schedule makes an entire fault storm reproducible.
    """

    def __init__(self, phases: list[FaultPhase]) -> None:
        self._phases = sorted(phases, key=lambda p: p.at)
        self._next = 0

    def due(self, epoch: float) -> list[FaultPhase]:
        """Pop and return every phase scheduled at or before *epoch*."""
        fired: list[FaultPhase] = []
        while self._next < len(self._phases) and self._phases[self._next].at <= epoch:
            fired.append(self._phases[self._next])
            self._next += 1
        return fired

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self._phases)


@dataclass
class FaultPlan:
    """Probabilistic fault injection for the in-process network.

    All probabilities default to zero, so a bare plan is a no-op. With a
    ``clock`` attached, ``latency_probability`` injects a uniform delay in
    ``latency_range`` by *advancing* the clock (free in virtual time, and
    the only way an in-process request can outlive its deadline), and a
    ``schedule`` mutates the plan's own fields at programmed instants.
    """

    drop_request_probability: float = 0.0
    drop_response_probability: float = 0.0
    duplicate_request_probability: float = 0.0
    reset_probability: float = 0.0
    overload_probability: float = 0.0
    latency_probability: float = 0.0
    latency_range: tuple[float, float] = (0.05, 0.5)
    clock: Optional[Clock] = None
    schedule: Optional[FaultSchedule] = None
    rng: random.Random = field(default_factory=random.Random)

    def on_delivery(self) -> float:
        """Run per-delivery clock work: schedule phases, then latency.

        Returns the injected latency in seconds (0.0 when none fired).
        """
        if self.schedule is not None and self.clock is not None:
            for phase in self.schedule.due(self.clock.epoch()):
                for name, value in phase.settings.items():
                    if not hasattr(self, name):
                        raise TransportError(f"fault schedule names unknown field {name!r}")
                    setattr(self, name, value)
        if self.latency_probability > 0 and self.rng.random() < self.latency_probability:
            low, high = self.latency_range
            delay = self.rng.uniform(low, high)
            advance = getattr(self.clock, "advance", None)
            if callable(advance):
                advance(delay)
            return delay
        return 0.0

    def drop_request(self) -> bool:
        return self.drop_request_probability > 0 and self.rng.random() < self.drop_request_probability

    def drop_response(self) -> bool:
        return self.drop_response_probability > 0 and self.rng.random() < self.drop_response_probability

    def duplicate_request(self) -> bool:
        return (
            self.duplicate_request_probability > 0
            and self.rng.random() < self.duplicate_request_probability
        )

    def reset(self) -> bool:
        return self.reset_probability > 0 and self.rng.random() < self.reset_probability

    def overload(self) -> bool:
        """Should this delivery be shed as the real front end would shed it
        (dispatch queue full → typed :class:`~repro.errors.Overloaded`
        before any server effect)? Schedulable by name like every other
        probability field, which is how the chaos harness stages overload
        storms at programmed virtual-clock instants."""
        return self.overload_probability > 0 and self.rng.random() < self.overload_probability


class ConnectionHandler(Protocol):
    """Server-side per-connection state machine (see repro.net.rpc)."""

    def handle(self, payload: bytes) -> Optional[bytes]: ...

    def close(self) -> None: ...


class ClientConnection:
    """Client end of a synchronous in-process connection: each
    :meth:`request` runs the service's handler inline."""

    def __init__(self, handler: ConnectionHandler, network: "InProcessNetwork", address: str) -> None:
        self._handler = handler
        self._network = network
        self._address = address
        self._closed = False
        self._broken = False
        self.stats = TransportStats()

    @property
    def peer(self) -> tuple:
        """The service this connection reached, as a real socket's
        ``getpeername()`` would say it: the same address on another
        network is another server."""
        return id(self._network), self._address

    @property
    def healthy(self) -> bool:
        """False once the connection is closed, reset, or served its last
        response — a retrying client must reconnect rather than reuse it."""
        return not (self._closed or self._broken)

    def request(self, payload: bytes) -> bytes:
        """Deliver *payload*, return the service's response payload."""
        if self._closed:
            raise TransportError("connection is closed")
        if self._broken:
            raise TransportError("connection reset by network")
        stats = self._network.stats
        faults = self._network.faults
        if faults is not None:
            if faults.on_delivery() > 0.0:
                stats.latency_injections += 1
            if faults.reset():
                self._broken = True
                stats.resets += 1
                self._handler.close()
                raise TransportError("connection reset by network")
        stats.record_send(len(payload))
        self.stats.record_send(len(payload))
        if faults is not None and faults.drop_request():
            stats.drops += 1
            raise TransportError("request dropped by network")
        if faults is not None and faults.overload():
            # the front end shed the frame before the handler saw it —
            # exactly where the real dispatch-queue shed happens, so the
            # channel state matches a dropped request (the client re-wraps
            # on retry; the strictly-increasing sequence check tolerates
            # the gap) and no server effect can have occurred
            stats.overloads += 1
            raise Overloaded("request shed by overloaded front end (injected)")
        response = self._handler.handle(payload)
        if faults is not None and response is not None and faults.duplicate_request():
            # the network delivered the same frame twice: the secure
            # channel's strictly-increasing sequence check refuses the
            # replay and closes the session — subsequent requests on this
            # connection fail, forcing the client through a reconnect.
            stats.duplicates += 1
            self._handler.handle(payload)
        if response is None:
            self._broken = True
            raise TransportError("service closed the connection")
        if faults is not None and faults.drop_response():
            stats.drops += 1
            raise TransportError("response dropped by network")
        stats.record_receive(len(response))
        self.stats.record_receive(len(response))
        return response

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._handler.close()


class InProcessNetwork:
    """A registry of services plus shared stats and fault plan."""

    def __init__(self, faults: Optional[FaultPlan] = None) -> None:
        self._services: dict[str, Callable[[], ConnectionHandler]] = {}
        self.stats = TransportStats()
        self.faults = faults

    def listen(self, address: str, handler_factory: Callable[[], ConnectionHandler]) -> None:
        """Register a service; *handler_factory* makes one handler per connection."""
        if address in self._services:
            raise TransportError(f"address already in use: {address!r}")
        self._services[address] = handler_factory

    def unlisten(self, address: str) -> None:
        self._services.pop(address, None)

    def connect(self, address: str) -> ClientConnection:
        factory = self._services.get(address)
        if factory is None:
            raise TransportError(f"connection refused: no service at {address!r}")
        self.stats.connections += 1
        return ClientConnection(factory(), self, address)

    def addresses(self) -> list[str]:
        return sorted(self._services)
