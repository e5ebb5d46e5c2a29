"""The four gridbench workloads: seeded inputs, drivers, expected effects.

Every workload receives only inputs generated from ``--seed`` and drives the
served bank through the paper's sec 5.2 client surface
(:class:`repro.core.api.GridBankAPI` over ``RPCClient`` +
``TCPClientConnection``; :class:`repro.bank.shard.ShardRouter` for the
sharded run) from one load-generator process with at most two driver
threads — a fixed count, not one derived from ``nproc``, so runs compare
across machines.

===============  =========  ===================================================
name             loop       why it is here
===============  =========  ===================================================
direct_tcp       closed, 1  the headline write path in steady state on an aged
                            home (reply cache evicting, WAL, signing, locks)
open_read_mix    open, 25   90% reads bypass WAL/reply cache/signing/exclusive
                 req/s      locks: a write-path change must show nothing here;
                            paced arrivals, timed from their due time
job_cycle        closed     Fig. 1 pay-after-use: handshake per job, cheque
                            sign + verify, instrument registry
shard_cross      closed, 1  the only run where 2PC, intents and the router work
===============  =========  ===================================================
"""

from __future__ import annotations

import queue
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.bank.shard import ShardRouter
from repro.cli import _bank_credential, _tcp_connect
from repro.core.api import GridBankAPI
from repro.errors import ReproError, SettlementError
from repro.net.rpc import RPCClient
from repro.payments.direct import TransferConfirmation
from repro.rur import ResourceUsageRecord, UsageVector, to_blob
from repro.util.gbtime import Timestamp
from repro.util.money import Credits

import homes
from harness import free_port

OPEN_RATE = 25.0           # req/s offered on open_read_mix (utilisation ~0.1 on the reference box)
OPEN_JITTER = 0.1          # seeded shift of each due time, as a share of the 1/OPEN_RATE gap
LATE_LIMIT = 0.200         # s after due time before a request counts as late (~4x p95)
CROSS_MIX = 0.30           # share of cross-shard transfers on shard_cross
SAMPLE_EVERY = 50          # keep every n-th signed instrument for the cert check
STATEMENT_END = Timestamp(4102444800.0)  # 2100-01-01: "the account's full history"

clock = time.perf_counter


# -- seeded inputs ----------------------------------------------------------------


def transfer_ops(seed: int, stream: str, drawers: list, recipients: list) -> Iterator[tuple]:
    rng = random.Random(f"{seed}:transfer:{stream}")
    while True:
        yield ("transfer", rng.choice(drawers), rng.choice(recipients), rng.randint(1, 5))


def mixed_ops(seed: int, stream: str, drawers: list, recipients: list) -> Iterator[tuple]:
    """65% account_details, 25% account_statement, 10% direct transfers."""
    rng = random.Random(f"{seed}:mix:{stream}")
    accounts = drawers + recipients
    while True:
        roll = rng.random()
        if roll < 0.65:
            yield ("details", rng.choice(accounts), "", 0)
        elif roll < 0.90:
            yield ("statement", rng.choice(accounts), "", 0)
        else:
            yield ("transfer", rng.choice(drawers), rng.choice(recipients), rng.randint(1, 5))


def open_schedule(seed: int, seconds: float, drawers: list, recipients: list) -> list[tuple]:
    """``(due_offset_s, op)`` for a constant-rate stream of exactly
    ``OPEN_RATE * seconds`` requests: one per ``1 / OPEN_RATE`` gap, each
    shifted by a seeded jitter of at most ``OPEN_JITTER`` of the gap, holding
    exactly 65% details / 25% statements / 10% transfers in seeded order.
    Rate and composition are fixed, so storage and tail numbers compare
    across seeds; order, accounts, amounts and jitter vary.

    Paced, not Poisson: the 40 ms gap is twice the slowest request (a ~20 ms
    statement), so two requests meet only when something stalls. A
    Poisson stream of 20 req/s on the 12,000-transfer home put another
    arrival inside 43% of its ~30 ms statements, and p95_ms — the 80th
    percentile of the statement class — then counted those collisions: over
    ten seeds of identical code its middle half spread over 25-40% of the
    median (README, "Where this differs")."""
    count = int(round(OPEN_RATE * seconds))
    rng = random.Random(f"{seed}:arrivals")
    statements, transfers = round(count * 0.25), round(count * 0.10)
    kinds = ["statement"] * statements + ["transfer"] * transfers
    kinds += ["details"] * (count - len(kinds))
    rng.shuffle(kinds)
    accounts = drawers + recipients
    gap = seconds / count
    schedule = []
    for slot, kind in enumerate(kinds, start=1):
        due = (slot + rng.uniform(-OPEN_JITTER, OPEN_JITTER)) * gap
        if kind == "transfer":
            op = (kind, rng.choice(drawers), rng.choice(recipients), rng.randint(1, 5))
        else:
            op = (kind, rng.choice(accounts), "", 0)
        schedule.append((due, op))
    return schedule


def job_ops(seed: int, stream: str, accounts: list) -> Iterator[tuple]:
    """``(account, cheque_amount, charge, cpu_seconds)`` per Fig. 1 job."""
    rng = random.Random(f"{seed}:jobs:{stream}")
    index = 0
    while True:
        amount = rng.randint(5, 20)
        yield (rng.choice(accounts), amount, rng.randint(1, amount), rng.uniform(1.0, 600.0), index)
        index += 1


def shard_ops(seed: int, stream: str, by_shard: dict) -> Iterator[tuple]:
    rng = random.Random(f"{seed}:shard:{stream}")
    sids = sorted(by_shard)
    while True:
        home = rng.choice(sids)
        drawer = rng.choice(by_shard[home])
        cross = rng.random() < CROSS_MIX
        if cross:
            recipient = rng.choice(by_shard[rng.choice([s for s in sids if s != home])])
        else:
            recipient = rng.choice([a for a in by_shard[home] if a != drawer])
        yield ("cross" if cross else "local", drawer, recipient, rng.randint(1, 5))


def rur_blob(inputs: homes.Inputs, job: tuple) -> bytes:
    _account, _amount, _charge, cpu_seconds, index = job
    return to_blob(ResourceUsageRecord(
        user_certificate_name=inputs.consumer_subject,
        user_host="consumer.vo-bench",
        job_id=f"job-{index}",
        application_name="gridbench",
        job_start_epoch=1_000_000.0,
        job_end_epoch=1_000_000.0 + cpu_seconds,
        resource_certificate_name=inputs.provider_subject,
        resource_host="gsp.vo-bench",
        usage=UsageVector(cpu_time_s=cpu_seconds, wall_clock_s=cpu_seconds),
    ))


# -- what one phase of driving produced ----------------------------------------------


@dataclass
class Tally:
    """Per-thread record of attempts, latencies and acknowledged effects."""

    ok: list = field(default_factory=list)          # (finish_time, latency_s, class)
    attempted: int = 0
    failed: int = 0
    parked: int = 0
    late: int = 0
    gen_late: list = field(default_factory=list)    # open loop: send time - due time
    window: tuple = ()                              # open loop: (first due time, nominal end)
    steps: dict = field(default_factory=dict)       # step name -> [seconds]
    deltas: dict = field(default_factory=dict)      # account -> Credits acknowledged
    uncertain: set = field(default_factory=set)     # accounts touched by a failed write
    samples: list = field(default_factory=list)     # signed instruments to re-verify
    errors: list = field(default_factory=list)

    def moved(self, drawer: str, recipient: str, amount: Credits) -> None:
        self.deltas[drawer] = self.deltas.get(drawer, Credits(0)) - amount
        self.deltas[recipient] = self.deltas.get(recipient, Credits(0)) + amount

    def failure(self, exc: BaseException, *accounts: str) -> None:
        self.failed += 1
        self.uncertain.update(accounts)
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def step(self, name: str, seconds: float) -> None:
        self.steps.setdefault(name, []).append(seconds)

    def merge(self, other: "Tally") -> "Tally":
        self.ok.extend(other.ok)
        self.attempted += other.attempted
        self.failed += other.failed
        self.parked += other.parked
        self.late += other.late
        self.gen_late.extend(other.gen_late)
        for name, values in other.steps.items():
            self.steps.setdefault(name, []).extend(values)
        for account, delta in other.deltas.items():
            self.deltas[account] = self.deltas.get(account, Credits(0)) + delta
        self.uncertain |= other.uncertain
        self.samples.extend(other.samples)
        self.errors.extend(other.errors[: max(0, 5 - len(self.errors))])
        return self


def run_threads(workers: list[Callable[[], None]]) -> None:
    """Run the driver threads to completion; a crashed driver is a bug in
    the benchmark, so its exception propagates instead of vanishing."""
    with ThreadPoolExecutor(max_workers=len(workers)) as pool:
        for future in [pool.submit(worker) for worker in workers]:
            future.result()


# -- client plumbing ---------------------------------------------------------------------


def open_api(dial: Callable[[str], object], address: str, credential, store) -> GridBankAPI:
    client = RPCClient(dial(address), credential, store)
    client.connect()
    return GridBankAPI(client)


@contextmanager
def bank_client(dial: Callable[[str], object], inputs: homes.Inputs, address: str) -> Iterator[RPCClient]:
    """A session holding the bank's own credential: what authorizes the
    operator RPCs (``Shard.*``, ``Diag.*``, ``Replication.Status``)."""
    identity, store = _bank_credential(next(iter(inputs.homes.values())))
    client = RPCClient(dial(address), identity, store)
    client.connect()
    try:
        yield client
    finally:
        client.close()


class Workload:
    """Base: one or two served banks, a warm-up and a measured phase.

    ``dial`` turns ``host:port`` into a connection object; the served runs
    use real TCP, the in-process layer ledger swaps in its own.
    """

    name = ""
    loop = "closed"
    setup_trials = 5  # cold starts per run; setup_s and recovery_s are their medians
    dial = staticmethod(_tcp_connect)

    def build(self, work: Path, seed: int, smoke: bool) -> homes.Inputs:
        raise NotImplementedError

    def connect(self, inputs: homes.Inputs, addresses: dict, seed: int) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def ops(self, inputs: homes.Inputs, seed: int, stream: str) -> Iterator[tuple]:
        """The seeded op stream *stream* (``"warm"`` or ``"c0"``)."""
        raise NotImplementedError

    def execute(self, inputs: homes.Inputs, op: tuple, tally: Tally) -> str | None:
        """Run one op start to finish on this thread; its latency class
        when it succeeded, None when the bank refused or lost it."""
        raise NotImplementedError

    def probe(self, inputs: homes.Inputs, addresses: dict) -> None:
        """First successful ``account_details`` on every served home."""
        credential, store = inputs.credentials("consumer")
        for sid, address in addresses.items():
            account = (inputs.by_shard.get(sid) or inputs.drawers)[0]
            api = open_api(self.dial, address, credential, store)
            try:
                api.account_details(account)
            finally:
                api.close()

    def closed_loop(self, inputs, ops: Iterator[tuple], seconds: float, tally: Tally) -> None:
        deadline = clock() + seconds
        while True:
            started = clock()
            if started >= deadline:
                return
            kind = self.execute(inputs, next(ops), tally)
            if kind is not None:
                finished = clock()
                tally.ok.append((finished, finished - started, kind))

    def warmup(self, inputs: homes.Inputs, seed: int, seconds: float) -> Tally:
        tally = Tally()
        self.closed_loop(inputs, self.ops(inputs, seed, "warm"), seconds, tally)
        return tally

    def measure(self, inputs: homes.Inputs, seed: int, seconds: float) -> Tally:
        tally = Tally()
        self.closed_loop(inputs, self.ops(inputs, seed, "c0"), seconds, tally)
        return tally


class _SingleBank(Workload):
    """API sessions against one aged bank."""

    sessions = 1
    aged_transfers = homes.AGED_TRANSFERS
    setup_trials = 3  # this aged home takes ~2 s per cold start

    def build(self, work, seed, smoke):
        count = homes.SMOKE_AGED_TRANSFERS if smoke else self.aged_transfers
        return homes.build_aged(work, seed, count)

    def connect(self, inputs, addresses, seed):
        credential, store = inputs.credentials("consumer")
        self.apis = [
            open_api(self.dial, addresses["bank"], credential, store) for _ in range(self.sessions)
        ]

    def close(self):
        for api in getattr(self, "apis", []):
            api.close()
        self.apis = []

    def execute(self, inputs, op, tally, api=None):
        api = api if api is not None else self.apis[0]
        kind, a, b, amount = op
        tally.attempted += 1
        try:
            if kind == "transfer":
                credits = Credits(amount)
                confirmation = api.request_direct_transfer(a, b, credits)
                tally.moved(a, b, credits)
                if confirmation.transaction_id % SAMPLE_EVERY == 0:
                    tally.samples.append(("confirmation", confirmation.to_dict()))
            elif kind == "details":
                if api.account_details(a)["AccountID"] != a:
                    raise ReproError("account_details answered for another account")
            else:
                statement = api.account_statement(a, Timestamp(0.0), STATEMENT_END)
                if statement["account"]["AccountID"] != a:
                    raise ReproError("account_statement answered for another account")
        except ReproError as exc:
            tally.failure(exc, *((a, b) if kind == "transfer" else ()))
            return None
        return kind


class DirectTcp(_SingleBank):
    """One closed-loop client. The issue asked for two; two concurrent
    writers at the reply-cache bound fail ~0.2% of transfers at this commit
    (README, finding F1), and a workload may not contain failing ops."""

    name = "direct_tcp"

    def ops(self, inputs, seed, stream):
        return transfer_ops(seed, stream, inputs.drawers, inputs.recipients)


class OpenReadMix(_SingleBank):
    name = "open_read_mix"
    loop = "open"
    sessions = 2
    aged_transfers = homes.OPEN_AGED_TRANSFERS
    setup_trials = 5

    def ops(self, inputs, seed, stream):
        return mixed_ops(seed, stream, inputs.drawers, inputs.recipients)

    def measure(self, inputs, seed, seconds):
        schedule = open_schedule(seed, seconds, inputs.drawers, inputs.recipients)
        tallies = [Tally(), Tally()]
        cursor = iter(range(len(schedule)))
        cursor_lock = threading.Lock()
        origin = clock() + 0.05  # both senders are parked before the first due time

        def sender(api: GridBankAPI, tally: Tally) -> None:
            while True:
                with cursor_lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due_offset, op = schedule[index]
                due = origin + due_offset
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                tally.gen_late.append(clock() - due)
                done = self.execute(inputs, op, tally, api)
                finished = clock()
                if done is not None:
                    tally.ok.append((finished, finished - due, op[0]))
                if done is None or finished - due > LATE_LIMIT:
                    tally.late += 1

        run_threads([lambda i=i: sender(self.apis[i], tallies[i]) for i in range(2)])
        merged = tallies[0].merge(tallies[1])
        merged.window = (origin, origin + seconds)
        return merged


class JobCycle(Workload):
    name = "job_cycle"

    def build(self, work, seed, smoke):
        return homes.build_fresh(work, seed)

    def connect(self, inputs, addresses, seed):
        self.address = addresses["bank"]
        self.consumer = inputs.credentials("consumer")
        self.provider = open_api(self.dial, self.address, *inputs.credentials("provider"))

    def close(self):
        provider, self.provider = getattr(self, "provider", None), None
        if provider is not None:
            provider.close()

    def ops(self, inputs, seed, stream):
        return job_ops(seed, stream, inputs.drawers)

    def issue(self, inputs, job, tally: Tally):
        """Consumer half: new GSI session, request the cheque, close."""
        account, amount, _charge, _cpu, _index = job
        started = clock()
        api = open_api(self.dial, self.address, *self.consumer)
        connected = clock()
        try:
            cheque = api.request_cheque(account, inputs.provider_subject, Credits(amount))
        finally:
            issued = clock()
            api.close()
        tally.step("connect", connected - started)
        tally.step("issue", issued - connected)
        return cheque

    def redeem(self, inputs, job, cheque, tally: Tally) -> None:
        """Provider half: build the RUR, redeem on the long-lived session."""
        account, _amount, charge, _cpu, _index = job
        blob = rur_blob(inputs, job)
        before = clock()
        receipt = self.provider.redeem_cheque(cheque, inputs.recipients[0], Credits(charge), blob)
        tally.step("redeem", clock() - before)
        if receipt["cheque_id"] != cheque.cheque_id or receipt["paid"] != Credits(charge):
            raise ReproError(f"redeem receipt does not match cheque {cheque.cheque_id}")
        tally.moved(account, inputs.recipients[0], Credits(charge))
        if receipt["transaction_id"] % SAMPLE_EVERY == 0:
            tally.samples.append(("cheque", cheque.to_dict()))

    def execute(self, inputs, op, tally):
        tally.attempted += 1
        try:
            self.redeem(inputs, op, self.issue(inputs, op, tally), tally)
        except ReproError as exc:
            tally.failure(exc, op[0], inputs.recipients[0])
            return None
        return "job"

    def measure(self, inputs, seed, seconds):
        """Consumer thread issues, provider thread redeems; one op = one job,
        timed from the consumer's connect to the provider's receipt."""
        consumer, provider = Tally(), Tally()
        # depth 1: the consumer may run one job ahead of the provider, no further
        handoff: queue.Queue = queue.Queue(maxsize=1)
        jobs = self.ops(inputs, seed, "c0")

        def consume() -> None:
            deadline = clock() + seconds
            try:
                while True:
                    started = clock()
                    if started >= deadline:
                        return
                    job = next(jobs)
                    consumer.attempted += 1
                    try:
                        cheque = self.issue(inputs, job, consumer)
                    except ReproError as exc:
                        consumer.failure(exc, job[0])
                        continue
                    handoff.put((job, started, cheque))
            finally:
                handoff.put(None)

        def provide() -> None:
            while True:
                item = handoff.get()
                if item is None:
                    return
                job, started, cheque = item
                try:
                    self.redeem(inputs, job, cheque, provider)
                except ReproError as exc:
                    provider.failure(exc, job[0], inputs.recipients[0])
                    continue
                finished = clock()
                provider.ok.append((finished, finished - started, "job"))

        run_threads([consume, provide])
        return consumer.merge(provider)


class ShardCross(Workload):
    name = "shard_cross"

    def build(self, work, seed, smoke):
        return homes.build_sharded(work, seed, {"s1": free_port(), "s2": free_port()})

    def connect(self, inputs, addresses, seed):
        credential, store = inputs.credentials("consumer")
        self.router = ShardRouter(
            credential, store, self.dial, inputs.shard_map, rng=random.Random(seed)
        )
        for sid in sorted(addresses):
            self.router.client_for(sid)  # dial both groups before the clock starts

    def close(self):
        router, self.router = getattr(self, "router", None), None
        if router is not None:
            router.close()

    def ops(self, inputs, seed, stream):
        return shard_ops(seed, stream, inputs.by_shard)

    def execute(self, inputs, op, tally):
        kind, drawer, recipient, amount = op
        credits = Credits(amount)
        tally.attempted += 1
        try:
            result = self.router.transfer(drawer, recipient, credits)
            confirmation = TransferConfirmation.from_dict(result["confirmation"])
            if confirmation.payload["amount"] != credits:
                raise ReproError("confirmation carries another amount")
        except ReproError as exc:
            # SettlementError = parked: funds stay reserved under a prepared
            # intent the coordinator's resolver drives home — never re-sent here
            tally.parked += isinstance(exc, SettlementError)
            tally.failure(exc, drawer, recipient)
            return None
        tally.moved(drawer, recipient, credits)
        if confirmation.transaction_id % SAMPLE_EVERY == 0:
            tally.samples.append(("confirmation", confirmation.to_dict()))
        return kind

    def pending_intents(self, inputs: homes.Inputs, addresses: dict) -> int:
        """Resolve, then count, prepared intents on every group (bank credential)."""
        pending = 0
        for address in addresses.values():
            with bank_client(self.dial, inputs, address) as client:
                client.call("Shard.Resolve")
                pending += int(client.call("Shard.Status")["prepared_intents"])
        return pending


WORKLOADS: dict[str, Callable[[], Workload]] = {
    cls.name: cls for cls in (DirectTcp, OpenReadMix, JobCycle, ShardCross)
}
