"""C10K — front-end connection sweep: ops/s and p99 vs concurrency.

One asyncio event loop serving 10,000 concurrent connections is the
tentpole claim of the front-end work; this bench measures it. Each sweep
point opens N concurrent connections against a server backend (``threads``
= thread-per-connection :class:`TCPServer`, ``async`` = single-loop
:class:`AsyncTCPServer`), holds them all open simultaneously (asserted
against the server's own ``net.connections_open`` gauge), then ping-pongs
a fixed total budget of echo requests split across the connections.

The handler is a deliberately lightweight three-phase echo — no GSI, no
crypto — so the sweep measures exactly the front end (accept path, frame
reader, dispatch queue, response writer), not RSA. The client driver is
asyncio for both backends: only the server side is under test.

Per sweep point the sidecar records a ``net.c10k.request_seconds``
latency histogram (p50/p95/p99 land in BENCH_TRAJECTORY.json via
``trajectory.py``'s dominant-histogram join) and a
``net.c10k.ops_per_second`` gauge.

The shape this sweep exists to show (single-core numbers, measured here):
thread-per-connection *decays* as concurrency grows — every parked
connection still costs a stack and a scheduler slot, so ops/s falls from
~22k at 500 threads to ~9k at 5,000 — while the event loop holds its
throughput flat into the thousands and keeps serving at the fd-capped
~10k. The closing scenario asserts that crossover: at the 5,000-connection
claim point the async backend moves at least as many ops/s as the
threaded backend at the same concurrency (0.8x slack for single-core CI
scheduler noise).

The threaded sweep stops at 5,000 — past that, ten thousand 8 MB thread
stacks are the pathology this bench demonstrates, not a configuration
worth timing. The async top point targets 10,000 but is capped by the
process fd limit (2 fds per loopback connection + headroom); the actual
cap is recorded in the scenario id and in ``net.c10k.sweep_capped``,
never silently truncated.
"""

import asyncio
import resource
import time

import pytest

from repro.net import frontend_snapshot
from repro.net.aio import AsyncTCPServer
from repro.net.message import frame
from repro.net.tcp import TCPServer
from repro.obs import metrics as obs_metrics

#: total echo round trips per sweep point, split evenly across the
#: connections — constant work per point so ops/s is comparable across N
TOTAL_REQUESTS = 20_000
SMOKE_REQUESTS = 1_000
CONNECT_PARALLELISM = 256  # simultaneous connects (listen backlog is 512)
LATENCY_BUCKETS = (0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
                   0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
REQUIRED_RATIO = 0.8  # async@max vs threads@max, slack for 1-core CI noise


def _fd_capped(target: int) -> int:
    """Largest connection count the fd budget allows (2 fds per loopback
    connection — client end + server end — plus headroom for the loop,
    pools, and pytest itself)."""
    soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    return min(target, max(1_000, (soft - 512) // 2))


C10K_TOP = _fd_capped(10_000)

#: full sweep (``--benchmark-only`` / trajectory runs); threads first so
#: the closing comparison scenario has its baseline
FULL_SWEEP = [("threads", 500), ("threads", 2_000), ("threads", 5_000),
              ("async", 1_000), ("async", 5_000), ("async", C10K_TOP)]
#: reduced sweep under ``make bench-smoke`` (--benchmark-disable):
#: same code paths, small enough to finish in seconds
SMOKE_SWEEP = [("threads", 50), ("async", 50), ("async", 200)]

#: (backend, connections) -> ops/s, filled by the sweep scenarios and
#: read by the closing comparison scenario
RESULTS: dict[tuple[str, int], float] = {}


class SweepHandler:
    """Minimal three-phase echo: the front end is the thing under test."""

    peer_subject = "/O=Bench/CN=loadgen"

    def prepare(self, payload):
        return ("call", {"id": 0, "payload": payload})

    def complete(self, request):
        return request["payload"]

    def seal(self, response):
        return response

    def close(self):
        pass


def make_server(backend: str, connections: int):
    if backend == "async":
        # handshake_timeout must outlast the connect ramp: every
        # connection idles un-established until the last one is open
        return AsyncTCPServer(
            SweepHandler, workers=2,
            dispatch_queue=max(1_024, 2 * connections),
            handshake_timeout=300.0,
        )
    return TCPServer(SweepHandler)


async def _drive(address, connections: int, total_requests: int, observe) -> float:
    """Open *connections* concurrently, hold them all open, then ping-pong
    the request budget. Returns the wall-clock seconds of the request
    phase (connect ramp excluded — it is admission, not throughput)."""
    per_conn = max(1, total_requests // connections)
    payload = frame(b"ping")
    gate = asyncio.Semaphore(CONNECT_PARALLELISM)
    all_open = asyncio.Event()
    go = asyncio.Event()
    opened = 0

    async def ping_pong(reader, writer):
        writer.write(payload)
        await writer.drain()
        header = await reader.readexactly(4)
        await reader.readexactly(int.from_bytes(header, "big"))

    async def one_connection(is_warmup_conn):
        nonlocal opened
        async with gate:
            reader, writer = await asyncio.open_connection(*address)
        opened += 1
        if opened == connections:
            all_open.set()
        try:
            if is_warmup_conn:
                # unmeasured warm-up before the herd: settles the server's
                # adaptive-offload averages and the interpreter's caches so
                # the timed phase measures steady state, not cold start
                for _ in range(50):
                    await ping_pong(reader, writer)
                warmed.set()
            await go.wait()
            for _ in range(per_conn):
                started = time.perf_counter()
                await ping_pong(reader, writer)
                observe(time.perf_counter() - started)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    warmed = asyncio.Event()
    tasks = [asyncio.create_task(one_connection(i == 0)) for i in range(connections)]
    try:
        await asyncio.wait_for(all_open.wait(), timeout=120.0)
        await asyncio.wait_for(warmed.wait(), timeout=60.0)
        # every client connection is open; the server must agree before
        # the clock starts — this is the "N *concurrent* connections"
        # claim, not N sequential ones
        deadline = time.monotonic() + 60.0
        while frontend_snapshot()["connections_open"] < connections:
            if time.monotonic() > deadline:
                raise AssertionError(
                    f"server gauge never reached {connections} open connections "
                    f"(at {frontend_snapshot()['connections_open']})"
                )
            await asyncio.sleep(0.05)
        started = time.perf_counter()
        go.set()
        await asyncio.gather(*tasks)
        return time.perf_counter() - started
    finally:
        go.set()
        for task in tasks:
            task.cancel()


def run_sweep_point(backend: str, connections: int, total_requests: int) -> float:
    """One sweep point: returns aggregate ops/s, records latency + ops/s
    instruments into the scenario's metric sidecar."""
    histogram = obs_metrics.histogram(
        "net.c10k.request_seconds", buckets=LATENCY_BUCKETS,
        backend=backend, connections=connections,
    )
    server = make_server(backend, connections)
    try:
        elapsed = asyncio.run(
            _drive(server.address, connections, total_requests, histogram.observe)
        )
    finally:
        server.close()
    ops = histogram.count / elapsed if elapsed > 0 else 0.0
    obs_metrics.gauge(
        "net.c10k.ops_per_second", backend=backend, connections=connections
    ).set(round(ops, 1))
    RESULTS[(backend, connections)] = ops
    return ops


def _sweep_points(config):
    full = config.getoption("--benchmark-disable", default=False) is False
    return FULL_SWEEP if full else SMOKE_SWEEP


def pytest_generate_tests(metafunc):
    if "sweep_point" in metafunc.fixturenames:
        points = _sweep_points(metafunc.config)
        metafunc.parametrize(
            "sweep_point", points,
            ids=[f"{backend}-{conns}" for backend, conns in points],
        )


def test_connection_sweep(benchmark, sweep_point):
    backend, connections = sweep_point
    total = TOTAL_REQUESTS if getattr(benchmark, "enabled", True) else SMOKE_REQUESTS
    if connections < 10_000 and (backend, connections) == ("async", C10K_TOP):
        obs_metrics.gauge("net.c10k.sweep_capped", backend=backend).set(connections)
    ops = benchmark.pedantic(
        run_sweep_point, args=(backend, connections, total), rounds=1, iterations=1
    )
    if getattr(benchmark, "enabled", True):
        assert (ops or RESULTS[(backend, connections)]) > 0


def test_async_sustains_threaded_throughput(benchmark):
    """The acceptance claim: at the threaded backend's own maximum swept
    concurrency (5,000 connections on a full run — the point where
    thread-per-connection has already lost over half its peak throughput
    to stacks and scheduler churn), the single event loop moves at least
    as many ops/s. The fd-capped ~10k point is recorded too; the claim
    there is *sustaining* the connections, which no thread-per-connection
    configuration on this box can attempt at all."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep collectible under --benchmark-only
    threads_pts = {n: ops for (b, n), ops in RESULTS.items() if b == "threads"}
    async_pts = {n: ops for (b, n), ops in RESULTS.items() if b == "async"}
    if not threads_pts or not async_pts:
        pytest.skip("sweep points filtered out; nothing to compare")
    threads_max_n = max(threads_pts)
    claim_candidates = [n for n in async_pts if n >= threads_max_n]
    if not claim_candidates or threads_max_n < 5_000:
        pytest.skip("reduced (smoke) sweep: the C10k claim needs the full run")
    claim_n = min(claim_candidates)
    assert async_pts[claim_n] >= REQUIRED_RATIO * threads_pts[threads_max_n], (
        f"async@{claim_n} conns: {async_pts[claim_n]:.0f} ops/s, "
        f"threads@{threads_max_n} conns: {threads_pts[threads_max_n]:.0f} ops/s "
        f"(required ratio {REQUIRED_RATIO})"
    )
