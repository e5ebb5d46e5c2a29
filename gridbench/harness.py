"""Process and filesystem plumbing for gridbench.

Everything the benchmark starts or writes lives under one :class:`Workdir`
inside the checkout (``.gridbench_work/run-*``): bank homes, credential
files, server logs. ``gridbank serve`` children get a pre-picked free
port, their own process group, and are killed and reaped — and the
directory removed — when the workdir closes, including on a failed check,
``KeyboardInterrupt`` or ``SIGTERM``. Nothing outside the checkout is
touched; traffic is loopback only.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".gridbench_work"
HOST = "127.0.0.1"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The benchmark itself could not run (a child died, a port never opened)."""


def free_port() -> int:
    """A loopback port that was free a moment ago (``serve`` sets SO_REUSEADDR)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class Server:
    """One child listening on a loopback port: ``gridbank serve`` started
    with CLI defaults, or (with *argv*) the ledger's echo server."""

    def __init__(self, home: Path, port: int, log: Path, extra_args: tuple = (),
                 argv: tuple | None = None) -> None:
        self.home = Path(home)
        self.port = port
        self.log = Path(log)
        self.argv = tuple(argv) if argv is not None else (
            "-m", "repro.cli", "serve", "--home", str(home), "--port", str(port), *extra_args,
        )
        self.proc: subprocess.Popen | None = None
        self.spawned_at = 0.0

    @property
    def address(self) -> str:
        return f"{HOST}:{self.port}"

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def start(self) -> "Server":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        with open(self.log, "ab") as log:
            self.spawned_at = time.perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, *self.argv], env=env, cwd=str(self.home.parent),
                stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )
        return self

    def wait_listening(self, timeout: float = 60.0) -> None:
        """Connect-poll until the port accepts. ``serve`` binds only after
        WAL recovery, so an accepted connection means the books are loaded."""
        deadline = time.perf_counter() + timeout
        while True:
            if self.proc is None or self.proc.poll() is not None:
                raise BenchError(f"serve on :{self.port} exited early:\n{self.log_tail()}")
            try:
                socket.create_connection((HOST, self.port), timeout=0.25).close()
                return
            except OSError:
                if time.perf_counter() > deadline:
                    raise BenchError(
                        f"serve on :{self.port} not listening after {timeout}s:\n{self.log_tail()}"
                    ) from None
                time.sleep(0.005)

    def log_tail(self, lines: int = 15) -> str:
        try:
            text = self.log.read_text(errors="replace")
        except OSError:
            return "(no log)"
        return "\n".join(text.splitlines()[-lines:])

    def kill(self) -> None:
        """SIGKILL the child's whole process group and reap it."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    # -- /proc sampling ---------------------------------------------------------

    def cpu_seconds(self) -> float:
        fields = _stat_fields(self.pid)
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime + stime

    def threads(self) -> int:
        return int(_stat_fields(self.pid)[17])

    def rss_hwm_mb(self) -> float:
        return _status_int(Path(f"/proc/{self.pid}/status"), "VmHWM") / 1024.0

    def ctx_switches(self) -> int:
        total = 0
        for task in Path(f"/proc/{self.pid}/task").iterdir():
            try:
                total += _status_int(task / "status", "voluntary_ctxt_switches")
                total += _status_int(task / "status", "nonvoluntary_ctxt_switches")
            except OSError:  # the thread exited between listing and reading
                continue
        return total


def _stat_fields(pid: int) -> list[str]:
    # the comm field may contain spaces; everything after ") " is positional
    raw = Path(f"/proc/{pid}/stat").read_text()
    return raw[raw.rindex(")") + 2:].split()


def _status_int(path: Path, key: str) -> int:
    for line in path.read_text().splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    raise BenchError(f"{path} has no {key}")


def tree_bytes(*homes: Path) -> int:
    """Total size of every file under the given bank homes."""
    total = 0
    for home in homes:
        for dirpath, _dirs, files in os.walk(home):
            for name in files:
                try:
                    total += os.stat(os.path.join(dirpath, name)).st_size
                except OSError:  # a tmp file renamed away mid-walk
                    continue
    return total


class Workdir:
    """Scratch directory + child registry with guaranteed cleanup."""

    def __init__(self) -> None:
        WORK_PARENT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=WORK_PARENT))
        self.servers: list[Server] = []
        self._old_sigterm = None

    def __enter__(self) -> "Workdir":
        # SIGTERM must unwind through finally blocks like Ctrl-C does
        def _terminate(signum, frame):
            raise KeyboardInterrupt(f"signal {signum}")

        self._old_sigterm = signal.signal(signal.SIGTERM, _terminate)
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            for server in self.servers:
                server.kill()
        finally:
            shutil.rmtree(self.path, ignore_errors=True)
            try:
                WORK_PARENT.rmdir()  # only succeeds when no other run is using it
            except OSError:
                pass
            if self._old_sigterm is not None:
                signal.signal(signal.SIGTERM, self._old_sigterm)

    def server(self, home: Path, port: int, extra_args: tuple = (),
               argv: tuple | None = None) -> Server:
        log = self.path / f"serve-{port}.log"
        server = Server(home, port, log, extra_args, argv)
        self.servers.append(server)
        return server

    def subdir(self, name: str) -> Path:
        path = self.path / name
        path.mkdir(parents=True, exist_ok=True)
        return path


# -- host facts -----------------------------------------------------------------


def calibration_mops() -> float:
    """Millions of iterations per second of a fixed pure-Python spin loop:
    tells machine drift from code drift. Median of five short spins."""

    def spin() -> float:
        n = 200_000
        started = time.perf_counter()
        acc = 0
        for i in range(n):
            acc = (acc + i * i) & 0xFFFF
        return n / (time.perf_counter() - started) / 1e6

    return statistics.median(spin() for _ in range(5))


def host_facts() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count() or 1,
        "load1_start": float(Path("/proc/loadavg").read_text().split()[0]),
        "calibration_mops": calibration_mops(),
    }


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]
