"""The one background runner: a job is a ``step()``, a :class:`Runner` its thread.

Everything the bank does beside requests is a thread-free ``step``
callable a test can call directly (DESIGN section 17 lists the six);
in production each is handed to a :class:`Runner`, which gives them all
one thread lifecycle and one error policy. No module under ``bank/``,
``db/`` or ``obs/`` constructs a ``threading.Thread`` (``make lint``).

The loop waits, then steps: it sleeps in real time on an ``Event`` for
``interval`` seconds, or for the number of seconds the previous step
returned — ``0.0`` means "again at once" (a backlog being drained, a
step that itself blocks on a socket poll), ``None`` the configured pause.

An exception from a step is counted in ``runner.step_errors{runner=<name>}``,
logged, and the loop goes on. :class:`~repro.db.faultfs.SimulatedCrashError`
alone ends it: nothing in the library may catch and survive that one.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

__all__ = ["Runner"]


class Runner:
    """One daemon thread calling ``step`` until :meth:`stop`."""

    #: how long :meth:`stop` waits for a step in flight before it gives up
    JOIN_TIMEOUT = 5.0

    def __init__(
        self, name: str, step: Callable[[], Optional[float]], interval: float
    ) -> None:
        self.name = name
        self.step = step
        self.interval = interval
        self._stopped = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def alive(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> None:
        """Start the loop; a no-op while it is already running."""
        if self.alive and not self._stopped.is_set():
            return
        # a fresh event per thread: one that was stopped from inside its
        # own step (or leaked) keeps its own set event and ends by itself
        self._stopped = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, args=(self._stopped,), name=self.name, daemon=True
        )
        self._thread.start()

    def stop(self) -> bool:
        """Ask the loop to end and wait for the step in flight.

        Idempotent, and callable from inside the step itself (it then
        returns without joining; the loop ends when the step returns).
        Returns False — after logging loudly — when the thread is still
        running after :attr:`JOIN_TIMEOUT` seconds: a wedged step leaks
        its daemon thread rather than hanging the caller.
        """
        self._stopped.set()
        thread = self._thread
        if thread is None or thread is threading.current_thread():
            return True
        thread.join(self.JOIN_TIMEOUT)
        if thread.is_alive():
            from repro.obs.logging import get_logger

            get_logger("util.runner").error(
                "runner.leaked", name=self.name, timeout=self.JOIN_TIMEOUT
            )
            return False
        return True

    def _loop(self, stopped: threading.Event) -> None:
        # db/ and obs/ import this module, so it reaches back into them
        # only once a thread runs, never at import time
        from repro.db.faultfs import SimulatedCrashError
        from repro.obs import metrics
        from repro.obs.logging import get_logger

        log = get_logger("util.runner")
        delay: Optional[float] = None
        while not stopped.wait(self.interval if delay is None else delay):
            try:
                delay = self.step()
            except SimulatedCrashError as exc:
                log.error("runner.crashed", name=self.name, reason=str(exc))
                return
            except Exception as exc:  # noqa: BLE001 - one failed step must
                # not end the job; the count and the log line keep it visible
                delay = None
                metrics.counter("runner.step_errors", runner=self.name).inc()
                log.error(
                    "runner.step_error",
                    name=self.name, error=type(exc).__name__, reason=str(exc),
                )

