"""The one background runner: lifecycle, pacing, error policy.

The six jobs' steps are tested where they live, thread-free; this file
tests the loop every one of them runs under. Waits are on events with a
bound, never fixed sleeps; the only timing assertions are lower bounds
(an ``Event.wait`` cannot return early) and "much faster than the
interval would allow".
"""

import importlib.util
import threading
import time
from pathlib import Path

from repro.db.faultfs import SimulatedCrashError
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.util.runner import Runner

BOUND = 5.0  # seconds any cross-thread wait below may take before the test fails


class Calls:
    """A step that records when it ran and trips an event at *target* calls."""

    def __init__(self, target, returns=None, raises=None):
        self.times = []
        self.reached = threading.Event()
        self._target = target
        self._returns = returns or (lambda n: None)
        self._raises = raises or (lambda n: None)

    def __call__(self):
        self.times.append(time.monotonic())
        n = len(self.times)
        if n >= self._target:
            self.reached.set()
        error = self._raises(n)
        if error is not None:
            raise error
        return self._returns(n)


def joined(runner: Runner) -> bool:
    runner._thread.join(BOUND)
    return not runner.alive


class TestPacing:
    def test_interval_is_honoured_and_the_first_step_waits_for_it(self):
        step = Calls(target=3)
        runner = Runner("t-interval", step, 0.03)
        started = time.monotonic()
        runner.start()
        try:
            assert step.reached.wait(BOUND)
        finally:
            assert runner.stop()
        gaps = [b - a for a, b in zip([started] + step.times, step.times)]
        assert min(gaps[:3]) >= 0.03 * 0.9

    def test_a_returned_delay_overrides_the_interval(self):
        # 0.0 fifty times, then "not for half a minute": the fifty run far
        # faster than 50 x interval, then nothing runs until stop() wakes it
        step = Calls(target=50, returns=lambda n: 0.0 if n < 50 else 30.0)
        runner = Runner("t-delay", step, 0.05)
        runner.start()
        try:
            assert step.reached.wait(BOUND)
            assert step.times[-1] - step.times[0] < 50 * 0.05 / 2
            time.sleep(0.15)  # three intervals: the 30 s delay is in force
            assert len(step.times) == 50
        finally:
            began = time.monotonic()
            assert runner.stop()
        assert time.monotonic() - began < BOUND  # stop() interrupted the wait
        assert not runner.alive


class TestErrorPolicy:
    def test_a_raising_step_is_counted_logged_and_the_loop_survives(self):
        step = Calls(target=3, raises=lambda n: ValueError("boom") if n == 1 else None)
        errors = obs_metrics.counter("runner.step_errors", runner="t-raises")
        before = errors.value
        runner = Runner("t-raises", step, 0.01)
        with obs_logging.capture() as logs:
            runner.start()
            try:
                assert step.reached.wait(BOUND)
            finally:
                assert runner.stop()
        assert errors.value == before + 1
        assert logs.find("runner.step_error") == [
            {"name": "t-raises", "error": "ValueError", "reason": "boom"}
        ]

    def test_a_simulated_crash_ends_the_loop(self):
        step = Calls(target=1, raises=lambda n: SimulatedCrashError("died at x"))
        errors = obs_metrics.counter("runner.step_errors", runner="t-crash")
        before = errors.value
        runner = Runner("t-crash", step, 0.01)
        with obs_logging.capture() as logs:
            runner.start()
            assert step.reached.wait(BOUND)
            assert joined(runner)
        assert len(step.times) == 1
        assert errors.value == before  # a crash is not a survivable step error
        assert logs.find("runner.crashed")[0]["name"] == "t-crash"
        assert runner.stop()


class TestLifecycle:
    def test_stop_from_inside_the_step_does_not_self_join(self):
        results = []
        runner = Runner("t-self-stop", lambda: results.append(runner.stop()), 0.01)
        runner.start()
        assert joined(runner)
        assert results == [True]  # returned at once; one step, then the loop ended
        assert runner.stop()

    def test_start_and_stop_are_idempotent_and_a_stopped_runner_restarts(self):
        step = Calls(target=1)
        runner = Runner("t-restart", step, 0.01)
        assert runner.stop()  # never started
        runner.start()
        first = runner._thread
        runner.start()
        assert runner._thread is first  # already running: no second thread
        assert step.reached.wait(BOUND)
        assert runner.stop() and runner.stop()
        assert not runner.alive
        step.reached.clear()
        runner.start()
        try:
            assert runner._thread is not first
            assert step.reached.wait(BOUND)
        finally:
            assert runner.stop()

    def test_stop_reports_a_wedged_step_instead_of_hanging(self):
        entered, release = threading.Event(), threading.Event()

        def wedged():
            entered.set()
            release.wait(BOUND)

        runner = Runner("t-wedged", wedged, 0.01)
        runner.JOIN_TIMEOUT = 0.05
        runner.start()
        assert entered.wait(BOUND)
        with obs_logging.capture() as logs:
            assert runner.stop() is False
        assert logs.find("runner.leaked") == [{"name": "t-wedged", "timeout": 0.05}]
        release.set()
        assert joined(runner)
        assert runner.stop()


class TestLintRule:
    """``make lint`` keeps ``threading.Thread`` out of bank/, db/ and obs/,
    access/role checks out of op handlers, and the storage format inside
    db/."""

    def _tool(self):
        spec = importlib.util.spec_from_file_location(
            "check_no_print",
            Path(__file__).resolve().parent.parent / "tools" / "check_no_print.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_thread_construction_and_subclass_are_offences(self, tmp_path):
        source = tmp_path / "job.py"
        source.write_text(
            "import threading\n"
            "from threading import Thread\n"
            "class Loop(threading.Thread):\n"
            "    pass\n"
            "class Other(Thread):\n"
            "    pass\n"
            "t = threading.Thread(target=print)\n"
            "u = Thread(target=None)\n"
            "lock = threading.Lock()\n"
            "field: 'Optional[threading.Thread]' = None\n",
            encoding="utf-8",
        )
        tool = self._tool()
        assert sorted(line for line, _ in tool.find_offences(source, threads=True)) == [3, 5, 7, 8]
        assert tool.find_offences(source) == []  # the rule is scoped by package

    def test_access_and_role_checks_inside_handlers_are_offences(self, tmp_path):
        source = tmp_path / "plane.py"
        source.write_text(
            "class ShardNode:\n"
            "    def coordinate(self, subject, params, key):\n"
            "        self.bank._require_standing(subject)\n"
            "        self.bank._require_owner_or_admin(subject, params['from_account'])\n"
            "    def op_shard_install(self, subject, params):\n"
            "        self.node._require_peer(subject)\n"
            "        self._require_primary('Shard.Install')\n"
            "    def _require_primary(self, what):\n"
            "        _require_admin(what)\n"  # not a handler: the definitions may call anything
            "class Other:\n"
            "    def coordinate(self, subject):\n"
            "        self._require_standing(subject)\n"
            "def install(server):\n"
            "    def op_mint_coins(subject, params):\n"
            "        server._require_standing(subject)\n"
            "    server.register('Mint', op_mint_coins, access=server._require_standing)\n",
            encoding="utf-8",
        )
        tool = self._tool()
        assert sorted(line for line, _ in tool.find_offences(source, handlers=True)) == [3, 6, 7, 15]
        assert tool.find_offences(source) == []  # the rule is scoped to src/

    def test_storage_format_outside_db_is_an_offence(self, tmp_path):
        source = tmp_path / "cli.py"
        source.write_text(
            "from repro.db import integrity\n"
            "from repro.db.integrity import WAL_NAME\n"
            "def restore(db_dir, blob):\n"
            "    integrity.atomic_write(db_dir / integrity.SNAPSHOT_NAME, blob)\n"
            "    integrity.scan_wal((db_dir / 'wal.gbdb').read_bytes())\n"
            "    integrity.verify_dir(db_dir)\n"
            "    integrity.set_aside_snapshot(db_dir)\n"
            "    print(integrity.MARKER_NAME)\n",
            encoding="utf-8",
        )
        tool = self._tool()
        assert sorted(line for line, _ in tool.find_offences(source, storage=True)) == [2, 4, 4, 5, 8]
        assert [what for _, what in tool.find_offences(source)] == ["print()"]  # scoped to src/ outside db/

    def test_the_tree_is_clean(self):
        assert self._tool().main() == 0
