"""Tests for the gridbank CLI against a persistent bank home."""

import json
import shutil
import time
from pathlib import Path

import pytest

from repro.cli import _load_bank, _tcp_connect, main
from repro.db import integrity
from repro.errors import ReproError


@pytest.fixture()
def home(tmp_path):
    path = str(tmp_path / "bankhome")
    assert main(["init", "--home", path, "--key-bits", "512", "--seed", "7"]) == 0
    return path


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInit:
    def test_init_creates_home(self, home, capsys):
        code, out, _ = run(["accounts", "--home", home], capsys)
        assert code == 0
        assert "0 account(s)" in out

    def test_double_init_refused(self, home, capsys):
        code, _out, err = run(["init", "--home", home], capsys)
        assert code == 1
        assert "already holds a bank" in err

    def test_uninitialized_home_errors(self, tmp_path, capsys):
        code, _out, err = run(["balance", "--home", str(tmp_path / "nope"), "--account", "x"], capsys)
        assert code == 1
        assert "not initialized" in err


class TestAccountLifecycle:
    def test_create_deposit_balance(self, home, capsys):
        code, out, _ = run(
            ["create-account", "--home", home, "--subject", "/O=VO-A/CN=alice"], capsys
        )
        assert code == 0
        account = out.strip()
        assert account == "01-0001-00000001"

        code, out, _ = run(
            ["deposit", "--home", home, "--account", account, "--amount", "100"], capsys
        )
        assert code == 0

        code, out, _ = run(["balance", "--home", home, "--account", account], capsys)
        assert code == 0
        assert "available: G$100" in out
        assert "/O=VO-A/CN=alice" in out

    def test_transfer_and_statement(self, home, capsys):
        _, out, _ = run(["create-account", "--home", home, "--subject", "/O=A/CN=a"], capsys)
        src = out.strip()
        _, out, _ = run(["create-account", "--home", home, "--subject", "/O=B/CN=b"], capsys)
        dst = out.strip()
        run(["deposit", "--home", home, "--account", src, "--amount", "50"], capsys)
        code, out, _ = run(
            ["transfer", "--home", home, "--from-account", src, "--to-account", dst,
             "--amount", "20"],
            capsys,
        )
        assert code == 0

        code, out, _ = run(["balance", "--home", home, "--account", dst], capsys)
        assert "available: G$20" in out

        code, out, _ = run(["statement", "--home", home, "--account", src], capsys)
        assert code == 0
        assert "Deposit" in out
        assert "Transfer" in out
        assert "2 transaction(s)" in out

    def test_insufficient_funds_reports_error(self, home, capsys):
        _, out, _ = run(["create-account", "--home", home, "--subject", "/O=A/CN=a"], capsys)
        src = out.strip()
        _, out, _ = run(["create-account", "--home", home, "--subject", "/O=B/CN=b"], capsys)
        dst = out.strip()
        code, _out, err = run(
            ["transfer", "--home", home, "--from-account", src, "--to-account", dst,
             "--amount", "5"],
            capsys,
        )
        assert code == 1
        assert "error:" in err

    def test_withdraw(self, home, capsys):
        _, out, _ = run(["create-account", "--home", home, "--subject", "/O=A/CN=a"], capsys)
        account = out.strip()
        run(["deposit", "--home", home, "--account", account, "--amount", "30"], capsys)
        code, out, _ = run(
            ["withdraw", "--home", home, "--account", account, "--amount", "10"], capsys
        )
        assert code == 0
        _, out, _ = run(["balance", "--home", home, "--account", account], capsys)
        assert "available: G$20" in out


class TestPersistenceAcrossInvocations:
    def test_state_survives_between_commands(self, home, capsys):
        _, out, _ = run(["create-account", "--home", home, "--subject", "/O=A/CN=a"], capsys)
        account = out.strip()
        run(["deposit", "--home", home, "--account", account, "--amount", "42"], capsys)
        run(["checkpoint", "--home", home], capsys)
        run(["deposit", "--home", home, "--account", account, "--amount", "8"], capsys)
        _, out, _ = run(["balance", "--home", home, "--account", account], capsys)
        assert "available: G$50" in out

    def test_accounts_listing(self, home, capsys):
        for subject in ("/O=A/CN=a", "/O=B/CN=b", "/O=C/CN=c"):
            run(["create-account", "--home", home, "--subject", subject], capsys)
        code, out, _ = run(["accounts", "--home", home], capsys)
        assert code == 0
        assert "3 account(s)" in out
        assert "/O=B/CN=b" in out

    def test_add_admin(self, home, capsys):
        code, out, _ = run(
            ["add-admin", "--home", home, "--subject", "/O=GridBank/CN=root"], capsys
        )
        assert code == 0
        assert "administrator added" in out


class TestServe:
    def test_serve_for_a_moment(self, home, capsys):
        code, out, _ = run(
            ["serve", "--home", home, "--port", "0", "--duration", "0.2"], capsys
        )
        assert code == 0
        assert "listening on 127.0.0.1:" in out
        assert "server stopped" in out

    def test_telemetry_file_holds_only_the_objectives(self, home, capsys):
        """Every span is stored, so there is no sampling config to record
        and `trace` has no sampling line to print."""
        code, out, _ = run(["serve", "--home", home, "--duration", "0.1"], capsys)
        assert code == 0 and "server stopped" in out
        telemetry = json.loads((Path(home) / "telemetry.json").read_text())
        assert set(telemetry) == {"slo"}
        code, out, err = run(["trace", "list", "--home", home], capsys)
        assert code == 0
        assert "sampling" not in out + err

    @pytest.mark.parametrize("flags", [[], ["--workers", "2"]], ids=["default-workers", "two-workers"])
    def test_async_backend_serves(self, home, capsys, flags):
        code, out, _ = run(
            ["serve", "--home", home, "--backend", "async", "--duration", "0.1", *flags], capsys
        )
        assert code == 0 and "server stopped" in out

    @pytest.mark.parametrize(
        "flags, complaint",
        [
            (["--backend", "async", "--workers", "0"], "--workers must be >= 1 on the async"),
            (["--backend", "async", "--dispatch-queue", "0"], "--dispatch-queue must be >= 1"),
            (["--backend", "async", "--workers", "-1"], "--workers must be >= 1 on the async"),
            (["--max-connections", "0"], "--max-connections must be >= 1"),
            (["--rate-limit", "-5"], "--rate-limit must be > 0"),
            (["--rate-limit", "0"], "--rate-limit must be > 0"),
            (["--workers", "4"], "--workers applies to the async backend only"),
            (["--backend", "threads", "--workers", "0"], "--workers applies to the async backend only"),
            (["--slo-target", "2"], "objective target must be in (0, 1)"),
            (["--shard-map", "MAP"], "--shard-map needs --shard-id"),
            (["--shard-id", "s1", "--shard-map", "/missing.json"], "cannot read --shard-map /missing.json"),
            (["--metrics-textfile", "m.prom", "--metrics-interval", "0"], "--metrics-interval must be > 0"),
        ],
    )
    def test_bad_flags_are_refused_before_anything_starts(self, home, capsys, flags, complaint, tmp_path):
        from repro.bank import locks as bank_locks
        from repro.bank.shard import ShardMap
        from repro.db import database as db_database

        shard_map = tmp_path / "map.json"
        shard_map.write_bytes(ShardMap.initial({"s1": ("127.0.0.1:1",)}).to_json())
        flags = [str(shard_map) if flag == "MAP" else flag for flag in flags]
        code, out, err = run(["serve", "--home", home, "--duration", "0.2", *flags], capsys)
        assert code == 1
        assert err.startswith("error: ") and complaint in err and "Traceback" not in err
        assert out == ""  # not even the diagnosis-plane banner
        # no diagnosis plane was started: neither contention hook is in
        assert bank_locks.wait_hook() is None and db_database.wal_wait_hook() is None
        # nothing was opened either: the home serves straight afterwards
        code, out, _ = run(["serve", "--home", home, "--duration", "0.1"], capsys)
        assert code == 0 and "server stopped" in out

    @pytest.mark.parametrize("backend", ["threads", "async"])
    def test_a_taken_port_is_an_error_and_leaves_nothing_running(self, home, capsys, backend):
        import socket

        from repro.bank import locks as bank_locks
        from repro.db import database as db_database
        from repro.obs import trace as obs_trace

        sinks = list(obs_trace._sinks)
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = str(taken.getsockname()[1])
            code, out, err = run(
                ["serve", "--home", home, "--port", port, "--backend", backend,
                 "--duration", "0.1"], capsys,
            )
        assert code == 1
        assert err.startswith(f"error: cannot listen on 127.0.0.1:{port} (")
        assert "Traceback" not in err and out == ""
        assert list(obs_trace._sinks) == sinks
        assert bank_locks.wait_hook() is None and db_database.wal_wait_hook() is None
        # the database was closed: the home serves straight afterwards
        code, out, _ = run(["serve", "--home", home, "--duration", "0.1"], capsys)
        assert code == 0 and "server stopped" in out


class TestFsck:
    def _seed(self, home, capsys):
        _, out, _ = run(["create-account", "--home", home, "--subject", "/O=A/CN=a"], capsys)
        account = out.strip()
        for _ in range(4):
            run(["deposit", "--home", home, "--account", account, "--amount", "10"], capsys)
        return account

    def test_clean_home_verifies(self, home, capsys):
        self._seed(home, capsys)
        code, out, _ = run(["fsck", "--home", home], capsys)
        assert code == 0
        assert "clean:" in out

    def test_corruption_detected_and_boot_refused(self, home, capsys):
        from pathlib import Path

        from repro.db import integrity

        account = self._seed(home, capsys)
        wal = Path(home) / "db" / integrity.WAL_NAME
        data = bytearray(wal.read_bytes())
        data[len(data) // 2] ^= 0x08  # flip a bit mid-file
        wal.write_bytes(bytes(data))

        code, out, err = run(["fsck", "--home", home], capsys)
        assert code == 1
        assert "CORRUPT" in out
        assert "--repair --peer" in err  # read-only mode points at the fix

        # a plain command must refuse on the damage, never serve garbage
        code, _out, err = run(["balance", "--home", home, "--account", account], capsys)
        assert code == 1
        assert "fsck" in err

    def test_repair_requires_peer(self, home, capsys):
        self._seed(home, capsys)
        from pathlib import Path

        from repro.db import integrity

        wal = Path(home) / "db" / integrity.WAL_NAME
        data = bytearray(wal.read_bytes())
        data[len(data) // 2] ^= 0x08
        wal.write_bytes(bytes(data))
        code, _out, err = run(["fsck", "--home", home, "--repair"], capsys)
        assert code == 1
        assert "--peer" in err

    @pytest.mark.parametrize("damage", ["wal", "snapshot"])
    def test_a_repair_that_cannot_reach_its_peer_touches_nothing(self, home, capsys, damage):
        """fsck dials the peer before it boots, quarantines or sets aside
        anything: a dead peer leaves every byte where it was, and the
        home still refuses to boot."""
        import socket

        account = self._seed(home, capsys)
        run(["checkpoint", "--home", home], capsys)
        run(["deposit", "--home", home, "--account", account, "--amount", "10"], capsys)
        db_dir = Path(home) / "db"
        (_flip_wal_mid_file if damage == "wal" else _flip_snapshot_payload)(db_dir)
        before = {path.name: path.read_bytes() for path in db_dir.iterdir()}
        with socket.socket() as probe:  # a local port nobody listens on
            probe.bind(("127.0.0.1", 0))
            dead = "127.0.0.1:%d" % probe.getsockname()[1]
        with pytest.raises(OSError):
            main(["fsck", "--home", home, "--repair", "--peer", dead])
        assert {path.name: path.read_bytes() for path in db_dir.iterdir()} == before
        code, _out, err = run(["balance", "--home", home, "--account", account], capsys)
        assert code == 1
        assert "fsck" in err


# -- fsck and boot read a home the same way -----------------------------------


def _flip_wal_mid_file(db_dir):
    wal = db_dir / integrity.WAL_NAME
    data = bytearray(wal.read_bytes())
    data[len(data) // 2] ^= 0x08
    wal.write_bytes(bytes(data))


def _tear_wal_tail(db_dir):
    wal = db_dir / integrity.WAL_NAME
    wal.write_bytes(wal.read_bytes() + b"GB1 48 deadbeef {")  # a mid-append crash


def _flip_snapshot_payload(db_dir):
    snapshot = db_dir / integrity.SNAPSHOT_NAME
    blob = bytearray(snapshot.read_bytes())
    blob[-2] ^= 0x04
    snapshot.write_bytes(bytes(blob))


def _flip_manifest_count(db_dir):
    # the record count is the header's last field and the CRC covers only
    # the payload: this one verifies against everything but the rows
    snapshot = db_dir / integrity.SNAPSHOT_NAME
    blob = bytearray(snapshot.read_bytes())
    blob[blob.index(b"\n") - 1] ^= 1
    snapshot.write_bytes(bytes(blob))


def _garbage_epoch(db_dir):
    (db_dir / integrity.EPOCH_NAME).write_bytes(b"garbage")


def _one_field_epoch(db_dir):
    epoch_file = db_dir / integrity.EPOCH_NAME
    epoch_file.write_bytes(epoch_file.read_bytes().split()[0])


def _leave_marker(db_dir):
    (db_dir / integrity.MARKER_NAME).write_text(json.dumps({"reason": "test", "seq": 3}))


class TestFsckAgreesWithBoot:
    @pytest.mark.parametrize(
        "damage, refused",
        [
            (_flip_wal_mid_file, True),
            (_tear_wal_tail, False),
            (_flip_snapshot_payload, True),
            (_flip_manifest_count, True),
            (_garbage_epoch, True),
            (_one_field_epoch, True),
            (_leave_marker, True),
        ],
        ids=lambda case: getattr(case, "__name__", str(case)).lstrip("_"),
    )
    def test_fsck_fails_exactly_when_boot_refuses(self, home, capsys, damage, refused):
        _, out, _ = run(["create-account", "--home", home, "--subject", "/O=A/CN=a"], capsys)
        account = out.strip()
        run(["deposit", "--home", home, "--account", account, "--amount", "10"], capsys)
        run(["checkpoint", "--home", home], capsys)
        for _ in range(3):
            run(["deposit", "--home", home, "--account", account, "--amount", "10"], capsys)
        damage(Path(home) / "db")

        code, out, _ = run(["fsck", "--home", home], capsys)  # read-only: before the boot
        try:
            _load_bank(Path(home)).db.close()
            booted = True
        except ReproError:
            booted = False
        assert booted is not refused
        assert code == (0 if booted else 1), out


# -- fsck --repair --peer against a live primary ------------------------------


def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached within timeout")


class TestFsckRepairFromPeer:
    """A TCP primary and a standby home copied from it: the standby
    streams a transfer storm, stops, and its cold bytes are damaged."""

    @pytest.fixture()
    def cluster(self, tmp_path):
        from repro.bank.cluster import ClusterNode
        from repro.net.tcp import TCPServer
        from repro.util.money import Credits

        home_a, home_b = tmp_path / "bank-a", tmp_path / "bank-b"
        assert main(["init", "--home", str(home_a), "--key-bits", "512", "--seed", "7"]) == 0
        shutil.copytree(home_a, home_b)  # one logical bank: same identity, same position
        bank_a, bank_b = _load_bank(home_a), _load_bank(home_b)
        server_a = TCPServer(bank_a.connection_handler)
        addr_a = "%s:%d" % server_a.address
        node_a = ClusterNode(bank_a, addr_a, _tcp_connect, poll_interval=0.01)
        node_b = ClusterNode(bank_b, "bank-b", _tcp_connect, poll_interval=0.01)
        try:
            node_b.follow(addr_a)
            gsc = bank_a.accounts.create_account("/O=VO-A/CN=alice")
            gsp = bank_a.accounts.create_account("/O=VO-B/CN=gsp")
            bank_a.admin.deposit(gsc, Credits(1000))
            for _ in range(20):
                bank_a.accounts.transfer(gsc, gsp, Credits(2))
            _wait_until(lambda: bank_a.db.replication_position() == bank_b.db.replication_position())
        finally:
            node_b.close()
            bank_b.db.close()
        yield {"bank_a": bank_a, "addr_a": addr_a, "home_a": home_a, "home_b": home_b}
        node_a.close()
        server_a.close()
        bank_a.db.close()

    def _repair(self, cluster, capsys):
        code, out, err = run(
            ["fsck", "--home", str(cluster["home_b"]), "--repair", "--peer", cluster["addr_a"]],
            capsys,
        )
        assert code == 0, out + err
        return out

    def test_wal_flip_is_repaired_by_a_suffix_refetch(self, cluster, capsys):
        from repro.obs import metrics as obs_metrics

        db_b = cluster["home_b"] / "db"
        _flip_wal_mid_file(db_b)
        served = obs_metrics.counter("replication.snapshots_served").value
        self._repair(cluster, capsys)
        assert (db_b / integrity.QUARANTINE_NAME).exists()  # kept for forensics
        assert obs_metrics.counter("replication.snapshots_served").value == served
        wal_a = cluster["home_a"] / "db" / integrity.WAL_NAME
        assert (db_b / integrity.WAL_NAME).read_bytes() == wal_a.read_bytes()

    def test_a_peer_lost_mid_restore_leaves_the_originals_and_a_refusing_home(
        self, cluster, capsys, monkeypatch
    ):
        import repro.bank.cluster
        from repro.errors import TransportError

        def lost(*_args, **_kwargs):
            raise TransportError("peer went away")

        db_b = cluster["home_b"] / "db"
        _flip_snapshot_payload(db_b)
        originals = {
            name: (db_b / name).read_bytes()
            for name in (integrity.SNAPSHOT_NAME, integrity.WAL_NAME, integrity.EPOCH_NAME)
            if (db_b / name).exists()
        }
        monkeypatch.setattr(repro.bank.cluster, "catch_up", lost)
        code, _out, err = run(
            ["fsck", "--home", str(cluster["home_b"]), "--repair", "--peer", cluster["addr_a"]],
            capsys,
        )
        assert code == 1 and "peer went away" in err
        for name, data in originals.items():  # set aside, never deleted
            assert (db_b / name.replace(".gbdb", ".discarded.gbdb")).read_bytes() == data
        with pytest.raises(ReproError, match="did not complete"):
            _load_bank(cluster["home_b"])

    def test_snapshot_flip_restores_the_home_whole(self, cluster, capsys):
        db_b = cluster["home_b"] / "db"
        _flip_snapshot_payload(db_b)
        self._repair(cluster, capsys)
        assert integrity.verify_dir(db_b).ok
        repaired = _load_bank(cluster["home_b"])
        try:
            assert repaired.accounts.total_bank_funds() == cluster["bank_a"].accounts.total_bank_funds()
        finally:
            repaired.db.close()
