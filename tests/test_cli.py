"""Tests for the gridbank CLI against a persistent bank home."""

import pytest

from repro.cli import main


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
            (["--sample-op", "direct_transfer=often"], "--sample-op expects OP=RATE"),
            (["--workers", "4"], "--workers applies to the async backend only"),
            (["--backend", "threads", "--workers", "0"], "--workers applies to the async backend only"),
        ],
    )
    def test_bad_flags_are_refused_before_anything_starts(self, home, capsys, flags, complaint):
        from repro.obs import diag as obs_diag

        code, out, err = run(["serve", "--home", home, "--duration", "0.2", *flags], capsys)
        assert code == 1
        assert err.startswith("error: ") and complaint in err and "Traceback" not in err
        assert out == ""  # not even the diagnosis-plane banner
        assert obs_diag.active_plane() is None
        # nothing was opened either: the home serves straight afterwards
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
