"""Storage integrity: CRC framing, fault injection, scrubbing, repair.

The torn-vs-corrupt policy under test (DESIGN §10): a final WAL line
with no terminating newline is the expected residue of a crash
mid-append — tolerated, truncated, counted. A newline-*terminated* line
that fails its frame, CRC, or decode means bytes that were once durable
no longer verify — recovery quarantines the damaged suffix, leaves a
refusal marker, and raises a typed CorruptionError instead of replaying
garbage. The chaos-marked storm at the bottom drives the full loop on a
live primary+standby pair: seeded disk faults damage the standby's WAL,
the scrub detects it, and replica-backed repair restores a byte-verified
replica that rejoins the stream.
"""

import gc
import random
import threading
import tracemalloc

import pytest

from repro.bank.accounts import GBAccounts
from repro.bank.admin import GBAdmin
from repro.bank.cluster import ClusterNode
from repro.bank.replies import ReplyCache
from repro.bank.server import GridBankServer
from repro.db import (
    Column,
    Database,
    DiskFaultPlan,
    FaultyStorage,
    Integer,
    TableSchema,
    VarChar,
)
from repro.db import integrity
from repro.db.replication import MemoryJournal, ReplicationLog
from repro.errors import CorruptionError, DatabaseError, ValidationError
from repro.net.transport import FaultPhase, FaultSchedule, InProcessNetwork
from repro.obs import metrics as obs_metrics
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.validation import CertificateStore
from repro.util.gbtime import VirtualClock
from repro.util.money import Credits
from repro.util.serialize import canonical_dumps, canonical_loads


# -- frame format -------------------------------------------------------------


class TestWalFraming:
    def test_round_trip(self):
        payload = canonical_dumps({"ops": [{"op": "insert"}]})
        line = integrity.frame_record(payload)
        assert line.endswith(b"\n")
        assert integrity.parse_record(line.rstrip(b"\n")) == payload

    def test_payload_with_newline_rejected(self):
        with pytest.raises(ValidationError):
            integrity.frame_record(b"two\nlines")

    def test_every_single_bit_flip_is_detected(self):
        payload = b'{"ops":[{"op":"x"}]}'
        line = integrity.frame_record(payload).rstrip(b"\n")
        for index in range(len(line)):
            for bit in range(8):
                damaged = bytearray(line)
                damaged[index] ^= 1 << bit
                if bytes(damaged) == line:
                    continue
                with pytest.raises(CorruptionError):
                    integrity.parse_record(bytes(damaged), seq=7, offset=0)

    def test_corruption_error_carries_seq_and_offset(self):
        line = integrity.frame_record(b'{"ops":[]}').rstrip(b"\n")
        damaged = line[:-1] + b"?"
        with pytest.raises(CorruptionError) as excinfo:
            integrity.parse_record(damaged, seq=42, offset=1024)
        assert excinfo.value.seq == 42
        assert excinfo.value.offset == 1024

    def test_length_mismatch_detected(self):
        # truncating the payload but keeping the header is exactly what a
        # partial overwrite looks like
        line = integrity.frame_record(b'{"ops":[1,2,3]}').rstrip(b"\n")
        with pytest.raises(CorruptionError, match="length mismatch"):
            integrity.parse_record(line[:-3])

    def test_unrecognized_framing_is_corruption(self, tmp_path):
        # a bare canonical-JSON line (what a pre-framing WAL held) carries
        # no CRC, so it is refused like any other unverifiable byte
        bare = b'{"ops":[{"op":"insert","table":"kv","row":{"K":"k","V":1}}]}'
        for line in (b"\x00\x01garbage", bare):
            with pytest.raises(CorruptionError, match="unrecognized framing"):
                integrity.parse_record(line)
        with pytest.raises(CorruptionError, match="header magic"):
            integrity.decode_snapshot(b'{"accounts": []}')
        # and recovery refuses a whole WAL of them instead of replaying it
        (tmp_path / integrity.WAL_NAME).write_bytes(bare + b"\n")
        with pytest.raises(CorruptionError, match="unrecognized framing"):
            kv_db(tmp_path)


class TestSnapshotManifest:
    def test_round_trip(self):
        payload = canonical_dumps({"accounts": [{"AccountID": "a"}]})
        blob = integrity.encode_snapshot(payload, 1)
        assert integrity.decode_snapshot(blob) == (payload, 1)
        # an empty file is an empty snapshot with an unknown record count
        assert integrity.decode_snapshot(b"") == (b"", -1)

    def test_bit_flip_in_payload_detected(self):
        blob = bytearray(integrity.encode_snapshot(b'{"t": []}', 0))
        blob[-2] ^= 0x04
        with pytest.raises(CorruptionError, match="CRC32 mismatch"):
            integrity.decode_snapshot(bytes(blob))

    def test_truncated_snapshot_detected(self):
        blob = integrity.encode_snapshot(b'{"t": [1, 2, 3]}', 3)
        with pytest.raises(CorruptionError, match="length mismatch"):
            integrity.decode_snapshot(blob[:-4])

    def test_unrecognized_magic_detected(self):
        with pytest.raises(CorruptionError, match="header magic"):
            integrity.decode_snapshot(b"\x89PNG not a snapshot")


class TestScanWal:
    def _lines(self, count):
        return [
            integrity.frame_record(canonical_dumps({"ops": [], "n": i}))
            for i in range(count)
        ]

    def test_clean_wal(self):
        data = b"".join(self._lines(3))
        scan = integrity.scan_wal(data)
        assert scan.records == 3
        assert scan.valid_bytes == len(data)
        assert scan.torn_bytes == 0
        assert scan.corruption is None

    def test_torn_tail_is_not_corruption(self):
        lines = self._lines(2)
        data = b"".join(lines) + lines[0][: len(lines[0]) // 2]  # mid-write crash
        scan = integrity.scan_wal(data)
        assert scan.records == 2
        assert scan.valid_bytes == len(lines[0]) + len(lines[1])
        assert scan.torn_bytes == len(lines[0]) // 2
        assert scan.corruption is None

    def test_mid_file_damage_is_corruption(self):
        lines = self._lines(3)
        damaged = bytearray(lines[1])
        damaged[len(damaged) // 2] ^= 0x10
        scan = integrity.scan_wal(lines[0] + bytes(damaged) + lines[2], base_seq=10)
        assert scan.records == 1  # verified prefix only
        assert scan.valid_bytes == len(lines[0])
        assert scan.corruption is not None
        assert scan.corruption.seq == 12  # base_seq-offset global sequence
        assert scan.corruption.offset == len(lines[0])

    def test_terminated_garbage_line_is_corruption(self):
        # a newline-terminated line that is not framed must never be
        # shrugged off as a torn tail
        scan = integrity.scan_wal(self._lines(1)[0] + b"!!!! not a record\n")
        assert scan.corruption is not None
        assert scan.corruption.seq == 2


# -- database recovery policy -------------------------------------------------


def kv_db(path, **kwargs) -> Database:
    db = Database(path=path, **kwargs)
    db.create_table(
        TableSchema(
            "kv",
            [Column.make("K", VarChar(8)), Column.make("V", Integer())],
            primary_key=["K"],
        )
    )
    db.recover()
    return db


def kv_fill(db: Database, count: int, start: int = 0) -> None:
    for i in range(start, start + count):
        db.insert("kv", {"K": "k%04d" % i, "V": i})


class TestRecoveryPolicy:
    def test_framed_wal_round_trips(self, tmp_path):
        db = kv_db(tmp_path)
        kv_fill(db, 5)
        db.close()
        revived = kv_db(tmp_path)
        assert revived.count("kv") == 5
        report = revived.verify_storage()
        assert report.ok and report.wal_records == 5
        revived.close()

    def test_torn_tail_truncated_and_counted(self, tmp_path):
        from repro.obs import metrics

        db = kv_db(tmp_path)
        kv_fill(db, 3)
        db.close()
        wal = tmp_path / integrity.WAL_NAME
        wal.write_bytes(wal.read_bytes() + b"GB1 48 deadbeef {")  # mid-append crash
        before = metrics.counter("db.wal_torn_tail").value
        revived = kv_db(tmp_path)
        assert revived.count("kv") == 3
        assert metrics.counter("db.wal_torn_tail").value == before + 1
        # the torn bytes are gone from disk: the next append starts a
        # clean line instead of fusing with them
        kv_fill(revived, 1, start=3)
        revived.close()
        again = kv_db(tmp_path)
        assert again.count("kv") == 4
        again.close()

    def test_mid_file_corruption_quarantines_and_refuses(self, tmp_path):
        db = kv_db(tmp_path)
        kv_fill(db, 6)
        db.close()
        wal = tmp_path / integrity.WAL_NAME
        data = bytearray(wal.read_bytes())
        scan = integrity.scan_wal(bytes(data))
        lines = bytes(data).split(b"\n")
        record_3_offset = sum(len(line) + 1 for line in lines[:2])
        data[record_3_offset + 30] ^= 0x01  # flip one bit inside record 3
        wal.write_bytes(bytes(data))

        with pytest.raises(CorruptionError) as excinfo:
            kv_db(tmp_path)
        assert excinfo.value.seq == 3
        assert excinfo.value.offset == record_3_offset
        # damaged suffix preserved, verified prefix kept, marker left
        assert (tmp_path / integrity.QUARANTINE_NAME).exists()
        assert (tmp_path / integrity.WAL_NAME).read_bytes() == bytes(
            data[:record_3_offset]
        )
        marker = integrity.read_marker(tmp_path)
        assert marker is not None and marker["seq"] == 3
        # recovery REFUSES while the marker stands — a reboot cannot
        # silently serve the shortened history
        with pytest.raises(CorruptionError, match="fsck"):
            kv_db(tmp_path)
        report = integrity.verify_dir(tmp_path)
        assert not report.ok and report.corruption_source == "marker"
        assert scan.corruption is None  # pre-damage scan was clean

    def test_corrupt_snapshot_detected(self, tmp_path):
        db = kv_db(tmp_path)
        kv_fill(db, 4)
        db.checkpoint()
        db.close()
        snapshot = tmp_path / integrity.SNAPSHOT_NAME
        blob = bytearray(snapshot.read_bytes())
        blob[len(blob) // 2] ^= 0x20
        snapshot.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError):
            kv_db(tmp_path)
        report = integrity.verify_dir(tmp_path)
        assert not report.ok and report.corruption_source == "snapshot"

    @pytest.mark.parametrize("payload", [b"[not json", b'{"kv": ["\xff"]}'])
    def test_snapshot_that_verifies_but_does_not_decode_is_corruption(self, tmp_path, payload):
        (tmp_path / integrity.SNAPSHOT_NAME).write_bytes(integrity.encode_snapshot(payload, 1))
        with pytest.raises(CorruptionError, match="snapshot: undecodable"):
            kv_db(tmp_path)
        report = integrity.verify_dir(tmp_path)
        assert not report.ok and report.corruption_source == "snapshot"

    def test_stale_tmp_from_crashed_atomic_write_is_swept(self, tmp_path):
        db = kv_db(tmp_path)
        kv_fill(db, 2)
        db.close()
        stale = tmp_path / (integrity.SNAPSHOT_NAME + ".tmp")
        stale.write_bytes(b"half-written snapsho")
        revived = kv_db(tmp_path)
        assert revived.count("kv") == 2
        assert not stale.exists()
        revived.close()


class TestRefusedRecoveryAppliesNothing:
    """A refused recovery leaves every table empty, whichever walk of
    the WAL found the damage: a bad frame (found before anything is
    applied) or a line that frames but is not a journal entry (found
    while applying, after the entries before it landed)."""

    def _refused(self, tmp_path, data: bytes):
        (tmp_path / integrity.WAL_NAME).write_bytes(data)
        db = Database(path=tmp_path)
        db.create_table(
            TableSchema(
                "kv",
                [Column.make("K", VarChar(8)), Column.make("V", Integer())],
                primary_key=["K"],
            )
        )
        with pytest.raises(CorruptionError) as excinfo:
            db.recover()
        assert db.count("kv") == 0
        return excinfo.value

    def _six_lines(self, tmp_path):
        db = kv_db(tmp_path)
        kv_fill(db, 6)
        db.close()
        return (tmp_path / integrity.WAL_NAME).read_bytes().splitlines(keepends=True)

    def _assert_quarantined(self, tmp_path, error, lines, bad: int):
        offset = sum(len(line) for line in lines[:bad])
        assert (error.seq, error.offset) == (bad + 1, offset)
        assert (tmp_path / integrity.WAL_NAME).read_bytes() == b"".join(lines[:bad])
        assert (tmp_path / integrity.QUARANTINE_NAME).read_bytes() == b"".join(lines[bad:])
        marker = integrity.read_marker(tmp_path)
        assert (marker["seq"], marker["offset"]) == (bad + 1, offset)

    def test_crc_damage_on_the_last_complete_line(self, tmp_path):
        lines = self._six_lines(tmp_path)
        damaged = bytearray(lines[5])
        damaged[-3] ^= 0x01  # inside the payload, before the newline
        lines[5] = bytes(damaged)
        error = self._refused(tmp_path, b"".join(lines))
        assert "CRC32 mismatch" in str(error)
        self._assert_quarantined(tmp_path, error, lines, 5)

    def test_framed_line_that_is_not_a_journal_entry(self, tmp_path):
        lines = self._six_lines(tmp_path)
        lines[2] = integrity.frame_record(b'{"x":1}')
        error = self._refused(tmp_path, b"".join(lines))
        assert "not a journal entry" in str(error)
        self._assert_quarantined(tmp_path, error, lines, 2)

    def test_first_failure_wins_across_both_walks(self, tmp_path):
        # line 3 frames but does not decode, line 5 fails its CRC: the
        # frame walk meets line 5 first, yet line 3 is the first failure
        lines = self._six_lines(tmp_path)
        lines[2] = integrity.frame_record(b"[not json")
        damaged = bytearray(lines[4])
        damaged[-3] ^= 0x01
        lines[4] = bytes(damaged)
        error = self._refused(tmp_path, b"".join(lines))
        assert "undecodable payload" in str(error)
        self._assert_quarantined(tmp_path, error, lines, 2)


# -- bounded transient --------------------------------------------------------

#: allowance for allocator and bookkeeping noise (dict resizes, metrics)
_SLACK = 256 * 1024


def _traced(run):
    """``(result, peak, live)`` of *run* under tracemalloc, in bytes
    allocated since it started."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run()
        gc.collect()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - base, live - base


class TestBoundedTransient:
    """What reading a database directory holds at once does not grow
    with its history: recovery holds one WAL line beyond the tables it
    builds, the scrubber's pass the raw bytes it read and one line."""

    def _home(self, path, count):
        db = kv_db(path)
        kv_fill(db, count)
        db.close()

    def _recovery_transient(self, path) -> int:
        db, peak, live = _traced(lambda: kv_db(path))
        db.close()
        return peak - live

    def test_recovery_transient_does_not_grow_with_history(self, tmp_path):
        self._home(tmp_path / "n", 1000)
        self._home(tmp_path / "4n", 4000)
        small = self._recovery_transient(tmp_path / "n")
        large = self._recovery_transient(tmp_path / "4n")
        assert large - small <= _SLACK, (small, large)

    def test_verify_storage_grows_by_the_raw_bytes_only(self, tmp_path):
        grown = []
        for name, count in (("n", 1000), ("4n", 4000)):
            self._home(tmp_path / name, count)
            db = kv_db(tmp_path / name)
            report, peak, _ = _traced(db.verify_storage)
            db.close()
            assert report.ok and report.wal_records == count
            raw = sum(f.stat().st_size for f in (tmp_path / name).iterdir())
            grown.append((peak, raw))
        (small, small_raw), (large, large_raw) = grown
        assert large - small <= (large_raw - small_raw) + _SLACK, grown

    def test_snapshot_load_releases_rows_as_it_inserts(self, tmp_path):
        db = Database(path=tmp_path)
        schema = TableSchema(
            "docs",
            [Column.make("K", VarChar(8)), Column.make("Body", VarChar(256))],
            primary_key=["K"],
        )
        db.create_table(schema)
        db.recover()
        for i in range(5000):
            db.insert("docs", {"K": "d%05d" % i, "Body": ("%05d" % i) * 40})
        db.checkpoint()
        db.close()
        raw = (tmp_path / integrity.SNAPSHOT_NAME).stat().st_size

        def load():
            revived = Database(path=tmp_path)
            revived.create_table(schema)
            revived.recover()
            return revived

        revived, peak, live = _traced(load)
        assert revived.count("docs") == 5000
        revived.close()
        assert peak - live <= raw + _SLACK, (peak - live, raw)

    def test_verify_storage_of_a_checkpointed_home_holds_its_raw_bytes(self, tmp_path):
        """The scrubber walks the snapshot a row at a time: beside the
        bytes it read, it holds one window of text, not the decoded
        tables."""
        self._home(tmp_path, 4000)
        db = kv_db(tmp_path)
        db.checkpoint()
        raw = (tmp_path / integrity.SNAPSHOT_NAME).stat().st_size
        report, peak, _ = _traced(db.verify_storage)
        db.close()
        assert report.ok and report.snapshot_records == 4000
        assert peak <= raw + _SLACK, (peak, raw)

    def _ledger(self, path):
        db = Database(path=path)
        clock = VirtualClock()
        accounts, replies = GBAccounts(db, clock=clock), ReplyCache(db, clock)
        db.recover()
        return db, accounts, replies

    def test_live_table_bytes_per_keyed_transfer(self, tmp_path):
        """A keyed transfer leaves two entries, a transfer and a reply
        row; a recovered ledger holds them in at most 2.4 kB (3.8 kB as
        dicts of fresh strings; tuples with interned strings, DESIGN §23)."""
        transfers, subject = 2000, "/O=VO-Bench/CN=consumer"
        db, accounts, replies = self._ledger(tmp_path)
        admin = GBAdmin(accounts)
        drawers = [accounts.create_account(subject) for _ in range(64)]
        recipients = [accounts.create_account(subject) for _ in range(64)]
        for drawer in drawers:
            admin.deposit(drawer, Credits(1_000_000))
        rng = random.Random(42)
        signature = bytes(rng.getrandbits(8) for _ in range(128))
        for index in range(transfers):
            drawer, recipient = rng.choice(drawers), rng.choice(recipients)
            amount = Credits(rng.randint(1, 5))
            with db.transaction():
                txn_id = accounts.transfer(drawer, recipient, amount)
                confirmation = {
                    "payload": {
                        "confirmation": "DirectTransfer", "transaction_id": txn_id,
                        "drawer_account": drawer, "recipient_account": recipient,
                        "amount": amount, "recipient_address": "",
                        "committed_at": accounts.clock.now().epoch,
                    },
                    "signature": signature,
                    "signer": "/O=GridBank/CN=server",
                }
                replies.store(f"aged:{index}", subject, "RequestDirectTransfer",
                              {"confirmation": confirmation})
        db.close()
        (revived, _, _), _, live = _traced(lambda: self._ledger(tmp_path))
        assert revived.count("transfers") == transfers
        revived.close()
        assert live / transfers <= 2400, live / transfers


class TestStreamedSnapshot:
    """The snapshot is decoded a row at a time (DESIGN §23): the walk
    yields what decoding it whole would, and refuses a payload that is
    not the canonical layout before any row is loaded."""

    TABLES = {
        "docs": [{"Blob": b"\x00\xffz", "K": "a", "Money": Credits(1.25)},
                 {"Blob": b"", "K": "b", "Money": Credits(0), "Note": None}],
        "empty": [],
        "kv": [{"K": "k%d" % i, "V": i} for i in range(3)],
    }

    def test_yields_what_canonical_loads_yields(self):
        payload = canonical_dumps(self.TABLES)
        assert canonical_loads(payload) == self.TABLES
        walked = {name: list(rows) for name, rows in integrity.snapshot_tables(memoryview(payload))}
        assert walked == canonical_loads(payload)
        assert list(integrity.snapshot_tables(memoryview(b""))) == []

    def test_rows_longer_than_the_window_decode(self, monkeypatch):
        monkeypatch.setattr(integrity, "_SNAPSHOT_WINDOW", 7)
        payload = canonical_dumps(self.TABLES)
        walked = {name: list(rows) for name, rows in integrity.snapshot_tables(memoryview(payload))}
        assert walked == self.TABLES

    def _refused(self, tmp_path, payload: bytes, records: int) -> str:
        (tmp_path / integrity.SNAPSHOT_NAME).write_bytes(integrity.encode_snapshot(payload, records))
        loaded = []
        report = integrity.verify_dir(tmp_path, load=lambda name, rows: loaded.append(list(rows)))
        assert not report.ok and report.corruption_source == "snapshot"
        assert loaded == []
        return str(report.corruption)

    def test_row_count_mismatch_is_refused_before_loading(self, tmp_path):
        error = self._refused(tmp_path, canonical_dumps(self.TABLES), 6)
        assert error == "snapshot: manifest promises 6 record(s), decoded 5"

    @pytest.mark.parametrize("payload", [
        b'{"kv":[{"K":"a","V":1}]}x',                 # trailing data
        b'{"kv":[{"K":"a","V":1}]}{"kv":[]}',          # a second document
        b'{"kv":[{"K":"a","V":1},7]}',                 # a row that is not an object
        b'{"kv":[{"K":"a","V":1},{"K":"b"',            # a row cut short
        b'{"kv":[{"K":"a","V":1}],7:[]}',              # a table name that is not a string
        b'{"kv":{"K":"a","V":1}}',                     # rows that are not a list
    ])
    def test_malformed_payload_is_refused_before_loading(self, tmp_path, payload):
        assert self._refused(tmp_path, payload, 1).startswith("snapshot: undecodable")


# -- disk fault injection -----------------------------------------------------


class TestDiskFaults:
    def test_seeded_plans_are_deterministic(self):
        def storm(seed):
            plan = DiskFaultPlan(
                bit_flip_probability=0.3,
                torn_write_probability=0.2,
                rng=random.Random(seed),
            )
            import io

            from repro.db.faultfs import FaultyFile

            sink = io.BytesIO()
            faulty = FaultyFile(sink, plan)
            for i in range(200):
                try:
                    faulty.write(b"record-%03d payload bytes\n" % i)
                except OSError:
                    pass
            return plan.stats.snapshot(), sink.getvalue()

        assert storm(99) == storm(99)
        assert storm(99) != storm(100)

    def test_torn_write_poisons_wal_until_restart(self, tmp_path):
        plan = DiskFaultPlan(torn_write_probability=1.0, rng=random.Random(3))
        db = kv_db(tmp_path, storage=FaultyStorage(plan))
        with pytest.raises(DatabaseError, match="journal write failed"):
            db.insert("kv", {"K": "a", "V": 1})
        assert plan.stats.torn_writes == 1
        assert not db.integrity_status()["ok"]
        # the handle holds a torn prefix: appending after it would fuse
        # records into garbage, so every commit now fails fast
        plan.torn_write_probability = 0.0
        with pytest.raises(DatabaseError, match="poisoned"):
            db.insert("kv", {"K": "b", "V": 2})
        db.close()
        # restart on clean storage: the torn prefix is recognized as a
        # torn tail, truncated, and the database is writable again
        revived = kv_db(tmp_path)
        assert revived.count("kv") == 0
        kv_fill(revived, 2)
        assert revived.verify_storage().ok
        revived.close()

    def test_fsync_failure_poisons_wal(self, tmp_path):
        plan = DiskFaultPlan(fsync_error_probability=1.0, rng=random.Random(4))
        db = kv_db(tmp_path, storage=FaultyStorage(plan), durability="fsync")
        with pytest.raises(DatabaseError, match="journal write failed"):
            db.insert("kv", {"K": "a", "V": 1})
        assert plan.stats.fsync_errors >= 1
        # fsyncgate semantics: after a failed fsync the page cache state
        # is unknowable, so the WAL stays poisoned even though write()
        # and flush() succeeded
        plan.fsync_error_probability = 0.0
        with pytest.raises(DatabaseError, match="poisoned"):
            db.insert("kv", {"K": "b", "V": 2})
        db.close()

    def test_silent_bit_flip_caught_by_scrub(self, tmp_path):
        plan = DiskFaultPlan(rng=random.Random(11))
        db = kv_db(tmp_path, storage=FaultyStorage(plan))
        kv_fill(db, 8)
        assert db.verify_storage().ok
        plan.bit_flip_probability = 1.0
        db.insert("kv", {"K": "bad", "V": 9})  # "succeeds" — the flip is silent
        plan.bit_flip_probability = 0.0
        with pytest.raises(CorruptionError):
            db.scrub_once()
        status = db.integrity_status()
        assert not status["ok"] and status["corruption"]
        db.close()

    def test_scrub_catches_a_manifest_count_that_lies(self, tmp_path):
        """The CRC covers the payload only, so a flipped record count
        verifies against everything but the rows. The scrubber reads the
        directory with the reader recovery uses and counts them too."""
        db = kv_db(tmp_path)
        kv_fill(db, 4)
        db.checkpoint()
        snapshot = tmp_path / integrity.SNAPSHOT_NAME
        blob = bytearray(snapshot.read_bytes())
        blob[blob.index(b"\n") - 1] ^= 1  # "4" -> "5"
        snapshot.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError, match="manifest promises 5 record"):
            db.scrub_once()
        assert not db.integrity_status()["ok"]
        db.close()

    def test_schedule_drives_fault_phases(self, tmp_path):
        clock = VirtualClock()
        plan = DiskFaultPlan(
            clock=clock,
            schedule=FaultSchedule(
                [
                    FaultPhase(
                        at=clock.epoch() + 10.0,
                        settings={"torn_write_probability": 1.0},
                    )
                ]
            ),
            rng=random.Random(5),
        )
        db = kv_db(tmp_path, storage=FaultyStorage(plan))
        kv_fill(db, 3)  # before the phase: clean passthrough
        assert plan.stats.torn_writes == 0
        clock.advance(10.0)
        with pytest.raises(DatabaseError):
            db.insert("kv", {"K": "x", "V": 1})
        assert plan.stats.torn_writes == 1
        db.close()


# -- scrubber & ship-side verification ---------------------------------------


class TestScrubber:
    """The scrub job is a step: driven here by direct calls, no thread
    and no sleep; one test runs it under its runner for the error policy."""

    def test_detects_and_reports_corruption(self):
        state = {"passes": 0, "corrupt": False}
        caught = []

        def scrub():
            state["passes"] += 1
            if state["corrupt"]:
                raise CorruptionError("scrub found damage", seq=5)

        scrubber = integrity.Scrubber(scrub, interval=30.0, on_corruption=caught.append)
        scrubber.step()
        assert state["passes"] == 1 and caught == []
        state["corrupt"] = True
        scrubber.step()
        assert [exc.seq for exc in caught] == [5]
        scrubber.step()  # a handled corruption does not end the job
        assert state["passes"] == 3 and len(caught) == 2

    def test_a_failed_scrub_or_repair_propagates_out_of_the_step(self):
        def damaged():
            raise CorruptionError("still damaged")

        def failing_repair(exc):
            raise DatabaseError("peer unreachable")

        with pytest.raises(DatabaseError):
            integrity.Scrubber(damaged, on_corruption=failing_repair).step()
        with pytest.raises(CorruptionError):  # nobody to hand it to: not swallowed
            integrity.Scrubber(damaged).step()
        with pytest.raises(OSError):
            integrity.Scrubber(lambda: open("/nonexistent/wal")).step()

    def test_repair_failure_does_not_kill_the_loop(self):
        """At the parent a failed repair was swallowed with a bare
        ``pass`` — no counter, no log line. Under the runner it is
        counted per pass and the scrubber keeps scrubbing."""
        passes = []
        twice = threading.Event()

        def scrub():
            passes.append(1)
            if len(passes) >= 2:
                twice.set()
            raise CorruptionError("still damaged")

        def failing_repair(exc):
            raise DatabaseError("peer unreachable")

        errors = obs_metrics.counter("runner.step_errors", runner="gridbank-scrubber")
        before = errors.value
        scrubber = integrity.Scrubber(scrub, interval=0.05, on_corruption=failing_repair)
        scrubber.start()
        try:
            assert twice.wait(5.0)  # survived the failed repair, kept scrubbing
        finally:
            scrubber.stop()
        assert errors.value - before == len(passes) >= 2


class TestShipSideVerification:
    def test_fetch_refuses_to_stream_damaged_records(self):
        journal = MemoryJournal()
        log = ReplicationLog(1, 0, journal.read)
        good = integrity.frame_record(canonical_dumps({"ops": []}))
        damaged = bytearray(good)
        damaged[len(damaged) // 2] ^= 0x40
        log.append(1, 1, journal.write(good), len(good))
        log.append(1, 2, journal.write(bytes(damaged)), len(damaged))
        status, _, _, records = log.fetch(1, 0, max_records=1)
        assert status == "ok" and len(records) == 1
        with pytest.raises(CorruptionError):
            log.fetch(1, 1)  # the damaged record must never ship

    def test_fetch_reads_the_wal_not_a_copy_of_it(self, tmp_path):
        """A bit that rots in ``wal.gbdb`` after the commit is caught by
        the serving side's frame check — at the parent commit the log
        shipped its own in-memory copy and never looked at the disk."""
        db = kv_db(tmp_path / "p", storage=FaultyStorage())
        kv_fill(db, 2)  # history from before the log was attached stays out of it
        log = db.enable_replication()
        kv_fill(db, 3, start=2)
        wal = tmp_path / "p" / "wal.gbdb"
        status, _, last, records = log.fetch(1, 2)
        assert (status, last) == ("ok", 5)
        assert b"".join(payload for _, payload in records) == b"".join(wal.read_bytes().splitlines(True)[2:])
        assert log.fetch(1, 1)[0] == "resync"
        damaged = bytearray(wal.read_bytes())
        damaged[-10] ^= 0x04  # inside the last record
        wal.write_bytes(bytes(damaged))
        assert len(log.fetch(1, 2, max_records=2)[3]) == 2  # the intact ones still ship
        with pytest.raises(CorruptionError):
            log.fetch(1, 4)
        db.close()

    def test_fetch_at_the_instant_of_checkpoint_truncation_answers_resync(self, tmp_path, monkeypatch):
        db = kv_db(tmp_path / "p")
        log = db.enable_replication()
        kv_fill(db, 3)
        answers = []
        real_open = db._open_wal

        def open_then_fetch(wal_file, mode):
            handle = real_open(wal_file, mode)
            if mode == "wb" and wal_file.name == integrity.WAL_NAME:
                answers.append(log.fetch(1, 0))  # the file is empty; the old epoch is not
            return handle

        monkeypatch.setattr(db, "_open_wal", open_then_fetch)
        db.checkpoint()
        assert answers == [("resync", 2, 0, [])]
        db.close()

    def test_fetches_racing_checkpoints_never_see_corruption(self, tmp_path):
        db = kv_db(tmp_path / "p")
        log = db.enable_replication()
        statuses, errors, done = set(), [], threading.Event()

        def fetcher():
            try:
                while not done.is_set():
                    epoch, _ = db.replication_position()
                    status, _, _, records = log.fetch(epoch, 0, max_records=64)
                    statuses.add(status)
                    for _, payload in records:
                        integrity.parse_record(payload.rstrip(b"\n"))
            except BaseException as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)

        thread = threading.Thread(target=fetcher)
        thread.start()
        try:
            for round_ in range(40):
                kv_fill(db, 5, start=round_ * 5)
                db.checkpoint()
        finally:
            done.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert errors == []
        assert "ok" in statuses
        db.close()

    def test_memory_journal_is_capped_and_hands_back_its_head(self, monkeypatch):
        from repro.db import replication

        monkeypatch.setattr(replication, "_MAX_RETAINED", 3)
        db = Database()
        db.create_table(
            TableSchema("kv", [Column.make("K", VarChar(8)), Column.make("V", Integer())], primary_key=["K"])
        )
        log = db.enable_replication()
        kv_fill(db, 5)
        assert db.replication_position() == (1, 5)
        assert log.fetch(1, 1)[0] == "resync"  # seq 2 left with the head
        status, _, _, records = log.fetch(1, 2)
        assert status == "ok" and [seq for seq, _ in records] == [3, 4, 5]
        assert len(db._journal._data) == sum(len(payload) for _, payload in records)

    def test_standby_verifies_before_applying(self, tmp_path):
        db = kv_db(tmp_path / "s")
        damaged = bytearray(integrity.frame_record(canonical_dumps({"ops": []})))
        damaged[len(damaged) // 2] ^= 0x40
        with pytest.raises(CorruptionError):
            db.apply_replicated(1, bytes(damaged))
        assert db.count("kv") == 0  # nothing applied, nothing written
        db.close()


# -- the full loop: storm, detect, repair, rejoin -----------------------------


GSC = "/O=VO-A/CN=alice"
GSP = "/O=VO-B/CN=gsp"


def wait_until(predicate, timeout: float = 8.0) -> None:
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached within timeout")


@pytest.mark.chaos
class TestDiskFaultStorm:
    def test_storm_detect_repair_rejoin(self, ca_keypair, keypair_a, tmp_path):
        """Seeded bit-flip storm on the standby's disk: the damage is
        silent at write time, the scrub pass detects it, replica-backed
        repair restores byte-verified storage from the primary, and the
        repaired standby rejoins the stream — with conservation intact
        end to end and never a silent garbage replay."""
        clock = VirtualClock()
        ca = CertificateAuthority(
            DistinguishedName("GridBank", "Root CA"), clock=clock, keypair=ca_keypair
        )
        store = CertificateStore([ca.root_certificate])
        bank_ident = ca.issue_identity(
            DistinguishedName("GridBank", "server"), keypair=keypair_a
        )
        network = InProcessNetwork()
        plan = DiskFaultPlan(rng=random.Random(1234))

        def boot(name, seed, storage=None):
            db = Database(path=tmp_path / name, storage=storage)
            bank = GridBankServer(
                bank_ident, store, db=db, clock=clock, rng=random.Random(seed)
            )
            bank.recover()
            network.listen(name, bank.connection_handler)
            return bank

        bank_a = boot("bank-a", 2)
        bank_b = boot("bank-b", 3, storage=FaultyStorage(plan))
        node_a = ClusterNode(bank_a, "bank-a", network.connect, poll_interval=0.005)
        node_b = ClusterNode(bank_b, "bank-b", network.connect, poll_interval=0.005)
        try:
            node_b.follow("bank-a")
            gsc = bank_a.accounts.create_account(GSC)
            gsp = bank_a.accounts.create_account(GSP)
            bank_a.admin.deposit(gsc, Credits(1000))
            for _ in range(10):
                bank_a.accounts.transfer(gsc, gsp, Credits(5))
            caught_up = lambda: (
                bank_a.db.replication_position() == bank_b.db.replication_position()
            )
            wait_until(caught_up)
            assert bank_b.db.verify_storage().ok

            # -- storm: every standby WAL write lands with one bit flipped
            plan.bit_flip_probability = 1.0
            for _ in range(10):
                bank_a.accounts.transfer(gsc, gsp, Credits(5))
            wait_until(caught_up)
            plan.bit_flip_probability = 0.0
            assert plan.stats.bit_flips >= 10

            # the flips were SILENT: replication kept streaming, the
            # standby's books are right — only its cold bytes are lies
            assert bank_b.accounts.available_balance(gsp) == Credits(100)
            with pytest.raises(CorruptionError) as excinfo:
                bank_b.db.scrub_once()
            assert excinfo.value.seq >= 1  # typed, with a named record
            assert not bank_b.db.integrity_status()["ok"]

            # -- replica-backed repair from the healthy primary
            result = node_b.repair(peer_address="bank-a", reason="test-storm")
            assert result["ok"] and result["peer"] == "bank-a"
            assert bank_b.db.verify_storage().ok
            assert bank_b.db.integrity_status()["ok"]
            assert bank_b.accounts.total_bank_funds() == Credits(1000)

            # -- the repaired standby rejoins the stream and keeps up
            for _ in range(5):
                bank_a.accounts.transfer(gsc, gsp, Credits(5))
            wait_until(caught_up)
            assert bank_b.accounts.available_balance(gsp) == Credits(125)
            assert bank_b.accounts.total_bank_funds() == Credits(1000)
            assert bank_b.db.verify_storage().ok
        finally:
            node_b.close()
            node_a.close()
            bank_b.db.close()
            bank_a.db.close()
