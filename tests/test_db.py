"""Unit + property tests for the relational engine."""

import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.db import (
    BigIntUnsigned,
    Blob,
    Boolean,
    Column,
    Database,
    Float,
    Integer,
    TableSchema,
    Text,
    Timestamp14,
    VarChar,
    between,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
    predicate,
)
from repro.errors import (
    DatabaseError,
    DuplicateError,
    IntegrityError,
    NotFoundError,
    SchemaError,
    TransactionError,
)
from repro.util.gbtime import Timestamp


def account_schema() -> TableSchema:
    return TableSchema(
        "accounts",
        [
            Column.make("AccountID", VarChar(16)),
            Column.make("CertificateName", VarChar(150)),
            Column.make("Balance", Float(), default=0.0),
            Column.make("Notes", VarChar(30), nullable=True),
        ],
        primary_key=["AccountID"],
        indexes=["CertificateName"],
    )


def fresh_db() -> Database:
    db = Database()
    db.create_table(account_schema())
    return db


class TestColumnTypes:
    def test_varchar(self):
        assert VarChar(5).validate("hello") == "hello"
        with pytest.raises(SchemaError):
            VarChar(5).validate("toolong")
        with pytest.raises(SchemaError):
            VarChar(5).validate(5)
        with pytest.raises(SchemaError):
            VarChar(0)

    def test_float(self):
        assert Float().validate(2) == 2.0
        assert Float().validate(2.5) == 2.5
        for bad in (float("nan"), float("inf"), "x", True):
            with pytest.raises(SchemaError):
                Float().validate(bad)

    def test_integers(self):
        assert Integer().validate(-5) == -5
        assert BigIntUnsigned().validate(5) == 5
        with pytest.raises(SchemaError):
            BigIntUnsigned().validate(-1)
        with pytest.raises(SchemaError):
            Integer().validate(1 << 64)
        with pytest.raises(SchemaError):
            Integer().validate(True)

    def test_timestamp14(self):
        assert Timestamp14().validate("20030101000000") == "20030101000000"
        assert Timestamp14().validate(Timestamp(1041379200.0)) == "20030101000000"
        for bad in ("2003", 20030101000000, "2003010100000x"):
            with pytest.raises(SchemaError):
                Timestamp14().validate(bad)

    def test_text_is_an_unbounded_string(self):
        assert Text().validate("x" * 100_000) == "x" * 100_000
        with pytest.raises(SchemaError):
            Text().validate(b"bytes")

    def test_blob_and_boolean(self):
        assert Blob().validate(b"\x00") == b"\x00"
        with pytest.raises(SchemaError):
            Blob().validate("str")
        assert Boolean().validate(True) is True
        with pytest.raises(SchemaError):
            Boolean().validate(1)


class TestSchema:
    def test_rejects_bad_definitions(self):
        col = Column.make("a", Integer())
        with pytest.raises(SchemaError):
            TableSchema("", [col], primary_key=["a"])
        with pytest.raises(SchemaError):
            TableSchema("t", [], primary_key=["a"])
        with pytest.raises(SchemaError):
            TableSchema("t", [col, col], primary_key=["a"])
        with pytest.raises(SchemaError):
            TableSchema("t", [col], primary_key=[])
        with pytest.raises(SchemaError):
            TableSchema("t", [col], primary_key=["missing"])
        with pytest.raises(SchemaError):
            TableSchema("t", [col], primary_key=["a"], indexes=["missing"])
        nullable = Column.make("n", Integer(), nullable=True)
        with pytest.raises(SchemaError):
            TableSchema("t", [nullable], primary_key=["n"])

    def test_validate_row_defaults_and_nullables(self):
        schema = account_schema()
        row = schema.validate_row({"AccountID": "01", "CertificateName": "cn"})
        assert row["Balance"] == 0.0
        assert row["Notes"] is None

    def test_validate_row_rejects_unknown_and_missing(self):
        schema = account_schema()
        with pytest.raises(SchemaError):
            schema.validate_row({"AccountID": "01", "CertificateName": "cn", "Bogus": 1})
        with pytest.raises(SchemaError):
            schema.validate_row({"AccountID": "01"})


class TestTableOps:
    def test_insert_get_update_delete(self):
        db = fresh_db()
        pk = db.insert("accounts", {"AccountID": "01", "CertificateName": "cn-a"})
        assert pk == ("01",)
        assert db.get("accounts", pk)["Balance"] == 0.0
        db.update("accounts", pk, {"Balance": 10.5})
        assert db.get("accounts", pk)["Balance"] == 10.5
        db.delete("accounts", pk)
        assert db.find("accounts", pk) is None
        with pytest.raises(NotFoundError):
            db.get("accounts", pk)

    def test_duplicate_pk_rejected(self):
        db = fresh_db()
        db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})
        with pytest.raises(IntegrityError):
            db.insert("accounts", {"AccountID": "01", "CertificateName": "other"})

    def test_pk_immutable(self):
        db = fresh_db()
        pk = db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})
        with pytest.raises(IntegrityError):
            db.update("accounts", pk, {"AccountID": "02"})

    def test_update_missing_row(self):
        db = fresh_db()
        with pytest.raises(NotFoundError):
            db.update("accounts", ("nope",), {"Balance": 1.0})

    def test_rows_are_copies(self):
        db = fresh_db()
        pk = db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})
        row = db.get("accounts", pk)
        row["Balance"] = 999.0
        assert db.get("accounts", pk)["Balance"] == 0.0

    def test_unknown_table(self):
        db = fresh_db()
        with pytest.raises(NotFoundError):
            db.insert("nope", {})
        with pytest.raises(DuplicateError):
            db.create_table(account_schema())


class TestSelect:
    def setup_method(self):
        self.db = fresh_db()
        for i in range(10):
            self.db.insert(
                "accounts",
                {
                    "AccountID": f"{i:02d}",
                    "CertificateName": f"cn-{i % 3}",
                    "Balance": float(i),
                },
            )

    def test_indexed_equality(self):
        rows = self.db.select("accounts", [eq("CertificateName", "cn-1")])
        assert sorted(r["AccountID"] for r in rows) == ["01", "04", "07"]

    def test_combined_conditions(self):
        rows = self.db.select("accounts", [eq("CertificateName", "cn-1"), gt("Balance", 3.0)])
        assert sorted(r["AccountID"] for r in rows) == ["04", "07"]

    def test_comparisons(self):
        assert self.db.count("accounts", [lt("Balance", 3.0)]) == 3
        assert self.db.count("accounts", [le("Balance", 3.0)]) == 4
        assert self.db.count("accounts", [ge("Balance", 8.0)]) == 2
        assert self.db.count("accounts", [ne("CertificateName", "cn-0")]) == 6
        assert self.db.count("accounts", [between("Balance", 2.0, 4.0)]) == 3

    def test_predicate_and_ordering(self):
        rows = self.db.select(
            "accounts",
            [predicate(lambda r: int(r["AccountID"]) % 2 == 0)],
            order_by="Balance",
            descending=True,
            limit=2,
        )
        assert [r["AccountID"] for r in rows] == ["08", "06"]

    def test_index_updated_on_update_and_delete(self):
        pk = ("01",)
        self.db.update("accounts", pk, {"CertificateName": "cn-9"})
        assert self.db.count("accounts", [eq("CertificateName", "cn-9")]) == 1
        assert self.db.count("accounts", [eq("CertificateName", "cn-1")]) == 2
        self.db.delete("accounts", pk)
        assert self.db.count("accounts", [eq("CertificateName", "cn-9")]) == 0

    def test_select_all(self):
        assert len(self.db.select("accounts")) == 10
        assert self.db.count("accounts") == 10


class TestTransactions:
    def test_commit_keeps_changes(self):
        db = fresh_db()
        with db.transaction():
            db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})
            db.update("accounts", ("01",), {"Balance": 5.0})
        assert db.get("accounts", ("01",))["Balance"] == 5.0

    def test_rollback_on_exception(self):
        db = fresh_db()
        db.insert("accounts", {"AccountID": "01", "CertificateName": "cn", "Balance": 1.0})
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.update("accounts", ("01",), {"Balance": 99.0})
                db.insert("accounts", {"AccountID": "02", "CertificateName": "cn2"})
                db.delete("accounts", ("01",))
                raise RuntimeError("abort")
        assert db.get("accounts", ("01",))["Balance"] == 1.0
        assert db.find("accounts", ("02",)) is None

    def test_nested_savepoint_rollback(self):
        db = fresh_db()
        with db.transaction():
            db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})
            with pytest.raises(RuntimeError):
                with db.transaction():
                    db.insert("accounts", {"AccountID": "02", "CertificateName": "cn"})
                    raise RuntimeError("inner abort")
            db.insert("accounts", {"AccountID": "03", "CertificateName": "cn"})
        assert db.find("accounts", ("01",)) is not None
        assert db.find("accounts", ("02",)) is None
        assert db.find("accounts", ("03",)) is not None

    def test_outer_rollback_undoes_committed_inner(self):
        db = fresh_db()
        with pytest.raises(RuntimeError):
            with db.transaction():
                with db.transaction():
                    db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})
                raise RuntimeError("outer abort")
        assert db.find("accounts", ("01",)) is None

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "delete"]),
                st.integers(min_value=0, max_value=4),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rollback_restores_exact_state(self, ops):
        db = fresh_db()
        for i in range(3):
            db.insert("accounts", {"AccountID": f"{i:02d}", "CertificateName": f"cn-{i}"})
        before = {tuple(sorted(r.items())) for r in db.select("accounts")}
        with pytest.raises(ZeroDivisionError):
            with db.transaction():
                for op, idx, value in ops:
                    pk = (f"{idx:02d}",)
                    try:
                        if op == "insert":
                            db.insert(
                                "accounts",
                                {"AccountID": pk[0], "CertificateName": "new", "Balance": value},
                            )
                        elif op == "update":
                            db.update("accounts", pk, {"Balance": value})
                        else:
                            db.delete("accounts", pk)
                    except (IntegrityError, NotFoundError):
                        pass
                raise ZeroDivisionError
        after = {tuple(sorted(r.items())) for r in db.select("accounts")}
        assert before == after


class TestPersistence:
    def _make(self, path):
        db = Database(path=path)
        db.create_table(account_schema())
        return db

    def test_recover_requires_path(self):
        with pytest.raises(DatabaseError):
            Database().recover()

    def test_write_requires_recover(self, tmp_path):
        db = self._make(tmp_path)
        with pytest.raises(DatabaseError):
            db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})

    def test_wal_replay(self, tmp_path):
        db = self._make(tmp_path)
        db.recover()
        with db.transaction():
            db.insert("accounts", {"AccountID": "01", "CertificateName": "cn", "Balance": 7.0})
            db.insert("accounts", {"AccountID": "02", "CertificateName": "cn"})
        db.update("accounts", ("02",), {"Balance": 3.0})
        db.delete("accounts", ("01",))
        db.close()

        db2 = self._make(tmp_path)
        assert db2.recover() == 3
        assert db2.find("accounts", ("01",)) is None
        assert db2.get("accounts", ("02",))["Balance"] == 3.0

    def test_checkpoint_then_recover(self, tmp_path):
        db = self._make(tmp_path)
        db.recover()
        db.insert("accounts", {"AccountID": "01", "CertificateName": "cn", "Balance": 1.0})
        db.checkpoint()
        db.update("accounts", ("01",), {"Balance": 2.0})
        db.close()

        db2 = self._make(tmp_path)
        replayed = db2.recover()
        assert replayed == 1  # only the post-checkpoint update
        assert db2.get("accounts", ("01",))["Balance"] == 2.0

    def test_torn_journal_tail_skipped(self, tmp_path):
        db = self._make(tmp_path)
        db.recover()
        db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})
        db.close()
        wal = tmp_path / "wal.gbdb"
        wal.write_bytes(wal.read_bytes() + b'{"ops":[{"op":"insert","ta')  # torn write

        db2 = self._make(tmp_path)
        assert db2.recover() == 1
        assert db2.find("accounts", ("01",)) is not None

    def test_rolled_back_txn_not_journaled(self, tmp_path):
        db = self._make(tmp_path)
        db.recover()
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})
                raise RuntimeError
        db.close()
        db2 = self._make(tmp_path)
        db2.recover()
        assert db2.find("accounts", ("01",)) is None

    def test_checkpoint_inside_txn_rejected(self, tmp_path):
        db = self._make(tmp_path)
        db.recover()
        with pytest.raises(TransactionError):
            with db.transaction():
                db.checkpoint()

    def test_context_manager_closes(self, tmp_path):
        with self._make(tmp_path) as db:
            db.recover()
            db.insert("accounts", {"AccountID": "01", "CertificateName": "cn"})
        db2 = self._make(tmp_path)
        db2.recover()
        assert db2.find("accounts", ("01",)) is not None


class TestReplayedInsert:
    """Journal replay (recovery, and a standby applying replicated lines)
    inserts absolute rows: over an existing pk, and validated once."""

    def _insert(self, **row):
        return [{"op": "insert", "table": "accounts", "row": row}]

    def test_replaces_the_row_at_its_pk_and_validates_it_once(self, monkeypatch):
        db = fresh_db()
        db.insert("accounts", {"AccountID": "01", "CertificateName": "old", "Balance": 1.0})
        schema = db.table("accounts").schema
        validate, calls = schema.validate_row, []
        monkeypatch.setattr(
            schema, "validate_row", lambda row, partial=False: calls.append(row) or validate(row, partial)
        )
        db._apply_ops(self._insert(AccountID="01", CertificateName="new"))
        assert len(calls) == 1
        assert db.get("accounts", ("01",)) == {
            "AccountID": "01", "CertificateName": "new", "Balance": 0.0, "Notes": None,
        }
        # the hash index followed the replacement
        assert db.select("accounts", [eq("CertificateName", "old")]) == []
        assert db.count("accounts", [eq("CertificateName", "new")]) == 1

    def test_schema_violating_row_still_raises(self):
        db = fresh_db()
        with pytest.raises(SchemaError):
            db._apply_ops(self._insert(AccountID="01"))  # CertificateName is NOT NULL
        with pytest.raises(SchemaError):
            db._apply_ops(self._insert(AccountID="01", CertificateName="cn", Stray=1))
        with pytest.raises(SchemaError):
            db._apply_ops(self._insert(AccountID="01", CertificateName="cn", Balance="much"))
        assert db.count("accounts") == 0


# -- ordered index + eviction primitive ---------------------------------------


def queue_schema() -> TableSchema:
    return TableSchema(
        "queue",
        [
            Column.make("Key", VarChar(8)),
            Column.make("Seq", BigIntUnsigned()),
            Column.make("Owner", VarChar(8), default=""),
        ],
        primary_key=["Key"],
        indexes=["Owner"],
        ordered=["Seq"],
    )


def assert_ordered_indexes_match_rows(db: Database) -> None:
    """Every ordered index equals ``sorted(rows)`` and serves select,
    min and max from it (shared with tests/test_bank_stateful.py)."""
    for name in db.table_names():
        table = db.table(name)
        for col in table.schema.ordered:
            want = sorted((row[col], table.schema.pk_of(row)) for row in table.all_rows())
            assert table._ordered[col] == want
            served = table.select(order_by=col, limit=5)
            assert [(row[col], table.schema.pk_of(row)) for row in served] == want[:5]
            assert table.min_of(col) == (want[0][0] if want else None)
            assert table.max_of(col) == (want[-1][0] if want else None)


class TestOrderedIndex:
    def _db(self, seqs=()) -> Database:
        db = Database()
        db.create_table(queue_schema())
        for seq in seqs:
            db.insert("queue", {"Key": f"k{seq}", "Seq": seq})
        return db

    def test_schema_rejects_unknown_and_nullable_columns(self):
        cols = [Column.make("a", Integer()), Column.make("b", Integer(), nullable=True)]
        with pytest.raises(SchemaError):
            TableSchema("t", cols, primary_key=["a"], ordered=["missing"])
        with pytest.raises(SchemaError):
            TableSchema("t", cols, primary_key=["a"], ordered=["b"])

    def test_select_min_max_follow_every_mutation(self):
        db = self._db([5, 1, 9, 3])
        table = db.table("queue")
        assert [r["Seq"] for r in db.select("queue", order_by="Seq", limit=2)] == [1, 3]
        assert [r["Seq"] for r in db.select("queue", order_by="Seq")] == [1, 3, 5, 9]
        assert (table.min_of("Seq"), table.max_of("Seq")) == (1, 9)
        db.update("queue", ("k1",), {"Seq": 12})
        db.delete("queue", ("k9",))
        assert [r["Key"] for r in db.select("queue", order_by="Seq")] == ["k3", "k5", "k1"]
        assert (table.min_of("Seq"), table.max_of("Seq")) == (3, 12)
        assert_ordered_indexes_match_rows(db)

    def test_empty_table_and_defaults(self):
        table = self._db().table("queue")
        assert table.min_of("Seq") is None and table.max_of("Seq", 0) == 0
        assert table.select(order_by="Seq", limit=3) == []

    def test_equal_values_order_by_primary_key(self):
        db = self._db()
        for key in ("b", "c", "a"):
            db.insert("queue", {"Key": key, "Seq": 7})
        assert [r["Key"] for r in db.select("queue", order_by="Seq", limit=2)] == ["a", "b"]

    def test_conditions_and_descending_match_the_generic_path(self):
        db = self._db(range(10))
        got = db.select("queue", [ge("Seq", 4)], order_by="Seq", limit=2)
        assert [r["Seq"] for r in got] == [4, 5]
        got = db.select("queue", order_by="Seq", descending=True, limit=2)
        assert [r["Seq"] for r in got] == [9, 8]

    def test_evict_lowest_deletes_oldest_and_reports_count(self):
        db = self._db(range(10))
        assert db.evict_lowest("queue", "Seq", 3) == 3
        assert [r["Seq"] for r in db.select("queue", order_by="Seq")] == list(range(3, 10))
        assert db.evict_lowest("queue", "Seq", 100) == 7
        assert db.evict_lowest("queue", "Seq", 1) == 0
        assert_ordered_indexes_match_rows(db)

    def test_rolled_back_eviction_restores_rows_which_go_first_again(self):
        db = self._db(range(10))
        with pytest.raises(RuntimeError):
            with db.transaction():
                assert db.evict_lowest("queue", "Seq", 4) == 4
                db.insert("queue", {"Key": "new", "Seq": 10})
                raise RuntimeError
        assert len(db.table("queue")) == 10
        assert_ordered_indexes_match_rows(db)
        db.evict_lowest("queue", "Seq", 4)
        assert db.table("queue").min_of("Seq") == 4

    def test_eviction_journals_one_record_set(self, tmp_path):
        def make():
            db = Database(path=tmp_path)
            db.create_table(queue_schema())
            return db

        db = make()
        db.recover()
        with db.transaction():
            for seq in range(6):
                db.insert("queue", {"Key": f"k{seq}", "Seq": seq})
        _, before = db.replication_position()
        db.evict_lowest("queue", "Seq", 2)  # autocommit: one WAL line
        with db.transaction():  # in a transaction: rides that line
            db.evict_lowest("queue", "Seq", 2)
            db.insert("queue", {"Key": "k6", "Seq": 6})
        assert db.replication_position()[1] == before + 2
        db.close()
        wal = (tmp_path / "wal.gbdb").read_bytes()
        assert wal.count(b'"op":"delete"') == 4  # the rows' deletes and nothing else

        recovered = make()
        assert recovered.recover() == 3
        assert [r["Seq"] for r in recovered.select("queue", order_by="Seq")] == [4, 5, 6]
        assert_ordered_indexes_match_rows(recovered)
        recovered.close()


class OrderedIndexMachine(RuleBasedStateMachine):
    """Any interleaving of insert / update of the ordered column / delete
    / eviction / rolled-back transaction / WAL recovery / checkpoint /
    state load leaves the ordered index equal to ``sorted(rows)``."""

    keys = st.integers(0, 11).map(lambda i: f"k{i:02d}")
    seqs = st.integers(0, 20)
    mutation = st.tuples(st.sampled_from(["insert", "update", "delete", "evict"]), keys, seqs)

    @initialize()
    def boot(self):
        self.dir = tempfile.mkdtemp(prefix="ordered-index-")
        self._open()

    def _open(self):
        self.db = Database(path=self.dir)
        self.db.create_table(queue_schema())
        self.db.recover()

    def teardown(self):
        if hasattr(self, "db"):
            self.db.close()
            shutil.rmtree(self.dir, ignore_errors=True)

    def _apply(self, op, key, seq):
        try:
            if op == "insert":
                self.db.insert("queue", {"Key": key, "Seq": seq, "Owner": key[:2]})
            elif op == "update":
                self.db.update("queue", (key,), {"Seq": seq})
            elif op == "delete":
                self.db.delete("queue", (key,))
            else:
                self.db.evict_lowest("queue", "Seq", seq % 4)
        except (IntegrityError, NotFoundError):
            pass

    @rule(step=mutation)
    def mutate(self, step):
        self._apply(*step)

    @rule(steps=st.lists(mutation, min_size=1, max_size=6), commit=st.booleans())
    def transaction(self, steps, commit):
        rows = self.db.select("queue")
        try:
            with self.db.transaction():
                for step in steps:
                    self._apply(*step)
                if not commit:
                    raise ZeroDivisionError
        except ZeroDivisionError:
            assert sorted(self.db.select("queue"), key=lambda r: r["Key"]) == sorted(
                rows, key=lambda r: r["Key"]
            )

    @rule(checkpoint=st.booleans())
    def crash_and_recover(self, checkpoint):
        rows = self.db.select("queue", order_by="Seq")
        if checkpoint:
            self.db.checkpoint()
        self.db.close()
        self._open()
        assert self.db.select("queue", order_by="Seq") == rows

    @rule()
    def load_state_dump(self):
        standby = Database()
        standby.create_table(queue_schema())
        standby.insert("queue", {"Key": "stale", "Seq": 99})
        standby.load_state(self.db.state_dump())
        assert_ordered_indexes_match_rows(standby)
        assert standby.select("queue", order_by="Seq") == self.db.select("queue", order_by="Seq")

    @invariant()
    def index_equals_sorted_rows(self):
        if hasattr(self, "db"):
            assert_ordered_indexes_match_rows(self.db)


OrderedIndexMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestOrderedIndexStateful = OrderedIndexMachine.TestCase
