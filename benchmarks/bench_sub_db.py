"""SUB-DB — relational-engine micro-benchmarks.

The accounts layer's substrate: row insertion, indexed vs scan selects,
transaction commit/rollback, WAL append, and recovery replay — plus the
two request-path accesses that must not scale with their table: a
statement over a fixed 80-entry history beside 500 vs 5,000 unrelated
transfers (flat when the join is by key), and a reply-cache store at the
10,000-row bound (a round is 64 stores, so it holds exactly one eviction).
"""

import pytest

from repro.bank.accounts import GBAccounts
from repro.bank.replies import ReplyCache
from repro.db import Column, Database, Float, TableSchema, VarChar, eq, gt
from repro.util.gbtime import Timestamp, VirtualClock
from repro.util.money import Credits


def schema():
    return TableSchema(
        "bench",
        [
            Column.make("id", VarChar(16)),
            Column.make("owner", VarChar(64)),
            Column.make("amount", Float(), default=0.0),
        ],
        primary_key=["id"],
        indexes=["owner"],
    )


@pytest.fixture()
def populated():
    db = Database()
    db.create_table(schema())
    for i in range(10_000):
        db.insert("bench", {"id": f"{i:016d}", "owner": f"owner-{i % 100}", "amount": float(i)})
    return db


def test_db_insert(benchmark):
    db = Database()
    db.create_table(schema())
    seq = [0]

    def insert():
        seq[0] += 1
        db.insert("bench", {"id": f"{seq[0]:016d}", "owner": "o", "amount": 1.0})

    benchmark(insert)


def test_db_point_lookup(benchmark, populated):
    row = benchmark(populated.get, "bench", ("0000000000005000",))
    assert row["amount"] == 5000.0


def test_db_indexed_select(benchmark, populated):
    rows = benchmark(populated.select, "bench", [eq("owner", "owner-42")])
    assert len(rows) == 100


def test_db_full_scan_select(benchmark, populated):
    rows = benchmark(populated.select, "bench", [gt("amount", 9989.0)])
    assert len(rows) == 10


def test_db_transaction_commit(benchmark, populated):
    seq = [0]

    def txn():
        seq[0] += 1
        with populated.transaction():
            populated.update("bench", ("0000000000000001",), {"amount": float(seq[0])})
            populated.update("bench", ("0000000000000002",), {"amount": float(seq[0])})

    benchmark(txn)


def test_db_transaction_rollback(benchmark, populated):
    def rolled_back():
        try:
            with populated.transaction():
                populated.update("bench", ("0000000000000001",), {"amount": -1.0})
                raise RuntimeError("abort")
        except RuntimeError:
            pass

    benchmark(rolled_back)
    assert populated.get("bench", ("0000000000000001",))["amount"] != -1.0


def test_db_wal_append(benchmark, tmp_path):
    db = Database(path=tmp_path)
    db.create_table(schema())
    db.recover()
    seq = [0]

    def journaled_insert():
        seq[0] += 1
        db.insert("bench", {"id": f"{seq[0]:016d}", "owner": "o", "amount": 1.0})

    benchmark(journaled_insert)
    db.close()


def test_db_recovery_replay(benchmark, tmp_path):
    db = Database(path=tmp_path)
    db.create_table(schema())
    db.recover()
    for i in range(2_000):
        db.insert("bench", {"id": f"{i:016d}", "owner": "o", "amount": 1.0})
    db.close()

    def recover():
        fresh = Database(path=tmp_path)
        fresh.create_table(schema())
        replayed = fresh.recover()
        fresh.close()
        return replayed

    replayed = benchmark.pedantic(recover, rounds=5, iterations=1)
    assert replayed == 2_000


def _statement_history80(benchmark, unrelated_transfers):
    clock = VirtualClock()
    bank = GBAccounts(Database(), clock=clock)
    crowd = [bank.create_account(f"/O=X/CN=user{i}") for i in range(4)]
    mine = bank.create_account("/O=A/CN=alice")
    for account in crowd + [mine]:
        bank.deposit(account, Credits(1_000_000))
    for i in range(unrelated_transfers):
        bank.transfer(crowd[i % 4], crowd[(i + 1) % 4], Credits(1))
    for _ in range(79):  # + the deposit = 80 history entries
        bank.transfer(mine, crowd[0], Credits(1))
    statement = benchmark(bank.statement, mine, Timestamp(0.0), clock.now())
    assert len(statement["transactions"]) == 80
    assert len(statement["transfers"]) == 79


def test_statement_history80_at_500_transfers(benchmark):
    _statement_history80(benchmark, 500)


def test_statement_history80_at_5000_transfers(benchmark):
    _statement_history80(benchmark, 5_000)


def test_reply_store_at_bound(benchmark):
    db = Database()
    cache = ReplyCache(db, VirtualClock())
    seq = [0]

    def store():
        seq[0] += 1
        with db.transaction():
            cache.store(f"key-{seq[0]}", "/O=A/CN=alice", "RequestDirectTransfer", {"txn": seq[0]})

    def eviction_cycle():  # 64 stores = the eviction batch: exactly one eviction a round
        for _ in range(64):
            store()

    for _ in range(cache.max_entries):
        store()
    benchmark(eviction_cycle)
    assert len(cache) <= cache.max_entries
