"""Count gate on the journal: what one request may append to the WAL.

The journal is the ledger's (paper sec 3.2, 5.1: ACCOUNT / TRANSACTION /
TRANSFER, plus the reply row that makes a transfer exactly-once) and
nothing else's. With each bank served as ``gridbank serve`` serves it —
a :class:`~repro.bank.node.Node` at serve's defaults, so every request
is traced and its spans are stored — a transfer
appends ONE record of bounded size and a read appends NOTHING; the spans
land in the segment ring beside the database. A standby that stores its
own spans still holds the primary's WAL byte for byte. Usage rollups are
telemetry too: rolling a period appends nothing to either node's WAL.
"""

import json
import random

import pytest

from repro.bank.node import Node, NodeConfig
from repro.errors import AuthorizationError
from repro.net.rpc import RPCClient
from repro.obs import trace as obs_trace
from repro.util.money import Credits

from tests.test_replication import A, B, wait_caught_up, world  # noqa: F401 - primary + standby

#: a direct transfer's one WAL line is about 1,660 B at the CLI's 1,024-bit
#: bank key (two ledger updates, TRANSACTION, TRANSFER, the reply row with
#: its signed confirmation); the test world's 512-bit keys sit well under
TRANSFER_LINE_MAX = 1_800


@pytest.fixture()
def attach():
    """Serve each bank of the world as ``gridbank serve`` does: a Node."""
    nodes = []

    def attach(bank, address, connect, **options):
        config = NodeConfig(poll_interval=0.005, **options)
        nodes.append(Node(bank, config, connect).start(address))
        return nodes[-1].cluster

    yield attach
    for node in reversed(nodes):
        node.close()


def _wal(tmp_path, name) -> bytes:
    return (tmp_path / name / "wal.gbdb").read_bytes()


def _rolled(tmp_path, name) -> list[dict]:
    """The rollup lines in node *name*'s usage ring."""
    return [
        json.loads(line)
        for segment in sorted((tmp_path / "usage" / name).iterdir())
        for line in segment.read_text().splitlines()
    ]


def test_transfer_appends_one_record_and_a_read_appends_none(world, tmp_path):  # noqa: F811
    primary, standby = world["bank_a"], world["bank_b"]
    before = _wal(tmp_path, A)
    spans_before = len(primary.spans)
    world["alice"].request_direct_transfer(
        world["alice_account"], world["gsp_account"], Credits(5)
    )
    appended = _wal(tmp_path, A)[len(before):]
    assert appended.count(b"\n") == 1
    assert len(appended) <= TRANSFER_LINE_MAX
    assert b"trace_id" not in appended and b"rpc.server.dispatch" not in appended
    assert len(primary.spans) >= spans_before + 2  # dispatch + bank.op, stored elsewhere

    before = _wal(tmp_path, A)
    spans_before = len(primary.spans)
    details = world["alice"]._client.call(
        "RequestAccountDetails", account_id=world["alice_account"]
    )
    assert Credits(details["AvailableBalance"]) == Credits(995)
    assert _wal(tmp_path, A) == before  # 0 records, 0 bytes
    assert len(primary.spans) >= spans_before + 2

    # the standby serves a read and stores the spans of it, locally
    wait_caught_up(primary, standby)
    reader = RPCClient(
        world["network"].connect(B), world["alice_ident"], world["store"],
        clock=world["clock"], rng=random.Random(77),
    )
    reader.connect()
    spans_before = len(standby.spans)
    reader.call("RequestAccountDetails", account_id=world["alice_account"])
    assert len(standby.spans) >= spans_before + 2
    world["alice"].request_direct_transfer(
        world["alice_account"], world["gsp_account"], Credits(1)
    )
    wait_caught_up(primary, standby)
    for bank in (primary, standby):
        bank.spans.flush()
    assert _wal(tmp_path, A) == _wal(tmp_path, B)
    # each node's spans are files beside its own database directory
    assert list((tmp_path / "spans" / A).iterdir())
    assert list((tmp_path / "spans" / B).iterdir())


def test_plumbing_spans_stay_out_of_the_ring(world):  # noqa: F811
    """The serve-time sink stores principal workload only: what the op
    table marks untracked (scrapes, health polls, failover verbs) would
    turn the bounded ring over at the poll rate."""
    primary = world["bank_a"]
    wait_caught_up(primary, world["bank_b"])
    admin = world["admin"]._client
    stored = len(primary.spans)
    assert admin.call("Telemetry.Snapshot")["role"] == "primary"
    assert admin.call("Integrity.Status")["ok"] is True
    with pytest.raises(AuthorizationError, match="stale demotion"):
        admin.call("Cluster.Demote", cluster_epoch=0, primary_address=B)
    assert len(primary.spans) == stored
    # what plumbing runs underneath is still stored, and so is workload
    with obs_trace.span("shard.2pc", kind="shard"):
        pass
    assert len(primary.spans) == stored + 1
    world["alice"].request_direct_transfer(
        world["alice_account"], world["gsp_account"], Credits(5)
    )
    assert len(primary.spans) >= stored + 3  # + dispatch + bank.op


def test_a_rollup_appends_nothing_to_either_wal(world, tmp_path):  # noqa: F811
    """Each node rolls what it served into its own usage ring: the primary
    alice's transfer, the standby her read. Neither WAL grows, and the
    standby's stays the primary's byte for byte."""
    primary, standby = world["bank_a"], world["bank_b"]
    world["alice"].request_direct_transfer(
        world["alice_account"], world["gsp_account"], Credits(5)
    )
    wait_caught_up(primary, standby)
    reader = RPCClient(
        world["network"].connect(B), world["alice_ident"], world["store"],
        clock=world["clock"], rng=random.Random(77),
    )
    reader.connect()
    reader.call("RequestAccountDetails", account_id=world["alice_account"])
    reader.close()
    before = {name: _wal(tmp_path, name) for name in (A, B)}
    assert primary.usage.maybe_rollup(force=True) >= 1
    assert standby.usage.maybe_rollup(force=True) == 1
    assert {name: _wal(tmp_path, name) for name in (A, B)} == before
    assert _wal(tmp_path, A) == _wal(tmp_path, B)
    primary_lines, standby_lines = _rolled(tmp_path, A), _rolled(tmp_path, B)
    assert world["alice_ident"].subject in {line["principal"] for line in primary_lines}
    [standby_line] = standby_lines
    assert standby_line["principal"] == world["alice_ident"].subject
    assert standby_line["op_counts"] == {"account_details": 1}
