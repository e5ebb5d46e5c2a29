"""FIG3 — Figure 3: the three-layer GridBank server architecture.

Measures each layer's gate separately: the Security Layer's GSS
handshake + connection-time authorization (and its DoS-limiting refusal
path, which must be *cheaper* than serving a request), the Payment
Protocol Layer's per-operation dispatch through the encrypted channel,
and the Accounts Layer's raw database transaction.
"""

import random

import pytest

from _worlds import connect_client, make_bank_world
from repro.net.rpc import ConnectionRefused, RPCClient, session_cache
from repro.pki.certificate import DistinguishedName
from repro.util.money import Credits


@pytest.fixture(scope="module")
def world():
    w = make_bank_world(seed=201)
    w["alice"] = w["ca"].issue_identity(DistinguishedName("VO-A", "alice"), key_bits=512)
    client = connect_client(w, w["alice"], seed=1)
    w["alice_account"] = client.call("CreateAccount")["account_id"]
    admin = connect_client(w, w["admin_ident"], seed=2)
    admin.call("Admin.Deposit", account_id=w["alice_account"], amount=Credits(1_000_000))
    w["alice_client"] = client
    w["admin_client"] = admin
    return w


def test_fig3_security_layer_handshake(benchmark, world):
    seq = [0]

    def connect_and_close():
        seq[0] += 1
        session_cache.clear()  # Fig. 3's security layer is the full handshake, not a resume
        client = connect_client(world, world["alice"], seed=100 + seq[0])
        client.close()

    benchmark.pedantic(connect_and_close, rounds=15, iterations=1)
    # under --benchmark-disable (bench-smoke) pedantic runs the function
    # once, so assert against the actual invocation count
    assert seq[0] >= 1
    assert world["bank"].endpoint.accepted_connections >= seq[0]


def test_fig3_security_layer_refusal_is_cheap(benchmark, world):
    """The DoS limiter: strangers are refused at connection time."""
    strict_world = make_bank_world(seed=202, open_enrollment=False)
    stranger = strict_world["ca"].issue_identity(
        DistinguishedName("VO-X", "stranger"), key_bits=512
    )
    seq = [0]

    def refused_connect():
        seq[0] += 1
        client = RPCClient(
            strict_world["network"].connect("gridbank"),
            stranger,
            strict_world["store"],
            clock=strict_world["clock"],
            rng=random.Random(seq[0]),
        )
        with pytest.raises(ConnectionRefused):
            client.connect()

    benchmark.pedantic(refused_connect, rounds=15, iterations=1)
    assert seq[0] >= 1
    assert strict_world["bank"].endpoint.refused_connections >= seq[0]
    assert strict_world["bank"].endpoint.accepted_connections == 0


def test_fig3_protocol_layer_request_dispatch(benchmark, world):
    client = world["alice_client"]
    result = benchmark(client.call, "RequestAccountDetails", account_id=world["alice_account"])
    assert result["AccountID"] == world["alice_account"]


def test_fig3_accounts_layer_transfer_txn(benchmark, world):
    bank = world["bank"]
    sink = bank.accounts.create_account("/O=VO-B/CN=sink")

    def transfer():
        bank.accounts.transfer(world["alice_account"], sink, Credits(0.01))

    benchmark(transfer)
    assert bank.accounts.available_balance(sink) > Credits(0)
