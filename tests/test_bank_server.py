"""Integration tests: the GridBank server driven over secure RPC."""

import random

import pytest

from repro.bank.server import PRIMARY, READ, WRITE, GridBankServer
from repro.crypto.hashes import HashChain
from repro.errors import (
    AuthorizationError,
    DoubleSpendError,
    InsufficientFundsError,
    NotFoundError,
    NotPrimaryError,
    WrongShardError,
)
from repro.net.rpc import ConnectionRefused, RPCClient
from repro.obs import metrics as obs_metrics
from repro.net.tcp import TCPClientConnection, TCPServer
from repro.net.transport import InProcessNetwork
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.proxy import issue_proxy
from repro.pki.validation import CertificateStore
from repro.util.gbtime import VirtualClock
from repro.util.money import Credits
from tests.conftest import attach_foreign_shard, deliver_keyed


@pytest.fixture(scope="module")
def grid(ca_keypair, keypair_a, keypair_b, keypair_c):
    clock = VirtualClock()
    ca = CertificateAuthority(DistinguishedName("GridBank", "Root CA"), clock=clock, keypair=ca_keypair)
    store = CertificateStore([ca.root_certificate])
    return {
        "clock": clock,
        "ca": ca,
        "store": store,
        "bank_ident": ca.issue_identity(DistinguishedName("GridBank", "server"), keypair=keypair_a),
        "alice": ca.issue_identity(DistinguishedName("VO-A", "alice"), keypair=keypair_b),
        "gsp": ca.issue_identity(DistinguishedName("VO-B", "gsp"), keypair=keypair_c),
        "admin_ident": ca.issue_identity(
            DistinguishedName("GridBank", "admin"),
            keypair=keypair_a,  # key reuse is fine for tests; subject differs
        ),
    }


@pytest.fixture()
def bank(grid):
    server = GridBankServer(
        grid["bank_ident"],
        grid["store"],
        clock=grid["clock"],
        rng=random.Random(11),
    )
    server.admin.add_administrator(grid["admin_ident"].subject)
    return server


@pytest.fixture()
def network(bank):
    net = InProcessNetwork()
    net.listen("gridbank", bank.connection_handler)
    return net


def client_for(grid, network, identity, seed=0) -> RPCClient:
    client = RPCClient(
        network.connect("gridbank"),
        identity,
        grid["store"],
        clock=grid["clock"],
        rng=random.Random(1000 + seed),
    )
    client.connect()
    return client


@pytest.fixture()
def alice_client(grid, network):
    return client_for(grid, network, grid["alice"], seed=1)


@pytest.fixture()
def gsp_client(grid, network):
    return client_for(grid, network, grid["gsp"], seed=2)


@pytest.fixture()
def admin_client(grid, network):
    return client_for(grid, network, grid["admin_ident"], seed=3)


def open_funded_account(client, admin_client, amount=1000) -> str:
    account = client.call("CreateAccount", organization_name="VO")["account_id"]
    admin_client.call("Admin.Deposit", account_id=account, amount=Credits(amount))
    return account


class TestAccountOperations:
    def test_create_and_query(self, alice_client, grid):
        account = alice_client.call("CreateAccount", organization_name="VO-A")["account_id"]
        details = alice_client.call("RequestAccountDetails", account_id=account)
        assert details["CertificateName"] == grid["alice"].subject
        assert details["OrganizationName"] == "VO-A"
        assert details["AvailableBalance"] == 0.0

    def test_update_account(self, alice_client):
        account = alice_client.call("CreateAccount")["account_id"]
        updated = alice_client.call(
            "UpdateAccountDetails", account_id=account, organization_name="NewOrg"
        )
        assert updated["OrganizationName"] == "NewOrg"

    def test_cannot_read_foreign_account(self, alice_client, gsp_client):
        account = alice_client.call("CreateAccount")["account_id"]
        gsp_client.call("CreateAccount")
        with pytest.raises(AuthorizationError):
            gsp_client.call("RequestAccountDetails", account_id=account)

    def test_admin_can_read_any_account(self, alice_client, admin_client):
        account = alice_client.call("CreateAccount")["account_id"]
        assert admin_client.call("RequestAccountDetails", account_id=account)["AccountID"] == account

    def test_statement_over_rpc(self, grid, alice_client, gsp_client, admin_client):
        src = open_funded_account(alice_client, admin_client)
        dst = gsp_client.call("CreateAccount")["account_id"]
        start = grid["clock"].now().stamp14
        alice_client.call(
            "RequestDirectTransfer", from_account=src, to_account=dst, amount=Credits(10)
        )
        grid["clock"].advance(60)
        statement = alice_client.call(
            "RequestAccountStatement", account_id=src, start=start, end=grid["clock"].now().stamp14
        )
        types = [t["Type"] for t in statement["transactions"]]
        assert "Deposit" in types and "Transfer" in types
        assert len(statement["transfers"]) == 1

    def test_funds_availability_check_locks(self, alice_client, admin_client):
        account = open_funded_account(alice_client, admin_client, 100)
        result = alice_client.call("FundsAvailabilityCheck", account_id=account, amount=Credits(40))
        assert result["confirmed"] is True
        details = alice_client.call("RequestAccountDetails", account_id=account)
        assert details["AvailableBalance"] == 60.0
        assert details["LockedBalance"] == 40.0
        alice_client.call("ReleaseFunds", account_id=account, amount=Credits(40))
        assert alice_client.call("RequestAccountDetails", account_id=account)["LockedBalance"] == 0.0

    def test_release_cannot_invade_instrument_guarantee(self, grid, alice_client, admin_client):
        """Regression for a bug hypothesis found: ReleaseFunds must not
        free the locked funds backing an outstanding cheque (sec 3.4)."""
        from repro.errors import AccountError

        account = open_funded_account(alice_client, admin_client, 100)
        alice_client.call(
            "RequestGridCheque", account_id=account,
            payee_subject=grid["gsp"].subject, amount=Credits(60),
        )
        alice_client.call("FundsAvailabilityCheck", account_id=account, amount=Credits(10))
        # 70 locked total: 60 reserved by the cheque, 10 plain
        with pytest.raises(AccountError, match="releasable"):
            alice_client.call("ReleaseFunds", account_id=account, amount=Credits(20))
        alice_client.call("ReleaseFunds", account_id=account, amount=Credits(10))
        details = alice_client.call("RequestAccountDetails", account_id=account)
        assert details["LockedBalance"] == 60.0

    def test_insufficient_funds_propagates(self, alice_client, gsp_client, admin_client):
        src = open_funded_account(alice_client, admin_client, 10)
        dst = gsp_client.call("CreateAccount")["account_id"]
        with pytest.raises(InsufficientFundsError):
            alice_client.call(
                "RequestDirectTransfer", from_account=src, to_account=dst, amount=Credits(100)
            )


class TestAuthorizationGates:
    def test_unknown_subject_cannot_use_non_enrollment_ops(self, grid, network, alice_client):
        # alice connected but has no account yet
        with pytest.raises(AuthorizationError, match="no account"):
            alice_client.call("RequestAccountDetails", account_id="01-0001-00000001")

    def test_strict_policy_refuses_unknown_subjects(self, grid):
        strict = GridBankServer(
            grid["bank_ident"],
            grid["store"],
            clock=grid["clock"],
            rng=random.Random(12),
            open_enrollment=False,
        )
        net = InProcessNetwork()
        net.listen("strictbank", strict.connection_handler)
        client = RPCClient(
            net.connect("strictbank"), grid["alice"], grid["store"],
            clock=grid["clock"], rng=random.Random(5),
        )
        with pytest.raises(ConnectionRefused):
            client.connect()
        assert strict.endpoint.refused_connections == 1

    def test_admin_ops_require_admin(self, alice_client):
        account = alice_client.call("CreateAccount")["account_id"]
        with pytest.raises(AuthorizationError):
            alice_client.call("Admin.Deposit", account_id=account, amount=Credits(5))

    def test_proxy_credential_operates_user_account(self, grid, network, bank, keypair_b):
        proxy = issue_proxy(grid["alice"], clock=grid["clock"], keypair=keypair_b)
        client = RPCClient(
            network.connect("gridbank"), proxy, grid["store"],
            clock=grid["clock"], rng=random.Random(9),
        )
        client.connect()
        account = client.call("CreateAccount")["account_id"]
        # account is recorded against the *user* subject, not the proxy
        assert bank.accounts.owner_of(account) == grid["alice"].subject


class TestPaymentsOverRPC:
    def test_cheque_lifecycle(self, grid, alice_client, gsp_client, admin_client):
        src = open_funded_account(alice_client, admin_client)
        gsp_account = gsp_client.call("CreateAccount")["account_id"]
        cheque = alice_client.call(
            "RequestGridCheque",
            account_id=src,
            payee_subject=grid["gsp"].subject,
            amount=Credits(100),
        )["cheque"]
        result = gsp_client.call(
            "RedeemGridCheque",
            cheque=cheque,
            payee_account=gsp_account,
            charge=Credits(75),
            rur_blob=b"\x01rur",
        )
        assert result["paid"] == Credits(75)
        assert result["released"] == Credits(25)
        with pytest.raises(DoubleSpendError):
            gsp_client.call(
                "RedeemGridCheque", cheque=cheque, payee_account=gsp_account, charge=Credits(1)
            )

    def test_cheque_batch_over_rpc(self, grid, alice_client, gsp_client, admin_client):
        src = open_funded_account(alice_client, admin_client)
        gsp_account = gsp_client.call("CreateAccount")["account_id"]
        cheques = [
            alice_client.call(
                "RequestGridCheque", account_id=src,
                payee_subject=grid["gsp"].subject, amount=Credits(10),
            )["cheque"]
            for _ in range(4)
        ]
        results = gsp_client.call(
            "RedeemGridChequeBatch",
            items=[
                {"cheque": c, "payee_account": gsp_account, "charge": Credits(8)} for c in cheques
            ],
        )
        assert len(results) == 4
        assert all(r["ok"] for r in results)
        # one ledger TRANSACTION per cheque, monotone in batch position
        txn_ids = [r["transaction_id"] for r in results]
        assert txn_ids == sorted(txn_ids) and len(set(txn_ids)) == 4
        details = gsp_client.call("RequestAccountDetails", account_id=gsp_account)
        assert details["AvailableBalance"] == 32.0

    def test_cheque_batch_rejection_is_per_cheque(self, grid, alice_client, gsp_client, admin_client):
        """A bad cheque in a batch is rejected with a warning log; the
        other cheques still settle, each with its own transaction."""
        from repro.obs import logging as obs_logging

        src = open_funded_account(alice_client, admin_client)
        gsp_account = gsp_client.call("CreateAccount")["account_id"]
        cheques = [
            alice_client.call(
                "RequestGridCheque", account_id=src,
                payee_subject=grid["gsp"].subject, amount=Credits(10),
            )["cheque"]
            for _ in range(3)
        ]
        # burn the middle cheque so the batch hits a double-spend there
        gsp_client.call(
            "RedeemGridCheque", cheque=cheques[1], payee_account=gsp_account, charge=Credits(10)
        )
        with obs_logging.capture() as cap:
            results = gsp_client.call(
                "RedeemGridChequeBatch",
                items=[
                    {"cheque": c, "payee_account": gsp_account, "charge": Credits(8)}
                    for c in cheques
                ],
            )
        assert [r["ok"] for r in results] == [True, False, True]
        rejected = results[1]
        assert rejected["error_type"] == "DoubleSpendError"
        assert rejected["transaction_id"] is None
        assert rejected["paid"] == Credits(0)
        good = [r for r in results if r["ok"]]
        assert [r["position"] for r in good] == [0, 2]
        assert good[0]["transaction_id"] < good[1]["transaction_id"]
        warnings = cap.find("bank.cheque_batch.rejected")
        assert len(warnings) == 1
        assert warnings[0]["position"] == 1
        assert warnings[0]["error"] == "DoubleSpendError"
        # the good cheques settled: 10 (individual) + 8 + 8
        details = gsp_client.call("RequestAccountDetails", account_id=gsp_account)
        assert details["AvailableBalance"] == 26.0

    def test_hashchain_lifecycle(self, grid, alice_client, gsp_client, admin_client):
        src = open_funded_account(alice_client, admin_client)
        gsp_account = gsp_client.call("CreateAccount")["account_id"]
        chain = HashChain(20, rng=random.Random(4))
        commitment = alice_client.call(
            "RequestGridHash",
            account_id=src,
            payee_subject=grid["gsp"].subject,
            root=chain.root,
            length=20,
            link_value=Credits(0.5),
        )["commitment"]
        result = gsp_client.call(
            "RedeemGridHash",
            commitment=commitment,
            payee_account=gsp_account,
            index=12,
            link=chain.link(12),
        )
        assert result["paid"] == Credits(6)
        assert result["links_redeemed"] == 12
        assert result["released"] == Credits(4)

    def test_direct_transfer_confirmation_pickup(self, grid, alice_client, gsp_client, admin_client):
        src = open_funded_account(alice_client, admin_client)
        gsp_account = gsp_client.call("CreateAccount")["account_id"]
        alice_client.call(
            "RequestDirectTransfer",
            from_account=src,
            to_account=gsp_account,
            amount=Credits(30),
            recipient_address="gsp.vo-b.org/pay",
        )
        inbox = gsp_client.call("FetchConfirmations", address="gsp.vo-b.org/pay")
        assert len(inbox) == 1
        from repro.payments.direct import TransferConfirmation

        confirmation = TransferConfirmation.from_dict(inbox[0])
        bank_info = gsp_client.call("BankInfo")
        from repro.crypto.keys import public_key_from_dict

        confirmation.verify(public_key_from_dict(bank_info["public_key"]))
        assert confirmation.amount == Credits(30)
        # inbox is drained after pickup
        assert gsp_client.call("FetchConfirmations", address="gsp.vo-b.org/pay") == []

    def test_confirmations_only_fetchable_by_payee(
        self, grid, alice_client, gsp_client, admin_client
    ):
        src = open_funded_account(alice_client, admin_client)
        gsp_account = gsp_client.call("CreateAccount")["account_id"]
        alice_client.call(
            "RequestDirectTransfer",
            from_account=src,
            to_account=gsp_account,
            amount=Credits(5),
            recipient_address="gsp.vo-b.org/private",
        )
        # the drawer (or anyone else) gets nothing from the GSP's inbox...
        assert alice_client.call("FetchConfirmations", address="gsp.vo-b.org/private") == []
        # ...and the rightful payee still finds the confirmation queued
        inbox = gsp_client.call("FetchConfirmations", address="gsp.vo-b.org/private")
        assert len(inbox) == 1


class TestAdminOverRPC:
    def test_deposit_withdraw_credit_limit(self, alice_client, admin_client):
        account = alice_client.call("CreateAccount")["account_id"]
        admin_client.call("Admin.Deposit", account_id=account, amount=Credits(100))
        admin_client.call("Admin.Withdraw", account_id=account, amount=Credits(40))
        admin_client.call("Admin.ChangeCreditLimit", account_id=account, credit_limit=Credits(50))
        details = alice_client.call("RequestAccountDetails", account_id=account)
        assert details["AvailableBalance"] == 60.0
        assert details["CreditLimit"] == 50.0

    def test_cancel_transfer_and_close(self, grid, alice_client, gsp_client, admin_client):
        src = open_funded_account(alice_client, admin_client, 100)
        dst = gsp_client.call("CreateAccount")["account_id"]
        confirmation = alice_client.call(
            "RequestDirectTransfer", from_account=src, to_account=dst, amount=Credits(30)
        )["confirmation"]
        txn_id = confirmation["payload"]["transaction_id"]
        admin_client.call("Admin.CancelTransfer", transaction_id=txn_id)
        assert alice_client.call("RequestAccountDetails", account_id=src)["AvailableBalance"] == 100.0
        result = admin_client.call("Admin.CloseAccount", account_id=src)
        assert result["outstanding_balance"] == Credits(100)

    def test_add_administrator_over_rpc(self, grid, admin_client, alice_client, bank):
        admin_client.call("Admin.AddAdministrator", certificate_name=grid["alice"].subject)
        assert bank.admin.is_administrator(grid["alice"].subject)

    def test_cancel_missing_transfer(self, admin_client):
        with pytest.raises(NotFoundError):
            admin_client.call("Admin.CancelTransfer", transaction_id=424242)


class TestOverTCP:
    def test_full_cheque_flow_over_sockets(self, grid, bank):
        with TCPServer(bank.connection_handler) as server:
            def connect(identity, seed):
                client = RPCClient(
                    TCPClientConnection(server.address), identity, grid["store"],
                    clock=grid["clock"], rng=random.Random(seed),
                )
                client.connect()
                return client

            alice = connect(grid["alice"], 21)
            admin = connect(grid["admin_ident"], 22)
            gsp = connect(grid["gsp"], 23)
            src = open_funded_account(alice, admin, 500)
            gsp_account = gsp.call("CreateAccount")["account_id"]
            cheque = alice.call(
                "RequestGridCheque", account_id=src,
                payee_subject=grid["gsp"].subject, amount=Credits(50),
            )["cheque"]
            result = gsp.call(
                "RedeemGridCheque", cheque=cheque, payee_account=gsp_account, charge=Credits(50)
            )
            assert result["paid"] == Credits(50)
            for client in (alice, admin, gsp):
                client.close()


# the sec 5.2 / 5.2.1 listing, spelled out: a renamed, dropped or
# reclassified operation must fail here, not slip through a derived set
MUTATING = {
    "CreateAccount",
    "UpdateAccountDetails",
    "FundsAvailabilityCheck",
    "ReleaseFunds",
    "RequestDirectTransfer",
    "FetchConfirmations",
    "RequestGridCheque",
    "RedeemGridCheque",
    "RedeemGridChequeBatch",
    "CancelGridCheque",
    "RequestGridHash",
    "RedeemGridHash",
    "Admin.Deposit",
    "Admin.Withdraw",
    "Admin.ChangeCreditLimit",
    "Admin.CancelTransfer",
    "Admin.CloseAccount",
    "Admin.AddAdministrator",
}
READS = {
    "BankInfo",
    "RequestAccountDetails",
    "RequestAccountStatement",
    "EstimatePrice",
}
# mutating operations that name no account to lock or to shard-guard
NO_ACCOUNT = {"CreateAccount", "FetchConfirmations", "Admin.AddAdministrator"}


# for the properties over a fully attached bank (core + cluster plane +
# shard plane + GridCoin), whatever its rows are
STRANGER = "/O=Nowhere/CN=stranger"
# enough for every row's accounts_of / reply_key extractor to run
PROBE = {"account_id": "01-0001-00000001", "from_account": "01-0001-00000001",
         "to_account": "01-0001-00000002", "intent_id": "probe"}
PRIMARY_ONLY = {
    "Shard.Install", "Shard.Export", "Shard.Import", "Shard.Evict", "Shard.Resolve",
    "Replication.Snapshot", "Replication.Fetch",
}


class TestOpTable:
    def test_registered_methods_and_their_classification(self, bank):
        assert set(bank.ops) == MUTATING | READS
        assert set(bank.endpoint.operations) == set(bank.ops)
        assert {method for method, op in bank.ops.items() if op.mutating} == MUTATING
        assert {m for m, op in bank.ops.items() if op.staleness_exempt} == {"BankInfo"}

    def test_every_mutating_op_names_its_accounts(self, bank):
        without = {
            method for method, op in bank.ops.items() if op.mutating and op.accounts_of is None
        }
        assert without == NO_ACCOUNT
        # the shard guard checks what the locks cover, except that a direct
        # transfer is guarded on its drawer alone
        params = {"from_account": "a", "to_account": "b"}
        for method, op in bank.ops.items():
            if method == "RequestDirectTransfer":
                assert op.accounts_of(params) == ("a", "b")
                assert op.guard_accounts(params) == ("a",)
            else:
                assert op.guard_accounts is op.accounts_of

    @pytest.mark.parametrize(
        "refusal, reply_cached",
        [(WrongShardError, False), (NotPrimaryError, True), (AuthorizationError, True)],
        ids=["wrong_shard_before_role", "role_before_reply_cache", "replay_before_access"],
    )
    def test_check_order(self, bank, grid, refusal, reply_cached):
        """Which refusal a request gets when more than one applies:
        shard, then role, then the replay, then the access check."""
        admin = grid["admin_ident"].subject
        account = bank.accounts.create_account(grid["alice"].subject)
        deposit = dict(account_id=account, amount=Credits(5))
        shard = None
        if reply_cached:
            # the key's reply row sits in this node's table (as replication
            # would have put it there), yet a standby must not answer from it
            first = deliver_keyed(bank, "Admin.Deposit", admin, "order-1", **deposit)
            assert deliver_keyed(bank, "Admin.Deposit", admin, "order-1", **deposit) == first
        else:
            # a standby of the shard that does not own the account: the
            # client must learn the owning shard, not this shard's primary
            shard = attach_foreign_shard(bank, account)
        key = "order-1"
        if refusal is AuthorizationError:
            # a primary whose caller has lost the administrator bit: the key
            # it used while it held the bit still replays, a new one is refused
            bank.admin.remove_administrator(admin)
            assert deliver_keyed(bank, "Admin.Deposit", admin, key, **deposit) == first
            key = "order-2"
        else:
            bank.role = "standby"
        hits = obs_metrics.counter("bank.dedup_hits")
        before = hits.value
        try:
            with pytest.raises(refusal):
                deliver_keyed(bank, "Admin.Deposit", admin, key, **deposit)
        finally:
            if shard is not None:
                shard.close()
        assert hits.value == before
        assert bank.accounts.available_balance(account) == Credits(5 if reply_cached else 0)


    def test_moved_column_meters_every_row_that_moves_money(self, bank, grid):
        alice, gsp, admin = (grid[who].subject for who in ("alice", "gsp", "admin_ident"))
        moving = {
            "RequestDirectTransfer", "RedeemGridCheque", "RedeemGridChequeBatch",
            "RedeemGridHash", "Admin.Deposit", "Admin.Withdraw",
        }
        assert {m for m, op in bank.ops.items() if op.moved is not None} == moving

        def call(method, subject, **params):
            return deliver_keyed(bank, method, subject, "", **params)

        src, dst = bank.accounts.create_account(alice), bank.accounts.create_account(gsp)
        call("Admin.Deposit", admin, account_id=src, amount=Credits(100))
        call("Admin.Withdraw", admin, account_id=src, amount=10)
        call("RequestDirectTransfer", alice, from_account=src, to_account=dst, amount=Credits(5))
        cheques = [
            call("RequestGridCheque", alice, account_id=src, payee_subject=gsp,
                 amount=Credits(10))["cheque"]
            for _ in range(3)
        ]
        call("RedeemGridCheque", gsp, cheque=cheques[0], payee_account=dst, charge=Credits(8))
        items = [{"cheque": c, "payee_account": dst, "charge": Credits(3)} for c in cheques]
        assert [r["ok"] for r in call("RedeemGridChequeBatch", gsp, items=items)] == [False, True, True]
        chain = HashChain(4, rng=random.Random(4))
        commitment = call(
            "RequestGridHash", alice, account_id=src, payee_subject=gsp,
            root=chain.root, length=4, link_value=Credits(0.5),
        )["commitment"]
        call("RedeemGridHash", gsp, commitment=commitment, payee_account=dst,
             index=2, link=chain.link(2))
        moved = {row["principal"]: row["currency_moved"] for row in bank.usage.top_principals(5)}
        assert moved == {admin: 110.0, alice: 5.0, gsp: 8.0 + 6.0 + 1.0}

    # -- properties over every row of a fully attached bank --------------------

    def test_every_row_says_who_may_call(self, attached_bank):
        bank = attached_bank
        assert set(bank.access) == {"anyone", "standing", "admin", "peer"}
        named = {check: name for name, check in bank.access.items()}
        by_access = {method: named[op.access] for method, op in bank.ops.items()}
        assert {m for m, name in by_access.items() if name == "anyone"} == {
            "BankInfo", "CreateAccount", "Shard.Map",
        }
        assert {m for m, name in by_access.items() if name == "admin"} == {
            m for m in bank.ops if m.startswith("Admin.")
        } | {"Cluster.Promote", "Integrity.Repair"}
        with pytest.raises(TypeError):
            bank.register("Nameless", bank.op_bank_info)  # access has no default

    def test_row_kinds(self, attached_bank):
        ops = attached_bank.ops
        assert {op.kind for op in ops.values()} == {READ, PRIMARY, WRITE}
        assert {m for m, op in ops.items() if op.kind == PRIMARY} == PRIMARY_ONLY
        assert {m for m, op in ops.items() if op.mutating} == {
            m for m, op in ops.items() if op.kind == WRITE
        } == MUTATING | {"Shard.Apply", "MintGridCoins", "RedeemGridCoin", "RefundGridCoin"}
        with pytest.raises(ValueError):
            attached_bank.register("Odd", attached_bank.op_bank_info, access="anyone", kind="cached")

    def test_a_stranger_is_refused_before_anything_is_taken(self, attached_bank, monkeypatch):
        bank = attached_bank
        taken = []
        for owner, name in ((bank.db, "transaction"), (bank.locks, "exclusive"), (bank.locks, "shared")):
            inner = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda *a, _inner=inner, _name=name: taken.append(_name) or _inner(*a)
            )
        position = bank.db.replication_position()
        guarded = [m for m, op in bank.ops.items() if op.access is not bank.access["anyone"]]
        assert len(guarded) == len(bank.ops) - 3
        for method in guarded:
            with pytest.raises(AuthorizationError):
                deliver_keyed(bank, method, STRANGER, f"stranger-{method}", **PROBE)
            assert bank.db.find("replies", (f"stranger-{method}",)) is None
        assert taken == []
        assert bank.db.replication_position() == position

    def test_writes_and_primary_only_rows_refuse_on_a_standby(self, attached_bank):
        bank = attached_bank
        bank.role, bank.primary_address = "standby", "primary:7"
        position = bank.db.replication_position()
        needs_primary = [m for m, op in bank.ops.items() if op.kind != READ]
        assert set(needs_primary) >= PRIMARY_ONLY | MUTATING
        for method in needs_primary:
            # even for a caller the access check would refuse: role comes first
            with pytest.raises(NotPrimaryError) as caught:
                deliver_keyed(bank, method, STRANGER, f"standby-{method}", **PROBE)
            assert caught.value.primary_address == "primary:7"
        assert bank.db.replication_position() == position
        # reads keep answering there
        assert deliver_keyed(bank, "BankInfo", STRANGER, "")["role"] == "standby"
