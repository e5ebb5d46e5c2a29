"""Shared fixtures.

RSA key generation is the only genuinely slow primitive, so a handful of
keypairs are generated once per session from fixed seeds and shared by all
tests that just need *a* key (tests exercising keygen itself make their own).
"""

import random

import pytest

from repro.bank.cluster import ClusterNode
from repro.bank.node import Node, NodeConfig
from repro.bank.server import GridBankServer
from repro.bank.shard import ShardMap, ShardNode
from repro.crypto.rsa import RSAKeyPair, generate_keypair
from repro.net.rpc import RequestContext, request_scope, session_cache
from repro.net.transport import InProcessNetwork
from repro.payments import coin
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.validation import CertificateStore
from repro.util.gbtime import VirtualClock


@pytest.fixture(autouse=True)
def _fresh_session_cache():
    """The client session cache is process-wide; no test inherits another's
    sign-on (module-scoped worlds reuse one credential and trust store)."""
    session_cache.clear()


def deliver_keyed(bank, method: str, subject: str, key: str, **params):
    """Call *method* on *bank* in-process, as a client carrying
    idempotency key *key* would deliver it."""
    context = RequestContext(method=method, subject=subject, idempotency_key=key)
    with request_scope(context):
        return bank.endpoint.operations[method](subject, params)


def attach_foreign_shard(bank, account: str) -> ShardNode:
    """Make *bank* one shard of a two-shard map — the one that does NOT
    own *account*. The caller closes the returned node."""
    shard_map = ShardMap.initial({"s1": ("here",), "s2": ("there",)})
    foreign = "s2" if shard_map.shard_for(account) == "s1" else "s1"
    node = ClusterNode(bank, "here", InProcessNetwork().connect)
    return ShardNode(node, foreign, shard_map=shard_map)


@pytest.fixture()
def attach():
    """How ``tests.test_replication``'s world serves each bank: the cluster
    plane alone. A module that wants all of what ``gridbank serve``
    attaches overrides this fixture with one that builds Nodes."""

    def attach(bank, address, connect, **options):
        return ClusterNode(bank, address, connect, poll_interval=0.005, **options)

    return attach


@pytest.fixture(scope="session")
def keypair_a() -> RSAKeyPair:
    return generate_keypair(bits=512, rng=random.Random(1001))


@pytest.fixture(scope="session")
def keypair_b() -> RSAKeyPair:
    return generate_keypair(bits=512, rng=random.Random(1002))


@pytest.fixture(scope="session")
def keypair_c() -> RSAKeyPair:
    return generate_keypair(bits=512, rng=random.Random(1003))


@pytest.fixture(scope="session")
def ca_keypair() -> RSAKeyPair:
    return generate_keypair(bits=512, rng=random.Random(2001))


@pytest.fixture()
def attached_bank(ca_keypair, keypair_a):
    """A bank with everything that adds rows to the op table attached:
    the core sec 5.2 / 5.2.1 listing, the cluster plane, the shard plane
    and the GridCoin extension."""
    clock = VirtualClock()
    ca = CertificateAuthority(
        DistinguishedName("GridBank", "Root CA"), clock=clock, keypair=ca_keypair
    )
    identity = ca.issue_identity(DistinguishedName("GridBank", "server"), keypair=keypair_a)
    bank = GridBankServer(identity, CertificateStore([ca.root_certificate]), clock=clock)
    config = NodeConfig(diag=False, shard_id="s1", resolve_interval=None)
    node = Node(bank, config, InProcessNetwork().connect).start("here")
    coin.install(bank)
    yield bank
    node.close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """On test failure, fire the diagnosis plane's ``test_failure``
    trigger: any flight recorder still running (cluster/chaos fixtures)
    dumps its rings to its post-mortem directory, which CI then sweeps
    into a debug-bundle artifact (``tools/collect_debug_bundle.py``)."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        try:
            from repro.obs import diag as obs_diag

            obs_diag.notify_trigger("test_failure", test=item.nodeid)
        except Exception:  # noqa: BLE001 - diagnostics never fail a report
            pass
