"""The cluster telemetry plane end to end.

A three-node world (primary + two standbys) serves ``Telemetry.Snapshot``
to cluster peers and administrators; ``gridbank top``'s gather/render
pair folds the per-node snapshots into one operator pane. The same file
pins the ``/healthz`` readiness endpoint and holds the strict Prometheus
text-format checker: every exported line must parse under the 0.0.4
exposition grammar even when principal DNs (commas, equals signs,
quotes, backslashes, newlines) become label values.
"""

import json
import math
import random
import re
import time
import urllib.error
import urllib.request

import pytest

import repro.cli as cli
from repro.bank.cluster import ClusterNode, cluster_client
from repro.bank.server import GridBankServer
from repro.core.api import GridBankAPI
from repro.db.database import Database
from repro.errors import AuthorizationError, ReproError
from repro.net.retry import RetryPolicy
from repro.net.rpc import RPCClient
from repro.net.transport import FaultPlan, InProcessNetwork
from repro.obs import metrics as obs_metrics
from repro.obs.export import HTTPExporter, render_prometheus
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.validation import CertificateStore
from repro.util.gbtime import VirtualClock
from repro.util.money import Credits

A, B, C = "bank-a", "bank-b", "bank-c"


def wait_until(predicate, timeout: float = 8.0, interval: float = 0.005) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


def wait_caught_up(primary: GridBankServer, standby: GridBankServer) -> None:
    wait_until(
        lambda: primary.db.replication_position() == standby.db.replication_position()
    )


@pytest.fixture()
def world(ca_keypair, keypair_a, keypair_c, tmp_path):
    clock = VirtualClock()
    ca = CertificateAuthority(
        DistinguishedName("GridBank", "Root CA"), clock=clock, keypair=ca_keypair
    )
    store = CertificateStore([ca.root_certificate])
    bank_ident = ca.issue_identity(DistinguishedName("GridBank", "server"), keypair=keypair_a)
    network = InProcessNetwork(faults=FaultPlan(rng=random.Random(0), clock=clock))

    def boot(name, seed):
        db = Database(path=tmp_path / name)
        bank = GridBankServer(bank_ident, store, db=db, clock=clock, rng=random.Random(seed))
        bank.recover()
        # a lenient objective: these tests inject a 20% error rate on
        # purpose, and the default 99.9% target would (correctly) page
        from repro.obs.slo import Objective, SLOEngine

        bank.slo = SLOEngine(clock=clock, objectives=(
            Objective(op="*", target=0.5, latency_threshold=60.0),
        ))
        network.listen(name, bank.connection_handler)
        return bank

    bank_a, bank_b, bank_c = boot(A, 2), boot(B, 3), boot(C, 4)
    node_a = ClusterNode(bank_a, A, network.connect, poll_interval=0.005)
    node_b = ClusterNode(bank_b, B, network.connect, poll_interval=0.005, staleness_bound=30.0)
    node_c = ClusterNode(bank_c, C, network.connect, poll_interval=0.005, staleness_bound=30.0)
    node_b.follow(A)
    node_c.follow(A)

    admin_ident = ca.issue_identity(DistinguishedName("GridBank", "admin"), keypair=keypair_c)
    bank_a.admin.add_administrator(admin_ident.subject)
    alice_ident = ca.issue_identity(DistinguishedName("VO-A", "alice"), keypair=keypair_c)
    gsp_ident = ca.issue_identity(DistinguishedName("VO-B", "gsp"), keypair=keypair_c)

    def api_for(identity, seed, addresses=(A, B, C)):
        client = cluster_client(
            identity, store, network.connect, addresses,
            clock=clock, rng=random.Random(seed),
            retry_policy=RetryPolicy(max_attempts=8, rng=random.Random(seed + 10)),
        )
        return GridBankAPI(client, rng=random.Random(seed + 50))

    alice = api_for(alice_ident, 1)
    admin = api_for(admin_ident, 3)
    alice_account = alice.create_account()
    gsp_account = api_for(gsp_ident, 2).create_account()
    admin.admin_deposit(alice_account, Credits(1000))
    yield {
        "clock": clock,
        "network": network,
        "store": store,
        "banks": {A: bank_a, B: bank_b, C: bank_c},
        "nodes": {A: node_a, B: node_b, C: node_c},
        "api_for": api_for,
        "alice": alice,
        "admin": admin,
        "alice_ident": alice_ident,
        "admin_ident": admin_ident,
        "alice_account": alice_account,
        "gsp_account": gsp_account,
    }
    for node in (node_a, node_b, node_c):
        node._stop_replicator()


def drive_traffic(world, transfers: int = 6, failures: int = 2) -> None:
    for _ in range(transfers):
        world["alice"].request_direct_transfer(
            world["alice_account"], world["gsp_account"], Credits(10)
        )
    for _ in range(failures):
        with pytest.raises(ReproError):
            world["alice"].request_direct_transfer(
                world["alice_account"], world["gsp_account"], Credits(10**9)
            )
    banks = world["banks"]
    wait_caught_up(banks[A], banks[B])
    wait_caught_up(banks[A], banks[C])


class TestTelemetrySnapshotRPC:
    def test_admin_gets_the_full_per_node_view(self, world):
        drive_traffic(world)
        client = RPCClient(
            world["network"].connect(A), world["admin_ident"], world["store"],
            clock=world["clock"],
        )
        client.connect()
        try:
            snap = client.call("Telemetry.Snapshot", top=3)
        finally:
            client.close()
        assert snap["node"] == A
        assert snap["role"] == "primary"
        assert isinstance(snap["lag_seconds"], (int, float))
        # SLO: the default "*" objective tracked every op and stayed ok
        assert snap["slo"]["*"]["state"] == "ok"
        assert snap["slo"]["*"]["slow_total"] >= 8
        # usage: alice dominates the live period
        top = snap["usage"]["top"]
        assert any("alice" in entry["principal"] for entry in top)
        alice_entry = next(e for e in top if "alice" in e["principal"])
        assert alice_entry["errors"] == 2
        assert alice_entry["currency_moved"] == pytest.approx(60.0)
        # hot ops: real bank traffic, never the replication plumbing
        hot = {entry["op"] for entry in snap["hot_ops"]}
        assert "direct_transfer" in hot
        assert not hot & {"replication_fetch", "replication_status", "telemetry_snapshot"}

    def test_standby_reports_its_own_role_and_lag(self, world):
        drive_traffic(world)
        client = RPCClient(
            world["network"].connect(B), world["admin_ident"], world["store"],
            clock=world["clock"],
        )
        client.connect()
        try:
            snap = client.call("Telemetry.Snapshot")
        finally:
            client.close()
        assert snap["role"] == "standby"
        assert snap["primary_address"] == A
        assert snap["lag_records"] == 0

    def test_plain_users_are_rejected(self, world):
        client = RPCClient(
            world["network"].connect(A), world["alice_ident"], world["store"],
            clock=world["clock"],
        )
        client.connect()
        try:
            with pytest.raises(AuthorizationError):
                client.call("Telemetry.Snapshot")
        finally:
            client.close()


class TestGridbankTop:
    def test_gather_and_render_across_the_cluster(self, world, monkeypatch):
        drive_traffic(world)
        monkeypatch.setattr(cli, "_tcp_connect", world["network"].connect)
        # the CLI client runs on the system clock; this world's PKI lives
        # on a 2003-era virtual clock, so pin cert validation to it
        import repro.net.rpc as rpc_mod

        real_client = rpc_mod.RPCClient
        monkeypatch.setattr(
            rpc_mod, "RPCClient",
            lambda connection, credential, store: real_client(
                connection, credential, store, clock=world["clock"]
            ),
        )
        snapshots = cli._gather_telemetry(
            [A, B, C, "bank-x"], world["admin_ident"], world["store"], top=3
        )
        assert len(snapshots) == 4
        by_node = {snap["node"]: snap for snap in snapshots}
        assert by_node[A]["role"] == "primary"
        assert by_node[B]["role"] == "standby"
        assert by_node[C]["role"] == "standby"
        assert "error" in by_node["bank-x"]

        text = cli.render_top(snapshots, top=3)
        # one row per node with role and SLO state
        assert re.search(rf"^{A}\s+primary\b.*\bok$", text, re.MULTILINE)
        assert re.search(rf"^{B}\s+standby\b", text, re.MULTILINE)
        assert re.search(rf"^{C}\s+standby\b", text, re.MULTILINE)
        assert "unreachable" in text
        assert "slo burn rates (worst across nodes):" in text
        assert "hottest ops:" in text
        assert "direct_transfer" in text
        assert "top principals (sum across nodes):" in text
        assert "alice" in text

    def test_render_survives_an_all_down_cluster(self, world):
        snapshots = [
            {"node": A, "error": "TransportError: boom"},
            {"node": B, "error": "OSError: connection refused"},
        ]
        text = cli.render_top(snapshots)
        assert text.count("unreachable") == 2

    def test_replicated_usage_rows_are_not_double_counted(self, world):
        """Rollups do not replicate: each node meters what it served, so
        `top` sums a principal over the nodes and counts each op once —
        the writes on the primary plus a read served by a standby."""
        drive_traffic(world)
        bank_a = world["banks"][A]
        bank_a.usage.maybe_rollup(force=True)
        reader = RPCClient(
            world["network"].connect(B), world["alice_ident"], world["store"],
            clock=world["clock"],
        )
        reader.connect()
        try:
            reader.call("RequestAccountDetails", account_id=world["alice_account"])
        finally:
            reader.close()
        wait_caught_up(bank_a, world["banks"][B])
        wait_caught_up(bank_a, world["banks"][C])
        snapshots = []
        for address in (A, B, C):
            client = RPCClient(
                world["network"].connect(address), world["admin_ident"], world["store"],
                clock=world["clock"],
            )
            client.connect()
            try:
                snap = client.call("Telemetry.Snapshot", top=3)
            finally:
                client.close()
            snapshots.append(snap)
        text = cli.render_top(snapshots, top=3)
        alice_line = next(
            line for line in text.splitlines()
            if "alice" in line and "ops" in line
        )
        per_node = [
            sum(e["ops"] for e in snap["usage"]["top"] if "alice" in e["principal"])
            for snap in snapshots
        ]
        # the primary served alice's writes, bank-b her one read, bank-c none
        assert per_node[1:] == [1, 0]
        ops_shown = int(re.search(r"(\d+) ops", alice_line).group(1))
        assert ops_shown == sum(per_node)


class TestHealthz:
    def exporter(self, health_fn):
        exporter = HTTPExporter(port=0, health_fn=health_fn).start()
        return exporter, f"http://127.0.0.1:{exporter.port}"

    def test_healthy_node_serves_its_operational_state(self):
        payload = {
            "ok": True, "role": "primary", "primary_address": None,
            "lag_seconds": 0.0, "alert": "ok", "slo": {"*": "ok"},
        }
        exporter, base = self.exporter(lambda: payload)
        try:
            with urllib.request.urlopen(base + "/healthz") as response:
                assert response.status == 200
                body = json.loads(response.read())
        finally:
            exporter.stop()
        assert body["role"] == "primary"
        assert body["alert"] == "ok"
        assert body["slo"] == {"*": "ok"}

    def test_paging_node_returns_503_for_the_lb(self):
        payload = {"ok": False, "role": "standby", "alert": "page", "lag_seconds": 94.0}
        exporter, base = self.exporter(lambda: payload)
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(base + "/healthz")
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["alert"] == "page"
        finally:
            exporter.stop()

    def test_broken_health_fn_is_a_503_not_a_crash(self):
        def boom():
            raise RuntimeError("db gone")

        exporter, base = self.exporter(boom)
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(base + "/healthz")
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read()) == {"ok": False, "error": "RuntimeError"}
        finally:
            exporter.stop()

    def test_without_health_fn_the_path_is_absent(self):
        exporter = HTTPExporter(port=0).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"http://127.0.0.1:{exporter.port}/healthz")
            assert excinfo.value.code == 404
        finally:
            exporter.stop()


# -- strict Prometheus text-format checker -----------------------------------

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _parse_label_block(block: str) -> dict:
    """Parse `name="value",...` under the 0.0.4 grammar: values are
    double-quoted with exactly three escapes (\\\\, \\", \\n) allowed."""
    labels: dict[str, str] = {}
    i = 0
    while i < len(block):
        j = block.index("=", i)
        name = block[i:j]
        assert _LABEL_NAME_RE.match(name), f"bad label name {name!r}"
        assert block[j + 1] == '"', f"label {name!r} value not quoted"
        i = j + 2
        value = []
        while True:
            ch = block[i]
            if ch == "\\":
                esc = block[i + 1]
                assert esc in ('\\', '"', 'n'), f"illegal escape \\{esc}"
                value.append({"\\": "\\", '"': '"', "n": "\n"}[esc])
                i += 2
            elif ch == '"':
                i += 1
                break
            else:
                assert ch != "\n", "raw newline inside label value"
                value.append(ch)
                i += 1
        labels[name] = "".join(value)
        if i < len(block):
            assert block[i] == ",", f"expected ',' at {block[i:]!r}"
            i += 1
    return labels


def _parse_metric_line(line: str) -> tuple[str, dict, float]:
    if "{" in line:
        name, rest = line.split("{", 1)
        block, value_text = rest.rsplit("} ", 1)
        labels = _parse_label_block(block)
    else:
        name, value_text = line.rsplit(" ", 1)
        labels = {}
    assert _NAME_RE.match(name), f"bad metric name {name!r}"
    value = float(value_text)  # "+Inf"/"-Inf"/"NaN" parse too
    return name, labels, value


class TestPrometheusStrictFormat:
    DN = 'O=Acme, OU="Grid,Ops"\\Lab, CN=alice'

    def render(self) -> str:
        obs_metrics.reset()
        obs_metrics.counter("usage.principal.ops", principal=self.DN).inc(3)
        obs_metrics.counter("bank.op.direct_transfer.requests").inc(40)
        obs_metrics.gauge("slo.burn_rate", op="*", window="fast").set(1.5)
        obs_metrics.gauge("slo.alert_state", op="*").set(0)
        histogram = obs_metrics.histogram("rpc.latency.seconds", principal=self.DN)
        for value in (0.001, 0.01, 0.05, 0.2, 1.0, 30.0):
            histogram.observe(value)
        return render_prometheus()

    def test_every_line_parses_under_the_exposition_grammar(self):
        text = self.render()
        assert text.endswith("\n")
        seen_types: dict[str, str] = {}
        samples: list[tuple[str, dict, float]] = []
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("#"):
                match = re.match(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$", line)
                assert match, f"malformed comment line: {line!r}"
                seen_types[match.group(1)] = match.group(2)
                continue
            samples.append(_parse_metric_line(line))
        assert seen_types, "no TYPE lines rendered"
        assert samples, "no samples rendered"
        names = {name for name, _, _ in samples}
        # every sample belongs to a declared metric family
        for name in names:
            base = re.sub(r"_(bucket|sum|count)$", "", name)
            assert base in seen_types or name in seen_types, f"undeclared family for {name}"

    def test_nasty_principal_dn_round_trips_through_labels(self):
        text = self.render()
        values = []
        for line in text.splitlines():
            if line.startswith("#") or "{" not in line:
                continue
            _, labels, _ = _parse_metric_line(line)
            values.extend(labels.values())
        assert self.DN in values

    def test_newline_in_label_value_cannot_break_framing(self):
        obs_metrics.reset()
        obs_metrics.counter("usage.principal.ops", principal="CN=eve\ninjected 1").inc()
        text = render_prometheus()
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            _parse_metric_line(line)  # every line still parses standalone
        assert "\ninjected" not in text.replace("\\n", "")

    def test_histogram_buckets_are_cumulative_and_consistent(self):
        text = self.render()
        buckets: list[tuple[float, float]] = []
        sum_value = count_value = None
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name, labels, value = _parse_metric_line(line)
            if name == "rpc_latency_seconds_bucket":
                buckets.append((float(labels["le"]), value))
            elif name == "rpc_latency_seconds_sum":
                sum_value = value
            elif name == "rpc_latency_seconds_count":
                count_value = value
        assert buckets, "histogram rendered no buckets"
        bounds = [bound for bound, _ in buckets]
        assert bounds == sorted(bounds), "le bounds must ascend"
        assert math.isinf(bounds[-1]), "last bucket must be +Inf"
        counts = [count for _, count in buckets]
        assert counts == sorted(counts), "cumulative counts must be monotone"
        assert count_value == counts[-1] == 6
        assert sum_value == pytest.approx(0.001 + 0.01 + 0.05 + 0.2 + 1.0 + 30.0)
