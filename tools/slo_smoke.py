#!/usr/bin/env python
"""SLO smoke drill: trip a burn-rate page with injected faults, then clear it.

A CI gate for the telemetry plane's core promise: under a scheduled
latency+drop storm on the in-process transport the bank's latency SLO
must escalate to ``page``, and once the faults stop and good traffic
rolls the fast window over it must return to ``ok`` — with the
transitions visible in the metrics registry. Runs entirely on a
VirtualClock, so the whole drill is deterministic and takes well under a
second of wall time.

Usage: PYTHONPATH=src python tools/slo_smoke.py   (exit 0 = pass)
"""

import random
import sys

from repro.bank.cluster import cluster_client
from repro.bank.node import Node, NodeConfig
from repro.bank.server import GridBankServer
from repro.core.api import GridBankAPI
from repro.errors import ReproError
from repro.net.retry import RetryPolicy
from repro.net.transport import FaultPhase, FaultPlan, FaultSchedule, InProcessNetwork
from repro.obs import metrics as obs_metrics
from repro.obs.slo import Objective
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.validation import CertificateStore
from repro.util.gbtime import VirtualClock
from repro.util.money import Credits

STORM_AT = 5.0
CALM_AT = 500.0


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def main() -> int:
    obs_metrics.reset()
    clock = VirtualClock()
    start = clock.epoch()
    ca = CertificateAuthority(
        DistinguishedName("GridBank", "Root CA"),
        clock=clock, rng=random.Random(1), key_bits=512,
    )
    store = CertificateStore([ca.root_certificate])
    bank_ident = ca.issue_identity(DistinguishedName("GridBank", "server"), key_bits=512)

    schedule = FaultSchedule([
        FaultPhase(at=start + STORM_AT, settings={
            "latency_probability": 1.0,
            "latency_range": (0.3, 0.5),
            "drop_request_probability": 0.2,
        }),
        FaultPhase(at=start + CALM_AT, settings={
            "latency_probability": 0.0,
            "drop_request_probability": 0.0,
        }),
    ])
    faults = FaultPlan(rng=random.Random(0), clock=clock, schedule=schedule)
    network = InProcessNetwork(faults=faults)

    bank = GridBankServer(bank_ident, store, clock=clock, rng=random.Random(2))
    network.listen("bank-a", bank.connection_handler)
    objective = Objective(op="*", target=0.99, latency_threshold=0.15,
                          fast_window=60.0, slow_window=600.0)
    config = NodeConfig(slo=(objective,), diag=False, poll_interval=0.005)
    node = Node(bank, config, network.connect).start("bank-a")
    try:
        admin_ident = ca.issue_identity(DistinguishedName("GridBank", "admin"), key_bits=512)
        bank.admin.add_administrator(admin_ident.subject)
        alice_ident = ca.issue_identity(DistinguishedName("VO-A", "alice"), key_bits=512)

        def api_for(identity, seed):
            client = cluster_client(
                identity, store, network.connect, ("bank-a",),
                clock=clock, rng=random.Random(seed),
                retry_policy=RetryPolicy(max_attempts=8, rng=random.Random(seed + 10)),
            )
            return GridBankAPI(client, rng=random.Random(seed + 50))

        alice = api_for(alice_ident, 1)
        admin = api_for(admin_ident, 3)
        src = alice.create_account()
        dst = alice.create_account()
        admin.admin_deposit(src, Credits(1000))

        for _ in range(8):
            alice.request_direct_transfer(src, dst, Credits(1))
            clock.advance(0.5)
        check(bank.slo.worst_state() == "ok", "warm-up traffic must be ok")
        sys.stdout.write("slo-smoke: warm-up ok\n")

        clock.advance(max(0.0, (start + STORM_AT) - clock.epoch()) + 0.1)
        for _ in range(40):
            try:
                alice.request_direct_transfer(src, dst, Credits(1))
            except ReproError:
                pass  # retries can exhaust under drops; the drill goes on
            clock.advance(0.5)
        check(bank.slo.worst_state() == "page", "fault storm must trip a page")
        check(bank.slo.overload(), "overload() must signal during the page")
        sys.stdout.write("slo-smoke: storm tripped the page alert\n")

        clock.advance(max(0.0, (start + CALM_AT) - clock.epoch()) + 0.1)
        for _ in range(80):
            alice.request_direct_transfer(src, dst, Credits(1))
            clock.advance(1.0)
        check(bank.slo.worst_state() == "ok", "alert must clear after the faults stop")
        check(not bank.slo.overload(), "overload() must clear with the alert")

        snapshot = obs_metrics.snapshot()
        transitions = snapshot["counters"].get("slo.alert_transitions{op=*}", 0)
        check(transitions >= 2, f"expected >=2 recorded transitions, saw {transitions}")
        check(snapshot["gauges"].get("slo.alert_state{op=*}") == 0,
              "alert_state gauge must end at 0 (ok)")
        sys.stdout.write(
            f"slo-smoke: PASS — page tripped and cleared, {transitions} transitions recorded\n"
        )
        return 0
    except AssertionError as exc:
        sys.stderr.write(f"slo-smoke: FAIL — {exc}\n")
        return 1
    finally:
        node.close()


if __name__ == "__main__":
    sys.exit(main())
