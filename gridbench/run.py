#!/usr/bin/env python3
"""gridbench — the served-bank benchmark.

Contract form (one workload, one run, last stdout line is the result)::

    python3 gridbench/run.py --workload W --seed N --seconds S --trace 0|1

Operator form (every workload, a readable report, non-zero exit if any
check fails)::

    python3 gridbench/run.py --seed N [--workload W] [--traced] [--smoke] [--sets 2]

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the
served run for the ``client.*``/``server.*``/``host.*`` rows and then
replays the first 500 generated ops in-process under the layer ledger
(see ``ledger.py``). See ``README.md`` for the vocabulary.
"""

from __future__ import annotations

import time

_INVOKED_AT = time.perf_counter()

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from harness import percentile  # noqa: E402

WARMUP_SHARE = 0.1         # warm-up length as a share of the measured window
SMOKE_SECONDS = 2
TRACED_OPS = 500

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _start_fleet(work: harness.Workdir, inputs, tag: str) -> dict:
    """Copy every template home and spawn one ``serve`` per copy."""
    servers = {}
    for sid, template in inputs.homes.items():
        home = work.path / f"{tag}-{sid}"
        shutil.copytree(template, home)
        extra = ("--shard-id", sid) if inputs.shard_map is not None else ()
        port = inputs.ports.get(sid) or harness.free_port()
        servers[sid] = work.server(home, port, extra)
    for server in servers.values():
        server.start()
    return servers


def _restart_fleet(servers: dict) -> None:
    for server in servers.values():
        server.kill()
    for server in servers.values():
        server.start()
    for server in servers.values():
        server.wait_listening()


def _kill_fleet(servers: dict, remove: bool) -> None:
    for server in servers.values():
        server.kill()
        if remove:
            shutil.rmtree(server.home, ignore_errors=True)


def _sample(servers: dict) -> dict:
    fleet = list(servers.values())
    return {
        "cpu": sum(s.cpu_seconds() for s in fleet),
        "ctx": sum(s.ctx_switches() for s in fleet),
        "bytes": harness.tree_bytes(*(s.home for s in fleet)),
    }


def _served_counters(inputs, servers: dict) -> dict:
    """Contention and WAL counters the served processes keep about themselves
    (diagnosis plane, on by default), read through the operator RPCs with the
    bank credential — outside the measured window, ``--trace 1`` only."""
    totals = {"lock_waits": 0, "lock_seconds": 0.0, "flushes": 0, "seq": 0}
    for server in servers.values():
        with workloads.bank_client(workloads.Workload.dial, inputs, server.address) as client:
            profile = client.call("Diag.Profile", top=1)
            totals["seq"] += int(client.call("Replication.Status")["seq"])
        for entry in profile["lock_waits"].values():
            totals["lock_waits"] += entry["count"]
            totals["lock_seconds"] += entry["total_seconds"]
        totals["flushes"] += profile["wal_waits"].get("flush", {}).get("count", 0)
    return totals


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One served run of one workload; returns the full result record."""
    host = harness.host_facts()
    workload = workloads.WORKLOADS[name]()
    trials = 1 if smoke else workload.setup_trials
    with harness.Workdir() as work:
        inputs = workload.build(work.path, seed, smoke)
        built_at = time.perf_counter()

        trial_seconds, recoveries, servers = [], [], {}
        for trial in range(trials):
            started = time.perf_counter()
            servers = _start_fleet(work, inputs, f"t{trial}")
            addresses = {sid: server.address for sid, server in servers.items()}
            for server in servers.values():
                server.wait_listening()
            workload.probe(inputs, addresses)
            recoveries.append(time.perf_counter() - min(s.spawned_at for s in servers.values()))
            if trial + 1 < trials:
                trial_seconds.append(time.perf_counter() - started)
                _kill_fleet(servers, remove=True)  # SIGKILL between cold starts
                continue
            workload.connect(inputs, addresses, seed)
            trial_seconds.append(time.perf_counter() - started)

        try:
            warm_started = time.perf_counter()
            warm = workload.warmup(inputs, seed, seconds * WARMUP_SHARE)
            warm_seconds = time.perf_counter() - warm_started

            counters = _served_counters(inputs, servers) if trace else None
            before = _sample(servers)
            client_cpu = time.process_time()
            window_started = time.perf_counter()
            tally = workload.measure(inputs, seed, seconds)
            window_ended = time.perf_counter()
            client_cpu = time.process_time() - client_cpu
            after = _sample(servers)
            if trace:
                ended = _served_counters(inputs, servers)
                counters = {key: ended[key] - counters[key] for key in ended}
            fleet = list(servers.values())
            threads = sum(s.threads() for s in fleet)
            rss_mb = sum(s.rss_hwm_mb() for s in fleet)
        finally:
            workload.close()

        # process-crash durability: kill -9, restart on the same bytes, read back
        _restart_fleet(servers)
        problems = checks.verify(workload, inputs, servers, warm, tally)
        _kill_fleet(servers, remove=False)

        record = _metrics(
            workload, host, warm, tally,
            window=(window_started, window_ended), before=before, after=after,
            client_cpu=client_cpu, threads=threads, rss_mb=rss_mb,
            recoveries=recoveries,
            setup_s=(built_at - _INVOKED_AT) + statistics.median(trial_seconds) + warm_seconds,
        )
        if trace:
            import ledger

            ops = max(record["samples"]["ops"], 1)
            record["metrics"].update({
                "bank.locks.wait_us": counters["lock_seconds"] * 1e6 / ops,
                "bank.locks.waits_per_kop": counters["lock_waits"] * 1e3 / ops,
                "db.wal_records_per_op": counters["seq"] / ops,
                "db.wal_batch_mean": counters["seq"] / max(counters["flushes"], 1),
            })
            record["metrics"].update(
                ledger.run(workload, inputs, seed, work, TRACED_OPS if not smoke else 60,
                           solo_p50_us=record["metrics"]["client.solo_p50_ms"] * 1e3)
            )
    record.update(
        workload=name, seed=seed, seconds=seconds, host=host,
        correct=not problems, problems=problems,
        attempted=warm.attempted + tally.attempted, failed=warm.failed + tally.failed,
        errors=(warm.errors + tally.errors)[:5],
    )
    return record


def _metrics(workload, host, warm, tally, *, window, before, after,
             client_cpu, threads, rss_mb, recoveries, setup_s) -> dict:
    latencies = sorted(latency for _finish, latency, _kind in tally.ok)
    completed = len(latencies)
    if workload.loop == "open":
        origin, nominal_end = tally.window
        last_finish = max((finish for finish, _l, _k in tally.ok), default=nominal_end)
        elapsed = max(nominal_end, last_finish) - origin
        backlog = sum(1 for finish, _l, _k in tally.ok if finish > nominal_end)
    else:
        elapsed = window[1] - window[0]
        backlog = 0
    ops = max(completed, 1)
    attempted = max(tally.attempted, 1)
    server_cpu = after["cpu"] - before["cpu"]

    def by_kind(kind: str) -> list[float]:
        return sorted(latency for _f, latency, k in tally.ok if k == kind)

    def step_ms(name: str) -> float:
        values = sorted(tally.steps.get(name, ()))
        return percentile(values, 0.5) * 1e3

    ok_ratio = (tally.attempted - tally.failed) / attempted
    m = {
        # end to end
        "ops_per_s": completed / elapsed,
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p95_ms": percentile(latencies, 0.95) * 1e3,
        "ok_ratio": ok_ratio,
        "on_time_ratio": (tally.attempted - tally.late) / attempted if workload.loop == "open" else ok_ratio,
        "server_cpu_ms_per_op": server_cpu * 1e3 / ops,
        "wal_bytes_per_op": (after["bytes"] - before["bytes"]) / ops,
        "server_rss_mb": rss_mb,
        "recovery_s": statistics.median(recoveries),
        "setup_s": setup_s,
        # driver and host rows of the layer table
        "client.solo_p50_ms": percentile(sorted(l for _f, l, _k in warm.ok), 0.5) * 1e3,
        "client.p99_ms": percentile(latencies, 0.99) * 1e3,
        "client.max_ms": (latencies[-1] if latencies else 0.0) * 1e3,
        "client.cpu_ms_per_op": client_cpu * 1e3 / ops,
        "client.fail_ratio": tally.failed / attempted,
        "client.late_ratio": tally.late / attempted,
        "client.gen_late_p95_ms": percentile(sorted(tally.gen_late), 0.95) * 1e3,
        "client.backlog_end": float(backlog),
        "client.connect_ms": step_ms("connect"),
        "client.issue_ms": step_ms("issue"),
        "client.redeem_ms": step_ms("redeem"),
        "client.local_p50_ms": percentile(by_kind("local"), 0.5) * 1e3,
        "client.cross_p50_ms": percentile(by_kind("cross"), 0.5) * 1e3,
        "client.parked_ratio": tally.parked / attempted,
        "server.cpu_util": server_cpu / elapsed,
        "server.threads": float(threads),
        "server.ctx_switches_per_op": (after["ctx"] - before["ctx"]) / ops,
        "host.calibration_mops": host["calibration_mops"],
        "host.load1_start": host["load1_start"],
    }
    return {"metrics": m, "samples": {"ops": completed, "warmup_ops": len(warm.ok),
                                      "recovery_starts": len(recoveries)}}


def contract_line(record: dict, trace: bool) -> str:
    names = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name in names:
        value = record["metrics"].get(name, 0.0)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise harness.BenchError(f"metric {name} is not finite: {value!r}")
        metrics[name] = {"value": value, "unit": UNITS[name]}
    return json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    })


def report(record: dict, trace: bool) -> str:
    lines = [
        f"== {record['workload']}  seed={record['seed']}  window={record['seconds']}s  "
        f"ops={record['samples']['ops']} (+{record['samples']['warmup_ops']} warm-up)  "
        f"attempted={record['attempted']} failed={record['failed']}  "
        f"checks={'ok' if record['correct'] else 'FAILED'}",
        f"   host: python {record['host']['python']}, nproc {record['host']['nproc']}, "
        f"load1 {record['host']['load1_start']:.2f}, "
        f"calibration {record['host']['calibration_mops']:.2f} Mops",
    ]
    for name in END_TO_END + (PER_LAYER if trace else []):
        if name in record["metrics"]:
            lines.append(f"   {name:<34} {record['metrics'][name]:>14.4f} {UNITS[name]}")
    for problem in record["problems"]:
        lines.append(f"   CHECK FAILED: {problem}")
    for error in record["errors"]:
        lines.append(f"   op error: {error}")
    return "\n".join(lines)


# -- operator form: every workload, each in its own load-generator process ---------------


def _child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0", "--record"]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise harness.BenchError(f"{workload}: run exited {done.returncode} without a result")
    return json.loads(lines[-1])


def run_all(names: list[str], seed: int, seconds: float, traced: bool, smoke: bool) -> list[dict]:
    records = []
    for name in names:
        record = _child(name, seed, seconds, False, smoke)
        if traced:
            traced_record = _child(name, seed, seconds, True, smoke)
            record["traced"] = traced_record
            record["correct"] = record["correct"] and traced_record["correct"]
        print(report(record, False))
        if traced:
            print(report(record["traced"], True))
        records.append(record)
    return records


def compare_sets(first: list[dict], second: list[dict]) -> tuple[list[str], dict]:
    """Per (metric, workload): relative difference between two back-to-back
    sets against the metric's bound. Returns the table and the spreads."""
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    lines, spreads = [], {}
    for a, b in zip(first, second):
        for name, spec in bounds.items():
            x, y = a["metrics"][name], b["metrics"][name]
            diff = abs(y - x) / abs(x) if x else 0.0
            verdict = "ok" if diff <= spec["bound"] else "DISAGREES"
            spreads.setdefault(name, {})[a["workload"]] = diff
            lines.append(f"   {a['workload']:<14} {name:<22} {x:>12.4f} {y:>12.4f} "
                         f"{diff * 100:>7.2f}% of bound {spec['bound'] * 100:.1f}%  {verdict}")
    return lines, spreads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--traced", action="store_true", help="also run the traced pass")
    parser.add_argument("--smoke", action="store_true", help="2 s windows, 500-op aged home")
    parser.add_argument("--sets", type=int, default=1, help="repeat the whole benchmark N times and compare")
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (SMOKE_SECONDS if args.smoke else SPEC["run_seconds"])

    if args.workload and args.trace is not None:
        record = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
        if args.record:  # operator-form child: hand the whole record to the parent
            print(json.dumps(record))
        else:
            print(report(record, bool(args.trace)))
            print(contract_line(record, bool(args.trace)))
        return 0 if record["correct"] else 1

    names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    sets = [run_all(names, args.seed, seconds, args.traced, args.smoke) for _ in range(max(1, args.sets))]
    ok = all(record["correct"] for records in sets for record in records)
    stored = {"seed": args.seed, "seconds": seconds, "runs": sets[-1]}
    if len(sets) > 1:
        lines, spreads = compare_sets(sets[0], sets[-1])
        print("== two-set agreement (set 1, set 2, difference against the bound)")
        print("\n".join(lines))
        ok = ok and not any("DISAGREES" in line for line in lines)
        stored["two_set_spread"] = spreads
    if not args.smoke:  # the latest full results travel with the benchmark
        (HERE / "RESULTS.json").write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print("gridbench:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
