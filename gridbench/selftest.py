#!/usr/bin/env python3
"""Harness self-test: ``python3 gridbench/selftest.py`` (about a minute).

Checks the benchmark, not the bank:

1. ``BENCHMARK.json`` has exactly the contract's keys and stays inside its
   limits; every name matches ``[A-Za-z0-9_.-]+``;
2. the seeded generators are deterministic — same seed, same open-loop due
   times and op sequence; another seed, another schedule;
3. every workload, in ``--smoke`` mode (2 s windows, 500-op aged home),
   emits every listed metric exactly once with a finite value, untraced and
   traced, with ``correct`` true and no failed op;
4. hygiene: no ``serve`` child and no work directory outlives a run;
5. in a directory holding only ``BENCHMARK.json`` and ``gridbench/`` the
   command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _no_duplicates(pairs: list) -> dict:
    keys = [key for key, _value in pairs]
    check(len(keys) == len(set(keys)), f"name emitted twice: {sorted(k for k in keys if keys.count(k) > 1)}")
    return dict(pairs)


def check_spec() -> dict:
    raw = (ROOT / "BENCHMARK.json").read_text()
    check(len(raw.encode()) <= 64 * 1024, "BENCHMARK.json over 64 KiB")
    spec = json.loads(raw, object_pairs_hook=_no_duplicates)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"BENCHMARK.json keys: {sorted(spec)}")
    check(1 <= len(spec["paths"]) <= 16 and all(PATH.match(p) and not p.startswith("/") and ".." not in p
                                                  for p in spec["paths"]), "bad paths")
    check(len(spec["command"]) <= 32 and all(len(part) <= 200 for part in spec["command"]), "bad command")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds out of range")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    check(1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128, "metric counts")
    names = []
    for workload in spec["workloads"]:
        check(set(workload) == {"name", "why"}, f"workload keys: {workload}")
        check(len(workload["why"]) <= 200 and "\n" not in workload["why"], f"why of {workload['name']}")
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        check(set(metric) == {"name", "unit", "better", "bound"}, f"end_to_end keys: {metric}")
        check(0 < metric["bound"] <= 0.25, f"bound of {metric['name']}")
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        check(set(metric) == {"name", "unit", "better"}, f"per_layer keys: {metric}")
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(metric["unit"]) is not None, f"unit of {metric['name']}")
        check(metric["better"] in ("lower", "higher"), f"direction of {metric['name']}")
    check(all(NAME.match(name) for name in names), "a name is outside [A-Za-z0-9_.-]")
    check(len(names) == len(set(names)), "a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s missing")
    check(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s must have the largest bound")
    return spec


def check_generators() -> None:
    import workloads

    drawers = [f"01-0001-{i:08d}" for i in range(1, 65)]
    recipients = [f"01-0001-{i:08d}" for i in range(65, 129)]
    first = workloads.open_schedule(7, 4.0, drawers, recipients)
    again = workloads.open_schedule(7, 4.0, drawers, recipients)
    other = workloads.open_schedule(8, 4.0, drawers, recipients)
    check(first == again, "open-loop schedule differs between two builds from one seed")
    check(first != other, "open-loop schedule ignores the seed")
    jitter = workloads.OPEN_JITTER / workloads.OPEN_RATE
    check(len(first) == int(workloads.OPEN_RATE * 4) and abs(first[-1][0] - 4.0) <= jitter,
          "open-loop schedule does not offer rate x seconds requests")
    check(all(abs(due - slot / workloads.OPEN_RATE) <= jitter for slot, (due, _op) in enumerate(first, start=1)),
          "a due time is further from its slot than the jitter allows")
    check(all(a[0] < b[0] for a, b in zip(first, first[1:])), "due times are not increasing")
    for generator in (workloads.transfer_ops, workloads.mixed_ops):
        a, b = generator(3, "c0", drawers, recipients), generator(3, "c0", drawers, recipients)
        check([next(a) for _ in range(200)] == [next(b) for _ in range(200)],
              f"{generator.__name__} is not deterministic")


def _leftovers() -> list[str]:
    found = []
    if (ROOT / ".gridbench_work").exists():
        found.append(str(ROOT / ".gridbench_work"))
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if ".gridbench_work" in cmdline:
            found.append(f"pid {entry.name}: {cmdline.strip()}")
    return found


def check_runs(spec: dict) -> None:
    for workload in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload["name"], "--seed", "1",
                 "--seconds", "2", "--trace", str(trace), "--smoke"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
            )
            tag = f"{workload['name']} --trace {trace}"
            check(done.returncode == 0, f"{tag}: exit {done.returncode}\n{done.stdout[-800:]}\n{done.stderr[-800:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1], object_pairs_hook=_no_duplicates)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{tag}: correct={result['correct']} failed={result['failed']}")
            check(set(result["metrics"]) == {m["name"] for m in listed},
                  f"{tag}: metric names differ from BENCHMARK.json: "
                  f"{sorted(set(result['metrics']) ^ {m['name'] for m in listed})}")
            for metric in listed:
                emitted = result["metrics"][metric["name"]]
                check(set(emitted) == {"value", "unit"} and emitted["unit"] == metric["unit"], f"{tag}: {metric['name']}")
                check(isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"]),
                      f"{tag}: {metric['name']} is not finite")
            check(not _leftovers(), f"{tag}: left behind {_leftovers()}")
            print(f"ok  {tag}")


def check_bare_directory() -> None:
    bare = ROOT / ".gridbench_work" / "selftest-bare"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "gridbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "gridbench/run.py", "--workload", "direct_tcp", "--seed", "1",
             "--seconds", "2", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=bare,
        )
        check(done.returncode != 0, "run.py exited 0 without the program's sources")
        check('"metrics"' not in done.stdout, "run.py printed a result without the program's sources")
    finally:
        shutil.rmtree(ROOT / ".gridbench_work", ignore_errors=True)


def main() -> int:
    try:
        spec = check_spec()
        print("ok  BENCHMARK.json")
        check_generators()
        print("ok  seeded generators")
        check_bare_directory()
        print("ok  bare directory refuses")
        check_runs(spec)
    except AssertionError as exc:
        print(f"selftest: FAIL — {exc}", file=sys.stderr)
        return 1
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
