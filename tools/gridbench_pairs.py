#!/usr/bin/env python3
"""Compare two revisions on gridbench by alternating pairs, with an A/A control.

    python tools/gridbench_pairs.py <rev-a> <rev-b> [--pairs 10] [--workload W] [--work DIR]

Both revisions are exported with ``git archive`` into ``DIR`` (three
copies: ``a`` and ``a2`` of ``<rev-a>``, ``b`` of ``<rev-b>``) and
byte-compiled — gridbench's children write no bytecode, so an uncompiled
copy re-compiles ``repro`` at every child start and reads 10–45% worse
on ``recovery_s``/``setup_s`` for no reason in the code (EXPERIMENTS.md
GRIDBENCH-19). Each pair then runs the contract form

    python3 gridbench/run.py --workload W --seed S --seconds N --trace 0

once per copy, on a seed of its own, ``a`` and ``b`` swapping who goes
first. ``a`` against ``a2`` is the A/A control: the shift two copies of
the same code show is the floor under which no A/B shift means anything.

Per metric the report gives both medians and quartiles, wins/losses over
the pairs, and a verdict (the rule of the choosing-metrics guide, sec 8):

* ``better`` / ``worse`` — B wins (loses) at least nine tenths of all
  pairs AND the medians differ by more than the noise, which is the
  larger of A's own inter-quartile distance and the A/A median shift;
* ``within bound`` — not resolved as a change, and both the noise and the
  median shift sit inside the bound ``BENCHMARK.json`` fixes;
* ``unresolved`` — anything else: the spread is wider than the bound, so
  the pairs cannot tell. Never read this as "unchanged".

Every run's raw result is appended to ``DIR/runs.jsonl``.
``<rev-b>`` may be the output of ``git stash create`` to measure a
working tree that is not committed yet.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(a: list, b: list, a2: list, better: str, bound: float) -> dict:
    """Judge one metric from paired runs: ``a[i]``, ``b[i]`` and ``a2[i]``
    are pair *i*'s values on rev-a, rev-b and the second copy of rev-a."""
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (y - x) for x, y in zip(a, b)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    median_a, median_b = statistics.median(a), statistics.median(b)
    q_a, q_b = _quartiles(a), _quartiles(b)
    aa_shift = abs(statistics.median(a2) - median_a)
    noise = max(q_a[1] - q_a[0], aa_shift)
    gain = sign * (median_b - median_a)
    allowed = bound * abs(median_a)
    if abs(gain) > noise and wins >= WIN_SHARE * len(gains):
        word = "better"
    elif abs(gain) > noise and losses >= WIN_SHARE * len(gains):
        word = "worse"
    elif noise <= allowed and abs(gain) <= allowed:
        word = "within bound"
    else:
        word = "unresolved"
    return {
        "median_a": median_a, "median_b": median_b, "quartiles_a": q_a, "quartiles_b": q_b,
        "wins": wins, "losses": losses, "pairs": len(gains),
        "gain": gain, "aa_shift": aa_shift, "noise": noise, "verdict": word,
        "regression": word == "worse" and -gain > allowed,
    }


def report(workload: str, runs: dict, metrics: list) -> tuple:
    """Report lines for one workload, and whether any metric resolved as
    worse beyond its bound; *runs* maps copy name to its results."""
    lines = [f"== {workload}: {len(runs['a'])} pairs"]
    regressed = False
    for side in ("a", "b", "a2"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        wrong = sum(not r["correct"] for r in runs[side])
        lines.append(f"   {side:<3} attempted {attempted}  failed {failed}  runs with a failed check {wrong}")
    lines.append(
        f"   {'metric':<22}{'median a':>12}{'[q1, q3]':>26}{'median b':>12}{'[q1, q3]':>26}"
        f"{'wins':>6}{'change':>9}{'A/A':>8}  verdict"
    )
    for metric in metrics:
        name = metric["name"]
        a, b, a2 = ([r["metrics"][name]["value"] for r in runs[side]] for side in ("a", "b", "a2"))
        v = verdict(a, b, a2, metric["better"], metric["bound"])
        base = abs(v["median_a"]) or 1.0
        change = (v["median_b"] - v["median_a"]) / base
        flag = "  REGRESSION (beyond bound)" if v["regression"] else ""
        regressed = regressed or v["regression"]
        lines.append(
            f"   {name:<22}{v['median_a']:>12.4f}"
            f"{'[%.4f, %.4f]' % v['quartiles_a']:>26}{v['median_b']:>12.4f}"
            f"{'[%.4f, %.4f]' % v['quartiles_b']:>26}"
            f"{v['wins']:>3}/{v['pairs']:<2}{change:>+9.1%}{v['aa_shift'] / base:>8.1%}"
            f"  {v['verdict']}{flag}"
        )
    return lines, regressed


def _export(rev: str, into: Path) -> None:
    """``git archive`` *rev* into *into* and byte-compile what gridbench imports."""
    into.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    compileall.compile_dir(str(into / "src"), quiet=1)
    compileall.compile_dir(str(into / "gridbench"), quiet=1)


def _run(copy: Path, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "gridbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, capture_output=True, text=True,
    )
    try:  # exit 1 with a result line is a failed check: recorded, not fatal
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(
            f"gridbench gave no result in {copy} (exit {done.returncode}):\n{done.stderr[-2000:]}"
        ) from None


def main(argv=None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]],
                        help="repeatable; default every workload of BENCHMARK.json")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for the three exported copies (default: a fresh temp dir)")
    args = parser.parse_args(argv)
    work = args.work if args.work is not None else Path(tempfile.mkdtemp(prefix="gridbench-pairs-"))
    copies = {"a": work / "a", "a2": work / "a2", "b": work / "b"}
    for name, path in copies.items():
        _export(args.rev_b if name == "b" else args.rev_a, path)
    regressed = False
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = {name: [] for name in copies}
        for pair in range(args.pairs):
            order = ("a", "b", "a2") if pair % 2 == 0 else ("b", "a", "a2")
            for name in order:
                result = _run(copies[name], workload, 1000 + pair, spec["run_seconds"])
                runs[name].append(result)
                with open(work / "runs.jsonl", "a", encoding="utf-8") as log:
                    log.write(json.dumps({"workload": workload, "pair": pair, "copy": name, **result}) + "\n")
        lines, worse = report(workload, runs, spec["end_to_end"])
        regressed = regressed or worse
        print("\n".join(lines), flush=True)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
