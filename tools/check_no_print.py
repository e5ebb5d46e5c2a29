#!/usr/bin/env python
"""Lint: library modules must use the obs logger, not bare ``print()``.

Walks every module under ``src/``, ``benchmarks/`` and ``tools/`` and
fails (exit 1) if any calls the builtin ``print``. Debug output through
``print`` is invisible to the structured logging/metrics pipeline (no
level, no trace ID, no capture in tests), so the observability layer
would silently lose it.

Allowlisted (their stdout IS their contract, not diagnostics):
``repro/cli.py`` (the ``gridbank`` command), the trajectory recorder,
the regression gate, the gridbench pair comparison, and this checker
itself.

Run via ``make lint`` (also: ``python tools/check_no_print.py``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# (root directory, allowlisted paths relative to it)
SCAN_ROOTS = [
    (REPO_ROOT / "src", {Path("repro/cli.py")}),
    (REPO_ROOT / "benchmarks", {Path("trajectory.py")}),
    (
        REPO_ROOT / "tools",
        {Path("check_no_print.py"), Path("check_bench_regression.py"), Path("gridbench_pairs.py")},
    ),
]


def find_print_calls(path: Path) -> list[int]:
    """Line numbers of bare ``print(...)`` calls in *path*."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            lines.append(node.lineno)
    return lines


def main() -> int:
    offenders: list[tuple[Path, int]] = []
    scanned = 0
    for root, allowlist in SCAN_ROOTS:
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root)
            if relative in allowlist:
                continue
            scanned += 1
            try:
                for line in find_print_calls(path):
                    offenders.append((path.relative_to(REPO_ROOT), line))
            except SyntaxError as exc:
                print(f"check_no_print: cannot parse {path}: {exc}", file=sys.stderr)
                return 1
    if offenders:
        print("bare print() in library code — use repro.obs.logging instead:", file=sys.stderr)
        for relative, line in offenders:
            print(f"  {relative}:{line}", file=sys.stderr)
        return 1
    print(f"check_no_print: OK ({scanned} modules clean)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
