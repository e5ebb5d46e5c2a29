#!/usr/bin/env python
"""Lint: library modules must use the obs logger, not bare ``print()``.

Walks every module under ``src/``, ``benchmarks/`` and ``tools/`` and
fails (exit 1) if any calls the builtin ``print``. Debug output through
``print`` is invisible to the structured logging/metrics pipeline (no
level, no trace ID, no capture in tests), so the observability layer
would silently lose it.

Allowlisted for this rule only (their stdout IS their contract, not
diagnostics):
``repro/cli.py`` (the ``gridbank`` command), the trajectory recorder,
the regression gate, the gridbench pair comparison, and this checker
itself.

Second rule, same walk: background work is a ``step()`` under the one
:class:`repro.util.runner.Runner`, so any ``threading.Thread(...)`` call
or ``Thread`` subclass under ``src/repro/bank``, ``src/repro/db`` or
``src/repro/obs`` fails too (the runner module is the only construction
site in ``src/`` outside ``net/``).

Third rule, same walk: who may call an operation and which role serves
it are columns of the bank's op table (``access``, ``kind``), checked by
``GridBankServer.dispatch`` before a stripe or a transaction is taken.
So under ``src/`` a function named ``op_*``, or ``ShardNode.coordinate``
(the 2PC path dispatch hands a transfer instead of its handler), that
calls ``_require_standing``, ``_require_admin``, ``_require_peer`` or
``_require_primary`` fails.

Fourth rule, same walk: the storage format has one owner. A module under
``src/`` outside ``src/repro/db/`` that names a database file
(``WAL_NAME``, ``SNAPSHOT_NAME``, ``EPOCH_NAME``, ``QUARANTINE_NAME``)
or calls a format primitive (``atomic_write``, ``encode_snapshot``,
``decode_snapshot``, ``snapshot_tables``, ``scan_wal``, ``parse_record``,
``quarantine_wal_suffix``) fails: it reads or writes a database
directory through ``Database`` and ``repro.db.integrity``'s directory
verbs instead.

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


# packages (relative to src/) that may not construct or subclass a Thread
NO_THREAD_PACKAGES = (Path("repro/bank"), Path("repro/db"), Path("repro/obs"))


def _is_thread(node: ast.expr) -> bool:
    """``Thread`` or ``<anything>.Thread`` (``threading.Thread``)."""
    return (isinstance(node, ast.Name) and node.id == "Thread") or (
        isinstance(node, ast.Attribute) and node.attr == "Thread"
    )


def _name(node: ast.AST):
    """The called or named identifier: ``x`` of ``x`` or ``a.x``."""
    return getattr(node, "attr", getattr(node, "id", None))


# the subject-class and role checks the op table's columns replace
ROW_CHECKS = {"_require_standing", "_require_admin", "_require_peer", "_require_primary"}


def _row_checks(function: ast.AST) -> list[tuple[int, str]]:
    """Calls of a :data:`ROW_CHECKS` name anywhere inside *function*."""
    found = []
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            name = _name(node.func)
            if name in ROW_CHECKS:
                found.append((node.lineno, f"{name}() in {function.name}: declare it on the op's row"))
    return found


# what only src/repro/db may name or call: the files of a database
# directory and the primitives that read or write their format
STORAGE_NAMES = {"WAL_NAME", "SNAPSHOT_NAME", "EPOCH_NAME", "QUARANTINE_NAME"}
STORAGE_CALLS = {
    "atomic_write", "encode_snapshot", "decode_snapshot", "snapshot_tables", "scan_wal",
    "parse_record", "quarantine_wal_suffix",
}
STORAGE_OWNER = Path("repro/db")


def find_offences(
    path: Path, threads: bool = False, handlers: bool = False, storage: bool = False
) -> list[tuple[int, str]]:
    """``(line, what)`` for each bare ``print(...)`` call in *path*; with
    *threads*, each ``Thread(...)`` construction or subclass; with
    *handlers*, each access or role check inside an op handler; with
    *storage*, each database file name or format primitive it uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if storage and isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
            name = node.name if isinstance(node, ast.alias) else _name(node)
            if name in STORAGE_NAMES:
                found.append((node.lineno, f"{name} outside repro.db"))
        if storage and isinstance(node, ast.Call) and _name(node.func) in STORAGE_CALLS:
            found.append((node.lineno, f"{_name(node.func)}() outside repro.db"))
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                found.append((node.lineno, "print()"))
            elif threads and _is_thread(node.func):
                found.append((node.lineno, "Thread() outside the Runner"))
        elif isinstance(node, ast.ClassDef):
            if threads and any(map(_is_thread, node.bases)):
                found.append((node.lineno, "Thread subclass"))
            if handlers and node.name == "ShardNode":
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "coordinate":
                        found.extend(_row_checks(item))
        elif handlers and isinstance(node, ast.FunctionDef) and node.name.startswith("op_"):
            found.extend(_row_checks(node))
    return found


def main() -> int:
    offenders: list[tuple[Path, int, str]] = []
    scanned = 0
    for root, allowlist in SCAN_ROOTS:
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root)
            scanned += 1
            threads = any(package in relative.parents for package in NO_THREAD_PACKAGES)
            in_src = root.name == "src"
            storage = in_src and STORAGE_OWNER not in relative.parents
            try:
                for line, what in find_offences(path, threads, in_src, storage):
                    if what == "print()" and relative in allowlist:
                        continue
                    offenders.append((path.relative_to(REPO_ROOT), line, what))
            except SyntaxError as exc:
                print(f"check_no_print: cannot parse {path}: {exc}", file=sys.stderr)
                return 1
    if offenders:
        print(
            "library code must log through repro.obs.logging, not print(), run "
            "background work as a step under repro.util.runner.Runner, leave "
            "who may call an op to its row in the op table, and leave the "
            "storage format to repro.db:",
            file=sys.stderr,
        )
        for relative, line, what in offenders:
            print(f"  {relative}:{line}: {what}", file=sys.stderr)
        return 1
    print(f"check_no_print: OK ({scanned} modules clean)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
