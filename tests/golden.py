"""The golden manifest: one line per CLI command with the digests of what
it printed and its exit code.

    PYTHONPATH=src python tests/golden.py            # rewrite the manifest
    PYTHONPATH=src python tests/golden.py --check    # replay and compare

Each line of ``golden_manifest.txt`` is ``exit stdout stderr argv``: the
exit code, the sha256 prefixes of stdout and of stderr, and the argv as a
shell-quoted string.  ``tests/test_golden.py`` replays every line in one
process, in file order, and fails on any line whose output or exit code
moved.  Rewriting the manifest changes the check data: an intended output
change is a manifest diff that names its commands, never a blanket
regeneration.

The commands are the three benchmark workloads' lists at seeds 1-3 (read
from ``perfbench/workloads.py``), ``check --suite all --trials 25`` at
seeds 1-5 and at a tolerance below double error, the three
``degenerate`` chains, every exact family and route at a few n and
(m, r), an edge pack of elliptic parameters on every numeric route, a few
configuration edges, some ``--format csv`` and ``pretty`` documents, and
a pack of ``table`` argv that only the argument parser reads.  Help text
wraps at the terminal width, so every command runs at 80 columns.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import shlex
import sys
from pathlib import Path
from unittest import mock

from qelliptic.cli import _DEGENERATE, _FAMILIES, main

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "golden_manifest.txt"
WORKLOADS = HERE.parent / "perfbench" / "workloads.py"

EXACT_N = (0, 3, 8, 12)
WHITNEY_MR = ((1, 0), (2, 1), (3, 2))
EDGE_N = 3
# elliptic parameter edges: the p = 0 rungs, a = 1 and q = -1 (roots of
# unity), and theta arguments far from 1; a large nome is in FIXED, as its
# sampler gives up after every retry, at the same draw for every route
EDGES = (
    ("--seed", "1"),
    ("--p=0", "--seed", "1"),
    ("--p=0", "--a=0", "--b=0", "--seed", "1"),
    ("--a", "1", "--seed", "1"),
    ("--q=-1", "--seed", "1"),
    ("--b=1e30", "--seed", "1"),
    ("--b=1e-30", "--seed", "1"),
    ("--a=1e-300", "--seed", "1"),
    ("--p=0", "--a=0.5", "--b=1e-300", "--q=1e-10"),
)
BOARDS = ("1", "1,2,3", "2,2,4,5")
FORMATS = (
    ("table", "--family", "qstirling", "--n", "6"),
    ("table", "--family", "qrwhitneyeulerian", "--n", "5", "--m", "2", "--r", "1"),
    ("table", "--family", "estirling", "--n", "5", "--seed", "3"),
    ("table", "--family", "rook", "--board", "1,2,3", "--seed", "3"),
)
FIXED = (
    ("table", "--family", "estirling", "--n", "0", "--seed", "1", "--p=0.9"),
    ("table", "--family", "rook", "--board", "1,2,3", "--seed", "1", "--p=0.9"),
)
# configuration edges: refusals of the parser and of the library, and the
# defaults that stand in for an omitted --m or --r
CONFIGS = (
    ("table", "--family", "qstirling", "--n", "-1"),
    ("table", "--family", "stirling", "--n", "3", "--a", "1"),
    ("table", "--family", "whitney", "--n", "3"),
    ("table", "--family", "whitney", "--n", "3", "--m", "0", "--r", "1"),
    ("table", "--family", "qeulerian", "--n", "3", "--route", "oracle"),
    ("table", "--family", "rook", "--seed", "1"),
    ("table", "--family", "rook", "--board", "3,1"),
    ("table", "--family", "lah", "--n", "3", "--q", "x"),
    ("check", "--suite", "all", "--tol", "inf"),
    ("check", "--suite", "theta", "--trials", "0"),
    ("degenerate", "--family", "lah", "--n", "99"),
)
# table argv outside the exact "--flag value" form, which the argument
# parser reads: = forms, an abbreviation, a repeat, values that start with
# "-", an unknown flag, a missing or valueless flag, bad choices, and help
PARSER_EDGES = (
    ("table", "--family", "lah", "--n=8", "--seed", "1"),
    ("table", "--family", "rook", "--board=1,2", "--seed", "1"),
    ("table", "--fam", "lah", "--n", "3", "--seed", "1"),
    ("table", "--family", "stirling", "--n", "3", "--n", "4"),
    ("table", "--family", "whitney", "--n", "3", "--m", "-1"),
    ("table", "--family", "lah", "--n", "3", "--seed", "1", "--a", "-0.5"),
    ("table", "--family", "lah", "--n", "3", "--seed", "1", "--a=-0.5,0.1"),
    ("table", "--family", "stirling", "--n", "3", "--x", "1"),
    ("table", "--n", "3"),
    ("table", "--family", "stirling", "--n"),
    ("table", "--family", "nosuch", "--n", "3"),
    ("table", "--family", "stirling", "--n", "3", "--format", "xml"),
    ("table", "-h"),
)


def _workloads():
    spec = importlib.util.spec_from_file_location("_golden_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def commands() -> list[list[str]]:
    """Every command of the manifest, in replay order."""
    workloads = _workloads()
    cmds = [cmd for name in workloads.WORKLOADS for seed in (1, 2, 3)
            for cmd in workloads.commands(name, seed)]
    suite = ["check", "--suite", "all", "--trials", "25"]
    cmds += [[*suite, "--seed", str(seed)] for seed in range(1, 6)]
    cmds.append([*suite, "--seed", "1", "--tol", "1e-16"])
    cmds += [["degenerate", "--family", family] for family in _DEGENERATE]
    for family, decl in _FAMILIES.items():
        if not set(decl.flags) <= {"m", "r"}:
            continue
        mrs = [["--m", str(m), "--r", str(r)] for m, r in WHITNEY_MR] if decl.flags else [[]]
        cmds += [["table", "--family", family, "--route", route, "--n", str(n), *mr]
                 for route in decl.routes for n in EXACT_N for mr in mrs]
    for family, decl in _FAMILIES.items():
        if "a" not in decl.flags:
            continue
        sizes = ([["--board", board] for board in BOARDS] if "board" in decl.flags
                 else [["--n", str(EDGE_N)]])
        mr = ["--m", "2", "--r", "1"] if "m" in decl.flags else []
        cmds += [["table", "--family", family, "--route", route, *size, *mr, *edge]
                 for route in decl.routes for size in sizes for edge in EDGES]
    cmds += [[*cmd, "--format", fmt] for cmd in FORMATS for fmt in ("csv", "pretty")]
    cmds += [list(cmd) for cmd in FIXED + CONFIGS + PARSER_EDGES]
    return cmds


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run(argv: list[str]) -> str:
    """One manifest line, without the argv: exit code and the digests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's refusals
            code = exc.code
    return f"{code} {_digest(out.getvalue())} {_digest(err.getvalue())}"


def read() -> list[tuple[list[str], str]]:
    """The manifest as (argv, expected line without the argv) pairs."""
    entries = []
    for line in MANIFEST.read_text().splitlines():
        code, out, err, argv = line.split(" ", 3)
        entries.append((shlex.split(argv), f"{code} {out} {err}"))
    return entries


def write() -> None:
    lines = [f"{run(argv)} {shlex.join(argv)}\n" for argv in commands()]
    MANIFEST.write_text("".join(lines))


def mismatches(entries) -> list[str]:
    """The replayed commands whose line moved, as readable reports."""
    bad = []
    for argv, expected in entries:
        got = run(argv)
        if got != expected:
            bad.append(f"{shlex.join(argv)}: expected {expected}, got {got}")
    return bad


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        bad = mismatches(read())
        print("\n".join(bad) or "manifest replays")
        sys.exit(1 if bad else 0)
    write()
