"""Command-line front end: tables, check suites, degeneration reports.

Three subcommands.  ``table`` emits one family's triangle as JSON, CSV
or aligned text; ``check`` runs the seeded invariant suites; and
``degenerate`` walks one family down its closed-form degeneration chain
and reports the deviation against the exact analogue.

Output is a pure function of the parsed configuration: elliptic
parameters left off the command line are drawn by the seeded sampling
policy and echoed into the document, so identical invocations yield
byte-identical bytes.

Exit codes: 0 success, 1 a check or degeneration bound failed, 2 the
configuration is invalid, 3 the parameters hit a degeneracy guard.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import random
import sys
from fractions import Fraction

from .errors import DegenerateParameters, DegenerateSequence, DomainError
from .eulerian import (
    elliptic_eulerian,
    elliptic_r_whitney_eulerian,
    eulerian,
    q_eulerian,
    q_r_whitney_eulerian,
    r_whitney_eulerian,
)
from .families import (
    FerrersBoard,
    elliptic_lah,
    elliptic_rook,
    elliptic_shifted_stirling,
    elliptic_stirling2,
    lah,
    q_stirling2,
    st_shifted_stirling,
    stirling2,
    whitney_qr,
)
from .newton import ClassicalSequence, connection_recurrence
from .scalars import ExactScalar, residual
from .suites import SUITE_NAMES, run_suites
from .theta import EllipticParams, sample_annulus, sample_elliptic_params

__all__ = ["main", "SCHEMA_VERSION"]

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_DEGENERATE = 3

# per-family flag vocabulary; anything else on the command line is an
# invalid combination and must be rejected before computing
_FAMILIES = {
    "stirling": {
        "args": (), "routes": ("recurrence", "explicit"),
    },
    "qstirling": {
        "args": (), "routes": ("recurrence", "explicit", "h"),
    },
    "estirling": {
        "args": ("elliptic",),
        "routes": ("recurrence", "h", "explicit", "oracle"),
    },
    "whitney": {
        "args": ("m", "r"), "routes": ("recurrence", "explicit"),
    },
    "stshifted": {
        "args": ("m", "r", "s", "t"), "routes": ("recurrence", "explicit"),
    },
    "eshifted": {
        "args": ("m", "r", "elliptic"), "routes": ("recurrence", "explicit"),
    },
    "rook": {
        "args": ("board", "elliptic"), "routes": ("explicit", "oracle"),
    },
    "lah": {
        "args": ("elliptic",), "routes": ("recurrence", "explicit", "oracle"),
    },
    "eulerian": {
        "args": (), "routes": ("recurrence", "explicit"),
    },
    "qeulerian": {
        "args": (), "routes": ("recurrence", "explicit", "engine"),
    },
    "rwhitneyeulerian": {
        "args": ("m", "r"), "routes": ("direct", "engine"),
    },
    "qrwhitneyeulerian": {
        "args": ("m", "r"), "routes": ("recurrence", "explicit", "engine"),
    },
    "eeulerian": {
        "args": ("elliptic",), "routes": ("recurrence", "explicit", "engine"),
    },
    "erwhitneyeulerian": {
        "args": ("m", "r", "elliptic"), "routes": ("recurrence", "explicit"),
    },
}


def _parse_complex(text: str, flag: str) -> complex:
    """Accept "re" or "re,im" with finite parts."""
    parts = text.split(",")
    try:
        value = complex(*map(float, parts)) if len(parts) <= 2 else None
    except ValueError:
        value = None
    if value is None or not cmath.isfinite(value):
        raise DomainError(f"{flag} expects finite re or re,im, got {text!r}")
    return value


def _parse_board(text: str) -> FerrersBoard:
    try:
        heights = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"--board expects comma-separated integers, got {text!r}")
    return FerrersBoard(heights)


def _pair(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _fmt_numeric(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _resolve_params(args, rng: random.Random) -> tuple[EllipticParams, bool]:
    """Fill omitted elliptic parameters from the sampling policy.

    Fully specified parameters are validated as-is so degenerate chains
    (like --a 0 --b 0 --q 0.5 --p 0) stay expressible.  When anything is
    missing, the absent slots are redrawn until the window guard clears.
    """
    given = {
        name: getattr(args, name)
        for name in ("a", "b", "q", "p")
        if getattr(args, name) is not None
    }
    if len(given) == 4:
        return EllipticParams(a=given["a"], b=given["b"],
                              q=given["q"], p=given["p"]), False
    if not given:
        return sample_elliptic_params(rng), True
    for _ in range(100):
        a = given.get("a", sample_annulus(rng, 0.4, 0.9))
        b = given.get("b", sample_annulus(rng, 0.4, 0.9))
        q = given.get("q", sample_annulus(rng, 0.4, 0.9))
        p = given.get("p", complex(rng.uniform(0.05, 0.5)))
        params = EllipticParams(a=a, b=b, q=q, p=p)
        if params.window_ok(-8, 10):
            return params, True
    raise DegenerateParameters(
        "no generic completion of the given parameters found in 100 attempts"
    )


def _table_rows(args, params):
    family = args.family
    route = args.route
    rows = []

    def put(n, k, value):
        rows.append({"n": n, "k": k, "value": value})

    if family == "rook":
        board = args.board
        for j in range(len(board.heights) + 1):
            put(board.columns, j, elliptic_rook(board, j, params, route))
        return rows

    for n in range(args.n + 1):
        for k in range(n + 1):
            if family == "stirling":
                put(n, k, stirling2(n, k, route))
            elif family == "qstirling":
                put(n, k, q_stirling2(n, k, route))
            elif family == "estirling":
                put(n, k, elliptic_stirling2(n, k, params, route))
            elif family == "whitney":
                put(n, k, whitney_qr(n, k, args.m, args.r, route))
            elif family == "stshifted":
                put(n, k, st_shifted_stirling(
                    n, k, args.m, args.r, args.s, args.t, route))
            elif family == "eshifted":
                put(n, k, elliptic_shifted_stirling(
                    n, k, args.m, args.r, params, route))
            elif family == "lah":
                put(n, k, elliptic_lah(n, k, params, route))
            elif family == "eulerian":
                put(n, k, eulerian(n, k, route))
            elif family == "qeulerian":
                put(n, k, q_eulerian(n, k, route))
            elif family == "rwhitneyeulerian":
                put(n, k, r_whitney_eulerian(n, k, args.m, args.r, route))
            elif family == "qrwhitneyeulerian":
                put(n, k, q_r_whitney_eulerian(n, k, args.m, args.r, route))
            elif family == "eeulerian":
                put(n, k, elliptic_eulerian(n, k, params, route))
            elif family == "erwhitneyeulerian":
                put(n, k, elliptic_r_whitney_eulerian(
                    n, k, args.m, args.r, params, route))
    return rows


def _document(args, params) -> dict:
    entry = _FAMILIES[args.family]
    echo: dict = {"route": args.route}
    if args.family == "rook":
        echo["board"] = list(args.board.heights)
    else:
        echo["n"] = args.n
    if "m" in entry["args"]:
        echo["m"] = args.m
        echo["r"] = args.r
    if "s" in entry["args"]:
        echo["s"] = _pair(args.s)
        echo["t"] = _pair(args.t)
    if "elliptic" in entry["args"]:
        echo["a"] = _pair(params.a)
        echo["b"] = _pair(params.b)
        echo["q"] = _pair(params.q)
        echo["p"] = _pair(params.p)
    raw = _table_rows(args, params)
    rows = []
    for row in raw:
        value = row["value"]
        if isinstance(value, ExactScalar):
            value = str(value)
        elif isinstance(value, complex):
            value = _pair(value)
        rows.append({"n": row["n"], "k": row["k"], "value": value})
    return {
        "schema_version": SCHEMA_VERSION,
        "family": args.family,
        "params": echo,
        "rows": rows,
    }


def _render_table(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def flat(value):
        if isinstance(value, dict):
            return _fmt_numeric(complex(value["re"], value["im"]))
        return str(value)

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "k", "value"])
        for row in doc["rows"]:
            writer.writerow([row["n"], row["k"], flat(row["value"])])
        return buf.getvalue()

    lines = [f"family {doc['family']}"]
    for key, val in doc["params"].items():
        if isinstance(val, dict):
            val = _fmt_numeric(complex(val["re"], val["im"]))
        lines.append(f"  {key} = {val}")
    current = None
    values: list[str] = []
    for row in doc["rows"]:
        if row["n"] != current:
            if values:
                lines.append(f"n={current}: " + " | ".join(values))
            current = row["n"]
            values = []
        values.append(flat(row["value"]))
    if values:
        lines.append(f"n={current}: " + " | ".join(values))
    return "\n".join(lines) + "\n"


def cmd_table(args) -> int:
    entry = _FAMILIES[args.family]
    if args.route is None:
        args.route = entry["routes"][0]
    if args.route not in entry["routes"]:
        raise DomainError(
            f"family {args.family} has routes {', '.join(entry['routes'])}, "
            f"not {args.route!r}"
        )
    if args.family == "rook":
        if args.board is None:
            raise DomainError("family rook needs --board")
    elif args.n is None:
        raise DomainError("table needs --n")
    elif args.n < 0:
        raise DomainError("--n must be >= 0")

    allowed = set(entry["args"])
    for flag in ("m", "r"):
        if getattr(args, flag) is not None and "m" not in allowed:
            raise DomainError(f"family {args.family} does not take --{flag}")
    for flag in ("s", "t"):
        if getattr(args, flag) is not None and "s" not in allowed:
            raise DomainError(f"family {args.family} does not take --{flag}")
    for flag in ("a", "b", "q", "p"):
        if getattr(args, flag) is not None and "elliptic" not in allowed:
            raise DomainError(f"family {args.family} does not take --{flag}")
    if args.board is not None and args.family != "rook":
        raise DomainError(f"family {args.family} does not take --board")

    if "m" in allowed:
        if args.m is None:
            args.m = 1
        if args.r is None:
            args.r = 0
    rng = random.Random(args.seed)
    params = None
    sampled = False
    if "elliptic" in allowed:
        params, sampled = _resolve_params(args, rng)
    if "s" in allowed:
        if args.s is None:
            args.s = sample_annulus(rng, 0.4, 0.9)
            sampled = True
        if args.t is None:
            args.t = sample_annulus(rng, 0.4, 0.9)
            sampled = True
    doc = _document(args, params)
    if sampled:
        doc["params"]["seed"] = args.seed
    sys.stdout.write(_render_table(doc, args.format))
    return EXIT_OK


def cmd_check(args) -> int:
    reports = run_suites(args.suite, args.trials, args.seed, args.tol)
    out = sys.stdout
    failing = 0
    for rep in reports:
        out.write(f"suite {rep.suite}  seed {rep.seed}  tol {rep.tol:.1e}\n")
        for c in rep.checks:
            out.write(
                f"  {c.name:<22s} trials {c.trials:<4d} failed {c.failed:<3d}"
                f" worst {c.worst:.3e}\n"
            )
            for record in c.records:
                out.write(f"    failing: {record}\n")
        out.write(f"  result {'PASS' if rep.passed else 'FAIL'}\n")
        failing += rep.failures
    verdict = "PASS" if failing == 0 else "FAIL"
    out.write(f"overall {verdict} ({len(reports)} suites, {failing} failing checks)\n")
    return EXIT_OK if failing == 0 else EXIT_CHECK_FAILED


def _degenerate_stirling(N, tol, rng, out) -> bool:
    qv = sample_annulus(rng, 0.4, 0.9)
    flat = EllipticParams(a=0, b=0, q=qv, p=0)
    dev_q = 0.0
    dev_classical = 0.0
    for n in range(N + 1):
        for k in range(n + 1):
            got = elliptic_stirling2(n, k, flat, "recurrence")
            want = q_stirling2(n, k).evaluate(qv)
            dev_q = max(dev_q, residual(got, want))
            dev_classical = max(
                dev_classical,
                abs(q_stirling2(n, k).evaluate(1.0) - stirling2(n, k)),
            )
    out.write(f"family stirling  N={N}  q={_fmt_numeric(qv)}\n")
    out.write(f"  elliptic -> exact q analogue  max rel dev {dev_q:.3e}\n")
    out.write(f"  q=1 -> classical triangle     max dev {dev_classical:.3e}\n")
    return dev_q <= tol and dev_classical <= tol


def _degenerate_eulerian(N, tol, rng, out) -> bool:
    qv = sample_annulus(rng, 0.4, 0.9)
    flat = EllipticParams(a=0, b=0, q=qv, p=0)
    dev_q = 0.0
    dev_classical = 0.0
    for n in range(N + 1):
        for k in range(n + 1):
            got = elliptic_eulerian(n, k, flat, "recurrence")
            want = q_eulerian(n, k).evaluate(qv)
            dev_q = max(dev_q, residual(got, want))
            dev_classical = max(
                dev_classical,
                abs(q_eulerian(n, k).evaluate(1.0) - eulerian(n, k)),
            )
    out.write(f"family eulerian  N={N}  q={_fmt_numeric(qv)}\n")
    out.write(f"  elliptic -> exact q analogue  max rel dev {dev_q:.3e}\n")
    out.write(f"  q=1 -> classical triangle     max dev {dev_classical:.3e}\n")
    return dev_q <= tol and dev_classical <= tol


def _degenerate_lah(N, tol, rng, out) -> bool:
    flat = EllipticParams(a=0, b=0, q=1, p=0)
    dev = 0.0
    oracle_ok = True
    seq = ClassicalSequence()
    for n in range(N + 1):
        cs = [Fraction(-(i - 1)) for i in range(1, n + 1)]
        rows = connection_recurrence(Fraction(1), cs, seq)
        for k in range(n + 1):
            got = elliptic_lah(n, k, flat, "recurrence")
            dev = max(dev, abs(got - lah(n, k)))
            if rows[n][k] != lah(n, k):
                oracle_ok = False
    out.write(f"family lah  N={N}  chain ends at q=1\n")
    out.write(f"  elliptic at q=1 -> integer triangle  max dev {dev:.3e}\n")
    out.write(
        "  connection oracle over classical nodes  "
        f"{'matches exactly' if oracle_ok else 'MISMATCH'}\n"
    )
    return dev <= tol and oracle_ok


_DEGENERATE = {
    "stirling": (_degenerate_stirling, 7, 1e-9),
    "eulerian": (_degenerate_eulerian, 6, 1e-8),
    "lah": (_degenerate_lah, 6, 1e-8),
}


def cmd_degenerate(args) -> int:
    runner, default_n, default_tol = _DEGENERATE[args.family]
    N = default_n if args.n is None else args.n
    if N < 0:
        raise DomainError("--n must be >= 0")
    tol = default_tol if args.tol is None else args.tol
    if not tol > 0:
        raise DomainError("tol must be positive")
    rng = random.Random(args.seed)
    ok = runner(N, tol, rng, sys.stdout)
    sys.stdout.write(f"result {'PASS' if ok else 'FAIL'} (tol {tol:.1e})\n")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qelliptic",
        description="tables and identity checks for generalized "
                    "Stirling, rook, Lah and Eulerian families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit one family's triangle")
    table.add_argument("--family", required=True, choices=sorted(_FAMILIES))
    table.add_argument("--n", type=int, default=None,
                       help="largest row index (not used by rook)")
    table.add_argument("--m", type=int, default=None)
    table.add_argument("--r", type=int, default=None)
    table.add_argument("--board", type=_parse_board, default=None,
                       help="comma-separated column heights, e.g. 1,2,2")
    for flag in ("a", "b", "q", "p", "s", "t"):
        table.add_argument(
            f"--{flag}", type=lambda v, f=flag: _parse_complex(v, "--" + f),
            default=None, help=f"{flag} as re or re,im; sampled when omitted",
        )
    table.add_argument("--seed", type=int, default=0)
    table.add_argument("--route", default=None,
                       help="computation route; family default when omitted")
    table.add_argument("--format", default="json",
                       choices=("json", "csv", "pretty"))
    table.set_defaults(func=cmd_table)

    check = sub.add_parser("check", help="run seeded invariant suites")
    check.add_argument("--suite", required=True,
                       choices=sorted(SUITE_NAMES) + ["all"])
    check.add_argument("--trials", type=int, default=None,
                       help="trials per check; suite default when omitted")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--tol", type=float, default=None,
                       help="residual bound; suite default when omitted")
    check.set_defaults(func=cmd_check)

    degen = sub.add_parser(
        "degenerate",
        help="walk a family down its degeneration chain and compare",
    )
    degen.add_argument("--family", required=True, choices=sorted(_DEGENERATE))
    degen.add_argument("--n", type=int, default=None,
                       help="grid bound; family default when omitted")
    degen.add_argument("--seed", type=int, default=0)
    degen.add_argument("--tol", type=float, default=None)
    degen.set_defaults(func=cmd_degenerate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (DegenerateParameters, DegenerateSequence) as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
