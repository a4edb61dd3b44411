"""Command-line front end: tables, check suites, degeneration reports.

Three subcommands.  ``table`` emits one family's triangle as JSON, CSV
or aligned text; ``check`` runs the seeded invariant suites; and
``degenerate`` walks one family down its closed-form degeneration chain
and reports the deviation against the exact analogue.  The ``table``
flags are declared once, in ``_TABLE_FLAGS``: ``_parse_table`` reads an
argv of distinct exact ``--flag value`` pairs from it into the Namespace
argparse would return, without building the parser, and every other
argv goes to the parser built from the same table, which alone refuses,
helps and exits 2.

Output is a pure function of the parsed configuration: elliptic
parameters left off the command line are drawn by the seeded sampling
policy and echoed into the document, so identical invocations yield
byte-identical bytes.  That holds in one process too: a ``table``
command whose parameter inputs equal the last such command's (the seed
when any of a, b, q, p is sampled, and the bits of each given value)
takes over that command's parameter set without resolving it again,
and with it its theta, number and weight memos.  Each memo entry is a
fixed function of the bits of the parameters and of its argument, and
a number or weight is kept only once it cleared its
guards, so a refusal repeats its message.

Exit codes: 0 success, 1 a check or degeneration bound failed, 2 the
configuration is invalid, 3 the parameters hit a degeneracy guard.
"""

from __future__ import annotations

import argparse
import cmath
import io
import json
import random
import sys
from fractions import Fraction
from functools import cache
from itertools import groupby, starmap
from operator import itemgetter
from typing import Callable, NamedTuple

from .errors import DegenerateParameters, DegenerateSequence, DomainError
from .eulerian import (
    elliptic_eulerian_rows,
    elliptic_r_whitney_eulerian_rows,
    eulerian_rows,
    q_eulerian_rows,
    q_r_whitney_eulerian_rows,
    r_whitney_eulerian_rows,
)
from .families import (
    FerrersBoard,
    elliptic_lah_rows,
    elliptic_rook_row,
    elliptic_shifted_stirling_rows,
    elliptic_stirling2_rows,
    lah,
    q_stirling2_rows,
    st_shifted_stirling_rows,
    stirling2_rows,
    whitney_qr_rows,
)
from .newton import ClassicalSequence, connection_recurrence
from .scalars import ExactScalar, residual
from .suites import SUITE_NAMES, _check_tol, run_suites
from .theta import (
    EllipticParams,
    _SAMPLE_RETRIES,
    _SAMPLE_WINDOW,
    _memo_key,
    sample_annulus,
    sample_elliptic_params,
)

__all__ = ["main", "SCHEMA_VERSION"]

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_DEGENERATE = 3


class _Family(NamedTuple):
    """One table family: its flags, and for each route (the first is the
    default) the builder args -> rows 0..args.n of its triangle; one
    builder serves every route, reading args.route."""

    flags: tuple[str, ...]
    rows: dict[str, Callable]

    @property
    def routes(self) -> tuple[str, ...]:
        return tuple(self.rows)


_MR = ("m", "r")
_ST = ("s", "t")
_ELLIPTIC = ("a", "b", "q", "p")
# the order of the flag checks; families list their flags in this order,
# which is also the order of the echoed parameters
_FLAGS = _MR + _ST + _ELLIPTIC + ("board",)

# any flag a family does not list is an invalid combination and must be
# rejected before computing.  Builders name library functions inside their
# lambdas, so a rebinding of those names (a tracer) sees every call.
_FAMILIES = {
    "stirling": _Family((), dict.fromkeys(
        ("recurrence", "explicit"),
        lambda args: stirling2_rows(args.n, args.route))),
    "qstirling": _Family((), dict.fromkeys(
        ("recurrence", "explicit", "h"),
        lambda args: q_stirling2_rows(args.n, args.route))),
    "estirling": _Family(_ELLIPTIC, dict.fromkeys(
        ("recurrence", "h", "explicit", "oracle"),
        lambda args: elliptic_stirling2_rows(args.n, args.params, args.route))),
    "whitney": _Family(_MR, dict.fromkeys(
        ("recurrence", "explicit"),
        lambda args: whitney_qr_rows(args.n, args.m, args.r, args.route))),
    "stshifted": _Family(_MR + _ST, dict.fromkeys(
        ("recurrence", "explicit"),
        lambda args: st_shifted_stirling_rows(
            args.n, args.m, args.r, args.s, args.t, args.route))),
    "eshifted": _Family(_MR + _ELLIPTIC, dict.fromkeys(
        ("recurrence", "explicit"),
        lambda args: elliptic_shifted_stirling_rows(
            args.n, args.m, args.r, args.params, args.route))),
    # a rook table is the single row n = columns
    "rook": _Family(("board",) + _ELLIPTIC, dict.fromkeys(
        ("explicit", "oracle"),
        lambda args: [elliptic_rook_row(args.board, args.params, args.route)])),
    "lah": _Family(_ELLIPTIC, dict.fromkeys(
        ("recurrence", "explicit", "oracle"),
        lambda args: elliptic_lah_rows(args.n, args.params, args.route))),
    "eulerian": _Family((), dict.fromkeys(
        ("recurrence", "explicit"),
        lambda args: eulerian_rows(args.n, args.route))),
    "qeulerian": _Family((), dict.fromkeys(
        ("recurrence", "explicit", "engine"),
        lambda args: q_eulerian_rows(args.n, args.route))),
    "rwhitneyeulerian": _Family(_MR, dict.fromkeys(
        ("direct", "engine"),
        lambda args: r_whitney_eulerian_rows(args.n, args.m, args.r, args.route))),
    "qrwhitneyeulerian": _Family(_MR, dict.fromkeys(
        ("recurrence", "explicit", "engine"),
        lambda args: q_r_whitney_eulerian_rows(args.n, args.m, args.r, args.route))),
    "eeulerian": _Family(_ELLIPTIC, dict.fromkeys(
        ("recurrence", "explicit", "engine"),
        lambda args: elliptic_eulerian_rows(args.n, args.params, args.route))),
    "erwhitneyeulerian": _Family(_MR + _ELLIPTIC, dict.fromkeys(
        ("recurrence", "explicit"),
        lambda args: elliptic_r_whitney_eulerian_rows(
            args.n, args.m, args.r, args.params, args.route))),
}


def _parse_complex(text: str) -> complex:
    """Accept "re" or "re,im" with finite parts."""
    parts = text.split(",")
    try:
        value = complex(*map(float, parts)) if len(parts) <= 2 else None
    except ValueError:
        value = None
    if value is None or not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"expects finite re or re,im, got {text!r}")
    return value


def _parse_board(text: str) -> FerrersBoard:
    # argparse replaces the text of a ValueError (DomainError is one) raised
    # by a type callable, so the library's message travels as ArgumentTypeError
    try:
        return FerrersBoard(tuple(int(part) for part in text.split(",")))
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}") from None


class _Flag(NamedTuple):
    """One ``table`` flag: its converter, default, help text and choices."""

    convert: Callable
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None


# the table flags in help order, read by _build_parser and _parse_table
_TABLE_FLAGS = {
    "family": _Flag(str, choices=tuple(sorted(_FAMILIES))),
    "n": _Flag(int, help="largest row index; rook refuses it and takes "
                         "the row from --board"),
    **dict.fromkeys(_MR, _Flag(int)),
    "board": _Flag(_parse_board,
                   help="comma-separated column heights, e.g. 1,2,2"),
    **{flag: _Flag(_parse_complex,
                   help=f"{flag} as re or re,im; sampled when omitted")
       for flag in _ELLIPTIC + _ST},
    "seed": _Flag(int, 0),
    "route": _Flag(str, help="computation route; family default when omitted"),
    "format": _Flag(str, "json", choices=("json", "csv", "pretty")),
}


def _fmt_numeric(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _resolve_params(given: tuple, seed: int) -> EllipticParams:
    """Fill the omitted (None) values of given (a, b, q, p) from the
    sampling policy seeded by seed.

    Fully specified parameters are validated as-is so degenerate chains
    (like --a 0 --b 0 --q 0.5 --p 0) stay expressible.  When anything is
    missing, the absent slots are redrawn until the window guard clears.
    """
    if None not in given:
        return EllipticParams(*given)
    rng = random.Random(seed)
    if given == (None,) * 4:
        return sample_elliptic_params(rng)
    for _ in range(_SAMPLE_RETRIES):
        # every attempt draws all four, given or not
        drawn = (sample_annulus(rng, 0.4, 0.9), sample_annulus(rng, 0.4, 0.9),
                 sample_annulus(rng, 0.4, 0.9), complex(rng.uniform(0.05, 0.5)))
        params = EllipticParams(*(d if g is None else g for g, d in zip(given, drawn)))
        refusal = params.window_refusal(*_SAMPLE_WINDOW)
        if refusal is None:
            return params
    raise DegenerateParameters(
        "no generic completion of the given parameters found in "
        f"{_SAMPLE_RETRIES} attempts; the last one was refused: {refusal}"
    )


# the last table command's parameter inputs and the parameter set they
# resolved to; one tuple, so a concurrent reader sees a consistent entry
_last_params: tuple = (None, None)


def _document(args) -> dict:
    family = _FAMILIES[args.family]
    echo: dict = {"route": args.route}
    if "board" not in family.flags:
        echo["n"] = args.n
    for flag in family.flags:
        value = getattr(args, flag)
        if flag == "board":
            value = list(value.heights)
        elif isinstance(value, complex):
            value = {"re": value.real, "im": value.imag}
        echo[flag] = value
    triangle = family.rows[args.route](args)
    # one (n, k, value) triple per entry; the triangle holds rows
    # args.n + 1 - len(triangle) .. args.n
    rows = []
    for n, row in enumerate(triangle, args.n + 1 - len(triangle)):
        for k, value in enumerate(row):
            if isinstance(value, ExactScalar):
                value = str(value)
            elif isinstance(value, complex) and not cmath.isfinite(value):
                raise DegenerateParameters(
                    f"entry ({n}, {k}) is {value}, not a finite double"
                )
            rows.append((n, k, value))
    return {
        "schema_version": SCHEMA_VERSION,
        "family": args.family,
        "params": echo,
        "rows": rows,
    }


# json.dumps(value, allow_nan=False) without building an encoder per call
_json_leaf = json.JSONEncoder(allow_nan=False).encode


def _json_params(echo: dict) -> str:
    """The echo as ``json.dumps`` nests it in ``_json_document``: a route,
    ints, the board's ints, and {"re", "im"} pairs by float.__repr__."""
    items = []
    for key in sorted(echo):
        value = echo[key]
        if isinstance(value, dict):
            value = (f'{{\n      "im": {value["im"]!r},\n'
                     f'      "re": {value["re"]!r}\n    }}')
        elif isinstance(value, list):
            value = "[\n      " + ",\n      ".join(map(str, value)) + "\n    ]"
        elif isinstance(value, str):
            value = _json_leaf(value)
        items.append(f'    "{key}": {value}')
    return "{\n" + ",\n".join(items) + "\n  }"


def _json_row(n: int, k: int, value) -> str:
    # a complex entry is a {"re", "im"} pair; _document refused non-finite
    # entries, so repr (float.__repr__) writes each part as json would
    if isinstance(value, complex):
        return (f'    {{\n      "k": {k},\n      "n": {n},\n      "value": {{\n'
                f'        "im": {value.imag!r},\n        "re": {value.real!r}\n'
                '      }\n    }')
    return (f'    {{\n      "k": {k},\n      "n": {n},\n'
            f'      "value": {_json_leaf(value)}\n    }}')


def _json_document(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\\n"``
    byte for byte, each (n, k, value) triple of ``doc["rows"]`` being a
    {"n", "k", "value"} row, written from the fixed table schema: any
    ``indent`` sends ``json.dumps`` to its pure-Python encoder, which is slow."""
    rows = "[]"
    if doc["rows"]:
        rows = "[\n" + ",\n".join(starmap(_json_row, doc["rows"])) + "\n  ]"
    return ('{\n  "family": ' + _json_leaf(doc["family"])
            + ',\n  "params": ' + _json_params(doc["params"])
            + ',\n  "rows": ' + rows
            + ',\n  "schema_version": ' + _json_leaf(doc["schema_version"])
            + "\n}\n")


def _flat(value) -> str:
    return _fmt_numeric(value) if isinstance(value, complex) else str(value)


def _render_table(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_document(doc)
    if fmt == "csv":
        import csv  # here, so that start-up without --format csv skips it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "k", "value"])
        writer.writerows((n, k, _flat(value)) for n, k, value in doc["rows"])
        return buf.getvalue()

    lines = [f"family {doc['family']}"]
    for key, val in doc["params"].items():
        if isinstance(val, dict):
            val = _fmt_numeric(complex(val["re"], val["im"]))
        lines.append(f"  {key} = {val}")
    for n, row in groupby(doc["rows"], itemgetter(0)):
        lines.append(f"n={n}: " + " | ".join(_flat(value) for _, _, value in row))
    return "\n".join(lines) + "\n"


def _resolve_table(args) -> bool:
    """Check the table flags, fill in defaults and sampled parameters, and
    say whether anything was sampled."""
    global _last_params
    family = _FAMILIES[args.family]
    if args.route is None:
        args.route = family.routes[0]
    if args.route not in family.routes:
        raise DomainError(
            f"family {args.family} has routes {', '.join(family.routes)}, "
            f"not {args.route!r}"
        )
    if "board" in family.flags:
        if args.n is not None:
            raise DomainError(f"family {args.family} does not take --n")
        if args.board is None:
            raise DomainError(f"family {args.family} needs --board")
        args.n = args.board.columns
    elif args.n is None:
        raise DomainError("table needs --n")
    elif args.n < 0:
        raise DomainError("--n must be >= 0")
    for flag in _FLAGS:
        if getattr(args, flag) is not None and flag not in family.flags:
            raise DomainError(f"family {args.family} does not take --{flag}")

    if "m" in family.flags:
        if args.m is None:
            args.m = 1
        if args.r is None:
            args.r = 0
        if args.m < 1 or args.r < 0:
            raise DomainError("need m >= 1 and r >= 0")
    sampled = False
    if "a" in family.flags:
        given = tuple(getattr(args, name) for name in _ELLIPTIC)
        sampled = None in given
        # the seed counts only when something is drawn; the bits of each
        # given value count, signed zeros apart
        key = (args.seed if sampled else None,
               *(None if value is None else _memo_key(value) for value in given))
        if _last_params[0] != key:
            # a refusal raises here and leaves the slot as it was
            _last_params = (key, _resolve_params(given, args.seed))
        args.params = _last_params[1]
        for name in _ELLIPTIC:
            setattr(args, name, getattr(args.params, name))
    if "s" in family.flags:
        # no family takes both (a, b, q, p) and (s, t): the seed's stream
        # starts here
        rng = random.Random(args.seed)
        for name in _ST:
            if getattr(args, name) is None:
                setattr(args, name, sample_annulus(rng, 0.4, 0.9))
                sampled = True
    return sampled


def cmd_table(args) -> int:
    sampled = _resolve_table(args)
    doc = _document(args)
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


def _degenerate_q(family, elliptic_rows, q_rows, classical_rows, N, tol, rng,
                  out) -> bool:
    """Elliptic at p = a = b = 0 against the exact q triangle, then q = 1
    against the classical one."""
    qv = sample_annulus(rng, 0.4, 0.9)
    rows = elliptic_rows(N, EllipticParams(a=0, b=0, q=qv, p=0))
    exact = q_rows(N)
    classical = classical_rows(N)
    dev_q = 0.0
    dev_classical = 0.0
    for n in range(N + 1):
        for k in range(n + 1):
            dev_q = max(dev_q, residual(rows[n][k], exact[n][k].evaluate(qv)))
            dev_classical = max(
                dev_classical,
                abs(exact[n][k].evaluate(1.0) - classical[n][k]),
            )
    out.write(f"family {family}  N={N}  q={_fmt_numeric(qv)}\n")
    out.write(f"  elliptic -> exact q analogue  max rel dev {dev_q:.3e}\n")
    out.write(f"  q=1 -> classical triangle     max dev {dev_classical:.3e}\n")
    return dev_q <= tol and dev_classical <= tol


def _degenerate_lah(N, tol, rng, out) -> bool:
    elliptic = elliptic_lah_rows(N, EllipticParams(a=0, b=0, q=1, p=0))
    dev = 0.0
    oracle_ok = True
    seq = ClassicalSequence()
    for n in range(N + 1):
        cs = [Fraction(-(i - 1)) for i in range(1, n + 1)]
        rows = connection_recurrence(Fraction(1), cs, seq)
        for k in range(n + 1):
            dev = max(dev, abs(elliptic[n][k] - lah(n, k)))
            if rows[n][k] != lah(n, k):
                oracle_ok = False
    out.write(f"family lah  N={N}  chain ends at q=1\n")
    out.write(f"  elliptic at q=1 -> integer triangle  max dev {dev:.3e}\n")
    out.write(
        "  connection oracle over classical nodes  "
        f"{'matches exactly' if oracle_ok else 'MISMATCH'}\n"
    )
    return dev <= tol and oracle_ok


# family: (runner, classical triangle, default N, default tol); the
# lambdas look the library functions up when called, as _FAMILIES does
_DEGENERATE = {
    "stirling": (lambda *run: _degenerate_q(
        "stirling", elliptic_stirling2_rows, q_stirling2_rows, stirling2_rows, *run),
        lambda n, k: stirling2_rows(n)[n][k], 7, 1e-9),
    "eulerian": (lambda *run: _degenerate_q(
        "eulerian", elliptic_eulerian_rows, q_eulerian_rows, eulerian_rows, *run),
        lambda n, k: eulerian_rows(n)[n][k], 6, 1e-8),
    "lah": (_degenerate_lah, lambda n, k: lah(n, k), 6, 1e-8),
}


@cache
def _degenerate_limit(classical) -> int:
    """The largest N whose classical rows 0..N hold only entries below 2^53.

    Up to it every entry is a double exactly, so the absolute deviation
    against the float chain measures the chain; past it the comparison
    meets integers that no double holds.
    """
    N = 0
    while all(classical(N + 1, k) < 2**53 for k in range(N + 2)):
        N += 1
    return N


def cmd_degenerate(args) -> int:
    runner, classical, default_n, default_tol = _DEGENERATE[args.family]
    N = default_n if args.n is None else args.n
    if N < 0:
        raise DomainError("--n must be >= 0")
    limit = _degenerate_limit(classical)
    if N > limit:
        raise DomainError(
            f"--n {N} is past {limit} for {args.family}: the classical "
            "triangle holds entries of 2^53 or more, which a double cannot "
            "compare exactly"
        )
    tol = default_tol if args.tol is None else args.tol
    _check_tol(tol)
    rng = random.Random(args.seed)
    ok = runner(N, tol, rng, sys.stdout)
    sys.stdout.write(f"result {'PASS' if ok else 'FAIL'} (tol {tol:.1e})\n")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing reads the parser and writes only the
    # Namespace it returns, and commands mutate only that Namespace
    parser = argparse.ArgumentParser(
        prog="qelliptic",
        description="tables and identity checks for generalized "
                    "Stirling, rook, Lah and Eulerian families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit one family's triangle")
    for dest, flag in _TABLE_FLAGS.items():
        table.add_argument(f"--{dest}", type=flag.convert, default=flag.default,
                           help=flag.help, choices=flag.choices,
                           required=dest == "family")
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


def _parse_table(argv) -> argparse.Namespace | None:
    """``_build_parser().parse_args(argv)`` for ``table`` and distinct exact
    ``--flag value`` pairs whose values are non-empty, start with no "-"
    and convert, to a choice where the flag has them; else None."""
    if len(argv) % 2 == 0 or argv[0] != "table":
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) < len(argv) // 2 or "--family" not in given:
        return None
    values = {dest: flag.default for dest, flag in _TABLE_FLAGS.items()}
    for option, text in given.items():
        dest = option[2:] if option[:2] == "--" else None
        flag = _TABLE_FLAGS.get(dest)
        if flag is None or not text or text[0] == "-":
            return None
        try:  # argparse catches the same, and writes its own message
            values[dest] = value = flag.convert(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if flag.choices is not None and value not in flag.choices:
            return None
    return argparse.Namespace(command="table", **values, func=cmd_table)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_table(argv) or _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (DegenerateParameters, DegenerateSequence) as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
