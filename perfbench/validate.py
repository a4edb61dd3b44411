"""Correctness checks on the captured output of every benchmark command.

Runs outside the timed region.  ``validate`` returns, per command, None
when the output is correct (or the command was a documented refusal)
and a one-line reason when it is not.

The checks:
  * ``table`` exits 0, or 3 for a numeric family (a degeneracy or
    conditioning guard refused the draw; exact arithmetic has none); its
    stdout parses as strict JSON (no NaN/Infinity tokens), every value
    is finite, and the rows are the full triangle in order;
  * all routes of one exact (family, n, m, r) give byte-identical rows;
  * all routes of one numeric (family, draw) agree entry by entry within
    the tolerance of the matching check suite, under the residual
    |a - b| / max(1, |a|, |b|, scale_a, scale_b) with each route's
    conditioning scale taken from the library's ``*_scaled`` functions;
  * ``check`` and ``degenerate`` exit 0 and print a PASS verdict.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math

REFUSED = 3

# tolerance of the check suite that compares the same routes
TOLERANCE = {
    "estirling": 1e-9,          # h-routes
    "eshifted": 1e-9,           # h-routes
    "stshifted": 1e-9,          # h-routes
    "lah": 1e-8,                # lah
    "rook": 1e-8,               # rook
    "eeulerian": 1e-7,          # eulerian-routes
    "erwhitneyeulerian": 1e-7,  # eulerian-routes
}


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def strict_loads(text: str):
    """json.loads that refuses the NaN/Infinity tokens RFC 8259 forbids."""
    return json.loads(text, parse_constant=_reject_constant)


def _flag(argv: list[str], name: str, default=None):
    flag = "--" + name
    return argv[argv.index(flag) + 1] if flag in argv else default


def _complex(pair: dict) -> complex:
    return complex(pair["re"], pair["im"])


def _residual(a: complex, b: complex, scale_a: float, scale_b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b), scale_a, scale_b)


def _check_table_doc(argv: list[str], doc) -> str | None:
    family = _flag(argv, "family")
    if not (isinstance(doc, dict) and isinstance(doc.get("rows"), list)
            and isinstance(doc.get("params"), dict)):
        return "document lacks the params object or the rows list"
    if doc.get("family") != family:
        return f"document family {doc.get('family')!r} != {family!r}"
    if doc["params"].get("route") != _flag(argv, "route"):
        return "document echoes the wrong route"
    if family == "rook":
        columns = len(_flag(argv, "board").split(","))
        want = [(columns, j) for j in range(columns + 1)]
    else:
        n = int(_flag(argv, "n"))
        want = [(i, k) for i in range(n + 1) for k in range(i + 1)]
    got = [(row.get("n"), row.get("k")) if isinstance(row, dict) else None
           for row in doc["rows"]]
    if got != want:
        return f"rows (n, k) are not the full triangle in order ({len(got)} rows)"
    numeric = family in TOLERANCE
    for row in doc["rows"]:
        value = row.get("value")
        if numeric:
            if not (isinstance(value, dict)
                    and all(isinstance(value.get(part), float)
                            and math.isfinite(value[part])
                            for part in ("re", "im"))):
                return f"row {row['n']},{row['k']}: value {value!r} is not a finite complex"
        elif isinstance(value, bool) or not isinstance(value, (int, str)):
            return f"row {row['n']},{row['k']}: value {value!r} is not exact"
    return None


def _module(name: str):
    # "from qelliptic import eulerian" would give the function, not the module
    return importlib.import_module(f"qelliptic.{name}")


def _params(doc):
    p = doc["params"]
    return _module("theta").EllipticParams(a=_complex(p["a"]), b=_complex(p["b"]),
                          q=_complex(p["q"]), p=_complex(p["p"]))


def _scales(family: str, route: str, doc) -> list[float]:
    """Each entry's conditioning scale on this route (1 for routes without one)."""
    eulerian, families, newton = (_module(name) for name in ("eulerian", "families", "newton"))
    rows = doc["rows"]
    if family == "rook":
        board = families.FerrersBoard(tuple(doc["params"]["board"]))
        params = _params(doc)
        return [families.elliptic_rook_scaled(board, row["k"], params, route)[1]
                for row in rows]
    if route not in ("explicit", "oracle", "engine"):
        return [1.0] * len(rows)
    m, r = doc["params"].get("m"), doc["params"].get("r")
    if family == "stshifted":
        s, t = _complex(doc["params"]["s"]), _complex(doc["params"]["t"])
        seq = newton.STSequence(m, r, s, t)
    else:
        params = _params(doc)
        if family == "eshifted":
            seq = newton.EllipticSequence(params, scale=m, offset=r)
    out = []
    for row in rows:
        n, k = row["n"], row["k"]
        if family == "estirling":
            scale = families.elliptic_stirling2_scaled(n, k, params, route)[1]
        elif family == "lah":
            scale = families.elliptic_lah_scaled(n, k, params, route)[1]
        elif family == "eeulerian" and route == "engine":
            # the eulerian-routes suite weighs the engine by the generic scale
            scale = eulerian.general_eulerian_scaled(n, k, newton.EllipticSequence(params))[1]
        elif family == "eeulerian":
            scale = eulerian.elliptic_eulerian_scaled(n, k, params)[1]
        elif family == "erwhitneyeulerian":
            scale = eulerian.elliptic_r_whitney_eulerian_scaled(n, k, m, r, params)[1]
        else:  # eshifted, stshifted: the explicit route is h_explicit
            scale = newton.h_explicit_scaled(n - k, seq.window(0, k), seq.field)[1]
        out.append(scale)
    return out


def _first_gap(family: str, rows1, rows2, scales1, scales2) -> str | None:
    tol = TOLERANCE[family]
    for row1, row2, a, b in zip(rows1, rows2, scales1, scales2):
        err = _residual(_complex(row1["value"]), _complex(row2["value"]), a, b)
        if not err <= tol:
            return f"at ({row1['n']}, {row1['k']}) residual {err:.3e} > {tol:.0e}"
    return None


def _disagreements(family: str, members: list[tuple[int, str, dict]]):
    """(command index, reason) for both sides of every pair of routes that disagree."""
    numeric = family in TOLERANCE
    sides = [(i, route, doc["rows"],
              _scales(family, route, doc) if numeric else json.dumps(doc["rows"]))
             for i, route, doc in members]
    for (i, r1, rows1, s1), (j, r2, rows2, s2) in itertools.combinations(sides, 2):
        if numeric:
            gap = _first_gap(family, rows1, rows2, s1, s2)
        else:
            gap = None if s1 == s2 else "rows are not byte-identical"
        if gap:
            reason = f"routes {r1} and {r2} disagree: {gap}"
            yield i, reason
            yield j, reason


def _verdict(stdout: str, prefix: str) -> str | None:
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith(prefix + " PASS"):
        return f"no '{prefix} PASS' verdict"
    return None


def validate(records: list[dict]) -> list[str | None]:
    """Per command: None if correct or refused, else the reason it failed.

    Each record holds the command's ``argv``, exit ``code`` (None when it
    raised) and captured ``stdout``.
    """
    reasons: list[str | None] = [None] * len(records)
    groups: dict[tuple, list[tuple[int, str, dict]]] = {}
    for i, rec in enumerate(records):
        argv, code = rec["argv"], rec["code"]
        if code is None:
            reasons[i] = "raised " + rec.get("error", "an exception")
            continue
        if argv[0] in ("check", "degenerate"):
            reasons[i] = (f"exit code {code}" if code != 0 else
                          _verdict(rec["stdout"], "overall" if argv[0] == "check" else "result"))
            continue
        if code == REFUSED and _flag(argv, "family") in TOLERANCE:
            continue  # only numeric routes have conditioning guards to trip
        if code != 0:
            reasons[i] = f"exit code {code}"
            continue
        try:
            doc = strict_loads(rec["stdout"])
        except ValueError as exc:
            reasons[i] = f"stdout is not strict JSON: {exc}"
            continue
        reasons[i] = _check_table_doc(argv, doc)
        if reasons[i] is None:
            family = _flag(argv, "family")
            key = (family, _flag(argv, "n"), _flag(argv, "m"), _flag(argv, "r"),
                   _flag(argv, "board"), _flag(argv, "seed"))
            groups.setdefault(key, []).append((i, _flag(argv, "route"), doc))

    for (family, *_), members in groups.items():
        try:
            found = list(_disagreements(family, members))
        except Exception as exc:  # the library failed on its own echoed parameters
            found = [(i, f"route comparison raised {type(exc).__name__}: {exc}")
                     for i, _, _ in members]
        for i, reason in found:
            reasons[i] = reasons[i] or reason
    return reasons
