"""Seeded invariant suites behind the ``check`` command.

Every suite bundles the executable identities of one layer into
deterministic trials.  A trial draws whatever it needs (parameters,
indices, sample points) from a seeded RNG, evaluates both sides of the
identity, and reports a residual.  Draws that trip a degeneracy guard
are discarded and redrawn, so a suite always runs its full trial count;
the resample consumes RNG state, which keeps reruns byte-identical.

The suites are one table, ``_SUITES``: per suite its default tolerance,
its default trials and its checks, each a name and a module-level
``draw(rng) -> (residual, record)``, in report order.  A suite seeds one
``random.Random(seed)`` and runs its checks on it in that order.

Residual conventions follow the library: identities with visible
summands weigh the error against the largest summand.  Route comparisons
go through ``_agreement``, which takes each route as (value, scale), with
scale 1.0 for a recurrence, and weighs each pair of routes against
max(1, |first value|, both scales); a NaN value fails the comparison.
Exact checks report 0.0 on structural equality and 1.0 on mismatch so
they flow through the same machinery.

The functions here never print; the CLI renders the reports.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateParameters, DegenerateSequence, DomainError
from .eulerian import (
    elliptic_eulerian_rows,
    elliptic_eulerian_scaled,
    eulerian_rows,
    general_eulerian_scaled,
    general_eulerian_rows,
    lagrange_delta,
    q_eulerian_rows,
    q_r_whitney_eulerian,
    q_r_whitney_eulerian_rows,
    r_whitney_eulerian_rows,
    worpitzky_check,
)
from .families import (
    FerrersBoard,
    elliptic_lah_rows,
    elliptic_lah_scaled,
    elliptic_rook_scaled,
    elliptic_stirling2_rows,
    elliptic_stirling2_scaled,
    lah,
    q_stirling2_rows,
    stirling2_rows,
    weight_product,
)
from .newton import (
    AffineWhitneySequence,
    ClassicalSequence,
    EllipticSequence,
    QNumberSequence,
    QWhitneySequence,
    connection_explicit_scaled,
    connection_recurrence,
    falling_factorial,
    h_explicit_scaled,
    h_recurrence,
    newton_oracle_scaled,
)
from .scalars import _checked_power, residual
from .theta import (
    EllipticParams,
    elliptic_number,
    elliptic_number_shifted,
    elliptic_weight,
    elliptic_weight_shifted,
    sample_annulus,
    sample_elliptic_params,
    sample_route_argument,
    theta,
    theta_multi,
    theta_product,
)

__all__ = [
    "SUITE_NAMES",
    "CheckResult",
    "SuiteReport",
    "run_suite",
    "run_suites",
]

# most trials one check may run: about 10 s of --suite all at 10 ms a trial
_MAX_TRIALS = 1000

# draws discarded by degeneracy guards before a suite gives up
RESAMPLE_LIMIT = 500


class CheckResult(NamedTuple):
    name: str
    trials: int
    failed: int
    worst: float
    records: list[str]

    @property
    def passed(self) -> bool:
        return self.failed == 0


class SuiteReport(NamedTuple):
    suite: str
    seed: int
    tol: float
    checks: list[CheckResult]

    @property
    def failures(self) -> int:
        return sum(c.failed for c in self.checks)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _run(name, trials, tol, rng, draw):
    failed = 0
    worst = 0.0
    records: list[str] = []
    done = 0
    misses = 0
    while done < trials:
        try:
            err, record = draw(rng)
        except (DegenerateParameters, DegenerateSequence):
            misses += 1
            if misses > RESAMPLE_LIMIT:
                raise
            continue
        worst = _worst(worst, err)
        if not err <= tol:
            failed += 1
            records.append(record)
        done += 1
    return CheckResult(name, trials, failed, worst, records)


def _worst(*errs) -> float:
    """The largest of errs, or NaN when one is NaN: builtin max keeps the
    first of two incomparable values, so it would hide a NaN."""
    if any(err != err for err in errs):
        return math.nan
    return max(errs)


def _agreement(*routes) -> float:
    """The worst disagreement among routes given as (value, scale) pairs:
    each pair i < j gives |x_i - x_j| / max(1, |x_i|, s_i, s_j).  NaN when
    any value is NaN."""
    if any(cmath.isnan(x) for x, _ in routes):
        return math.nan
    return _worst(*(abs(x - y) / max(1.0, abs(x), sx, sy)
                    for i, (x, sx) in enumerate(routes)
                    for y, sy in routes[i + 1:]))


def _param_record(params, **extra):
    bits = [
        f"a={params.a!r}",
        f"b={params.b!r}",
        f"q={params.q!r}",
        f"p={params.p!r}",
    ]
    bits.extend(f"{key}={val!r}" for key, val in extra.items())
    return " ".join(bits)


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def _inversion(rng):
    p = rng.uniform(0.05, 0.5)
    x = sample_annulus(rng, 0.3, 1.8)
    err = residual(theta(x, p), -x * theta(1 / x, p))
    return err, f"x={x!r} p={p!r}"


def _quasi_periodicity(rng):
    p = rng.uniform(0.05, 0.5)
    x = sample_annulus(rng, 0.3, 1.8)
    err = residual(theta(p * x, p), -(1 / x) * theta(x, p))
    return err, f"x={x!r} p={p!r}"


def _three_term(rng):
    p = rng.uniform(0.05, 0.5)
    x, y, u, z = (sample_annulus(rng, 0.45, 1.5) for _ in range(4))
    lhs = theta_multi([x * y, x / y, u * z, u / z], p)
    t1 = theta_multi([u * y, u / y, x * z, x / z], p)
    t2 = (x / z) * theta_multi([z * y, z / y, u * x, u / x], p)
    err = residual(lhs, t1 + t2, t1, t2)
    return err, f"x={x!r} y={y!r} u={u!r} z={z!r} p={p!r}"


def _series_vs_product(rng):
    # the reduced argument by both evaluators, over the arguments the
    # routes form; a draw whose value leaves double range is redrawn
    p = rng.uniform(0.05, 0.5)
    x = sample_route_argument(rng)
    want = theta_product(x, p)
    if not cmath.isfinite(want):
        raise DegenerateParameters(f"theta({x!r}; {p!r}) is outside double range")
    err = residual(theta(x, p), want)
    return err, f"x={x!r} p={p!r}"


# ---------------------------------------------------------------------------
# elliptic number and weight identities
# ---------------------------------------------------------------------------

def _addition(rng):
    params = sample_elliptic_params(rng)
    y = rng.randint(-4, 5)
    z = rng.randint(-4, 5)
    lhs = elliptic_number(y + z, params)
    first = elliptic_number(y, params)
    second = elliptic_weight(y, params) * elliptic_number_shifted(
        z, (2 * y, y), params
    )
    err = residual(lhs, first + second, first, second)
    return err, _param_record(params, y=y, z=z)


def _weight_shift(rng):
    params = sample_elliptic_params(rng)
    k = rng.randint(-3, 5)
    j = rng.randint(-3, 5)
    lhs = elliptic_weight(k + j, params)
    rhs = elliptic_weight(j, params) * elliptic_weight_shifted(
        k, (2 * j, j), params
    )
    return residual(lhs, rhs), _param_record(params, k=k, j=j)


def _negation(rng):
    params = sample_elliptic_params(rng)
    k = rng.randint(1, 6)
    recip = params.with_ab(1 / params.a, params.b / params.a)
    lhs = elliptic_number(-k, params)
    rhs = -elliptic_weight(-1, params) * elliptic_number(k, recip)
    return residual(lhs, rhs), _param_record(params, k=k)


def _ellipticity_a(rng):
    params = sample_elliptic_params(rng)
    z = rng.randint(-3, 5)
    base = elliptic_number(z, params)
    moved = elliptic_number(z, params.with_ab(a=params.p * params.a))
    return residual(base, moved), _param_record(params, z=z)


def _ellipticity_b(rng):
    params = sample_elliptic_params(rng)
    z = rng.randint(-3, 5)
    base = elliptic_number(z, params)
    moved = elliptic_number(z, params.with_ab(b=params.p * params.b))
    return residual(base, moved), _param_record(params, z=z)


# ---------------------------------------------------------------------------
# complete homogeneous routes
# ---------------------------------------------------------------------------

def _h_elliptic_routes(rng):
    params = sample_elliptic_params(rng)
    n = rng.randint(1, 6)
    k = rng.randint(0, n)
    seq = EllipticSequence(params)
    values = seq.window(0, k)
    field = seq.field
    rec = h_recurrence(n - k, values, field)
    explicit = h_explicit_scaled(n - k, values, field)
    coeffs, s_orc = newton_oracle_scaled(
        [_checked_power(seq[i], n) for i in range(n + 1)], seq, n
    )
    err = _agreement((rec, 1.0), explicit, (coeffs[k], s_orc))
    return err, _param_record(params, n=n, k=k)


def _exact_q_routes(rng):
    n = rng.randint(1, 6)
    k = rng.randint(0, n)
    seq = QNumberSequence()
    values = seq.window(0, k)
    rec = h_recurrence(n - k, values, seq.field)
    exp_ = h_explicit_scaled(n - k, values, seq.field)[0]
    orc = newton_oracle_scaled(
        [seq[i] ** n for i in range(n + 1)], seq, n
    )[0][k]
    ok = rec == exp_ == orc
    return (0.0 if ok else 1.0), f"n={n} k={k}"


# ---------------------------------------------------------------------------
# connection coefficients
# ---------------------------------------------------------------------------

def _connection_routes(rng):
    params = sample_elliptic_params(rng)
    n = rng.randint(1, 5)
    seq = EllipticSequence(params)
    offset = rng.randint(-2, 2)
    cs = [elliptic_number(offset - (i - 1), params) for i in range(1, n + 1)]
    c0 = complex(1.0)
    rows = connection_recurrence(c0, cs, seq)
    f_values = []
    for zi in range(n + 1):
        acc = c0
        for c in cs:
            acc = acc * (seq[zi] - c)
        f_values.append(acc)
    coeffs, s_orc = newton_oracle_scaled(f_values, seq, n)
    worst = 0.0
    for k in range(n + 1):
        explicit = connection_explicit_scaled(c0, cs, seq, n, k)
        rec = (rows[n][k], 1.0)
        worst = _worst(worst, _agreement(rec, explicit),
                       _agreement(rec, (coeffs[k], s_orc)))
    return worst, _param_record(params, n=n, offset=offset)


def _newton_expansion(rng):
    # the defining identity itself, evaluated at one random grid point
    params = sample_elliptic_params(rng)
    n = rng.randint(1, 5)
    seq = EllipticSequence(params)
    offset = rng.randint(-2, 2)
    cs = [elliptic_number(offset - (i - 1), params) for i in range(1, n + 1)]
    c0 = complex(1.0)
    rows = connection_recurrence(c0, cs, seq)
    zi = rng.randint(0, n + 3)
    z = seq[zi]
    lhs = c0
    for c in cs:
        lhs = lhs * (z - c)
    terms = [
        rows[n][k] * falling_factorial(z, seq, k) for k in range(n + 1)
    ]
    rhs = sum(terms, complex(0.0))
    err = residual(lhs, rhs, *terms)
    return err, _param_record(params, n=n, offset=offset, zi=zi)


# ---------------------------------------------------------------------------
# rook numbers
# ---------------------------------------------------------------------------

def _random_board(rng):
    n = rng.randint(1, 4)
    heights = sorted(rng.randint(0, 4) for _ in range(n))
    return FerrersBoard(tuple(heights))


def _route_agreement(rng):
    params = sample_elliptic_params(rng)
    board = _random_board(rng)
    j = rng.randint(0, len(board.heights))
    err = _agreement(elliptic_rook_scaled(board, j, params, "explicit"),
                     elliptic_rook_scaled(board, j, params, "oracle"))
    return err, _param_record(params, board=board.heights, j=j)


def _staircase_stirling(rng):
    params = sample_elliptic_params(rng)
    n = rng.randint(1, 5)
    k = rng.randint(0, n)
    board = FerrersBoard.staircase(n)
    rook = elliptic_rook_scaled(board, n - k, params, "explicit")
    stir, s_stir = elliptic_stirling2_scaled(n, k, params, "explicit")
    err = _agreement(rook, (stir * weight_product(k, params), s_stir))
    return err, _param_record(params, n=n, k=k)


def _empty_board(rng):
    params = sample_elliptic_params(rng)
    n = rng.randint(1, 5)
    board = FerrersBoard.empty(n)
    ok = elliptic_rook_scaled(board, 0, params)[0] == 1.0 and all(
        elliptic_rook_scaled(board, j, params)[0] == 0.0
        for j in range(1, n + 1)
    )
    return (0.0 if ok else 1.0), _param_record(params, n=n)


# ---------------------------------------------------------------------------
# Lah numbers
# ---------------------------------------------------------------------------

def _lah_routes(rng):
    params = sample_elliptic_params(rng)
    n = rng.randint(1, 5)
    k = rng.randint(0, n)
    rec = elliptic_lah_rows(n, params)[n][k]
    err = _agreement((rec, 1.0),
                     elliptic_lah_scaled(n, k, params, "explicit"),
                     elliptic_lah_scaled(n, k, params, "oracle"))
    return err, _param_record(params, n=n, k=k)


def _lah_classical_point(rng):
    n = rng.randint(1, 6)
    k = rng.randint(0, n)
    flat = EllipticParams(a=0, b=0, q=1, p=0)
    got = elliptic_lah_rows(n, flat)[n][k]
    err = abs(got - lah(n, k))
    # the same integers must fall out of the connection oracle over
    # the classical nodes with c_i = -(i - 1)
    seq = ClassicalSequence()
    cs = [Fraction(-(i - 1)) for i in range(1, n + 1)]
    rows = connection_recurrence(Fraction(1), cs, seq)
    if rows[n][k] != lah(n, k):
        err = max(err, 1.0)
    return err, f"n={n} k={k}"


# ---------------------------------------------------------------------------
# Eulerian routes
# ---------------------------------------------------------------------------

def _eulerian_elliptic_routes(rng):
    params = sample_elliptic_params(rng)
    n = rng.randint(1, 5)
    k = rng.randint(0, n)
    rec = elliptic_eulerian_rows(n, params)[n][k]
    err = _agreement((rec, 1.0), elliptic_eulerian_scaled(n, k, params),
                     general_eulerian_scaled(n, k, EllipticSequence(params)))
    return err, _param_record(params, n=n, k=k)


def _r_whitney_exact(rng):
    m = rng.randint(1, 3)
    r = rng.randint(0, m - 1)
    n = rng.randint(1, 6)
    k = rng.randint(0, n)
    direct = r_whitney_eulerian_rows(n, m, r, "direct")[n][k]
    engine = r_whitney_eulerian_rows(n, m, r, "engine")[n][k]
    return (0.0 if direct == engine else 1.0), f"m={m} r={r} n={n} k={k}"


def _q_r_whitney_exact(rng):
    m = rng.randint(1, 3)
    r = rng.randint(0, m - 1)
    n = rng.randint(1, 5)
    k = rng.randint(0, n)
    rec = q_r_whitney_eulerian_rows(n, m, r, "recurrence")[n][k]
    exp_ = q_r_whitney_eulerian(n, k, m, r)
    eng = q_r_whitney_eulerian_rows(n, m, r, "engine")[n][k]
    ok = rec == exp_ == eng
    return (0.0 if ok else 1.0), f"m={m} r={r} n={n} k={k}"


def _delta_identity(rng):
    params = sample_elliptic_params(rng)
    seq = EllipticSequence(params)
    n = rng.randint(1, 6)
    k = rng.randint(0, n)
    l = rng.randint(0, k)
    got = lagrange_delta(n, k, l, seq, max_scale=1e5)
    want = 1.0 if k == l else 0.0
    return abs(got - want), _param_record(params, n=n, k=k, l=l)


# ---------------------------------------------------------------------------
# Worpitzky expansion
# ---------------------------------------------------------------------------

def _exact_families(rng):
    m = rng.randint(1, 3)
    r = rng.randint(0, m - 1)
    # each sequence with the cached engine triangle over its nodes; i and
    # [i]_q are the Whitney nodes at m = 1, r = 0
    kinds = (
        (ClassicalSequence, r_whitney_eulerian_rows, 1, 0),
        (QNumberSequence, q_r_whitney_eulerian_rows, 1, 0),
        (lambda: AffineWhitneySequence(m, r), r_whitney_eulerian_rows, m, r),
        (lambda: QWhitneySequence(m, r), q_r_whitney_eulerian_rows, m, r),
    )
    make, rows, m_nodes, r_nodes = kinds[rng.randrange(len(kinds))]
    seq = make()
    n = rng.randint(1, 6)
    zis = range(-2, n + 4)
    row = rows(n, m_nodes, r_nodes, "engine")[n]
    sides = worpitzky_check(n, seq, [seq[zi] for zi in zis], row=row)
    for zi, (lhs, rhs, _) in zip(zis, sides):
        if lhs != rhs:
            return 1.0, f"seq={type(seq).__name__} m={m} r={r} n={n} zi={zi}"
    return 0.0, f"seq={type(seq).__name__} m={m} r={r} n={n}"


def _worpitzky_elliptic(rng):
    params = sample_elliptic_params(rng)
    seq = EllipticSequence(params)
    n = rng.randint(1, 6)
    # the row first: its node guard may refuse the draw before the
    # points take their random numbers
    row = general_eulerian_rows(seq, n)[n]
    points = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
              for _ in range(20)]
    worst = 0.0
    for lhs, rhs, terms in worpitzky_check(n, seq, points, row=row):
        worst = _worst(worst, residual(lhs, rhs, *terms))
    return worst, _param_record(params, n=n)


# ---------------------------------------------------------------------------
# degeneration lattice
# ---------------------------------------------------------------------------

def _stirling_chain(rng):
    qv = sample_annulus(rng, 0.4, 0.9)
    flat = EllipticParams(a=0, b=0, q=qv, p=0)
    n = rng.randint(1, 5)
    k = rng.randint(0, n)
    got = elliptic_stirling2_rows(n, flat)[n][k]
    want = q_stirling2_rows(n)[n][k].evaluate(qv)
    return residual(got, want), f"q={qv!r} n={n} k={k}"


def _eulerian_chain(rng):
    qv = sample_annulus(rng, 0.4, 0.9)
    flat = EllipticParams(a=0, b=0, q=qv, p=0)
    n = rng.randint(1, 5)
    k = rng.randint(0, n)
    got = elliptic_eulerian_rows(n, flat)[n][k]
    want = q_eulerian_rows(n)[n][k].evaluate(qv)
    return residual(got, want), f"q={qv!r} n={n} k={k}"


def _lah_chain(rng):
    n = rng.randint(1, 6)
    k = rng.randint(0, n)
    flat = EllipticParams(a=0, b=0, q=1, p=0)
    got = elliptic_lah_rows(n, flat)[n][k]
    return abs(got - lah(n, k)), f"n={n} k={k}"


def _degeneration_classical_point(rng):
    n = rng.randint(1, 6)
    k = rng.randint(0, n)
    s_err = abs(q_stirling2_rows(n)[n][k].evaluate(1.0) - stirling2_rows(n)[n][k])
    e_err = abs(q_eulerian_rows(n)[n][k].evaluate(1.0) - eulerian_rows(n)[n][k])
    return max(s_err, e_err), f"n={n} k={k}"


# suite -> (default tolerance, default trials, its checks in report order)
_SUITES = {
    "theta": (1e-9, 100, (
        ("inversion", _inversion),
        ("quasi-periodicity", _quasi_periodicity),
        ("three-term", _three_term),
        ("series-vs-product", _series_vs_product),
    )),
    "elliptic-identities": (1e-9, 50, (
        ("addition", _addition),
        ("weight-shift", _weight_shift),
        ("negation", _negation),
        ("ellipticity-a", _ellipticity_a),
        ("ellipticity-b", _ellipticity_b),
    )),
    "h-routes": (1e-9, 25, (
        ("elliptic-routes", _h_elliptic_routes),
        ("exact-q-routes", _exact_q_routes),
    )),
    "connection": (1e-9, 25, (
        ("routes", _connection_routes),
        ("newton-expansion", _newton_expansion),
    )),
    "rook": (1e-8, 25, (
        ("route-agreement", _route_agreement),
        ("staircase-stirling", _staircase_stirling),
        ("empty-board", _empty_board),
    )),
    "lah": (1e-8, 25, (
        ("routes", _lah_routes),
        ("classical-point", _lah_classical_point),
    )),
    "eulerian-routes": (1e-7, 25, (
        ("elliptic-routes", _eulerian_elliptic_routes),
        ("r-whitney-exact", _r_whitney_exact),
        ("q-r-whitney-exact", _q_r_whitney_exact),
        ("delta-identity", _delta_identity),
    )),
    "worpitzky": (1e-8, 25, (
        ("exact-families", _exact_families),
        ("elliptic", _worpitzky_elliptic),
    )),
    "degeneration": (1e-8, 25, (
        ("stirling-chain", _stirling_chain),
        ("eulerian-chain", _eulerian_chain),
        ("lah-chain", _lah_chain),
        ("classical-point", _degeneration_classical_point),
    )),
}
SUITE_NAMES = tuple(_SUITES)


def _check_tol(tol: float) -> None:
    """Refuse a tolerance that is not positive, or that every finite
    residual meets."""
    if not tol > 0:
        raise DomainError("tol must be positive")
    if tol == math.inf:
        raise DomainError("tol must be finite")


def run_suite(name: str, trials: int | None = None, seed: int = 0,
              tol: float | None = None) -> SuiteReport:
    """Run one named suite; None picks the suite's default trials/tol."""
    if name not in _SUITES:
        raise DomainError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or all"
        )
    default_tol, default_trials, checks = _SUITES[name]
    if trials is None:
        trials = default_trials
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if trials > _MAX_TRIALS:
        raise DomainError(f"trials must be <= {_MAX_TRIALS}")
    if tol is None:
        tol = default_tol
    _check_tol(tol)
    rng = random.Random(seed)
    return SuiteReport(name, seed, tol, [_run(check, trials, tol, rng, draw)
                                         for check, draw in checks])


def run_suites(name: str, trials: int | None = None, seed: int = 0,
               tol: float | None = None) -> list[SuiteReport]:
    """Run one suite, or every suite in canonical order for "all"."""
    if name == "all":
        return [run_suite(s, trials, seed, tol) for s in SUITE_NAMES]
    return [run_suite(name, trials, seed, tol)]
