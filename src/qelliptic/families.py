"""Stirling, Whitney, rook, and Lah families, each by independent routes.

Every family here is a triangle of connection coefficients between two
Newton bases, so each value can be computed at least two structurally
different ways: a Pascal-type triangle recurrence, an explicit
interpolation sum, and (for the elliptic families) the raw
divided-difference oracle.  The routes share no intermediate formulas;
their agreement is the correctness argument, and the check suites replay
it at runtime.

The elliptic families take an EllipticParams pack and return complex
values.  Their explicit sums cancel heavily once the triangle gets deep,
because elliptic numbers cluster the way q-numbers do; the *_scaled
variants report the largest summand so callers can judge residuals
against the conditioning actually encountered instead of the value.

A note on normalization: the rook and Lah values here are the
coefficients in the Newton-basis identity itself.  Weighted-enumeration
conventions differ from these by the product of the first k weights,
available as weight_product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache, partial

from .errors import DegenerateParameters, DomainError
from .newton import (
    EllipticSequence,
    QWhitneySequence,
    STSequence,
    ValueSequence,
    _connection_factors,
    _connection_sum,
    _divided_differences,
    connection_explicit_scaled,
    h_explicit_rows,
    h_explicit_scaled,
    h_recurrence,
    h_recurrence_rows,
    newton_oracle_scaled,
)
from .scalars import (
    EXACT_Q,
    ExactScalar,
    q_binomial,
    q_factorial,
    q_int_power,
    q_number,
)
from .theta import (
    EllipticParams,
    elliptic_number,
    elliptic_number_shifted,
    elliptic_weight,
)

__all__ = [
    "stirling2",
    "stirling2_rows",
    "q_stirling2",
    "q_stirling2_rows",
    "elliptic_stirling2",
    "elliptic_stirling2_rows",
    "elliptic_stirling2_scaled",
    "whitney_qr",
    "whitney_qr_rows",
    "st_shifted_stirling",
    "st_shifted_stirling_rows",
    "elliptic_shifted_stirling",
    "elliptic_shifted_stirling_rows",
    "weight_product",
    "FerrersBoard",
    "elliptic_rook",
    "elliptic_rook_row",
    "elliptic_rook_scaled",
    "lah",
    "elliptic_lah",
    "elliptic_lah_rows",
    "elliptic_lah_scaled",
]


def _check_entry(n: int, k: int = 0) -> None:
    if n < 0 or k < 0:
        raise DomainError("triangle entries need n >= 0 and k >= 0")


def _bad_route(route: str, allowed: tuple[str, ...]):
    return DomainError(f"unknown route {route!r}, expected one of {allowed}")


def _nonzero(divisor: complex, what: str) -> complex:
    """divisor where a route divides by it; an exact zero (q = -1 makes every
    even-indexed elliptic number vanish) is a degeneracy of the parameters."""
    if divisor == 0:
        raise DegenerateParameters(
            f"{what} divides by exactly 0: an elliptic number or node gap in "
            "its denominator vanishes"
        )
    return divisor


def _grow_rows(N: int, one, zero, left, right) -> list[list]:
    """Rows 0..N of T(n+1, k) = left(n, k, T(n, k-1)) + right(n, k, T(n, k)),
    with T(0, 0) = one.  Each caller forms its two terms itself, so the
    order of its floating-point operations is its own."""
    rows = [[one]]
    for n in range(N):
        prev = rows[-1]
        row = []
        for k in range(n + 2):
            acc = zero
            if k >= 1:
                acc = acc + left(n, k, prev[k - 1])
            if k <= n:
                acc = acc + right(n, k, prev[k])
            row.append(acc)
        rows.append(row)
    return rows


def _entry_rows(N: int, entry) -> list[list]:
    """Rows 0..N of entry(n, k), formed in (n, k) order: a route whose
    entries share cached pieces meets its first refusal where the
    per-entry route does."""
    return [[entry(n, k) for k in range(n + 1)] for n in range(N + 1)]


# ---------------------------------------------------------------------------
# classical and q-deformed Stirling numbers of the second kind
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def stirling2_rows(N: int) -> list[list[int]]:
    """Rows 0..N of the set-partition triangle, S(n+1, k) = S(n, k-1) +
    k S(n, k); cached per N, so callers must not mutate the rows."""
    _check_entry(N)
    return _grow_rows(N, 1, 0, lambda n, k, x: x, lambda n, k, x: k * x)


def stirling2(n: int, k: int, route: str = "recurrence") -> int:
    """Set-partition counts S(n, k)."""
    _check_entry(n, k)
    if k > n:
        return 0
    if route == "recurrence":
        return stirling2_rows(n)[n][k]
    if route == "explicit":
        total = sum(
            (-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)
        )
        fact = math.factorial(k)
        assert total % fact == 0
        return total // fact
    raise _bad_route(route, ("recurrence", "explicit"))


@lru_cache(maxsize=None)
def q_stirling2_rows(N: int) -> list[list[ExactScalar]]:
    """Rows 0..N of the q-Stirling triangle, with multiplier [k]_q; cached
    per N, so callers must not mutate the rows."""
    _check_entry(N)
    return _grow_rows(N, EXACT_Q.one, EXACT_Q.zero, lambda n, k, x: x,
                      lambda n, k, x: q_number(k) * x)


def q_stirling2(n: int, k: int, route: str = "recurrence") -> ExactScalar:
    """q-Stirling numbers of the second kind, exact in q.

    Three routes: the triangle recurrence

        S(n+1, k) = S(n, k-1) + [k]_q S(n, k),

    the alternating explicit sum

        q^-C(k,2) / [k]_q!  sum_j (-1)^j q^C(j,2) qbinom(k, j) [k-j]_q^n,

    and the complete homogeneous specialization h_{n-k}([0]_q .. [k]_q).
    All three produce the same canonical rational function; the tests
    compare them structurally, not numerically.
    """
    _check_entry(n, k)
    if k > n:
        return EXACT_Q.zero
    if route == "recurrence":
        return q_stirling2_rows(n)[n][k]
    if route == "explicit":
        total = EXACT_Q.zero
        for j in range(k + 1):
            term = (
                ExactScalar.q_power(math.comb(j, 2))
                * q_binomial(k, j)
                * q_int_power(k - j, n)
            )
            if j % 2:
                term = -term
            total = total + term
        return ExactScalar.q_power(-math.comb(k, 2)) / q_factorial(k) * total
    if route == "h":
        return h_recurrence(n - k, [q_number(i) for i in range(k + 1)], EXACT_Q)
    raise _bad_route(route, ("recurrence", "explicit", "h"))


# ---------------------------------------------------------------------------
# elliptic Stirling numbers
# ---------------------------------------------------------------------------

def elliptic_stirling2_rows(N: int, params: EllipticParams,
                            route: str = "recurrence") -> list[list[complex]]:
    """Rows 0..N of the elliptic Stirling triangle by one route of
    elliptic_stirling2: "recurrence" with multiplier [k], "h" by one
    prefix recurrence, "explicit" with each denominator formed once per
    (k, j), and "oracle" with one divided-difference table per row."""
    _check_entry(N)
    if route == "recurrence":
        return _grow_rows(N, complex(1.0), complex(0.0), lambda n, k, x: x,
                          lambda n, k, x: elliptic_number(k, params) * x)
    if route == "h":
        return h_recurrence_rows(N, EllipticSequence(params))
    if route == "explicit":
        denominator = cache(partial(_elliptic_stirling2_denominator, params))
        return _entry_rows(N, lambda n, k: sum(
            _elliptic_stirling2_terms(n, k, params, denominator), complex(0.0)))
    if route == "oracle":
        seq = EllipticSequence(params)
        return [[table[0] for table in _divided_differences(
            [seq[m] ** n for m in range(n + 1)], seq, n)] for n in range(N + 1)]
    raise _bad_route(route, ("recurrence", "h", "explicit", "oracle"))


def _elliptic_stirling2_denominator(params: EllipticParams, k: int,
                                    j: int) -> complex:
    # the product, over i != k-j, of W(i) [k-j-i] taken at base shift
    # (2i, i): exactly the node gaps [k-j] - [i] split by the addition rule
    den = complex(1.0)
    for i in range(k + 1):
        if i != k - j:
            den *= elliptic_weight(i, params) * elliptic_number_shifted(
                k - j - i, (2 * i, i), params
            )
    return den


def _elliptic_stirling2_terms(n: int, k: int, params: EllipticParams,
                              denominator) -> list[complex]:
    # sum over j of [k-j]^n divided by denominator(k, j)
    terms = []
    for j in range(k + 1):
        den = denominator(k, j)
        terms.append(elliptic_number(k - j, params) ** n
                     / _nonzero(den, f"explicit term j = {j} of ({n}, {k})"))
    return terms


def elliptic_stirling2(n: int, k: int, params: EllipticParams,
                       route: str = "recurrence") -> complex:
    """Stirling numbers of the second kind over elliptic numbers.

    Routes: "recurrence" is the triangle with multiplier [k]; "h" runs
    the generic complete homogeneous engine over the nodes [0] .. [k];
    "explicit" is the weighted interpolation sum whose denominators are
    assembled from weights and base-shifted numbers rather than raw node
    gaps; "oracle" reads the coefficient off a divided-difference table
    of the power function.  Agreement of "explicit" with the others
    exercises the addition rule at every node pair.
    """
    _check_entry(n, k)
    if k > n:
        return complex(0.0)
    if route == "recurrence":
        return elliptic_stirling2_rows(n, params)[n][k]
    if route == "h":
        seq = EllipticSequence(params)
        return h_recurrence(n - k, seq.window(0, k), seq.field)
    if route in ("explicit", "oracle"):
        return elliptic_stirling2_scaled(n, k, params, route)[0]
    raise _bad_route(route, ("recurrence", "h", "explicit", "oracle"))


def elliptic_stirling2_scaled(n: int, k: int, params: EllipticParams,
                              route: str = "explicit") -> tuple[complex, float]:
    """Value plus the conditioning scale of the chosen route.

    The scale is the largest magnitude the route forms on the way to the
    value: summands for "explicit", divided-difference entries for
    "oracle".  Residuals between routes are meaningful relative to the
    larger of the two scales, not to the value alone.
    """
    _check_entry(n, k)
    if k > n:
        return complex(0.0), 1.0
    if route == "explicit":
        terms = _elliptic_stirling2_terms(
            n, k, params, partial(_elliptic_stirling2_denominator, params))
        return sum(terms, complex(0.0)), max(1.0, *(abs(t) for t in terms))
    if route == "oracle":
        seq = EllipticSequence(params)
        fvals = [seq[m] ** n for m in range(n + 1)]
        coeffs, scale = newton_oracle_scaled(fvals, seq, n)
        return coeffs[k], scale
    raise _bad_route(route, ("explicit", "oracle"))


# ---------------------------------------------------------------------------
# q-deformed r-Whitney numbers and their (s, t) and elliptic extensions
# ---------------------------------------------------------------------------

def whitney_qr(n: int, k: int, m: int, r: int, route: str = "recurrence",
               normalized: bool = False) -> ExactScalar:
    """r-Whitney numbers of the second kind, q-deformed, exact.

    The raw value is h_{n-k} over the nodes [r]_q, [m+r]_q, ..., [km+r]_q.
    With normalized=True the result carries the extra factor
    q^(kr + m C(k,2)) that makes the m = r = 1 column match the shifted
    set-partition triangle at q = 1.
    """
    _check_entry(n, k)
    if m < 0 or r < 0:
        raise DomainError("whitney parameters need m >= 0 and r >= 0")
    if k > n:
        return EXACT_Q.zero
    nodes = [q_number(m * i + r) for i in range(k + 1)]
    if route == "recurrence":
        value = h_recurrence(n - k, nodes, EXACT_Q)
    elif route == "explicit":
        value = h_explicit_scaled(n - k, nodes, EXACT_Q)[0]
    else:
        raise _bad_route(route, ("recurrence", "explicit"))
    if normalized:
        value = value * ExactScalar.q_power(k * r + m * math.comb(k, 2))
    return value


def whitney_qr_rows(N: int, m: int, r: int,
                    route: str = "recurrence") -> list[list[ExactScalar]]:
    """Rows 0..N of the raw r-Whitney triangle by one route of whitney_qr.

    Column k is h_{n-k} over the nodes [r]_q .. [km+r]_q for n = k..N:
    "recurrence" is one prefix recurrence over [r]_q .. [Nm+r]_q, and
    "explicit" one Lagrange sum per column.
    """
    _check_entry(N)
    if m < 0 or r < 0:
        raise DomainError("whitney parameters need m >= 0 and r >= 0")
    # QWhitneySequence holds [m i - r]_q
    return _h_rows(N, QWhitneySequence(m, -r), route)


def _h_rows(N: int, seq: ValueSequence, route: str) -> list[list]:
    """Rows 0..N of h_{n-k}(a_0..a_k) by the h route of that name."""
    if route == "recurrence":
        return h_recurrence_rows(N, seq)
    if route == "explicit":
        return h_explicit_rows(N, seq)
    raise _bad_route(route, ("recurrence", "explicit"))


def st_shifted_stirling(n: int, k: int, m: int, r: int, s: complex, t: complex,
                        route: str = "recurrence") -> complex:
    """Stirling-type triangle over the two-parameter nodes [m i + r]_{s,t}."""
    _check_entry(n, k)
    if k > n:
        return complex(0.0)
    seq = STSequence(m, r, s, t)
    nodes = seq.window(0, k)
    if route == "recurrence":
        return h_recurrence(n - k, nodes, seq.field)
    if route == "explicit":
        return h_explicit_scaled(n - k, nodes, seq.field)[0]
    raise _bad_route(route, ("recurrence", "explicit"))


def st_shifted_stirling_rows(N: int, m: int, r: int, s: complex, t: complex,
                             route: str = "recurrence") -> list[list[complex]]:
    """Rows 0..N of st_shifted_stirling by one route."""
    _check_entry(N)
    return _h_rows(N, STSequence(m, r, s, t), route)


def elliptic_shifted_stirling(n: int, k: int, m: int, r: int,
                              params: EllipticParams,
                              route: str = "recurrence") -> complex:
    """Stirling-type triangle over the elliptic nodes [m i + r]."""
    _check_entry(n, k)
    if k > n:
        return complex(0.0)
    seq = EllipticSequence(params, scale=m, offset=r)
    nodes = seq.window(0, k)
    if route == "recurrence":
        return h_recurrence(n - k, nodes, seq.field)
    if route == "explicit":
        return h_explicit_scaled(n - k, nodes, seq.field)[0]
    raise _bad_route(route, ("recurrence", "explicit"))


def elliptic_shifted_stirling_rows(N: int, m: int, r: int,
                                   params: EllipticParams,
                                   route: str = "recurrence") -> list[list[complex]]:
    """Rows 0..N of elliptic_shifted_stirling by one route."""
    _check_entry(N)
    return _h_rows(N, EllipticSequence(params, scale=m, offset=r), route)


# ---------------------------------------------------------------------------
# rook numbers on Ferrers boards
# ---------------------------------------------------------------------------

def weight_product(k: int, params: EllipticParams) -> complex:
    """prod_{j=0}^{k-1} W(j), the factor between the Newton-basis values
    here and the weighted-enumeration convention."""
    if k < 0:
        raise DomainError("weight product needs k >= 0")
    acc = complex(1.0)
    for j in range(k):
        acc *= elliptic_weight(j, params)
    return acc


@dataclass(frozen=True)
class FerrersBoard:
    """Column heights of a Ferrers board, weakly increasing left to right."""

    heights: tuple[int, ...]

    def __post_init__(self):
        hs = tuple(int(h) for h in self.heights)
        object.__setattr__(self, "heights", hs)
        if any(h < 0 for h in hs):
            raise DomainError("column heights must be >= 0")
        if any(hs[i] > hs[i + 1] for i in range(len(hs) - 1)):
            raise DomainError("column heights must be weakly increasing")

    @classmethod
    def staircase(cls, n: int) -> "FerrersBoard":
        return cls(tuple(range(n)))

    @classmethod
    def empty(cls, n: int) -> "FerrersBoard":
        return cls((0,) * n)

    @property
    def columns(self) -> int:
        return len(self.heights)


def _rook_numerator(board: FerrersBoard, params: EllipticParams,
                    t: int) -> complex:
    # a column of height b contributes a number at base shift (2u, u),
    # u = i - 1 - b
    num = complex(1.0)
    for i in range(1, board.columns + 1):
        b = board.heights[i - 1]
        u = i - 1 - b
        num *= elliptic_number_shifted(t - i + b + 1, (2 * u, u), params)
    return num


def _rook_terms(board: FerrersBoard, j: int, params: EllipticParams,
                numerator) -> list[complex]:
    k = board.columns - j
    terms = []
    for t in range(k + 1):
        # complex z/z rounds to 1 + (1 ulp)j, so divisions that cancel
        # structurally (t = k, and bit-identical cached products on the
        # empty board) are short-circuited to keep r_0 = 1 an exact float
        if t == k:
            coef = complex(1.0)
        else:
            coef = elliptic_weight(t, params) / elliptic_weight(k, params)
        num = numerator(t)
        den = complex(1.0)
        for i in range(k + 1):
            if i != t:
                den *= elliptic_number_shifted(t - i, (2 * i, i), params)
        terms.append(coef if num == den else
                     coef * num / _nonzero(den, f"explicit term t = {t} of r_{j}"))
    return terms


def elliptic_rook(board: FerrersBoard, j: int, params: EllipticParams,
                  route: str = "explicit") -> complex:
    """Rook numbers r_j of a Ferrers board over elliptic weights.

    The "explicit" route is a closed interpolation sum in which a column
    of height b contributes numbers at base shift (2u, u), u = i - 1 - b.
    Zero factors are structural there: an empty board gives r_0 = 1 and
    r_j = 0 for j > 0 as exact floats, not approximations.

    The "oracle" route expands the board product

        (prod_i W(i - 1 - b_i))^-1 prod_i ([z] - [i - 1 - b_i])

    in the Newton basis over the nodes [0], [1], ... and multiplies the
    (n, n-j) coefficient back by the first n-j weights.
    """
    return elliptic_rook_scaled(board, j, params, route)[0]


def _rook_oracle_nodes(board: FerrersBoard, params: EllipticParams):
    # the board product's leading coefficient and interior nodes
    n = board.columns
    c0 = complex(1.0)
    for i in range(1, n + 1):
        c0 /= elliptic_weight(i - 1 - board.heights[i - 1], params)
    cs = [
        elliptic_number(i - 1 - board.heights[i - 1], params)
        for i in range(1, n + 1)
    ]
    return c0, cs


def elliptic_rook_scaled(board: FerrersBoard, j: int, params: EllipticParams,
                         route: str = "explicit") -> tuple[complex, float]:
    """Rook number plus the conditioning scale of the chosen route."""
    if not 0 <= j <= board.columns:
        raise DomainError("rook count j must lie in 0..columns")
    if route == "explicit":
        terms = _rook_terms(board, j, params,
                            partial(_rook_numerator, board, params))
        return sum(terms, complex(0.0)), max(1.0, *(abs(t) for t in terms))
    if route == "oracle":
        n = board.columns
        k = n - j
        c0, cs = _rook_oracle_nodes(board, params)
        coeff, scale = connection_explicit_scaled(
            c0, cs, EllipticSequence(params), n, k)
        wp = weight_product(k, params)
        return coeff * wp, max(1.0, scale * abs(wp))
    raise _bad_route(route, ("explicit", "oracle"))


def elliptic_rook_row(board: FerrersBoard, params: EllipticParams,
                      route: str = "explicit") -> list[complex]:
    """r_0 .. r_n of the board by one route, each numerator of the
    explicit sum and of the oracle's connection sum formed once."""
    n = board.columns
    if route == "explicit":
        numerator = cache(partial(_rook_numerator, board, params))
        return [sum(_rook_terms(board, j, params, numerator), complex(0.0))
                for j in range(n + 1)]
    if route == "oracle":
        seq = EllipticSequence(params)
        c0, cs = _rook_oracle_nodes(board, params)
        numerator, denominator = map(cache, _connection_factors(seq, cs))
        return [_connection_sum(c0, seq, n, n - j, numerator, denominator)[0]
                * weight_product(n - j, params) for j in range(n + 1)]
    raise _bad_route(route, ("explicit", "oracle"))


# ---------------------------------------------------------------------------
# Lah numbers
# ---------------------------------------------------------------------------

def lah(n: int, k: int) -> int:
    """Ordered-block partition counts C(n-1, k-1) n! / k!."""
    _check_entry(n, k)
    if k > n:
        return 0
    if k == 0:
        return 1 if n == 0 else 0
    return math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)


def elliptic_lah_rows(N: int, params: EllipticParams,
                      route: str = "recurrence") -> list[list[complex]]:
    """Rows 0..N of the elliptic Lah triangle by one route of elliptic_lah:
    "recurrence" with multiplier W(-n) [n+k]; "explicit" and "oracle"
    with each numerator formed once per (n, j) and each gap product once
    per (k, j)."""
    _check_entry(N)
    if route == "recurrence":
        # [k] - [-n] split by the addition rule, so the triangle weight is
        # W(-n) [n+k] at base shift (-2n, -n)
        return _grow_rows(
            N, complex(1.0), complex(0.0), lambda n, k, x: x,
            lambda n, k, x: (elliptic_weight(-n, params)
                             * elliptic_number_shifted(n + k, (-2 * n, -n), params)
                             * x))
    if route == "explicit":
        numerator = cache(partial(_elliptic_lah_numerator, params))
        denominator = cache(partial(_elliptic_lah_denominator, params))
        return _entry_rows(N, lambda n, k: sum(
            _elliptic_lah_terms(n, k, numerator, denominator), complex(0.0)))
    if route == "oracle":
        seq = EllipticSequence(params)
        cs = EllipticSequence(params, scale=-1)  # [0], [-1], [-2], ...
        numerator, denominator = map(cache, _connection_factors(seq, cs))
        rows = []
        for n in range(N + 1):
            cs.window(0, n - 1)  # each entry of row n forms these first
            rows.append([_connection_sum(complex(1.0), seq, n, k,
                                         numerator, denominator)[0]
                         for k in range(n + 1)])
        return rows
    raise _bad_route(route, ("recurrence", "explicit", "oracle"))


def _elliptic_lah_numerator(params: EllipticParams, n: int, j: int) -> complex:
    aj = elliptic_number(j, params)
    num = complex(1.0)
    for i in range(1, n + 1):
        num *= aj - elliptic_number(-n + i, params)
    return num


def _elliptic_lah_denominator(params: EllipticParams, k: int, j: int) -> complex:
    aj = elliptic_number(j, params)
    den = complex(1.0)
    for i in range(k + 1):
        if i != j:
            den *= aj - elliptic_number(i, params)
    return den


def _elliptic_lah_terms(n: int, k: int, numerator, denominator) -> list[complex]:
    terms = []
    for j in range(k + 1):
        num = numerator(n, j)
        den = denominator(k, j)
        terms.append(num / _nonzero(den, f"explicit term j = {j} of ({n}, {k})"))
    return terms


def elliptic_lah(n: int, k: int, params: EllipticParams,
                 route: str = "recurrence") -> complex:
    """Lah numbers over elliptic numbers: connection coefficients from the
    rising basis prod_i ([z] + [i-1]-type nodes) to the falling one.

    Routes: "recurrence" grows the triangle with the split multiplier
    W(-n) [n+k]; "explicit" evaluates the interpolation sum with raw node
    gaps; "oracle" hands the interior nodes [0], [-1], ..., [-(n-1)] to
    the generic connection engine.  At the fully degenerate point the
    triangle collapses to the integer Lah numbers.
    """
    _check_entry(n, k)
    if k > n:
        return complex(0.0)
    if route == "recurrence":
        return elliptic_lah_rows(n, params)[n][k]
    if route in ("explicit", "oracle"):
        return elliptic_lah_scaled(n, k, params, route)[0]
    raise _bad_route(route, ("recurrence", "explicit", "oracle"))


def elliptic_lah_scaled(n: int, k: int, params: EllipticParams,
                        route: str = "explicit") -> tuple[complex, float]:
    """Lah number plus the conditioning scale of the chosen route."""
    _check_entry(n, k)
    if k > n:
        return complex(0.0), 1.0
    if route == "explicit":
        terms = _elliptic_lah_terms(
            n, k, partial(_elliptic_lah_numerator, params),
            partial(_elliptic_lah_denominator, params))
        return sum(terms, complex(0.0)), max(1.0, *(abs(t) for t in terms))
    if route == "oracle":
        seq = EllipticSequence(params)
        cs = [elliptic_number(-(i - 1), params) for i in range(1, n + 1)]
        return connection_explicit_scaled(complex(1.0), cs, seq, n, k)
    raise _bad_route(route, ("explicit", "oracle"))
