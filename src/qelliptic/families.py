"""Stirling, Whitney, rook, and Lah families, each by independent routes.

Every family here is a triangle of connection coefficients between two
Newton bases, so each value can be computed at least two structurally
different ways: a Pascal-type triangle recurrence, an explicit
interpolation sum, and (for the elliptic families) the raw
divided-difference oracle or the generic connection engine.  Every family
keeps a pair of routes that share no intermediate formula; their
agreement is the correctness argument, and the check suites replay it at
runtime.  Not every pair is such a pair: Lah's "explicit" and "oracle"
routes are one Lagrange sum (below), so its formula-disjoint pair is the
recurrence against either of them.

Each family is one builder, ``*_rows(N, ..., route)``, that returns rows
0..N by the route named; the per-entry forms are the ``*_scaled``
variants, the exact explicit sums and ``lah``.

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
from functools import cache, lru_cache, partial

from .errors import DegenerateParameters, DomainError, Frozen
from .newton import (
    EllipticSequence,
    QNumberSequence,
    QWhitneySequence,
    STSequence,
    ValueSequence,
    _connection_factors,
    _connection_sum,
    _divided_differences,
    _grow_rows,
    connection_explicit_scaled,
    h_explicit_rows,
    h_recurrence_rows,
    newton_oracle_scaled,
    pairwise_distinct_guard,
)
from .scalars import (
    EXACT_Q,
    ExactScalar,
    _checked_power,
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
    "elliptic_stirling2_rows",
    "elliptic_stirling2_scaled",
    "whitney_qr_rows",
    "st_shifted_stirling_rows",
    "elliptic_shifted_stirling_rows",
    "weight_product",
    "FerrersBoard",
    "elliptic_rook_row",
    "elliptic_rook_scaled",
    "lah",
    "elliptic_lah_rows",
    "elliptic_lah_scaled",
]


def _check_entry(n: int, k: int = 0) -> None:
    if n < 0 or k < 0:
        raise DomainError("triangle entries need n >= 0 and k >= 0")


def _bad_route(route: str, allowed: tuple[str, ...]):
    return DomainError(f"unknown route {route!r}, expected one of {allowed}")


def _nonzero(divisor: complex, what: str,
             cause: str = "an elliptic number or node gap in its denominator") -> complex:
    """divisor where a route divides by it; an exact zero (q = -1 makes every
    even-indexed elliptic number vanish, a = q the weight W(-1)) is a
    degeneracy of the parameters."""
    if divisor == 0:
        raise DegenerateParameters(f"{what} divides by exactly 0: {cause} vanishes")
    return divisor


def _entry_rows(N: int, entry) -> list[list]:
    """Rows 0..N of entry(n, k), formed in (n, k) order: a route whose
    entries share cached pieces meets its first refusal where an
    entry-by-entry computation does."""
    return [[entry(n, k) for k in range(n + 1)] for n in range(N + 1)]


# ---------------------------------------------------------------------------
# classical and q-deformed Stirling numbers of the second kind
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def stirling2_rows(N: int, route: str = "recurrence") -> list[list[int]]:
    """Rows 0..N of the set-partition triangle: "recurrence" is
    S(n+1, k) = S(n, k-1) + k S(n, k), "explicit" a table of stirling2.
    Cached per argument tuple, so callers must not mutate the rows."""
    _check_entry(N)
    if route == "recurrence":
        return _grow_rows(N, 1, 0, lambda n, k, x: x, lambda n, k, x: k * x)
    if route == "explicit":
        return _entry_rows(N, stirling2)
    raise _bad_route(route, ("recurrence", "explicit"))


def stirling2(n: int, k: int) -> int:
    """Set-partition counts S(n, k) by the alternating explicit sum."""
    _check_entry(n, k)
    if k > n:
        return 0
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    fact = math.factorial(k)
    assert total % fact == 0
    return total // fact


@lru_cache(maxsize=None)
def q_stirling2_rows(N: int, route: str = "recurrence") -> list[list[ExactScalar]]:
    """Rows 0..N of the q-Stirling triangle, exact in q, by three routes:
    the triangle recurrence

        S(n+1, k) = S(n, k-1) + [k]_q S(n, k),

    a table of the explicit sums of q_stirling2, and "h", the complete
    homogeneous specialization h_{n-k}([0]_q .. [k]_q).  All three
    produce the same Laurent polynomials.  Cached per argument tuple, so
    callers must not mutate the rows."""
    _check_entry(N)
    if route == "recurrence":
        return _grow_rows(N, EXACT_Q.one, EXACT_Q.zero, lambda n, k, x: x,
                          lambda n, k, x: q_number(k) * x)
    if route == "explicit":
        return _entry_rows(N, q_stirling2)
    if route == "h":
        return h_recurrence_rows(N, QNumberSequence())
    raise _bad_route(route, ("recurrence", "explicit", "h"))


def q_stirling2(n: int, k: int) -> ExactScalar:
    """q-Stirling numbers of the second kind by the alternating sum

        q^-C(k,2) / [k]_q!  sum_j (-1)^j q^C(j,2) qbinom(k, j) [k-j]_q^n.
    """
    _check_entry(n, k)
    if k > n:
        return EXACT_Q.zero
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
    # the sum is divisible by the prefactor's denominator, not each summand
    return total / (ExactScalar.q_power(math.comb(k, 2)) * q_factorial(k))


# ---------------------------------------------------------------------------
# elliptic Stirling numbers
# ---------------------------------------------------------------------------

def elliptic_stirling2_rows(N: int, params: EllipticParams,
                            route: str = "recurrence") -> list[list[complex]]:
    """Rows 0..N of the Stirling triangle over elliptic numbers.

    Routes: "recurrence" is the triangle with multiplier [k]; "h" runs
    one prefix recurrence of the generic complete homogeneous engine
    over the nodes [0], [1], ...; "explicit" is the weighted
    interpolation sum whose denominators are assembled, once per (k, j),
    from weights and base-shifted numbers rather than raw node gaps;
    "oracle" reads row n off one divided-difference table of the power
    function.  Agreement of "explicit" with the others exercises the
    addition rule at every node pair.
    """
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
            _powers(seq, n), seq, n)] for n in range(N + 1)]
    raise _bad_route(route, ("recurrence", "h", "explicit", "oracle"))


def _powers(seq: EllipticSequence, n: int) -> list[complex]:
    # the oracle's function values [m]^n at the nodes m = 0..n
    return [_checked_power(seq[m], n) for m in range(n + 1)]


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
        terms.append(_checked_power(elliptic_number(k - j, params), n)
                     / _nonzero(den, f"explicit term j = {j} of ({n}, {k})"))
    return terms


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
        coeffs, scale = newton_oracle_scaled(_powers(seq, n), seq, n)
        return coeffs[k], scale
    raise _bad_route(route, ("explicit", "oracle"))


# ---------------------------------------------------------------------------
# q-deformed r-Whitney numbers and their (s, t) and elliptic extensions
# ---------------------------------------------------------------------------

def whitney_qr_rows(N: int, m: int, r: int,
                    route: str = "recurrence") -> list[list[ExactScalar]]:
    """Rows 0..N of the r-Whitney numbers of the second kind, q-deformed,
    exact.

    Column k is h_{n-k} over the nodes [r]_q .. [km+r]_q for n = k..N:
    "recurrence" is one prefix recurrence over [r]_q .. [Nm+r]_q, and
    "explicit" one Lagrange sum per column.  These are the raw values;
    the factor q^(kr + m C(k,2)) makes the m = r = 1 column match the
    shifted set-partition triangle at q = 1.
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


def st_shifted_stirling_rows(N: int, m: int, r: int, s: complex, t: complex,
                             route: str = "recurrence") -> list[list[complex]]:
    """Rows 0..N of the Stirling-type triangle over the two-parameter
    nodes [m i + r]_{s,t}, by the routes of whitney_qr_rows."""
    _check_entry(N)
    return _h_rows(N, STSequence(m, r, s, t), route)


def elliptic_shifted_stirling_rows(N: int, m: int, r: int,
                                   params: EllipticParams,
                                   route: str = "recurrence") -> list[list[complex]]:
    """Rows 0..N of the Stirling-type triangle over the elliptic nodes
    [m i + r], by the routes of whitney_qr_rows."""
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


class FerrersBoard(Frozen):
    """Column heights of a Ferrers board, weakly increasing left to right."""

    __slots__ = ("heights",)

    def __init__(self, heights: tuple[int, ...]):
        hs = tuple(int(h) for h in heights)
        object.__setattr__(self, "heights", hs)
        if any(h < 0 for h in hs):
            raise DomainError("column heights must be >= 0")
        if any(hs[i] > hs[i + 1] for i in range(len(hs) - 1)):
            raise DomainError("column heights must be weakly increasing")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.heights == other.heights
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.heights)

    def __repr__(self) -> str:
        return f"FerrersBoard(heights={self.heights!r})"

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
            coef = elliptic_weight(t, params) / _nonzero(
                elliptic_weight(k, params),
                f"explicit coefficient W({t}) / W({k}) of r_{j}", f"the weight W({k})")
        num = numerator(t)
        den = complex(1.0)
        for i in range(k + 1):
            if i != t:
                den *= elliptic_number_shifted(t - i, (2 * i, i), params)
        terms.append(coef if num == den else
                     coef * num / _nonzero(den, f"explicit term t = {t} of r_{j}"))
    return terms


def _rook_oracle_nodes(board: FerrersBoard, params: EllipticParams):
    # the board product's leading coefficient and interior nodes
    nodes = [i - 1 - b for i, b in enumerate(board.heights, 1)]
    c0 = complex(1.0)
    for u in nodes:
        c0 /= _nonzero(elliptic_weight(u, params),
                       "the board product's leading coefficient", f"the weight W({u})")
    return c0, [elliptic_number(u, params) for u in nodes]


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
    """Rook numbers r_0 .. r_n of a Ferrers board over elliptic weights.

    The "explicit" route is a closed interpolation sum in which a column
    of height b contributes numbers at base shift (2u, u), u = i - 1 - b.
    Zero factors are structural there: an empty board gives r_0 = 1 and
    r_j = 0 for j > 0 as exact floats, not approximations.

    The "oracle" route expands the board product

        (prod_i W(i - 1 - b_i))^-1 prod_i ([z] - [i - 1 - b_i])

    in the Newton basis over the nodes [0], [1], ... and multiplies the
    (n, n-j) coefficient back by the first n-j weights.  Each numerator
    of the explicit sum and of the oracle's connection sum is formed
    once per row.
    """
    n = board.columns
    if route == "explicit":
        numerator = cache(partial(_rook_numerator, board, params))
        return [sum(_rook_terms(board, j, params, numerator), complex(0.0))
                for j in range(n + 1)]
    if route == "oracle":
        seq = EllipticSequence(params)
        c0, cs = _rook_oracle_nodes(board, params)
        numerator, denominator = map(cache, _connection_factors(seq, cs))
        row = []
        for k in range(n, -1, -1):  # r_j from the coefficient (n, n - j)
            pairwise_distinct_guard(seq.window(0, k), seq.field)
            row.append(_connection_sum(c0, seq, n, k, numerator, denominator)[0]
                       * weight_product(k, params))
        return row
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
    """Rows 0..N of the Lah triangle over elliptic numbers: connection
    coefficients from the rising basis prod_i ([z] + [i-1]-type nodes)
    to the falling one.

    Routes: "recurrence" grows the triangle with the split multiplier
    W(-n) [n+k]; "explicit" evaluates the interpolation sum with raw node
    gaps; "oracle" hands the interior nodes [0], [-1], ..., [-(n-1)] to
    the generic connection engine.  The last two form each numerator
    once per (n, j) and each gap product once per (k, j), and they are
    one Lagrange sum: the engine's gap product for (k, j) is the explicit
    route's, bit for bit, and its numerator holds the same factors in the
    reverse order.  So they check the engine's bookkeeping against a
    hand-written loop, and only the recurrence is independent of both.
    At the fully degenerate point the triangle collapses to the integer
    Lah numbers.
    """
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
            row = [_connection_sum(complex(1.0), seq, n, k,
                                   numerator, denominator)[0] for k in range(n)]
            # entry (n, n) is the first to use the nodes a_0..a_n
            pairwise_distinct_guard(seq.window(0, n), seq.field)
            row.append(_connection_sum(complex(1.0), seq, n, n,
                                       numerator, denominator)[0])
            rows.append(row)
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
