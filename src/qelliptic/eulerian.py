"""Eulerian triangles: classical, q-deformed, r-Whitney, and elliptic.

The unifying object is a node sequence a = (a_i).  The generalized
Eulerian numbers A(n, k) over a are defined by the interpolation identity

    z^n = sum_k A(n, k) prod_{i=1}^n (z - a_{i-k}) / (a_{n-k+1} - a_{i-k}),

so each row is again a set of connection coefficients, this time with
denominators built in.  The generic engine below computes them two ways
for any injective sequence: a triangle recurrence whose correction factor
P(n, k) is a product of gap quotients, and the explicit Lagrange sum read
off the identity.  Specializing the sequence reproduces the named
triangles, and the named direct implementations are kept alongside the
engine so the two can be compared entry by entry:

    a_i = i                 classical Eulerian numbers
    a_i = [i]_q             the standard q-Eulerian triangle
    a_i = m i - r           r-Whitney Eulerian numbers
    a_i = [m i - r]_q       their q-deformation
    a_i = [m i - r]         the elliptic level

The identity itself (worpitzky_check) and the orthogonality relation
behind it (lagrange_delta) are exported as executable checks.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache, partial

from .errors import DegenerateParameters, DegenerateSequence, DomainError
from .families import _bad_route, _check_entry, _entry_rows
from .newton import (
    AffineWhitneySequence,
    EllipticSequence,
    QNumberSequence,
    QWhitneySequence,
    ValueSequence,
    _grow_rows,
    _numeric_pair_scan,
    pairwise_distinct_guard,
)
from .scalars import (
    EXACT_Q,
    ExactScalar,
    _checked_power,
    q_binomial,
    q_int_power,
    q_number,
)
from .theta import (
    EllipticParams,
    elliptic_number,
    elliptic_number_shifted,
    elliptic_weight_shifted,
)

__all__ = [
    "eulerian",
    "eulerian_rows",
    "q_eulerian",
    "q_eulerian_rows",
    "r_whitney_eulerian_rows",
    "q_r_whitney_eulerian",
    "q_r_whitney_eulerian_rows",
    "elliptic_eulerian_rows",
    "elliptic_eulerian_scaled",
    "elliptic_r_whitney_eulerian_rows",
    "elliptic_r_whitney_eulerian_scaled",
    "general_eulerian_scaled",
    "general_eulerian_rows",
    "worpitzky_check",
    "lagrange_delta",
]


# ---------------------------------------------------------------------------
# the generic engine
# ---------------------------------------------------------------------------

def _scanned_window(seq: ValueSequence, n: int) -> list:
    """seq.window(-n, n + 2), for numeric nodes whose window n - 1 passed.

    Window n adds the nodes -n and n + 2 (positions 0 and 2n + 2) to
    window n - 1, so only the pairs they form are scanned, in the order of
    a full scan: row by row, a refusal names the close pair that a
    whole-window scan of the first refusing row names.
    """
    nodes = seq.window(-n, n + 2)
    last = 2 * n + 2
    _numeric_pair_scan(nodes, [(0, j) for j in range(1, last + 1)]
                       + [(i, last) for i in range(1, last)])
    return nodes


def _guard_window(seq: ValueSequence, n: int) -> None:
    # row n of the recurrence and of the explicit sum subtracts nodes
    # across [-n, n+2]; refuse the whole window if any two of them
    # (nearly) coincide
    if not seq.field.exact:
        pairwise_distinct_guard(seq.window(-n, n + 2), seq.field)


def general_eulerian_rows(seq: ValueSequence, N: int) -> list[list]:
    """Rows 0..N of the Eulerian triangle over the given nodes.

    A(n+1, k) = a_{n-k+2} A(n, k-1) - a_{-k} P(n, k) A(n, k) with

        P(n, k) = prod_{i=1}^{n+1} (a_{n-k+2} - a_{i-k})
                                 / (a_{n-k+1} - a_{i-1-k}),

    a product that collapses to 1 for affine nodes and to a power of q
    for q-numbers but must be carried in full beyond that.

    With c = n-k+1 and W(c, L) = prod_{t=1}^{L} (a_c - a_{c-t}) the
    product is the quotient W(c+1, n+1) / W(c, n+1).  Over an exact field
    each W(c, .) is grown on demand from row to row, one node gap per
    step, and P(n, k) is that one exact quotient: a table costs O(N^2)
    ring products and divisions.  Over EXACT_Q the quotient must be a
    Laurent polynomial, as it is for the nodes [i]_q and [m i - r]_q (a
    power of q); nodes whose P(n, k) is a rational function of q raise
    ArithmeticError there and belong over RATIONAL.  A float P(n, k)
    keeps the per-factor quotients in their order, bit for bit.
    """
    if N < 0:
        raise DomainError("need N >= 0")
    field = seq.field
    if field.exact:
        # c -> (L, W(c, L)) for the last L asked; rows grow in order, so
        # the L asked for any c never falls
        products: dict[int, tuple] = {}

        def gap_product(c, L):
            t, w = products.get(c, (0, field.one))
            for t in range(t + 1, L + 1):
                w = w * (seq[c] - seq[c - t])
            products[c] = L, w
            return w

        def right(n, k, x):
            c = n - k + 1
            p = field.div(gap_product(c + 1, n + 1), gap_product(c, n + 1))
            return (-seq[-k]) * p * x
    else:
        for n in range(N + 1):
            nodes = _scanned_window(seq, n)
        # a_i is nodes[N + i], from the last window scanned
        div = field.div

        def right(n, k, x):
            lo = N - k
            top, below = nodes[lo + n + 2], nodes[lo + n + 1]
            p = field.one
            for i in range(lo + 1, lo + n + 2):
                p = p * div(top - nodes[i], below - nodes[i - 1])
            return (-nodes[lo]) * p * x

    return _grow_rows(N, field.one, field.zero,
                      lambda n, k, x: seq[n - k + 2] * x, right)


def _gap_amplification(u, v) -> float:
    # subtracting nearly equal nodes leaves a result whose relative error
    # is the working precision divided by this factor
    d = abs(u - v)
    return max(1.0, abs(u), abs(v)) / d if d > 0.0 else float("inf")


def _general_explicit_value(n: int, k: int, seq: ValueSequence):
    """The explicit-route entry (n, k) and its summands; the caller guards
    the node window first.  Over an exact field the summands' numerators
    are summed over one common multiple of their gap products and divided
    once, and no summands are returned."""
    field = seq.field
    # a_i is nodes[k + i]; a_{n-k+1} is read only when n > 0
    nodes = seq.window(-k, n - k + min(n, 1))
    top = nodes[-1]
    if field.exact:
        nums, dens = [], []
        for j in range(k + 1):
            node = nodes[k - j]
            others = [nodes[i] for i in range(n + 1) if i != k - j]
            nums.append(math.prod((top - a for a in others), start=node ** n))
            dens.append(math.prod((node - a for a in others), start=field.one))
        return field.quotient_sum(nums, dens), ()
    div = field.div
    terms = []
    for j in range(k + 1):
        node = nodes[k - j]
        ratio = field.one
        for i in range(n + 1):
            if i != k - j:
                ratio = ratio * div(top - nodes[i], node - nodes[i])
        terms.append(ratio * _checked_power(node, n))
    total = field.zero
    for t in terms:
        total = total + t
    return total, terms


def _general_explicit_rows(seq: ValueSequence, N: int) -> list[list]:
    """Rows 0..N of the explicit route over numeric nodes, each row's new
    node pairs scanned before the row is formed."""
    rows = []
    for n in range(N + 1):
        _scanned_window(seq, n)
        rows.append([_general_explicit_value(n, k, seq)[0] for k in range(n + 1)])
    return rows


def general_eulerian_scaled(n: int, k: int, seq: ValueSequence):
    """Explicit-route entry plus its conditioning scale.

    The scale is the largest summand magnitude times the worst node-gap
    amplification met while forming the quotients, so an honest residual
    for this route is ``abs(err) / max(1, abs(value), scale)``.
    """
    _check_entry(n, k)
    field = seq.field
    if k > n:
        return field.zero, 1.0
    _guard_window(seq, n)
    total, terms = _general_explicit_value(n, k, seq)
    if field.exact:
        return total, 1.0
    amp = 1.0
    for j in range(k + 1):
        for i in range(n + 1):
            if i != k - j:
                amp = max(amp, _gap_amplification(seq[n - k + 1], seq[i - k]),
                          _gap_amplification(seq[-j], seq[i - k]))
    return total, max(1.0, *(abs(t) for t in terms)) * amp


def worpitzky_check(n: int, seq: ValueSequence, points, row=None) -> list:
    """Both sides of the power expansion at each point z, plus the summands.

    Returns one (lhs, rhs, terms) per point, where lhs = z^n and rhs =
    sum(terms); exact callers assert lhs == rhs, numeric ones weigh
    |lhs - rhs| against the term magnitudes.  Over an exact field both
    sides come multiplied by one common multiple L of the columns' gap
    products, lhs = z^n L, so a wrong row shows as lhs != rhs without a
    division, and terms is empty.  Pass a precomputed triangle row to
    amortize table construction over several calls.

    The node gaps a_{n-k+1} - a_{i-k} do not depend on z and are formed
    once.  The window of column k, z - a_j for j in [1 - k, n - k], is
    the last k of the first n differences z - a_j (j in [1 - n, 0]) and
    the first n - k of the last n (j in [1, n]), so a point costs one
    running product over each half, from the middle outwards, and at
    most two products per column: about 4n ring products instead of
    n(n + 1), and none past a difference that is 0.  Over an exact field
    ``reciprocals`` writes each column's 1 / prod_i gap as c_k / L; a
    point's right side is the ring sum of A(n, k) c_k head tail.  A float
    summand keeps the order A(n, k) prod_i ((z - a_{i-k}) / gap) of a
    point-by-point evaluation, bit for bit.
    """
    if n < 0:
        raise DomainError("need n >= 0")
    field = seq.field
    if row is None:
        row = general_eulerian_rows(seq, n)[n]
    gaps = [[seq[n - k + 1] - seq[i - k] for i in range(1, n + 1)]
            for k in range(n + 1)]
    if field.exact:
        cs, common = field.reciprocals(
            [math.prod(column, start=field.one) for column in gaps])
        coefficients = [r * c for r, c in zip(row, cs)]
    results = []
    for z in points:
        # z - a_j for j in [1 - n, n], at index j + n - 1
        diffs = [z - seq[j] for j in range(1 - n, n + 1)]
        lhs = z ** n
        if field.exact:
            # head[k]: the last k of the first n; tail[m]: the first m of
            # the last n
            head = _running_products(diffs[n - 1::-1], field)
            tail = _running_products(diffs[n:], field)
            total = field.zero
            for k in range(n + 1):
                lo = n - k  # diffs index of a_{1-k}
                if not (field.is_zero(head[k]) or field.is_zero(tail[lo])):
                    total = total + coefficients[k] * head[k] * tail[lo]
            results.append((lhs * common, total, ()))
            continue
        terms = []
        for k in range(n + 1):
            lo = n - k
            factor = row[k]
            for i, gap in enumerate(gaps[k]):
                factor = factor * field.div(diffs[lo + i], gap)
            terms.append(factor)
        rhs = field.zero
        for t in terms:
            rhs = rhs + t
        results.append((lhs, rhs, terms))
    return results


def _running_products(xs: list, field) -> list:
    """[1, x_0, x_0 x_1, ...] over an exact field, each product formed once;
    from the first x that is 0 on, every entry is 0 and no product is
    formed."""
    products = [field.one]
    for i, x in enumerate(xs):
        if field.is_zero(x):
            return products + [field.zero] * (len(xs) - i)
        products.append(products[-1] * x if i else x)
    return products


def lagrange_delta(n: int, k: int, l: int, seq: ValueSequence,
                   max_scale: float | None = None):
    """The orthogonality sum behind the explicit formula.

    sum_{j=l}^{k} of the explicit-formula ratio at (n, k, j) times the
    basis polynomial for column l evaluated at a_{-j}; it must come out
    to 1 when k = l and 0 for l < k.

    The summands cancel, and each one is accurate only relative to its
    own magnitude, so the absolute error of the result is roughly the
    working precision times the largest summand.  Numeric callers that
    hold the result to an absolute tolerance should pass ``max_scale``
    (largest summand magnitude they can absorb, e.g. 1e5 for 1e-9) and
    resample their parameters on DegenerateSequence.  Over an exact
    field the summands' numerators are summed over one common multiple of
    their denominators and divided once.
    """
    if not 0 <= l <= k <= n:
        raise DomainError("need 0 <= l <= k <= n")
    field = seq.field
    _guard_window(seq, n)
    if field.exact:
        one = field.one
        # the basis polynomial's denominator does not depend on j
        basis_den = math.prod((seq[n - l + 1] - seq[i - l] for i in range(1, n + 1)),
                              start=one)
        nums, dens = [], []
        for j in range(l, k + 1):
            others = [seq[i - k] for i in range(n + 1) if i != k - j]
            ratio = math.prod((seq[n - k + 1] - a for a in others), start=one)
            nums.append(math.prod((seq[-j] - seq[i - l] for i in range(1, n + 1)),
                                  start=ratio))
            dens.append(math.prod((seq[-j] - a for a in others), start=basis_den))
        return field.quotient_sum(nums, dens)
    total = field.zero
    for j in range(l, k + 1):
        ratio = field.one
        for i in range(n + 1):
            if i != k - j:
                ratio = ratio * field.div(
                    seq[n - k + 1] - seq[i - k], seq[-j] - seq[i - k]
                )
        basis = field.one
        for i in range(1, n + 1):
            basis = basis * field.div(
                seq[-j] - seq[i - l], seq[n - l + 1] - seq[i - l]
            )
        term = ratio * basis
        if (max_scale is not None and not field.exact
                and abs(term) > max_scale):
            raise DegenerateSequence(
                f"orthogonality summand reached {abs(term):.3e}, past the "
                f"requested bound {max_scale:.1e}; the node window cannot "
                "support the target tolerance"
            )
        total = total + term
    return total


# ---------------------------------------------------------------------------
# classical and q
# ---------------------------------------------------------------------------

def eulerian_rows(N: int, route: str = "recurrence") -> list[list[int]]:
    """Rows 0..N of the descent counts A(n, k): "recurrence" is the
    r-Whitney triangle at m = 1, r = 0, "explicit" a table of eulerian;
    the recurrence's rows are cached, so callers must not mutate them."""
    _check_entry(N)
    if route == "recurrence":
        return r_whitney_eulerian_rows(N, 1, 0, "direct")
    if route == "explicit":
        return _entry_rows(N, eulerian)
    raise _bad_route(route, ("recurrence", "explicit"))


def eulerian(n: int, k: int) -> int:
    """Descent counts A(n, k) by the alternating explicit sum; row 3
    reads 0, 1, 4, 1."""
    _check_entry(n, k)
    if k > n:
        return 0
    return sum(
        (-1) ** j * math.comb(n + 1, j) * (k - j) ** n for j in range(k + 1)
    )


def q_eulerian_rows(N: int, route: str = "recurrence") -> list[list[ExactScalar]]:
    """Rows 0..N of the q-Eulerian triangle, exact in q.

    The recurrence uses the multipliers [n-k+2]_q and q^(n-k+1) [k]_q: it
    is the q-deformed r-Whitney triangle at m = 1, r = 0.  "explicit" is
    a table of q_eulerian; "engine" runs the generic machinery over the
    nodes [i]_q, exercising the same gap quotients the elliptic level
    needs.  Row n sums to [n]_q! whichever way it is computed.  The
    recurrence's rows are cached, so callers must not mutate them.
    """
    _check_entry(N)
    if route == "recurrence":
        return q_r_whitney_eulerian_rows(N, 1, 0, "recurrence")
    if route == "explicit":
        return _entry_rows(N, q_eulerian)
    if route == "engine":
        return general_eulerian_rows(QNumberSequence(), N)
    raise _bad_route(route, ("recurrence", "explicit", "engine"))


def q_eulerian(n: int, k: int) -> ExactScalar:
    """q-Eulerian numbers by the alternating sum with Gaussian binomials."""
    _check_entry(n, k)
    if k > n:
        return EXACT_Q.zero
    total = EXACT_Q.zero
    for j in range(k + 1):
        term = (
            ExactScalar.q_power(math.comb(j, 2))
            * q_binomial(n + 1, j)
            * q_int_power(k - j, n)
        )
        if j % 2:
            term = -term
        total = total + term
    return ExactScalar.q_power(
        math.comb(n - k + 1, 2) - math.comb(k, 2)
    ) * total


# ---------------------------------------------------------------------------
# r-Whitney levels
# ---------------------------------------------------------------------------

def _check_whitney(m: int, r: int) -> None:
    if m < 1 or r < 0:
        raise DomainError("need m >= 1 and r >= 0")


@lru_cache(maxsize=None)
def r_whitney_eulerian_rows(N: int, m: int, r: int,
                            route: str = "direct") -> list[list[int]]:
    """Rows 0..N over the affine nodes m i - r, by the direct triangle or
    the generic engine; cached, so callers must not mutate the rows."""
    _check_entry(N)
    _check_whitney(m, r)
    if route == "direct":
        return _grow_rows(N, 1, 0, lambda n, k, x: (m * (n - k + 2) - r) * x,
                          lambda n, k, x: (m * k + r) * x)
    if route == "engine":
        rows = general_eulerian_rows(AffineWhitneySequence(m, r), N)
        assert all(value.denominator == 1 for row in rows for value in row)
        return [[int(value) for value in row] for row in rows]
    raise _bad_route(route, ("direct", "engine"))


@lru_cache(maxsize=None)
def q_r_whitney_eulerian_rows(N: int, m: int, r: int,
                              route: str = "recurrence") -> list[list[ExactScalar]]:
    """Rows 0..N of the q-deformed r-Whitney Eulerian triangle, exact in q.

    Three routes: the direct triangle with multipliers
    [m(n-k+2) - r]_q and q^(m(n+1) - mk - r) [mk + r]_q, a table of the
    explicit sums of q_r_whitney_eulerian, and the generic engine over
    the nodes [m i - r]_q.  m = 1, r = 0 collapses everything onto the
    plain q-Eulerian triangle.  Cached per argument tuple, so callers
    must not mutate the rows.
    """
    _check_entry(N)
    _check_whitney(m, r)
    if route == "recurrence":
        return _grow_rows(
            N, ExactScalar.from_int(1), EXACT_Q.zero,
            lambda n, k, x: q_number(m * (n - k + 2) - r) * x,
            lambda n, k, x: (ExactScalar.q_power(m * (n + 1) - m * k - r)
                             * q_number(m * k + r) * x))
    if route == "explicit":
        return _entry_rows(N, lambda n, k: q_r_whitney_eulerian(n, k, m, r))
    if route == "engine":
        return general_eulerian_rows(QWhitneySequence(m, r), N)
    raise _bad_route(route, ("recurrence", "explicit", "engine"))


def q_r_whitney_eulerian(n: int, k: int, m: int, r: int) -> ExactScalar:
    """q-deformed r-Whitney Eulerian numbers by the alternating explicit
    sum, whose binomials live in base q^m."""
    _check_entry(n, k)
    _check_whitney(m, r)
    if k > n:
        return EXACT_Q.zero
    total = EXACT_Q.zero
    for j in range(k + 1):
        term = (
            ExactScalar.q_power(
                m * math.comb(n - j + 1, 2) - n * (m * (k - j) + r)
            )
            * q_binomial(n + 1, j).stretch(m)
            * q_int_power(m * (k - j) + r, n)
        )
        if j % 2:
            term = -term
        total = total + term
    return total


# ---------------------------------------------------------------------------
# elliptic levels
# ---------------------------------------------------------------------------

def _shifted_divisor(z: int, shift: tuple[int, int], params: EllipticParams) -> complex:
    """The shifted elliptic number [z] where it divides; an exact zero (a = 1
    makes some of them vanish) is a degeneracy of the parameters."""
    value = elliptic_number_shifted(z, shift, params)
    if value == 0:
        raise DegenerateParameters(
            f"elliptic number [{z}] at shift {shift} is exactly 0 and the "
            "triangle divides by it"
        )
    return value


def elliptic_eulerian_rows(N: int, params: EllipticParams,
                           route: str = "recurrence") -> list[list[complex]]:
    """Rows 0..N of the Eulerian triangle over elliptic nodes [i].

    The "recurrence" route keeps the correction product in its weight
    form, every factor a shifted number or weight with its own
    degeneracy guard; "explicit" is the interpolation sum after the
    weights cancel, each power [-j]^n formed once per row; "engine"
    recomputes either from raw node gaps.  The three agree up to the
    conditioning of the gaps encountered.
    """
    _check_entry(N)
    if route == "explicit":
        # each shifted number and power once per table, on first touch, so
        # a refusal still names the entry that an entry-by-entry pass names
        pieces = [cache(partial(piece, params)) for piece in _EXPLICIT_PIECES]
        return _entry_rows(N, lambda n, k: sum(
            _elliptic_explicit_terms(n, k, *pieces), complex(0.0)))
    if route == "engine":
        return general_eulerian_rows(EllipticSequence(params), N)
    if route != "recurrence":
        raise _bad_route(route, ("recurrence", "explicit", "engine"))

    def right(n, k, x):
        # the gap-quotient product, with every weight telescoped into a
        # single shifted one so no 1/a inversion is needed
        p = elliptic_weight_shifted(n + 1, (-2 * k, -k), params)
        for i in range(1, n + 2):
            u = i - k
            p *= elliptic_number_shifted(n - i + 2, (2 * u, u), params)
            p /= _shifted_divisor(n - i + 2, (2 * (u - 1), u - 1), params)
        return -elliptic_number(-k, params) * p * x

    return _grow_rows(N, complex(1.0), complex(0.0),
                      lambda n, k, x: elliptic_number(n - k + 2, params) * x, right)


def _elliptic_numerator(params: EllipticParams, d: int, u: int) -> complex:
    # [n - i + 1] at shift (2u, u), with d = n - k and u = i - k
    return elliptic_number_shifted(d - u + 1, (2 * u, u), params)


def _elliptic_divisor(params: EllipticParams, j: int, u: int) -> complex:
    # [k - j - i] at shift (2u, u), with u = i - k
    return _shifted_divisor(-j - u, (2 * u, u), params)


def _elliptic_power(params: EllipticParams, j: int, n: int) -> complex:
    return _checked_power(elliptic_number(-j, params), n)


# the pieces of the explicit sum, each taking params first
_EXPLICIT_PIECES = (_elliptic_numerator, _elliptic_divisor, _elliptic_power)


def _elliptic_explicit_terms(n: int, k: int, numerator, divisor,
                             power) -> list[complex]:
    # the summands over j of the explicit entry (n, k): the pieces of
    # _EXPLICIT_PIECES with params bound
    d = n - k
    terms = []
    for j in range(k + 1):
        ratio = complex(1.0)
        for u in range(-k, d + 1):
            if u != -j:
                ratio *= numerator(d, u)
                ratio /= divisor(j, u)
        terms.append(ratio * power(j, n))
    return terms


def elliptic_eulerian_scaled(n: int, k: int,
                             params: EllipticParams) -> tuple[complex, float]:
    """Explicit-route entry and its largest summand magnitude."""
    _check_entry(n, k)
    if k > n:
        return complex(0.0), 1.0
    terms = _elliptic_explicit_terms(
        n, k, *(partial(piece, params) for piece in _EXPLICIT_PIECES))
    return sum(terms, complex(0.0)), max(1.0, *(abs(t) for t in terms))


def elliptic_r_whitney_eulerian_rows(
        N: int, m: int, r: int, params: EllipticParams,
        route: str = "recurrence") -> list[list[complex]]:
    """Rows 0..N of the Eulerian triangle over the elliptic nodes
    [m i - r], by the engine ("recurrence") or its explicit sum on one
    node sequence."""
    _check_whitney(m, r)
    seq = EllipticSequence(params, scale=m, offset=-r)
    if route == "recurrence":
        return general_eulerian_rows(seq, N)
    if route == "explicit":
        _check_entry(N)
        return _general_explicit_rows(seq, N)
    raise _bad_route(route, ("recurrence", "explicit"))


def elliptic_r_whitney_eulerian_scaled(
        n: int, k: int, m: int, r: int,
        params: EllipticParams) -> tuple[complex, float]:
    """Explicit-route entry and scale over the nodes [m i - r]."""
    _check_entry(n, k)
    if k > n:
        return complex(0.0), 1.0
    seq = EllipticSequence(params, scale=m, offset=-r)
    return general_eulerian_scaled(n, k, seq)
