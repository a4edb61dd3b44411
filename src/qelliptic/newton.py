"""Newton bases over arbitrary node sequences.

Given a sequence a = (a_i) of scalars, the Newton basis consists of the
generalized falling factorials prod_{i<k} (z - a_i).  This module provides
the node sequences themselves (classical integers, q-numbers, elliptic
numbers, affine and q-deformed Whitney nodes, (s,t)-nodes, or explicit
windows), the complete homogeneous pieces h_n(a_0, ..., a_k) that expand
powers of z in that basis, connection coefficients between two node
sequences, and the divided-difference oracle that recovers all of them
from raw function values.

Engines are generic over a ScalarField, so the same code runs exactly (over
EXACT_Q, the Laurent polynomials in q, or RATIONAL, the plain rationals)
and numerically (complex).  Over EXACT_Q every division must be exact: the
q-number and q-Whitney nodes give Laurent-polynomial results throughout,
and nodes whose results are rational functions of q belong over RATIONAL.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .errors import DegenerateSequence, DomainError
from .scalars import (
    EXACT_Q,
    COMPLEX,
    RATIONAL,
    ScalarField,
    _checked_power,
    q_number,
    st_number,
)
from .theta import EllipticParams, elliptic_number

__all__ = [
    "DISTINCTNESS_REL",
    "ValueSequence",
    "ClassicalSequence",
    "QNumberSequence",
    "AffineWhitneySequence",
    "QWhitneySequence",
    "STSequence",
    "EllipticSequence",
    "ExplicitSequence",
    "pairwise_distinct_guard",
    "falling_factorial",
    "h_recurrence",
    "h_explicit_scaled",
    "h_explicit_degrees",
    "h_recurrence_rows",
    "h_explicit_rows",
    "connection_recurrence",
    "connection_explicit_scaled",
    "newton_oracle_scaled",
]

DISTINCTNESS_REL = 1e-8


class ValueSequence:
    """A doubly infinite sequence of nodes a_i, total on the integers.

    Subclasses fill in `field` and `_value`.  Values are memoized per
    instance; they never depend on cache state, so concurrent reads are
    safe.
    """

    field: ScalarField

    def __init__(self):
        self._memo: dict[int, object] = {}

    def _value(self, i: int):
        raise NotImplementedError

    def __getitem__(self, i: int):
        v = self._memo.get(i)
        if v is None:
            v = self._value(i)
            self._memo[i] = v
        return v

    def window(self, lo: int, hi: int) -> list:
        return [self[i] for i in range(lo, hi + 1)]


class ClassicalSequence(ValueSequence):
    """a_i = i, exact rationals."""

    field = RATIONAL

    def _value(self, i: int):
        return self.field.from_int(i)


class QNumberSequence(ValueSequence):
    """a_i = [i]_q, exact Laurent polynomials."""

    field = EXACT_Q

    def _value(self, i: int):
        return q_number(i)


class AffineWhitneySequence(ValueSequence):
    """a_i = m*i - r, exact rationals."""

    field = RATIONAL

    def __init__(self, m: int, r: int):
        super().__init__()
        self.m = m
        self.r = r

    def _value(self, i: int):
        return self.field.from_int(self.m * i - self.r)


class QWhitneySequence(ValueSequence):
    """a_i = [m*i - r]_q, exact."""

    field = EXACT_Q

    def __init__(self, m: int, r: int):
        super().__init__()
        self.m = m
        self.r = r

    def _value(self, i: int):
        return q_number(self.m * i - self.r)


class STSequence(ValueSequence):
    """a_i = [m*i + r]_{s,t}, numeric."""

    field = COMPLEX

    def __init__(self, m: int, r: int, s: complex, t: complex):
        super().__init__()
        self.m = m
        self.r = r
        self.s = s
        self.t = t

    def _value(self, i: int):
        return st_number(self.m * i + self.r, self.s, self.t)


class EllipticSequence(ValueSequence):
    """a_i = [scale*i + offset] over elliptic numbers, numeric.

    Scale and offset give the affine index maps the r-Whitney variants
    need.
    """

    field = COMPLEX

    def __init__(self, params: EllipticParams, scale: int = 1, offset: int = 0):
        super().__init__()
        self.params = params
        self.scale = scale
        self.offset = offset

    def _value(self, i: int):
        return elliptic_number(self.scale * i + self.offset, self.params)


class ExplicitSequence(ValueSequence):
    """A finite window of values; access outside the window is an error."""

    def __init__(self, values: Sequence, offset: int = 0,
                 field: ScalarField = COMPLEX):
        super().__init__()
        self.values = list(values)
        self.offset = offset
        self.field = field

    def _value(self, i: int):
        j = i - self.offset
        if not 0 <= j < len(self.values):
            raise IndexError(
                f"index {i} outside explicit window "
                f"[{self.offset}, {self.offset + len(self.values) - 1}]"
            )
        return self.values[j]


def pairwise_distinct_guard(values: Sequence, field: ScalarField) -> None:
    """Reject node lists with coincident entries.

    Exact fields compare structurally; numeric ones require
    |a_i - a_j| >= DISTINCTNESS_REL * max(1, |a_i|, |a_j|), scanning every
    pair on each call.  Nothing is remembered between calls: a table
    builder guards each node window it uses once.
    """
    if field.exact:
        n = len(values)
        for i in range(n):
            for j in range(i + 1, n):
                if values[i] == values[j]:
                    raise DegenerateSequence(
                        f"coincident nodes at positions {i} and {j}"
                    )
        return
    _numeric_pair_scan(values)


def _numeric_pair_scan(values: Sequence, pairs=None) -> None:
    """Refuse the first pair (i, j) of ``pairs``, by default every i < j in
    row order, whose nodes are within DISTINCTNESS_REL of each other."""
    if pairs is None:
        pairs = itertools.combinations(range(len(values)), 2)
    for i, j in pairs:
        gap = abs(values[i] - values[j])
        scale = max(1.0, abs(values[i]), abs(values[j]))
        if gap < DISTINCTNESS_REL * scale:
            raise DegenerateSequence(
                f"nodes at positions {i} and {j} are within {gap:.3e}"
            )


# ---------------------------------------------------------------------------
# factorials and complete homogeneous functions
# ---------------------------------------------------------------------------

def falling_factorial(z, seq: ValueSequence, n: int):
    """prod_{i=0}^{n-1} (z - a_i)."""
    if n < 0:
        raise DomainError("falling factorial needs n >= 0")
    acc = seq.field.one
    for i in range(n):
        acc = acc * (z - seq[i])
    return acc


def _h_step(prev: list, values: Sequence) -> list:
    """h_d(a_0..a_j) for j < len(prev), from prev[j] = h_{d-1}(a_0..a_j):

    h_d(a_0..a_j) = h_d(a_0..a_{j-1}) + a_j h_{d-1}(a_0..a_j).

    No node past a_j enters entry j, so a shorter prev gives the same
    entries."""
    cur = [values[0] * prev[0]]
    for j in range(1, len(prev)):
        cur.append(cur[j - 1] + values[j] * prev[j])
    return cur


def h_recurrence(n: int, values: Sequence, field: ScalarField):
    """Complete homogeneous h_n(values) by the prefix recurrence."""
    if n < 0:
        raise DomainError("h needs n >= 0")
    if not values:
        return field.one if n == 0 else field.zero
    prev = [field.one] * len(values)
    for _ in range(n):
        prev = _h_step(prev, values)
    return prev[-1]


def h_recurrence_rows(N: int, seq: ValueSequence) -> list[list]:
    """Rows 0..N of h_{n-k}(a_0..a_k) by one prefix recurrence over a_0..a_N.

    After d steps the recurrence holds h_d(a_0..a_j) for every j, entry
    (j + d, j) of the triangle, with the bits of h_recurrence(d, a_0..a_j).
    Step d keeps the columns j <= N - d, the ones rows 0..N still need.
    """
    values = seq.window(0, N)
    rows = [[None] * (n + 1) for n in range(N + 1)]
    prev = [seq.field.one] * (N + 1)
    for d in range(N + 1):
        for j, h in enumerate(prev):
            rows[j + d][j] = h
        if d < N:
            prev = _h_step(prev[:N - d], values)
    return rows


def _div_gap_product(field: ScalarField, num, denom):
    # a product of individually guarded gaps can still sink below the
    # numeric zero floor; that is a conditioning failure of the explicit
    # route, not a zero denominator, so report it as degeneracy
    try:
        return field.div(num, denom)
    except ZeroDivisionError as exc:
        raise DegenerateSequence(
            "gap product fell below the numeric zero floor; the nodes are "
            "too clustered for an explicit-sum route at this precision"
        ) from exc


def h_explicit_scaled(n: int, values: Sequence, field: ScalarField):
    """h_n(values) as the Lagrange-style sum over the nodes,

        h_n(a_0..a_k) = sum_j a_j^(n+k) / prod_{i != j} (a_j - a_i),

    together with its largest summand magnitude; the nodes must be
    pairwise distinct.

    Nodes that cluster (q-numbers and elliptic numbers do, geometrically)
    make the Lagrange sum cancel: summands of size 1/prod(gaps) add up to
    an O(1) value.  The returned scale is the right yardstick for relative
    error; against the value alone the sum looks far less accurate than it
    is.  Exact fields report scale 1.0.
    """
    return h_explicit_degrees([n], values, field)[0]


def _gap_products(values: Sequence, field: ScalarField, previous=None) -> list:
    """prod_{i != j} (a_j - a_i) for each j, once the nodes pass the
    distinctness guard; previous, when given, holds those of a leading
    part of values.  Each node's product is grown by the nodes after it,
    one new gap each: the factors come in the order i = 0, 1, ..., so a
    grown float product has the bits of one formed from scratch."""
    pairwise_distinct_guard(values, field)
    products = previous or [field.one]
    for m in range(len(products), len(values)):
        new = values[m]
        last = field.one
        for ai in values[:m]:
            last = last * (new - ai)
        products = [p * (aj - new) for p, aj in zip(products, values)] + [last]
    return products


def _h_value(n: int, values: Sequence, products, field: ScalarField):
    """h_n(a_0..a_k) over a float field, and its summands a_j^(n+k) /
    prod_j; products is None for a single node, whose power is the value."""
    if products is None:
        value = _checked_power(values[0], n)
        return value, [value]
    k = len(values) - 1
    terms = [_div_gap_product(field, _checked_power(aj, n + k), products[j])
             for j, aj in enumerate(values)]
    total = field.zero
    for term in terms:
        total = total + term
    return total, terms


def h_explicit_degrees(degrees: Sequence[int], values: Sequence,
                       field: ScalarField, products=None) -> list[tuple]:
    """h_explicit_scaled at each degree n of the list: one (h_n(values),
    scale) per degree, in order.

    The gap products prod_{i != j} (a_j - a_i) do not depend on n and are
    formed once for all degrees, or passed in as products by a caller that
    formed them (guard included).  Over an exact field their reciprocals
    are written over one common multiple L of the products
    (``ScalarField.reciprocals``), as c_j / L.  The weights c_j a_j^(n+k)
    are carried from degree to degree, so a degree costs one product by a
    power of a_j per node, the ring sum of the weights and one division by
    L.  A float degree keeps the order a_j^(n+k) / prod_j of a
    single-degree sum, bit for bit.
    """
    if any(n < 0 for n in degrees):
        raise DomainError("h needs n >= 0")
    k = len(values) - 1
    if k < 0:
        return [((field.one if n == 0 else field.zero), 1.0) for n in degrees]
    if k and products is None:
        products = _gap_products(values, field)
    if not field.exact:
        results = []
        for n in degrees:
            value, terms = _h_value(n, values, products, field)
            results.append((value, max(1.0, *(abs(t) for t in terms))))
        return results
    if k == 0:
        return [(_checked_power(values[0], n), 1.0) for n in degrees]
    coefficients, common = field.reciprocals(products)
    # the weights c_j a_j^reached, raised from degree to degree
    weights, reached = coefficients, 0
    results = []
    for n in degrees:
        if n + k < reached:
            weights, reached = coefficients, 0
        step, reached = n + k - reached, n + k
        weights = [w * _checked_power(aj, step) for w, aj in zip(weights, values)]
        results.append((_div_gap_product(field, sum(weights, field.zero), common), 1.0))
    return results


def h_explicit_rows(N: int, seq: ValueSequence) -> list[list]:
    """Rows 0..N of h_{n-k}(a_0..a_k) by the Lagrange sum.

    Column k's gap products are formed once, from column k-1's and the
    gaps to the new node a_k.  An exact column is one h_explicit_degrees
    call over its degrees 0..N-k.  A float triangle is built row by row,
    and column k's nodes, guard and products are formed at its first
    entry (k, k): a refusal is then the one the per-entry route meets
    first in (n, k) order.
    """
    field = seq.field
    if field.exact:
        rows = [[None] * (n + 1) for n in range(N + 1)]
        products = None
        for k in range(N + 1):
            nodes = seq.window(0, k)
            if k:
                products = _gap_products(nodes, field, products)
            column = h_explicit_degrees(range(N - k + 1), nodes, field, products)
            for n, (value, _) in enumerate(column, k):
                rows[n][k] = value
        return rows
    columns = []
    rows = []
    for n in range(N + 1):
        row = [_h_value(n - k, *columns[k], field)[0] for k in range(n)]
        nodes = seq.window(0, n)
        products = _gap_products(nodes, field, columns[-1][1]) if n else None
        columns.append((nodes, products))
        row.append(_h_value(0, *columns[n], field)[0])
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# connection coefficients
# ---------------------------------------------------------------------------

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


def connection_recurrence(c0, cs: Sequence, seq: ValueSequence) -> list[list]:
    """Rows C_{n,k} expanding c_0 prod_{i=1}^n (z - c_i) in the a-basis.

    C_{0,0} = c_0 and C_{n+1,k} = C_{n,k-1} + (a_k - c_{n+1}) C_{n,k}.
    """
    return _grow_rows(len(cs), c0, seq.field.zero, lambda n, k, x: x,
                      lambda n, k, x: (seq[k] - cs[n]) * x)


def _connection_factors(seq: ValueSequence, cs: Sequence):
    """The two products of the Lagrange summand for C_{n,k}, as functions:
    numerator(n, j) = prod_{i<n} (a_j - c_i) and denominator(k, j) =
    prod_{i<=k, i != j} (a_j - a_i), each formed in that order.  A table
    wraps them in a cache, so each is formed once per (n, j) or (k, j)."""
    one = seq.field.one

    def numerator(n, j):
        aj, num = seq[j], one
        for i in range(n):
            num = num * (aj - cs[i])
        return num

    def denominator(k, j):
        aj, denom = seq[j], one
        for i in range(k + 1):
            if i != j:
                denom = denom * (aj - seq[i])
        return denom

    return numerator, denominator


def _connection_sum(c0, seq: ValueSequence, n: int, k: int,
                    numerator, denominator):
    """C_{n,k} = c0 sum_j numerator(n, j) / denominator(k, j) over the
    nodes a_0..a_k, and its summands (before the factor c0); the caller
    guards the nodes first.  Over an exact field the numerators are summed
    over one common multiple of the denominators and divided once, and no
    summands are returned."""
    field = seq.field
    if field.exact:
        return c0 * field.quotient_sum(
            [numerator(n, j) for j in range(k + 1)],
            [denominator(k, j) for j in range(k + 1)]), ()
    terms = [_div_gap_product(field, numerator(n, j), denominator(k, j))
             for j in range(k + 1)]
    total = field.zero
    for term in terms:
        total = total + term
    return c0 * total, terms


def connection_explicit_scaled(c0, cs: Sequence, seq: ValueSequence,
                               n: int, k: int):
    """Single coefficient C_{n,k} by the Lagrange-interpolation formula,
    plus its conditioning scale.

    Same cancellation story as h_explicit_scaled, with one extra twist:
    a c-node close to an a-node shrinks a numerator factor against a
    denominator factor, which keeps the summand small while both gaps
    carry amplified rounding.  The scale therefore multiplies the
    largest summand by the worst relative gap met in either product;
    an exactly coincident pair contributes a clean zero and is skipped.
    """
    if not 0 <= k <= n:
        raise DomainError("connection coefficient needs 0 <= k <= n")
    if len(cs) < n:
        raise DomainError(f"need n = {n} interior nodes, got {len(cs)}")
    nodes = seq.window(0, k)
    pairwise_distinct_guard(nodes, seq.field)
    value, terms = _connection_sum(
        c0, seq, n, k, *_connection_factors(seq, cs))
    if seq.field.exact:
        return value, 1.0
    amp = 1.0
    for j, aj in enumerate(nodes):
        for u in nodes[:j] + nodes[j + 1:] + list(cs[:n]):
            d = abs(aj - u)
            if d > 0.0:
                amp = max(amp, max(1.0, abs(aj), abs(u)) / d)
    return value, max(1.0, *(abs(c0 * t) for t in terms)) * amp


def _divided_differences(f_values: Sequence, seq: ValueSequence, n: int):
    """The divided-difference table of f over the guarded nodes a_0..a_n,
    level by level: yields the list whose first n + 1 - level entries are
    f[a_i .. a_{i+level}], the one list rewritten in place per level."""
    if len(f_values) < n + 1:
        raise DomainError("need n + 1 function values")
    field = seq.field
    nodes = seq.window(0, n)
    pairwise_distinct_guard(nodes, field)
    table = list(f_values[: n + 1])
    yield table
    for level in range(1, n + 1):
        for i in range(n + 1 - level):
            diff = table[i + 1] - table[i]
            gap = nodes[i + level] - nodes[i]
            table[i] = field.div(diff, gap)
        yield table


def newton_oracle_scaled(f_values: Sequence, seq: ValueSequence, n: int):
    """Divided-difference triangle: Newton coefficients of f over a_0..a_n,
    plus the conditioning scale of the triangle.

    This is the brute-force oracle the structured formulas are tested
    against; it only uses subtraction and division of raw values.

    Each differencing level both cancels (a difference of nearly equal
    entries keeps none of their accuracy) and divides by a node gap, and
    the damage compounds across levels, so no single worst quotient can
    bound it.  The scale is instead a forward error bound carried
    through the table in units of the working precision: every entry
    starts charged with its own magnitude, and each level propagates

        bound' = (bound_left + bound_right + |entry'| * (|node gaps|)) / gap
                 + |entry'|

    The returned scale is the largest bound attached to any coefficient,
    so an honest residual for coefficient k is
    ``abs(err) / max(1, abs(coeff), scale)``.  Exact fields report 1.0.
    """
    coeffs = []
    scale = 1.0
    for level, table in enumerate(_divided_differences(f_values, seq, n)):
        coeffs.append(table[0])
        if seq.field.exact:
            continue
        if level == 0:
            nodes = seq.window(0, n)
            bound = [abs(t) for t in table]
            scale = max(1.0, *bound)
            continue
        for i in range(n + 1 - level):
            g = abs(nodes[i + level] - nodes[i])
            node_err = abs(nodes[i + level]) + abs(nodes[i])
            bound[i] = (
                (bound[i] + bound[i + 1]
                 + abs(table[i]) * node_err) / g
                + abs(table[i])
            )
        scale = max(scale, bound[0])
    return coeffs, scale
