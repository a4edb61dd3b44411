"""Newton bases over arbitrary node sequences.

Given a sequence a = (a_i) of scalars, the Newton basis consists of the
generalized falling factorials prod_{i<k} (z - a_i).  This module provides
the node sequences themselves (classical integers, q-numbers, elliptic
numbers, affine and q-deformed Whitney nodes, (s,t)-nodes, or explicit
windows), the complete homogeneous pieces h_n(a_0, ..., a_k) that expand
powers of z in that basis, generalized binomial coefficients, connection
coefficients between two node sequences, and the divided-difference oracle
that recovers all of them from raw function values.

Engines are generic over a ScalarField, so the same code runs exactly (over
rational functions of q, or plain rationals) and numerically (complex).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import DegenerateSequence, DomainError
from .scalars import (
    EXACT_Q,
    RATIONAL,
    ScalarField,
    Tolerance,
    _checked_power,
    complex_field,
    q_number,
    q_number_numeric,
    st_number,
)
from .theta import EllipticParams, elliptic_number_shifted

__all__ = [
    "DISTINCTNESS_REL",
    "ValueSequence",
    "ClassicalSequence",
    "QNumberSequence",
    "QNumberNumericSequence",
    "AffineWhitneySequence",
    "QWhitneySequence",
    "STSequence",
    "EllipticSequence",
    "ExplicitSequence",
    "pairwise_distinct_guard",
    "falling_factorial",
    "gen_factorial",
    "h_recurrence",
    "h_explicit",
    "h_explicit_scaled",
    "h_explicit_degrees",
    "a_binomial",
    "a_binomial_recurrence",
    "connection_recurrence",
    "connection_explicit",
    "connection_explicit_scaled",
    "newton_oracle",
    "newton_oracle_scaled",
    "difference_operator",
    "difference_operator_recursive",
]

DISTINCTNESS_REL = 1e-8


class ValueSequence:
    """A doubly infinite sequence of nodes a_i, total on the integers.

    Subclasses fill in `field` and `_value`.  Values are memoized per
    instance; they never depend on cache state, so concurrent reads are
    safe.  `shift(j)` is the view with index origin moved by j, used by the
    shift operators E_a and E_{z,x}.
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

    def shift(self, j: int) -> "ValueSequence":
        if j == 0:
            return self
        return _ShiftedSequence(self, j)

    def window(self, lo: int, hi: int) -> list:
        return [self[i] for i in range(lo, hi + 1)]


class _ShiftedSequence(ValueSequence):
    def __init__(self, base: ValueSequence, offset: int):
        self.base = base
        self.offset = offset
        self.field = base.field

    def __getitem__(self, i: int):
        return self.base[i + self.offset]

    def shift(self, j: int) -> ValueSequence:
        if self.offset + j == 0:
            return self.base
        return _ShiftedSequence(self.base, self.offset + j)


class ClassicalSequence(ValueSequence):
    """a_i = i, exact rationals by default."""

    def __init__(self, field: ScalarField = RATIONAL):
        super().__init__()
        self.field = field

    def _value(self, i: int):
        return self.field.from_int(i)


class QNumberSequence(ValueSequence):
    """a_i = [i]_q over the exact rational-function field."""

    field = EXACT_Q

    def _value(self, i: int):
        return q_number(i)


class QNumberNumericSequence(ValueSequence):
    """a_i = [i]_q at a numeric q."""

    def __init__(self, q: complex, tol: Tolerance = Tolerance()):
        super().__init__()
        self.q = q
        self.field = complex_field(tol)

    def _value(self, i: int):
        return q_number_numeric(i, self.q)


class AffineWhitneySequence(ValueSequence):
    """a_i = m*i - r, exact rationals by default."""

    def __init__(self, m: int, r: int, field: ScalarField = RATIONAL):
        super().__init__()
        self.m = m
        self.r = r
        self.field = field

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

    def __init__(self, m: int, r: int, s: complex, t: complex,
                 tol: Tolerance = Tolerance()):
        super().__init__()
        self.m = m
        self.r = r
        self.s = s
        self.t = t
        self.field = complex_field(tol)

    def _value(self, i: int):
        return st_number(self.m * i + self.r, self.s, self.t)


class EllipticSequence(ValueSequence):
    """a_i = [scale*i + offset] over elliptic numbers, numeric.

    The optional base shift moves (a, b) to (a q^alpha, b q^beta) for every
    node; scale and offset give the affine index maps the r-Whitney
    variants need.
    """

    def __init__(self, params: EllipticParams, scale: int = 1, offset: int = 0,
                 shift: tuple[int, int] = (0, 0), tol: Tolerance = Tolerance()):
        super().__init__()
        self.params = params
        self.scale = scale
        self.offset = offset
        self.base_shift = shift
        self.field = complex_field(tol)

    def _value(self, i: int):
        return elliptic_number_shifted(
            self.scale * i + self.offset, self.base_shift, self.params
        )


class ExplicitSequence(ValueSequence):
    """A finite window of values; access outside the window is an error."""

    def __init__(self, values: Sequence, offset: int = 0,
                 field: ScalarField | None = None):
        super().__init__()
        self.values = list(values)
        self.offset = offset
        if field is None:
            field = complex_field()
        self.field = field

    def _value(self, i: int):
        j = i - self.offset
        if not 0 <= j < len(self.values):
            raise IndexError(
                f"index {i} outside explicit window "
                f"[{self.offset}, {self.offset + len(self.values) - 1}]"
            )
        return self.values[j]


# numeric node windows that passed the guard, keyed on (rel, *values); the
# explicit and oracle routes guard the same window once per table entry,
# so a table scans each distinct window once.  Only acceptances are kept,
# so a refusal is re-derived, message and all, on every call.
_ACCEPTED_WINDOWS: dict[tuple, None] = {}
_ACCEPTED_WINDOWS_MAX = 256


def pairwise_distinct_guard(values: Sequence, field: ScalarField,
                            rel: float = DISTINCTNESS_REL) -> None:
    """Reject node lists with coincident entries.

    Exact fields compare structurally; numeric ones require
    |a_i - a_j| >= rel * max(1, |a_i|, |a_j|).
    """
    if field.exact:
        n = len(values)
        for i in range(n):
            for j in range(i + 1, n):
                if field.eq(values[i], values[j]):
                    raise DegenerateSequence(
                        f"coincident nodes at positions {i} and {j}"
                    )
        return
    # the scan's outcome depends only on the values up to ==, so a window
    # equal to an accepted one (0.0 and -0.0 included) is accepted too
    key = (rel, *values)
    if key in _ACCEPTED_WINDOWS:
        return
    _numeric_pair_scan(values, rel)
    if len(_ACCEPTED_WINDOWS) >= _ACCEPTED_WINDOWS_MAX:
        _ACCEPTED_WINDOWS.clear()
    _ACCEPTED_WINDOWS[key] = None


def _numeric_pair_scan(values: Sequence, rel: float) -> None:
    n = len(values)
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(values[i] - values[j])
            scale = max(1.0, abs(values[i]), abs(values[j]))
            if gap < rel * scale:
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


def gen_factorial(seq: ValueSequence, n: int):
    """a_n! = prod_{i=0}^{n-1} (a_n - a_i), the generalized factorial."""
    return falling_factorial(seq[n], seq, n)


def h_recurrence(n: int, values: Sequence, field: ScalarField):
    """Complete homogeneous h_n(values) by the prefix recurrence

    h_n(a_0..a_k) = h_n(a_0..a_{k-1}) + a_k h_{n-1}(a_0..a_k).
    """
    if n < 0:
        raise DomainError("h needs n >= 0")
    if not values:
        return field.one if n == 0 else field.zero
    k = len(values) - 1
    prev = [field.one] * (k + 1)
    for _ in range(n):
        cur = [None] * (k + 1)
        cur[0] = values[0] * prev[0]
        for j in range(1, k + 1):
            cur[j] = cur[j - 1] + values[j] * prev[j]
        prev = cur
    return prev[k]


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


def h_explicit(n: int, values: Sequence, field: ScalarField):
    """h_n(values) as the Lagrange-style sum over the nodes.

    h_n(a_0..a_k) = sum_j a_j^(n+k) / prod_{i != j} (a_j - a_i); the nodes
    must be pairwise distinct.
    """
    return h_explicit_scaled(n, values, field)[0]


def h_explicit_scaled(n: int, values: Sequence, field: ScalarField):
    """h_explicit together with its largest summand magnitude.

    Nodes that cluster (q-numbers and elliptic numbers do, geometrically)
    make the Lagrange sum cancel: summands of size 1/prod(gaps) add up to
    an O(1) value.  The returned scale is the right yardstick for relative
    error; against the value alone the sum looks far less accurate than it
    is.  Exact fields report scale 1.0.
    """
    return h_explicit_degrees([n], values, field)[0]


def h_explicit_degrees(degrees: Sequence[int], values: Sequence,
                       field: ScalarField) -> list[tuple]:
    """h_explicit_scaled at each degree n of the list: one (h_n(values),
    scale) per degree, in order.

    The gap products prod_{i != j} (a_j - a_i) do not depend on n and are
    formed once for all degrees.  Over an exact field their reciprocals
    are written over one common denominator L, the lcm of the products
    (``ScalarField.reciprocals``), as c_j / L; a degree then costs the
    ring sum sum_j a_j^(n+k) c_j and one division by L.  Exact results are
    canonical, so they equal the term-by-term quotients.  A float degree
    keeps the order a_j^(n+k) / prod_j of a single-degree sum, bit for bit.
    """
    if any(n < 0 for n in degrees):
        raise DomainError("h needs n >= 0")
    k = len(values) - 1
    if k < 0:
        return [((field.one if n == 0 else field.zero), 1.0) for n in degrees]
    if k == 0:
        powers = [_checked_power(values[0], n) for n in degrees]
        return [(v, 1.0 if field.exact else max(1.0, abs(v))) for v in powers]
    pairwise_distinct_guard(values, field)
    products = []
    for j, aj in enumerate(values):
        denom = field.one
        for i, ai in enumerate(values):
            if i != j:
                denom = denom * (aj - ai)
        products.append(denom)
    if field.exact:
        coefficients, common = field.reciprocals(products)
        # a_j^reached for every j, raised from degree to degree
        powers, reached = [field.one] * (k + 1), 0
    results = []
    for n in degrees:
        total = field.zero
        scale = 1.0
        if field.exact:
            if n + k < reached:
                powers, reached = [field.one] * (k + 1), 0
            step, reached = n + k - reached, n + k
        for j, aj in enumerate(values):
            if field.exact:
                powers[j] = powers[j] * _checked_power(aj, step)
                term = powers[j] * coefficients[j]
            else:
                term = _div_gap_product(
                    field, _checked_power(aj, n + k), products[j])
                scale = max(scale, abs(term))
            total = total + term
        if field.exact:
            total = _div_gap_product(field, total, common)
        results.append((total, scale))
    return results


def a_binomial(n: int, k: int, seq: ValueSequence):
    """Generalized binomial coefficient over the node sequence,

    (-1)^(n-k) a_n! / prod_{i != k, 0 <= i <= n} (a_k - a_i).
    """
    if not 0 <= k <= n:
        raise DomainError("a-binomial needs 0 <= k <= n")
    field = seq.field
    nodes = seq.window(0, n)
    pairwise_distinct_guard(nodes, field)
    denom = field.one
    for i in range(n + 1):
        if i != k:
            denom = denom * (nodes[k] - nodes[i])
    sign = field.from_int((-1) ** (n - k))
    return sign * _div_gap_product(field, gen_factorial(seq, n), denom)


def a_binomial_recurrence(n: int, k: int, seq: ValueSequence):
    """The same coefficient built from its Pascal-type recurrence.

    B(n+1, k) = prod_{j=0}^{n-1} [(a_{n+1} - a_{j+1}) / (a_n - a_j)] B(n, k)
              + B'(n, k-1)

    where B' is the coefficient over the once-shifted node sequence.  Each
    drop in k raises the shift by one, so column k of the triangle lives
    over seq.shift(K - k) and the target entry needs shift zero.
    """
    if not 0 <= k <= n:
        raise DomainError("a-binomial needs 0 <= k <= n")
    field = seq.field

    def multiplier(row: int, shift: int):
        mult = field.one
        for j in range(row):
            num = seq[shift + row + 1] - seq[shift + j + 1]
            den = seq[shift + row] - seq[shift + j]
            mult = mult * field.div(num, den)
        return mult

    prev = [field.one]
    for row in range(n):
        width = min(row + 1, k)
        cur = []
        for col in range(width + 1):
            acc = field.zero
            if col < len(prev):
                acc = acc + multiplier(row, k - col) * prev[col]
            if 1 <= col and col - 1 < len(prev):
                acc = acc + prev[col - 1]
            cur.append(acc)
        prev = cur
    return prev[k]


# ---------------------------------------------------------------------------
# connection coefficients
# ---------------------------------------------------------------------------

def connection_recurrence(c0, cs: Sequence, seq: ValueSequence) -> list[list]:
    """Rows C_{n,k} expanding c_0 prod_{i=1}^n (z - c_i) in the a-basis.

    C_{0,0} = c_0 and C_{n+1,k} = C_{n,k-1} + (a_k - c_{n+1}) C_{n,k}.
    """
    field = seq.field
    rows = [[c0]]
    for n in range(len(cs)):
        cnext = cs[n]
        prev = rows[-1]
        row = []
        for k in range(n + 2):
            acc = field.zero
            if 1 <= k:
                acc = acc + prev[k - 1]
            if k <= n:
                acc = acc + (seq[k] - cnext) * prev[k]
            row.append(acc)
        rows.append(row)
    return rows


def connection_explicit(c0, cs: Sequence, seq: ValueSequence, n: int, k: int):
    """Single coefficient C_{n,k} by the Lagrange-interpolation formula."""
    return connection_explicit_scaled(c0, cs, seq, n, k)[0]


def connection_explicit_scaled(c0, cs: Sequence, seq: ValueSequence,
                               n: int, k: int):
    """connection_explicit plus its conditioning scale.

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
    field = seq.field
    nodes = seq.window(0, k)
    pairwise_distinct_guard(nodes, field)
    total = field.zero
    largest = 1.0
    amp = 1.0

    def bump(u, v):
        nonlocal amp
        d = abs(u - v)
        if d > 0.0:
            amp = max(amp, max(1.0, abs(u), abs(v)) / d)

    for j in range(k + 1):
        denom = field.one
        for i in range(k + 1):
            if i != j:
                denom = denom * (nodes[j] - nodes[i])
                if not field.exact:
                    bump(nodes[j], nodes[i])
        num = field.one
        for i in range(n):
            num = num * (nodes[j] - cs[i])
            if not field.exact:
                bump(nodes[j], cs[i])
        term = _div_gap_product(field, num, denom)
        if not field.exact:
            largest = max(largest, abs(c0 * term))
        total = total + term
    return c0 * total, largest * amp


def newton_oracle(f_values: Sequence, seq: ValueSequence, n: int) -> list:
    """Divided-difference triangle: Newton coefficients of f over a_0..a_n.

    This is the brute-force oracle the structured formulas are tested
    against; it only uses subtraction and division of raw values.
    """
    return newton_oracle_scaled(f_values, seq, n)[0]


def newton_oracle_scaled(f_values: Sequence, seq: ValueSequence, n: int):
    """newton_oracle plus the conditioning scale of its triangle.

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
    if len(f_values) < n + 1:
        raise DomainError("need n + 1 function values")
    field = seq.field
    nodes = seq.window(0, n)
    pairwise_distinct_guard(nodes, field)
    table = list(f_values[: n + 1])
    numeric = not field.exact
    bound = [abs(t) for t in table] if numeric else []
    scale = max(1.0, *bound) if numeric else 1.0
    coeffs = [table[0]]
    for level in range(1, n + 1):
        for i in range(n + 1 - level):
            diff = table[i + 1] - table[i]
            gap = nodes[i + level] - nodes[i]
            table[i] = field.div(diff, gap)
            if numeric:
                g = abs(gap)
                node_err = abs(nodes[i + level]) + abs(nodes[i])
                bound[i] = (
                    (bound[i] + bound[i + 1]
                     + abs(table[i]) * node_err) / g
                    + abs(table[i])
                )
        coeffs.append(table[0])
        if numeric:
            scale = max(scale, bound[0])
    return coeffs, scale


# ---------------------------------------------------------------------------
# the generalized difference operator
# ---------------------------------------------------------------------------

def difference_operator(j: int, f: Callable[[int, ValueSequence], object],
                        seq: ValueSequence):
    """Apply the j-th generalized difference to f and specialize x_i = a_i, z = 0.

    Uses the closed expansion: the operator equals

        sum_{k=0}^{j}  x_j! / prod_{i != k} (x_k - x_i) * E_{z,x}^k

    where E_{z,x} shifts z by one and every sequence index by one.  f is
    called as f(z, x) with x the shifted node view; it may ignore x.
    """
    if j < 0:
        raise DomainError("operator order must be >= 0")
    field = seq.field
    nodes = seq.window(0, j)
    pairwise_distinct_guard(nodes, field)
    fac = gen_factorial(seq, j)
    total = field.zero
    for k in range(j + 1):
        denom = field.one
        for i in range(j + 1):
            if i != k:
                denom = denom * (nodes[k] - nodes[i])
        total = total + field.div(fac, denom) * f(k, seq.shift(k))
    return total


def difference_operator_recursive(j: int,
                                  f: Callable[[int, ValueSequence], object],
                                  seq: ValueSequence):
    """The same operator built from its defining recursion (test oracle).

    Delta^(m+1) = E o Delta^m - (prod_{i=0}^{m-1} (x_{m+1} - x_{i+1})
    / (x_m - x_i)) Delta^m, evaluated at z = 0, x = a.  Exponential in j;
    fine for the small orders the tests use.
    """
    field = seq.field
    g = f

    def make(level, inner):
        def step(z, x):
            shifted = inner(z + 1, x.shift(1))
            mult = field.one
            for i in range(level):
                mult = mult * field.div(x[level + 1] - x[i + 1], x[level] - x[i])
            return shifted - mult * inner(z, x)

        return step

    for m in range(j):
        g = make(m, g)
    return g(0, seq)
