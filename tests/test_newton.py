"""Newton-basis engines checked against brute-force oracles.

The complete homogeneous pieces have a definition independent of any
recurrence: sum over all degree-n monomials in the given variables.  That
enumeration (h_monomials below) is the ground truth here; the structured
routes must agree with it and with each other, exactly where the field is
exact and to tight residuals where it is numeric.
"""

import itertools
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from qelliptic.errors import DegenerateSequence, DomainError
from qelliptic.newton import (
    AffineWhitneySequence,
    _gap_products,
    ClassicalSequence,
    EllipticSequence,
    ExplicitSequence,
    QNumberSequence,
    QWhitneySequence,
    STSequence,
    connection_explicit_scaled,
    connection_recurrence,
    falling_factorial,
    h_explicit_degrees,
    h_explicit_scaled,
    h_recurrence,
    newton_oracle_scaled,
    pairwise_distinct_guard,
)
from qelliptic.scalars import (
    COMPLEX,
    EXACT_Q,
    RATIONAL,
    ExactScalar,
    q_number,
    residual,
)
from qelliptic.families import whitney_qr_rows
from qelliptic.theta import sample_elliptic_params


def h_monomials(n, values, field):
    """Ground-truth h_n: enumerate every monomial of degree n."""
    if n == 0:
        return field.one
    if not values:
        return field.zero
    total = field.zero
    for combo in itertools.combinations_with_replacement(range(len(values)), n):
        term = field.one
        for i in combo:
            term = term * values[i]
        total = total + term
    return total


def elliptic_sequence(seed, **kw):
    params = sample_elliptic_params(random.Random(seed))
    return EllipticSequence(params, **kw)


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

def test_sequence_values():
    assert ClassicalSequence()[5] == Fraction(5)
    assert ClassicalSequence()[-3] == Fraction(-3)
    assert str(QNumberSequence()[3]) == "1 + q + q^2"
    assert str(QWhitneySequence(2, 1)[2]) == "1 + q + q^2"
    assert AffineWhitneySequence(3, 2)[4] == Fraction(10)
    # (s, t) nodes with t = 1 are plain q-numbers at q = s
    s = 1.7
    seq = STSequence(1, 0, s, 1.0)
    assert abs(seq[3] - (1 + s + s * s)) < 1e-12


def test_elliptic_sequence_matches_number():
    from qelliptic.theta import elliptic_number

    params = sample_elliptic_params(random.Random(7))
    seq = EllipticSequence(params)
    for i in range(-3, 6):
        assert seq[i] == elliptic_number(i, params)
    scaled = EllipticSequence(params, scale=2, offset=-1)
    assert scaled[3] == elliptic_number(5, params)


def test_explicit_sequence_window():
    seq = ExplicitSequence([10.0, 11.0, 12.0], offset=-1)
    assert seq[-1] == 10.0
    assert seq[1] == 12.0
    with pytest.raises(IndexError):
        seq[2]
    with pytest.raises(IndexError):
        seq[-2]


def test_distinctness_guard():
    pairwise_distinct_guard([Fraction(1), Fraction(2)], RATIONAL)
    with pytest.raises(DegenerateSequence):
        pairwise_distinct_guard([Fraction(1), Fraction(1)], RATIONAL)
    field = COMPLEX
    with pytest.raises(DegenerateSequence):
        pairwise_distinct_guard([1.0 + 0j, 1.0 + 1e-12j], field)
    pairwise_distinct_guard([1.0 + 0j, 1.0001 + 0j], field)


# ---------------------------------------------------------------------------
# factorials and h
# ---------------------------------------------------------------------------

def test_falling_and_gen_factorial():
    seq = ClassicalSequence()
    # prod_{i<n} (z - i) at z = 6, n = 3: 6*5*4
    assert falling_factorial(Fraction(6), seq, 3) == Fraction(120)
    assert gen_factorial(seq, 4) == Fraction(24)
    assert gen_factorial(seq, 0) == Fraction(1)
    qseq = QNumberSequence()
    # [n]_a! = q^(n choose 2) [n]_q!
    from qelliptic.scalars import q_factorial

    for n in range(7):
        expect = ExactScalar.q_power(math.comb(n, 2)) * q_factorial(n)
        assert gen_factorial(qseq, n) == expect
    with pytest.raises(DomainError):
        falling_factorial(Fraction(1), seq, -1)


def test_h_frozen_values():
    assert h_recurrence(2, [Fraction(1), Fraction(2)], RATIONAL) == Fraction(7)
    qs = [q_number(0), q_number(1), q_number(2)]
    assert str(h_recurrence(1, qs, EXACT_Q)) == "2 + q"
    assert str(h_explicit_scaled(1, qs[1:], EXACT_Q)[0]) == "2 + q"
    assert h_recurrence(0, [], RATIONAL) == Fraction(1)
    assert h_recurrence(3, [], RATIONAL) == Fraction(0)


@given(
    st_.integers(min_value=0, max_value=5),
    st_.lists(st_.integers(min_value=-6, max_value=6), min_size=0, max_size=5),
)
@settings(max_examples=120, deadline=None)
def test_h_recurrence_matches_monomials(n, ints):
    values = [Fraction(v) for v in ints]
    got = h_recurrence(n, values, RATIONAL)
    assert got == h_monomials(n, values, RATIONAL)


def test_h_explicit_matches_monomials_exact():
    qs = [q_number(i) for i in range(5)]
    for n in range(6):
        for k in range(5):
            vals = qs[1 : k + 2]  # [1]..[k+1], distinct nonzero nodes
            assert h_explicit_scaled(n, vals, EXACT_Q)[0] == h_monomials(n, vals, EXACT_Q)


def test_h_routes_agree_rational():
    rng = random.Random(11)
    for _ in range(25):
        k = rng.randint(0, 4)
        vals = rng.sample(range(-30, 30), k + 1)
        vals = [Fraction(v, rng.randint(1, 7)) for v in vals]
        try:
            pairwise_distinct_guard(vals, RATIONAL)
        except DegenerateSequence:
            continue
        n = rng.randint(0, 5)
        assert h_recurrence(n, vals, RATIONAL) == h_explicit_scaled(n, vals, RATIONAL)[0]


def test_h_routes_agree_elliptic():
    seq = elliptic_sequence(3)
    field = seq.field
    worst = 0.0
    for k in range(5):
        vals = seq.window(1, k + 1)
        for n in range(6):
            a = h_recurrence(n, vals, field)
            b = h_explicit_scaled(n, vals, field)[0]
            worst = max(worst, residual(a, b))
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# degree lists: one set of gap products for many degrees
# ---------------------------------------------------------------------------

def lagrange_per_entry(n, values, field):
    """h_explicit_scaled for one degree as it was before degree lists:
    every term a_j^(n+k) / prod_{i != j} (a_j - a_i) formed for its own.
    An exact term need not be a ring element, so over an exact field each
    is written over one common multiple of the products, and the sum is
    divided once."""
    k = len(values) - 1
    if k < 0:
        return (field.one if n == 0 else field.zero), 1.0
    if k == 0:
        v = values[0] ** n
        return v, (1.0 if field.exact else max(1.0, abs(v)))
    denoms = []
    for j, aj in enumerate(values):
        denom = field.one
        for i, ai in enumerate(values):
            if i != j:
                denom = denom * (aj - ai)
        denoms.append(denom)
    total = field.zero
    if field.exact:
        cs, common = field.reciprocals(denoms)
        for aj, c in zip(values, cs):
            total = total + aj ** (n + k) * c
        return field.div(total, common), 1.0
    scale = 1.0
    for aj, denom in zip(values, denoms):
        term = field.div(aj ** (n + k), denom)
        scale = max(scale, abs(term))
        total = total + term
    return total, scale


def _bits(pairs):
    return [(struct.pack("<dd", v.real, v.imag), s) for v, s in pairs]


# ascending, with a gap, then a step back and a repeat: the exact path
# raises its powers from degree to degree and starts over on a step back
DEGREE_LISTS = [list(range(9)), [0, 3, 4, 9, 2, 2, 7]]


@pytest.mark.parametrize("degrees", DEGREE_LISTS)
@pytest.mark.parametrize("m,r", [(1, 0), (1, 1), (2, 1), (3, 2)])
def test_h_explicit_degree_list_equals_one_call_per_degree_exact_q(degrees, m, r):
    for k in range(6):
        nodes = [q_number(m * i + r) for i in range(k + 1)]
        got = h_explicit_degrees(degrees, nodes, EXACT_Q)
        assert got == [h_explicit_scaled(n, nodes, EXACT_Q) for n in degrees]
        assert got == [(h_recurrence(n, nodes, EXACT_Q), 1.0) for n in degrees]


@pytest.mark.parametrize("degrees", DEGREE_LISTS)
def test_h_explicit_degree_list_equals_one_call_per_degree_rational(degrees):
    # non-integer nodes, so the reciprocals of the gap products have
    # numerators and denominators other than 1 on both sides
    rng = random.Random(5)
    for _ in range(20):
        k = rng.randint(0, 5)
        nums = rng.sample(range(-40, 40), k + 1)
        nodes = [Fraction(v, rng.choice([1, 2, 3, 4, 6, 9])) for v in nums]
        try:
            pairwise_distinct_guard(nodes, RATIONAL)
        except DegenerateSequence:
            continue
        got = h_explicit_degrees(degrees, nodes, RATIONAL)
        assert got == [h_explicit_scaled(n, nodes, RATIONAL) for n in degrees]
        assert got == [lagrange_per_entry(n, nodes, RATIONAL) for n in degrees]
        assert got == [(h_recurrence(n, nodes, RATIONAL), 1.0) for n in degrees]


@pytest.mark.parametrize("degrees", DEGREE_LISTS)
def test_h_explicit_degree_list_is_bit_identical_numeric(degrees):
    # float degrees keep the per-entry order of operations, value and scale
    for seed in range(4):
        rng = random.Random(seed)
        st = STSequence(2, 1, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        ell = elliptic_sequence(seed, scale=2, offset=1)
        for seq in (st, ell):
            for k in range(6):
                nodes = seq.window(0, k)
                got = h_explicit_degrees(degrees, nodes, seq.field)
                assert _bits(got) == _bits(
                    [h_explicit_scaled(n, nodes, seq.field) for n in degrees])
                assert _bits(got) == _bits(
                    [lagrange_per_entry(n, nodes, seq.field) for n in degrees])


@pytest.mark.parametrize("m,r", [(1, 0), (1, 1), (2, 1), (3, 2)])
def test_whitney_explicit_rows_equal_the_per_entry_lagrange_loop(m, r):
    N = 12
    rows = whitney_qr_rows(N, m, r, "explicit")
    for n in range(N + 1):
        assert len(rows[n]) == n + 1
        for k in range(n + 1):
            nodes = [q_number(m * i + r) for i in range(k + 1)]
            assert rows[n][k] == lagrange_per_entry(n - k, nodes, EXACT_Q)[0], (n, k)


def test_h_explicit_degrees_checks_every_degree():
    nodes = [q_number(1), q_number(2)]
    assert h_explicit_degrees([], nodes, EXACT_Q) == []
    with pytest.raises(DomainError):
        h_explicit_degrees([2, -1], nodes, EXACT_Q)


def test_h_explicit_guard_trips():
    vals = [1.0 + 0j, 1.0 + 1e-13j, 2.0 + 0j]
    with pytest.raises(DegenerateSequence):
        h_explicit_scaled(2, vals, COMPLEX)


# ---------------------------------------------------------------------------
# connection coefficients
# ---------------------------------------------------------------------------

def qnum_list(ints):
    return [q_number(z) for z in ints]


def test_connection_triple_route_exact():
    """Recurrence, Lagrange sum, and divided differences give one table."""
    seq = QNumberSequence()
    c0 = ExactScalar.from_int(1)
    cs = qnum_list([2, 5, -1, 3, 0])
    rows = connection_recurrence(c0, cs, seq)
    for n in range(len(cs) + 1):
        # Newton coefficients of p(z) = c0 prod_{i<=n} (z - c_i)
        fvals = []
        for m in range(n + 1):
            p = c0
            for i in range(n):
                p = p * (seq[m] - cs[i])
            fvals.append(p)
        oracle = newton_oracle_scaled(fvals, seq, n)[0]
        for k in range(n + 1):
            assert rows[n][k] == oracle[k]
            assert rows[n][k] == connection_explicit_scaled(c0, cs, seq, n, k)[0]


def test_connection_classical_stirling():
    # expanding z^n (all c_i = 0) over nodes a_i = i gives the subset-count
    # triangle: row 4 is 0, 1, 7, 6, 1
    seq = ClassicalSequence()
    rows = connection_recurrence(Fraction(1), [Fraction(0)] * 4, seq)
    assert rows[4] == [Fraction(0), Fraction(1), Fraction(7), Fraction(6), Fraction(1)]


def test_connection_numeric_routes():
    seq = elliptic_sequence(9)
    field = seq.field
    cs = [EllipticSequence(seq.params, offset=-2)[i] for i in range(5)]
    rows = connection_recurrence(field.one, cs, seq)
    worst = 0.0
    for n in range(6):
        for k in range(n + 1):
            e = connection_explicit_scaled(field.one, cs, seq, n, k)[0]
            worst = max(worst, residual(rows[n][k], e))
    assert worst <= 1e-9


def test_connection_explicit_domain():
    seq = ClassicalSequence()
    with pytest.raises(DomainError):
        connection_explicit_scaled(Fraction(1), [Fraction(0)], seq, 3, 1)


def _fresh_gap_products(values, field):
    products = []
    for j, aj in enumerate(values):
        denom = field.one
        for i, ai in enumerate(values):
            if i != j:
                denom = denom * (aj - ai)
        products.append(denom)
    return products


@pytest.mark.parametrize("seq", [EllipticSequence(sample_elliptic_params(random.Random(3))),
                                 QNumberSequence(), ClassicalSequence()],
                         ids=["elliptic", "q-numbers", "classical"])
def test_grown_gap_products_equal_fresh_ones(seq):
    # column k's products grown from column k-1's: the same factors in the
    # same order, so the same bits over floats
    grown = None
    for k in range(1, 9):
        nodes = seq.window(0, k)
        grown = _gap_products(nodes, seq.field, grown)
        fresh = _fresh_gap_products(nodes, seq.field)
        if seq.field.exact:
            assert grown == fresh
        else:
            assert _bits((v, 0) for v in grown) == _bits((v, 0) for v in fresh)
        assert _gap_products(nodes, seq.field) == grown


def test_newton_oracle_reconstructs():
    # coefficients recovered from values must rebuild the function: values
    # of a polynomial with integer coefficients, whose divided differences
    # over q-numbers are Laurent polynomials
    seq = QNumberSequence()
    rng = random.Random(2)
    poly = [rng.randint(-9, 9) for _ in range(6)]
    fvals = [sum((c * seq[m] ** e for e, c in enumerate(poly)), EXACT_Q.zero)
             for m in range(6)]
    coeffs = newton_oracle_scaled(fvals, seq, 5)[0]
    for m in range(6):
        acc = EXACT_Q.zero
        for k in range(6):
            acc = acc + coeffs[k] * falling_factorial(seq[m], seq, k)
        assert acc == fvals[m]
    # arbitrary values have divided differences that are rational
    # functions of q, which EXACT_Q does not hold
    with pytest.raises(ArithmeticError):
        newton_oracle_scaled([ExactScalar.from_int(v) for v in (0, 0, 0, 1)], seq, 3)


# ---------------------------------------------------------------------------
# the difference operator
# ---------------------------------------------------------------------------

def gen_factorial(seq, n):
    """a_n! = prod_{i<n} (a_n - a_i), the generalized factorial."""
    return falling_factorial(seq[n], seq, n)


def difference_operator_recursive(j, f, seq):
    """The j-th generalized difference of f at z = 0, x = a, built from its
    defining recursion

        Delta^(m+1) = E o Delta^m
                      - (prod_{i<m} (x_{m+1} - x_{i+1}) / (x_m - x_i)) Delta^m,

    where E shifts z and every node index by one.  f is called as
    f(z, offset) and reads the shifted node x_i as seq[offset + i].  The
    nodes read are a_0..a_j.  Exponential in j; fine for the small orders
    used here.
    """
    field = seq.field

    def make(level, inner):
        def step(z, offset):
            shifted = inner(z + 1, offset + 1)
            mult = field.one
            for i in range(level):
                mult = mult * field.div(seq[offset + level + 1] - seq[offset + i + 1],
                                        seq[offset + level] - seq[offset + i])
            return shifted - mult * inner(z, offset)

        return step

    g = f
    for m in range(j):
        g = make(m, g)
    return g(0, 0)


# distinct rationals with several denominators, for the rational nodes
RATIONAL_NODES = [Fraction(1, 2), Fraction(-3), Fraction(5, 3), Fraction(2, 7),
                  Fraction(-9, 4), Fraction(4), Fraction(-1, 5), Fraction(11, 6)]

SEQ_FACTORIES = [
    lambda: ClassicalSequence(),
    lambda: QNumberSequence(),
    lambda: AffineWhitneySequence(2, 1),
    lambda: elliptic_sequence(13),
    lambda: ExplicitSequence(RATIONAL_NODES, field=RATIONAL),
]


@pytest.mark.parametrize("factory", SEQ_FACTORIES)
def test_delta_kills_lower_factorials(factory):
    # the oracle itself: Delta^j of the k-th falling factorial is a_j! at
    # j = k and 0 otherwise
    seq = factory()
    field = seq.field
    for j in range(5):
        for k in range(5):
            def f(z, offset, k=k):
                return falling_factorial(seq[z], seq, k)

            got = difference_operator_recursive(j, f, seq)
            expect = gen_factorial(seq, j) if j == k else field.zero
            if field.exact:
                assert got == expect
            else:
                assert residual(got, expect) <= 1e-9


@pytest.mark.parametrize("factory", SEQ_FACTORIES)
def test_delta_power_gives_h(factory):
    # Delta^k z^n / a_k! = h_{n-k}(a_0..a_k): by the recurrence, and over
    # exact nodes by the Lagrange sums of h_explicit_degrees, exactly
    seq = factory()
    field = seq.field
    for n in range(8):
        for k in range(n + 1):
            def f(z, offset, n=n):
                return seq[z] ** n

            got = difference_operator_recursive(k, f, seq)
            nodes = seq.window(0, k)
            expect = h_recurrence(n - k, nodes, field) * gen_factorial(seq, k)
            if field.exact:
                assert got == expect
                if n <= 6:
                    [(h, _)] = h_explicit_degrees([n - k], nodes, field)
                    assert field.div(got, gen_factorial(seq, k)) == h, (n, k)
            else:
                assert residual(got, expect) <= 1e-8


def test_power_expands_in_newton_basis_exact():
    # z^n = sum_k h_{n-k}(a_0..a_k) prod_{i<k} (z - a_i), checked at enough
    # points to pin the degree-n polynomial
    seq = QNumberSequence()
    for n in range(9):
        for m in range(n + 1):
            z = seq[m + 3]
            acc = EXACT_Q.zero
            for k in range(n + 1):
                acc = acc + h_recurrence(n - k, seq.window(0, k), EXACT_Q) * \
                    falling_factorial(z, seq, k)
            assert acc == z ** n


def test_power_expands_in_newton_basis_numeric():
    seq = elliptic_sequence(21)
    field = seq.field
    rng = random.Random(21)
    worst = 0.0
    for n in range(7):
        for _ in range(4):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            acc = field.zero
            terms = []
            for k in range(n + 1):
                t = h_recurrence(n - k, seq.window(0, k), field) * \
                    falling_factorial(z, seq, k)
                terms.append(t)
                acc = acc + t
            worst = max(worst, residual(acc, z ** n, *terms))
    assert worst <= 1e-9
