"""Exact scalar layer: ring axioms, canonical printing, q-objects."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qelliptic import intpoly
from qelliptic.errors import DegenerateParameters, DomainError
from qelliptic.scalars import (
    COMPLEX,
    EXACT_Q,
    RATIONAL,
    ExactScalar,
    LaurentPoly,
    q_binomial,
    q_factorial,
    q_number,
    st_number,
)

# wide enough that products land on both sides of the schoolbook cutoff and
# at every digit width of the Kronecker packing (1, 2, 4, 8 and more bytes)
coeff_dicts = st.dictionaries(
    st.integers(min_value=-30, max_value=30),
    st.one_of(
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-(2**90), max_value=2**90),
    ),
    max_size=40,
)


def random_exact(rng: random.Random) -> ExactScalar:
    return ExactScalar.from_poly(LaurentPoly(
        {rng.randint(-4, 4): rng.randint(-9, 9) for _ in range(rng.randint(1, 4))}))


# -- Laurent polynomial ring ----------------------------------------------


@given(coeff_dicts, coeff_dicts)
def test_poly_add_commutes(c1, c2):
    a, b = LaurentPoly(c1), LaurentPoly(c2)
    assert a + b == b + a


@given(coeff_dicts, coeff_dicts)
def test_poly_mul_commutes(c1, c2):
    a, b = LaurentPoly(c1), LaurentPoly(c2)
    assert a * b == b * a


@given(coeff_dicts, coeff_dicts, coeff_dicts)
@settings(max_examples=50)
def test_poly_mul_distributes(c1, c2, c3):
    a, b, c = LaurentPoly(c1), LaurentPoly(c2), LaurentPoly(c3)
    assert a * (b + c) == a * b + a * c


@given(coeff_dicts)
def test_poly_print_parse_roundtrip(c):
    p = LaurentPoly(c)
    assert LaurentPoly.parse(str(p)) == p


def test_poly_print_grammar():
    assert str(LaurentPoly()) == "0"
    assert str(LaurentPoly({0: 1})) == "1"
    assert str(LaurentPoly({1: 1})) == "q"
    assert str(LaurentPoly({1: -1})) == "-q"
    assert str(LaurentPoly({-2: -1, -1: -1})) == "-q^-2 - q^-1"
    assert str(LaurentPoly({0: 1, 2: 3, 5: -1})) == "1 + 3*q^2 - q^5"


def _reference_product(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    # the exponent-dict double loop
    out: dict[int, int] = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return LaurentPoly(out)


def _random_dense_poly(rng: random.Random) -> LaurentPoly:
    length = rng.choice([1, 2, 3, 5, 9, 14, 40, 120])
    bits = rng.choice([1, 6, 15, 31, 63, 100, 300])
    coeffs = [rng.randint(-(2**bits), 2**bits) for _ in range(length)]
    return LaurentPoly.from_dense(rng.randint(-20, 20), coeffs)


def test_poly_mul_matches_schoolbook():
    rng = random.Random(20)
    for _ in range(300):
        a, b = _random_dense_poly(rng), _random_dense_poly(rng)
        # a one-term factor c q^e shifts the other operand: c = 1 shares its
        # list, any other c scales it
        c = rng.choice([1, -1, rng.randint(2, 9), -(2**70) - 1])
        mono = LaurentPoly.from_dense(rng.randint(-20, 20), [c])
        for x, y in ((a, b), (a, a), (a, mono), (mono, a)):
            assert x * y == _reference_product(x, y)


@pytest.mark.parametrize("m", [1, 11, 127, 128, 2**15, 2**31 - 1, 2**63, 2**200])
@pytest.mark.parametrize("n", [3, 40, 150])
def test_dense_mul_at_digit_boundaries(m, n):
    # equal-magnitude coefficients make the middle product coefficient
    # reach the bound the digit width is chosen from
    same = [m] * n
    alternating = [m * (-1) ** i for i in range(n)]
    for a, b in ((same, same), (same, [-m] * n), (alternating, alternating),
                 (alternating, same), (same[:2], alternating)):
        assert intpoly.mul(a, b) == intpoly.mul_schoolbook(a, b)


def test_shared_coefficient_lists_never_change():
    p = LaurentPoly.from_dense(-2, [3, -1, 4, 1, -5])
    shifted = p * LaurentPoly.monomial(3)
    negated = LaurentPoly.from_dense(4, [-1]) * p
    assert shifted._co is p._co
    derived = (-shifted, shifted + negated, shifted - p, shifted * p)
    assert p.as_dense() == (-2, [3, -1, 4, 1, -5])
    assert shifted.as_dense() == (1, [3, -1, 4, 1, -5])
    assert negated.as_dense() == (2, [-3, 1, -4, -1, 5])
    assert derived == (
        _reference_product(p, LaurentPoly({3: -1})),
        _reference_product(p, LaurentPoly({3: 1, 4: -1})),
        _reference_product(p, LaurentPoly({3: 1, 0: -1})),
        _reference_product(_reference_product(p, p), LaurentPoly({3: 1})),
    )


# -- the ring Z[q, 1/q] -----------------------------------------------------


def test_quotients_that_divide_are_ring_elements():
    # a monomial divisor shifts and divides the content; any other divides
    # exactly
    q = LaurentPoly.var()
    one = LaurentPoly.one()
    x = ExactScalar(q * q - one, q - one)
    assert str(x) == "1 + q"
    cases = [
        (ExactScalar(4, 2), "2"),
        (ExactScalar(LaurentPoly({1: 6}), LaurentPoly({3: 3})), "2*q^-2"),
        (ExactScalar(LaurentPoly({1: 6, 2: -3}), LaurentPoly({-1: -3})), "-2*q^2 + q^3"),
        (ExactScalar(q * q - one, q * q * q - q), "q^-1"),
        (ExactScalar.parse("2*q^2") / ExactScalar.parse("q"), "2*q"),
        (q_factorial(4) / q_number(4), str(q_factorial(3))),
        ((x - 1) / (x - 1), "1"),
        (x ** 3 / x, "1 + 2*q + q^2"),
        (ExactScalar.q_power(3) ** -2, "q^-6"),
        ((-ExactScalar.q_power(-1)) ** -3, "-q^3"),
        (EXACT_Q.zero / x, "0"),
    ]
    for value, text in cases:
        assert str(value) == text


def test_inexact_division_raises():
    x = ExactScalar.from_poly(LaurentPoly({0: 1, 1: 1}))
    for divide in (
        lambda: ExactScalar(1, 2),
        lambda: EXACT_Q.div(EXACT_Q.one, EXACT_Q.from_int(2)),
        lambda: q_number(5) / q_number(3),
        lambda: ExactScalar(LaurentPoly({0: 3, 1: 6}), LaurentPoly({2: 2})),
        lambda: x * x / (x + 1),
        lambda: x / (x * x),
        lambda: 1 / x,
        lambda: x ** -1,
        lambda: ExactScalar(2) ** -1,
    ):
        with pytest.raises(ArithmeticError):
            divide()
    # and no quotient of two polynomials prints or parses
    with pytest.raises(ValueError):
        ExactScalar.parse("(1 + q)/(q)")


def test_powers_start_from_the_base():
    x = ExactScalar.from_poly(LaurentPoly({0: 1, 1: 1, 3: -2}))
    unit = ExactScalar.from_poly(LaurentPoly({2: -1}))
    assert x ** 1 is x
    reference = ExactScalar.from_int(1)
    for n in range(9):
        assert x ** n == reference and (unit ** -n) * unit ** n == 1
        reference = reference * x


def test_exact_scalar_roundtrip_strings():
    rng = random.Random(7)
    for _ in range(60):
        x = random_exact(rng)
        assert ExactScalar.parse(str(x)) == x


def test_exact_ring_axioms():
    rng = random.Random(3)
    for _ in range(25):
        a, b, c = (random_exact(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + 0 == a
        assert a * 1 == a
        if not b.is_zero:
            assert a * b / b == a
            assert b / b == ExactScalar.from_int(1)


def test_division_by_zero_rejected():
    one = ExactScalar.from_int(1)
    zero = ExactScalar.from_int(0)
    with pytest.raises(ZeroDivisionError):
        one / zero
    with pytest.raises(ZeroDivisionError):
        EXACT_Q.div(EXACT_Q.one, EXACT_Q.zero)
    with pytest.raises(ZeroDivisionError):
        COMPLEX.div(1 + 0j, 0j)


def test_numeric_field_axioms():
    rng = random.Random(11)
    for _ in range(40):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for x, y in ((a * (b + c), a * b + a * c), ((a + b) + c, a + (b + c))):
            assert abs(x - y) <= max(1e-12, 1e-10 * max(abs(x), abs(y)))


def _dense(rng: random.Random, length: int, bits: int) -> list[int]:
    coeffs = [rng.randint(-(2**bits), 2**bits) for _ in range(length)]
    coeffs[0] = coeffs[0] or 1
    coeffs[-1] = coeffs[-1] or -1
    return coeffs


def planted_quotient(rng: random.Random) -> tuple[LaurentPoly, LaurentPoly]:
    """f g / (h g) with a random common factor g, integer contents that share
    a factor, and offsets on both sides; h is a constant half of the time,
    so that some quotients are Laurent polynomials and some are not."""
    def part():
        return _dense(rng, rng.randint(1, 12), rng.choice([1, 3, 10, 40]))

    f, g, h = part(), part(), part()
    if rng.random() < 0.5:
        h = [rng.choice([1, -1])]
    if rng.random() < 0.3:
        g = intpoly.mul(g, [1, -1])
    shared = rng.choice([1, 2, 6])
    top, bottom = shared * rng.randint(1, 3), shared * rng.randint(1, 3)
    num = [top * x for x in intpoly.mul(f, g)]
    den = [bottom * x for x in intpoly.mul(h, g)]
    return (LaurentPoly.from_dense(rng.randint(-6, 6), num),
            LaurentPoly.from_dense(rng.randint(-6, 6), den))


def test_divexact_inverts_mul():
    rng = random.Random(30)
    for _ in range(300):
        a, b = (_dense(rng, rng.randint(1, 40), rng.choice([1, 6, 31, 63, 200]))
                for _ in range(2))
        f = intpoly.mul(a, b)
        assert intpoly.divexact(f, b) == a == intpoly.divexact_long(f, b)


@pytest.mark.parametrize("n, j, long_divisions", [
    (12, 5, 0),   # the second digit width holds the quotient
    (20, 6, 0),   # the third does
    (30, 12, 0),
    (40, 16, 1),  # none of the three does: long division decides
])
def test_divexact_quotients_above_the_input_norms(monkeypatch, n, j, long_divisions):
    # (1 - q^n)^j / (1 - q)^j = [n]_q^j, whose coefficients are far larger
    # than any of the two inputs', so the first digit width misreads it
    f = g = [1]
    for _ in range(j):
        f = intpoly.mul(f, [1] + [0] * (n - 1) + [-1])
        g = intpoly.mul(g, [1, -1])
    want = intpoly.divexact_long(f, g)
    first_width = intpoly._digit_bytes(max(map(abs, f + g)))
    assert max(map(abs, want)) >= 2 ** (8 * first_width - 1)
    long, calls = intpoly.divexact_long, []
    monkeypatch.setattr(intpoly, "divexact_long",
                        lambda f, g: calls.append(1) or long(f, g))
    assert intpoly.divexact(f, g) == want
    assert len(calls) == long_divisions


def test_divexact_refuses_inexact_division():
    rng = random.Random(31)
    for _ in range(200):
        a = _dense(rng, rng.randint(1, 40), rng.choice([1, 6, 31, 63]))
        b = _dense(rng, rng.randint(2, 40), rng.choice([1, 6, 31, 63]))
        f = intpoly.mul(a, b)
        f[0] += 1
        for divide in (intpoly.divexact, intpoly.divexact_long):
            with pytest.raises(ArithmeticError):
                divide(f, b)
            # a dividend of lower degree than the divisor
            with pytest.raises(ArithmeticError):
                divide(b[:-1], b)


def planted_exact_quotient(rng: random.Random) -> tuple[LaurentPoly, LaurentPoly]:
    """h g / g with offsets on both sides, signs, and an integer content of
    the denominator that divides the numerator's."""
    h = _dense(rng, rng.randint(1, 30), rng.choice([1, 3, 10, 40]))
    g = _dense(rng, rng.randint(2, 30), rng.choice([1, 3, 10, 40]))
    content = rng.choice([1, 2, 6])
    top, bottom = content * rng.choice([1, -1, 3]), content * rng.choice([1, -1])
    num = [top * x for x in intpoly.mul(h, g)]
    den = [bottom * x for x in g]
    return (LaurentPoly.from_dense(rng.randint(-6, 6), num),
            LaurentPoly.from_dense(rng.randint(-6, 6), den))


def test_exact_quotients_multiply_back():
    rng = random.Random(32)
    for num, den in (planted_exact_quotient(rng) for _ in range(100)):
        x = ExactScalar(num, den)
        assert x * ExactScalar.from_poly(den) == ExactScalar.from_poly(num)


def reciprocal_cases(rng: random.Random) -> list[list[ExactScalar]]:
    """Lists of Laurent polynomials that share a factor and integer content,
    with signs and offsets of their own; in the first half of the lists the
    first entry is a multiple of every other."""
    cases = []
    for case in range(60):
        shared = _dense(rng, rng.randint(1, 5), rng.choice([1, 3]))
        content = rng.choice([1, 2, 6, 12])
        polys = []
        for _ in range(rng.randint(1, 6)):
            poly = intpoly.mul(_dense(rng, rng.randint(1, 6), rng.choice([1, 3, 10])),
                               shared if rng.random() < 0.7 else [1])
            polys.append([content * rng.choice([1, -1, 2, 3]) * x for x in poly])
        if case < 30:
            for poly in polys[1:]:
                polys[0] = intpoly.mul(polys[0], poly)
        cases.append([ExactScalar.from_poly(LaurentPoly.from_dense(rng.randint(-5, 5), poly))
                      for poly in polys])
    return cases


def _primitive(x: ExactScalar) -> list[int]:
    # the coefficients over their content, with a positive constant term
    co = x.poly.as_dense()[1]
    c = math.gcd(*co) * (1 if co[0] > 0 else -1)
    return [v // c for v in co]


def test_exact_reciprocals_share_a_common_multiple():
    rng = random.Random(12)
    for case, xs in enumerate(reciprocal_cases(rng)):
        cs, common = EXACT_Q.reciprocals(xs)
        assert len(cs) == len(xs)
        # every part divides common, with a ring element as its cofactor
        for x, c in zip(xs, cs):
            assert c * x == common
        # a first part that is a multiple of the others is the whole common
        # multiple but for the lcm of the contents
        if case < 30:
            contents = math.lcm(*(math.gcd(*x.poly.as_dense()[1]) for x in xs))
            assert common.poly.as_dense() == (0, [contents * v for v in _primitive(xs[0])])


def test_rational_reciprocals_share_the_lcm_of_the_numerators():
    rng = random.Random(14)
    for _ in range(200):
        xs = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 40))
              for _ in range(rng.randint(1, 6))]
        cs, common = RATIONAL.reciprocals(xs)
        assert common == math.lcm(*(abs(x.numerator) for x in xs))
        for x, c in zip(xs, cs):
            assert c.denominator == 1
            assert c / common == 1 / x


def test_reciprocals_refuse_zero():
    with pytest.raises(ZeroDivisionError):
        EXACT_Q.reciprocals([q_number(2), EXACT_Q.zero])
    with pytest.raises(ZeroDivisionError):
        RATIONAL.reciprocals([Fraction(1, 2), Fraction(0)])


def test_normalization_matches_sympy_cancel():
    # sympy's reduced quotient is the reference: where its denominator is
    # a monomial c q^e and c divides every numerator coefficient, the
    # quotient is that Laurent polynomial, and otherwise it raises
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def rational_coeffs(expr) -> dict[int, Fraction]:
        poly = sympy.Poly(expr, q, domain="QQ")
        return {e: Fraction(int(c.p), int(c.q)) for (e,), c in poly.terms()}

    rng = random.Random(13)
    exact = inexact = 0
    for _ in range(40):
        num, den = planted_quotient(rng)
        top, bottom = sympy.fraction(sympy.cancel(
            sum(c * q**e for e, c in num.items())
            / sum(c * q**e for e, c in den.items())
        ))
        top, bottom = rational_coeffs(top), rational_coeffs(bottom)
        if len(bottom) == 1:
            (low, c), = bottom.items()
            want = {e - low: v / c for e, v in top.items()}
            if all(v.denominator == 1 for v in want.values()):
                exact += 1
                assert ExactScalar(num, den).poly == LaurentPoly(
                    {e: int(v) for e, v in want.items()})
                continue
        inexact += 1
        with pytest.raises(ArithmeticError):
            ExactScalar(num, den)
    assert exact > 5 and inexact > 5


# -- q-objects ---------------------------------------------------------------


def test_q_number_examples():
    assert q_number(0).is_zero
    assert q_number(1) == ExactScalar.from_int(1)
    assert str(q_number(3)) == "1 + q + q^2"
    assert str(q_number(-2)) == "-q^-2 - q^-1"


@pytest.mark.parametrize("m", range(-12, 13))
@pytest.mark.parametrize("n", [-12, -5, -1, 0, 1, 4, 12])
def test_q_number_difference_identity(m, n):
    # [m] - [n] = [m - n] * q^n, exactly
    lhs = q_number(m) - q_number(n)
    rhs = q_number(m - n) * ExactScalar.q_power(n)
    assert lhs == rhs


def test_q_factorial():
    assert q_factorial(0) == ExactScalar.from_int(1)
    expected = q_number(1) * q_number(2) * q_number(3)
    assert q_factorial(3) == expected
    assert q_factorial(5).evaluate_fraction(Fraction(1)) == 120
    with pytest.raises(DomainError):
        q_factorial(-1)


def test_q_binomial_frozen_values():
    assert q_binomial(4, 0) == ExactScalar.from_int(1)
    assert q_binomial(4, 4) == ExactScalar.from_int(1)
    assert str(q_binomial(4, 2)) == "1 + q + 2*q^2 + q^3 + q^4"


def test_q_binomial_symmetry_and_pascal():
    for n in range(1, 13):
        for k in range(n + 1):
            b = q_binomial(n, k)
            assert b == q_binomial(n, n - k)
            assert all(c > 0 for _, c in b.poly.items())
            if 0 < k < n:
                qk = ExactScalar.q_power(k)
                qnk = ExactScalar.q_power(n - k)
                assert b == q_binomial(n - 1, k - 1) + qk * q_binomial(n - 1, k)
                assert b == qnk * q_binomial(n - 1, k - 1) + q_binomial(n - 1, k)


def test_q_binomial_counts_at_one():
    import math

    for n in range(9):
        for k in range(n + 1):
            val = q_binomial(n, k).evaluate_fraction(Fraction(1))
            assert val == math.comb(n, k)


def test_q_binomial_domain():
    with pytest.raises(DomainError):
        q_binomial(3, 4)
    with pytest.raises(DomainError):
        q_binomial(3, -1)


def test_exact_matches_numeric_evaluation():
    import cmath

    rng = random.Random(5)
    for _ in range(20):
        r = rng.uniform(0.3, 0.9)
        phi = rng.uniform(0, 2 * cmath.pi)
        q = r * cmath.exp(1j * phi)
        a = random_exact(rng)
        b = random_exact(rng)
        lhs = (a * b + a).evaluate(q)
        rhs = a.evaluate(q) * b.evaluate(q) + a.evaluate(q)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_stretch_substitutes_power():
    q = 0.6 + 0.1j
    x = q_binomial(5, 2)
    assert abs(x.stretch(3).evaluate(q) - x.evaluate(q ** 3)) < 1e-12


def test_st_number():
    assert st_number(0, 2, 1) == 0
    assert st_number(1, 2, 1) == 1
    assert st_number(3, 2, 1) == 7  # 2^2 + 2 + 1
    s = 0.8 + 0.1j
    # [i]_{s,t} at t = 1 is the ordinary q-number at q = s
    for i in range(6):
        assert abs(st_number(i, s, 1) - q_number(i).evaluate(s)) < 1e-12
    with pytest.raises(DegenerateParameters):
        st_number(4, 0.5 + 0.1j, 0.5 + 0.1j)
    # a power past double range is a degeneracy, not an OverflowError
    with pytest.raises(DegenerateParameters, match="outside double range"):
        st_number(4, 0, 1e100 + 0j)
    with pytest.raises(DegenerateParameters, match="outside double range"):
        st_number(-1, 0j, 0.5)


def test_rational_field():
    assert RATIONAL.from_int(3) == Fraction(3)
    assert RATIONAL.div(Fraction(1), Fraction(2)) == Fraction(1, 2)
