"""Exact Laurent-polynomial arithmetic in the formal variable q.

This module is the number system for every q-analogue in the library:
integer Laurent polynomials, the ring Z[q, 1/q] of exact scalars they
make (EXACT_Q, whose divisions are exact or raise ArithmeticError), and
the elementary q-objects (q-numbers, q-factorials, q-binomials) built on
top.  Arbitrary rational nodes use RATIONAL, the field of fractions.
Numeric work uses plain complex numbers with a fixed zero floor;
ScalarField bundles the handful of operations the generic engines need so
they can run over any realization without caring which one they got.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple

from . import intpoly
from .errors import DegenerateParameters, DomainError

__all__ = [
    "LaurentPoly",
    "ExactScalar",
    "ScalarField",
    "EXACT_Q",
    "RATIONAL",
    "COMPLEX",
    "q_number",
    "q_factorial",
    "q_binomial",
    "q_int_power",
    "st_number",
]


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

def _poly(offset: int, coeffs: list[int]) -> "LaurentPoly":
    # trusted constructor: coeffs is empty (offset 0) or has nonzero ends,
    # and is never mutated afterwards, so polynomials may share it
    out = LaurentPoly.__new__(LaurentPoly)
    out._off = offset
    out._co = coeffs
    return out


def _poly_trimmed(offset: int, coeffs: list[int]) -> "LaurentPoly":
    lo, hi = 0, len(coeffs)
    while hi and not coeffs[hi - 1]:
        hi -= 1
    while lo < hi and not coeffs[lo]:
        lo += 1
    if lo == hi:
        return _poly(0, [])
    if lo or hi < len(coeffs):
        coeffs = coeffs[lo:hi]
    return _poly(offset + lo, coeffs)


class LaurentPoly:
    """Integer Laurent polynomial in q, stored densely.

    The coefficients of q^offset, q^(offset+1), ... are kept in a list whose
    first and last entries are nonzero (the zero polynomial is offset 0 and
    an empty list), so structural equality is list equality and the
    canonical printed form is unique.  No list is changed once a polynomial
    holds it, so polynomials share lists freely (a product by q^e does).
    """

    __slots__ = ("_off", "_co")

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c = {int(e): v for e, v in coeffs.items() if v} if coeffs else {}
        if not c:
            self._off, self._co = 0, []
            return
        lo = min(c)
        dense = [0] * (max(c) - lo + 1)
        for e, v in c.items():
            dense[e - lo] = v
        self._off, self._co = lo, dense

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def var(cls) -> "LaurentPoly":
        return cls({1: 1})

    @classmethod
    def monomial(cls, exponent: int) -> "LaurentPoly":
        return cls({exponent: 1})

    @classmethod
    def from_dense(cls, offset: int, coeffs: list[int]) -> "LaurentPoly":
        return _poly_trimmed(offset, list(coeffs))

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._co

    def items(self) -> list[tuple[int, int]]:
        off = self._off
        return [(off + i, v) for i, v in enumerate(self._co) if v]

    def as_dense(self) -> tuple[int, list[int]]:
        """Return (offset, coefficients) with a nonzero constant slot."""
        return self._off, list(self._co)

    # -- ring operations ----------------------------------------------------

    def _combine(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        b = other._co
        if not b:
            return self
        if sign < 0:
            b = [-x for x in b]
        a = self._co
        if not a:
            return _poly(other._off, b)
        ao, bo = self._off, other._off
        lo = min(ao, bo)
        out = [0] * (max(ao + len(a), bo + len(b)) - lo)
        i = ao - lo
        out[i:i + len(a)] = a
        i = bo - lo
        j = i + len(b)
        out[i:j] = [x + y for x, y in zip(out[i:j], b)]
        return _poly_trimmed(lo, out)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "LaurentPoly":
        return _poly(self._off, [-v for v in self._co])

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._co, other._co
        if not a or not b:
            return _poly(0, [])
        off = self._off + other._off
        if len(a) == 1:
            a, b = b, a
        # a one-term factor c q^e shifts the other's offset and scales its
        # list, or at c = 1 shares it, as coefficient lists never change
        if len(b) == 1:
            c = b[0]
            return _poly(off, a if c == 1 else [c * x for x in a])
        return _poly(off, intpoly.mul(a, b))

    def stretch(self, m: int) -> "LaurentPoly":
        """Substitute q -> q^m (a ring map for m >= 1)."""
        if m < 1:
            raise DomainError("stretch exponent must be a positive integer")
        if not self._co:
            return self
        out = [0] * ((len(self._co) - 1) * m + 1)
        out[::m] = self._co
        return _poly(self._off * m, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._off == other._off and self._co == other._co

    __hash__ = None  # type: ignore[assignment]

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x: complex) -> complex:
        if not self._co:
            return 0j
        off = self._off
        if x == 0 and off < 0:
            raise ZeroDivisionError("negative exponent at q = 0")
        return sum(v * x ** (off + i) for i, v in enumerate(self._co) if v)

    def evaluate_fraction(self, x: Fraction) -> Fraction:
        total = Fraction(0)
        for e, v in self.items():
            total += v * x ** e
        return total

    # -- printing and parsing -----------------------------------------------

    def __str__(self) -> str:
        if not self._co:
            return "0"
        parts: list[str] = []
        for e, v in self.items():
            mag = abs(v)
            if e == 0:
                body = str(mag)
            else:
                name = "q" if e == 1 else f"q^{e}"
                body = name if mag == 1 else f"{mag}*{name}"
            if not parts:
                parts.append(("-" if v < 0 else "") + body)
            else:
                parts.append((" - " if v < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"

    _TERM = re.compile(
        r"([+-]?)(?:(\d+)(?:\*(q(?:\^(-?\d+))?))?|(q(?:\^(-?\d+))?))"
    )

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial string")
        if s == "0":
            return cls()
        # hide exponent minus signs so we can split on term boundaries
        masked = s.replace("^-", "^~")
        coeffs: dict[int, int] = {}
        for piece in re.split(r"(?=[+-])", masked):
            if not piece:
                continue
            piece = piece.replace("^~", "^-")
            m = cls._TERM.fullmatch(piece)
            if not m:
                raise ValueError(f"unparseable term {piece!r}")
            sign = -1 if m.group(1) == "-" else 1
            if m.group(2) is not None:
                coef = sign * int(m.group(2))
                exp = 0
                if m.group(3) is not None:
                    exp = int(m.group(4)) if m.group(4) is not None else 1
            else:
                coef = sign
                exp = int(m.group(6)) if m.group(6) is not None else 1
            coeffs[exp] = coeffs.get(exp, 0) + coef
        return cls(coeffs)


def _quotient(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """num / den in Z[q, 1/q], or ArithmeticError when den does not divide
    num.  A monomial c q^e divides by a shift of the offset and, unless
    c = 1, an integer division of each coefficient; any other divisor by
    intpoly.divexact, since q^a N / (q^b D) with N(0), D(0) nonzero is a
    Laurent polynomial exactly when D divides N over Z[q]."""
    d = den._co
    if not d:
        raise ZeroDivisionError("division by exact zero")
    n = num._co
    if not n:
        return num
    off = num._off - den._off
    if len(d) > 1:
        return _poly(off, intpoly.divexact(n, d))
    c = d[0]
    if c == 1:
        return _poly(off, n)
    if any(x % c for x in n):
        raise ArithmeticError("inexact polynomial division")
    return _poly(off, [x // c for x in n])


# ---------------------------------------------------------------------------
# exact scalars
# ---------------------------------------------------------------------------

class ExactScalar:
    """An element of the ring Z[q, 1/q]: one integer Laurent polynomial.

    Sums, differences and products stay in the ring.  A quotient is formed
    only where the divisor divides: a monomial divisor shifts, any other
    divides exactly, and a division that leaves a remainder raises
    ArithmeticError.  Every exact family entry is a Laurent polynomial in
    q, so no route needs a rational function; arbitrary rational nodes go
    through RATIONAL.  Equality is structural.
    """

    __slots__ = ("_lp",)

    def __init__(self, num: "LaurentPoly | int", den: "LaurentPoly | int" = 1):
        if isinstance(num, int):
            num = LaurentPoly({0: num})
        if isinstance(den, int):
            den = LaurentPoly({0: den})
        self._lp = _quotient(num, den)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "ExactScalar":
        out = cls.__new__(cls)
        out._lp = p
        return out

    @classmethod
    def from_int(cls, n: int) -> "ExactScalar":
        return cls.from_poly(LaurentPoly({0: n}))

    @classmethod
    def q_power(cls, e: int) -> "ExactScalar":
        return cls.from_poly(LaurentPoly.monomial(e))

    # -- structure ----------------------------------------------------------

    @property
    def poly(self) -> LaurentPoly:
        return self._lp

    @property
    def is_zero(self) -> bool:
        return self._lp.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = ExactScalar.from_int(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self._lp == other._lp

    __hash__ = None  # type: ignore[assignment]

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(x: "ExactScalar | int") -> "ExactScalar | None":
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, int):
            return ExactScalar.from_int(x)
        return None

    def __add__(self, other: "ExactScalar | int") -> "ExactScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar.from_poly(self._lp + o._lp)

    __radd__ = __add__

    def __sub__(self, other: "ExactScalar | int") -> "ExactScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar.from_poly(self._lp - o._lp)

    def __rsub__(self, other: "ExactScalar | int") -> "ExactScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "ExactScalar":
        return ExactScalar.from_poly(-self._lp)

    def __mul__(self, other: "ExactScalar | int") -> "ExactScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar.from_poly(self._lp * o._lp)

    __rmul__ = __mul__

    def __truediv__(self, other: "ExactScalar | int") -> "ExactScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar.from_poly(_quotient(self._lp, o._lp))

    def __rtruediv__(self, other: "ExactScalar | int") -> "ExactScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "ExactScalar":
        # a negative power exists only for the units +-q^e
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of exact zero")
            return (ExactScalar.from_int(1) / self) ** (-n)
        if n == 0:
            return ExactScalar.from_int(1)
        # the first set bit starts the product, so x ** 1 is x itself
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- substitution and evaluation ----------------------------------------

    def stretch(self, m: int) -> "ExactScalar":
        """Substitute q -> q^m."""
        return ExactScalar.from_poly(self._lp.stretch(m))

    def evaluate(self, q: complex) -> complex:
        return self._lp.evaluate(q)

    def evaluate_fraction(self, q: Fraction) -> Fraction:
        return self._lp.evaluate_fraction(q)

    # -- printing and parsing -----------------------------------------------

    def __str__(self) -> str:
        return str(self._lp)

    def __repr__(self) -> str:
        return f"ExactScalar({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "ExactScalar":
        return cls.from_poly(LaurentPoly.parse(text))


# ---------------------------------------------------------------------------
# numeric residuals
# ---------------------------------------------------------------------------

def residual(x: complex, y: complex, *terms: complex) -> float:
    """|x - y| relative to the scale of the comparison.

    The scale is max(1, |x|, |y|) together with any intermediate summands
    passed in `terms`; for identities of the form a + b = c the summand
    magnitudes are the honest yardstick when the sum cancels.
    """
    scale = max(1.0, abs(x), abs(y))
    for t in terms:
        scale = max(scale, abs(t))
    return abs(x - y) / scale


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------

class ScalarField(NamedTuple):
    """The operations a generic engine needs, over one scalar realization.

    Arithmetic itself goes through the scalars' own operators; the field
    carries the realization-specific pieces: constants, integer embedding
    and the zero test.  `exact` selects the structural versus the
    tolerance-based flavor of the distinctness guards.  An exact field also
    carries `reciprocals`: for nonzero xs it returns (cs, common) with
    1 / xs[j] == cs[j] / common, where common is a common multiple of the
    xs and it and every cs[j] are ring elements (integers for RATIONAL,
    Laurent polynomials for EXACT_Q), so a sum of multiples of the
    1 / xs[j] is a ring sum and one division by common.
    """

    name: str
    zero: object
    one: object
    from_int: Callable[[int], object]
    is_zero: Callable[[object], bool]
    exact: bool
    reciprocals: Callable[[list], tuple[list, object]] | None = None

    def div(self, x, y):
        if self.is_zero(y):
            raise ZeroDivisionError(f"division by zero-tested scalar in {self.name}")
        return x / y

    def quotient_sum(self, nums: list, dens: list):
        """sum_j nums[j] / dens[j] over an exact field, as one ring sum of
        the numerators over a common multiple of the dens (``reciprocals``)
        and one division; over EXACT_Q the sum must be a Laurent
        polynomial, though its summands need not be."""
        cs, common = self.reciprocals(dens)
        return self.div(sum(map(operator.mul, nums, cs), self.zero), common)


def _exact_reciprocals(xs: list) -> tuple[list, ExactScalar]:
    """ScalarField.reciprocals for ExactScalar.

    1 / (q^o P) = q^(-o) / P.  Each P is split into a signed integer
    content and a primitive part with positive constant term; the common
    multiple is the lcm of the contents times a product of primitive
    parts, built one part at a time: a part that divides it so far leaves
    it as it is, and any other is multiplied in.  Each numerator takes the
    cofactor of its own P in it.
    """
    parts = []
    for x in xs:
        co = x._lp._co
        if not co:
            raise ZeroDivisionError("division by exact zero")
        c = intpoly.content(co)
        if co[0] < 0:
            c = -c
        parts.append((x._lp._off, c, [v // c for v in co] if c != 1 else co))
    common = parts[0][2]
    for _, _, prim in parts[1:]:
        if len(prim) > 1:
            try:
                intpoly.divexact(common, prim)
            except ArithmeticError:
                common = intpoly.mul(common, prim)
    scale = math.lcm(*(c for _, c, _ in parts))
    cs = []
    for off, c, prim in parts:
        cofactor = intpoly.divexact(common, prim) if len(prim) > 1 else common
        u = scale // c
        cs.append(ExactScalar.from_poly(_poly(-off, [u * v for v in cofactor])))
    if scale > 1:
        common = [scale * v for v in common]
    return cs, ExactScalar.from_poly(_poly(0, common))


def _fraction_reciprocals(xs: list) -> tuple[list, Fraction]:
    """ScalarField.reciprocals for Fraction: 1 / (a / b) = b / a over the
    lcm of the a's."""
    if any(x == 0 for x in xs):
        raise ZeroDivisionError("division by exact zero")
    common = math.lcm(*(x.numerator for x in xs))
    return [Fraction(x.denominator * (common // x.numerator)) for x in xs], \
        Fraction(common)


EXACT_Q = ScalarField(
    name="exact-q",
    zero=ExactScalar.from_int(0),
    one=ExactScalar.from_int(1),
    from_int=ExactScalar.from_int,
    is_zero=lambda x: x.is_zero,
    exact=True,
    reciprocals=_exact_reciprocals,
)

RATIONAL = ScalarField(
    name="rational",
    zero=Fraction(0),
    one=Fraction(1),
    from_int=Fraction,
    is_zero=lambda x: x == 0,
    exact=True,
    reciprocals=_fraction_reciprocals,
)


# a numeric divisor at or below this modulus is treated as zero
_ZERO_FLOOR = 1e-12

COMPLEX = ScalarField(
    name="complex",
    zero=0j,
    one=1 + 0j,
    from_int=complex,
    is_zero=lambda x: abs(x) <= _ZERO_FLOOR,
    exact=False,
)


# ---------------------------------------------------------------------------
# q-objects
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def q_number(z: int) -> ExactScalar:
    """The q-analogue (1 - q^z) / (1 - q) of an integer z.

    For z >= 0 this is the polynomial 1 + q + ... + q^(z-1); for z < 0 it is
    a Laurent polynomial, e.g. q_number(-2) = -q^-2 - q^-1.
    """
    if z == 0:
        return ExactScalar.from_int(0)
    num = LaurentPoly({0: 1}) - LaurentPoly.monomial(z)
    den = LaurentPoly({0: 1}) - LaurentPoly.var()
    return ExactScalar(num, den)


@lru_cache(maxsize=None)
def q_factorial(n: int) -> ExactScalar:
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    if n < 0:
        raise DomainError("q-factorial needs n >= 0")
    if n == 0:
        return ExactScalar.from_int(1)
    return q_factorial(n - 1) * q_number(n)


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> ExactScalar:
    """Gaussian binomial [n]_q! / ([k]_q! [n-k]_q!)."""
    if not 0 <= k <= n:
        raise DomainError("q-binomial needs 0 <= k <= n")
    result = q_factorial(n) / (q_factorial(k) * q_factorial(n - k))
    assert all(c > 0 for _, c in result.poly.items())
    return result


@lru_cache(maxsize=None)
def q_int_power(m: int, n: int) -> ExactScalar:
    """[m]_q ** n, cached because the explicit Eulerian sums reuse it heavily."""
    return q_number(m) ** n


def _checked_power(base, e: int):
    """base ** e for an integer e.

    A float power that leaves double range (Python raises OverflowError)
    or a negative power of zero is a degeneracy of the parameters that
    formed the base, so it raises DegenerateParameters.
    """
    try:
        return base ** e
    except (ZeroDivisionError, OverflowError):
        raise DegenerateParameters(f"{base}^{e} is outside double range") from None


def st_number(i: int, s: complex, t: complex) -> complex:
    """The (s,t)-analogue (s^i - t^i) / (s - t) of an integer i; bases within
    1e-12 of each other, relative to max(1, |s|, |t|), are refused."""
    if abs(s - t) <= 1e-12 * max(1.0, abs(s), abs(t)):
        raise DegenerateParameters(f"st_number bases too close: s={s}, t={t}")
    return (_checked_power(s, i) - _checked_power(t, i)) / (s - t)
