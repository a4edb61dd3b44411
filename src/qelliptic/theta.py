"""Numeric theta functions, elliptic numbers and elliptic weights.

Everything here is double-precision complex.  The central object is the
multiplicative theta function

    theta(x; p) = prod_{j >= 0} (1 - p^j x) (1 - p^(j+1) / x),

together with the elliptic number [z]_{a,b;q,p} and the elliptic weight
W_{a,b;q,p}(k), quotients of theta values (Gasper & Rahman, *Basic
Hypergeometric Series*, 2nd ed., section 1.6 and chapter 11).

``theta`` evaluates in three steps, all in one method of the nome's
cached constants:

- Reduce.  x = p^k y with |p|^(1/2) <= |y| <= |p|^(-1/2), k from
  log|x| / log|p| rounded to the nearest integer.  The annulus is one
  period of theta centred on the unit circle: its only zero is y = 1.
- Sum.  The Jacobi triple product gives

      theta(y; p) (p; p)_inf = sum_n (-1)^n p^(n(n-1)/2) y^n
                             = (1 - y) sum_m b_m y^m,

  with b_m = b_(-m) the tails of the first sum's coefficients.  Two
  Horner loops, one in y and one in 1/y, take the terms down to
  1e-16: 8 and 7 terms at p = 0.3, 11 and 10 at p = 0.5.
- Undo.  theta(p x) = -theta(x) / x, applied once per power with one
  finite factor, p^i / (-x) or -x p^i, so no prefactor like
  p^(-k(k-1)/2) can overflow on the way.

The factor (1 - y) makes theta(1; p) and [0] exactly 0.  Over the
arguments the routes form at n = 18 (|x| from |q|^38 min(|a|, |b|) to its
inverse, |p| <= 0.5) theta is within about 1e-14 relative of a 50-digit
reference, where the truncated product at x itself was off by up to
4e-2.  The series cancels near y = 1, losing about 100 ulps at p = 0.5
and every digit at p = 0.9, so above |p| = SERIES_MAX_NOME the reduced
argument goes to the truncated product, which ``theta_product`` takes
for every nome: the second route of the ``theta`` suite.  The product
keeps max(24, ceil(log 1e-16 / log |p|)) factors; an order above
MAX_TRUNCATION_ORDER (|p| above about 0.991), |p| >= 1 and a non-finite
p raise DomainError, so no input asks for unbounded work.  The constants
of a nome sit in a bounded cache (``_nome``), each a function of p's bits.

[z] and W(z) are declared once, as tables of numerator and denominator
rows (``_NUMBER``, ``_WEIGHT``).  A row names a theta argument C q^m, with
C in {1, a, b, a / b} and m = alpha z + beta, and forms it from a, b, q
and u = q^z.  Everything reads these tables: the guarded denominators,
the quotients, the arguments a refusal names, and the window's
certificate and scan.  At p != 0 a factor is theta(x); at p = 0 it is
1 - x, computed inline, with no theta call, memo entry or argument check.
The rungs a = 0 and a = b = 0 of the degeneration chain leave out the
rows whose C holds a, then a or b, and q = 1 keeps [z] = z: closed
forms, never numeric limits.  A non-finite theta argument, and a
denominator factor of modulus below DEFAULT_MIN_DENOMINATOR, raise
DegenerateParameters naming it.

Numbers and weights are memoized per parameter set, keyed by the index
and the shift (alpha, beta) of a -> a q^alpha, b -> b q^beta, and so is
theta(x; p), keyed by ``_memo_key``, which keeps 0.3+0j and 0.3-0j apart.
No cache changes a result by a bit.  Routes given one set share its
memos; the CLI passes the last ``table`` command's set on to the next
one with the same parameter inputs.

The sampler's window check (``EllipticParams.window_ok``) certifies
first, then scans.  The certificate evaluates no theta value: with
x = p^k y reduced as above, |theta(x)| >= c |1 - y| (``_Nome``), and
log |x| = log |C| + m log |q| gives k and |y| from the moduli of a, b
and q; y is formed only for a factor that bound leaves open.  A window
whose guarded factors all reach 2 DEFAULT_MIN_DENOMINATOR with
|k| <= k_max (each at most 1e60, so every denominator product is
finite) is accepted with the memo left empty.  Any other window, p = 0
and |p| > SERIES_MAX_NOME among them, goes to the scan, which forms the
guarded denominators of [z] and W(z) per index, under labels that name
it, and range-checks the numerator arguments without evaluating them.
Neither forms a number or weight.
"""

from __future__ import annotations

import cmath
import functools
import math
import random

from .errors import DegenerateParameters, DomainError, Frozen
from .scalars import _checked_power

__all__ = [
    "EllipticParams",
    "theta",
    "theta_product",
    "theta_multi",
    "elliptic_number",
    "elliptic_number_shifted",
    "elliptic_weight",
    "elliptic_weight_shifted",
    "sample_annulus",
    "sample_route_argument",
    "sample_elliptic_params",
    "DEFAULT_MIN_DENOMINATOR",
    "MAX_TRUNCATION_ORDER",
    "SERIES_MAX_NOME",
]

DEFAULT_MIN_DENOMINATOR = 1e-6
# Most factors one theta product may take; this admits |p| up to about 0.991.
MAX_TRUNCATION_ORDER = 4096
# Bound on the dropped tail of the product and on the dropped series terms.
_TARGET_EPS = 1e-16
# Largest |p| evaluated by the series.  Its worst relative error measured
# 1.4e-14 at |p| = 0.6, 1.1e-12 at 0.7 and 51 at 0.9, against 9e-15 for
# the product up to 0.95, so above this modulus the product is the route.
SERIES_MAX_NOME = 0.6
_POWER_BITS = 120
# Bound on the log |x| the window's certificate forms (e^700 is about
# 1e304, a normal double), and its margin for their rounding.
_LOG_RANGE = 700.0
_LOG_SLACK = 1e-9
_TWO_PI = 2 * math.pi


def _truncation_order(p: complex) -> int:
    """The number of factors of the theta product over p: the smallest
    order >= ceil(log(_TARGET_EPS) / log(|p|)), never less than 24.
    A nome that is not finite, has |p| >= 1 or needs an order above
    MAX_TRUNCATION_ORDER is refused."""
    if not cmath.isfinite(p):
        raise DomainError(f"nome must be finite, got {p}")
    if abs(p) >= 1:
        raise DomainError("nome needs |p| < 1")
    if p == 0:
        return 24
    order = max(24, math.ceil(math.log(_TARGET_EPS) / math.log(abs(p))))
    if order > MAX_TRUNCATION_ORDER:
        raise DomainError(
            f"theta truncation order {order} exceeds the "
            f"limit {MAX_TRUNCATION_ORDER}; use a nome with |p| <= 0.99"
        )
    return order


def theta(x: complex, p: complex) -> complex:
    """Modified Jacobi theta function; exactly 1 - x when p = 0.

    Reduces x into the annulus, evaluates the reduced argument by the
    triple-product series (by the product when |p| > SERIES_MAX_NOME),
    and undoes the reduction; see the module docstring.
    """
    nome = _nome_for(x, p)
    return 1 - x if nome is None else nome.evaluate(x, nome.terms is None)


def theta_product(x: complex, p: complex) -> complex:
    """theta(x; p) as the truncated product over the reduced argument.

    The second route of the ``theta`` suite: it shares the reduction with
    ``theta`` and none of the series.
    """
    nome = _nome_for(x, p)
    return 1 - x if nome is None else nome.evaluate(x, True)


# (p, constants) of the last nome resolved: a parameter set passes the
# same p object on every call, so one identity check replaces the checks
# on p and the cache lookup; one tuple, so a concurrent reader sees a
# consistent entry
_last_nome: tuple = (None, None)


def _nome_for(x: complex, p: complex):
    """The cached constants of p, or None for p = 0; checks x, and p
    through ``_truncation_order``."""
    global _last_nome
    if x == 0:
        raise DomainError("theta argument must be nonzero")
    last_p, nome = _last_nome
    if p is not last_p:
        nome = None
        if p != 0:
            nome = _nome(p, math.copysign(1, p.real), math.copysign(1, p.imag))
        _last_nome = (p, nome)
    if not cmath.isfinite(x):
        raise DegenerateParameters(f"theta argument {x} is not finite")
    return nome


@functools.lru_cache(maxsize=16)
def _nome(p: complex, re_sign: float, im_sign: float) -> "_Nome":
    """The constants of one nome, which ``_truncation_order`` may refuse.
    The zero signs are part of the cache key only, so every entry is built
    from the bits of the p it serves: p = -0.3+0j and -0.3-0j compare
    equal, and constants built from one by complex arithmetic need not
    carry the zero signs of the other."""
    return _Nome(p, _truncation_order(p))


class _Nome:
    """What theta needs of one nome p, built once per cache entry.

    - ``terms`` and ``inv_terms``: the series coefficients b_M, ..., b_0
      and b_M, ..., b_1, in Horner order, and ``inv_euler`` = 1 / (p; p)_inf
      (all None when |p| > SERIES_MAX_NOME).
    - ``powers(j)``: the table p^0, ..., p^j, each power rounded once from
      exact integer arithmetic, grown on demand.  Powers built by the
      recurrence p^j = p^(j-1) p carry errors that add up along a
      reduction of k steps to about k^1.5 ulps; rounded powers keep the
      reduction within about sqrt(k) ulps.
    - ``c`` and ``k_max``: the constants of ``certifies`` (None and -1
      when |p| > SERIES_MAX_NOME).
    """

    __slots__ = ("log_modulus", "order", "terms", "inv_terms", "inv_euler",
                 "c", "k_max", "_exact", "_table")

    def __init__(self, p: complex, order: int):
        self.log_modulus = math.log(abs(p))
        self.order = order
        (re, re_den), (im, im_den) = (p.real.as_integer_ratio(),
                                      p.imag.as_integer_ratio())
        den = max(re_den, im_den)
        # p = (re + i im) / 2^shift exactly; the table state holds the
        # last power the same way, kept to about _POWER_BITS bits
        self._exact = (re * (den // re_den), im * (den // im_den),
                       den.bit_length() - 1)
        self._table = ((1 + 0j,), 1, 0, 0)
        self.terms = self.inv_terms = self.inv_euler = self.c = None
        self.k_max = -1
        if abs(p) > SERIES_MAX_NOME:
            return
        # for y in the annulus, r = |p| and s = r^(1/2):
        # (s; r)_inf^2 <= |theta(y) / (1 - y)| <= (-s; r)_inf^2, and the undo
        # steps multiply by at least s and at most r^-(k^2/2 + |k|)
        r = abs(p)
        s = t = math.sqrt(r)
        low = high = 1.0
        for _ in range(order):
            low *= 1 - t
            high *= 1 + t
            t *= r
        self.c = s * low * low
        # the largest k with (1 + 1/s) high^2 r^-(k^2/2 + k) <= 1e60
        budget = math.log(1e60 / ((1 + 1 / s) * high * high)) / -self.log_modulus
        if budget >= 0:
            self.k_max = math.isqrt(math.floor(1 + 2 * budget)) - 1
        # c_n = (-1)^n p^(n(n-1)/2) and b_m = -(c_(m+1) + c_(m+2) + ...);
        # in the reduced annulus the terms b_m y^(+-m) are below
        # |p|^(m^2 / 2), which is <= _TARGET_EPS for every dropped m > top
        top = math.ceil(math.sqrt(2 * math.log(_TARGET_EPS) / self.log_modulus)) - 1
        c, pn = [1 + 0j], 1 + 0j
        for _ in range(top + 3):
            c.append(-c[-1] * pn)
            pn *= p
        b, tail = [], 0j
        for j in range(len(c) - 1, 0, -1):
            tail += c[j]
            if j <= top + 1:
                b.append(-tail)
        self.terms = tuple(b)               # b_M, ..., b_0
        self.inv_terms = self.terms[:-1]    # b_M, ..., b_1
        euler, pj = 1 + 0j, p
        for _ in range(order):
            euler *= 1 - pj
            pj *= p
        self.inv_euler = 1 / euler

    def powers(self, j: int) -> tuple:
        """The table (p^0, ..., p^j) or a longer one."""
        table, re, im, shift = self._table
        if len(table) > j:
            return table
        a, b, step = self._exact
        grown = list(table)
        while len(grown) <= j:
            re, im = re * a - im * b, re * b + im * a
            shift += step
            excess = max(abs(re), abs(im)).bit_length() - _POWER_BITS
            if excess > 0:
                re >>= excess
                im >>= excess
                shift -= excess
            grown.append(complex(math.ldexp(re, -shift), math.ldexp(im, -shift)))
        table = tuple(grown)
        # one assignment, so a concurrent reader sees a consistent state
        self._table = (table, re, im, shift)
        return table

    def certifies(self, xs) -> bool:
        """True when every x in xs is nonzero and finite, and theta(x) is
        certainly at least 2 DEFAULT_MIN_DENOMINATOR and at most 1e60 in
        modulus, without evaluating it: with x = p^k y reduced as
        ``evaluate`` reduces it, |theta(x)| >= c |1 - y|, and |k| <= k_max
        bounds it above.  The factor 2 covers the series error and the
        rounding of y.  False decides nothing."""
        c, k_max, log_modulus = self.c, self.k_max, self.log_modulus
        table = self.powers(k_max)
        least = 2 * DEFAULT_MIN_DENOMINATOR
        for x in xs:
            if x == 0 or not cmath.isfinite(x):
                return False
            k = math.floor(cmath.log(x).real / log_modulus + 0.5)
            if abs(k) > k_max:
                return False
            y = x / table[k] if k > 0 else x * table[-k]
            if c * abs(1 - y) < least:
                return False
        return True

    def open_factors(self, logs) -> list:
        """The indices i of the factors theta(x_i), log |x_i| = logs[i],
        that need y.  With l = log |y| = log |x| - k log |p|,
        |theta(x)| >= c |1 - y| >= c (1 - e^-|l|); a factor clears when
        that reaches 2 DEFAULT_MIN_DENOMINATOR and |log |x|| <=
        (k_max + 1/2) |log |p||, so |k| <= k_max, both with the margin
        _LOG_SLACK: logs within _LOG_RANGE formed from those of a, b and
        q are off by under 1e-11.  Where that moves k, y is on the
        annulus edge either way."""
        lr, c, least = self.log_modulus, self.c, 2 * DEFAULT_MIN_DENOMINATOR
        edge = (self.k_max + 0.5) * -lr - _LOG_SLACK
        floor = _LOG_SLACK - math.log1p(-least / c) if least < c else math.inf
        return [i for i, t in enumerate(logs)
                if abs(t) > edge or abs(math.remainder(t, lr)) < floor]

    def evaluate(self, x: complex, product: bool) -> complex:
        """theta(x) by the three steps of the module docstring: reduce x to
        y, evaluate theta(y) by the series or, with ``product``, by the
        truncated product, and undo the reduction."""
        k = math.floor(cmath.log(x).real / self.log_modulus + 0.5)
        y = x
        if k:
            table = self._table[0]
            if len(table) <= abs(k):
                table = self.powers(abs(k))
            y = x / table[k] if k > 0 else x * table[-k]
            if not cmath.isfinite(y):
                raise DegenerateParameters(f"theta argument {x} reduces to {y}")
        inv = 1 / y
        if product:
            # prod_{j < order} (1 - p^j y)(1 - p^(j+1) / y)
            table = self.powers(self.order)
            value = 1 + 0j
            for j in range(self.order):
                value *= (1 - table[j] * y) * (1 - table[j + 1] * inv)
        else:
            # (1 - y) sum_m b_m y^m over all integers m, with b_(-m) = b_m:
            # the factor (1 - y) carries the zero at y = 1 exactly, so
            # theta(1) == 0 and the relative error stays bounded near it
            s = 0j
            for b in self.terms:
                s = s * y + b
            t = 0j
            for b in self.inv_terms:
                t = (t + b) * inv
            value = (1 - y) * (s + t) * self.inv_euler
        if not k or value == 0:
            return value
        # theta(p x) = -theta(x) / x once per power, with the factor
        # p^i / (-x) for k > 0 and -x p^i for k < 0.  Each factor is finite,
        # and all but the first (i = k) have modulus at least 1, so the
        # running value never overshoots its final size; once it is not
        # finite, the remaining steps are skipped
        table = self._table[0]  # grown to |k| above
        minus_x = -x
        if k > 0:
            for i in range(k, 0, -1):
                value = value * table[i] / minus_x
                if not cmath.isfinite(value):
                    break
        else:
            for i in range(-k):
                value = value * table[i] * minus_x
                if not cmath.isfinite(value):
                    break
        return value


def theta_multi(xs, p: complex) -> complex:
    """Product of theta(x; p) over the given arguments (1 for an empty list)."""
    _truncation_order(p)
    acc = 1 + 0j
    for x in xs:
        acc *= theta(x, p)
    return acc


class EllipticParams(Frozen):
    """Parameter pack (a, b; q, p) for elliptic numbers and weights.

    Generic use requires a, b, q nonzero and |p| < 1.  The degeneration
    chain is first-class: p = 0 with a, b arbitrary; then a = 0 (only with
    p = 0); then b = 0 (only with a = 0); q = 1 is legal only on the fully
    degenerate end, where the closed forms turn into classical integers.
    Frozen, and equal only to itself: each pack owns its three caches.
    """

    __slots__ = ("a", "b", "q", "p", "_num_cache", "_wt_cache", "_theta_cache")

    def __init__(self, a: complex, b: complex, q: complex, p: complex):
        for name, value in (("a", a), ("b", b), ("q", q), ("p", p)):
            value = complex(value)
            if not cmath.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        for name in ("_num_cache", "_wt_cache", "_theta_cache"):
            object.__setattr__(self, name, {})
        if self.q == 0:
            raise DomainError("q must be nonzero")
        if abs(self.p) >= 1:
            raise DomainError("nome needs |p| < 1")
        if self.p != 0 and (self.a == 0 or self.b == 0):
            raise DomainError("a = 0 or b = 0 requires p = 0 first")
        if self.b == 0 and self.a != 0:
            raise DomainError("b = 0 requires a = 0 first")
        if self.q == 1 and not (self.p == 0 and self.a == 0 and self.b == 0):
            raise DomainError("q = 1 is only legal on the fully degenerate chain")
        _truncation_order(self.p)

    def __repr__(self) -> str:
        return f"EllipticParams(a={self.a!r}, b={self.b!r}, q={self.q!r}, p={self.p!r})"

    def with_ab(self, a: complex | None = None, b: complex | None = None) -> "EllipticParams":
        return EllipticParams(
            a=self.a if a is None else a,
            b=self.b if b is None else b,
            q=self.q,
            p=self.p,
        )

    def window_ok(self, lo: int, hi: int) -> bool:
        """True when numbers and weights over [lo, hi] clear the guards
        (``window_refusal`` finds nothing to refuse)."""
        return self.window_refusal(lo, hi) is None

    def window_refusal(self, lo: int, hi: int) -> str | None:
        """None when numbers and weights over [lo, hi] clear the guards,
        else the reason for the first refusal.  The certificate accepts a
        window without a theta value, and ``_window_scan`` decides any
        other; neither forms a number or weight."""
        return None if self._window_certified(lo, hi) else self._window_scan(lo, hi)

    def _window_certified(self, lo: int, hi: int) -> bool:
        """True when ``_Nome.open_factors`` clears every guarded factor C q^m
        over [lo, hi], by log |x| = log |C| + m log |q|, or ``_Nome.certifies``
        each it leaves open; only for p != 0 evaluated by the series.  The
        range bound keeps every argument C q^m of the tables, and every
        product on the way to one, a normal double, as the scan checks."""
        p = self.p
        if p == 0 or abs(p) > SERIES_MAX_NOME:
            return False
        la, lb, lq = (cmath.log(x).real for x in (self.a, self.b, self.q))
        logs = {"1": 0.0, "a": la, "b": lb, "a / b": la - lb}
        slots, _, reach = _window_slots(lo, hi)
        if max(map(abs, logs.values())) + reach * abs(lq) > _LOG_RANGE:
            return False
        nome = _nome_for(self.q, p)
        left = nome.open_factors([logs[c] + m * lq for c, m in slots])
        return not left or nome.certifies(
            [x for i, x in self._window_factors(lo, hi) if i in left])

    def _window_factors(self, lo: int, hi: int) -> list:
        """(i, x) per guarded factor x as the scan forms it, i the index of
        its log in ``_window_certified``."""
        a, b, q = self.a, self.b, self.q
        return [(i, argument(a, b, q, None if z is None else q ** z))
                for i, argument, z in _window_slots(lo, hi)[1]]

    def _window_scan(self, lo: int, hi: int) -> str | None:
        """``window_refusal`` by evaluation: per index the guarded
        denominators of [z] and W(z), refused by ``_finite_den`` as a number
        or weight would be, and at p != 0 a range check of the numerator
        arguments theta would refuse; each refusal names the index z."""
        if self.q == 1:
            return None  # the classical end: [z] = z and W(k) = 1, no guard
        a, b, q = self.a, self.b, self.q
        try:
            for z in range(lo, hi + 1):
                u = _checked_power(q, z)
                if self.p != 0:
                    _check_arguments(z, a, b, q, *[f(a, b, q, u) for f in _NUMERATOR])
                _finite_den(_number_den(u, a, b, self, z), "[{}]", z)
                _finite_den(_weight_den(u, a, b, self, z), "W({})", z)
        except DegenerateParameters as exc:
            return str(exc)
        except DomainError:
            refusal = _refused_argument(z, a, b, q)
            if refusal is None:
                raise
            return refusal
        return None

    def _theta(self, x: complex) -> complex:
        """theta(x; p), memoized per argument; see the module docstring."""
        key = _memo_key(x)
        value = self._theta_cache.get(key)
        if value is None:
            value = self._theta_cache[key] = theta(x, self.p)
        return value


def _memo_key(x: complex):
    """The memo key of x: x itself when both parts are nonzero, where == is
    bit equality; else x with the signs of both parts, so that 0.3+0j and
    0.3-0j, equal under ==, never share an entry."""
    if x.real and x.imag:
        return x
    return (x, math.copysign(1, x.real), math.copysign(1, x.imag))


# The factor tables of [z] and W(z).  Every theta argument is C q^m with
# C in {1, a, b, a / b} and m = alpha z + beta, which depends on z when
# alpha != 0.  A row: name, argument of (a, b, q, u = q^z) in the one
# operation order, C, alpha, beta.
_ROWS = {row[0]: row for row in (
    ("q^z", lambda a, b, q, u: u, "1", 1, 0),
    ("a q^z", lambda a, b, q, u: a * u, "a", 1, 0),
    ("b q", lambda a, b, q, u: b * q, "b", 0, 1),
    ("a q / b", lambda a, b, q, u: a * q / b, "a / b", 0, 1),
    ("q", lambda a, b, q, u: q, "1", 0, 1),
    ("a q", lambda a, b, q, u: a * q, "a", 0, 1),
    ("b q^z", lambda a, b, q, u: b * u, "b", 1, 0),
    ("a q^z / b", lambda a, b, q, u: a * u / b, "a / b", 1, 0),
    ("a q^(2z+1)", lambda a, b, q, u: a * q * u * u, "a", 2, 1),
    ("b", lambda a, b, q, u: b, "b", 0, 0),
    ("a / b", lambda a, b, q, u: a / b, "a / b", 0, 0),
    ("b q^(z+1)", lambda a, b, q, u: b * q * u, "b", 1, 1),
    ("a q^(z+1) / b", lambda a, b, q, u: a * q * u / b, "a / b", 1, 1),
)}
# (numerator, denominator) of [z] and of W(z) / q^z, by row name: the
# theta values of the rows, multiplied left to right
_NUMBER, _WEIGHT = (
    tuple(tuple(_ROWS[name] for name in names.split(", ")) for names in table)
    for table in (("q^z, a q^z, b q, a q / b", "q, a q, b q^z, a q^z / b"),
                  ("a q^(2z+1), b, b q, a / b, a q / b",
                   "a q, b q^z, b q^(z+1), a q^z / b, a q^(z+1) / b")))
# every argument, in the order a refusal looks for one that is 0 or not
# finite; the arguments of the numerators; the guarded factors
_ARGUMENTS = tuple(dict.fromkeys(_NUMBER[0] + _NUMBER[1] + _WEIGHT[0] + _WEIGHT[1]))
_NUMERATOR = tuple(row[1] for row in dict.fromkeys(_NUMBER[0] + _WEIGHT[0]))
_GUARDED = tuple(dict.fromkeys(_NUMBER[1] + _WEIGHT[1]))


def _levels(table: tuple, index: str) -> tuple:
    """(numerator, denominator) of table at p != 0, then at p = 0 with
    a != 0, a = 0 and a = b = 0, whose closed forms leave out the rows with
    a in C, then with a or b in C.  A row is (label, argument): theta(NAME)
    at p != 0, (1 - NAME) with z written as ``index`` at p = 0."""
    return tuple(
        tuple(tuple((f"(1 - {name.replace('z', index)})" if level else f"theta({name})", f)
                    for name, f, constant, _, _ in rows if constant not in left_out)
              for rows in table)
        for level, left_out in enumerate(((), (), ("a", "a / b"), ("a", "b", "a / b"))))


_NUMBER_LEVELS = _levels(_NUMBER, "z")
_WEIGHT_LEVELS = _levels(_WEIGHT, "k")


def _level(params: EllipticParams, a, b) -> int:
    """The index into a table's levels of the shifted (a, b) at params."""
    return 0 if params.p != 0 else 1 if a != 0 else 2 if b != 0 else 3


@functools.lru_cache(maxsize=8)
def _window_slots(lo: int, hi: int) -> tuple:
    """The guarded factors over [lo, hi] as the certificate reads them: the
    distinct (C, m) in order of first appearance, one log |x| each; per
    factor (i, argument, z), i the index of its (C, m) and z None when it
    does not depend on z; and the reach, the largest |m| of any argument.
    Kept per window, as every sampler draw certifies one."""
    slots, factors = {}, []
    for z in (None, *range(lo, hi + 1)):
        for _, argument, constant, alpha, beta in _GUARDED:
            if (z is None) == (alpha == 0):
                m = alpha * (z or 0) + beta
                factors.append((slots.setdefault((constant, m), len(slots)), argument, z))
    reach = max(abs(alpha * z + beta) for *_, alpha, beta in _ARGUMENTS for z in (lo, hi))
    return tuple(slots), tuple(factors), reach


def _guard(value: complex, label: str, z=None) -> complex:
    """value, unless its modulus is below DEFAULT_MIN_DENOMINATOR: then the
    refusal names the factor ``label``, at index ``z`` when one is given."""
    try:
        modulus = abs(value)
    except OverflowError:
        # finite parts whose modulus is past double range: far from small,
        # like an infinite factor; _finite_den refuses the product
        return value
    if modulus < DEFAULT_MIN_DENOMINATOR:
        at = "" if z is None else f" at z = {z}"
        raise DegenerateParameters(
            f"denominator factor {label}{at} has modulus {modulus:.3e} "
            f"< {DEFAULT_MIN_DENOMINATOR:.1e}"
        )
    return value


def _check_arguments(z, a, b, q, *xs) -> None:
    """Raise DegenerateParameters unless every x, a theta argument of [z] or
    W(z), is nonzero and finite, the arguments theta accepts without an
    error; the refusal names the argument."""
    for x in xs:
        if x == 0 or not cmath.isfinite(x):
            raise DegenerateParameters(_refused_argument(z, a, b, q))


def _refused_argument(z, a, b, q) -> str | None:
    """The refusal naming the first theta argument of [z] or W(z) that is 0
    or not finite, or None.  Only asked after a check failed or theta
    raised DomainError, so no evaluation pays for the scan."""
    u = _checked_power(q, z)
    for name, argument, *_ in _ARGUMENTS:
        x = argument(a, b, q, u)
        if x == 0:
            return (f"theta argument {name} at z = {z} underflows to 0, "
                    "outside double range")
        if not cmath.isfinite(x):
            return f"theta argument {name} at z = {z} is {x}, outside double range"
    return None


def _den(levels: tuple, u, a, b, params: EllipticParams, z=None) -> complex:
    """The denominator at u = q^z of the table with these levels: theta(x),
    or 1 - x at p = 0, per factor, each guarded; 1 without factors.  A
    refusal names the index z when one is given."""
    q, th, den, level = params.q, params._theta, None, _level(params, a, b)
    for label, f in levels[level][1]:
        x = f(a, b, q, u)
        x = _guard(1 - x if level else th(x), label, z)
        den = x if den is None else den * x
    return 1 + 0j if den is None else den


# the guarded denominators of [z] (off the classical end) and of W(z),
# called as (u, a, b, params, z=None)
_number_den = functools.partial(_den, _NUMBER_LEVELS)
_weight_den = functools.partial(_den, _WEIGHT_LEVELS)


def _finite_den(den: complex, label: str, z=None) -> complex:
    """The denominator product of a number or weight, refused once it leaves
    double range: a finite numerator over it would come out as an exact 0.
    The refusal names ``label``, formatted with the index z when one is
    given, so no label is built for a finite product."""
    if not cmath.isfinite(den):
        if z is not None:
            label = label.format(z)
        raise DegenerateParameters(f"denominator of {label} is {den}, outside double range")
    return den


def _quotient(levels: tuple, z, u, a, b, params: EllipticParams, label: str):
    """Numerator over denominator at u = q^z for the table with these
    levels, refused by ``_finite_den`` under label; None without numerator
    factors.  At p != 0 the numerator's theta values come first, from
    1 + 0j, so that an argument theta refuses is named before a guard
    trips; at p = 0 the guards come first."""
    level = _level(params, a, b)
    if level:
        den = _finite_den(_den(levels, u, a, b, params), label, z)
    q, th, num = params.q, params._theta, None if level else 1 + 0j
    for _, f in levels[level][0]:
        x = f(a, b, q, u)
        x = 1 - x if level else th(x)
        num = x if num is None else num * x
    if not level:
        den = _finite_den(_den(levels, u, a, b, params), label, z)
    return None if num is None else num / den


def _number_raw(z, a, b, params: EllipticParams) -> complex:
    if params.q == 1:
        return complex(z)  # the classical end, the one place q = 1 is legal
    return _quotient(_NUMBER_LEVELS, z, _checked_power(params.q, z), a, b, params, "[{}]")


def _weight_raw(k, a, b, params: EllipticParams) -> complex:
    u = _checked_power(params.q, k)
    value = _quotient(_WEIGHT_LEVELS, k, u, a, b, params, "W({})")
    return u if value is None else value * u  # W(k) = q^k at p = 0, a = b = 0


def _shifted(cache: dict, raw, z, shift: tuple[int, int], params: EllipticParams) -> complex:
    """raw(z, a q^alpha, b q^beta, params) for shift = (alpha, beta), kept
    in cache; a theta argument that is 0 or not finite is refused by name.
    At p = 0 with a != 0 the guards run first, so a b that is 0 meets the
    division a / b before any theta could refuse it."""
    alpha, beta = shift
    q = params.q
    a = params.a * _checked_power(q, alpha) if alpha else params.a
    b = params.b * _checked_power(q, beta) if beta else params.b
    try:
        value = cache[(alpha, beta, z)] = raw(z, a, b, params)
    except (DomainError, ZeroDivisionError):
        refusal = _refused_argument(z, a, b, q)
        if refusal is None:
            raise
        if shift != (0, 0):
            refusal += f" (base shift {shift})"
        raise DegenerateParameters(refusal) from None
    return value


def elliptic_number_shifted(z, shift: tuple[int, int], params: EllipticParams) -> complex:
    """[z] with parameters (a q^alpha, b q^beta) for shift = (alpha, beta)."""
    alpha, beta = shift
    value = params._num_cache.get((alpha, beta, z))
    return _shifted(params._num_cache, _number_raw, z, shift, params) if value is None else value


def elliptic_number(z, params: EllipticParams) -> complex:
    """The elliptic number [z]_{a,b;q,p}."""
    value = params._num_cache.get((0, 0, z))
    return elliptic_number_shifted(z, (0, 0), params) if value is None else value


def elliptic_weight_shifted(k, shift: tuple[int, int], params: EllipticParams) -> complex:
    """W(k) with parameters (a q^alpha, b q^beta) for shift = (alpha, beta)."""
    alpha, beta = shift
    value = params._wt_cache.get((alpha, beta, k))
    return _shifted(params._wt_cache, _weight_raw, k, shift, params) if value is None else value


def elliptic_weight(k, params: EllipticParams) -> complex:
    """The elliptic weight W_{a,b;q,p}(k)."""
    return elliptic_weight_shifted(k, (0, 0), params)


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------

def sample_annulus(rng: random.Random, lo: float, hi: float) -> complex:
    r = rng.uniform(lo, hi)
    phi = rng.uniform(0.0, _TWO_PI)
    return complex(r * math.cos(phi), r * math.sin(phi))


# the largest size the elliptic tables are checked at
_ROUTE_N = 18


def sample_route_argument(rng: random.Random) -> complex:
    """A theta argument as the routes at size n = _ROUTE_N (18) form it.

    |x| is log-uniform between |q|^(2n+2) m and its inverse, with |q| and
    m = min(|a|, |b|) stand-ins drawn from _SAMPLE_MODULI as the sampler
    draws moduli; the phase is uniform.
    """
    log_lo = (2 * _ROUTE_N + 2) * math.log(rng.uniform(*_SAMPLE_MODULI)) + math.log(
        rng.uniform(*_SAMPLE_MODULI))
    r = math.exp(rng.uniform(log_lo, -log_lo))
    phi = rng.uniform(0.0, _TWO_PI)
    return complex(r * math.cos(phi), r * math.sin(phi))


# the sampling policy: the range of the moduli of q, a, b (and s, t), the
# range of the nome p, the index window a sampled parameter set clears, and
# the draws allowed
_SAMPLE_MODULI = (0.4, 0.9)
_SAMPLE_NOME = (0.05, 0.5)
_SAMPLE_WINDOW = (-8, 10)
_SAMPLE_RETRIES = 100


def sample_elliptic_params(rng: random.Random) -> EllipticParams:
    """Draw generic parameters: p in _SAMPLE_NOME, moduli of q, a, b in
    _SAMPLE_MODULI with random phase.  Resamples (at most _SAMPLE_RETRIES
    times) until every guarded denominator over _SAMPLE_WINDOW clears
    DEFAULT_MIN_DENOMINATOR, every denominator product there is finite,
    and every numerator theta argument there is nonzero and finite
    (``EllipticParams.window_ok``).
    Nearly every draw passes the window's certificate on the moduli of a,
    b and q, which evaluates no theta value; the rest are scanned, at 4
    theta values per index and 2 more.  Either way the returned
    parameters have no number or weight cached.
    """
    for _ in range(_SAMPLE_RETRIES):
        p = rng.uniform(*_SAMPLE_NOME)
        q = sample_annulus(rng, *_SAMPLE_MODULI)
        a = sample_annulus(rng, *_SAMPLE_MODULI)
        b = sample_annulus(rng, *_SAMPLE_MODULI)
        params = EllipticParams(a=a, b=b, q=q, p=p)
        if params.window_ok(*_SAMPLE_WINDOW):
            return params
    raise DegenerateParameters(
        f"no generic parameter tuple found in {_SAMPLE_RETRIES} attempts"
    )
