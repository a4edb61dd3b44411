"""Numeric theta functions, elliptic numbers and elliptic weights.

Everything here is double-precision complex.  The central object is the
multiplicative theta function

    theta(x; p) = prod_{j >= 0} (1 - p^j x) (1 - p^(j+1) / x),

truncated at a policy-controlled order, together with the elliptic number
[z]_{a,b;q,p} and the elliptic weight W_{a,b;q,p}(k) built as quotients of
theta values.  Degenerate parameter chains (p = 0, then a = 0, then b = 0,
finally q = 1) are evaluated through closed forms, never as numeric limits,
so the same entry points cover the elliptic, q-analogue and classical ends
of the lattice.

Every theta factor that lands in a denominator is guarded: a modulus below
``min_denominator`` raises DegenerateParameters naming the factor.  Values
are memoized per parameter set, keyed by the integer (alpha, beta) exponent
pair of the shift a -> a q^alpha, b -> b q^beta.

Two caches sit under those values, and neither changes a result by a
bit: both feed the same operands to the same operations in the same
order as a cold evaluation.  Each parameter set memoizes theta(x; p) per
argument, so no product is evaluated twice for one set; the key carries
the signs of both zero parts, so 0.3+0j and 0.3-0j (equal under ==) never
share an entry, and every miss calls ``theta``.  ``theta`` walks a table
of nome power pairs (p^j, p^(j+1)), built by the recurrence pj *= p and
kept in a bounded cache per (p, truncation order).  Results therefore do
not depend on cache state, and concurrent readers are safe.

Truncation orders above MAX_TRUNCATION_ORDER (|p| above about 0.991 at
the default target_eps) and non-finite parameters raise DomainError, so
no input asks for unbounded work.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import dataclass, field

from .errors import DegenerateParameters, DomainError

__all__ = [
    "ThetaPolicy",
    "EllipticParams",
    "theta",
    "theta_multi",
    "elliptic_number",
    "elliptic_number_shifted",
    "elliptic_weight",
    "elliptic_weight_shifted",
    "sample_annulus",
    "sample_elliptic_params",
    "DEFAULT_MIN_DENOMINATOR",
    "MAX_TRUNCATION_ORDER",
]

DEFAULT_MIN_DENOMINATOR = 1e-6
# Most factors one theta product may take; at the default target_eps this
# admits |p| up to about 0.991.
MAX_TRUNCATION_ORDER = 4096
_TWO_PI = 2 * math.pi


def qpow(base: complex, z) -> complex:
    """base ** z: repeated multiplication for integer z, principal branch else.

    An integer power that leaves double range raises DegenerateParameters.
    """
    if isinstance(z, complex):
        if z.imag == 0:
            z = z.real
        else:
            return cmath.exp(z * cmath.log(base))
    if isinstance(z, float) and z.is_integer():
        z = int(z)
    if isinstance(z, int):
        try:
            return base ** z
        except (ZeroDivisionError, OverflowError):
            raise DegenerateParameters(
                f"{base}^{z} is outside double range") from None
    return cmath.exp(z * cmath.log(base))


@dataclass(frozen=True)
class ThetaPolicy:
    """Truncation policy for theta products.

    The invariant truncation_order >= ceil(log(target_eps) / log(|p|)) keeps
    the dropped tail below target_eps; `for_nome` constructs the smallest
    compliant order but never less than 24 factors.  An order above
    MAX_TRUNCATION_ORDER is refused.
    """

    truncation_order: int
    target_eps: float = 1e-16

    def __post_init__(self):
        if self.truncation_order < 1:
            raise DomainError("truncation order must be positive")
        if self.truncation_order > MAX_TRUNCATION_ORDER:
            raise DomainError(
                f"theta truncation order {self.truncation_order} exceeds the "
                f"limit {MAX_TRUNCATION_ORDER}; use a nome with |p| <= 0.99"
            )
        if not 0 < self.target_eps < 1:
            raise DomainError("target_eps must lie in (0, 1)")

    @classmethod
    def for_nome(cls, p: complex, target_eps: float = 1e-16) -> "ThetaPolicy":
        if not cmath.isfinite(p):
            raise DomainError(f"nome must be finite, got {p}")
        if abs(p) >= 1:
            raise DomainError("nome needs |p| < 1")
        if p == 0:
            return cls(24, target_eps)
        needed = math.ceil(math.log(target_eps) / math.log(abs(p)))
        return cls(max(24, needed), target_eps)


def theta(x: complex, p: complex, policy: ThetaPolicy | None = None) -> complex:
    """Modified Jacobi theta function; exactly 1 - x when p = 0."""
    if x == 0:
        raise DomainError("theta argument must be nonzero")
    if abs(p) >= 1:
        raise DomainError("theta nome needs |p| < 1")
    if p == 0:
        return 1 - x
    if policy is None:
        policy = ThetaPolicy.for_nome(p)
    powers = _nome_powers(
        p, policy.truncation_order, math.copysign(1, p.real), math.copysign(1, p.imag)
    )
    acc = 1 + 0j
    inv = 1 / x
    for pj, pj1 in powers:
        acc *= (1 - pj * x) * (1 - pj1 * inv)
    return acc


@functools.lru_cache(maxsize=16)
def _nome_powers(p: complex, order: int, re_sign: float, im_sign: float) -> tuple:
    """((p^j, p^j * p) for j < order), by the recurrence pj *= p.

    The zero signs are part of the cache key only: p = -0.3+0j and
    -0.3-0j compare equal but give differently signed zero parts.
    """
    powers = []
    pj = 1 + 0j
    for _ in range(order):
        powers.append((pj, pj * p))
        pj *= p
    return tuple(powers)


def theta_multi(xs, p: complex, policy: ThetaPolicy | None = None) -> complex:
    """Product of theta(x; p) over the given arguments (1 for an empty list)."""
    if p != 0 and policy is None:
        policy = ThetaPolicy.for_nome(p)
    acc = 1 + 0j
    for x in xs:
        acc *= theta(x, p, policy)
    return acc


@dataclass(frozen=True, eq=False)
class EllipticParams:
    """Parameter pack (a, b; q, p) for elliptic numbers and weights.

    Generic use requires a, b, q nonzero and |p| < 1.  The degeneration
    chain is first-class: p = 0 with a, b arbitrary; then a = 0 (only with
    p = 0); then b = 0 (only with a = 0); q = 1 is legal only on the fully
    degenerate end, where the closed forms turn into classical integers.
    """

    a: complex
    b: complex
    q: complex
    p: complex
    min_denominator: float = DEFAULT_MIN_DENOMINATOR
    policy: ThetaPolicy | None = None
    _num_cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )
    _wt_cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )
    _theta_cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        for name in ("a", "b", "q", "p"):
            value = complex(getattr(self, name))
            if not cmath.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
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
        if self.policy is None:
            object.__setattr__(self, "policy", ThetaPolicy.for_nome(self.p))

    @property
    def degenerate(self) -> bool:
        return self.p == 0

    def with_ab(self, a: complex | None = None, b: complex | None = None) -> "EllipticParams":
        return EllipticParams(
            a=self.a if a is None else a,
            b=self.b if b is None else b,
            q=self.q,
            p=self.p,
            min_denominator=self.min_denominator,
            policy=self.policy,
        )

    def shifted(self, alpha: int, beta: int) -> "EllipticParams":
        """Replace (a, b) by (a q^alpha, b q^beta)."""
        if alpha == 0 and beta == 0:
            return self
        return self.with_ab(
            self.a * qpow(self.q, alpha), self.b * qpow(self.q, beta)
        )

    def window_ok(self, lo: int, hi: int) -> bool:
        """True when numbers and weights over [lo, hi] clear the guards."""
        try:
            for z in range(lo, hi + 1):
                elliptic_number(z, self)
                elliptic_weight(z, self)
        except DegenerateParameters:
            return False
        return True

    def _theta(self, x: complex) -> complex:
        """theta(x; p), memoized per argument; see the module docstring."""
        key = (x, math.copysign(1, x.real), math.copysign(1, x.imag))
        value = self._theta_cache.get(key)
        if value is None:
            value = self._theta_cache[key] = theta(x, self.p, self.policy)
        return value


def _guard(value: complex, label: str, min_den: float) -> complex:
    if abs(value) < min_den:
        raise DegenerateParameters(
            f"denominator factor {label} has modulus {abs(value):.3e} < {min_den:.1e}"
        )
    return value


def _number_raw(z, a, b, params: EllipticParams) -> complex:
    q, p, min_den = params.q, params.p, params.min_denominator
    if p == 0 and a == 0 and b == 0 and q == 1:
        return complex(z)
    u = qpow(q, z)
    if p == 0:
        if a == 0 and b == 0:
            den = _guard(1 - q, "(1 - q)", min_den)
            return (1 - u) / den
        if a == 0:
            den = _guard(1 - q, "(1 - q)", min_den) * _guard(
                1 - b * u, "(1 - b q^z)", min_den
            )
            return (1 - u) * (1 - b * q) / den
        den = (
            _guard(1 - q, "(1 - q)", min_den)
            * _guard(1 - a * q, "(1 - a q)", min_den)
            * _guard(1 - b * u, "(1 - b q^z)", min_den)
            * _guard(1 - a * u / b, "(1 - a q^z / b)", min_den)
        )
        return (1 - u) * (1 - a * u) * (1 - b * q) * (1 - a * q / b) / den
    th = params._theta
    num = 1 + 0j
    for x in (u, a * u, b * q, a * q / b):
        num *= th(x)
    den = (
        _guard(th(q), "theta(q)", min_den)
        * _guard(th(a * q), "theta(a q)", min_den)
        * _guard(th(b * u), "theta(b q^z)", min_den)
        * _guard(th(a * u / b), "theta(a q^z / b)", min_den)
    )
    return num / den


def _weight_raw(k, a, b, params: EllipticParams) -> complex:
    q, p, min_den = params.q, params.p, params.min_denominator
    u = qpow(q, k)
    if p == 0:
        if a == 0 and b == 0:
            return u
        if a == 0:
            den = _guard(1 - b * u, "(1 - b q^k)", min_den) * _guard(
                1 - b * q * u, "(1 - b q^(k+1))", min_den
            )
            return (1 - b) * (1 - b * q) / den * u
        den = (
            _guard(1 - a * q, "(1 - a q)", min_den)
            * _guard(1 - b * u, "(1 - b q^k)", min_den)
            * _guard(1 - b * q * u, "(1 - b q^(k+1))", min_den)
            * _guard(1 - a * u / b, "(1 - a q^k / b)", min_den)
            * _guard(1 - a * q * u / b, "(1 - a q^(k+1) / b)", min_den)
        )
        num = (
            (1 - a * q * u * u)
            * (1 - b)
            * (1 - b * q)
            * (1 - a / b)
            * (1 - a * q / b)
        )
        return num / den * u
    th = params._theta
    num = 1 + 0j
    for x in (a * q * u * u, b, b * q, a / b, a * q / b):
        num *= th(x)
    den = (
        _guard(th(a * q), "theta(a q)", min_den)
        * _guard(th(b * u), "theta(b q^k)", min_den)
        * _guard(th(b * q * u), "theta(b q^(k+1))", min_den)
        * _guard(th(a * u / b), "theta(a q^k / b)", min_den)
        * _guard(th(a * q * u / b), "theta(a q^(k+1) / b)", min_den)
    )
    return num / den * u


def elliptic_number_shifted(z, shift: tuple[int, int], params: EllipticParams) -> complex:
    """[z] with parameters (a q^alpha, b q^beta) for shift = (alpha, beta)."""
    alpha, beta = shift
    key = (alpha, beta, z)
    cached = params._num_cache.get(key)
    if cached is not None:
        return cached
    q = params.q
    a = params.a * qpow(q, alpha) if alpha else params.a
    b = params.b * qpow(q, beta) if beta else params.b
    value = _number_raw(z, a, b, params)
    params._num_cache[key] = value
    return value


def elliptic_number(z, params: EllipticParams) -> complex:
    """The elliptic number [z]_{a,b;q,p}."""
    return elliptic_number_shifted(z, (0, 0), params)


def elliptic_weight_shifted(k, shift: tuple[int, int], params: EllipticParams) -> complex:
    """W(k) with parameters (a q^alpha, b q^beta) for shift = (alpha, beta)."""
    alpha, beta = shift
    key = (alpha, beta, k)
    cached = params._wt_cache.get(key)
    if cached is not None:
        return cached
    q = params.q
    a = params.a * qpow(q, alpha) if alpha else params.a
    b = params.b * qpow(q, beta) if beta else params.b
    value = _weight_raw(k, a, b, params)
    params._wt_cache[key] = value
    return value


def elliptic_weight(k, params: EllipticParams) -> complex:
    """The elliptic weight W_{a,b;q,p}(k)."""
    return elliptic_weight_shifted(k, (0, 0), params)


# ---------------------------------------------------------------------------
# seeded sampling policy
# ---------------------------------------------------------------------------

def sample_annulus(rng: random.Random, lo: float, hi: float) -> complex:
    r = rng.uniform(lo, hi)
    phi = rng.uniform(0.0, _TWO_PI)
    return complex(r * math.cos(phi), r * math.sin(phi))


def sample_elliptic_params(
    rng: random.Random,
    window: tuple[int, int] = (-8, 10),
    retries: int = 100,
    min_denominator: float = DEFAULT_MIN_DENOMINATOR,
) -> EllipticParams:
    """Draw generic parameters: |p| in [0.05, 0.5], moduli of q, a, b in
    [0.4, 0.9] with random phase.  Resamples (at most `retries` times) until
    every guarded denominator over the index window clears min_denominator.
    """
    for _ in range(retries):
        p = rng.uniform(0.05, 0.5)
        q = sample_annulus(rng, 0.4, 0.9)
        a = sample_annulus(rng, 0.4, 0.9)
        b = sample_annulus(rng, 0.4, 0.9)
        params = EllipticParams(a=a, b=b, q=q, p=p, min_denominator=min_denominator)
        if params.window_ok(*window):
            return params
    raise DegenerateParameters(
        f"no generic parameter tuple found in {retries} attempts"
    )
