"""Theta function and elliptic number/weight layer."""

from __future__ import annotations

import cmath
import hashlib
import importlib
import itertools
import math
import random
import re
import struct

import pytest

from qelliptic.errors import DegenerateParameters, DomainError, QEllipticError
from qelliptic.scalars import _checked_power, q_number
from qelliptic.theta import (
    DEFAULT_MIN_DENOMINATOR,
    MAX_TRUNCATION_ORDER,
    SERIES_MAX_NOME,
    _check_arguments,
    _finite_den,
    _memo_key,
    _nome,
    _number_den,
    _truncation_order,
    _weight_den,
    EllipticParams,
    elliptic_number,
    elliptic_number_shifted,
    elliptic_weight,
    elliptic_weight_shifted,
    sample_annulus,
    sample_elliptic_params,
    sample_route_argument,
    theta,
    theta_multi,
    theta_product,
)


from qelliptic.scalars import residual as rel_err


def fixed_params(seed: int = 0) -> EllipticParams:
    return sample_elliptic_params(random.Random(seed))


# -- theta basics -------------------------------------------------------------


def test_theta_nome_zero_is_exact():
    assert theta(0.3 + 0.4j, 0) == 1 - (0.3 + 0.4j)
    assert theta(2.0, 0) == -1.0


def test_theta_vanishes_at_one():
    assert theta(1.0, 0.3) == 0
    assert theta(1.0, 0) == 0


def test_exact_zeros_on_both_evaluators():
    # theta(1; p) is exactly 0, and so is [0], for nomes on the series and
    # on the product side of SERIES_MAX_NOME
    rng = random.Random(3)
    nomes = [sample_annulus(rng, 0.05, 0.95) for _ in range(40)] + [0.3, -0.7]
    for p in nomes:
        for x in (1.0, complex(1.0, -0.0)):
            assert theta(x, p) == 0, (x, p)
            assert theta_product(x, p) == 0, (x, p)
    for _ in range(25):
        params = sample_elliptic_params(rng)
        assert elliptic_number(0, params) == 0
        assert elliptic_number_shifted(0, (3, -2), params) == 0


def test_theta_domain_errors():
    with pytest.raises(DomainError):
        theta(0, 0.2)
    with pytest.raises(DomainError):
        theta(0.5, 1.0)
    with pytest.raises(DomainError):
        theta(0.5, 1.3)


def test_truncation_order_rule():
    # max(24, ceil(log 1e-16 / log |p|)) factors, 24 at p = 0 and wherever
    # 24 factors already reach 1e-16
    for p in (0.5, complex(-0.3, 0.6), 0.9, 0.99, -0.05):
        order = _nome_entry(p).order
        assert order == max(24, math.ceil(math.log(1e-16) / math.log(abs(p)))), p
    assert _nome_entry(0.5).order == 54
    assert _nome_entry(0.05).order == 24
    assert _nome_entry(0.2).order == 24
    assert _truncation_order(0) == 24


def test_theta_inversion_frozen_example():
    # theta(2; 0.1) = -2 * theta(1/2; 0.1)
    assert rel_err(theta(2.0, 0.1), -2 * theta(0.5, 0.1)) < 1e-13


def test_theta_multi():
    assert theta_multi([], 0.3) == 1
    assert theta_multi([1.0, 0.5], 0.3) == 0
    xs = [0.7 + 0.1j, 1.4 - 0.2j, 0.9j]
    prod = theta(xs[0], 0.25) * theta(xs[1], 0.25) * theta(xs[2], 0.25)
    assert rel_err(theta_multi(xs, 0.25), prod) < 1e-14


@pytest.mark.parametrize("identity", ["inversion", "quasi_periodicity", "three_term"])
def test_theta_identities_random(identity):
    rng = random.Random(42)
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(0.05, 0.5)
        if identity == "inversion":
            x = sample_annulus(rng, 0.3, 1.8)
            err = rel_err(theta(x, p), -x * theta(1 / x, p))
        elif identity == "quasi_periodicity":
            x = sample_annulus(rng, 0.3, 1.8)
            err = rel_err(theta(p * x, p), -(1 / x) * theta(x, p))
        else:
            x, y, u, z = (sample_annulus(rng, 0.45, 1.5) for _ in range(4))
            lhs = theta_multi([x * y, x / y, u * z, u / z], p)
            t1 = theta_multi([u * y, u / y, x * z, x / z], p)
            t2 = (x / z) * theta_multi([z * y, z / y, u * x, u / x], p)
            err = rel_err(lhs, t1 + t2, t1, t2)
        worst = max(worst, err)
    assert worst <= 1e-9


# -- parameter packs -----------------------------------------------------------


def test_params_validation():
    with pytest.raises(DomainError):
        EllipticParams(a=0.5, b=0.5, q=0, p=0.1)
    with pytest.raises(DomainError):
        EllipticParams(a=0.5, b=0.5, q=0.5, p=1.2)
    with pytest.raises(DomainError):
        EllipticParams(a=0, b=0.5, q=0.5, p=0.1)
    with pytest.raises(DomainError):
        EllipticParams(a=0.5, b=0, q=0.5, p=0)
    with pytest.raises(DomainError):
        EllipticParams(a=0.5, b=0.5, q=1, p=0)
    # legal degenerate packs
    EllipticParams(a=0, b=0.5, q=0.5, p=0)
    EllipticParams(a=0, b=0, q=0.5, p=0)
    EllipticParams(a=0, b=0, q=1, p=0)


@pytest.mark.parametrize("kwargs,message", [
    (dict(a=0.5, b=0.5, q=0, p=0.1), "q must be nonzero"),
    (dict(a=0.5, b=0.5, q=0.5, p=1.2), r"nome needs \|p\| < 1"),
    (dict(a=0, b=0.5, q=0.5, p=0.1), "a = 0 or b = 0 requires p = 0 first"),
    (dict(a=0.5, b=0, q=0.5, p=0), "b = 0 requires a = 0 first"),
    (dict(a=0.5, b=0.5, q=1, p=0), "q = 1 is only legal on the fully degenerate chain"),
    (dict(a=0.5, b=math.inf, q=0.5, p=0), r"b must be finite, got \(inf\+0j\)"),
])
def test_params_validation_messages(kwargs, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        EllipticParams(**kwargs)


def test_params_are_frozen_and_equal_only_to_themselves():
    params = EllipticParams(a=0.5, b=0.7, q=0.6, p=0.2)
    twin = EllipticParams(0.5, 0.7, 0.6, 0.2)
    assert (params.a, params.b, params.q, params.p) == (0.5, 0.7, 0.6, 0.2)
    assert all(type(x) is complex for x in (params.a, params.b, params.q, params.p))
    assert repr(params) == repr(twin) == (
        "EllipticParams(a=(0.5+0j), b=(0.7+0j), q=(0.6+0j), p=(0.2+0j))")
    assert repr(EllipticParams(a=0, b=0, q=1, p=0)) == (
        "EllipticParams(a=0j, b=0j, q=(1+0j), p=0j)")
    # each pack owns its caches, so equal values are still two keys
    assert params == params and params != twin
    assert len({params, twin, params}) == 2
    assert hash(params) == object.__hash__(params)
    elliptic_number(3, params)
    assert params._num_cache and not twin._num_cache
    for name in ("a", "p", "_num_cache", "other"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(params, name, 0.1)
    with pytest.raises(AttributeError, match="^cannot delete field 'q'$"):
        del params.q
    assert params.a == 0.5 and params._num_cache


def test_sampling_is_deterministic():
    p1 = fixed_params(9)
    p2 = fixed_params(9)
    assert (p1.a, p1.b, p1.q, p1.p) == (p2.a, p2.b, p2.q, p2.p)
    assert p1.window_ok(-6, 8)


def test_degenerate_guard_trips():
    params = EllipticParams(a=0, b=0, q=1 + 1e-9, p=0)
    with pytest.raises(DegenerateParameters):
        elliptic_number(2, params)


# -- elliptic numbers -----------------------------------------------------------


def test_number_trivial_values():
    params = fixed_params(1)
    assert elliptic_number(0, params) == 0
    assert elliptic_number(1, params) == 1


def test_number_degeneration_chain():
    q = 0.62 + 0.18j
    full = EllipticParams(a=0.5 - 0.2j, b=0.7 + 0.1j, q=q, p=0)
    a0 = EllipticParams(a=0, b=0.7 + 0.1j, q=q, p=0)
    b0 = EllipticParams(a=0, b=0, q=q, p=0)
    for z in range(-4, 7):
        expect = q_number(z).evaluate(q)
        # p = 0 keeps the a, b dependence; a = 0 then b = 0 peel it off
        assert rel_err(elliptic_number(z, b0), expect) < 1e-12
        got_a0 = elliptic_number(z, a0)
        expect_a0 = (1 - q ** z) * (1 - (0.7 + 0.1j) * q) / (
            (1 - q) * (1 - (0.7 + 0.1j) * q ** z)
        )
        assert rel_err(got_a0, expect_a0) < 1e-12
        assert elliptic_number(z, full) == elliptic_number(z, full)  # cached
    classical = EllipticParams(a=0, b=0, q=1, p=0)
    assert elliptic_number(3, classical) == 3
    assert elliptic_weight(5, classical) == 1


def test_addition_identity_integer_args():
    # [y + z] = [y] + W(y) [z] with (a, b) -> (a q^(2y), b q^y)
    rng = random.Random(7)
    worst = 0.0
    trials = 0
    while trials < 60:
        params = sample_elliptic_params(rng)
        y = rng.randint(-4, 5)
        z = rng.randint(-4, 5)
        try:
            lhs = elliptic_number(y + z, params)
            first = elliptic_number(y, params)
            second = elliptic_weight(y, params) * elliptic_number_shifted(
                z, (2 * y, y), params
            )
        except DegenerateParameters:
            continue
        worst = max(worst, rel_err(lhs, first + second, first, second))
        trials += 1
    assert worst <= 1e-9


def test_addition_identity_real_args():
    params = fixed_params(3)
    y, z = 0.5, 1.25
    lhs = elliptic_number(y + z, params)
    w = elliptic_weight(y, params)
    shifted = EllipticParams(
        a=params.a * params.q ** 1.0, b=params.b * params.q ** 0.5,
        q=params.q, p=params.p,
    )
    rhs = elliptic_number(y, params) + w * elliptic_number(z, shifted)
    assert rel_err(lhs, rhs) < 1e-9


def test_negation_identity():
    # [-k] = -W(-1) [k] with (a, b) -> (1/a, b/a)
    rng = random.Random(13)
    worst = 0.0
    trials = 0
    while trials < 60:
        params = sample_elliptic_params(rng)
        k = rng.randint(1, 6)
        try:
            recip = params.with_ab(1 / params.a, params.b / params.a)
            lhs = elliptic_number(-k, params)
            rhs = -elliptic_weight(-1, params) * elliptic_number(k, recip)
        except DegenerateParameters:
            continue
        worst = max(worst, rel_err(lhs, rhs))
        trials += 1
    assert worst <= 1e-9


def test_ellipticity_in_a_and_b():
    rng = random.Random(23)
    worst = 0.0
    trials = 0
    while trials < 40:
        params = sample_elliptic_params(rng)
        z = rng.randint(-3, 5)
        try:
            base = elliptic_number(z, params)
            in_a = elliptic_number(z, params.with_ab(a=params.p * params.a))
            in_b = elliptic_number(z, params.with_ab(b=params.p * params.b))
        except DegenerateParameters:
            continue
        worst = max(worst, rel_err(base, in_a), rel_err(base, in_b))
        trials += 1
    assert worst <= 1e-9


# -- elliptic weights -----------------------------------------------------------


def test_weight_at_zero_is_one():
    params = fixed_params(4)
    assert elliptic_weight(0, params) == 1
    degenerate = EllipticParams(a=0.4, b=0.6, q=0.7 + 0.1j, p=0)
    assert elliptic_weight(0, degenerate) == 1


def test_weight_degeneration_chain():
    q = 0.55 - 0.2j
    b0 = EllipticParams(a=0, b=0, q=q, p=0)
    assert rel_err(elliptic_weight(4, b0), q ** 4) < 1e-14
    a0 = EllipticParams(a=0, b=0.3 + 0.2j, q=q, p=0)
    b = 0.3 + 0.2j
    expect = (1 - b) * (1 - b * q) / ((1 - b * q ** 4) * (1 - b * q ** 5)) * q ** 4
    assert rel_err(elliptic_weight(4, a0), expect) < 1e-13


def test_weight_shift_identity():
    # W(k + j) = W(j) * W(k) with (a, b) -> (a q^(2j), b q^j)
    rng = random.Random(31)
    worst = 0.0
    trials = 0
    while trials < 60:
        params = sample_elliptic_params(rng)
        k = rng.randint(-3, 5)
        j = rng.randint(-3, 5)
        try:
            lhs = elliptic_weight(k + j, params)
            rhs = elliptic_weight(j, params) * elliptic_weight_shifted(
                k, (2 * j, j), params
            )
        except DegenerateParameters:
            continue
        worst = max(worst, rel_err(lhs, rhs))
        trials += 1
    assert worst <= 1e-9


def test_weight_shift_frozen_example():
    params = fixed_params(5)
    lhs = elliptic_weight(5, params)
    rhs = elliptic_weight(3, params) * elliptic_weight_shifted(2, (6, 3), params)
    assert rel_err(lhs, rhs) < 1e-10


def test_shifted_params_equal_explicit_construction():
    params = fixed_params(6)
    q = params.q
    moved = params.with_ab(params.a * q * q, params.b * q)
    for z in range(-2, 4):
        direct = elliptic_number_shifted(z, (2, 1), params)
        assert rel_err(direct, elliptic_number(z, moved)) < 1e-12


# -- truncation cap and non-finite input ------------------------------------------


def test_truncation_order_cap():
    assert _nome_entry(0.99).order <= MAX_TRUNCATION_ORDER
    EllipticParams(a=0.5, b=0.7, q=0.6, p=0.99)
    for p in (0.99999, 0.992j, -0.999999):
        order = math.ceil(math.log(1e-16) / math.log(abs(p)))
        assert order > MAX_TRUNCATION_ORDER
        want = (f"theta truncation order {order} exceeds the limit "
                f"{MAX_TRUNCATION_ORDER}; use a nome with |p| <= 0.99")
        for refused in (lambda: theta(0.5, p), lambda: theta_product(0.5, p),
                        lambda: theta_multi([], p),
                        lambda: EllipticParams(a=0.5, b=0.7, q=0.6, p=p)):
            with pytest.raises(DomainError) as exc:
                refused()
            assert str(exc.value) == want, p


@pytest.mark.parametrize("p", [1.0, -1.0, 2.0, 1j, 1e300])
def test_nome_outside_unit_disc_rejected(p):
    with pytest.raises(DomainError, match=r"^nome needs \|p\| < 1$"):
        EllipticParams(a=0.5, b=0.7, q=0.6, p=p)
    with pytest.raises(DomainError, match=r"^nome needs \|p\| < 1$"):
        theta_multi([0.5], p)
    for evaluate in (theta, theta_product):
        with pytest.raises(DomainError, match=r"^nome needs \|p\| < 1$"):
            evaluate(0.5, p)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.2, math.nan)])
def test_non_finite_parameters_rejected(bad):
    with pytest.raises(DomainError, match=r"^nome must be finite, got "):
        theta_multi([0.5], bad)
    with pytest.raises(DomainError, match=r"^nome must be finite, got "):
        theta(0.5, bad)
    good = dict(a=0.5, b=0.7, q=0.6, p=0.2)
    for name in good:
        with pytest.raises(DomainError, match="finite"):
            EllipticParams(**{**good, name: bad})


# -- bit identity of the cached evaluation ------------------------------------------


def _reference(kind, z, shift, params):
    """[z] or W(z), every theta factor from a fresh theta() call, in the
    same order as the memoized evaluation."""
    q, p = params.q, params.p
    alpha, beta = shift
    a = params.a * _checked_power(q, alpha) if alpha else params.a
    b = params.b * _checked_power(q, beta) if beta else params.b
    u = _checked_power(q, z)
    if kind == "number":
        num_args = [u, a * u, b * q, a * q / b]
        den_args = [q, a * q, b * u, a * u / b]
    else:
        num_args = [a * q * u * u, b, b * q, a / b, a * q / b]
        den_args = [a * q, b * u, b * q * u, a * u / b, a * q * u / b]
    num = 1 + 0j
    for x in num_args:
        num *= theta(x, p)
    den = None
    for x in den_args:
        value = theta(x, p)
        if abs(value) < DEFAULT_MIN_DENOMINATOR:
            raise DegenerateParameters(f"theta({x}) near zero")
        den = value if den is None else den * value
    return num / den if kind == "number" else num / den * u


def _same_bits(x, y):
    # struct bytes, so signed zeros differ and a NaN matches its own bits
    x, y = complex(x), complex(y)
    return struct.pack("<dd", x.real, x.imag) == struct.pack("<dd", y.real, y.imag)


_SHIFTS = [(0, 0), (1, 0), (0, 1), (-1, 2), (3, -2)]
_ENTRY = {"number": elliptic_number_shifted, "weight": elliptic_weight_shifted}


def _assert_bit_identical(params):
    compared = 0
    # weights first and z descending, so the memo is warmed in another order
    # than a number-first sweep would warm it
    for kind in ("weight", "number"):
        for shift in _SHIFTS:
            for z in range(10, -9, -1):
                try:
                    want = _reference(kind, z, shift, params)
                except DegenerateParameters:
                    with pytest.raises(DegenerateParameters):
                        _ENTRY[kind](z, shift, params)
                    continue
                got = _ENTRY[kind](z, shift, params)
                assert _same_bits(got, want), (kind, z, shift, got, want)
                compared += 1
    return compared


def _nome_entry(p):
    return _nome(p, math.copysign(1, p.real), math.copysign(1, p.imag))


def test_nome_cache_is_bit_identical_to_a_fresh_build():
    # the per-nome constants and the lazily grown power table give the
    # same bits whatever the cache held before, including a table grown
    # by a far argument first
    rng = random.Random(11)
    nomes = [complex(-0.3, 0.0), complex(-0.3, -0.0), complex(0.25, -0.0), 0.4,
             complex(0.8, -0.0), -0.95]
    nomes += [sample_annulus(rng, 0.05, 0.5) for _ in range(20)]
    xs = [0.7, complex(-0.6, -0.0), 1e-9, complex(3e7, -0.0)]
    xs += [sample_route_argument(rng) for _ in range(5)]
    for p in nomes:
        _nome.cache_clear()
        warm = [theta(x, p) for x in reversed(xs)][::-1]
        entry = _nome_entry(p)
        _nome.cache_clear()
        fresh = _nome_entry(p)
        assert fresh is not entry
        assert (fresh.terms is None) == (abs(p) > SERIES_MAX_NOME)
        for got, want in zip(entry.terms or (), fresh.terms or ()):
            assert _same_bits(got, want), p
        if fresh.inv_euler is not None:
            assert _same_bits(entry.inv_euler, fresh.inv_euler), p
        for x, value in zip(xs, warm):
            assert _same_bits(theta(x, p), value), (x, p)
        table = entry.powers(60)
        assert all(_same_bits(s, t) for s, t in zip(fresh.powers(60), table))


def _pinned_arguments():
    rng = random.Random(41)
    xs = [sample_route_argument(rng) for _ in range(30)]
    xs += [complex(x.real, -0.0) for x in xs[:4]]
    xs += [complex(-0.0, x.imag) for x in xs[4:8]]
    xs += [complex(0.7, -0.0), complex(-0.0, -1.3), complex(-2.5, 0.0),
           1.0, complex(1.0, -0.0)]
    return xs


# sha256 prefixes of the struct bytes of theta and theta_product over
# _pinned_arguments, recorded from the evaluator with separate reduce,
# series or product, and undo steps; four nomes above SERIES_MAX_NOME
@pytest.mark.parametrize("p,digest", [
    (complex(0.3, -0.0), "6cf055a8a5867651"),
    (complex(-0.45, 0.0), "93d5480781f70234"),
    (complex(-0.0, 0.5), "27b46aa51c4ae2c0"),
    (0.05, "77170001d1315fc2"),
    (complex(0.21, -0.37), "36c0b84ff52c0307"),
    (complex(0.8, -0.0), "2d29eec1d3a62d41"),
    (-0.95, "64d73483718273c7"),
    (complex(-0.0, -0.7), "6ac918410cd0ca23"),
    (complex(0.5, 0.55), "e541e09c6122f69b"),
])
def test_theta_bits_are_pinned(p, digest):
    sha = hashlib.sha256()
    for x in _pinned_arguments():
        for evaluate in (theta, theta_product):
            value = evaluate(x, p)
            sha.update(struct.pack("<dd", value.real, value.imag))
    assert sha.hexdigest()[:16] == digest


def test_nome_resolution_follows_the_object_passed():
    # the last p resolved is reused only for the same object: an equal p
    # with the other zero sign, an equal p in another object, or p = 0 in
    # between each give the values of a fresh resolution
    plus, minus = complex(-0.3, 0.0), complex(-0.3, -0.0)
    again = complex(-0.3, 0.0)
    assert again is not plus
    xs = _pinned_arguments()[:12]
    cases = [plus, minus, again, 0]
    want = []
    for p in cases:
        _nome.cache_clear()
        want.append([theta(x, p) for x in xs])
    for i, x in enumerate(xs):
        for c in (2, 3, 1, 0):
            p = cases[c]
            assert _same_bits(theta(x, p), want[c][i]), (x, p)
            assert importlib.import_module("qelliptic.theta")._last_nome[0] is p
    with pytest.raises(DomainError):
        theta(0.5, complex(1.5, 0.0))
    with pytest.raises(DegenerateParameters):
        theta(complex(math.inf, 0.0), minus)


def test_caches_keep_signed_zeros_apart():
    # -0.3+0j == -0.3-0j: one nome entry each, and a value comes out with
    # the same bits whichever of the two built its entry
    _nome.cache_clear()
    plus, minus = complex(-0.3, 0.0), complex(-0.3, -0.0)
    assert _nome_entry(plus) is not _nome_entry(minus)
    x = complex(0.4, 0.2)
    warm = theta(x, minus)
    _nome.cache_clear()
    assert _same_bits(theta(x, minus), warm)
    # q ** 1 is 0.6+0j for q = 0.6-0j: two memo entries, not one
    params = EllipticParams(a=0.5, b=0.7, q=complex(0.6, -0.0), p=0.2)
    elliptic_number(1, params)
    signs = {math.copysign(1, x.imag) for x, _, _ in params._theta_cache if x == 0.6}
    assert signs == {1.0, -1.0}


def test_memo_keys_keep_signed_zeros_apart():
    # an argument with two nonzero parts is its own key; one with a zero
    # part carries the signs of both, so x == y does not merge the entries
    params = EllipticParams(a=0.5, b=0.7, q=0.6, p=0.2)
    xs = [complex(0.6, 0.0), complex(0.6, -0.0),
          complex(0.0, 0.6), complex(-0.0, 0.6), complex(0.6, 0.1)]
    assert _memo_key(xs[-1]) == xs[-1]
    for x in xs:
        assert _same_bits(params._theta(x), theta(x, params.p))
    assert len(params._theta_cache) == len(xs)
    for x in xs:
        assert _same_bits(params._theta_cache[_memo_key(x)], theta(x, params.p))


def test_cached_numbers_and_weights_bit_identical_complex():
    rng = random.Random(2024)
    for _ in range(6):
        params = sample_elliptic_params(rng)
        assert _assert_bit_identical(params) > 100


@pytest.mark.parametrize("a,b,q,p", [
    (complex(0.5, -0.0), 0.7, complex(0.6, -0.0), 0.2),
    (-0.5, complex(0.7, -0.0), -0.6, complex(-0.3, -0.0)),
    (complex(0.45, -0.0), -0.8, complex(0.55, -0.0), complex(-0.25, -0.0)),
])
def test_cached_numbers_and_weights_bit_identical_real(a, b, q, p):
    assert _assert_bit_identical(EllipticParams(a=a, b=b, q=q, p=p)) > 100


def test_theta_memo_is_per_parameter_set():
    one = EllipticParams(a=0.5 + 0.1j, b=0.7, q=0.6 - 0.2j, p=0.2)
    two = EllipticParams(a=0.5 + 0.1j, b=0.7, q=0.6 - 0.2j, p=0.3)
    for z in range(-3, 5):
        elliptic_number(z, one)
        elliptic_weight(z, two)
    shared = one._theta_cache.keys() & two._theta_cache.keys()
    assert shared
    assert all(one._theta_cache[key] != two._theta_cache[key] for key in shared)
    assert _assert_bit_identical(one) and _assert_bit_identical(two)


# -- the sampler's window --------------------------------------------------------


def _full_window(params, lo=-8, hi=10):
    """The oracle for window_ok: every number and weight over [lo, hi]
    evaluated in full, on a fresh copy of params; False when a guard trips."""
    params = params.with_ab()
    try:
        for z in range(lo, hi + 1):
            elliptic_number(z, params)
            elliptic_weight(z, params)
    except DegenerateParameters:
        return False
    return True


def _near_zero(rng, a, b, q, unit):
    """(a, b, q) with one guarded argument moved next to a zero at unit:
    q, a q, b q^z0 or a q^z0 / b set to unit (1 + delta), z0 in [-8, 11]
    (the weight guards b q^(k+1) and a q^(k+1) / b up to k + 1 = 11), and
    |delta| log-uniform in [1e-9, 1e-4], so that the window goes both ways."""
    size = 10 ** rng.uniform(-9, -4)
    near = unit * (1 + sample_annulus(rng, size, size))
    z0 = rng.randint(-8, 11)
    target = rng.randrange(4)
    if target == 0:
        return a, b, near
    if target == 1:
        return near / q, b, q
    if target == 2:
        return a, near * _checked_power(q, -z0), q
    return near * b * _checked_power(q, -z0), b, q


def _near_zero_draws(seed, count):
    """Draws from the sampler's distribution, every second one moved next
    to a zero p^k of theta."""
    rng = random.Random(seed)
    for i in range(count):
        p = rng.uniform(0.05, 0.5)
        q, a, b = (sample_annulus(rng, 0.4, 0.9) for _ in range(3))
        if i % 2:
            a, b, q = _near_zero(rng, a, b, q, p ** rng.randint(-1, 1))
        yield EllipticParams(a=a, b=b, q=q, p=p)


def test_window_matches_full_evaluation():
    # draws not filtered by the window
    outcomes = set()
    for params in _near_zero_draws(17, 2000):
        ok = params.window_ok(-8, 10)
        assert ok == _full_window(params), params
        outcomes.add(ok)
    assert outcomes == {True, False}


def test_window_matches_full_evaluation_on_the_p0_chain():
    rng = random.Random(18)
    outcomes = set()
    for _ in range(300):
        q, a, b = (sample_annulus(rng, 0.4, 0.9) for _ in range(3))
        a_, b_, q_ = _near_zero(rng, a, b, q, 1)
        for case in [(0, 0, q), (0, 0, q_), (0, 0, 1), (0, b, q), (0, b_, q_),
                     (a, b, q), (a_, b_, q_)]:
            params = EllipticParams(*case, p=0)
            ok = params.window_ok(-8, 10)
            assert ok == _full_window(params), case
            outcomes.add(ok)
    assert outcomes == {True, False}


def _per_call_window(params, lo=-8, hi=10):
    """window_ok as one _number_den and one _weight_den call per index,
    each product refused once it is not finite: the order in which the
    window must first ask for each factor, and the verdict it must give."""
    if params.q == 1:
        return True
    a, b, q = params.a, params.b, params.q
    try:
        if params.p != 0:
            _check_arguments(lo, a, b, q, b * q, a * q / b, b, a / b)
        for z in range(lo, hi + 1):
            u = _checked_power(q, z)
            if params.p != 0:
                _check_arguments(z, a, b, q, u, a * u, a * q * u * u)
            _finite_den(_number_den(u, a, b, params), f"[{z}]")
            _finite_den(_weight_den(u, a, b, params), f"W({z})")
    except DegenerateParameters:
        return False
    except DomainError:
        # theta refuses a denominator argument that underflowed to 0, and
        # the window refuses the index with it
        if all(x != 0 for x in (q, a * q, b * u, a * u / b, b * q * u, a * q * u / b)):
            raise
        return False
    return True


def _window_run(window, params):
    """The verdict or the escaping exception, and the theta memo in
    insertion order with struct-packed values, of one window on a copy
    with empty caches."""
    params = params.with_ab()
    try:
        verdict = window(params, -8, 10)
    except (QEllipticError, ArithmeticError) as exc:
        verdict = (type(exc).__name__, str(exc))
    memo = [(key, struct.pack("<dd", v.real, v.imag))
            for key, v in params._theta_cache.items()]
    return verdict, memo


def _edge_packs():
    """Parameter sets the CLI builds from one or two extreme flags and the
    sampler's draws for the rest: a q, b u or a u / b that leaves double
    range, so which factor the window asks for first decides between a
    refusal and an escaping DomainError."""
    rng = random.Random(23)
    extremes = [1e-320, 1e-300, 1e-30, 1e-3, 1e3, 1e30, 1e300]
    for flags in (("a",), ("b",), ("q",), ("a", "b"), ("a", "q"), ("b", "q")):
        for values in itertools.product(extremes, repeat=len(flags)):
            for _ in range(2):
                draw = dict(a=sample_annulus(rng, 0.4, 0.9),
                            b=sample_annulus(rng, 0.4, 0.9),
                            q=sample_annulus(rng, 0.4, 0.9),
                            p=complex(rng.uniform(0.05, 0.5)))
                draw.update(zip(flags, map(complex, values)))
                yield EllipticParams(**draw)


def _scan_ok(params, lo, hi):
    """window_ok by the exhaustive scan alone, without the certificate."""
    return params._window_scan(lo, hi) is None


def test_window_asks_for_each_factor_in_per_call_order():
    # the scan's verdicts, escaping exceptions and memo contents (keys,
    # value bits and insertion order) equal those of one _number_den and
    # one _weight_den call per index, on the sampler's draws, draws moved
    # next to a zero, and the CLI edge packs; a certified window leaves
    # the memo empty, so the order is the scan's.  The window's verdict or
    # exception is the same, and equals the full evaluation's.  On some
    # edge packs a theta argument underflows to 0, which both refuse
    cases = list(_near_zero_draws(21, 300)) + list(_edge_packs())
    outcomes = set()
    for params in cases:
        got = _window_run(_scan_ok, params)
        assert got == _window_run(_per_call_window, params), params
        verdict = got[0]
        assert _window_run(EllipticParams.window_ok, params)[0] == verdict, params
        assert verdict == _full_window(params), params
        outcomes.add(verdict)
    assert outcomes == {True, False}


def test_window_decides_finiteness_in_denominator_product_order():
    # theta values planted in the memo: moduli from 1e-5 to 1e3, and at
    # one index z0 each u-dependent factor near 1e150 half of the time, so
    # that a product leaves double range at one partial product and not at
    # another.  The scan must multiply in the order of _number_den and
    # _weight_den to refuse exactly what they refuse.  A bound on the true
    # theta cannot see planted values, so the scan runs without the
    # certificate
    rng = random.Random(27)
    outcomes = set()
    for _ in range(300):
        params = sample_elliptic_params(rng)
        a, b, q = params.a, params.b, params.q
        z0 = rng.randint(-8, 10)
        planted = {}
        for z in range(-8, 11):
            u = _checked_power(q, z)
            for x in (q, a * q, b * u, a * u / b, b * q * u, a * q * u / b):
                big = z == z0 and x not in (q, a * q) and rng.random() < 0.5
                size = 10 ** (rng.uniform(145, 160) if big else rng.uniform(-5, 3))
                planted.setdefault(_memo_key(x), sample_annulus(rng, size, size))
        verdicts = []
        for window in (_scan_ok, _per_call_window):
            fresh = params.with_ab()
            fresh._theta_cache.update(planted)
            verdicts.append(window(fresh, -8, 10))
        assert verdicts[0] == verdicts[1], params
        outcomes.add(verdicts[0])
    assert outcomes == {True, False}


def test_window_refuses_a_denominator_product_past_double_range():
    # b = 1e-300: every factor clears the guard, but theta(b q^z) is so
    # large that the product of [z]'s denominator is not finite, which
    # every later use of [z] refuses
    params = EllipticParams(a=0.5 + 0.3j, b=1e-300, q=0.6 - 0.4j, p=0.2)
    assert not params.window_ok(-8, 10)
    assert not _full_window(params)
    with pytest.raises(DegenerateParameters, match="outside double range"):
        elliptic_number(0, params)


def test_theta_argument_underflow_is_a_named_degeneracy():
    # a q^2 = 1e-320 at base shift (2, 0), so theta(a q / b) of [0] is asked
    # for at 0, which theta refuses as a domain error of its own
    params = EllipticParams(a=1e-300, b=0.5, q=1e-10, p=0.2)
    message = (r"theta argument a q / b at z = 0 underflows to 0, outside "
               r"double range \(base shift \(2, 0\)\)")
    with pytest.raises(DegenerateParameters, match=message):
        elliptic_number_shifted(0, (2, 0), params)
    with pytest.raises(DegenerateParameters, match=message):
        elliptic_weight_shifted(0, (2, 0), params)
    with pytest.raises(DomainError):
        theta(0, 0.2)
    # the window names a denominator argument that underflows
    window = EllipticParams(a=0.5, b=1e300, q=1000, p=0.2)
    assert not window.window_ok(-8, 10)
    assert window.window_refusal(-8, 10) == (
        "theta argument a q^z / b at z = -8 underflows to 0, outside double range")
    assert EllipticParams(a=0.5, b=0.6, q=0.7, p=0.2).window_refusal(-8, 10) is None


@pytest.mark.parametrize("p", [0.2, 0])
def test_a_shifted_b_that_underflows_is_named(p):
    # b q^3 = 1e-330 is 0 at base shift (0, 3): theta(b q) refuses it before
    # the numerator divides by b, for the number and the weight alike; at
    # p = 0 the guards come first, and their division a q^z / b by the
    # shifted b = 0 is refused under the same name
    params = EllipticParams(a=0.5, b=1e-300, q=1e-10, p=p)
    message = (r"theta argument b q at z = 0 underflows to 0, outside double "
               r"range \(base shift \(0, 3\)\)")
    for entry in (elliptic_number_shifted, elliptic_weight_shifted):
        with pytest.raises(DegenerateParameters, match=message):
            entry(0, (0, 3), params)


def test_window_evaluates_only_the_guarded_factors():
    # per index the scan memoizes theta(b q^k), theta(a q^k / b),
    # theta(b q^(k+1)) and theta(a q^(k+1) / b), plus theta(q) and theta(a q)
    # once; it forms no number or weight, and leaves the values to come
    # with the bits of a parameter set that never ran it
    rng = random.Random(19)
    for _ in range(20):
        # copies with empty caches: the sampler ran the window on its draw
        params = sample_elliptic_params(rng)
        fresh = params.with_ab()
        params = params.with_ab()
        assert params._window_scan(-8, 10) is None
        assert 0 < len(params._theta_cache) <= 4 * 19 + 2
        assert not params._num_cache and not params._wt_cache
        for kind in ("number", "weight"):
            for shift in _SHIFTS:
                for z in range(-8, 11):
                    got = _ENTRY[kind](z, shift, params)
                    assert _same_bits(got, _ENTRY[kind](z, shift, fresh)), (kind, z, shift)


# -- the window's certificate ------------------------------------------------------


def _certificate_cases():
    """The near-zero draws, the CLI edge packs, complex p, and p just
    above and below SERIES_MAX_NOME."""
    yield from _near_zero_draws(31, 600)
    yield from _edge_packs()
    rng = random.Random(37)
    for i in range(300):
        modulus = (SERIES_MAX_NOME * (1 + 1e-12), SERIES_MAX_NOME,
                   SERIES_MAX_NOME * (1 - 1e-12), rng.uniform(0.05, 0.6))[i % 4]
        p = sample_annulus(rng, modulus, modulus) if i % 3 else complex(modulus)
        q, a, b = (sample_annulus(rng, 0.3, 1.2) for _ in range(3))
        if i % 5 == 0:
            a, b, q = _near_zero(rng, a, b, q, p ** rng.randint(-1, 1))
        yield EllipticParams(a=a, b=b, q=q, p=p)


def test_window_certificate_gives_the_scans_verdict_and_message():
    certified = refused = 0
    above = False
    for params in _certificate_cases():
        got = _window_run(EllipticParams.window_refusal, params)[0]
        assert got == _window_run(EllipticParams._window_scan, params)[0], params
        if params.with_ab()._window_certified(-8, 10):
            certified += 1
            assert abs(params.p) <= SERIES_MAX_NOME, params
        refused += got is not None
        above |= abs(params.p) > SERIES_MAX_NOME and got is None
    assert certified > 400 and refused > 100 and above


def test_certified_window_calls_no_theta(monkeypatch):
    theta_module = importlib.import_module("qelliptic.theta")
    draws = [sample_elliptic_params(random.Random(seed)) for seed in range(40)]
    calls = []

    def counting_theta(*args):
        calls.append(args)
        return theta(*args)

    monkeypatch.setattr(theta_module, "theta", counting_theta)
    certified = 0
    for params in draws:
        params = params.with_ab()
        del calls[:]
        assert params.window_ok(-8, 10)
        if params._window_certified(-8, 10):
            certified += 1
            assert not calls and not params._theta_cache, params
    assert certified > 30
    # the wrapper sees the scan's evaluations
    params = draws[0].with_ab()
    assert params._window_scan(-8, 10) is None and calls


def _reduced(x, nome):
    """y of x = p^k y, reduced as theta reduces it, and k."""
    k = math.floor(cmath.log(x).real / nome.log_modulus + 0.5)
    table = nome.powers(abs(k))
    return (x / table[k] if k > 0 else x * table[-k]), k


@pytest.mark.parametrize("p", [0.01, 0.05, 0.3 + 0.2j, -0.5, 0.6j, SERIES_MAX_NOME])
def test_certificate_bounds_theta(p):
    # |theta(x)| >= c |1 - y| everywhere, and it is nearly tight at small
    # |p| just inside |x| = |p|^(1/2), where k = 1 and y = |p|^(-1/2); for
    # |k| <= k_max, |theta(x)| <= 1e60, where a product of five stays finite
    nome = _nome_entry(complex(p))
    r = abs(p)
    rng = random.Random(41)
    xs = [math.sqrt(r) * (1 - 1e-9) * p / r, 1 + 1e-7, -1.0]
    xs += [sample_route_argument(rng) for _ in range(300)]
    xs += [sample_annulus(rng, 0.5, 2.0) for _ in range(100)]
    xs += [y * p ** k for k in (-nome.k_max, nome.k_max)
           for y in (-(r ** -0.5), -(r ** 0.5), -1)]
    tightest = math.inf
    for x in xs:
        y, k = _reduced(x, nome)
        value = abs(theta(x, p))
        assert nome.c * abs(1 - y) <= value, (x, p)
        # the bound the moduli step takes, |1 - y| >= ||y| - 1|
        assert nome.c * abs(abs(y) - 1) <= value, (x, p)
        if abs(1 - y) > 0:
            tightest = min(tightest, value / (nome.c * abs(1 - y)))
        if abs(k) <= nome.k_max:
            assert value <= 1e60, (x, p)
    if r <= 0.05:
        assert tightest < 2
    # past k_max the certificate declines, however far y is from 1
    assert nome.k_max > 0
    assert nome.certifies([-(p ** nome.k_max)])
    assert not nome.certifies([-(p ** (nome.k_max + 1))])
    assert not nome.certifies([-(p ** -(nome.k_max + 1))])


def _sampler_draws(seed, count):
    """Parameter sets from the sampler's distribution, before its window."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.uniform(0.05, 0.5)
        q, a, b = (sample_annulus(rng, 0.4, 0.9) for _ in range(3))
        yield EllipticParams(a=a, b=b, q=q, p=p)


def test_factors_the_moduli_clear_are_clear_of_the_guards(monkeypatch):
    # every guarded factor the moduli step clears, without the y-based
    # test, evaluates to a modulus in [2 DEFAULT_MIN_DENOMINATOR, 1e60];
    # the near-zero draws put factors next to the zeros p^k, k in -1..1
    theta_module = importlib.import_module("qelliptic.theta")
    open_factors = theta_module._Nome.open_factors
    seen = []

    def recording(self, logs):
        seen.append(open_factors(self, logs))
        return seen[-1]

    monkeypatch.setattr(theta_module._Nome, "open_factors", recording)
    cleared = 0
    for params in itertools.chain(_certificate_cases(), _sampler_draws(43, 2000)):
        del seen[:]
        params.with_ab()._window_certified(-8, 10)
        if not seen:
            continue  # p = 0, |p| > SERIES_MAX_NOME or past the range bound
        for i, x in params._window_factors(-8, 10):
            if i not in seen[0]:
                value = abs(theta(x, params.p))
                assert 2 * DEFAULT_MIN_DENOMINATOR <= value <= 1e60, (params, i, x)
                cleared += 1
    assert cleared > 150_000


@pytest.mark.parametrize("p", [0.05, 0.3 + 0.2j, -0.5, SERIES_MAX_NOME])
def test_moduli_step_at_its_thresholds(p):
    # one factor at a time, at log |x| = k log |p| + l: open within the
    # margin of either threshold, cleared just outside it
    nome = _nome_entry(complex(p))
    # the margin written out, so that a smaller one in the code fails here
    lr, slack = nome.log_modulus, 1e-9
    least = 2 * DEFAULT_MIN_DENOMINATOR
    floor = slack - math.log1p(-least / nome.c)

    def is_open(k, ell):
        return nome.open_factors([k * lr + ell]) == [0]

    for k in (-2, 0, 1, 3):
        for sign in (1, -1):
            assert is_open(k, sign * (floor - slack / 2)), (k, sign)
            assert not is_open(k, sign * (floor + slack)), (k, sign)
            # y on the unit circle or next to it: theta(x) may vanish
            assert is_open(k, 0.0) and is_open(k, sign * 1e-12)
    # just above the floor the computed theta clears the guard, also on
    # the positive real axis, where |1 - y| is smallest
    for k in (-2, 0, 3):
        x = complex(p) ** k * math.exp(-(floor + slack))
        assert abs(theta(x, p)) >= least
    # |k| = k_max clears, k_max + 1 does not, and the edge keeps its margin
    k_max, ell = nome.k_max, 0.3 * lr
    for sign in (1, -1):
        assert not is_open(sign * k_max, sign * ell)
        assert is_open(sign * (k_max + 1), sign * ell)
        edge = sign * ((k_max + 0.5) * -lr - slack / 2)
        assert nome.open_factors([edge]) == [0]
        assert nome.open_factors([edge - sign * slack]) == []


def test_a_factor_on_the_unit_circle_goes_to_the_y_test(monkeypatch):
    # q = p e^(2i) has |y| = 1 and y != 1: the moduli leave it open, and
    # the y-based test certifies it, with no other factor; a and b put
    # every other factor a quarter or half period from the lattice
    theta_module = importlib.import_module("qelliptic.theta")
    asked = []
    certifies = theta_module._Nome.certifies

    def recording(self, xs):
        asked.append(xs)
        return certifies(self, xs)

    monkeypatch.setattr(theta_module._Nome, "certifies", recording)
    p = 0.3
    q = p * cmath.exp(2j)
    params = EllipticParams(a=p ** 0.25 * cmath.exp(1j), b=p ** 0.5 * cmath.exp(-0.5j), q=q, p=p)
    assert params._window_certified(-8, 10)
    assert asked == [[q]]
    assert params._window_scan(-8, 10) is None


def test_most_draws_need_no_y_test(monkeypatch):
    # the moduli clear the whole window of at least 99 % of the sampler's
    # draws, so the y-based test is the rare path
    theta_module = importlib.import_module("qelliptic.theta")
    calls = []
    certifies = theta_module._Nome.certifies

    def counting(self, xs):
        calls.append(xs)
        return certifies(self, xs)

    monkeypatch.setattr(theta_module._Nome, "certifies", counting)
    quick = 0
    for params in _sampler_draws(47, 2000):
        del calls[:]
        if params._window_certified(-8, 10) and not calls:
            quick += 1
    assert quick >= 0.99 * 2000


# -- independent oracle -------------------------------------------------------------


# N = 18: the largest size the elliptic tables are checked at; the routes
# form theta arguments down to |q|^(2N+2) min(|a|, |b|) and up to its inverse
_N = 18


def test_theta_against_mpmath_qpochhammer():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(5)
    compared = 0
    with mpmath.workdps(50):
        while compared < 100:
            p = sample_annulus(rng, 0.05, 0.5)
            x = sample_route_argument(rng)
            want = mpmath.qp(x, p) * mpmath.qp(p / mpmath.mpc(x), p)
            if not 1e-300 < abs(want) < 1e300:
                continue
            got = theta(x, p)
            assert abs(mpmath.mpc(got) - want) <= 1e-13 * abs(want), (x, p)
            compared += 1


def _mp_elliptic(mpmath, kind, z, s, params, memo):
    """50-digit [z] or W(z) at base shift (2s, s) from the exact double
    parameters, or None when the value or one of its theta factors leaves
    double range (theta values that overflow while their quotient does not
    are an open item).  Factors are memoized by their monomial a^i b^j q^m.
    """
    a, b, q, p = (mpmath.mpc(v) for v in (params.a, params.b, params.q, params.p))

    def th(i, j, m):
        if (i, j, m) not in memo:
            x = a ** i * b ** j * q ** m
            memo[i, j, m] = mpmath.qp(x, p) * mpmath.qp(p / x, p)
        return memo[i, j, m]

    if kind == "number":
        num = [(0, 0, z), (1, 0, 2 * s + z), (0, 1, s + 1), (1, -1, s + 1)]
        den = [(0, 0, 1), (1, 0, 2 * s + 1), (0, 1, s + z), (1, -1, s + z)]
    else:
        num = [(1, 0, 2 * s + 2 * z + 1), (0, 1, s), (0, 1, s + 1), (1, -1, s),
               (1, -1, s + 1)]
        den = [(1, 0, 2 * s + 1), (0, 1, s + z), (0, 1, s + z + 1), (1, -1, s + z),
               (1, -1, s + z + 1)]
    factors = [th(*m) for m in num + den]
    if not all(1e-300 < abs(f) < 1e300 for f in factors):
        return None
    value = mpmath.fprod(factors[:len(num)]) / mpmath.fprod(factors[len(num):])
    value = value if kind == "number" else value * q ** z
    return value if 1e-300 < abs(value) < 1e300 else None


def test_elliptic_numbers_and_weights_against_mpmath():
    # z over [-2N, 2N+2], unshifted and at base shifts (2s, s) as the
    # explicit routes use them
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(17)
    compared = 0
    with mpmath.workdps(50):
        for _ in range(2):
            params, memo = sample_elliptic_params(rng), {}
            for trial in range(40):
                kind = ("number", "weight")[trial % 2]
                s = 0 if trial % 4 < 2 else rng.randint(-_N // 2, _N // 2)
                z = rng.randint(-2 * _N, 2 * _N + 2)
                want = _mp_elliptic(mpmath, kind, z, s, params, memo)
                if want is None:
                    continue
                try:
                    got = _ENTRY[kind](z, (2 * s, s), params)
                except DegenerateParameters:
                    continue
                err = abs(mpmath.mpc(got) - want) / abs(want)
                assert err <= 1e-13, (kind, z, s, params, float(err))
                compared += 1
    assert compared > 40


# -- denominators past double range --------------------------------------------

@pytest.mark.parametrize("value,label", [
    # the Lah recurrence multiplier at n = 16: a finite numerator (4e306)
    # over an infinite denominator used to give an exact 0
    (lambda P: elliptic_number_shifted(30, (-30, -15), P), "[30]"),
    # the denominator product is not finite, and the weight used to come
    # out as nan
    (lambda P: elliptic_weight(18, P), "W(18)"),
])
def test_denominator_past_double_range_is_degenerate(value, label):
    P = fixed_params(15)
    with pytest.raises(DegenerateParameters,
                       match=rf"denominator of {re.escape(label)} is .*outside double range"):
        value(P)
