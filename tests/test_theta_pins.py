"""The bits of [z] and W(k), and the window's verdicts, pinned.

Both the numbers and weights and the sampler's window read their factors
from one declaration in ``qelliptic.theta``, so the window tests of
``test_theta.py``, which compare the scan with ``_number_den`` and
``_weight_den``, no longer see a factor written wrongly in both.  These
digests were recorded from an evaluation that wrote every formula out by
hand: the values of [z] and W(k) with their refusals, and the verdict and
text of ``window_refusal`` over draws that go both ways.
"""

import hashlib
import random
import struct

import pytest

from qelliptic.errors import DegenerateParameters
from qelliptic.theta import (
    EllipticParams,
    elliptic_number_shifted,
    elliptic_weight_shifted,
    sample_elliptic_params,
)
from test_theta import _edge_packs, _near_zero_draws, _sampler_draws

_VALUE_PACKS = {
    "p0": EllipticParams(a=0.3, b=0.7, q=0.5, p=0),
    "p0-complex": EllipticParams(a=0.3 + 0.2j, b=0.7 - 0.1j, q=0.6 + 0.3j, p=0),
    "a0": EllipticParams(a=0, b=0.7 - 0.1j, q=0.6 + 0.3j, p=0),
    "ab0": EllipticParams(a=0, b=0, q=0.6 + 0.3j, p=0),
    "ab0-real": EllipticParams(a=0, b=0, q=0.5, p=0),
    "classical": EllipticParams(a=0, b=0, q=1, p=0),
    # 1 - a q, 1 - b q^3, 1 - a q^3 / b, then 1 - b q^3 with a = 0, are 0
    "guard-a": EllipticParams(a=2, b=8, q=0.5, p=0),
    "guard-b": EllipticParams(a=0.3, b=8, q=0.5, p=0),
    "guard-ab": EllipticParams(a=5.6, b=0.7, q=0.5, p=0),
    "guard-a0": EllipticParams(a=0, b=8, q=0.5, p=0),
    "sampled-1": sample_elliptic_params(random.Random(1)),
    "sampled-2": sample_elliptic_params(random.Random(2)),
}


def _value_digest(params):
    sha = hashlib.sha256()
    for entry in (elliptic_number_shifted, elliptic_weight_shifted):
        for shift in ((0, 0), (2, 1)):
            for z in range(-4, 7):
                try:
                    value = entry(z, shift, params)
                except DegenerateParameters as exc:
                    sha.update(str(exc).encode())
                    continue
                sha.update(struct.pack("<dd", value.real, value.imag))
    return sha.hexdigest()[:16]


@pytest.mark.parametrize("name,digest", [
    ("p0", "72d79dfc663eba66"),
    ("p0-complex", "1cf15009d76068ba"),
    ("a0", "6f425a0db44c9263"),
    ("ab0", "deb53e4064cba743"),
    ("ab0-real", "a9ed8ffa070eec37"),
    ("classical", "10ed7e21803667c9"),
    ("guard-a", "fa64b23f9d67d801"),
    ("guard-b", "45b0f8b9e2da3a60"),
    ("guard-ab", "7e03f15a2047cea5"),
    ("guard-a0", "1950589d9c23d20b"),
    ("sampled-1", "7fda7238dce38945"),
    ("sampled-2", "ba255ab1e593dbde"),
])
def test_number_and_weight_bits_are_pinned(name, digest):
    assert _value_digest(_VALUE_PACKS[name].with_ab()) == digest


def _p0_guard_packs():
    """p = 0 parameter sets with one factor (1 - x) of [z] or W(z) at or
    next to 0 for some z of the window, on each rung of the chain, and the
    extremes whose products or arguments leave double range."""
    q = 0.5
    yield EllipticParams(a=0, b=0, q=1 + 1e-9, p=0)
    yield EllipticParams(a=0, b=0.7, q=1 + 1e-9, p=0)
    for near in (1.0, 1 + 1e-7, 1 + 1e-5):
        yield EllipticParams(a=near / q, b=0.7, q=q, p=0)
        for z0 in range(-8, 12):
            u = q ** z0
            yield EllipticParams(a=0.3, b=near / u, q=q, p=0)
            yield EllipticParams(a=0, b=near / u, q=q, p=0)
            yield EllipticParams(a=near * 0.7 / u, b=0.7, q=q, p=0)
    for a, b, q in ((1e300, 1e-10, 0.5), (1e-320, 1e10, 0.5), (0.5, 1e300, 1000),
                    (0.3, 0.7, 1e30), (0, 1e-300, 0.6), (1e-300, 0.5, 1e-10)):
        yield EllipticParams(a=a, b=b, q=q, p=0)


# the sampler's draws nearly all clear the window; the others go both ways
@pytest.mark.parametrize("cases,verdicts,digest", [
    (lambda: _sampler_draws(51, 200), {True}, "7c4d8ccf0bab0a81"),
    (lambda: _near_zero_draws(53, 300), {True, False}, "6a128c3e826ac36d"),
    (_edge_packs, {True, False}, "74bb11ac939ab3ff"),
    (_p0_guard_packs, {True, False}, "287f7358dcf43f6d"),
], ids=["sampler", "near-zero", "edge", "p0-guards"])
def test_window_refusals_are_pinned(cases, verdicts, digest):
    sha = hashlib.sha256()
    seen = set()
    for params in cases():
        refusal = params.with_ab().window_refusal(-8, 10)
        seen.add(refusal is None)
        sha.update(repr(refusal).encode() + b"\n")
    assert seen == verdicts
    assert sha.hexdigest()[:16] == digest
