"""Dense integer polynomial kernel of the exact layer.

A dense polynomial is a list of integer coefficients, constant term first.
Long products use Kronecker substitution: each operand is packed into one
integer, its value at q = 2^(8k) for a digit width of k bytes wide enough
that every product coefficient is a balanced digit (|c| < 2^(8k-1)); CPython
multiplies the two integers (Karatsuba) and the digits are read back.

Exact division packs both polynomials at X = 2^(8k) and takes one integer
divmod: g | f gives g(X) | f(X), so a remainder proves it inexact, and the
quotient's digits are kept only once they provably multiply back to f.  Long
division is its fallback and the reference the tests compare against.  These
two operations are all the exact scalars need: they form the ring
Z[q, 1/q], not a field of rational functions, so no polynomial gcd is
ever taken.
"""

from __future__ import annotations

import math
import struct

__all__ = ["content", "mul", "mul_schoolbook", "divexact", "divexact_long"]

# The schoolbook loop is faster up to this many coefficient pairs, or with
# an operand this short, than packing.  Measured with CPython 3.11 on an
# x86-64 host, 40-bit coefficients: 8 x 8 terms take 14 us by the loop and
# 21 us packed, 12 x 12 take 29 and 24 us; 1 x 100 takes 14 and 31 us,
# 2 x 100 28 and 29 us.  The same cutoffs, with divisor and quotient as
# the operands, split exact division between long division and packing: of
# the 646 divisions of one exact-tables pass, the 409 below them take 4.3 ms
# long and 8.5 ms packed, the 237 above them 20.3 ms long and 7.3 ms packed.
_SCHOOLBOOK_MAX_PAIRS = 100
_SCHOOLBOOK_MAX_TERMS = 2

# digit widths divexact tries, each twice the last, before long division
_DIV_TRIES = 3

# Digits of these widths are packed and read back by one struct call instead
# of one to_bytes/from_bytes call per digit, so widths up to 8 bytes are
# rounded up to one of them.  On the benchmark's exact-tables workload 98 %
# of the packed digits are 8 bytes wide or less, and this path takes 22 % off
# its wall time (0.426 -> 0.331 reference s, faster in 10 of 10 pairs).
_STRUCT_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def content(c: list[int]) -> int:
    return math.gcd(*c)


def _norm(c: list[int]) -> int:
    return max(max(c), -min(c))


def _digit_bytes(bound: int) -> int:
    """Bytes per digit that hold every integer of magnitude <= bound as a
    balanced digit, rounded up to a struct width while that is 8 or less."""
    k = (bound.bit_length() + 8) // 8
    if k <= 2:
        return k
    return 4 if k <= 4 else 8 if k <= 8 else k


def _bias(n: int, k: int) -> int:
    # 2^(8k-1) in each of n digits of k bytes
    return int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")


def _pack(c: list[int], k: int) -> int:
    """c at q = 2^(8k); every |c[i]| must be below 2^(8k-1)."""
    n = len(c)
    fmt = _STRUCT_FORMATS.get(k)
    if fmt:
        raw = struct.pack(f"<{n}{fmt}", *c)
    else:
        raw = b"".join([x.to_bytes(k, "little", signed=True) for x in c])
    # the bytes read unsigned hold each negative digit plus 2^(8k); flipping
    # every digit's top bit and subtracting the bias takes that back out
    bias = _bias(n, k)
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _unpack(v: int, n: int, k: int) -> list[int]:
    """The n balanced base-2^(8k) digits of v, lowest first."""
    bias = _bias(n, k)
    # adding the bias makes every digit nonnegative without carries; the
    # flip then leaves each digit's two's-complement bytes
    raw = ((v + bias) ^ bias).to_bytes(n * k, "little")
    fmt = _STRUCT_FORMATS.get(k)
    if fmt:
        return list(struct.unpack(f"<{n}{fmt}", raw))
    return [int.from_bytes(raw[i:i + k], "little", signed=True)
            for i in range(0, n * k, k)]


def _digits(v: int, k: int) -> list[int]:
    """The balanced base-2^(8k) digits of v, lowest first, without
    trailing zeros."""
    return _trim(_unpack(v, abs(v).bit_length() // (8 * k) + 2, k))


def mul_schoolbook(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two nonempty dense polynomials."""
    la, lb = len(a), len(b)
    if la * lb <= _SCHOOLBOOK_MAX_PAIRS or min(la, lb) <= _SCHOOLBOOK_MAX_TERMS:
        return mul_schoolbook(a, b)
    k = _digit_bytes(_norm(a) * _norm(b) * min(la, lb))
    va = _pack(a, k)
    vb = va if b is a else _pack(b, k)
    return _unpack(va * vb, la + lb - 1, k)


def divexact(f: list[int], g: list[int]) -> list[int]:
    """f / g for nonempty dense polynomials with nonzero leading terms;
    ArithmeticError unless g divides f over Z[q]."""
    lg, n = len(g), len(f) - len(g) + 1
    if n * lg <= _SCHOOLBOOK_MAX_PAIRS or min(n, lg) <= _SCHOOLBOOK_MAX_TERMS:
        return divexact_long(f, g)
    # X = 2^(8k) > 2 |g| + 1 exceeds every root of g, so g(X) is nonzero
    k = _digit_bytes(max(_norm(f), _norm(g)))
    for _ in range(_DIV_TRIES):
        h, rem = divmod(_pack(f, k), _pack(g, k))
        if rem:
            raise ArithmeticError("inexact polynomial division")
        h = _digits(h, k)
        # g h equals f at X; it equals f coefficientwise once it multiplies
        # back, or once the norm bound makes each of its coefficients a
        # digit, as each of f's is, since balanced digits are unique
        if len(h) == n and (_norm(g) * _norm(h) * min(lg, n) < 1 << (8 * k - 1)
                            or mul(g, h) == f):
            return h
        k *= 2
    return divexact_long(f, g)


def divexact_long(f: list[int], g: list[int]) -> list[int]:
    """divexact by long division: its fallback and the reference it is
    tested against."""
    r = list(f)
    out = [0] * (len(f) - len(g) + 1)
    lg = g[-1]
    while len(r) >= len(g):
        if r[-1] == 0:
            r.pop()
            continue
        shift = len(r) - len(g)
        c, rem = divmod(r[-1], lg)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        out[shift] = c
        for i, cg in enumerate(g):
            r[i + shift] -= c * cg
        _trim(r)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return out
