"""The (value, scale) bytes of every *_scaled function, pinned.

Table builders share each route's summands with the per-entry *_scaled
functions, which form the conditioning scale in a pass of their own; the
digests below were recorded before that split, so neither the value nor the
scale may move by a bit.
"""

import hashlib
import random
import struct

import pytest

from qelliptic.eulerian import (
    elliptic_eulerian_scaled,
    elliptic_r_whitney_eulerian_scaled,
    general_eulerian_scaled,
)
from qelliptic.families import (
    FerrersBoard,
    elliptic_lah_scaled,
    elliptic_rook_scaled,
    elliptic_stirling2_scaled,
)
from qelliptic.newton import (
    EllipticSequence,
    STSequence,
    connection_explicit_scaled,
    h_explicit_scaled,
    newton_oracle_scaled,
)
from qelliptic.theta import elliptic_number, sample_elliptic_params

N = 6
SEEDS = (1, 2, 3)


def _grid(seed):
    """(label, call) for every *_scaled function over rows 0..N."""
    params = sample_elliptic_params(random.Random(seed))
    seq = EllipticSequence(params)
    st = STSequence(2, 1, 0.7 + 0.1j, -0.4 + 0.3j)
    board = FerrersBoard((0, 1, 1, 3, 4))
    cs = [elliptic_number(-i, params) for i in range(N)]
    for n in range(N + 1):
        for k in range(n + 1):
            for route in ("explicit", "oracle"):
                yield "stirling2", lambda: elliptic_stirling2_scaled(n, k, params, route)
                yield "lah", lambda: elliptic_lah_scaled(n, k, params, route)
            yield "eulerian", lambda: elliptic_eulerian_scaled(n, k, params)
            yield "r_whitney", lambda: elliptic_r_whitney_eulerian_scaled(n, k, 2, 1, params)
            yield "general", lambda: general_eulerian_scaled(n, k, seq)
            yield "connection", lambda: connection_explicit_scaled(1.5 - 0.5j, cs, seq, n, k)
            for nodes in (seq, st):
                yield "h", lambda: h_explicit_scaled(n - k, nodes.window(0, k), nodes.field)
        yield "oracle", lambda: newton_oracle_scaled([seq[m] ** n for m in range(n + 1)], seq, n)
    for j in range(board.columns + 1):
        for route in ("explicit", "oracle"):
            yield "rook", lambda: elliptic_rook_scaled(board, j, params, route)


def _bytes(result) -> bytes:
    value, scale = result
    values = value if isinstance(value, list) else [value]
    return b"".join(struct.pack("<dd", v.real, v.imag) for v in values) \
        + struct.pack("<d", scale)


def digests(seed) -> dict:
    """Label -> sha256 prefix of every (value, scale) the grid forms."""
    hashes = {}
    for label, call in _grid(seed):
        hashes.setdefault(label, hashlib.sha256()).update(_bytes(call()))
    return {label: h.hexdigest()[:16] for label, h in hashes.items()}


# sha256 prefixes of the bytes per function, per parameter seed
PINNED = {
    1: {"stirling2": "45a09277433e8537", "lah": "eb57c512c1f71290",
        "eulerian": "67751c78555d4d62", "r_whitney": "3bbc3b94264fe850",
        "general": "1f53c4d93ae4f0ac", "connection": "cedaf0fe289b6a27",
        "h": "460bdc92ee715af7", "oracle": "bc683406d122e735",
        "rook": "b8c0b5fae0c33dd8"},
    2: {"stirling2": "9a5e9483fe17a274", "lah": "24b7cb6e24aaea34",
        "eulerian": "1cfc45964c85ce5f", "r_whitney": "fd29bd742cb2b4fb",
        "general": "8d34614e9aaf7c7e", "connection": "6d091e86173e4bca",
        "h": "0c50554335d13a14", "oracle": "32d040a2fe1a5e2f",
        "rook": "996a968221a91790"},
    3: {"stirling2": "aca691f4f5c2c00d", "lah": "bfc412191298c9bf",
        "eulerian": "7c0deeb74bcfbd71", "r_whitney": "9ab3f3901c05d149",
        "general": "f8aacdd08ff111cc", "connection": "da0dc3122eb95c46",
        "h": "75fb7702dd7af727", "oracle": "292e47134bc3a345",
        "rook": "165f74a38f5d1966"},
}


@pytest.mark.parametrize("seed", SEEDS)
def test_scaled_functions_keep_their_bytes(seed):
    assert digests(seed) == PINNED[seed]
