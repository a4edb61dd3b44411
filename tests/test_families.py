"""Route agreement and degeneration checks for the number families."""

import math
import random
from fractions import Fraction

import pytest

from qelliptic.errors import DomainError
from qelliptic.families import (
    FerrersBoard,
    elliptic_lah_rows,
    elliptic_lah_scaled,
    elliptic_rook_row,
    elliptic_rook_scaled,
    elliptic_shifted_stirling_rows,
    elliptic_stirling2_rows,
    elliptic_stirling2_scaled,
    lah,
    q_stirling2,
    q_stirling2_rows,
    st_shifted_stirling_rows,
    stirling2,
    stirling2_rows,
    weight_product,
    whitney_qr_rows,
)
from qelliptic.newton import AffineWhitneySequence, connection_recurrence
from qelliptic.scalars import ExactScalar, q_number, residual
from qelliptic.theta import EllipticParams, sample_elliptic_params


def fixed_params(seed):
    return sample_elliptic_params(random.Random(seed))


# ---------------------------------------------------------------------------
# classical and q-Stirling
# ---------------------------------------------------------------------------

def test_stirling2_frozen():
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(0, 0) == 1
    assert stirling2(3, 0) == 0
    assert stirling2(2, 5) == 0


def test_stirling2_routes_agree():
    assert stirling2_rows(10) == stirling2_rows(10, "explicit")


def test_stirling2_row_sums_are_bell():
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    for n, b in enumerate(bell):
        assert sum(stirling2(n, k) for k in range(n + 1)) == b


def test_q_stirling2_frozen():
    assert str(q_stirling2(3, 2)) == "2 + q"
    assert q_stirling2(0, 0) == ExactScalar.from_int(1)
    assert q_stirling2(4, 0).is_zero
    assert q_stirling2(2, 3).is_zero


def test_q_stirling2_three_routes_identical():
    a = q_stirling2_rows(8, "recurrence")
    assert a == q_stirling2_rows(8, "explicit")
    assert a == q_stirling2_rows(8, "h")


def test_q_stirling2_is_polynomial_with_classical_limit():
    # every explicit sum divides by its prefactor exactly, and q = 1
    # recovers the counts
    for n, row in enumerate(q_stirling2_rows(9, "explicit")):
        for k, v in enumerate(row):
            assert isinstance(v, ExactScalar)
            assert v.evaluate_fraction(Fraction(1)) == stirling2(n, k)


def test_q_stirling2_bad_route():
    with pytest.raises(DomainError):
        q_stirling2_rows(3, "newton")
    with pytest.raises(DomainError):
        q_stirling2(-1, 0)


# ---------------------------------------------------------------------------
# elliptic Stirling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_elliptic_stirling2_all_routes(seed):
    params = fixed_params(seed)
    worst = 0.0
    rows = {route: elliptic_stirling2_rows(7, params, route)
            for route in ("recurrence", "h", "explicit", "oracle")}
    for n in range(8):
        for k in range(n + 1):
            rec = rows["recurrence"][n][k]
            hh = rows["h"][n][k]
            exp, s_exp = elliptic_stirling2_scaled(n, k, params, "explicit")
            orc, s_orc = elliptic_stirling2_scaled(n, k, params, "oracle")
            assert exp == rows["explicit"][n][k]
            assert orc == rows["oracle"][n][k]
            worst = max(
                worst,
                residual(rec, hh),
                abs(rec - exp) / max(1.0, abs(rec), s_exp),
                abs(rec - orc) / max(1.0, abs(rec), s_orc),
            )
    assert worst <= 1e-12


def test_elliptic_stirling2_degeneration_to_q():
    # on the b = 0, a = 0 leg of the chain the triangle is the numeric
    # q-triangle, so the exact polynomials evaluated at q must match
    params = EllipticParams(a=0, b=0, q=0.37 + 0.21j, p=0)
    rows, exact = elliptic_stirling2_rows(6, params), q_stirling2_rows(6)
    for n in range(7):
        for k in range(n + 1):
            got = rows[n][k]
            want = exact[n][k].evaluate(params.q)
            assert residual(got, want) <= 1e-9


def test_elliptic_stirling2_classical_point():
    params = EllipticParams(a=0, b=0, q=1, p=0)
    rows = elliptic_stirling2_rows(6, params)
    for n in range(7):
        for k in range(n + 1):
            assert abs(rows[n][k] - stirling2(n, k)) <= 1e-9


def test_elliptic_stirling2_edges():
    params = fixed_params(4)
    assert elliptic_stirling2_scaled(5, 7, params) == (0, 1.0)
    assert elliptic_stirling2_rows(0, params) == [[1]]
    with pytest.raises(DomainError):
        elliptic_stirling2_rows(3, params, route="fast")


# ---------------------------------------------------------------------------
# Whitney triangles
# ---------------------------------------------------------------------------

def test_whitney_routes_and_polynomiality():
    for m, r in [(1, 0), (1, 1), (2, 1), (3, 2)]:
        assert whitney_qr_rows(6, m, r, "recurrence") == whitney_qr_rows(6, m, r, "explicit")


def test_whitney_normalized_m1_r1_limit():
    # at q = 1 with m = r = 1 the triangle, times q^(kr + m C(k,2)), is
    # the set-partition triangle shifted by one in both indices
    m = r = 1
    rows = whitney_qr_rows(6, m, r)
    for n in range(7):
        for k in range(n + 1):
            v = rows[n][k] * ExactScalar.q_power(k * r + m * math.comb(k, 2))
            assert v.evaluate_fraction(Fraction(1)) == stirling2(n + 1, k + 1)


def test_whitney_matches_connection_engine_at_q1():
    # W_{1,1}(n, k) at q = 1 equals the coefficient expanding z^n over the
    # nodes 1, 2, 3, ...
    nodes = AffineWhitneySequence(1, -1)
    whitney = whitney_qr_rows(6, 1, 1)
    for n in range(7):
        rows = connection_recurrence(Fraction(1), [Fraction(0)] * n, nodes)
        for k in range(n + 1):
            v = whitney[n][k].evaluate_fraction(Fraction(1))
            assert v == rows[n][k]


def test_whitney_domain():
    with pytest.raises(DomainError):
        whitney_qr_rows(3, -1, 0)


# ---------------------------------------------------------------------------
# (s, t) and elliptic shifted triangles
# ---------------------------------------------------------------------------

def test_st_shifted_matches_whitney_at_t1():
    s = 1.31
    for m, r in [(1, 0), (2, 1)]:
        rows, exact = st_shifted_stirling_rows(5, m, r, s, 1.0), whitney_qr_rows(5, m, r)
        for n in range(6):
            for k in range(n + 1):
                assert residual(rows[n][k], exact[n][k].evaluate(s)) <= 1e-9


def test_st_shifted_routes_agree():
    s, t = 1.7, 0.6
    rec = st_shifted_stirling_rows(5, 2, 1, s, t, "recurrence")
    exp = st_shifted_stirling_rows(5, 2, 1, s, t, "explicit")
    for n in range(6):
        for k in range(n + 1):
            assert residual(rec[n][k], exp[n][k]) <= 1e-8


def test_elliptic_shifted_routes_agree():
    from qelliptic.errors import DegenerateSequence

    checked = 0
    seed = 5
    while checked < 2:
        params = fixed_params(seed)
        seed += 1
        try:
            for m, r in [(1, 0), (2, 1)]:
                rec = elliptic_shifted_stirling_rows(5, m, r, params, "recurrence")
                exp = elliptic_shifted_stirling_rows(5, m, r, params, "explicit")
                for n in range(6):
                    for k in range(n + 1):
                        assert residual(rec[n][k], exp[n][k]) <= 1e-7
        except DegenerateSequence:
            # scaled windows can put two nodes on top of each other; the
            # guard refusing to divide is the correct outcome for that draw
            continue
        checked += 1


def test_elliptic_shifted_guard_detects_collision():
    # this draw puts [2] within 1e-8 of [0] = 0, so interpolation over the
    # plain window is unusable and the explicit route must say so; the
    # division-free recurrence still goes through
    from qelliptic.errors import DegenerateSequence

    params = fixed_params(6)
    with pytest.raises(DegenerateSequence):
        elliptic_shifted_stirling_rows(3, 1, 0, params, "explicit")
    elliptic_shifted_stirling_rows(3, 1, 0, params, "recurrence")


def test_elliptic_shifted_m1_r0_is_plain():
    params = fixed_params(7)
    assert elliptic_shifted_stirling_rows(5, 1, 0, params) == elliptic_stirling2_rows(5, params)


# ---------------------------------------------------------------------------
# rook numbers
# ---------------------------------------------------------------------------

def test_empty_board_exact_structure():
    params = fixed_params(11)
    for n in [1, 2, 4, 6]:
        row = elliptic_rook_row(FerrersBoard.empty(n), params)
        assert row[0] == 1.0
        assert all(r == 0.0 for r in row[1:])


def test_rook_routes_agree():
    params = fixed_params(12)
    boards = [
        FerrersBoard((0, 1, 2)),
        FerrersBoard((0, 1, 1, 2)),
        FerrersBoard((1, 1, 2, 3)),
        FerrersBoard((0, 0, 1, 1, 2)),
        FerrersBoard.staircase(5),
    ]
    for board in boards:
        explicit = elliptic_rook_row(board, params, "explicit")
        oracle = elliptic_rook_row(board, params, "oracle")
        for j in range(board.columns + 1):
            exp, s_exp = elliptic_rook_scaled(board, j, params, "explicit")
            orc, s_orc = elliptic_rook_scaled(board, j, params, "oracle")
            assert exp == explicit[j]
            assert orc == oracle[j]
            assert abs(exp - orc) / max(1.0, s_exp, s_orc) <= 1e-12


def test_staircase_is_stirling():
    params = fixed_params(13)
    n = 6
    row = elliptic_rook_row(FerrersBoard.staircase(n), params)
    for j in range(n + 1):
        k = n - j
        got = row[j] / weight_product(k, params)
        want, scale = elliptic_stirling2_scaled(n, k, params, "explicit")
        assert abs(got - want) / scale <= 1e-12


def test_board_is_a_frozen_value():
    board = FerrersBoard([0, 1.0, True, 2])
    assert board.heights == (0, 1, 1, 2) and board.columns == 4
    assert all(type(h) is int for h in board.heights)
    assert repr(board) == "FerrersBoard(heights=(0, 1, 1, 2))"
    same = FerrersBoard((0, 1, 1, 2))
    assert board == same and hash(board) == hash(same)
    assert len({board, same, FerrersBoard.staircase(3)}) == 2
    assert board != FerrersBoard((0, 1, 2)) and board != (0, 1, 1, 2)
    assert FerrersBoard.empty(2) == FerrersBoard((0, 0))
    with pytest.raises(AttributeError, match="^cannot assign to field 'heights'$"):
        board.heights = (0,)
    with pytest.raises(AttributeError, match="^cannot delete field 'heights'$"):
        del board.heights
    assert board.heights == (0, 1, 1, 2)


def test_rook_classical_counts():
    # fully degenerate, the values are literal rook placement counts:
    # on the full 2x2 square board r_1 = 4 and r_2 = 2
    params = EllipticParams(a=0, b=0, q=1, p=0)
    board = FerrersBoard((2, 2))
    got = elliptic_rook_row(board, params)
    assert [round(abs(v)) for v in got] == [1, 4, 2]
    for v, w in zip(got, [1, 4, 2]):
        assert abs(v - w) <= 1e-9


def test_board_validation():
    with pytest.raises(DomainError, match="^column heights must be weakly increasing$"):
        FerrersBoard((2, 1))
    with pytest.raises(DomainError, match="^column heights must be >= 0$"):
        FerrersBoard((-1, 0))
    with pytest.raises(DomainError):
        elliptic_rook_scaled(FerrersBoard((0, 1)), 3, fixed_params(1))


# ---------------------------------------------------------------------------
# Lah numbers
# ---------------------------------------------------------------------------

def test_lah_frozen():
    assert lah(2, 1) == 2
    assert lah(0, 0) == 1
    assert lah(3, 0) == 0
    assert lah(4, 2) == 36
    table = [[lah(n, k) for k in range(n + 1)] for n in range(7)]
    # rising factorial expanded over falling factorials, checked at z = 9
    z = 9
    for n in range(7):
        rising = 1
        for i in range(n):
            rising *= z + i
        total = sum(
            table[n][k] * math.prod(z - i for i in range(k)) for k in range(n + 1)
        )
        assert total == rising


def test_elliptic_lah_routes_agree():
    params = fixed_params(17)
    rows = {route: elliptic_lah_rows(6, params, route)
            for route in ("recurrence", "explicit", "oracle")}
    for n in range(7):
        for k in range(n + 1):
            rec = rows["recurrence"][n][k]
            exp, s_exp = elliptic_lah_scaled(n, k, params, "explicit")
            orc, s_orc = elliptic_lah_scaled(n, k, params, "oracle")
            assert exp == rows["explicit"][n][k]
            assert orc == rows["oracle"][n][k]
            assert abs(rec - exp) / max(1.0, abs(rec), s_exp) <= 1e-12
            assert abs(rec - orc) / max(1.0, abs(rec), s_orc) <= 1e-12


def test_elliptic_lah_q_degeneration():
    # pure-q leg: the 2,1 entry collapses to q^-1 (1 + q)
    q = 0.44 + 0.13j
    params = EllipticParams(a=0, b=0, q=q, p=0)
    got = elliptic_lah_rows(2, params)[2][1]
    assert residual(got, (1 + q) / q) <= 1e-12


def test_elliptic_lah_classical_point():
    params = EllipticParams(a=0, b=0, q=1, p=0)
    rows = elliptic_lah_rows(6, params)
    for n in range(7):
        for k in range(n + 1):
            assert abs(rows[n][k] - lah(n, k)) <= 1e-8


def test_weight_product_edges():
    params = fixed_params(19)
    assert weight_product(0, params) == 1.0
    with pytest.raises(DomainError):
        weight_product(-1, params)


@pytest.mark.parametrize("rows, scaled", [
    (elliptic_lah_rows, elliptic_lah_scaled),
    (elliptic_stirling2_rows, elliptic_stirling2_scaled),
])
def test_recurrence_matches_explicit_at_n14(rows, scaled):
    # every entry of rows 0..14 for 20 sampler draws, under the 1e-8
    # residual the lah suite uses; theta products truncated for |x| near 1
    # put the two routes up to 5e-6 apart here
    n_max = 14
    disagreements = []
    for seed in range(1, 21):
        params = sample_elliptic_params(random.Random(seed))
        triangle = rows(n_max, params)
        for n in range(n_max + 1):
            for k in range(n + 1):
                rec = triangle[n][k]
                exp_, scale = scaled(n, k, params, "explicit")
                if not abs(rec - exp_) / max(1.0, abs(rec), scale) <= 1e-8:
                    disagreements.append((seed, n, k))
    assert disagreements == []
