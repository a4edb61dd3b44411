"""Eulerian triangles: route agreement, specializations, and the
interpolation identity they are defined by."""

import importlib
import math
import random
import struct
from fractions import Fraction

import pytest

from qelliptic.errors import DegenerateSequence, DomainError
from qelliptic.eulerian import (
    elliptic_eulerian_rows,
    elliptic_eulerian_scaled,
    elliptic_r_whitney_eulerian_rows,
    elliptic_r_whitney_eulerian_scaled,
    eulerian,
    eulerian_rows,
    general_eulerian_rows,
    general_eulerian_scaled,
    lagrange_delta,
    q_eulerian,
    q_eulerian_rows,
    q_r_whitney_eulerian,
    q_r_whitney_eulerian_rows,
    r_whitney_eulerian_rows,
    worpitzky_check,
)
from qelliptic import newton
from qelliptic.newton import (
    AffineWhitneySequence,
    ClassicalSequence,
    EllipticSequence,
    ExplicitSequence,
    QNumberSequence,
    QWhitneySequence,
    connection_explicit_scaled,
    connection_recurrence,
)
from qelliptic.scalars import (
    COMPLEX,
    EXACT_Q,
    RATIONAL,
    ExactScalar,
    q_factorial,
    q_number,
    residual,
)
from qelliptic.theta import EllipticParams, sample_elliptic_params

# the module, which the package's function of the same name shadows
eulerian_module = importlib.import_module("qelliptic.eulerian")


def fixed_params(seed):
    return sample_elliptic_params(random.Random(seed))


# ---------------------------------------------------------------------------
# classical
# ---------------------------------------------------------------------------

def test_eulerian_frozen():
    assert [eulerian(3, k) for k in range(4)] == [0, 1, 4, 1]
    assert [eulerian(5, k) for k in range(6)] == [0, 1, 26, 66, 26, 1]
    assert eulerian(0, 0) == 1
    assert eulerian(4, 9) == 0


def test_eulerian_routes_and_row_sums():
    rows = eulerian_rows(9)
    assert rows == eulerian_rows(9, "explicit")
    for n, row in enumerate(rows):
        assert sum(row) == math.factorial(n)


def test_eulerian_engine_matches():
    seq = ClassicalSequence()
    for n in range(8):
        rows = general_eulerian_rows(seq, n)
        for k in range(n + 1):
            assert rows[n][k] == Fraction(eulerian(n, k))
            assert general_eulerian_scaled(n, k, seq)[0] == eulerian(n, k)


def _rows_per_factor(seq, N):
    """general_eulerian_rows as it was before the hoisted gap products: the
    correction product P(n, k) as n + 1 quotients, one per factor."""
    field = seq.field
    rows = [[field.one]]
    for n in range(N):
        prev = rows[-1]
        row = []
        for k in range(n + 2):
            acc = field.zero
            if k >= 1:
                acc = acc + seq[n - k + 2] * prev[k - 1]
            if k <= n:
                p = field.one
                for i in range(1, n + 2):
                    p = p * field.div(seq[n - k + 2] - seq[i - k],
                                      seq[n - k + 1] - seq[i - 1 - k])
                acc = acc + (-seq[-k]) * p * prev[k]
            row.append(acc)
        rows.append(row)
    return rows


def _rational_nodes():
    # distinct rationals on [-10, 12]: P(n, k) does not collapse here
    rng = random.Random(41)
    values = rng.sample([Fraction(p, q) for p in range(-60, 61) for q in (1, 2, 3, 7)
                         if math.gcd(p, q) == 1], 23)
    return ExplicitSequence(values, offset=-10, field=RATIONAL)


def _q_polynomial_nodes():
    # [i]_q^2 + q^i on [-10, 12], distinct, and no product of gaps collapses
    # to a Laurent polynomial
    return ExplicitSequence(
        [q_number(i) * q_number(i) + ExactScalar.q_power(i) for i in range(-10, 13)],
        offset=-10, field=EXACT_Q)


@pytest.mark.parametrize("make", [
    ClassicalSequence,
    QNumberSequence,
    lambda: AffineWhitneySequence(2, 1),
    lambda: AffineWhitneySequence(3, 2),
    lambda: QWhitneySequence(1, 0),
    lambda: QWhitneySequence(2, 1),
    lambda: QWhitneySequence(3, 2),
    _rational_nodes,
], ids=["classical", "q", "affine-2-1", "affine-3-2", "qwhitney-1-0",
        "qwhitney-2-1", "qwhitney-3-2", "rational"])
def test_exact_engine_rows_equal_the_per_factor_loop(make):
    # on the named node families P(n, k) collapses to 1 or a power of q,
    # which a misindexed gap product can reproduce; on the rational nodes
    # it does not
    for N in range(11):
        assert general_eulerian_rows(make(), N) == _rows_per_factor(make(), N), N


def test_exact_q_engine_refuses_nodes_whose_entries_are_not_laurent():
    # EXACT_Q is a ring: P(n, k) over these nodes is a rational function of
    # q, so the engine's exact division raises, where RATIONAL nodes work
    seq = _q_polynomial_nodes()
    assert general_eulerian_rows(seq, 1) == _rows_per_factor(seq, 1)
    with pytest.raises(ArithmeticError):
        general_eulerian_rows(_q_polynomial_nodes(), 2)


# ---------------------------------------------------------------------------
# q level
# ---------------------------------------------------------------------------

def test_q_eulerian_frozen():
    assert str(q_eulerian(2, 1)) == "q"
    assert q_eulerian(2, 2) == ExactScalar.from_int(1)
    assert str(q_eulerian(3, 2)) == "2*q + 2*q^2"
    assert q_eulerian(4, 0).is_zero


def test_q_eulerian_three_routes_identical():
    a = q_eulerian_rows(7, "recurrence")
    assert a == q_eulerian_rows(7, "explicit")
    assert a == q_eulerian_rows(7, "engine")


def test_q_eulerian_row_sum_is_q_factorial():
    for n, row in enumerate(q_eulerian_rows(7)):
        total = EXACT_Q.zero
        for value in row:
            total = total + value
        assert total == q_factorial(n)


def test_q_eulerian_classical_limit():
    for n, row in enumerate(q_eulerian_rows(7)):
        for k, value in enumerate(row):
            assert value.evaluate_fraction(Fraction(1)) == eulerian(n, k)


# ---------------------------------------------------------------------------
# r-Whitney levels
# ---------------------------------------------------------------------------

def test_r_whitney_direct_vs_engine():
    for m in (1, 2, 3):
        for r in range(m):
            assert r_whitney_eulerian_rows(6, m, r, "direct") == \
                r_whitney_eulerian_rows(6, m, r, "engine")


def test_r_whitney_10_is_classical():
    rows = r_whitney_eulerian_rows(7, 1, 0)
    for n in range(8):
        for k in range(n + 1):
            assert rows[n][k] == eulerian(n, k)


def test_q_r_whitney_three_routes():
    for m, r in [(1, 0), (2, 1), (3, 2)]:
        a = q_r_whitney_eulerian_rows(5, m, r, "recurrence")
        assert a == q_r_whitney_eulerian_rows(5, m, r, "explicit")
        assert a == q_r_whitney_eulerian_rows(5, m, r, "engine")


def test_q_r_whitney_10_is_q_eulerian():
    for n in range(7):
        for k in range(n + 1):
            assert q_r_whitney_eulerian(n, k, 1, 0) == q_eulerian(n, k)


def test_r_whitney_domain():
    with pytest.raises(DomainError):
        r_whitney_eulerian_rows(3, 0, 0)
    with pytest.raises(DomainError):
        q_r_whitney_eulerian(3, 1, 2, -1)


# ---------------------------------------------------------------------------
# elliptic levels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [2, 3, 5])
def test_elliptic_eulerian_routes(seed):
    params = fixed_params(seed)
    seq = EllipticSequence(params)
    recurrence = elliptic_eulerian_rows(6, params)
    explicit = elliptic_eulerian_rows(6, params, "explicit")
    for n in range(7):
        rows = general_eulerian_rows(seq, n)
        for k in range(n + 1):
            rec = recurrence[n][k]
            exp, s_exp = elliptic_eulerian_scaled(n, k, params)
            eng, s_eng = general_eulerian_scaled(n, k, seq)
            assert exp == explicit[n][k]
            assert abs(rec - exp) / max(1.0, abs(rec), s_exp) <= 1e-12
            assert abs(rec - eng) / max(1.0, abs(rec), s_eng) <= 1e-12
            assert abs(rec - rows[n][k]) / max(1.0, abs(rec), abs(rows[n][k])) <= 1e-7


def test_elliptic_explicit_table_looks_each_shifted_number_up_once(monkeypatch):
    # the numerator [n - i + 1] and the divisor [k - j - i], both at shift
    # (2u, u) with u = i - k, depend on (n - k, u) and (j, u) only
    calls = []
    lookup = eulerian_module.elliptic_number_shifted

    def counting(z, shift, params):
        calls.append((z, shift))
        return lookup(z, shift, params)

    monkeypatch.setattr(eulerian_module, "elliptic_number_shifted", counting)
    N = 8
    elliptic_eulerian_rows(N, fixed_params(4), "explicit")
    factors = [(n, k, j, i - k) for n in range(N + 1) for k in range(n + 1)
               for j in range(k + 1) for i in range(n + 1) if i != k - j]
    numerators = {(n - k, u) for n, k, _, u in factors}
    divisors = {(j, u) for _, _, j, u in factors}
    assert len(calls) == len(set(calls)) == len(numerators) + len(divisors)
    assert len(calls) < len(factors) // 5


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_elliptic_explicit_table_is_bit_identical_to_the_scaled_entries(seed):
    params = fixed_params(seed)
    rows = elliptic_eulerian_rows(8, params, "explicit")
    fresh = params.with_ab()
    for n, row in enumerate(rows):
        scaled = [elliptic_eulerian_scaled(n, k, fresh)[0] for k in range(n + 1)]
        assert _bits(row) == _bits(scaled)


def test_elliptic_eulerian_q_degeneration():
    q = 0.31 - 0.14j
    params = EllipticParams(a=0, b=0, q=q, p=0)
    rows, exact = elliptic_eulerian_rows(6, params), q_eulerian_rows(6)
    for n in range(7):
        for k in range(n + 1):
            got = rows[n][k]
            want = exact[n][k].evaluate(q)
            assert residual(got, want) <= 1e-9


def test_elliptic_eulerian_classical_point():
    params = EllipticParams(a=0, b=0, q=1, p=0)
    rows = elliptic_eulerian_rows(6, params)
    for n in range(7):
        for k in range(n + 1):
            assert abs(rows[n][k] - eulerian(n, k)) <= 1e-8


def test_elliptic_r_whitney_routes_and_specialization():
    params = fixed_params(7)
    for m, r in [(1, 0), (2, 1)]:
        rows = elliptic_r_whitney_eulerian_rows(5, m, r, params)
        for n in range(6):
            for k in range(n + 1):
                rec = rows[n][k]
                exp, scale = elliptic_r_whitney_eulerian_scaled(n, k, m, r, params)
                assert abs(rec - exp) / max(1.0, abs(rec), scale) <= 1e-12
    assert elliptic_r_whitney_eulerian_rows(5, 1, 0, params) == \
        elliptic_eulerian_rows(5, params, "engine")


# ---------------------------------------------------------------------------
# the defining identity and its orthogonality core
# ---------------------------------------------------------------------------

EXACT_SEQS = [
    lambda: ClassicalSequence(),
    lambda: QNumberSequence(),
    lambda: AffineWhitneySequence(2, 1),
    lambda: QWhitneySequence(2, 1),
    lambda: QWhitneySequence(3, 2),
]


@pytest.mark.parametrize("factory", EXACT_SEQS)
def test_worpitzky_exact(factory):
    seq = factory()
    field = seq.field
    for n in range(7):
        row = general_eulerian_rows(seq, n)[n]
        points = [seq[zi] for zi in range(-2, n + 4)]
        # points off the node set, in case node values hide a factor
        if field is RATIONAL:
            points += [Fraction(1, 2), Fraction(-7, 3)]
        for lhs, rhs, _ in worpitzky_check(n, seq, points, row=row):
            assert lhs == rhs


def test_worpitzky_elliptic():
    params = fixed_params(10)
    seq = EllipticSequence(params)
    rng = random.Random(10)
    worst = 0.0
    for n in range(7):
        row = general_eulerian_rows(seq, n)[n]
        points = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                  for _ in range(20)]
        for lhs, rhs, terms in worpitzky_check(n, seq, points, row=row):
            worst = max(worst, residual(lhs, rhs, *terms))
    assert worst <= 1e-9


def _worpitzky_point(n, seq, z, row):
    """Both sides at one point, every product (z - a_{i-k}) formed at the
    point: the reference loop for worpitzky_check.  A float summand forms
    each quotient (z - a_{i-k}) / gap.  An exact one need not be a ring
    element, so both sides are multiplied through by the common multiple
    of the columns' gap products, as worpitzky_check's are, and no
    summands are returned."""
    field = seq.field
    if field.exact:
        gaps = [math.prod((seq[n - k + 1] - seq[i - k] for i in range(1, n + 1)),
                          start=field.one) for k in range(n + 1)]
        cs, common = field.reciprocals(gaps)
        rhs = field.zero
        for k in range(n + 1):
            factor = row[k] * cs[k]
            for i in range(1, n + 1):
                factor = factor * (z - seq[i - k])
            rhs = rhs + factor
        return z ** n * common, rhs, ()
    terms = []
    for k in range(n + 1):
        factor = row[k]
        for i in range(1, n + 1):
            factor = factor * field.div(
                z - seq[i - k], seq[n - k + 1] - seq[i - k]
            )
        terms.append(factor)
    rhs = field.zero
    for t in terms:
        rhs = rhs + t
    return z ** n, rhs, terms


@pytest.mark.parametrize("factory", EXACT_SEQS)
def test_worpitzky_check_equals_the_per_point_loop_exact(factory):
    seq = factory()
    for n in range(9):
        row = general_eulerian_rows(seq, n)[n]
        points = [seq[zi] for zi in range(-2, n + 4)] + _off_nodes(seq)
        got = worpitzky_check(n, seq, points, row=row)
        assert len(got) == len(points)
        # exact summands are not returned
        assert got == [_worpitzky_point(n, seq, z, row) for z in points], n
        # and with one entry off, the sides move with the loop's
        wrong = list(row)
        wrong[n // 2] = wrong[n // 2] + 1
        assert (worpitzky_check(n, seq, points, row=wrong)
                == [_worpitzky_point(n, seq, z, wrong) for z in points]), n


def _off_nodes(seq):
    """Points off the node set of an exact sequence."""
    if seq.field is RATIONAL:
        return [Fraction(1, 2), Fraction(-7, 3)]
    return [q_number(5) * q_number(3), ExactScalar.parse("3*q^-2 + q"),
            ExactScalar.from_int(-7)]


@pytest.mark.parametrize("factory", EXACT_SEQS)
def test_worpitzky_check_finds_a_row_entry_off_by_one(factory):
    # A(n, k) + 1 adds prod_i (z - a_{i-k}) / gap to the right side, which
    # vanishes only on the nodes
    seq = factory()
    points = _off_nodes(seq)
    for n in range(1, 7):
        row = general_eulerian_rows(seq, n)[n]
        assert all(lhs == rhs for lhs, rhs, _ in worpitzky_check(n, seq, points, row=row))
        for k in range(n + 1):
            wrong = list(row)
            wrong[k] = wrong[k] + 1
            sides = worpitzky_check(n, seq, points, row=wrong)
            assert all(lhs != rhs for lhs, rhs, _ in sides), (n, k)


@pytest.mark.parametrize("factory", [f for f in EXACT_SEQS if f().field is EXACT_Q])
def test_worpitzky_check_divides_nowhere(factory, monkeypatch):
    # both sides come multiplied through by the columns' common multiple,
    # so no exact quotient is formed, at the nodes or off them, and with a
    # wrong row too
    scalars_module = importlib.import_module("qelliptic.scalars")
    quotient, calls = scalars_module._quotient, []

    def counting(num, den):
        calls.append(1)
        return quotient(num, den)

    seq = factory()
    for n in range(7):
        row = general_eulerian_rows(seq, n)[n]
        wrong = row[:-1] + [row[-1] + 1]
        points = [seq[zi] for zi in range(-2, n + 4)] + _off_nodes(seq)
        monkeypatch.setattr(scalars_module, "_quotient", counting)
        worpitzky_check(n, seq, points, row=row)
        worpitzky_check(n, seq, points, row=wrong)
        monkeypatch.setattr(scalars_module, "_quotient", quotient)
        assert calls == [], n


def _bits(values):
    return [struct.pack("<dd", complex(v).real, complex(v).imag) for v in values]


def test_worpitzky_check_is_bit_identical_to_the_per_point_loop_elliptic():
    rng = random.Random(31)
    for _ in range(4):
        seq = EllipticSequence(sample_elliptic_params(rng))
        for n in range(7):
            row = general_eulerian_rows(seq, n)[n]
            points = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                      for _ in range(5)] + [seq[2], seq[-n]]
            for z, (lhs, rhs, terms) in zip(points, worpitzky_check(n, seq, points)):
                want_lhs, want_rhs, want_terms = _worpitzky_point(n, seq, z, row)
                assert _bits([lhs, rhs, *terms]) == _bits([want_lhs, want_rhs, *want_terms])


def test_lagrange_delta_exact():
    for factory in (lambda: ClassicalSequence(), lambda: QNumberSequence()):
        seq = factory()
        field = seq.field
        for n in range(6):
            for k in range(n + 1):
                for l in range(k + 1):
                    got = lagrange_delta(n, k, l, seq)
                    want = field.one if k == l else field.zero
                    assert got == want


@pytest.mark.parametrize("make", [QNumberSequence, lambda: QWhitneySequence(2, 1)],
                         ids=["q", "qwhitney-2-1"])
def test_exact_lagrange_sums_divide_once_and_equal_the_engine(make):
    # each sum's summands are rational functions of q; over one common
    # multiple of their denominators the sum divides exactly
    seq = make()
    rows = general_eulerian_rows(seq, 6)
    cs = [seq[-i] for i in range(6)]
    connection = connection_recurrence(EXACT_Q.one, cs, seq)
    for n in range(7):
        for k in range(n + 1):
            assert general_eulerian_scaled(n, k, seq) == (rows[n][k], 1.0), (n, k)
            assert connection_explicit_scaled(EXACT_Q.one, cs, seq, n, k) == (
                connection[n][k], 1.0), (n, k)
            for l in range(k + 1):
                assert lagrange_delta(n, k, l, seq) == (1 if l == k else 0), (n, k, l)


def test_lagrange_delta_elliptic():
    # summands of the delta sum cancel, so the absolute error tracks the
    # largest summand; bound it and walk seeds until two draws qualify
    seed = 14
    checked = 0
    while checked < 2:
        params = fixed_params(seed)
        seed += 1
        seq = EllipticSequence(params)
        worst = 0.0
        try:
            for n in range(7):
                for k in range(n + 1):
                    for l in range(k + 1):
                        got = lagrange_delta(n, k, l, seq, max_scale=1e5)
                        want = 1.0 if k == l else 0.0
                        worst = max(worst, abs(got - want))
        except DegenerateSequence:
            continue
        assert worst <= 1e-9
        checked += 1


def test_lagrange_delta_scale_bound_raises():
    # seed 14 spreads node magnitudes over two decades, which pushes the
    # canceled summands to ~5e7 at (6, 2, 1); the bound must catch that
    seq = EllipticSequence(fixed_params(14))
    with pytest.raises(DegenerateSequence):
        lagrange_delta(6, 2, 1, seq, max_scale=1e5)
    assert abs(lagrange_delta(6, 2, 1, seq)) <= 1e-6


def test_engine_names_the_first_close_pair_of_the_first_refusing_row(monkeypatch):
    # general_eulerian_rows scans only the pairs that the new nodes -n and
    # n+2 of window n form; it must refuse with the pair that a full scan
    # of each window [-n, n+2], row by row, names first, and scan no pair
    # of nodes twice
    scanned = []
    scan = newton._numeric_pair_scan

    def recording_scan(values, pairs):
        n = (len(values) - 3) // 2
        for i, j in pairs:
            scanned.append((i - n, j - n))
            scan(values, [(i, j)])

    monkeypatch.setattr(eulerian_module, "_numeric_pair_scan", recording_scan)
    rng = random.Random(43)
    N = 7
    outcomes = set()
    for trial in range(400):
        values = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                  for _ in range(2 * N + 3)]
        for _ in range(trial % 3):
            i, j = sorted(rng.sample(range(len(values)), 2))
            values[j] = values[i] * (1 + complex(rng.uniform(-1e-12, 1e-12)))
        seq = ExplicitSequence(values, offset=-N, field=COMPLEX)
        want = None
        try:
            for n in range(N + 1):
                newton._numeric_pair_scan(seq.window(-n, n + 2))
        except DegenerateSequence as exc:
            want = str(exc)
        scanned.clear()
        try:
            general_eulerian_rows(seq, N)
            got = None
        except DegenerateSequence as exc:
            got = str(exc)
        assert got == want, values
        assert len(scanned) == len(set(scanned)), values
        if got is None:
            assert len(scanned) == (2 * N + 3) * (N + 1), values
        outcomes.add(None if got is None else got.split()[3] != "0")
    # acceptances, and refusals at pairs (0, j) and (i, 2n+2) with i > 0
    assert outcomes == {None, False, True}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_explicit_r_whitney_rows_name_the_pair_of_a_whole_window_scan(seed):
    # a = 1 brings elliptic nodes together, at rows 0 to 3 depending on
    # (m, r); the explicit route scans only each row's new pairs, and must
    # refuse with the pair that a full scan of each window, row by row,
    # names first
    params = fixed_params(seed).with_ab(a=1)
    rows_refused = set()
    for m in (1, 2, 3):
        for r in range(5):
            seq = EllipticSequence(params, scale=m, offset=-r)
            want = None
            try:
                for n in range(9):
                    newton._numeric_pair_scan(seq.window(-n, n + 2))
            except DegenerateSequence as exc:
                want = str(exc)
                rows_refused.add(n)
            try:
                elliptic_r_whitney_eulerian_rows(8, m, r, params, "explicit")
                got = None
            except DegenerateSequence as exc:
                got = str(exc)
            assert got == want, (m, r)
    assert rows_refused == {0, 1, 2, 3}


def test_engine_domain():
    with pytest.raises(DomainError):
        general_eulerian_rows(ClassicalSequence(), -1)
    with pytest.raises(DomainError):
        lagrange_delta(3, 1, 2, ClassicalSequence())
    with pytest.raises(DomainError):
        eulerian(-1, 0)
