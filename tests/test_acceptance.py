"""Acceptance gate: nine cross-route and invariant checks.

Every check prints exactly one `[PASS]`/`[FAIL]` line (visible under
``pytest -s`` or in the captured-output section of a failure report) and
then asserts.  Numeric comparisons divide by the conditioning scale the
route reports for itself, never by an ad hoc fudge factor.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from qelliptic.errors import DegenerateParameters, DegenerateSequence
from qelliptic.eulerian import (
    eulerian,
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
from qelliptic.families import (
    FerrersBoard,
    elliptic_lah_rows,
    elliptic_lah_scaled,
    elliptic_rook_row,
    elliptic_rook_scaled,
    elliptic_stirling2_rows,
    elliptic_stirling2_scaled,
    lah,
    q_stirling2,
    q_stirling2_rows,
    stirling2,
    weight_product,
)
from qelliptic.newton import (
    AffineWhitneySequence,
    ClassicalSequence,
    EllipticSequence,
    ExplicitSequence,
    QNumberSequence,
    QWhitneySequence,
    newton_oracle_scaled,
)
from qelliptic.scalars import residual
from qelliptic.suites import run_suite
from qelliptic.theta import EllipticParams, sample_annulus, sample_elliptic_params

RESAMPLE_CAP = 200


def _finish(label: str, failures: list):
    ok = not failures
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"{label}: {failures[:5]}"


def _sample_params(rng):
    return sample_elliptic_params(rng)


def _with_resampling(rng, body):
    """Run body(params) on sampled parameters, redrawing degenerate ones."""
    for _ in range(RESAMPLE_CAP):
        params = _sample_params(rng)
        try:
            return body(params)
        except (DegenerateParameters, DegenerateSequence):
            continue
    raise AssertionError("no usable parameter draw in %d tries" % RESAMPLE_CAP)


def test_q_stirling_routes_and_classical_point():
    failures = []
    start = time.monotonic()
    one = Fraction(1)
    recurrence, h = q_stirling2_rows(10), q_stirling2_rows(10, "h")
    for n in range(11):
        for k in range(n + 1):
            rec = recurrence[n][k]
            if rec != q_stirling2(n, k):
                failures.append(("explicit", n, k))
            if rec != h[n][k]:
                failures.append(("h", n, k))
            if rec.evaluate_fraction(one) != stirling2(n, k):
                failures.append(("q=1", n, k))
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        failures.append(("runtime", elapsed))
    _finish("q-Stirling: three routes identical, q=1 classical, "
            f"n<=10 in {elapsed:.2f}s", failures)


def test_q_eulerian_routes_and_classical_row():
    failures = []
    start = time.monotonic()
    one = Fraction(1)
    recurrence = q_eulerian_rows(9)
    for n in range(10):
        for k in range(n + 1):
            rec = recurrence[n][k]
            if rec != q_eulerian(n, k):
                failures.append(("explicit", n, k))
            if rec.evaluate_fraction(one) != eulerian(n, k):
                failures.append(("q=1", n, k))
    if [q_eulerian(3, k).evaluate_fraction(one) for k in range(4)] != [0, 1, 4, 1]:
        failures.append("row 3")
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        failures.append(("runtime", elapsed))
    _finish("q-Eulerian: recurrence equals sum, q=1 row 3 is 0,1,4,1, "
            f"n<=9 in {elapsed:.2f}s", failures)


def test_theta_identity_suite():
    rep = run_suite("theta", trials=100, seed=1, tol=1e-9)
    failures = [(c.name, c.worst) for c in rep.checks if c.failed]
    worst = max(c.worst for c in rep.checks)
    _finish(f"theta identities: 100 trials each, worst {worst:.2e} <= 1e-9",
            failures)


def test_elliptic_identity_suite():
    rep = run_suite("elliptic-identities", trials=50, seed=1, tol=1e-9)
    failures = [(c.name, c.worst) for c in rep.checks if c.failed]
    worst = max(c.worst for c in rep.checks)
    _finish("elliptic number identities: 50 trials each, "
            f"worst {worst:.2e} <= 1e-9", failures)


def test_elliptic_stirling_triple_route_and_degeneration():
    failures = []
    rng = random.Random(5)
    worst = 0.0

    def triangle(params):
        devs = []
        recurrence = elliptic_stirling2_rows(7, params)
        for n in range(8):
            for k in range(n + 1):
                rec = recurrence[n][k]
                ev, es = elliptic_stirling2_scaled(n, k, params, "explicit")
                ov, os_ = elliptic_stirling2_scaled(n, k, params, "oracle")
                devs.append(max(
                    residual(rec, ev, es),
                    residual(rec, ov, os_),
                    residual(ev, ov, es, os_),
                ))
        return max(devs)

    for _ in range(25):
        dev = _with_resampling(rng, triangle)
        worst = max(worst, dev)
        if dev > 1e-8:
            failures.append(("routes", dev))

    chain_worst = 0.0
    for _ in range(5):
        qv = sample_annulus(rng, 0.4, 0.9)
        flat = EllipticParams(a=0, b=0, q=qv, p=0)
        rows, exact = elliptic_stirling2_rows(7, flat), q_stirling2_rows(7)
        for n in range(8):
            for k in range(n + 1):
                got = rows[n][k]
                want = exact[n][k].evaluate(qv)
                dev = residual(got, want)
                chain_worst = max(chain_worst, dev)
                if dev > 1e-9:
                    failures.append(("chain", n, k, qv, dev))
    _finish("elliptic Stirling: triple route worst "
            f"{worst:.2e} <= 1e-8 over 25 draws, "
            f"degeneration worst {chain_worst:.2e} <= 1e-9", failures)


def _exact_engine_check(seq, failures, tag):
    rows = general_eulerian_rows(seq, 7)
    for n in range(8):
        for k in range(n + 1):
            if rows[n][k] != general_eulerian_scaled(n, k, seq)[0]:
                failures.append((tag, "explicit", n, k))
        zis = range(-1, n + 3)
        sides = worpitzky_check(n, seq, [seq[zi] for zi in zis], row=rows[n])
        for zi, (lhs, rhs, _) in zip(zis, sides):
            if lhs != rhs:
                failures.append((tag, "worpitzky", n, zi))


def _numeric_engine_check(seq, rng, failures, tag):
    rows = general_eulerian_rows(seq, 7)
    worst = 0.0
    for n in range(8):
        for k in range(n + 1):
            ev, es = general_eulerian_scaled(n, k, seq)
            dev = residual(rows[n][k], ev, es)
            worst = max(worst, dev)
            if dev > 1e-7:
                failures.append((tag, "routes", n, k, dev))
        points = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                  for _ in range(20)]
        sides = worpitzky_check(n, seq, points, row=rows[n])
        for z, (lhs, rhs, terms) in zip(points, sides):
            dev = residual(lhs, rhs, *terms)
            worst = max(worst, dev)
            if dev > 1e-7:
                failures.append((tag, "worpitzky", n, z, dev))
    return worst


def test_generalized_eulerian_routes_and_delta():
    failures = []
    rng = random.Random(6)
    for seq, tag in (
        (ClassicalSequence(), "classical"),
        (QNumberSequence(), "q"),
        (AffineWhitneySequence(3, 1), "affine"),
        (QWhitneySequence(2, 1), "q-whitney"),
    ):
        _exact_engine_check(seq, failures, tag)

    worst = 0.0
    for _ in range(3):
        worst = max(worst, _with_resampling(
            rng,
            lambda p: _numeric_engine_check(
                EllipticSequence(p), rng, failures, "elliptic"),
        ))
    for _ in range(3):
        for _ in range(RESAMPLE_CAP):
            values = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                      for _ in range(17)]
            seq = ExplicitSequence(values, offset=-7)
            try:
                worst = max(worst,
                            _numeric_engine_check(seq, rng, failures, "random"))
                break
            except DegenerateSequence:
                continue

    def delta_block(params):
        seq = EllipticSequence(params)
        devs = []
        for k in range(7):
            for l in range(k + 1):
                got = lagrange_delta(6, k, l, seq, max_scale=1e5)
                devs.append(abs(got - (1.0 if k == l else 0.0)))
        return max(devs)

    delta_worst = _with_resampling(rng, delta_block)
    if delta_worst > 1e-9:
        failures.append(("delta", delta_worst))
    _finish("generalized Eulerian: exact families agree, numeric worst "
            f"{worst:.2e} <= 1e-7, delta worst {delta_worst:.2e} <= 1e-9",
            failures)


def test_rook_and_lah_families():
    failures = []
    rng = random.Random(7)

    def empty_board(params):
        for j, val in enumerate(elliptic_rook_row(FerrersBoard.empty(5), params)):
            if val != (1.0 if j == 0 else 0.0):
                failures.append(("empty", j, val))
        return 0.0

    def staircase(params):
        devs = []
        for n in range(1, 7):
            board = FerrersBoard.staircase(n)
            stirling = elliptic_stirling2_rows(n, params)[n]
            for k in range(n + 1):
                rv, rs = elliptic_rook_scaled(board, n - k, params)
                want = stirling[k] * weight_product(k, params)
                devs.append(residual(rv, want, rs))
        return max(devs)

    def lah_routes(params):
        devs = []
        recurrence = elliptic_lah_rows(6, params)
        for n in range(7):
            for k in range(n + 1):
                rec = recurrence[n][k]
                ev, es = elliptic_lah_scaled(n, k, params, "explicit")
                ov, os_ = elliptic_lah_scaled(n, k, params, "oracle")
                devs.append(max(
                    residual(rec, ev, es),
                    residual(rec, ov, os_),
                    residual(ev, ov, es, os_),
                ))
        return max(devs)

    _with_resampling(rng, empty_board)
    stair_worst = lah_worst = 0.0
    for _ in range(3):
        dev = _with_resampling(rng, staircase)
        stair_worst = max(stair_worst, dev)
        if dev > 1e-8:
            failures.append(("staircase", dev))
        dev = _with_resampling(rng, lah_routes)
        lah_worst = max(lah_worst, dev)
        if dev > 1e-8:
            failures.append(("lah routes", dev))

    flat = EllipticParams(a=0, b=0, q=1, p=0)
    seq = ClassicalSequence()
    chain = elliptic_lah_rows(6, flat)
    for n in range(7):
        fv = []
        for z in range(n + 1):
            v = Fraction(1)
            for i in range(n):
                v *= z + i
            fv.append(v)
        coeffs = newton_oracle_scaled(fv, seq, n)[0]
        for k in range(n + 1):
            if abs(chain[n][k] - lah(n, k)) > 1e-8:
                failures.append(("lah chain", n, k))
            if coeffs[k] != lah(n, k):
                failures.append(("lah oracle", n, k))
    _finish("rook and Lah: empty board exact, staircase worst "
            f"{stair_worst:.2e} <= 1e-8, Lah routes worst {lah_worst:.2e} "
            "<= 1e-8, q=1 chain meets the classical oracle", failures)


def test_r_whitney_eulerian_families():
    failures = []
    for m in range(1, 4):
        for r in range(m):
            direct = r_whitney_eulerian_rows(8, m, r, "direct")
            engine = r_whitney_eulerian_rows(8, m, r, "engine")
            for n in range(9):
                for k in range(n + 1):
                    if direct[n][k] != engine[n][k]:
                        failures.append(("int", m, r, n, k))
    for m, r in ((1, 0), (2, 1), (3, 2)):
        recurrence = q_r_whitney_eulerian_rows(6, m, r, "recurrence")
        engine = q_r_whitney_eulerian_rows(6, m, r, "engine")
        for n in range(7):
            for k in range(n + 1):
                rec = recurrence[n][k]
                if rec != q_r_whitney_eulerian(n, k, m, r):
                    failures.append(("q explicit", m, r, n, k))
                if rec != engine[n][k]:
                    failures.append(("q engine", m, r, n, k))
    for n in range(7):
        for k in range(n + 1):
            if q_r_whitney_eulerian(n, k, 1, 0) != q_eulerian(n, k):
                failures.append(("collapse", n, k))
    _finish("r-Whitney Eulerian: direct equals engine (m<=3, n<=8), "
            "q-version three routes exact (n<=6), (1,0) collapses to "
            "the q-triangle", failures)


def test_whole_suite_determinism():
    # The child runs the package in this checkout's src/, wherever pytest
    # was started from and whether or not qelliptic is installed.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "qelliptic", "check",
           "--suite", "all", "--trials", "25", "--seed", "1"]
    start = time.monotonic()
    deadline = start + 60.0
    # A child that overruns the shared deadline raises TimeoutExpired.
    first = subprocess.run(cmd, capture_output=True, cwd=root, env=env,
                           timeout=deadline - time.monotonic())
    second = subprocess.run(cmd, capture_output=True, cwd=root, env=env,
                            timeout=deadline - time.monotonic())
    elapsed = time.monotonic() - start
    failures = []
    if first.returncode != 0:
        failures.append(("exit", first.returncode, first.stdout[-400:],
                         first.stderr[-400:]))
    if second.returncode != 0:
        failures.append(("exit", second.returncode, second.stderr[-400:]))
    if first.stdout != second.stdout:
        failures.append("outputs differ")
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _finish("full check suite: exit 0, byte-identical across two runs, "
            f"{elapsed:.1f}s < 60s", failures)
