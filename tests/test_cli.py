"""CLI behavior: documents, schema conformance, determinism, exit codes."""

import json
import io
import math
import os
import pathlib
import random
import struct
import subprocess
import sys
import time
from types import SimpleNamespace
from unittest import mock

import golden
import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qelliptic import cli, suites
from qelliptic.cli import (
    _DEGENERATE,
    _FAMILIES,
    _TABLE_FLAGS,
    _build_parser,
    _degenerate_limit,
    _parse_complex,
    _parse_board,
    _parse_table,
    _resolve_table,
    main,
)
from qelliptic.errors import DegenerateParameters, DomainError
from qelliptic.eulerian import (
    elliptic_eulerian_rows,
    elliptic_eulerian_scaled,
    elliptic_r_whitney_eulerian_rows,
    elliptic_r_whitney_eulerian_scaled,
    eulerian,
    general_eulerian_rows,
    q_eulerian,
    q_r_whitney_eulerian,
    q_r_whitney_eulerian_rows,
    r_whitney_eulerian_rows,
)
from qelliptic.families import (
    FerrersBoard,
    elliptic_lah_rows,
    elliptic_lah_scaled,
    elliptic_rook_scaled,
    elliptic_stirling2_rows,
    elliptic_stirling2_scaled,
    q_stirling2,
    q_stirling2_rows,
    stirling2,
    stirling2_rows,
)
from qelliptic.newton import (
    EllipticSequence,
    QNumberSequence,
    STSequence,
    h_explicit_scaled,
    h_recurrence,
)
from qelliptic.scalars import EXACT_Q, ExactScalar, q_number
from qelliptic.suites import run_suite
from qelliptic.theta import EllipticParams, sample_elliptic_params

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "schema" / "table_document.schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stirling_table_pretty(capsys):
    code, out, err = run_cli(
        capsys, "table", "--family", "stirling", "--n", "4",
        "--format", "pretty",
    )
    assert code == 0 and err == ""
    assert "n=4: 0 | 1 | 7 | 6 | 1" in out


def test_stirling_table_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "stirling", "--n", "5",
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["schema_version"] == "1"
    row4 = [r["value"] for r in doc["rows"] if r["n"] == 4]
    assert row4 == [0, 1, 7, 6, 1]


def test_qeulerian_exact_strings_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "qeulerian", "--n", "3",
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    values = {(r["n"], r["k"]): r["value"] for r in doc["rows"]}
    assert values[(3, 2)] == "2*q + 2*q^2"
    for text in values.values():
        parsed = ExactScalar.parse(text)
        assert str(parsed) == text


def test_elliptic_table_echoes_sampled_params(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "estirling", "--n", "3", "--seed", "9",
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    for key in ("a", "b", "q", "p"):
        assert set(doc["params"][key]) == {"re", "im"}
    assert doc["params"]["seed"] == 9
    # column k = 1 of this family is identically 1 from row 1 on
    for r in doc["rows"]:
        if r["k"] == 1 and r["n"] >= 1:
            assert abs(complex(r["value"]["re"], r["value"]["im"]) - 1) < 1e-12


def test_rook_table_uses_board(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "rook", "--board", "0,0,0",
        "--seed", "4",
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["params"]["board"] == [0, 0, 0]
    vals = [complex(r["value"]["re"], r["value"]["im"]) for r in doc["rows"]]
    assert vals[0] == 1.0
    assert all(v == 0.0 for v in vals[1:])


def test_table_determinism(capsys):
    args = ("table", "--family", "eeulerian", "--n", "4", "--seed", "11")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_degenerate_chain_family(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "eeulerian", "--n", "2",
        "--a", "0", "--b", "0", "--q", "0.6,0.2", "--p", "0",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,value"
    # the chain lands on the q-analogue, whose (2, 1) entry is q itself
    entry = [l for l in lines if l.startswith("2,1,")][0]
    assert entry == "2,1,0.59999999999999998+0.19999999999999998i"


def test_invalid_family_parameter_combo(capsys):
    code, _, err = run_cli(
        capsys, "table", "--family", "stirling", "--n", "3", "--m", "2",
    )
    assert code == 2
    assert "does not take" in err


def test_invalid_route(capsys):
    code, _, err = run_cli(
        capsys, "table", "--family", "stirling", "--n", "3",
        "--route", "oracle",
    )
    assert code == 2
    assert "routes" in err


def test_missing_n(capsys):
    code, _, err = run_cli(capsys, "table", "--family", "qstirling")
    assert code == 2


def test_degenerate_params_exit_code(capsys):
    # q = 1 outside the fully degenerate corner is rejected as degenerate
    code, _, err = run_cli(
        capsys, "table", "--family", "estirling", "--n", "2",
        "--a", "0.5", "--b", "0.5", "--q", "1", "--p", "0.2",
    )
    assert code in (2, 3)
    assert err != ""


def test_check_all_passes_and_is_deterministic(capsys):
    args = ("check", "--suite", "all", "--trials", "10", "--seed", "1")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip().endswith("overall PASS (9 suites, 0 failing checks)")


def test_check_single_suite(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--suite", "theta", "--trials", "50", "--seed", "7",
    )
    assert code == 0
    assert "suite theta" in out
    assert "trials 50" in out


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_check_without_trials_exit_2(capsys, monkeypatch, trials):
    # a verdict needs a trial behind it: refused before any trial runs
    ran = []
    monkeypatch.setattr(suites, "_run", lambda *args: ran.append(args))
    code, out, err = run_cli(capsys, "check", "--suite", "worpitzky",
                             "--trials", trials)
    assert (code, out, err) == (2, "", "error: trials must be >= 1\n")
    assert ran == []


@pytest.mark.parametrize("suite", ["theta", "all"])
def test_check_trials_above_the_limit_exit_2(capsys, monkeypatch, suite):
    # refused before any trial runs, so a huge count returns at once
    ran = []
    monkeypatch.setattr(suites, "_run", lambda *args: ran.append(args))
    for trials in (suites._MAX_TRIALS + 1, 10**9):
        code, out, err = run_cli(capsys, "check", "--suite", suite,
                                 "--trials", str(trials))
        assert (code, out) == (2, "")
        assert err == f"error: trials must be <= {suites._MAX_TRIALS}\n"
    assert ran == []


def test_check_failure_exit_code(capsys):
    # an absurd tolerance cannot be met; the report must carry the
    # failing parameter records and the exit code must flip to 1
    code, out, _ = run_cli(
        capsys, "check", "--suite", "theta", "--trials", "5",
        "--seed", "1", "--tol", "1e-30",
    )
    assert code == 1
    assert "failing:" in out
    assert "overall FAIL" in out


def test_degenerate_stirling(capsys):
    code, out, _ = run_cli(capsys, "degenerate", "--family", "stirling")
    assert code == 0
    assert "result PASS" in out


def test_degenerate_lah_oracle(capsys):
    code, out, _ = run_cli(capsys, "degenerate", "--family", "lah")
    assert code == 0
    assert "matches exactly" in out


def test_degenerate_eulerian_deterministic(capsys):
    args = ("degenerate", "--family", "eulerian", "--seed", "5")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("family", sorted(_DEGENERATE))
def test_degenerate_n_stops_where_classical_entries_leave_exact_doubles(capsys, family):
    # past the limit the absolute deviation met integers of 2^53 and more:
    # FAIL from n = 23 (stirling) and 19 (eulerian), an OverflowError
    # traceback for lah at n = 170, and minutes of work at n = 200
    classical = _DEGENERATE[family][1]
    limit = _degenerate_limit(classical)
    assert all(classical(n, k) < 2**53 for n in range(limit + 1) for k in range(n + 1))
    assert max(classical(limit + 1, k) for k in range(limit + 2)) >= 2**53
    code, out, _ = run_cli(capsys, "degenerate", "--family", family,
                           "--seed", "1", "--n", str(limit))
    assert code == 0 and "result PASS" in out
    for n in (limit + 1, 170, 200):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "degenerate", "--family", family,
                                 "--seed", "1", "--n", str(n))
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith(f"error: --n {n} is past {limit} for {family}")


# suite -> (default tolerance, default trials, check names in report order)
SUITE_LAYOUT = {
    "theta": (1e-9, 100, ["inversion", "quasi-periodicity", "three-term",
                          "series-vs-product"]),
    "elliptic-identities": (1e-9, 50, ["addition", "weight-shift", "negation",
                                       "ellipticity-a", "ellipticity-b"]),
    "h-routes": (1e-9, 25, ["elliptic-routes", "exact-q-routes"]),
    "connection": (1e-9, 25, ["routes", "newton-expansion"]),
    "rook": (1e-8, 25, ["route-agreement", "staircase-stirling", "empty-board"]),
    "lah": (1e-8, 25, ["routes", "classical-point"]),
    "eulerian-routes": (1e-7, 25, ["elliptic-routes", "r-whitney-exact",
                                   "q-r-whitney-exact", "delta-identity"]),
    "worpitzky": (1e-8, 25, ["exact-families", "elliptic"]),
    "degeneration": (1e-8, 25, ["stirling-chain", "eulerian-chain", "lah-chain",
                                "classical-point"]),
}


def test_suite_reports_structure():
    assert list(suites.SUITE_NAMES) == list(SUITE_LAYOUT)
    for name, (tol, trials, checks) in SUITE_LAYOUT.items():
        rep = run_suite(name, seed=2)
        assert (rep.suite, rep.seed, rep.tol) == (name, 2, tol)
        assert [c.name for c in rep.checks] == checks
        assert all(c.trials == trials for c in rep.checks), name
        assert rep.passed, name


@pytest.mark.parametrize("suite, patched, check", [
    ("lah", "elliptic_lah_scaled", "routes"),
    ("rook", "elliptic_rook_scaled", "route-agreement"),
])
def test_a_nan_route_fails_its_check(monkeypatch, suite, patched, check):
    # builtin max keeps the first of two incomparable values, so a NaN
    # route used to pass (lah) or fail with worst 0 (rook)
    route = getattr(suites, patched)

    def nan_oracle(*args):
        value, scale = route(*args)
        return (complex(math.nan, 0.0) if args[-1] == "oracle" else value), scale

    monkeypatch.setattr(suites, patched, nan_oracle)
    result = {c.name: c for c in run_suite(suite, trials=25, seed=1).checks}[check]
    assert result.failed == 25
    assert math.isnan(result.worst)
    assert f"worst {result.worst:.3e}" == "worst nan"


def test_a_nan_point_fails_the_elliptic_worpitzky_check(monkeypatch):
    # the check's worst over its 20 points is kept NaN-aware too
    check = suites.worpitzky_check

    def nan_first_point(n, seq, points, row=None):
        sides = check(n, seq, points, row=row)
        if not seq.field.exact:
            sides[0] = (complex(math.nan, 0.0), *sides[0][1:])
        return sides

    monkeypatch.setattr(suites, "worpitzky_check", nan_first_point)
    exact, elliptic = run_suite("worpitzky", trials=25, seed=1).checks
    assert exact.passed
    assert elliptic.failed == 25 and math.isnan(elliptic.worst)


def test_exact_worpitzky_builds_each_engine_triangle_once(monkeypatch):
    # each exact-families trial reads the cached engine triangle of its
    # nodes instead of building rows on a fresh sequence
    builds = []

    def counted(seq, N):
        builds.append((type(seq).__name__, N))
        return general_eulerian_rows(seq, N)

    # the package's eulerian() hides the module of that name
    monkeypatch.setattr(sys.modules["qelliptic.eulerian"], "general_eulerian_rows",
                        counted)
    r_whitney_eulerian_rows.cache_clear()
    q_r_whitney_eulerian_rows.cache_clear()
    rng = random.Random(7)
    records = [suites._exact_families(rng) for _ in range(100)]
    assert all(err == 0.0 for err, _ in records)
    assert 0 < len(builds) <= len({record for _, record in records}) < 100


def test_an_off_by_one_engine_row_fails_the_exact_worpitzky_check(monkeypatch):
    def off_by_one(rows):
        def builder(N, m, r, route):
            got = [list(row) for row in rows(N, m, r, route)]
            got[N][N] = got[N][N] + 1
            return got
        return builder

    for name in ("r_whitney_eulerian_rows", "q_r_whitney_eulerian_rows"):
        monkeypatch.setattr(suites, name, off_by_one(getattr(suites, name)))
    exact, _ = run_suite("worpitzky", trials=25, seed=1).checks
    assert (exact.failed, exact.worst) == (25, 1.0)


@pytest.mark.parametrize("argv", [
    ("check", "--suite", "theta", "--trials", "2", "--tol", "inf"),
    ("check", "--suite", "all", "--tol", "inf"),
    ("degenerate", "--family", "lah", "--tol", "inf"),
])
def test_an_infinite_tolerance_exits_2(capsys, monkeypatch, argv):
    # every finite residual meets tol = inf, so a PASS would say nothing
    ran = []
    monkeypatch.setattr(suites, "_run", lambda *args: ran.append(args))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: tol must be finite\n")
    assert ran == []


def test_run_suite_refuses_an_infinite_tolerance():
    with pytest.raises(DomainError, match="^tol must be finite$"):
        run_suite("theta", trials=2, tol=math.inf)


def test_cli_import_loads_no_dataclasses_inspect_or_csv(capsys):
    # against the interpreter's own modules at start-up, so a site hook
    # that loads one of them does not count
    script = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import qelliptic.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'csv'} & (set(sys.modules) - bare)))\n"
        "sys.exit(qelliptic.cli.main(sys.argv[1:]))\n"
    )
    argv = ["table", "--family", "qeulerian", "--n", "3", "--format", "csv"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    fresh = subprocess.run([sys.executable, "-c", script, *argv],
                           capture_output=True, text=True, env=env, timeout=60)
    code, out, err = run_cli(capsys, *argv)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, "[]\n" + out, err)
    assert code == 0 and out.startswith("n,k,value\n")


def run_cli_exit(capsys, *argv):
    """Like run_cli, but an argument-parser exit counts as the exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nome_above_truncation_cap_exits_2_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run_cli_exit(
        capsys, "table", "--family", "estirling", "--n", "3",
        "--p", "0.99999", "--seed", "1",
    )
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert "exceeds the limit" in err


@pytest.mark.parametrize("flag", ["--p=nan", "--q=inf", "--a=nan,0", "--b=0.5,-inf"])
def test_non_finite_parameters_exit_2(capsys, flag):
    code, out, err = run_cli_exit(
        capsys, "table", "--family", "estirling", "--n", "3", "--seed", "1", flag,
    )
    assert code == 2
    assert out == ""
    assert flag.split("=")[0] in err


def test_bad_value_flags_show_the_library_message(capsys):
    code, out, err = run_cli_exit(
        capsys, "table", "--family", "estirling", "--n", "3", "--p=nan",
    )
    assert code == 2 and out == ""
    assert "expects finite re or re,im" in err
    code, out, err = run_cli_exit(
        capsys, "table", "--family", "rook", "--board", "2,1",
    )
    assert code == 2 and out == ""
    assert "weakly increasing" in err


@pytest.mark.parametrize("flag", ["--q=1e-300", "--q=1e300", "--a=1e300,0", "--b=1e-300"])
def test_parameters_outside_double_range_exit_3(capsys, flag):
    code, out, err = run_cli_exit(
        capsys, "table", "--family", "estirling", "--n", "3", "--seed", "1", flag,
    )
    assert code == 3
    assert out == ""
    assert err.startswith("degenerate:")


# every factor clears the guard, but the denominator product of [0] is not
# finite: the window used to accept the draw, and [0] then exited 3 naming
# that product
@pytest.mark.parametrize("args", [
    ("--n", "3", "--b=1e-300"),
    ("--route", "h", "--n", "0", "--b=1e30"),
])
def test_non_finite_denominator_product_leaves_no_generic_completion(capsys, args):
    code, out, err = run_cli_exit(
        capsys, "table", "--family", "estirling", "--seed", "1", *args,
    )
    assert code == 3 and out == ""
    assert err.startswith("degenerate: no generic completion")


# a theta argument that underflows to 0 from nonzero parameters leaves
# double range like one that overflows: exit 3 naming the argument, where
# theta's "argument must be nonzero" used to exit 2
def test_denominator_theta_argument_underflow_exits_3(capsys):
    # a q^(-8) / b is 0 for every sampled a, so no completion is found
    code, out, err = run_cli_exit(
        capsys, "table", "--family", "estirling", "--n", "3", "--seed", "1",
        "--b=1e300", "--q=1000",
    )
    assert code == 3 and out == ""
    assert err.startswith("degenerate: no generic completion")
    assert "theta argument a q^z / b at z = -8 underflows to 0" in err


def test_numerator_theta_argument_underflow_exits_3(capsys):
    # fully given, so no window runs: theta(a q / b) of [0] is asked for
    code, out, err = run_cli_exit(
        capsys, "table", "--family", "estirling", "--n", "3", "--seed", "1",
        "--a=1e-320", "--b=1e30", "--q=0.5", "--p=0.2",
    )
    assert code == 3 and out == ""
    assert err == ("degenerate: theta argument a q / b at z = 0 underflows "
                   "to 0, outside double range\n")


# with q far from the unit circle the weight's theta argument a q^(2k+1)
# leaves double range inside the sampler's window: at k = -8 it is 0 for
# q = 1e30 and not finite for q = 1e-30, so every completion is refused,
# and the refusal names the argument
@pytest.mark.parametrize("flag", ["--q=1e30", "--q=1e-30"])
@pytest.mark.parametrize("seed", ["1", "4"])
@pytest.mark.parametrize("family,size", [
    ("estirling", ("--n", "6")),
    ("lah", ("--n", "5")),
    ("eeulerian", ("--n", "5")),
    ("erwhitneyeulerian", ("--n", "6")),
    ("eshifted", ("--n", "5")),
    ("rook", ("--board", "1,2,3")),
])
def test_far_q_leaves_no_generic_completion_exit_3(capsys, family, size, seed, flag):
    code, out, err = run_cli_exit(
        capsys, "table", "--family", family, *size, "--seed", seed, flag,
    )
    assert code == 3
    assert out == ""
    assert err.startswith("degenerate: no generic completion")
    assert "refused: theta argument a q^(2z+1) at z = -8 " in err


def test_window_refusal_names_the_small_factor(capsys):
    # at p = 0.9 theta(b q^(z+1)) falls below the denominator guard in
    # the window of every completion drawn
    code, out, err = run_cli_exit(
        capsys, "table", "--family", "lah", "--n", "3", "--seed", "1", "--p=0.9",
    )
    assert code == 3 and out == ""
    assert err.startswith("degenerate: no generic completion")
    assert "refused: denominator factor theta(b q^(z+1)) at z = -5 has modulus " in err


def test_p0_window_refusal_names_the_index(capsys):
    # at p = 0 the window guards the factors (1 - ...) of the closed forms;
    # 1 - b q^(k+1) is exactly 0 at k = 2 for b = 8, q = 0.5
    code, out, err = run_cli(
        capsys, "table", "--family", "lah", "--n", "3", "--seed", "1",
        "--p=0", "--q=0.5", "--b=8",
    )
    assert code == 3 and out == ""
    assert err.startswith("degenerate: no generic completion")
    assert err.rstrip().endswith(
        "refused: denominator factor (1 - b q^(k+1)) at z = 2 has modulus "
        "0.000e+00 < 1.0e-06")


def test_degenerate_calls_the_library_by_name(capsys, monkeypatch):
    # a tracer rebinds the library names in the suites module, which holds
    # the chain table; degenerate and the chain draws must call through
    # them, not through objects bound at import
    calls = []
    rows = suites.elliptic_stirling2_rows
    monkeypatch.setattr(suites, "elliptic_stirling2_rows",
                        lambda *args: calls.append(args) or rows(*args))
    code, out, _ = run_cli(capsys, "degenerate", "--family", "stirling", "--seed", "1")
    assert code == 0 and "result PASS" in out
    assert len(calls) == 1
    draw = dict(suites._SUITES["degeneration"][2])["stirling-chain"]
    err, _ = draw(random.Random(1))
    assert err <= 1e-8 and len(calls) == 2


def _h_entry(e, n, k, nodes, field):
    """h_{n-k}(nodes) by the h route of the name e.route."""
    if e.route == "recurrence":
        return h_recurrence(n - k, nodes, field)
    return h_explicit_scaled(n - k, nodes, field)[0]


# every table entry (n, k) of each (family, route) recomputed on the
# parameters the document echoes: by the per-entry forms (the explicit
# sums, the *_scaled values, one h sum), or else as row n of a triangle
# built up to n
ENTRIES = {
    ("stirling", "recurrence"): lambda e, n, k: stirling2_rows(n)[n][k],
    ("stirling", "explicit"): lambda e, n, k: stirling2(n, k),
    ("qstirling", "recurrence"): lambda e, n, k: q_stirling2_rows(n)[n][k],
    ("qstirling", "explicit"): lambda e, n, k: q_stirling2(n, k),
    ("qstirling", "h"): lambda e, n, k: h_recurrence(
        n - k, [q_number(i) for i in range(k + 1)], EXACT_Q),
    ("estirling", "recurrence"): lambda e, n, k: elliptic_stirling2_rows(n, e.ell)[n][k],
    ("estirling", "h"): lambda e, n, k: h_recurrence(
        n - k, EllipticSequence(e.ell).window(0, k), EllipticSequence.field),
    ("estirling", "explicit"): lambda e, n, k: elliptic_stirling2_scaled(
        n, k, e.ell, "explicit")[0],
    ("estirling", "oracle"): lambda e, n, k: elliptic_stirling2_scaled(
        n, k, e.ell, "oracle")[0],
    **dict.fromkeys([("whitney", "recurrence"), ("whitney", "explicit")],
                    lambda e, n, k: _h_entry(e, n, k, [
                        q_number(e.m * i + e.r) for i in range(k + 1)], EXACT_Q)),
    **dict.fromkeys([("stshifted", "recurrence"), ("stshifted", "explicit")],
                    lambda e, n, k: _h_entry(
                        e, n, k, STSequence(e.m, e.r, e.s, e.t).window(0, k),
                        STSequence.field)),
    **dict.fromkeys([("eshifted", "recurrence"), ("eshifted", "explicit")],
                    lambda e, n, k: _h_entry(
                        e, n, k, EllipticSequence(e.ell, scale=e.m, offset=e.r)
                        .window(0, k), EllipticSequence.field)),
    **dict.fromkeys([("rook", "explicit"), ("rook", "oracle")],
                    lambda e, n, k: elliptic_rook_scaled(
                        FerrersBoard(tuple(e.board)), k, e.ell, e.route)[0]),
    ("lah", "recurrence"): lambda e, n, k: elliptic_lah_rows(n, e.ell)[n][k],
    ("lah", "explicit"): lambda e, n, k: elliptic_lah_scaled(n, k, e.ell, "explicit")[0],
    ("lah", "oracle"): lambda e, n, k: elliptic_lah_scaled(n, k, e.ell, "oracle")[0],
    ("eulerian", "recurrence"): lambda e, n, k: r_whitney_eulerian_rows(
        n, 1, 0, "direct")[n][k],
    ("eulerian", "explicit"): lambda e, n, k: eulerian(n, k),
    ("qeulerian", "recurrence"): lambda e, n, k: q_r_whitney_eulerian_rows(
        n, 1, 0, "recurrence")[n][k],
    ("qeulerian", "explicit"): lambda e, n, k: q_eulerian(n, k),
    ("qeulerian", "engine"): lambda e, n, k: general_eulerian_rows(
        QNumberSequence(), n)[n][k],
    **dict.fromkeys([("rwhitneyeulerian", "direct"), ("rwhitneyeulerian", "engine")],
                    lambda e, n, k: r_whitney_eulerian_rows(n, e.m, e.r, e.route)[n][k]),
    **dict.fromkeys([("qrwhitneyeulerian", "recurrence"),
                     ("qrwhitneyeulerian", "engine")],
                    lambda e, n, k: q_r_whitney_eulerian_rows(
                        n, e.m, e.r, e.route)[n][k]),
    ("qrwhitneyeulerian", "explicit"): lambda e, n, k: q_r_whitney_eulerian(
        n, k, e.m, e.r),
    ("eeulerian", "recurrence"): lambda e, n, k: elliptic_eulerian_rows(n, e.ell)[n][k],
    ("eeulerian", "explicit"): lambda e, n, k: elliptic_eulerian_scaled(n, k, e.ell)[0],
    ("eeulerian", "engine"): lambda e, n, k: general_eulerian_rows(
        EllipticSequence(e.ell), n)[n][k],
    ("erwhitneyeulerian", "recurrence"): lambda e, n, k: elliptic_r_whitney_eulerian_rows(
        n, e.m, e.r, e.ell)[n][k],
    ("erwhitneyeulerian", "explicit"): lambda e, n, k: elliptic_r_whitney_eulerian_scaled(
        n, k, e.m, e.r, e.ell)[0],
}


def same_value(got, want) -> bool:
    """Exact values by their canonical text, numeric ones bit for bit."""
    if isinstance(want, complex):
        return all(
            x == y and math.copysign(1, x) == math.copysign(1, y)
            for x, y in ((got["re"], want.real), (got["im"], want.imag))
        )
    return str(got) == str(want)


def _echoed(params: dict) -> SimpleNamespace:
    e = {key: complex(v["re"], v["im"]) if isinstance(v, dict) else v
         for key, v in params.items()}
    if "p" in e:
        e["ell"] = EllipticParams(a=e["a"], b=e["b"], q=e["q"], p=e["p"])
    return SimpleNamespace(**e)


@pytest.mark.parametrize("family,route", [
    (family, route) for family, record in _FAMILIES.items()
    for route in record.routes
])
@pytest.mark.parametrize("seed", [1, 5])
def test_table_rows_equal_the_entry_functions(capsys, family, route, seed):
    argv = ["table", "--family", family, "--route", route, "--seed", str(seed)]
    if family == "rook":
        argv += ["--board", "1,2,3"]
    else:
        argv += ["--n", "6"]
    if "m" in _FAMILIES[family].flags:
        argv += ["--m", "2", "--r", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    e = _echoed(doc["params"])
    want = [(n, k) for n in range(7) for k in range(n + 1)]
    if family == "rook":
        want = [(3, k) for k in range(4)]
    assert [(row["n"], row["k"]) for row in doc["rows"]] == want
    for row in doc["rows"]:
        reference = ENTRIES[family, route](e, row["n"], row["k"])
        assert same_value(row["value"], reference), (row, reference)


def test_schema_family_enum_is_the_family_record():
    assert set(ENTRIES) == {(family, route) for family, record in _FAMILIES.items()
                            for route in record.routes}
    assert sorted(SCHEMA["properties"]["family"]["enum"]) == sorted(_FAMILIES)


def _ell(seed):
    return sample_elliptic_params(random.Random(seed))


@pytest.mark.parametrize("rows,entry", [
    (stirling2_rows, stirling2),
    (q_stirling2_rows, q_stirling2),
    (lambda N: r_whitney_eulerian_rows(N, 1, 0), eulerian),
    (lambda N: q_r_whitney_eulerian_rows(N, 1, 0), q_eulerian),
    (lambda N: r_whitney_eulerian_rows(N, 3, 2, "engine"),
     lambda n, k: r_whitney_eulerian_rows(n, 3, 2, "direct")[n][k]),
])
def test_exact_recurrences_match_the_explicit_route(rows, entry):
    triangle = rows(6)
    assert len(triangle) == 7
    for n, row in enumerate(triangle):
        assert [str(v) for v in row] == [str(entry(n, k)) for k in range(n + 1)]


# rook boards with n columns, for the n of the builder grid
BOARDS = {0: (), 1: (1,), 2: (0, 2), 6: (0, 1, 1, 3, 4, 6),
          10: (1, 1, 2, 3, 3, 5, 6, 6, 8, 9)}
ROUTES = [(family, route) for family, record in _FAMILIES.items()
          for route in record.routes]


def _resolved(family, route, n, seed, *extra):
    """The table arguments of the CLI, flags checked and parameters drawn."""
    argv = ["table", "--family", family, "--route", route, "--seed", str(seed),
            *extra]
    if "m" in _FAMILIES[family].flags:
        argv += ["--m", "2", "--r", "1"]
    if family == "rook":
        args = _build_parser().parse_args(argv + ["--board", "1"])
        args.board = FerrersBoard(BOARDS[n])
    else:
        args = _build_parser().parse_args(argv + ["--n", str(n)])
    _resolve_table(args)
    return args


def _bits(value) -> bytes:
    # complex values by their IEEE bytes, so the sign of a zero counts
    if isinstance(value, complex):
        return struct.pack("<dd", value.real, value.imag)
    return str(value).encode()


def _outcome(compute):
    try:
        return "rows", [[_bits(v) for v in row] for row in compute()]
    except Exception as exc:  # the refusal itself is what is compared
        return "raised", type(exc), str(exc)


def _per_entry_rows(args):
    """The triangle by the public per-entry function, in (n, k) order, on a
    fresh copy of the parameters (empty caches)."""
    e = SimpleNamespace(**vars(args))
    if "p" in _FAMILIES[args.family].flags:
        e.ell = EllipticParams(a=args.a, b=args.b, q=args.q, p=args.p)
    if args.board is not None:
        e.board = list(args.board.heights)
    first = args.n if args.family == "rook" else 0
    return [[ENTRIES[args.family, args.route](e, n, k) for k in range(n + 1)]
            for n in range(first, args.n + 1)]


@pytest.mark.parametrize("family,route", ROUTES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_row_builders_match_their_entries(family, route, seed):
    built = 0
    for n in BOARDS:
        args = _resolved(family, route, n, seed)
        got = _outcome(lambda: _FAMILIES[family].rows[route](args))
        # equal to rows 0..n (rook: the one row n) of the entries, or to
        # their first refusal (the nodes of a deep table can cluster)
        assert got == _outcome(lambda: _per_entry_rows(args)), n
        built += got[0] == "rows"
    assert built >= 4


@pytest.mark.parametrize("family,route", [
    (family, route) for family, route in ROUTES if "a" in _FAMILIES[family].flags])
@pytest.mark.parametrize("flags", [("--q", "-1"), ("--a", "1")])
def test_row_builders_refuse_like_their_first_failing_entry(family, route, flags):
    # q = -1 and a = 1 make elliptic numbers, shifted numbers or node gaps
    # exactly or nearly 0, and most routes refuse some of these tables; a
    # builder forms shared pieces once, and must still meet the refusal of
    # the first entry, in (n, k) order, that the per-entry route refuses
    compared = 0
    for seed in (1, 2, 3, 4):
        for n in (2, 6, 10):
            try:
                args = _resolved(family, route, n, seed, *flags)
            except DegenerateParameters:
                continue
            got = _outcome(lambda: _FAMILIES[family].rows[route](args))
            want = _outcome(lambda: _per_entry_rows(args))
            assert got == want, (seed, n)
            compared += 1
    assert compared


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_routes_are_declared_once(family):
    # one builder call serves every route of a family, and it refuses any
    # other route by naming exactly the family's routes
    record = _FAMILIES[family]
    assert len({id(builder) for builder in record.rows.values()}) == 1
    args = _resolved(family, record.routes[0], 2, 1)
    args.route = "bogus"
    with pytest.raises(DomainError) as refusal:
        record.rows[record.routes[0]](args)
    assert str(refusal.value) == (
        f"unknown route 'bogus', expected one of {record.routes}")


@pytest.mark.parametrize("m,r", [(0, 0), (-1, 1), (1, -1)])
def test_row_builders_reject_bad_whitney_parameters(m, r):
    with pytest.raises(DomainError):
        r_whitney_eulerian_rows(3, m, r)
    with pytest.raises(DomainError):
        q_r_whitney_eulerian_rows(3, m, r)
    with pytest.raises(DomainError):
        elliptic_r_whitney_eulerian_rows(3, m, r, _ell(1))


@pytest.mark.parametrize("family", ["rwhitneyeulerian", "qrwhitneyeulerian",
                                    "erwhitneyeulerian"])
def test_whitney_eulerian_m_zero_exits_2(capsys, family):
    code, out, err = run_cli(
        capsys, "table", "--family", family, "--n", "3", "--m", "0", "--seed", "1",
    )
    assert code == 2 and out == ""
    assert "need m >= 1" in err


def test_qeulerian_engine_table_builds_one_triangle(capsys):
    start = time.perf_counter()
    code, _, _ = run_cli(
        capsys, "table", "--family", "qeulerian", "--route", "engine", "--n", "18",
    )
    assert code == 0
    assert time.perf_counter() - start < 2


def test_whitney_explicit_table_is_fast(capsys):
    # the Lagrange sum over q-number nodes sums over a common multiple of
    # hundreds of products of node gaps of degree up to ~100, and each
    # column divides once
    start = time.perf_counter()
    code, _, _ = run_cli(
        capsys, "table", "--family", "whitney", "--route", "explicit",
        "--n", "10", "--m", "2", "--r", "1",
    )
    assert code == 0
    assert time.perf_counter() - start < 1.5


@pytest.mark.parametrize("route", ["recurrence", "explicit"])
def test_eeulerian_zero_divisor_exits_3(capsys, route):
    # a = 1 makes shifted elliptic numbers that the triangle divides by
    # exactly 0
    code, out, err = run_cli_exit(
        capsys, "table", "--family", "eeulerian", "--route", route,
        "--n", "3", "--a", "1", "--seed", "4",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("degenerate:") and "is exactly 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ("--family", "rook", "--board", "1,2,3"),
    ("--family", "estirling", "--route", "explicit", "--n", "4"),
    ("--family", "lah", "--route", "explicit", "--n", "4"),
])
def test_explicit_zero_divisor_exits_3(capsys, args):
    # q = -1 makes every even-indexed elliptic number exactly 0, and these
    # explicit sums divide by products of them or of their gaps
    code, out, err = run_cli_exit(capsys, "table", *args, "--q", "-1", "--seed", "4")
    assert code == 3
    assert out == ""
    assert err.startswith("degenerate:") and "divides by exactly 0" in err
    assert "Traceback" not in err


def test_zero_divisor_check_leaves_undivided_terms_alone(capsys):
    # on the empty board numerator and denominator products are
    # bit-identical, so the sum takes the term without dividing and
    # q = -1 still gives a table
    code, out, err = run_cli_exit(
        capsys, "table", "--family", "rook", "--board", "0,0,0",
        "--q", "-1", "--seed", "4", "--format", "json",
    )
    assert code == 0 and err == ""
    assert len(json.loads(out)["rows"]) == 4


def test_rook_refuses_n(capsys):
    code, out, err = run_cli(
        capsys, "table", "--family", "rook", "--n", "3", "--board", "1",
    )
    assert code == 2 and out == ""
    assert "family rook does not take --n" in err


def test_overflowing_denominator_exits_3(capsys):
    # the recurrence multiplier [30] at base shift (-30, -15) has a finite
    # numerator over a denominator product past double range; the quotient
    # used to come out as an exact 0, and entry (16, 15) off by 1.4e-2
    code, out, err = run_cli(
        capsys, "table", "--family", "lah", "--n", "16", "--seed", "15",
    )
    assert code == 3 and out == ""
    assert err.startswith("degenerate: denominator of [30] is")
    assert "outside double range" in err


def test_theta_factor_with_overflowing_modulus_exits_3(capsys):
    # at p = 0.99 a sampled window meets a theta value with finite parts
    # whose modulus is past double range; the denominator guard's abs()
    # used to raise OverflowError out of main
    code, out, err = run_cli(
        capsys, "table", "--family", "eeulerian", "--n", "0", "--seed", "4",
        "--p=0.99",
    )
    assert code == 3 and out == ""
    assert err.startswith("degenerate:")


# ---------------------------------------------------------------------------
# table argv: parsed from the flag declaration, or by argparse
# ---------------------------------------------------------------------------

GOOD_TEXT = {
    int: st.integers(0, 4).map(str),
    _parse_complex: st.sampled_from(["0.5", "0.3,0.2", "0", "1e-9", " 0.6", "0.2,-0.0"]),
    _parse_board: st.sampled_from(["1", "0,1", "1,2,2"]),
    str: st.sampled_from(sorted({route for record in _FAMILIES.values()
                                 for route in record.routes})),
}
# argparse takes "-1", "-0.5" and "-" as values, but "-0.5,0.1", "-1e5",
# "-h" and "--n" as options
BAD_TEXT = st.sampled_from([
    "", "x", "-1", "-0.5", "-0.5,0.1", "-1e5", "-h", "--n", "-", "nan",
    "1,2,3", "2,1", "1.5", "bogus", "csv ", "1e400",
])


def _good_text(name):
    flag = _TABLE_FLAGS[name]
    return st.sampled_from(flag.choices) if flag.choices else GOOD_TEXT[flag.convert]


EDITS = ("bad value", "= form", "abbreviation", "repeat", "unknown flag",
         "dropped flag", "valueless last flag")


@st.composite
def any_table_argv(draw):
    """A table argv from the flag declaration: --family and up to six other
    flags as distinct exact "--flag value" pairs with good values, in any
    order, then up to two of EDITS."""
    names = draw(st.lists(st.sampled_from(sorted(_TABLE_FLAGS)), unique=True,
                          max_size=6))
    names = draw(st.permutations(["family", *(n for n in names if n != "family")]))
    # [option, value or None, written as option=value]
    flags = [[f"--{name}", draw(_good_text(name)), False] for name in names]
    for edit in draw(st.lists(st.sampled_from(EDITS), max_size=2)):
        if not flags:
            break
        at = draw(st.integers(0, len(flags) - 1))
        option = flags[at][0]
        if edit == "bad value":
            flags[at][1] = draw(BAD_TEXT)
        elif edit == "= form":
            flags[at][2] = True
        elif edit == "abbreviation" and len(option) > 3:
            flags[at][0] = option[:draw(st.integers(3, len(option) - 1))]
        elif edit == "repeat":
            again = (st.one_of(_good_text(option[2:]), BAD_TEXT)
                     if option[2:] in _TABLE_FLAGS else BAD_TEXT)
            flags.insert(draw(st.integers(0, len(flags))), [option, draw(again), False])
        elif edit == "unknown flag":
            flags.insert(at, ["--x", "1", False])
        elif edit == "dropped flag":
            del flags[at]
        elif edit == "valueless last flag":
            flags.append([option, None, False])
    argv = ["table"]
    for option, value, equals in flags:
        argv += ([option] if value is None else
                 [f"{option}={value}"] if equals else [option, value])
    return argv


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=any_table_argv())
@example(argv=["table", "--family", "lah", "--n", "1", "--a", "-0.5,0.1"])
@example(argv=["table", "--family", "lah", "--n", "1", "--route", "-h"])
def test_table_argv_parses_as_argparse_parses_it(capsys, argv):
    # accepted: the Namespace argparse returns; declined: argparse's own
    # refusal, help or Namespace, so main prints what argparse alone leads to
    fast = _parse_table(argv)
    if fast is not None:
        assert vars(fast) == vars(_build_parser().parse_args(argv))
    outcome = run_cli_exit(capsys, *argv)
    with mock.patch.object(cli, "_parse_table", lambda argv: None):
        assert run_cli_exit(capsys, *argv) == outcome


def test_workload_tables_never_build_the_parser(capsys):
    # a few elliptic draws meet a degeneracy guard, exit 3
    workloads = golden._workloads()
    _build_parser.cache_clear()
    for name in ("exact-tables", "elliptic-tables"):
        for argv in workloads.commands(name, 1):
            assert main(argv) in (0, 3), argv
    capsys.readouterr()
    assert _build_parser.cache_info().currsize == 0
    assert main(["check", "--suite", "theta", "--trials", "1"]) == 0
    assert _build_parser.cache_info().currsize == 1
