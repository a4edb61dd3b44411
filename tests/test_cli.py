"""CLI behavior: documents, schema conformance, determinism, exit codes."""

import json
import io
import pathlib
import time

import jsonschema
import pytest

from qelliptic.cli import main
from qelliptic.scalars import ExactScalar
from qelliptic.suites import run_suite

SCHEMA = json.loads(
    (pathlib.Path(__file__).parent.parent / "schema"
     / "table_document.schema.json").read_text()
)


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


def test_check_zero_trials_vacuous(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "worpitzky",
                           "--trials", "0")
    assert code == 0
    assert "overall PASS" in out


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


def test_suite_reports_structure():
    rep = run_suite("rook", trials=5, seed=2)
    assert rep.suite == "rook"
    assert [c.name for c in rep.checks] == [
        "route-agreement", "staircase-stirling", "empty-board",
    ]
    assert all(c.trials == 5 for c in rep.checks)
    assert rep.passed


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
