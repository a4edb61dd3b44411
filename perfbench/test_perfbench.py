"""Self-consistency checks of the benchmark itself.

    python3 -m pytest perfbench -q

Not part of the library's test suite.  The tracing checks run each
workload once plain and once traced, about a minute and a half in all.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import validate  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from layertrace import LAYERS, OPERATORS, Tracer  # noqa: E402

cli = importlib.import_module("qelliptic.cli")


# -- workloads ---------------------------------------------------------------

def test_same_seed_gives_same_commands():
    for name in workloads.WORKLOADS:
        assert workloads.commands(name, 7) == workloads.commands(name, 7)
    for name in ("elliptic-tables", "check-suites"):
        assert workloads.commands(name, 7) != workloads.commands(name, 8)


def test_exact_tables_seed_only_shuffles():
    a, b = workloads.commands("exact-tables", 7), workloads.commands("exact-tables", 8)
    assert a != b and sorted(a) == sorted(b)
    assert len(a) == 24


# -- validator ---------------------------------------------------------------

SAMPLE = [
    ["table", "--family", "qstirling", "--route", "recurrence", "--n", "4"],
    ["table", "--family", "qstirling", "--route", "explicit", "--n", "4"],
    ["table", "--family", "estirling", "--route", "recurrence", "--n", "4", "--seed", "1"],
    ["table", "--family", "estirling", "--route", "oracle", "--n", "4", "--seed", "1"],
    ["table", "--family", "rook", "--route", "explicit", "--board", "1,2", "--seed", "1"],
    ["table", "--family", "rook", "--route", "oracle", "--board", "1,2", "--seed", "1"],
    ["check", "--suite", "theta", "--trials", "3", "--seed", "1"],
    ["degenerate", "--family", "lah", "--seed", "1"],
]


@pytest.fixture()
def records():
    return [worker.run_command(cli, argv) for argv in SAMPLE]


def _doctor(record, edit):
    doc = json.loads(record["stdout"])
    edit(doc)
    record["stdout"] = json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_validator_accepts_real_output(records):
    assert validate.validate(records) == [None] * len(SAMPLE)


def test_validator_rejects_nan_token(records):
    record = records[2]
    record["stdout"] = record["stdout"].replace('"re": 1.0', '"re": NaN', 1)
    assert "NaN" in record["stdout"]
    assert "strict JSON" in validate.validate(records)[2]


def test_validator_rejects_swapped_rows(records):
    def swap(doc):
        doc["rows"][1], doc["rows"][2] = doc["rows"][2], doc["rows"][1]

    _doctor(records[0], swap)
    assert "triangle" in validate.validate(records)[0]


def test_validator_rejects_wrong_exit_codes(records):
    records[1]["code"] = 1
    records[6]["code"] = 1
    reasons = validate.validate(records)
    assert reasons[1] == "exit code 1" and reasons[6] == "exit code 1"


def test_validator_rejects_routes_that_disagree(records):
    def bump(doc):
        doc["rows"][-1]["value"]["re"] += 1e-3

    _doctor(records[3], bump)
    reasons = validate.validate(records)
    assert "disagree" in reasons[2] and "disagree" in reasons[3]

    records[1]["stdout"] = records[1]["stdout"].replace('"1"', '"2"', 1)
    assert "byte-identical" in validate.validate(records)[0]


def test_validator_rejects_failed_verdict(records):
    records[7]["stdout"] = records[7]["stdout"].replace("result PASS", "result FAIL")
    assert "verdict" in validate.validate(records)[7]


def test_refusal_is_not_a_failure(records):
    records[4].update(code=3, stdout="")
    assert validate.validate(records)[4] is None


def test_exact_refusal_is_a_failure(records):
    records[0].update(code=3, stdout="")
    assert validate.validate(records)[0] == "exit code 3"


def test_reference_wall_scales_each_command():
    slow, fast = 2 * run.REFERENCE_CAL_S, run.REFERENCE_CAL_S / 2
    one_pass = {"records": [{"latency_s": 1.0, "cal_s": slow},
                            {"latency_s": 1.0, "cal_s": fast}]}
    assert run.reference_wall_s(one_pass) == pytest.approx(0.5 + 2.0)


def test_op_p50_is_keyed_by_command():
    def pass_(*latencies):
        return {"records": [{"latency_s": s, "cal_s": run.REFERENCE_CAL_S}
                            for s in latencies]}

    # per-command medians 2, 5 and 8 ms; the pooled median would be 6 ms
    plain = [pass_(0.001, 0.004, 0.007), pass_(0.002, 0.005, 0.008),
             pass_(0.030, 0.006, 0.040)]
    assert run.op_p50_ms(plain) == pytest.approx(5.0)


# -- tracer ------------------------------------------------------------------

def _bindings():
    modules = [mod for name, mod in sys.modules.items()
               if name == "qelliptic" or name.startswith("qelliptic.")]
    scalars = importlib.import_module("qelliptic.scalars")
    classes = [getattr(scalars, name) for name in OPERATORS]
    return {(id(holder), name): value
            for holder in modules + classes for name, value in vars(holder).items()}


def test_uninstall_restores_every_binding():
    before = _bindings()
    tracer = Tracer().install()
    assert _bindings() != before
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced_pass(request):
    """One plain and one traced pass of a whole workload, in fresh processes."""
    _, plain, traced = run.measure(request.param, seed=5, seconds=0, trace=True)
    return request.param, plain[0], traced[0]


def test_tracing_leaves_stdout_identical(traced_pass):
    _, plain, traced = traced_pass
    for a, b in zip(plain["records"], traced["records"], strict=True):
        assert (a["code"], a["stdout"]) == (b["code"], b["stdout"]), a["argv"]


def test_self_times_partition_traced_wall(traced_pass):
    _, _, traced = traced_pass
    layers = traced["layers"]
    assert run.partition_holds(layers)
    tree_self = sum(node["self_s"] for node in traced["tree"])
    assert tree_self == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert set(run.metric_units("per_layer")) - set(layers) == {
        "cli.refused_ratio", "trace.overhead_ratio", "src.lines"}
    assert {f"{layer}.self_s" for layer in LAYERS} <= set(layers)


def test_layer_isolation_counts(traced_pass):
    name, _, traced = traced_pass
    layers = traced["layers"]
    if name == "exact-tables":
        assert layers["theta.theta.calls"] == 0
        assert layers["scalars.poly_mul.calls"] > 0
    if name == "elliptic-tables":
        assert layers["scalars.poly_mul.calls"] == 0
        assert layers["scalars.exact_op.calls"] == 0
        assert layers["theta.theta.calls"] > 0


# -- contract ----------------------------------------------------------------

def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-suites",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
