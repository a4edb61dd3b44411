"""The `table` path without per-command overhead: the JSON writer, the
once-built parser, the parameter set reused by the next command of the
same draw, the once-per-window node guard, and fuzzes over the `table`,
`check` and `degenerate` flag grammars."""

import gc
import importlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qelliptic import cli, newton
from qelliptic.cli import _DEGENERATE, _ELLIPTIC, _FAMILIES, _degenerate_limit, main
from qelliptic.errors import DegenerateSequence
from qelliptic.scalars import COMPLEX
from qelliptic.suites import SUITE_NAMES
from qelliptic.theta import EllipticParams

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "schema" / "table_document.schema.json").read_text())


def run_exit(*argv):
    """main(argv) with an argument-parser exit counted as the exit code."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# the writer is byte-identical to json.dumps
# ---------------------------------------------------------------------------

def _family_args(family, route, n, board):
    argv = ["table", "--family", family, "--route", route, "--seed", "1"]
    if "board" in _FAMILIES[family].flags:
        return argv + ["--board", board]
    return argv + ["--n", str(n)]


NEGATIVE_ZERO_ARGV = ["table", "--family", "estirling", "--n", "4", "--a=0.3,-0.0",
                      "--b=-0.6,-0.0", "--q=0.8,-0.0", "--p=0.2,-0.0"]
WRITER_CASES = [
    _family_args(family, route, n, board)
    for family, record in _FAMILIES.items()
    for route in record.routes
    for n, board in ((0, "1"), (1, "1,2,2"), (4, "1,2,2"))
] + [
    NEGATIVE_ZERO_ARGV,
    ["table", "--family", "rook", "--board", "1,2,2", "--a=-0.0,0.4",
     "--b=0.6,0.1", "--q=-0.0,0.8", "--p=0.1,-0.0"],
] + [
    ["table", "--family", family, "--n", "4",
     "--a", "0", "--b", "0", "--q", "0.7", "--p", "0"]
    for family in ("estirling", "lah", "eeulerian")
]


@pytest.mark.parametrize("argv", WRITER_CASES, ids=" ".join)
def test_writer_is_byte_identical_to_json_dumps(capsys, monkeypatch, argv):
    rendered = []
    render = cli._render_table

    def spy(doc, fmt):
        text = render(doc, fmt)
        rendered.append((doc, text))
        return text

    monkeypatch.setattr(cli, "_render_table", spy)
    assert main(argv) == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    [(doc, text)] = rendered
    assert text == out
    # the document keeps each entry as an (n, k, value) triple; the rows
    # it stands for are {"n", "k", "value"}, a complex value {"re", "im"}
    doc = {**doc, "rows": [
        {"n": n, "k": k,
         "value": {"re": v.real, "im": v.imag} if isinstance(v, complex) else v}
        for n, k, v in doc["rows"]]}
    assert text == json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def test_writer_keeps_negative_zero_parts(capsys):
    main(NEGATIVE_ZERO_ARGV)
    out = capsys.readouterr().out
    assert json.loads(out)["params"]["a"] == {"re": 0.3, "im": -0.0}
    assert '"im": -0.0' in out


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

REUSE_ARGV = [
    ["table", "--family", "rook", "--board", "1,2", "--seed", "3"],
    ["table", "--family", "stirling", "--n", "3", "--m", "2"],
    ["table", "--family", "nosuch", "--n", "3"],
    ["table", "--family", "estirling", "--n", "4", "--seed", "2"],
    ["table", "--family", "lah", "--n", "3", "--seed", "1", "--format", "csv"],
    ["check", "--suite", "theta", "--trials", "3"],
    ["table", "--family", "qeulerian", "--n", "3", "--route", "engine"],
    ["table", "--family", "rook", "--board", "1,2", "--seed", "3"],
]


def _in_process(capsys, argvs):
    """(exit code, stdout, stderr) of each argv, run one after another here."""
    runs = []
    for argv in argvs:
        code = run_exit(*argv)
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err))
    return runs


def _assert_fresh_processes_agree(argvs, runs):
    """Each argv run by a fresh ``python -m qelliptic`` gives its run here."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    fresh = {}
    for argv, got in zip(argvs, runs):
        if tuple(argv) not in fresh:
            done = subprocess.run([sys.executable, "-m", "qelliptic", *argv],
                                  capture_output=True, text=True, env=env,
                                  timeout=60)
            fresh[tuple(argv)] = (done.returncode, done.stdout, done.stderr)
        assert fresh[tuple(argv)] == got, argv


def test_parser_is_built_once_and_keeps_no_state(capsys):
    cli._build_parser.cache_clear()
    in_process = _in_process(capsys, REUSE_ARGV)
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in in_process] == [0, 2, 2, 0, 0, 0, 0, 0]
    _assert_fresh_processes_agree(REUSE_ARGV, in_process)


# ---------------------------------------------------------------------------
# one parameter set per draw
# ---------------------------------------------------------------------------

ROUTES_OF_ONE_DRAW = [
    ["table", "--family", family, "--route", route, "--seed", "5",
     *(("--board", "1,2,3") if family == "rook" else ("--n", "6"))]
    for family in ("estirling", "lah", "eeulerian", "rook")
    for route in _FAMILIES[family].routes
]
# at --a 1 and seed 1 estirling and lah answer and every eeulerian route
# refuses: refusals between warm commands of one parameter set
REFUSING_DRAW = [
    ["table", "--family", family, "--route", route, "--n", "6", "--seed", "1",
     "--a", "1"]
    for family, route in (("estirling", "recurrence"), ("eeulerian", "recurrence"),
                          ("lah", "oracle"), ("eeulerian", "explicit"),
                          ("estirling", "oracle"), ("eeulerian", "engine"),
                          ("lah", "explicit"))
]
POSITIVE_ZERO_ARGV = [arg.replace("-0.0", "0.0") for arg in NEGATIVE_ZERO_ARGV]


@pytest.mark.parametrize("argvs", [
    ROUTES_OF_ONE_DRAW + ROUTES_OF_ONE_DRAW[::-1],
    REFUSING_DRAW,
    [POSITIVE_ZERO_ARGV, NEGATIVE_ZERO_ARGV, POSITIVE_ZERO_ARGV],
], ids=["routes-forward-then-reversed", "refusing-draw", "signed-zeros"])
def test_reused_parameter_set_gives_each_commands_fresh_output(capsys, monkeypatch,
                                                               argvs):
    monkeypatch.setattr(cli, "_last_params", (None, None))
    runs = _in_process(capsys, argvs)
    codes = {code for code, _, _ in runs}
    assert codes == ({0, 3} if argvs is REFUSING_DRAW else {0})
    _assert_fresh_processes_agree(argvs, runs)


def _count_calls(monkeypatch, module, name):
    """A list that grows by one per call of ``module.name`` from now on."""
    original = getattr(module, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_sampled_routes_of_one_draw_sample_once(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_last_params", (None, None))
    samples = _count_calls(monkeypatch, cli, "sample_elliptic_params")
    runs = _in_process(capsys, ROUTES_OF_ONE_DRAW)
    assert {code for code, _, _ in runs} == {0}
    assert len(samples) == 1


REFUSED_ARGV = ["table", "--family", "lah", "--n", "3", "--seed", "1", "--p=0.9"]


def test_refused_resolution_leaves_the_slot_as_it_was(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_last_params", (None, None))
    _in_process(capsys, [["table", "--family", "lah", "--n", "3", "--seed", "1"]])
    slot = cli._last_params
    refused = _in_process(capsys, [REFUSED_ARGV, REFUSED_ARGV])
    assert cli._last_params is slot
    assert refused[0] == refused[1]
    code, out, err = refused[0]
    assert code == 3 and out == "" and err.startswith("degenerate: ")


def test_a_given_value_is_part_of_the_slot_key(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_last_params", (None, None))
    resolved = _count_calls(monkeypatch, cli, "_resolve_params")
    argvs = [["table", "--family", "lah", "--n", "3", "--seed", "1", *more]
             for more in ([], ["--q", "0.5"])]
    runs = _in_process(capsys, argvs)
    assert {code for code, _, _ in runs} == {0}
    assert len(resolved) == 2
    assert cli._last_params[1].q == 0.5


def test_fully_given_parameters_share_one_set_across_seeds(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_last_params", (None, None))
    resolved = _count_calls(monkeypatch, cli, "_resolve_params")
    given = ["--q", "0.5", "--a", "0.3", "--b", "0.7", "--p", "0.2"]
    first, second = _in_process(capsys, [
        ["table", "--family", "lah", "--n", "3", "--seed", str(seed), *given]
        for seed in (1, 2)])
    assert first == second and first[0] == 0
    assert len(resolved) == 1


def test_no_family_draws_both_elliptic_and_st_parameters():
    # the slot skips the seed's stream for (a, b, q, p), which a family that
    # also drew (s, t) from it would need
    assert not any("a" in record.flags and "s" in record.flags
                   for record in _FAMILIES.values())


def _count_theta(monkeypatch):
    """A list that grows by one per theta value evaluated from now on."""
    return _count_calls(monkeypatch, sys.modules["qelliptic.theta"], "theta")


def test_identical_table_command_evaluates_no_theta(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_last_params", (None, None))
    calls = _count_theta(monkeypatch)
    first = _in_process(capsys, [POSITIVE_ZERO_ARGV])
    kept = cli._last_params[1]
    assert calls and first[0][0] == 0
    # the same command, and the same again after another route of the draw
    for argvs in ([], [[*POSITIVE_ZERO_ARGV, "--route", "oracle"]]):
        assert all(code == 0 for code, _, _ in _in_process(capsys, argvs))
        del calls[:]
        assert _in_process(capsys, [POSITIVE_ZERO_ARGV]) == first
        assert calls == [] and cli._last_params[1] is kept


def test_a_signed_zero_part_gets_a_fresh_parameter_set(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_last_params", (None, None))
    calls = _count_theta(monkeypatch)
    positive, negative = _in_process(capsys, [POSITIVE_ZERO_ARGV, NEGATIVE_ZERO_ARGV])
    kept = cli._last_params[1]
    assert math.copysign(1, kept.a.imag) == -1
    del calls[:]
    again = _in_process(capsys, [POSITIVE_ZERO_ARGV])
    assert again == [positive] and positive != negative
    # a fresh set: every theta value of the table is evaluated again
    assert calls and cli._last_params[1] is not kept


def test_slot_holds_only_the_newest_parameter_set(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_last_params", (None, None))
    gc.collect()
    live = sum(isinstance(obj, EllipticParams) for obj in gc.get_objects())
    # a family without (a, b, q, p) leaves the slot alone
    runs = _in_process(capsys, [
        ["table", "--family", family, "--n", "3", "--seed", str(seed)]
        for seed in range(6) for family in ("lah", "estirling", "stshifted")])
    assert {code for code, _, _ in runs} == {0}
    doc = json.loads(runs[-2][1])
    kept = cli._last_params[1]
    assert [getattr(kept, name) for name in _ELLIPTIC] == [
        complex(doc["params"][name]["re"], doc["params"][name]["im"])
        for name in _ELLIPTIC]
    assert kept._num_cache and kept._theta_cache
    gc.collect()
    assert sum(isinstance(obj, EllipticParams) for obj in gc.get_objects()) == live + 1


# ---------------------------------------------------------------------------
# one pair scan per distinct node window
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,route,size,guards", [
    ("estirling", "oracle", ("--n", "6"), 7),
    ("lah", "oracle", ("--n", "6"), 7),
    ("erwhitneyeulerian", "explicit", ("--n", "6"), 0),
    ("eshifted", "explicit", ("--n", "6"), 6),
])
def test_guard_scans_each_node_window_once_per_table(capsys, monkeypatch,
                                                     family, route, size, guards):
    # no memo outlives a call: each builder guards each window it uses once
    scanned, guarded = [], []
    scan, guard = newton._numeric_pair_scan, newton.pairwise_distinct_guard
    eulerian = importlib.import_module("qelliptic.eulerian")

    def counting_scan(values, pairs=None):
        scanned.append(tuple(values))
        scan(values, pairs)

    def counting_guard(values, *args, **kwargs):
        guarded.append(tuple(values))
        guard(values, *args, **kwargs)

    for module in (newton, eulerian):
        monkeypatch.setattr(module, "_numeric_pair_scan", counting_scan)
    monkeypatch.setattr(newton, "pairwise_distinct_guard", counting_guard)
    monkeypatch.setattr(eulerian, "pairwise_distinct_guard", counting_guard)
    monkeypatch.setattr(importlib.import_module("qelliptic.families"),
                        "pairwise_distinct_guard", counting_guard)
    argv = ["table", "--family", family, "--route", route, *size, "--seed", "1"]
    assert main(argv) == 0, capsys.readouterr().err
    # the oracles guard a_0..a_n once per row n, 7 guards at n = 6 (a guard
    # per lah entry would make 28), and the eshifted h columns a_0..a_k once per
    # column k >= 1.  The erwhitneyeulerian explicit rows scan only each
    # row's new node pairs, outside the guard, once per row
    assert len(guarded) == len(set(guarded)) == guards
    assert len(scanned) == len(set(scanned)) == (guards or 7)


def test_explicit_r_whitney_table_scans_each_node_pair_once(capsys, monkeypatch):
    # row n scans the pairs that the nodes -n and n+2 form with the rest of
    # the window [-n, n+2]: over the table, every pair of the last window
    # once
    pairs = []
    scan = newton._numeric_pair_scan

    def counting_scan(values, new_pairs):
        n = (len(values) - 3) // 2
        pairs.extend((i - n, j - n) for i, j in new_pairs)
        scan(values, new_pairs)

    monkeypatch.setattr(importlib.import_module("qelliptic.eulerian"),
                        "_numeric_pair_scan", counting_scan)
    argv = ["table", "--family", "erwhitneyeulerian", "--route", "explicit",
            "--n", "8", "--m", "2", "--r", "1", "--seed", "1"]
    assert main(argv) == 0, capsys.readouterr().err
    assert sorted(pairs) == [(i, j) for i in range(-8, 11) for j in range(i + 1, 11)]


def test_guard_refusal_repeats_its_message():
    field = COMPLEX
    nodes = [0.5 + 0j, 0.7 + 0j, 0.5 + 1e-12j]
    messages = []
    for _ in range(2):
        with pytest.raises(DegenerateSequence) as exc:
            newton.pairwise_distinct_guard(nodes, field)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("nodes at positions 0 and 2 are within")
    newton.pairwise_distinct_guard(nodes[:2], field)


# ---------------------------------------------------------------------------
# fuzz over the table flag grammar
# ---------------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


COMPLEX_TEXT = st.sampled_from([
    "0", "1", "-1", "0.5", "0.7", "-0.6", "0.3,-0.2", "0.1,0.4", "2,1",
    "1e-9", "0.9,0", "-0.0,0.8", "3", "1e30",
])
NOME_TEXT = st.sampled_from(
    ["0", "0.05", "0.2", "0.3,0.2", "-0.4", "0.9", "0.99", "1.5"])


FLAG_TEXT = {
    "m": st.integers(-1, 3).map(str),
    "r": st.integers(-1, 3).map(str),
    "board": st.sampled_from(["1", "0,0", "1,2,2", "0,1,3", "2,1", "x"]),
    "p": NOME_TEXT,
    **dict.fromkeys(("a", "b", "q", "s", "t"), COMPLEX_TEXT),
}


@st.composite
def table_argv(draw):
    """A table argv: each of the family's own flags given or omitted, at
    most one flag it does not take, and an unknown route now and then."""
    family = draw(st.sampled_from(sorted(_FAMILIES)))
    record = _FAMILIES[family]
    argv = ["table", "--family", family,
            "--seed", str(draw(st.integers(0, 50)))]
    route = draw(st.one_of(st.none(), st.sampled_from(record.routes + ("bogus",))))
    if route is not None:
        argv += ["--route", route]
    n = draw(st.one_of(st.none(), st.integers(-1, 6)))
    if n is not None:
        argv += ["--n", str(n)]
    foreign = [flag for flag in FLAG_TEXT if flag not in record.flags]
    extra = draw(st.sampled_from([None, None, None] + foreign))
    for flag in FLAG_TEXT:
        if flag == extra or (flag in record.flags and draw(st.booleans())):
            argv.append(f"--{flag}={draw(FLAG_TEXT[flag])}")
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=table_argv())
# a power of the (s, t) nodes past double range used to end in an
# OverflowError traceback
@example(argv=["table", "--family", "stshifted", "--seed", "0", "--route",
               "explicit", "--n", "4", "--s=0", "--t=1e30"])
# and so did a power [k-j]^n of the estirling explicit sum
@example(argv=["table", "--family", "estirling", "--route", "explicit",
               "--n", "12", "--seed", "2", "--p=0.9"])
# and a = q, where the rook oracle divided by W(-1) = 0 as a ZeroDivisionError
@example(argv=["table", "--family", "rook", "--route", "oracle", "--board", "1",
               "--a=0.5", "--q=0.5", "--seed", "0"])
def test_table_flag_grammar_fuzz(capsys, argv):
    start = time.perf_counter()
    code = run_exit(*argv)
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code in (0, 2, 3), argv
    assert elapsed < 5, (argv, elapsed)
    if code == 0:
        doc = json.loads(out, parse_constant=_reject_constant)
        jsonschema.validate(doc, SCHEMA)
    else:
        assert out == ""


# a weight W(k) = 0 that a rook route divides by: W(-1) at a = q for the
# oracle's leading coefficient, W(1) at a = q^-3 for the explicit sum's
@pytest.mark.parametrize("route,board,a,message", [
    ("oracle", "1", "0.5", "the board product's leading coefficient divides by "
                           "exactly 0: the weight W(-1) vanishes"),
    ("explicit", "0", "8", "explicit coefficient W(0) / W(1) of r_0 divides by "
                           "exactly 0: the weight W(1) vanishes"),
])
def test_rook_weight_divisor_zero_exits_3(capsys, route, board, a, message):
    code = run_exit("table", "--family", "rook", "--route", route, "--board", board,
                    f"--a={a}", "--q=0.5", "--seed", "0")
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"degenerate: {message}\n"


# (s, t) flags far from the unit circle: the node [m i + r]_{s,t} or its
# power in the explicit sum leaves double range at some n, which must end
# in exit 3 and a message, never in an OverflowError
@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("value", ["1e30", "1e100", "1e200"])
@pytest.mark.parametrize("flag", ["s", "t"])
@pytest.mark.parametrize("route", ["explicit", "recurrence"])
def test_extreme_st_flags_exit_cleanly(capsys, route, flag, value, n):
    code = run_exit("table", "--family", "stshifted", "--seed", "1",
                    "--route", route, "--n", str(n), f"--{flag}={value}")
    captured = capsys.readouterr()
    assert code in (0, 2, 3)
    assert "Traceback" not in captured.err
    if code == 0:
        json.loads(captured.out, parse_constant=_reject_constant)
    else:
        assert captured.out == "" and captured.err


@pytest.mark.parametrize("route", ["explicit", "recurrence"])
def test_st_power_past_double_range_exits_3(capsys, route):
    code = run_exit("table", "--family", "stshifted", "--seed", "0",
                    "--route", route, "--n", "4", "--s=0", "--t=1e100")
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("degenerate: ")
    assert "outside double range" in captured.err


# at p = 0.9 a sampled elliptic number [k-j] can reach 1e26, and its
# power [k-j]^n in the estirling explicit sum leaves double range; these
# are every such command over p in {0.9, 0.95}, n in {10, 12, 14, 18} and
# seeds 1-20, which used to end in an OverflowError traceback
@pytest.mark.parametrize("n,seed", [(12, 2), (12, 18), (14, 2), (14, 18),
                                    (14, 20), (18, 2), (18, 18), (18, 20)])
def test_estirling_power_past_double_range_exits_3(capsys, n, seed):
    code = run_exit("table", "--family", "estirling", "--route", "explicit",
                    "--n", str(n), "--seed", str(seed), "--p=0.9")
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("degenerate: ")
    assert captured.err.endswith("is outside double range\n")


# ---------------------------------------------------------------------------
# fuzz over the check and degenerate flag grammars
# ---------------------------------------------------------------------------

TOL_TEXT = st.sampled_from(
    ["nan", "inf", "-inf", "0", "-0.0", "-1", "1e-300", "1e-9", "0.5", "1e300", "x"])


@st.composite
def check_argv(draw):
    """A check or degenerate argv: each of the command's own flags given or
    omitted, now and then a flag of the other command, an unknown suite
    or family, and --n up to 5 past the family's limit."""
    if draw(st.booleans()):
        argv = ["check", "--suite",
                draw(st.sampled_from(sorted(SUITE_NAMES) + ["all", "bogus"]))]
        own, foreign = "trials", "n"
        n_top = 30
    else:
        family = draw(st.sampled_from(sorted(_DEGENERATE) + ["bogus"]))
        argv = ["degenerate", "--family", family]
        own, foreign = "n", "trials"
        n_top = _degenerate_limit(_DEGENERATE[family][1]) + 5 if family in _DEGENERATE else 30
    text = {
        "trials": st.integers(0, 3).map(str),
        "n": st.integers(-1, n_top).map(str),
        "seed": st.integers(0, 2**31).map(str),
        "tol": TOL_TEXT,
    }
    extra = draw(st.sampled_from([None, None, None, foreign]))
    for flag in (own, "seed", "tol", foreign):
        if flag == extra or (flag != foreign and draw(st.booleans())):
            argv.append(f"--{flag}={draw(text[flag])}")
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=check_argv())
def test_check_and_degenerate_grammar_fuzz(capsys, argv):
    start = time.perf_counter()
    code = run_exit(*argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
    assert elapsed < 5, (argv, elapsed)
    assert "Traceback" not in captured.err, argv
    if code in (0, 1):
        verdict = captured.out.splitlines()[-1].split()[1]
        assert verdict == ("PASS" if code == 0 else "FAIL"), argv
    else:
        assert captured.out == "" and captured.err, argv
