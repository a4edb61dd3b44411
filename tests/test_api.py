"""The library's published names: each module's __all__, the names the
benchmark in perfbench/ reaches from outside the package, and the records
the library hands out.

The benchmark pins library names: its validator reads conditioning scales
through the *_scaled functions, and its tracer reads counts by function
name, where a name that no longer exists reads as 0 calls instead of
failing.
"""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from qelliptic.scalars import COMPLEX, EXACT_Q, RATIONAL, ExactScalar, ScalarField
from qelliptic.suites import CheckResult, SuiteReport

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
MODULES = ("cli", "eulerian", "families", "intpoly", "newton", "scalars",
           "suites", "theta")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"qelliptic.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_eulerian_names_the_module_after_importing_the_package(monkeypatch):
    # the package binds no function eulerian(n, k), which would hide the
    # module of the same name
    import qelliptic
    from qelliptic import eulerian
    assert inspect.ismodule(eulerian) and eulerian is qelliptic.eulerian
    assert [eulerian.eulerian(3, k) for k in range(1, 4)] == [1, 4, 1]
    monkeypatch.setattr("qelliptic.eulerian.general_eulerian_rows", None)
    assert importlib.import_module("qelliptic.eulerian").general_eulerian_rows is None


def test_theta_names_the_module_after_importing_the_package(monkeypatch):
    # the package binds no function theta(x, p), which would hide the
    # module of the same name
    import qelliptic
    from qelliptic import theta
    assert inspect.ismodule(theta) and theta is qelliptic.theta
    assert theta.theta(0.5, 0.0) == 0.5
    monkeypatch.setattr("qelliptic.theta.elliptic_number", None)
    assert importlib.import_module("qelliptic.theta").elliptic_number is None


def test_importing_the_package_loads_no_module():
    # the package is its modules: a fresh import runs the docstring and
    # __version__ only, so a library user pays for the modules they import
    script = (
        "import sys\n"
        "import qelliptic\n"
        "print(sorted(m for m in sys.modules if m.startswith('qelliptic.')))\n"
        "print(sorted(n for n in vars(qelliptic) if not n.startswith('__')))\n"
        "print(qelliptic.__version__)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PERFBENCH.parent / "src"), env.get("PYTHONPATH")) if p)
    fresh = subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True, env=env, timeout=60)
    assert (fresh.returncode, fresh.stderr) == (0, "")
    assert fresh.stdout == "[]\n[]\n0.1.0\n"


def _validator_names() -> set[tuple[str, str]]:
    """(module, attribute) for each ``m.name`` in validate.py whose m is a
    library module: ``_module("m")`` itself, or a variable bound to it and
    named after it."""
    tree = ast.parse((PERFBENCH / "validate.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        value = node.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "_module":
            names.add((value.args[0].value, node.attr))
        elif isinstance(value, ast.Name) and value.id in MODULES:
            names.add((value.id, node.attr))
    return names


def test_benchmark_reaches_only_existing_names(monkeypatch):
    validator = _validator_names()
    assert ("newton", "h_explicit_scaled") in validator
    for module, attr in validator:
        assert hasattr(importlib.import_module(f"qelliptic.{module}"), attr), (module, attr)

    monkeypatch.syspath_prepend(str(PERFBENCH))
    layertrace = importlib.import_module("layertrace")
    tracer = layertrace.Tracer().install()
    tracer.uninstall()
    # string constants of the form layer.name that are not metric keys
    # name traced functions
    metrics = set(layertrace.layer_metrics(tracer, 0, 0))
    reached = {
        node.value for node in ast.walk(ast.parse(inspect.getsource(layertrace)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "." in node.value and node.value.split(".")[0] in layertrace.LAYERS
        and not node.value.endswith(".") and node.value not in metrics
    }
    assert layertrace.ROWS in reached
    assert reached - set(tracer.names) == set()
    scalars = importlib.import_module("qelliptic.scalars")
    for cls, ops in layertrace.OPERATORS.items():
        assert all(op in vars(getattr(scalars, cls)) for op in ops), cls


# -- the records ------------------------------------------------------------

def test_scalar_fields():
    assert ScalarField._fields == ("name", "zero", "one", "from_int", "is_zero",
                                   "exact", "reciprocals")
    assert [(f.name, f.exact) for f in (EXACT_Q, RATIONAL, COMPLEX)] == [
        ("exact-q", True), ("rational", True), ("complex", False)]
    assert COMPLEX.reciprocals is None and RATIONAL.reciprocals is not None
    assert RATIONAL.from_int(3) == RATIONAL.one * 3 and RATIONAL.zero == 0
    assert RATIONAL.div(Fraction(1), Fraction(3)) == Fraction(1, 3)
    # EXACT_Q is the ring Z[q, 1/q]: a division that leaves a remainder raises
    assert EXACT_Q.div(EXACT_Q.from_int(6), EXACT_Q.from_int(2)) == ExactScalar(3)
    with pytest.raises(ArithmeticError):
        EXACT_Q.div(EXACT_Q.one, EXACT_Q.from_int(2))
    assert COMPLEX.div(1 + 0j, 2j) == -0.5j
    for field, zero in ((RATIONAL, 0), (EXACT_Q, EXACT_Q.zero), (COMPLEX, 1e-13)):
        with pytest.raises(ZeroDivisionError,
                           match=f"^division by zero-tested scalar in {field.name}$"):
            field.div(field.one, zero)


def test_check_results_and_suite_reports():
    ok = CheckResult("inversion", 5, 0, 1e-16, [])
    bad = CheckResult("three-term", 5, 2, 1.0, ["a=1", "a=2"])
    assert (ok.passed, bad.passed) == (True, False)
    assert (bad.name, bad.trials, bad.failed, bad.worst, bad.records) == (
        "three-term", 5, 2, 1.0, ["a=1", "a=2"])
    report = SuiteReport("theta", 1, 1e-9, [ok, bad])
    assert (report.suite, report.seed, report.tol) == ("theta", 1, 1e-9)
    assert (report.failures, report.passed) == (2, False)
    clean = SuiteReport("theta", 1, 1e-9, [ok, ok])
    assert (clean.failures, clean.passed) == (0, True)
    assert SuiteReport("theta", 1, 1e-9, []).passed
