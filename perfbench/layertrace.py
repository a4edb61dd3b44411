"""Outside-in tracing of the qelliptic layers.

The tracer wraps, from outside the package, every public function of the
layer modules (functions and ``lru_cache`` objects whose name has no
leading underscore) and the ``LaurentPoly``/``ExactScalar`` arithmetic
operators, and rebinds each wrapper in every ``qelliptic`` module that
holds the original by name.  ``uninstall`` puts every original back.

A call's self time is its duration minus the durations of the traced
calls it made, so the self times of all calls add up to the duration of
the outermost calls (one ``cli.main`` per command).  Spans below the
command level are folded into a call tree keyed by the path of function
names, each node holding calls, total and self time: a workload makes
millions of cache-hit calls, too many to keep one record per call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "suites", "families", "eulerian", "newton", "theta", "scalars")

OPERATORS = {
    "LaurentPoly": ("__mul__",),
    "ExactScalar": ("__add__", "__radd__", "__sub__", "__rsub__",
                    "__mul__", "__rmul__", "__truediv__", "__rtruediv__"),
}

THETA = "theta.theta"
COLD_TRACKED = ("theta.elliptic_number_shifted", "theta.elliptic_weight_shifted")
ROWS = "eulerian.general_eulerian_rows"


def _public_functions(module):
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


class Tracer:
    """Counts, self times and a call tree for every wrapped function."""

    def __init__(self):
        self.names: list[str] = []        # function id -> "layer.name"
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.cold: dict[str, int] = {}    # calls that issued >= 1 theta call
        self.rows_built = 0               # sum of N + 1 over Eulerian row builds
        self.roots: list[tuple[float, float]] = []   # (start, end) per command
        self.nodes: list[list] = []       # [parent node, fid, calls, total_s, self_s]
        self._tree: dict[tuple[int, int], int] = {}
        self._stack: list[list] = []      # [node, time covered by children]
        self._theta: int | None = None    # function id of theta.theta
        self._restore: list[tuple[object, str, object, bool]] = []

    # -- install / uninstall -------------------------------------------------

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"qelliptic.{layer}") for layer in LAYERS}
        holders = [mod for name, mod in sorted(sys.modules.items())
                   if name == "qelliptic" or name.startswith("qelliptic.")]
        replaced = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                replaced[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for holder in holders:
            for name, obj in list(vars(holder).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._set(holder, name, wrapper)
        for cls_name, ops in OPERATORS.items():
            cls = getattr(modules["scalars"], cls_name)
            for op in ops:
                if op in vars(cls):
                    self._set(cls, op, self._wrap(f"scalars.{cls_name}.{op}", vars(cls)[op]))
        if THETA in self.names:
            self._theta = self.names.index(THETA)
        return self

    def uninstall(self) -> None:
        for target, name, original, existed in reversed(self._restore):
            if existed:
                setattr(target, name, original)
            else:
                delattr(target, name)
        self._restore.clear()

    def _set(self, target, name, value) -> None:
        existed = name in vars(target)
        self._restore.append((target, name, vars(target).get(name), existed))
        setattr(target, name, value)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        inner = fn
        if name in COLD_TRACKED:
            inner = self._count_cold(name, fn)
        elif name == ROWS:
            inner = self._count_rows(fn)
        stack, tree, nodes = self._stack, self._tree, self.nodes
        calls, self_s, roots = self.calls, self.self_s, self.roots
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            node = tree.get((parent, fid))
            if node is None:
                node = tree[(parent, fid)] = len(nodes)
                nodes.append([parent, fid, 0, 0.0, 0.0])
            frame = [node, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                calls[fid] += 1
                self_s[fid] += own
                stats = nodes[node]
                stats[2] += 1
                stats[3] += duration
                stats[4] += own
                if stack:
                    stack[-1][1] += duration
                else:
                    roots.append((start, end))

        return traced

    def _count_cold(self, name: str, fn):
        calls = self.calls
        cold = self.cold
        cold[name] = 0

        def counted(*args, **kwargs):
            theta = self._theta
            if theta is None:
                return fn(*args, **kwargs)
            before = calls[theta]
            try:
                return fn(*args, **kwargs)
            finally:
                if calls[theta] != before:
                    cold[name] += 1

        return counted

    def _count_rows(self, fn):
        signature = inspect.signature(fn)

        def counted(*args, **kwargs):
            self.rows_built += signature.bind(*args, **kwargs).arguments.get("N", -1) + 1
            return fn(*args, **kwargs)

        return counted

    # -- readout -------------------------------------------------------------

    def calls_of(self, name: str) -> int:
        return self.calls[self.names.index(name)] if name in self.names else 0

    def self_of(self, name: str) -> float:
        return self.self_s[self.names.index(name)] if name in self.names else 0.0

    def call_tree(self) -> list[dict]:
        """The folded spans: one entry per call path, parents before children."""
        paths: list[str] = []
        out = []
        for parent, fid, calls, total, own in self.nodes:
            path = self.names[fid] if parent < 0 else paths[parent] + ";" + self.names[fid]
            paths.append(path)
            out.append({"path": path, "calls": calls, "total_s": total, "self_s": own})
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, entries: int, trials: int) -> dict:
    """The per-layer figures of one traced pass, keyed <layer>.<thing>.

    ``entries`` counts the rows printed by table commands that built
    Eulerian rows; ``trials`` the trials reported by check commands.
    """
    names, calls, self_s = tracer.names, tracer.calls, tracer.self_s
    m: dict[str, float] = {}

    def total(pick, values):
        return sum(v for name, v in zip(names, values) if pick(name))

    for layer in LAYERS:
        in_layer = lambda name, layer=layer: name.split(".")[0] == layer
        m[f"{layer}.calls"] = total(in_layer, calls)
        m[f"{layer}.self_s"] = total(in_layer, self_s)

    poly = lambda name: name == "scalars.LaurentPoly.__mul__"
    exact = lambda name: name.startswith("scalars.ExactScalar.")
    m["scalars.poly_mul.calls"] = total(poly, calls)
    m["scalars.poly_mul.self_s"] = total(poly, self_s)
    m["scalars.exact_op.calls"] = total(exact, calls)
    m["scalars.exact_op.self_s"] = total(exact, self_s)

    m["theta.theta.calls"] = tracer.calls_of(THETA)
    m["theta.theta.self_s"] = tracer.self_of(THETA)
    m["theta.theta.us_per_call"] = 1e6 * _ratio(m["theta.theta.self_s"], m["theta.theta.calls"])
    elliptic = lambda name: name in COLD_TRACKED
    m["theta.elliptic.calls"] = total(elliptic, calls)
    m["theta.elliptic.self_s"] = total(elliptic, self_s)
    m["theta.elliptic.cold_ratio"] = _ratio(sum(tracer.cold.values()), m["theta.elliptic.calls"])

    m["eulerian.rows_built"] = tracer.rows_built
    m["eulerian.rows_per_entry"] = _ratio(tracer.rows_built, entries)

    for name in (ROWS, "newton.h_recurrence", "newton.newton_oracle_scaled"):
        m[f"{name}.calls"] = tracer.calls_of(name)
        m[f"{name}.self_s"] = tracer.self_of(name)

    # parameter draws made inside the suites, per trial the suites report
    under_suites: list[bool] = []
    draws = 0
    for parent, fid, ncalls, _, _ in tracer.nodes:
        inside = names[fid].startswith("suites.") or (parent >= 0 and under_suites[parent])
        under_suites.append(inside)
        if inside and names[fid] == "theta.sample_elliptic_params":
            draws += ncalls
    m["suites.trials"] = trials
    m["suites.draws_per_trial"] = _ratio(draws, trials)

    m["trace.wall_s"] = sum(end - start for start, end in tracer.roots)
    return m
