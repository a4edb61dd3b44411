"""The qelliptic benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its src/.
Within the time budget the workload's command list (see ``workloads``)
is run by fresh worker processes, one pass per process, closed loop
with one client.  Every command's output is validated (see ``validate``)
outside the timed region; later passes must repeat the first byte for
byte.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  The
bounded times ``setup_s`` and ``wall_s`` are in reference seconds: each
measured time is scaled by REFERENCE_CAL_S over the calibration loop's
time measured next to it in the same process (see ``worker``), which
takes out the host's changes of speed; the raw times are printed too.  Lines
before the last describe the run for a reader; the last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import LAYERS
from validate import validate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# processes that only start up, run after every pass so that the
# setup_s median spans the whole run
SETUP_PROBES_PER_PASS = 6
# the whole run must end well inside three minutes
TIME_LIMIT_S = 170.0
# the calibration loop's time, in seconds, at the reference speed: about
# its time on the 2.0 GHz Xeon the baseline was measured on
REFERENCE_CAL_S = 0.004

# printed on the report lines only: the raw times move with the host's
# speed, op_p50_ms with the seed's order of commands, and the ratios can
# be 0, which a bounded metric must never be (see README.md)
REPORTED = {"setup_raw_s": "s", "wall_raw_s": "s", "op_p50_ms": "ms",
            "failed_ratio": "1", "refused_ratio": "1"}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_worker(workload: str, seed: int, mode: str | None, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if mode:
        cmd.append(mode)
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker passed the {TIME_LIMIT_S:.0f} s limit: {cmd}")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    *records, result = (json.loads(line) for line in proc.stdout.splitlines())
    result["records"] = records
    result["setup_raw_s"] = result["ready"] - launched
    result["setup_s"] = result["setup_raw_s"] * REFERENCE_CAL_S / result["setup_cal_s"]
    return result


def reference_wall_s(one_pass: dict) -> float:
    """The pass's wall time, each command scaled to the reference speed."""
    return sum(rec["latency_s"] * REFERENCE_CAL_S / rec["cal_s"]
               for rec in one_pass["records"])


def count_failures(passes: list[dict], reasons: list[str | None]) -> int:
    """Commands that failed validation, counted again in every pass that
    repeats them, plus any command whose output differs from pass one."""
    first = passes[0]["records"]
    failed = 0
    for p in passes:
        for rec, ref, reason in zip(p["records"], first, reasons):
            if reason or (rec["code"], rec["stdout"]) != (ref["code"], ref["stdout"]):
                failed += 1
    return failed


def src_lines() -> int:
    return sum(len(path.read_text().splitlines())
               for path in sorted((ROOT / "src" / "qelliptic").glob("*.py")))


def partition_holds(layers: dict) -> bool:
    """Layer self times must add up to the traced wall time."""
    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    return abs(total - layers["trace.wall_s"]) <= 1e-6 * max(1.0, layers["trace.wall_s"])


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run passes until the next one would overrun ``seconds`` (at least one).

    Without tracing, set-up-only processes follow every pass; with it,
    a traced pass does.
    """
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    setups, plain, traced = [], [], []
    while True:
        began = time.monotonic()
        plain.append(run_worker(workload, seed, None, deadline))
        setups.append(plain[-1])
        if trace:
            traced.append(run_worker(workload, seed, "--trace", deadline))
        else:
            setups += [run_worker(workload, seed, "--setup-only", deadline)
                       for _ in range(SETUP_PROBES_PER_PASS)]
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            break
    return setups, plain, traced


def op_p50_ms(plain: list[dict]) -> float:
    """Median over the commands of each command's median latency over passes,
    each latency in reference seconds."""
    per_command = zip(*(p["records"] for p in plain))
    return 1e3 * statistics.median(
        statistics.median(rec["latency_s"] * REFERENCE_CAL_S / rec["cal_s"] for rec in recs)
        for recs in per_command)


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))  # validation calls the library
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        setups, plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    first = plain[0]["records"]
    reasons = validate(first)
    passes = plain + traced
    attempted = len(first) * len(passes)
    failed = count_failures(passes, reasons)
    refused = sum(rec["code"] == 3 for rec in first)
    measured = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(reference_wall_s(p) for p in plain),
        "setup_raw_s": statistics.median(s["setup_raw_s"] for s in setups),
        "wall_raw_s": statistics.median(p["wall_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "op_p50_ms": op_p50_ms(plain),
        "answered_ratio": 1 - refused / len(first),
        "failed_ratio": failed / attempted,
        "refused_ratio": refused / len(first),
    }
    correct = failed == 0

    if args.trace:
        units = metric_units("per_layer")
        metrics = {name: statistics.median(t["layers"][name] for t in traced)
                   for name in traced[0]["layers"]}
        metrics["cli.refused_ratio"] = measured["refused_ratio"]
        metrics["trace.overhead_ratio"] = statistics.median(
            t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced))
        metrics["src.lines"] = src_lines()
        correct = correct and all(partition_holds(t["layers"]) for t in traced)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{args.workload}-seed{args.seed}.spans.json"
        spans.write_text(json.dumps({
            "commands": [{"argv": rec["argv"], "start": start, "end": end}
                         for rec, (start, end) in zip(traced[0]["records"], traced[0]["roots"])],
            "tree": traced[0]["tree"],
        }))
    else:
        units = metric_units("end_to_end")
        metrics = {name: measured[name] for name in units}

    print(f"workload {args.workload}  seed {args.seed}  commands {len(first)}"
          f"  passes {len(plain)} plain + {len(traced)} traced")
    for name, unit in {**REPORTED, **units}.items():
        value = measured[name] if name in REPORTED else metrics[name]
        print(f"  {name:<40s} {value:>14.6g} {unit}")
    for rec, reason in zip(first, reasons):
        if reason:
            print(f"  FAILED {' '.join(rec['argv'])}: {reason}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
