"""One benchmark pass: a fresh process runs one workload's command list.

    python3 perfbench/worker.py --workload NAME --seed N [--trace | --setup-only]

Every command goes through ``qelliptic.cli.main(argv)`` in this process,
one after another, with stdout and stderr captured (stderr is dropped).
The pass prints one JSON line per command as it completes (argv, exit
code, captured stdout, latency, and the calibration time around the
command), so captured output is not held in this process's memory,
then one summary line: the monotonic time at which the first command
was ready to run, the calibration time at that moment, the pass's wall
time (the sum of the command latencies) and its peak resident memory.
With ``--trace`` the layers are wrapped (see ``layertrace``) and the
summary adds the per-layer figures.  ``--setup-only`` stops once the
first command is ready.

The calibration is a fixed pure-Python loop, timed before the first
command and after every command, outside the latencies.  Its time
tracks the speed of the machine at that moment, which on a shared host
can change by half within seconds (see README.md).

A fresh process per pass matters: the library's ``lru_cache``s and the
per-parameter theta caches would otherwise carry warmth between passes.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import commands

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

CALIBRATION_LOOPS = 50_000  # about 4 ms


def _import_cli():
    """qelliptic.cli from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("qelliptic.cli")
    if Path(cli.__file__).resolve().parent != SRC / "qelliptic":
        raise SystemExit(f"qelliptic was imported from {cli.__file__}, not {SRC}")
    return cli


def run_command(cli, argv: list[str]) -> dict:
    """Run one CLI command with captured output; never raises."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a counted failure, not the end of the pass
        code = None
        error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
    latency = time.perf_counter() - start
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "error": error, "latency_s": latency}


def calibrate() -> float:
    """Seconds this process takes right now for a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def _qcache_hit_ratio(cached) -> float:
    hits = misses = 0
    for fn in cached:
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits / (hits + misses) if hits + misses else 0.0


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MiB.

    ``getrusage``'s ru_maxrss is not used: Linux carries the high-water
    mark across exec, so it would also count the resident set of the
    parent at the moment it spawned this process.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _trials(stdout: str) -> int:
    # check reports one "  <name>  trials <n>  failed ..." line per check
    return sum(int(line.split()[2]) for line in stdout.splitlines()
               if line.startswith("  ") and line.split()[1:2] == ["trials"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = _import_cli()
    cmds = commands(args.workload, args.seed)
    ready = time.monotonic()
    setup_cal = statistics.median(calibrate() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_cal_s": setup_cal}))
        return 0

    scalars = importlib.import_module("qelliptic.scalars")
    cached = [getattr(scalars, name) for name in ("q_number", "q_factorial", "q_binomial")
              if hasattr(getattr(scalars, name, None), "cache_info")]
    tracer = None
    if args.trace:
        # imported only when tracing, so it stays out of setup_s
        from layertrace import Tracer, layer_metrics

        tracer = Tracer().install()

    wall = 0.0
    entries = trials = 0
    cal = calibrate()
    for cmd in cmds:
        rows_before = tracer.rows_built if tracer else 0
        record = run_command(cli, cmd)
        wall += record["latency_s"]
        after = calibrate()
        record["cal_s"] = (cal + after) / 2
        cal = after
        if cmd[0] == "check":
            trials += _trials(record["stdout"])
        elif tracer and tracer.rows_built > rows_before and record["code"] == 0:
            try:
                entries += len(json.loads(record["stdout"])["rows"])
            except (ValueError, KeyError, TypeError):
                pass  # a malformed document is reported by the validation
        print(json.dumps(record))
    summary = {"ready": ready, "setup_cal_s": setup_cal, "wall_s": wall,
               "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        summary["layers"] = layer_metrics(tracer, entries, trials)
        summary["layers"]["scalars.qcache.hit_ratio"] = _qcache_hit_ratio(cached)
        summary["roots"] = tracer.roots
        summary["tree"] = tracer.call_tree()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
