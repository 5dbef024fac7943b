"""Benchmark of degratio: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload solve-dense --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each workload runs in a fresh single-threaded
worker process (``worker.py``) that imports degratio from ``src/``.  Set-up
time is measured from outside, from process start to the worker's ``ready``
line, over several set-ups.  With ``--trace 0`` the last line of output
holds the end-to-end metrics; with ``--trace 1`` a separate traced run
holds the per-layer metrics.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER_UNITS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_PROBES = 9    # set-up-only processes, besides the measuring one
TIME_LIMIT = 170.0  # seconds for the whole run, checks included


class BenchError(Exception):
    pass


def start_worker(args, extra, deadline: float):
    """Start a worker; returns (process, seconds to its ready line, import_s)."""
    cmd = [sys.executable, str(WORKER), "--root", str(ROOT), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - start
    try:
        return proc, setup_s, json.loads(line)["import_s"]
    except (ValueError, KeyError):
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready (exit {proc.poll()}): {line!r}")


def finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran out of time")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def measure(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        proc, setup_s, import_s = start_worker(args, ["--setup-only"], deadline)
        finish(proc, deadline)
        setups.append(setup_s)
        imports.append(import_s)
    proc, setup_s, import_s = start_worker(
        args, ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups.append(setup_s)
    imports.append(import_s)
    run = json.loads(finish(proc, deadline).strip().splitlines()[-1])

    if args.trace:
        layers = dict(run["layers"])
        layers["degratio.import_s"] = statistics.median(imports)
        layers["bench.traced_pass_s"] = run["pass_s"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": run["pass_s"], "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    for line in run["failures"] + run["errors"]:
        print(line, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {run['passes']} passes x "
          f"{run['ops_per_pass']} operations, {len(run['errors'])} wrong, "
          f"{run['failed']} failed")
    return {
        "correct": not run["errors"],
        "attempted": run["ops_per_pass"] * run["passes"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30,
                    help="pass time to accumulate (at least three passes run)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "degratio" / "__init__.py").is_file():
        print(f"no degratio source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
