"""One solve-dense pass with ``solve_q(..., jobs=2)`` against the serial one.

    python3 bench/jobs_baseline.py [--seed 1]

A reference figure for the README, recorded so that a later change to the
process pool has a baseline; the benchmark itself runs serial only.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
import types
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def one_pass(lib, ops) -> tuple[float, int]:
    start = time.perf_counter()
    nodes = sum(workloads.run_op(lib, op)[0].explored for op in ops)
    return time.perf_counter() - start, nodes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import degratio

    ops = workloads.build_ops("solve-dense", args.seed)
    pooled = types.SimpleNamespace(**vars(degratio))
    pooled.solve_q = functools.partial(degratio.solve_q, jobs=2)
    for label, lib in (("serial", degratio), ("jobs=2", pooled), ("serial", degratio)):
        seconds, nodes = one_pass(lib, ops)
        print(f"{label:7s} pass {seconds:.2f} s, {nodes} search nodes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
