"""Regenerate ``bench/reference_q.json``: the q of every solve-dense
G(n, 1/2) instance, computed by the benchmark's own exact search
(``oracle.exact_q``), for a list of seeds.

    python3 bench/reference.py --seeds 1-10

Runs read the table for the seeds it lists and compute the same values
afterwards with ``oracle.exact_q`` for any other seed.  Each entry keeps a
digest of the instance's ``p``/``e`` text, so a table that no longer matches
the generator fails the run instead of passing it.
"""

from __future__ import annotations

import argparse
import json

import checks
import oracle
import workloads


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def table_for(seed: int) -> dict[str, str]:
    rows = {}
    for g in workloads.graphs_of(workloads.build_ops("solve-dense", seed)):
        if g.name.startswith("gnp") and g.n > oracle.BRUTE_FORCE_MAX_N:
            q = oracle.exact_q(g.n, g.edges)
            rows[g.name] = f"{checks.text_digest(g.text)} {q.numerator}/{q.denominator}"
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,5,9")
    args = ap.parse_args(argv)
    table = {"solve-dense": {str(seed): table_for(seed) for seed in parse_seeds(args.seeds)}}
    checks.REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
