"""One workload in one fresh, single-threaded process.

Started by ``run.py``.  It imports degratio from ``<root>/src``, generates the
workload's inputs, prints a ``ready`` line, and (unless ``--setup-only``)
runs whole passes over the operation list until ``--seconds`` of pass time
have accumulated.  Only the passes are timed; every answer is checked
afterwards, and the last line of output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

MIN_PASSES = 3


def run_passes(lib, ops, seconds: float, traced: "tracing.TracedLib | None"):
    """Whole passes until ``seconds`` of pass time.  Returns the pass times,
    the first pass's answers, per-pass layer metrics, the errors (answers
    that change between passes) and the failures (operations that raised)."""
    pass_times, per_pass, errors, failures = [], [], [], []
    first = None
    while len(pass_times) < MIN_PASSES or sum(pass_times) < seconds:
        span_mark = len(traced.spans) if traced else 0
        answers = []
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if traced:
                traced.op = len(pass_times) * len(ops) + i
            try:
                answers.append(workloads.run_op(lib, op))
            except Exception:  # count it, report it, and keep the pass going
                answers.append(None)
                failures.append(f"{op.label}: {traceback.format_exc(limit=3)}")
        pass_times.append(time.perf_counter() - start)
        if traced:
            per_pass.append(traced.pass_metrics(span_mark))
        if first is None:
            first = answers
        elif answers != first:
            diff = [op.label for op, a, b in zip(ops, answers, first) if a != b]
            errors.append(f"pass {len(pass_times)} differs from pass 1 on {diff[:5]}")
    return pass_times, first, per_pass, errors, failures


def verify(workload: str, seed: int, ops, answers) -> list[str]:
    """Hold the first pass's answers against the independent reference."""
    reference = checks.load_reference(workload, seed)
    facts, errors = {}, []
    for g in workloads.graphs_of(ops):
        facts[id(g)], found = checks.graph_facts(g, reference)
        errors += found
    by_graph: dict[int, dict] = {}
    for op, answer in zip(ops, answers):
        if answer is None:
            continue
        errors += checks.check_op(op, answer, facts[id(op.graph)])
        by_graph.setdefault(id(op.graph), {})[(op.kind, op.threshold)] = answer[0]
    # on a k-regular graph, q >= k/(k+1) exactly when a matching-cut exists
    for op in ops:
        g = op.graph
        if op.kind != "matching_cut" or g.regular is None:
            continue
        k = g.regular
        seen = by_graph.get(id(g), {})
        dec = seen.get(("decide", Fraction(k, k + 1)))
        cut = seen.get(("matching_cut", None))
        if dec is not None and cut is not None and dec.satisfied != cut.has_cut:
            errors.append(f"{g.name}: decide at {k}/{k + 1} says {dec.satisfied}, "
                          f"find_matching_cut says {cut.has_cut}")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(args.root / "src"))
    start = time.perf_counter()
    import degratio
    import_s = time.perf_counter() - start
    if Path(degratio.__file__).resolve().parent != (args.root / "src" / "degratio").resolve():
        print(f"degratio imported from {degratio.__file__}, not from {args.root}/src",
              file=sys.stderr)
        return 2
    ops = workloads.build_ops(args.workload, args.seed)
    print(json.dumps({"ready": True, "import_s": import_s}), flush=True)
    if args.setup_only:
        return 0

    traced = tracing.TracedLib(degratio) if args.trace else None
    pass_times, first, per_pass, errors, failures = run_passes(
        traced or degratio, ops, args.seconds, traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors += verify(args.workload, args.seed, ops, first)
    result = {
        "ops_per_pass": len(ops),
        "passes": len(pass_times),
        "failed": len(failures),
        "failures": failures[:20],
        "errors": errors,
        "pass_s": statistics.median(pass_times),
        "pass_times": pass_times,
        "peak_rss_mb": peak_rss_mb,
    }
    if traced:
        nodes = {p["solver.search_nodes"] for p in per_pass}
        if len(nodes) != 1:
            errors.append(f"solver.search_nodes differs between passes: {sorted(nodes)}")
        result["layers"] = tracing.median_metrics(per_pass)
        out = Path(__file__).resolve().parent / "results"
        out.mkdir(exist_ok=True)
        traced.dump(out / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
