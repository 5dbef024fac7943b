"""Spans and counts around the benchmark's calls into degratio.

:class:`TracedLib` stands in for the ``degratio`` module in
:func:`workloads.run_op`: every public function the workloads call is
wrapped so that each call records one span
``(op, name, start, end, count, answer)`` in memory.  ``op`` numbers the
operation the call belongs to, so spans of one operation share it;
``count`` is the ``explored`` node count of a solver answer and ``answer``
the yes/no of a ``decide``.  Nothing is written until :meth:`TracedLib.dump`
at the end of the run.  The untraced run passes the module itself, so it
pays for none of this.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

# span name -> the degratio module it measures, used to name the metrics
TRACED = {
    "parse_graph": "graph",
    "complete": "graph",
    "cartesian_product": "graph",
    "solve_q": "solver",
    "decide": "solver",
    "find_matching_cut": "solver",
    "partition_quality": "ratios",
    "closed_form": "formulas",
    "edge_upper_bound": "formulas",
    "class_lower_bound": "formulas",
    "lower_bound_witness": "construct",
    "bipartite_double_cover": "reductions",
    "cover_plus_matching": "reductions",
    "twin_expand_then_K2": "reductions",
    "product_with_fixed": "reductions",
    "verify_equivalence": "reductions",
}

# per-layer metric -> unit; each time or count is a sum over one pass,
# reported as the median over the run's passes
PER_LAYER_UNITS = {
    "degratio.import_s": "s",
    "graph.parse_s": "s",
    "solver.solve_s": "s",
    "solver.search_nodes": "nodes",
    "solver.nodes_per_s": "1/s",
    "solver.decide_yes_s": "s",
    "solver.decide_no_s": "s",
    "solver.seed_hit_ratio": "ratio",
    "solver.decide_yes_count": "count",
    "solver.matching_cut_s": "s",
    "ratios.quality_s": "s",
    "formulas.closed_form_s": "s",
    "formulas.bounds_s": "s",
    "construct.witness_s": "s",
    "reductions.gadget_s": "s",
    "bench.traced_pass_s": "s",
}


class TracedLib:
    def __init__(self, lib):
        self.spans: list[tuple[int, str, float, float, int, bool | None]] = []
        self.op = 0
        clock = time.perf_counter
        record = self.spans.append
        for name in TRACED:
            fn = getattr(lib, name)

            def wrapped(*args, _fn=fn, _name=name, **kwargs):
                start = clock()
                result = _fn(*args, **kwargs)
                end = clock()
                record((self.op, _name, start, end, getattr(result, "explored", 0),
                        getattr(result, "satisfied", None)))
                return result

            setattr(self, name, wrapped)

    def pass_metrics(self, first_span: int) -> dict[str, float]:
        """Per-layer sums over the spans recorded since ``first_span``."""
        busy: dict[str, float] = defaultdict(float)
        nodes = yes = hits = 0
        for _, name, start, end, count, answer in self.spans[first_span:]:
            dt = end - start
            if name == "decide":
                busy["decide_yes" if answer else "decide_no"] += dt
                if answer:
                    yes += 1
                    hits += count == 0
            else:
                busy[name] += dt
            if name in ("solve_q", "decide"):
                nodes += count
        solver_s = busy["solve_q"] + busy["decide_yes"] + busy["decide_no"]
        return {
            "graph.parse_s": busy["parse_graph"],
            "solver.solve_s": busy["solve_q"],
            "solver.search_nodes": nodes,
            "solver.nodes_per_s": nodes / solver_s if solver_s else 0.0,
            "solver.decide_yes_s": busy["decide_yes"],
            "solver.decide_no_s": busy["decide_no"],
            "solver.seed_hit_ratio": hits / yes if yes else 0.0,
            "solver.decide_yes_count": yes,
            "solver.matching_cut_s": busy["find_matching_cut"],
            "ratios.quality_s": busy["partition_quality"],
            "formulas.closed_form_s": busy["closed_form"],
            "formulas.bounds_s": busy["edge_upper_bound"] + busy["class_lower_bound"],
            "construct.witness_s": busy["lower_bound_witness"],
            "reductions.gadget_s": sum(busy[n] for n, mod in TRACED.items()
                                       if mod == "reductions"),
        }

    def dump(self, path) -> None:
        rows = [{"op": op, "name": name, "module": TRACED[name], "start": start,
                 "end": end, "count": count, "answer": answer}
                for op, name, start, end, count, answer in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
