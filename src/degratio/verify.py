"""Property suites run over the built-in catalog plus seeded random
graphs; each suite returns one result per checked property instance.

The suites mirror the guarantees the library rests on: bound sandwiches,
formula-versus-solver equality, matching-cut ground truth, the product
matching-cut rule, good-pair extension quality, and reduction-gadget
claims.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .catalog import base_catalog, cubic_catalog, product_pairs, \
    random_connected_graph
from .construct import extend_good_pair, find_good_pair, lower_bound_witness
from .errors import ParameterError, PreconditionError
from .formulas import (characterize_third, class_lower_bound, cubic_q,
                       edge_upper_bound, four_regular_q, tree_q)
from .graph import Graph, emit_graph, is_connected, is_tree, regularity
from .named import build_named, complete, cycle, is_isomorphic
from .ratios import partition_quality
from .reductions import (bipartite_double_cover, cover_plus_matching,
                         product_with_fixed, twin_expand_then_K2,
                         verify_equivalence)
from .solver import (DEFAULT_BUDGET, decide, find_matching_cut,
                     product_matching_cut, solve_q)


@dataclass(frozen=True)
class PropertyResult:
    suite: str
    prop: str
    subject: str
    passed: bool
    detail: str = ""
    counterexample: str | None = None  # standard-format emission on failure


def _result(suite, prop, G, passed, detail=""):
    subject = G.name or f"graph(n={G.n})"
    counter = None if passed else emit_graph(G)
    return PropertyResult(suite, prop, subject, passed, detail, counter)


def _graphs(max_n: int, seed: int, samples: int = 10):
    pool = [G for G in base_catalog() if G.n <= max_n]
    rng = random.Random(seed)
    for _ in range(samples if max_n >= 3 else 0):  # no sample exceeds the cap
        n = rng.randint(3, min(max_n, 8))
        pool.append(random_connected_graph(rng, n, p=rng.uniform(0.3, 0.8)))
    return pool


def suite_bounds(max_n: int = 8, seed: int = 1, budget: int = DEFAULT_BUDGET):
    results = []
    for G in _graphs(max_n, seed):
        q = solve_q(G, budget=budget).q
        lb = class_lower_bound(G, budget=budget)
        ub = edge_upper_bound(G)
        ok = (lb.value < q if lb.strict else lb.value <= q) and q <= ub < 1
        results.append(_result("bounds", "sandwich", G, ok,
                               f"{lb.value} <= {q} <= {ub}"))
        if not characterize_third(G):
            results.append(_result("bounds", "floor-2/5", G,
                                   q >= Fraction(2, 5), f"q={q}"))
    return results


def suite_closed_forms(max_n: int = 10, seed: int = 1,
                       budget: int = DEFAULT_BUDGET):
    results = []
    for G in _graphs(max_n, seed, samples=0):
        q = solve_q(G, budget=budget).q
        if is_tree(G):
            v = tree_q(G)
            results.append(_result("closed-forms", "tree", G, v.value == q,
                                   f"formula {v.value} vs solver {q}"))
        if regularity(G) == 3 and is_connected(G):
            v = cubic_q(G, budget=budget)
            results.append(_result("closed-forms", "cubic", G, v.value == q,
                                   f"formula {v.value} vs solver {q}"))
        if regularity(G) == 4 and is_connected(G):
            v = four_regular_q(G, budget=budget)
            results.append(_result("closed-forms", "4reg", G, v.value == q,
                                   f"formula {v.value} vs solver {q}"))
    return results


def suite_matching_cut(max_n: int = 10, seed: int = 1,
                       budget: int = DEFAULT_BUDGET):
    results = []
    # the cut-free cubic graphs are K4 and K33; K3 (not cubic) also has none
    no_cut = (complete(3), complete(4), build_named("K33"))
    for G in cubic_catalog() + (complete(3),):
        cert = find_matching_cut(Graph(G.n, G.adj), budget=budget)
        expected = not any(is_isomorphic(G, H) for H in no_cut)
        results.append(_result("matching-cut", "cubic-ground-truth", G,
                               cert.has_cut == expected,
                               f"has_cut={cert.has_cut}"))
    for G in _graphs(max_n, seed, samples=5):
        k = regularity(G)
        if k is None:
            continue
        cert = find_matching_cut(G, budget=budget)
        dec = decide(G, Fraction(k, k + 1), budget=budget)
        results.append(_result("matching-cut", "kreg-threshold", G,
                               cert.has_cut == bool(dec),
                               f"cut={cert.has_cut} decide={bool(dec)}"))
    return results


def suite_products(max_n: int = 24, seed: int = 1,
                   budget: int = DEFAULT_BUDGET):
    results = []
    for G, H, P in product_pairs(max_product=max_n):
        rule = product_matching_cut(G, H, budget=budget)
        direct = find_matching_cut(Graph(P.n, P.adj), budget=budget)
        results.append(_result("products", "matching-cut-rule", P,
                               rule.has_cut == direct.has_cut,
                               f"rule={rule.has_cut} direct={direct.has_cut}"))
        if P.n <= 16:
            qp = solve_q(P, budget=budget).q
            qmax = max(solve_q(G, budget=budget).q, solve_q(H, budget=budget).q)
            results.append(_result("products", "strict-growth", P,
                                   qp > qmax and qp > Fraction(1, 2),
                                   f"q={qp} factors<= {qmax}"))
    return results


def suite_good_pair(max_n: int = 9, seed: int = 1,
                    budget: int = DEFAULT_BUDGET):
    results = []
    for G in _graphs(max_n, seed):
        try:
            gp = find_good_pair(G, budget=budget)
        except PreconditionError:
            continue  # outside the construction: see find_good_pair
        P = extend_good_pair(G, gp)
        quality = partition_quality(G, P).quality
        results.append(_result("good-pair", "extension-quality", G,
                               quality >= Fraction(3, 7),
                               f"case={gp.case} quality={quality}"))
        w = lower_bound_witness(G, budget=budget)
        results.append(_result("good-pair", "lower-bound-witness", G,
                               w.quality >= w.value,
                               f"rule={w.rule} value={w.value} got={w.quality}"))
    return results


def suite_reductions(max_n: int = 24, seed: int = 1,
                     budget: int = DEFAULT_BUDGET):
    instances = [
        bipartite_double_cover(complete(5)),
        bipartite_double_cover(cycle(5)),
        cover_plus_matching(build_named("K33")),
        cover_plus_matching(cycle(6)),
        twin_expand_then_K2(complete(2)),
        twin_expand_then_K2(cycle(6)),
        product_with_fixed(cycle(6), complete(4)),
        product_with_fixed(cycle(6), complete(3)),
    ]
    results = []
    for inst in instances:
        if inst.graph.n > max_n:
            continue
        ok = verify_equivalence(inst, budget=budget)
        results.append(_result("reductions", inst.construction, inst.source, ok,
                               f"claim={inst.claim.kind}"))
    return results


def run_suite(name: str, max_n: int | None = None, seed: int = 1,
              budget: int = DEFAULT_BUDGET) -> list[PropertyResult]:
    funcs = {
        "bounds": suite_bounds,
        "closed-forms": suite_closed_forms,
        "matching-cut": suite_matching_cut,
        "products": suite_products,
        "good-pair": suite_good_pair,
        "reductions": suite_reductions,
    }
    if name not in funcs:
        raise PreconditionError(f"unknown suite {name!r}; pick one of {tuple(funcs)}")
    kwargs = {"seed": seed, "budget": budget}
    if max_n is not None:
        if max_n < 2:
            raise ParameterError(f"max_n must be at least 2, got {max_n}")
        kwargs["max_n"] = max_n
    return funcs[name](**kwargs)
