"""Self-tests of the benchmark's own code; they do not import degratio.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads as W  # noqa: E402


def texts(workload: str, seed: int) -> list[str]:
    out = []
    for op in W.build_ops(workload, seed):
        g = op.graph
        parts = g.factors if g.factors else (g,)
        out.append("".join(p.text for p in parts) + str(op.threshold))
    return out


def test_generator_gives_identical_text_for_one_seed():
    for workload in W.WORKLOADS:
        assert texts(workload, 7) == texts(workload, 7)
        assert texts(workload, 7) != texts(workload, 8)


def test_generated_graphs_are_simple_and_connected():
    for workload in W.WORKLOADS:
        for g in W.graphs_of(W.build_ops(workload, 3)):
            assert all(0 <= u < v < g.n for u, v in g.edges)
            assert len(set(g.edges)) == len(g.edges)
            assert W._connected(g.n, g.edges)


def _small_known() -> list[tuple[str, int, tuple, Fraction]]:
    cases = []
    for n in range(2, 9):
        cases.append((f"K{n}", n, W.complete_edges(n), oracle.clique_q(n)))
    for k in range(1, 7):
        cases.append((f"T{k}", k + 2, W.ktriangle_edges(k), oracle.ktriangle_q(k)))
    rng = random.Random(0)
    for n in range(2, 9):
        for tree in (W.path_edges(n), W.random_tree(rng, n)):
            cases.append((f"tree{n}", n, tree, oracle.tree_q(n, tree)))
    for name in ("K4", "K33", "prism", "cube"):
        edges = W.NAMED_CUBIC[name]
        cases.append((name, max(max(e) for e in edges) + 1, edges,
                      oracle.cubic_q(name in ("K4", "K33"))))
    cases.append(("K5", 5, W.complete_edges(5), oracle.four_regular_q(True, False)))
    for n in (6, 7, 8):
        cases.append((f"C{n}(1,2)", n, W.circulant12_edges(n), oracle.four_regular_q(False, False)))
    k2 = W.graph("K2", 2, W.complete_edges(2))
    for base in (k2, W.graph("C3", 3, W.cycle_edges(3)), W.graph("C4", 4, W.cycle_edges(4))):
        for tree_n in (2, 3, 4):
            if base.n * tree_n <= 8:
                tree = W.graph(f"P{tree_n}", tree_n, W.path_edges(tree_n))
                prod = W.product(base, tree, oracle.product_regular_tree_q(
                    base.regular, tree.n, tree.edges))
                cases.append((prod.name, prod.n, prod.edges, prod.known_q))
    return cases


def test_brute_force_matches_closed_forms_up_to_eight_vertices():
    for name, n, edges, known in _small_known():
        assert oracle.brute_force_q(n, edges) == known, name
        assert oracle.exact_q(n, edges) == known, name


def test_brute_force_matches_cubic_product_closed_form():
    k4 = W.graph("K4", 4, W.complete_edges(4))
    prod = W.product(k4, k4, oracle.product_cubic_q(True))
    assert oracle.brute_force_q(prod.n, prod.edges) == prod.known_q


def _brute_matching_cut(n, edges) -> bool:
    for side_b in range(1, 1 << (n - 1)):
        sides = tuple(2 if side_b >> v & 1 else 1 for v in range(n))
        if oracle.is_matching(oracle.crossing_edges(edges, sides)):
            return True
    return False


def test_exact_search_matches_brute_force_on_random_graphs():
    rng = random.Random(1)
    for _ in range(150):
        n = rng.randrange(3, 10)
        p = rng.choice((0.3, 0.5, 0.8))
        edges = W._norm((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
        if not edges or not W._connected(n, edges):
            continue
        q = oracle.brute_force_q(n, edges)
        assert oracle.exact_q(n, edges) == q
        assert q <= oracle.edge_upper_bound(n, edges)
        assert oracle.has_matching_cut(n, edges) == _brute_matching_cut(n, edges)


def test_reference_table_matches_generator_and_exact_search():
    table = checks.load_reference("solve-dense", 1)
    assert table, "reference_q.json has no entries for seed 1"
    graphs = {g.name: g for g in W.graphs_of(W.build_ops("solve-dense", 1))}
    for i, (name, (digest, q)) in enumerate(sorted(table.items())):
        assert digest == checks.text_digest(graphs[name].text), name
        if i % 8 == 0:  # recompute a sample; the full table takes seconds per seed
            assert oracle.exact_q(graphs[name].n, graphs[name].edges) == q, name
