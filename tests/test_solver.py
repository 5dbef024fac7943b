"""Exact solver against brute-force oracles, decision queries, and
matching-cut search."""

import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (naive_demand_partition, naive_matching_cut, naive_q,
                      paley)
from degratio.catalog import product_pairs, random_connected_graph
from degratio import graph, solver
from degratio.errors import BudgetExceededError, CertificateError, \
    ParameterError, PreconditionError
from degratio.formulas import class_lower_bound, edge_upper_bound, tree_q
from degratio import (build_named, complete, complete_bipartite, cycle,
                      k_triangle, path)
from degratio.graph import Graph, cartesian_product, graph_from_edges
from degratio.ratios import (Bipartition, certify, crossing_edges, is_matching,
                             min_ratio, partition_quality, top_edge)
from degratio.solver import (_mcs_order, _search, decide, find_matching_cut,
                             lift_partition, product_matching_cut, solve_q)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_solver_matches_enumeration_oracle(seed):
    rng = random.Random(seed)
    G = random_connected_graph(rng, rng.randint(3, 8), p=rng.uniform(0.3, 0.9))
    expected, _ = naive_q(G)
    res = solve_q(G)
    assert res.q == expected
    assert partition_quality(G, res.optimal_partition).quality == res.q


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 9), data=st.data())
def test_min_ratio_matches_partition_quality(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    G = graph_from_edges(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)))
    sides = data.draw(st.lists(st.sampled_from((1, 2)), min_size=n, max_size=n))
    if len(set(sides)) == 1:
        sides[0] = 3 - sides[0]
    k, d = min_ratio(G, sides)
    assert Fraction(k, d) == partition_quality(G, Bipartition(tuple(sides))).quality


def _blow_up(rng: random.Random, max_n: int):
    """A random connected base graph whose vertices each become 1-3 copies,
    forming a clique (true twins) or an independent set (false twins), with
    the vertices then relabelled at random so vertex 0 may have twins."""
    while True:
        base = random_connected_graph(rng, rng.randint(2, 5), p=rng.uniform(0.3, 0.9))
        copies = [rng.randint(1, 3) for _ in range(base.n)]
        if sum(copies) <= max_n:
            break
    n = sum(copies)
    labels = iter(rng.sample(range(n), n))
    blocks = [[next(labels) for _ in range(c)] for c in copies]
    edges = []
    for b, block in enumerate(blocks):
        if rng.random() < 0.5:
            edges += [(u, w) for i, u in enumerate(block) for w in block[i + 1:]]
        for a in base.adj[b]:
            if a > b:
                edges += [(u, w) for u in block for w in blocks[a]]
    return graph_from_edges(n, edges)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_twin_rule_matches_oracles_on_blow_ups(seed):
    G = _blow_up(random.Random(seed), 14)
    q, _ = naive_q(G)
    res = solve_q(G)
    assert res.q == q
    assert partition_quality(G, res.optimal_partition).quality == q
    yes = decide(G, q)
    assert yes and partition_quality(G, yes.witness).quality >= q
    assert not decide(G, q + Fraction(1, G.n * (G.n + 1)))
    cert = find_matching_cut(Graph(G.n, G.adj))
    assert cert.has_cut == naive_matching_cut(G)
    if cert.has_cut:
        assert is_matching(G, crossing_edges(G, cert.partition))


def test_twin_before_matches_brute_force():
    # blow-ups plant true and false twins; random caps of 0 or 1 differ
    # inside one degree class, and a twin with another cap is not taken
    rng = random.Random(11)
    for i in range(300):
        G = _blow_up(rng, 14) if i % 3 else \
            random_connected_graph(rng, rng.randint(2, 12), p=rng.uniform(0.2, 0.8))
        cap = [rng.randint(0, 1) if i % 2 else G.degree(v) // 2 for v in range(G.n)]
        order = rng.sample(range(G.n), G.n)
        expected, seen = [-1] * G.n, []
        for v in order:
            for w in seen:
                if cap[w] == cap[v] and (G.adj[w] == G.adj[v]
                                         or G.adj[w] | {w} == G.adj[v] | {v}):
                    expected[v] = w
            seen.append(v)
        assert solver._twin_before(G, order, cap) == expected, (G.edges(), cap, order)


def test_search_with_demand_caps_matches_oracle():
    # a demand f(v) is the cap d(v) - f(v); leaves 1 and 2 of the path are
    # false twins with different demands, and only 1 may leave vertex 0
    cases = [(graph_from_edges(3, [(0, 1), (0, 2)]), [1, 0, 1])]
    rng = random.Random(5)
    for i in range(300):
        G = _blow_up(rng, 13) if i % 2 else \
            random_connected_graph(rng, rng.randint(3, 13), p=rng.uniform(0.2, 0.8))
        cases.append((G, [rng.randint(0, (G.degree(v) + 3) // 2) for v in range(G.n)]))
    for G, f in cases:
        cap = [G.degree(v) - f[v] for v in range(G.n)]
        _, sides = _search(G, cap, 1 << 30, lambda sides, same: True)
        assert (sides is not None) == naive_demand_partition(G, f), (G.adj, f)
        if sides is not None:
            assert 1 in sides and 2 in sides
            assert all(sum(sides[u] == sides[v] for u in G.adj[v]) >= f[v]
                       for v in range(G.n))


def _tree_with_chords(rng: random.Random, n: int):
    """A random tree on n vertices plus one or two chords, relabelled at
    random: fewer than n * n / 8 edges for every n from 9 to 12."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    size = n - 1 + rng.randint(1, 2)
    while len(edges) < size:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    label = rng.sample(range(n), n)
    return graph_from_edges(n, [(label[u], label[v]) for u, v in edges])


def _next_candidate(G, q: Fraction) -> Fraction:
    """The smallest ratio k/(d(v) + 1) above q; no quality lies in between."""
    return min(Fraction(k, d) for d in {G.degree(v) + 1 for v in range(G.n)}
               for k in range(1, d + 1) if Fraction(k, d) > q)


@pytest.mark.parametrize("dense", [True, False], ids=["copy-undo", "trail-undo"])
def test_both_undo_paths_match_oracles(dense):
    # the search saves and restores the count arrays when n * n <= 8 * m,
    # as on these dense draws, and undoes by the trail on the sparse ones
    rng = random.Random(11 if dense else 12)
    for _ in range(6):
        n = rng.randint(9, 12)
        G = random_connected_graph(rng, n, rng.uniform(0.5, 0.9)) if dense \
            else _tree_with_chords(rng, n)
        assert (n * n <= 8 * G.num_edges) == dense
        q, _ = naive_q(G)
        res = solve_q(G)
        assert res.q == q
        assert partition_quality(G, res.optimal_partition).quality == q
        assert decide(G, q) and not decide(G, _next_candidate(G, q))
        cert = find_matching_cut(Graph(G.n, G.adj))
        assert cert.has_cut == naive_matching_cut(G)
        for _ in range(3):
            f = [rng.randint(0, (G.degree(v) + 3) // 2) for v in range(n)]
            cap = [G.degree(v) - f[v] for v in range(n)]
            _, sides = _search(G, cap, 1 << 30, lambda sides, same: True)
            assert (sides is not None) == naive_demand_partition(G, f), (G.adj, f)


@pytest.mark.parametrize("dense", [True, False], ids=["copy-undo", "trail-undo"])
def test_leaf_counts_are_exact_on_both_undo_paths(dense):
    # on_leaf gets the search's neighbor counts, same[s][v], and solve_q
    # scores its leaves from them; at every leaf they must equal the counts
    # read from G.adj, after backtracking over conflicts on either path
    rng = random.Random(13 if dense else 14)
    leaves = 0

    def check(sides, same):
        nonlocal leaves
        leaves += 1
        for v, s in enumerate(sides):
            kept = sum(sides[u] == s for u in G.adj[v])
            assert (same[s][v], same[3 - s][v]) == (kept, G.degree(v) - kept)
        return False  # run the search to its end

    for _ in range(6):
        n = rng.randint(9, 12)
        G = random_connected_graph(rng, n, rng.uniform(0.5, 0.9)) if dense \
            else _tree_with_chords(rng, n)
        assert (n * n <= 8 * G.num_edges) == dense
        q, _ = naive_q(G)
        caps = [[G.degree(v) for v in range(n)],
                [(G.degree(v) + 1) * (q.denominator - q.numerator) // q.denominator
                 for v in range(n)]]
        caps += [[G.degree(v) - rng.randint(0, (G.degree(v) + 3) // 2) for v in range(n)]
                 for _ in range(3)]
        for cap in caps:
            assert _search(G, cap, 1 << 30, check)[1] is None
    assert leaves > 1000


def _feasible_partitions(G, cap) -> set[tuple[int, ...]]:
    """Every nontrivial partition with vertex 0 on side 1 in which each
    vertex v has at most cap[v] neighbors across, by brute force."""
    n = G.n
    masks = [sum(1 << u for u in G.adj[v]) for v in range(n)]
    found = set()
    for low in range(1, 1 << (n - 1)):
        two = low << 1  # the vertices on side 2; vertex 0 stays on side 1
        one = ~two
        if all((masks[v] & (one if two >> v & 1 else two)).bit_count() <= cap[v]
               for v in range(n)):
            found.add(tuple([2 if two >> v & 1 else 1 for v in range(n)]))
    return found


@pytest.mark.parametrize("caps", ["decide", "solve", "demands"])
def test_pruning_keeps_every_feasible_leaf(caps):
    # with fixed caps and no twins, the leaves of an exhausted search are
    # exactly the partitions that meet the caps: every pruning rule, the pair
    # rule of the copy path included, may cut only branches without one.
    # The caps are those of decide at q, those of solve_q once its incumbent
    # is q (no partition beats q, so no leaf), and random degree demands
    rng = random.Random({"decide": 21, "solve": 22, "demands": 23}[caps])
    checked = total = 0
    while checked < 20:
        n = rng.randint(9, 13)
        G = random_connected_graph(rng, n, rng.uniform(0.45, 0.8))
        closed = {G.adj[v] | {v} for v in range(n)}
        if n * n > 8 * G.num_edges or len({G.adj[v] for v in range(n)}) < n \
                or len(closed) < n:
            continue  # the sparse undo path, or twins
        d1 = [G.degree(v) + 1 for v in range(n)]
        q = solve_q(G).q
        num, den = q.numerator, q.denominator
        if caps == "decide":
            cap = [d * (den - num) // den for d in d1]
        elif caps == "solve":
            cap = [(d * (den - num) - 1) // den for d in d1]
        else:
            cap = [G.degree(v) - rng.randint(0, (G.degree(v) + 3) // 2) for v in range(n)]
        leaves = []
        _search(G, cap, 1 << 30, lambda sides, same: leaves.append(sides))
        expected = _feasible_partitions(G, cap)
        assert len(leaves) == len(set(leaves)) and set(leaves) == expected, (G.adj, cap)
        checked += 1
        total += len(expected)
    assert (total == 0) == (caps == "solve")


def test_solve_q_certifies_a_witness_its_search_found(monkeypatch):
    # a leaf scored from the search's counts is certified once; the bridge
    # and component splits are scored by min_ratio itself, and so is the
    # bridge incumbent when the search finds nothing better
    calls = []

    def spy(G, P, bound, relation=">="):
        calls.append(relation)
        return certify(G, P, bound, relation)

    monkeypatch.setattr(solver, "certify", spy)
    pendant_k6 = graph_from_edges(7, [(u, v) for v in range(6) for u in range(v)]
                                  + [(5, 6)])
    for G, q, method, expected in [
            (build_named("petersen"), Fraction(3, 4), "upper_bound_met", ["=="]),
            (complete(5), Fraction(2, 5), "pruned_search", ["=="]),
            (path(6), Fraction(2, 3), "upper_bound_met", []),
            (graph_from_edges(4, [(0, 1), (2, 3)]), Fraction(1), "upper_bound_met", []),
            (pendant_k6, Fraction(1, 2), "pruned_search", [])]:
        calls.clear()
        res = solve_q(G)
        assert (res.q, res.method, calls) == (q, method, expected)


def test_search_memory_stays_linear_on_sparse_graphs():
    # the trail undo keeps the allocations of a 3,000-vertex cycle near
    # 1.5 MB; saving both count arrays at each of its 3,000 decisions would
    # hold about 140 MB
    tracemalloc.start()
    try:
        solve_q(cycle(3000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


@pytest.mark.parametrize("G, q", [
    (complete(20), Fraction(1, 2)),
    (complete_bipartite(8, 9), Fraction(1, 2)),
    (k_triangle(16), Fraction(1, 2)),
])
def test_twin_classes_keep_the_search_small(G, q):
    # the search from incumbent 0/1 visits 165, 99 and 130 nodes here; the
    # BFS-order search without twin symmetry breaking visited 184,775, 2,817
    # and 25,773, and the search with the twin chain propagated only from
    # side 1 visited 309, 335 and 246.  The bound is also the budget, so a
    # broken rule fails fast instead of searching for hours.
    bound = {"K20": 250, "K89": 200, "T16": 200}[G.name]
    res = solve_q(G, budget=bound)
    assert res.q == q and res.method == "pruned_search"
    assert res.explored < bound


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 12), data=st.data())
def test_mcs_order_matches_reference(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    G = graph_from_edges(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)))
    # vertex 0, then the most placed neighbors, the higher degree, the lower label
    order, count = [0], [0] * n
    while len(order) < n:
        for u in G.adj[order[-1]]:
            count[u] += 1
        order.append(max(set(range(n)) - set(order),
                         key=lambda u: (count[u], G.degree(u), -u)))
    assert _mcs_order(G) == order


@pytest.mark.parametrize("G, q", [
    (paley(29), Fraction(8, 15)),
    (random_connected_graph(random.Random(5), 36, 0.3), Fraction(5, 9)),
])
def test_propagation_keeps_the_search_small(G, q):
    # the search visits 12,802 and 13,133 nodes here; without the pair rule
    # it visited 58,964 and 19,200, and in BFS order without propagation
    # 183,553 and 443,217.  The bound is also the budget, so a broken
    # propagation fails fast instead of running for hours.
    bound = {29: 20_000, 36: 16_000}[G.n]
    res = solve_q(G, budget=bound)
    assert res.q == q and res.method == "pruned_search"
    assert res.explored < bound


@pytest.mark.parametrize("G", [path(16), cycle(9), build_named("prism")])
def test_search_stops_at_the_first_leaf_that_meets_the_edge_upper_bound(G):
    # P16's strongest bridge meets the bound, so no search runs (0
    # assignments); C9 and the prism have no bridge, and the search stops at
    # its first leaf that meets the bound, after 12 and 12 assignments
    res = solve_q(G)
    assert res.q == edge_upper_bound(G)
    assert res.method == "upper_bound_met" and res.explored <= 3 * G.n


def test_solver_named_values(catalog):
    small = [G for G in catalog if G.n <= 8]
    for G in small:
        expected, _ = naive_q(G)
        assert solve_q(G).q == expected, G.name


def test_disconnected_graph_reaches_quality_one():
    G = graph_from_edges(4, [(0, 1), (2, 3)])
    res = solve_q(G)
    assert res.q == 1
    # decide splits off vertex 0's component, which keeps every closed
    # neighborhood, without a search
    res = decide(G, Fraction(1))
    assert res.satisfied and res.explored == 0
    assert res.witness.sides == (1, 1, 2, 2)
    certify(G, res.witness, Fraction(1))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_decide_is_consistent_with_solve(seed):
    rng = random.Random(seed)
    G = random_connected_graph(rng, rng.randint(3, 7))
    q = solve_q(G).q
    assert decide(G, q)
    # the next representable threshold step is beyond the optimum
    eps = Fraction(1, G.n * (G.n + 1))
    assert not decide(G, q + eps)


def test_decide_witness_validates():
    G = build_named("prism")
    res = decide(G, Fraction(3, 4))
    assert res and partition_quality(G, res.witness).quality >= Fraction(3, 4)


def test_decide_certifies_the_search_witness(monkeypatch):
    # a search leaf of quality 1/2 offered as a witness for q(K4) >= 3/4
    monkeypatch.setattr(solver, "_search",
                        lambda G, cap, budget, on_leaf: (1, (1, 1, 2, 2)))
    with pytest.raises(CertificateError):
        decide(complete(4), Fraction(3, 4))


def test_matching_cut_certifies_the_search_witness(monkeypatch):
    # a leaf whose four crossing edges share endpoints is not a matching-cut
    monkeypatch.setattr(solver, "_search",
                        lambda G, cap, budget, on_leaf: (1, (1, 1, 2, 2)))
    with pytest.raises(CertificateError):
        find_matching_cut(complete(4))


def test_decide_parameter_validation():
    with pytest.raises(ParameterError):
        decide(complete(3), Fraction(0))
    with pytest.raises(ParameterError):
        decide(complete(3), Fraction(3, 2))


def test_decide_refuses_inexact_thresholds():
    # a float or decimal threshold is refused as a parameter, not with a bare
    # AttributeError from the cap arithmetic; ints and Fractions are exact
    G = cycle(5)
    for q in (0.5, 1.0, Decimal("0.5"), "1/2"):
        with pytest.raises(ParameterError, match="exact rational"):
            decide(G, q)
    assert decide(G, 1).satisfied is False
    assert decide(G, Fraction(1, 2)).satisfied is True


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_matching_cut_matches_oracle(seed):
    rng = random.Random(seed)
    G = random_connected_graph(rng, rng.randint(3, 8), p=rng.uniform(0.3, 0.9))
    cert = find_matching_cut(G)
    assert cert.has_cut == naive_matching_cut(G)
    if cert.has_cut:
        assert is_matching(G, crossing_edges(G, cert.partition))


def test_matching_cut_requires_connected():
    with pytest.raises(PreconditionError):
        find_matching_cut(graph_from_edges(4, [(0, 1), (2, 3)]))


def test_product_matching_cut_rule_both_directions():
    for G, H, P in product_pairs(max_product=24):
        rule = product_matching_cut(G, H)
        direct = find_matching_cut(Graph(P.n, P.adj))
        assert rule.has_cut == direct.has_cut, (G.name, H.name)
        if rule.has_cut:
            assert is_matching(P, crossing_edges(P, rule.partition))


def test_product_factor_searches_share_one_budget():
    # the two factor searches of the product rule draw on the caller's one
    # budget: K_7 takes 9 assignments, so the second search gets none
    P = build_named("prod:K_7,K_7")
    with pytest.raises(BudgetExceededError) as exc:
        find_matching_cut(P, budget=9)
    assert exc.value.explored == 10
    cert = find_matching_cut(P, budget=18)
    assert not cert.has_cut and cert.explored == 18
    with pytest.raises(BudgetExceededError):
        product_matching_cut(complete(7), complete(7), budget=17)
    # and so do the two factor solves of the prodmax class bound
    Q = build_named("prod:K4,K33")
    spent = solve_q(complete(4)).explored + solve_q(complete_bipartite(3, 3)).explored
    with pytest.raises(BudgetExceededError) as exc:
        class_lower_bound(Q, budget=spent - 1)
    assert exc.value.explored == spent
    assert "prodmax" in class_lower_bound(Q, budget=spent).rules


def test_lift_partition_fiberwise():
    G, H = complete(4), cycle(4)
    P = cartesian_product(G, H)
    hp = Bipartition.from_string("1122")
    lifted = lift_partition(P, hp, "right")
    for g in range(G.n):
        for h in range(H.n):
            assert lifted.sides[g * H.n + h] == hp.sides[h]


def test_budget_exhaustion_raises():
    G = build_named("petersen")
    with pytest.raises(BudgetExceededError):
        # tiny budget, a threshold nothing reaches -> full search is needed
        decide(G, Fraction(99, 100), budget=8)


def test_matching_cut_search_is_not_bounded_by_recursion_limit():
    G = cycle(1100)
    cert = find_matching_cut(G)
    assert cert.has_cut and len(cert.crossing) == 2


def test_long_path_search_is_cheap():
    # 149 bridges and 148 cut vertices; a middle bridge meets the edge bound,
    # so no search runs
    res = solve_q(path(150))
    assert res.q == Fraction(2, 3) and res.explored == 0


def _random_tree(rng: random.Random, n: int):
    return graph_from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


@pytest.mark.parametrize("G", [_random_tree(random.Random(7), 1000), path(400)],
                         ids=["random-tree-1000", "P400"])
def test_tree_search_stops_at_the_first_leaf_that_settles_the_answer(G):
    # every edge of a tree is a bridge, so solve_q returns the split at the
    # top edge with no search (0 assignments); decide searches and stops at
    # its first leaf, after 1,240 and 402 assignments
    q = tree_q(G).value
    res = solve_q(G)
    assert (res.method, res.q) == ("upper_bound_met", q)
    assert res.explored <= 15 * G.n
    assert res.explored == 0
    yes = decide(G, q)
    assert yes.satisfied and yes.explored <= 15 * G.n
    assert partition_quality(G, yes.witness).quality == q


def _path_plus_k5(length: int):
    """A path on ``length`` vertices with a K5 joined by one edge to its
    last vertex."""
    edges = [(v, v + 1) for v in range(length)]
    edges += [(u, w) for u in range(length, length + 5)
              for w in range(u + 1, length + 5)]
    return graph_from_edges(length + 5, edges)


def test_long_bridged_graph_search_is_linear():
    # both calls stay within 3 assignments per vertex (2,007 each); a pass
    # over every bridge or cut vertex per call would be quadratic here
    G = _path_plus_k5(2000)
    res = solve_q(G)
    assert res.q == Fraction(2, 3) and res.explored <= 3 * G.n
    no = decide(G, Fraction(3, 4))
    assert not no.satisfied and no.explored <= 3 * G.n


def _two_triangles():
    """Two triangles joined by the bridge 2-3."""
    return graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])


def _late_bridge():
    """Top edges of t = 4: the first, 0-1, lies on the 4-cycle 0-1-2-3 and
    in no triangle, and the bridge 3-7 comes later.  The leaves 4, 5 and 6
    hang from 0, 1 and 2 by weaker bridges, and vertex 7 closes a triangle
    with 8 and 9."""
    return graph_from_edges(10, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5),
                                 (2, 6), (3, 7), (7, 8), (7, 9), (8, 9)])


def test_bridge_incumbent_matches_oracle():
    # the strongest bridge's split is the first incumbent; its quality is
    # (t - 1)/t, and the answer when t is the top of the edge bound
    rng = random.Random(17)
    graphs = [_two_triangles(), _late_bridge()]
    graphs += [_path_plus_k5(length) for length in range(2, 7)]
    for i in range(40):
        n = rng.randint(3, 11)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        size = min(n - 1 + i % 4, n * (n - 1) // 2)
        while len(edges) < size:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        label = rng.sample(range(n), n)
        graphs.append(graph_from_edges(n, [(label[u], label[v]) for u, v in edges]))
    for G in graphs:
        q, _ = naive_q(G)
        res = solve_q(G)
        assert res.q == q, G.adj
        assert Fraction(*min_ratio(G, res.optimal_partition.sides)) == q
    # the best bridge of a path+K5 falls below the edge bound 4/5: the search
    # runs from it and proves it optimal
    res = solve_q(_path_plus_k5(6))
    assert res.method == "pruned_search" and res.q == Fraction(2, 3)
    assert top_edge(_late_bridge()) == ((0, 1), 4)
    for G in (_two_triangles(), _late_bridge()):
        res = solve_q(G)
        assert (res.q, res.explored, res.method) == (Fraction(3, 4), 0, "upper_bound_met")


@pytest.mark.parametrize("G", [cycle(3000), complete_bipartite(30, 30),
                               _random_tree(random.Random(3), 5000)],
                         ids=["C3000", "K30_30", "random-tree-5000"])
def test_bridge_incumbent_costs_one_graph_pass(G, monkeypatch):
    # one low-link pass finds the components and every bridge, and the
    # bridge split is read off it, with no other traversal; checking each
    # top edge with its own flood fill would be quadratic on a bridgeless
    # graph
    calls = []
    for name in ("low_link", "components", "is_connected", "cut_vertices",
                 "two_coloring"):
        fn = getattr(graph, name)
        wrapped = lambda *args, _fn=fn: calls.append(_fn.__name__) or _fn(*args)
        monkeypatch.setattr(graph, name, wrapped)
        if hasattr(solver, name):
            monkeypatch.setattr(solver, name, wrapped)
    res = solve_q(G)
    assert calls == ["low_link"]
    if G.num_edges == G.n - 1:  # a tree: its best bridge meets the edge bound
        assert res.explored == 0


@pytest.mark.parametrize("name", ["prod:cube,K4", "prod:K4,K4", "petersen"])
def test_one_search_per_call(name, monkeypatch):
    # no factor sub-solve runs inside solve_q or decide, so the budget bounds
    # the whole call and explored counts all of its work
    G = build_named(name)
    calls = []
    for fn in (solver._search, solver.solve_q, solver.find_matching_cut):
        monkeypatch.setattr(solver, fn.__name__, lambda *args, _fn=fn, **kwargs:
                            calls.append(_fn.__name__) or _fn(*args, **kwargs))
    res = solve_q(G)
    assert calls == ["_search"]
    calls.clear()
    assert decide(G, res.q) and calls == ["_search"]
    calls.clear()
    assert not decide(G, res.q + Fraction(1, G.n * (G.n + 1)))
    assert calls == ["_search"]
    for b in (0, res.explored // 2, res.explored - 1):
        with pytest.raises(BudgetExceededError) as exc:
            solve_q(G, budget=b)
        assert exc.value.explored == b + 1
    assert solve_q(G, budget=res.explored) == res


def test_sparse_200_vertex_graph():
    # a random tree plus triangle-closing chords: many bridges and cut
    # vertices
    rng = random.Random(2024)
    n = 200
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].add(v)
        adj[v].add(u)
    chords = 0
    while chords < n // 6:
        c = rng.randrange(n)
        if len(adj[c]) < 2:
            continue
        a, b = rng.sample(sorted(adj[c]), 2)
        if b not in adj[a]:
            adj[a].add(b)
            adj[b].add(a)
            chords += 1
    G = graph_from_edges(n, [(u, v) for u in range(n) for v in adj[u] if u < v])
    res = solve_q(G)
    assert partition_quality(G, res.optimal_partition).quality == res.q
    assert res.q <= edge_upper_bound(G)
