"""Graph construction, products, pattern detection, and the text format."""

import gc
import itertools
import random
import time
from fractions import Fraction

import pytest

from degratio.catalog import product_pairs, random_connected_graph
from degratio.errors import GraphParseError, ParameterError, PreconditionError
from degratio.formulas import closed_form
from degratio import (build_named, complete, complete_bipartite, cycle,
                      is_isomorphic, k_triangle, path)
from degratio.graph import (Graph, bipartition_classes, cartesian_product,
                            complement, components, cut_vertices, emit_graph,
                            fiber, graph_from_edges, is_connected, is_tree,
                            low_link, parse_graph, regularity, subtree_sides,
                            two_coloring)
from degratio.named import contains_subgraph
from degratio.ratios import Bipartition, partition_quality
from degratio.reductions import cover_plus_matching, verify_equivalence
from degratio.solver import solve_q


def test_named_builders_basic_counts():
    assert complete(5).num_edges == 10
    assert cycle(6).num_edges == 6
    assert path(5).num_edges == 4
    assert complete_bipartite(3, 3).num_edges == 9
    assert k_triangle(3).n == 5 and k_triangle(3).num_edges == 7
    assert build_named("petersen").num_edges == 15
    assert build_named("prism").num_edges == 9
    assert build_named("coK2claw").n == 6


def test_named_resolver_two_digit_rule():
    assert is_isomorphic(build_named("K23"), complete_bipartite(2, 3))
    assert is_isomorphic(build_named("K33"), complete_bipartite(3, 3))
    assert is_isomorphic(build_named("K5"), complete(5))
    assert is_isomorphic(build_named("K5-e"), complement(
        graph_from_edges(5, [(0, 1)])))


def test_named_cliques_of_any_size():
    G = build_named("K_12")
    assert G.n == 12 and G.num_edges == 66
    assert build_named("K_5") == complete(5)
    with pytest.raises(ParameterError, match="K_10"):
        build_named("K10")
    for digits in ("100", "123", "0007"):
        with pytest.raises(ParameterError, match=f"K_{digits}"):
            build_named("K" + digits)
    assert build_named("K_100").n == 100


def test_named_complete_bipartite_with_large_parts():
    G = build_named("K_3_12")
    assert G == complete_bipartite(3, 12) and G.name == "K_3_12"
    assert build_named("K_10_1") == complete_bipartite(10, 1)
    assert build_named("K_3_3") == build_named("K33")
    P = build_named("prod:K_3_12,K2")
    assert P == cartesian_product(complete_bipartite(3, 12), complete(2))
    for bad in ("K_3,12", "K3,12", "prod:K_3,12,K2"):
        with pytest.raises(ParameterError, match="K_3_12"):
            build_named(bad)
    with pytest.raises(ParameterError):
        build_named("K_0_3")


def test_k4_minus_e_plus_v_is_3_triangle():
    assert is_isomorphic(build_named("K4ev"), k_triangle(3))


def test_t1_is_triangle():
    assert is_isomorphic(k_triangle(1), cycle(3))


def test_loops_and_bad_edges_rejected():
    with pytest.raises(ParameterError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ParameterError):
        graph_from_edges(3, [(0, 5)])


def test_direct_construction_checks_adjacency():
    e = frozenset()
    bad = [(3, (frozenset({1}), e, e)),  # asymmetric
           (2, (frozenset({0, 1}), frozenset({0}))),  # self-loop
           (2, (frozenset({2}), e)),  # out of range
           (3, (e, e)),  # length
           (1, (e,))]
    for n, adj in bad:
        with pytest.raises(ParameterError):
            Graph(n, adj)


def test_direct_construction_stores_frozen_rows():
    # rows of another type become frozensets: a repeated neighbour counts
    # once, and the search's twin test can key a dictionary by a row;
    # frozenset rows are kept as they are
    G = Graph(4, ([1, 1], [0, 0], [3], [2]))
    assert G.num_edges == 2 and G == graph_from_edges(4, [(0, 1), (2, 3)])
    assert all(type(row) is frozenset for row in G.adj)
    triangle = Graph(3, ([1, 2], [0, 2], [0, 1]))
    assert solve_q(triangle).q == Fraction(1, 3)
    K4 = complete(4)
    assert all(a is b for a, b in zip(Graph(4, K4.adj).adj, K4.adj))


def test_builders_skip_the_adjacency_walk(monkeypatch):
    # the five builders check their input as they read it, or derive from a
    # checked graph, so none of them repeats the O(m) walk of __post_init__
    walks = []
    check = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__",
                        lambda self: walks.append(self.n) or check(self))
    G = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    H = parse_graph("p 3 2\ne 1 2\ne 2 3\n")
    complement(cartesian_product(G, H)).relabel("co-P4xP3")
    assert walks == []
    with pytest.raises(ParameterError):
        graph_from_edges(1, [])
    Graph(G.n, G.adj)
    assert walks == [4]


def test_derived_graphs_equal_checked_copies():
    # a Graph(n, adj) copy runs the full adjacency check, which raises on a
    # row a builder left asymmetric, looped or out of range
    graphs = [P for _, _, P in product_pairs()]
    for G in _mixed_graphs(random.Random(9)):
        graphs += [G, complement(G), parse_graph(emit_graph(G)), G.relabel("x")]
    for H in graphs:
        assert Graph(H.n, H.adj) == H


def test_regularity_and_bipartiteness():
    assert regularity(build_named("petersen")) == 3
    assert regularity(path(4)) is None
    assert bipartition_classes(complete(4)) is None
    left, right = bipartition_classes(complete_bipartite(2, 3))
    assert {len(left), len(right)} == {2, 3}


def test_connectivity_report():
    G = graph_from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    assert cut_vertices(G) == frozenset({2, 3})
    assert is_connected(G)
    assert not is_tree(G)
    assert is_tree(path(6))


def _component_count(G, vertices):
    left, count = set(vertices), 0
    while left:
        count += 1
        stack = [left.pop()]
        while stack:
            for u in G.adj[stack.pop()] & left:
                left.discard(u)
                stack.append(u)
    return count


def _mixed_graphs(rng):
    """240 graphs on 2-12 vertices: cliques, random trees, random graphs,
    and a tree beside a random graph, not joined."""
    for i in range(240):
        n = rng.randint(2, 12)
        kind = i % 4
        if kind == 0:
            yield complete(n)
        elif kind == 1:  # a random tree
            yield graph_from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])
        elif kind == 2:
            p = rng.uniform(0.1, 0.9)
            yield graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                       if rng.random() < p])
        else:  # a tree and a random graph side by side, not joined
            k = rng.randint(1, n - 1)
            edges = [(rng.randrange(v), v) for v in range(1, k)]
            edges += [(u, v) for u in range(k, n) for v in range(u + 1, n)
                      if rng.random() < 0.4]
            yield graph_from_edges(n, edges)


def _brute_colorings(G, mate):
    """Every 0/1 colouring, by enumeration, in which exactly the edges
    v-mate[v] (every edge when mate is None) change colour and the lowest
    vertex of each component has colour 0."""
    lowest = [min(comp) for comp in components(G)]
    edges = G.edges()
    found = []
    for mask in range(1 << G.n):
        if any(mask >> v & 1 for v in lowest):
            continue
        if all((mask >> u ^ mask >> v) & 1 == (mate is None or mate[u] == v)
               for u, v in edges):
            found.append([mask >> v & 1 for v in range(G.n)])
    return found


def test_two_coloring_matches_brute_force():
    rng = random.Random(8)
    for G in _mixed_graphs(random.Random(7)):
        expected = _brute_colorings(G, None)
        assert len(expected) <= 1
        assert two_coloring(G) == (expected[0] if expected else None), G.edges()
        classes = bipartition_classes(G)
        if expected:
            color = expected[0]
            assert classes == tuple(frozenset(v for v in range(G.n) if color[v] == c)
                                    for c in (0, 1))
        else:
            assert classes is None
        # a random matching of G as the crossing edges
        mate = [-1] * G.n
        for u, v in rng.sample(G.edges(), len(G.edges())):
            if mate[u] < 0 and mate[v] < 0 and rng.random() < 0.5:
                mate[u], mate[v] = v, u
        expected = _brute_colorings(G, mate)
        assert len(expected) <= 1
        assert two_coloring(G, mate) == (expected[0] if expected else None), \
            (G.edges(), mate)


def test_is_connected_agrees_with_components():
    for G in _mixed_graphs(random.Random(5)):
        for H in (G, complement(G)):
            assert is_connected(H) == (len(components(H)) == 1), H.edges()


def test_cut_vertices_match_brute_force():
    # v is a cut vertex iff G - v has more components than G
    for G in _mixed_graphs(random.Random(4)):
        n = G.n
        whole = _component_count(G, range(n))
        expected = {v for v in range(n)
                    if _component_count(G, set(range(n)) - {v}) > whole}
        assert cut_vertices(G) == expected, (G.edges(), expected)


def _reach(G, v):
    """The vertices reachable from v, by a flood fill."""
    seen, stack = {v}, [v]
    while stack:
        for u in G.adj[stack.pop()] - seen:
            seen.add(u)
            stack.append(u)
    return seen


def test_low_link_finds_bridges_and_components():
    # a tree edge pv is a bridge iff low[v] > disc[p], and an edge is a
    # bridge iff deleting it adds a component; v's subtree is the x with
    # disc[v] <= disc[x] < end[v], so each root's subtree is its component
    # and a bridge's side at its child is the child's subtree
    for G in _mixed_graphs(random.Random(6)):
        disc, low, parent, end = low_link(G)

        def subtree(v):
            assert subtree_sides(disc, end, v) == tuple(
                [1 if disc[v] <= disc[x] < end[v] else 2 for x in range(G.n)])
            return {x for x in range(G.n) if disc[v] <= disc[x] < end[v]}

        found = {frozenset((p, v)): subtree(v) for v, p in enumerate(parent)
                 if p >= 0 and low[v] > disc[p]}
        whole = _component_count(G, range(G.n))
        expected = {}
        for u, v in G.edges():
            H = graph_from_edges(G.n, [e for e in G.edges() if e != (u, v)])
            if _component_count(H, range(G.n)) > whole:
                child = v if parent[v] == u else u
                expected[frozenset((u, v))] = _reach(H, child)
        assert found == expected, G.edges()
        roots = [v for v, p in enumerate(parent) if p < 0]
        assert roots[0] == 0 and len(roots) == whole
        assert [subtree(r) for r in roots] == [_reach(G, r) for r in roots]
        assert components(G) == [frozenset(_reach(G, r)) for r in roots]


def test_cartesian_product_structure():
    P = cartesian_product(complete(4), complete_bipartite(3, 3))
    assert P.n == 24 and regularity(P) == 6
    assert P.factors is not None
    # anchoring a left-factor vertex yields a K33 copy and vice versa
    assert len(fiber(P, "left", 0)) == 6
    assert len(fiber(P, "right", 0)) == 4
    # (g1, h1) ~ (g2, h2) iff g1 = g2 and h1 ~ h2, or h1 = h2 and g1 ~ g2
    for G, H, P in product_pairs():
        edges = [(g * H.n + u, g * H.n + v) for g in range(G.n) for u, v in H.edges()]
        edges += [(u * H.n + h, v * H.n + h) for h in range(H.n) for u, v in G.edges()]
        assert P == graph_from_edges(G.n * H.n, edges) and P.factors == (G, H)


def test_product_rejects_disconnected_factor():
    two = graph_from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(PreconditionError):
        cartesian_product(two, complete(2))


def test_prism_is_k3_times_k2():
    assert is_isomorphic(build_named("prism"),
                         cartesian_product(cycle(3), complete(2)))


def test_pattern_detection_subgraph_vs_induced():
    K7 = complete(7)
    assert contains_subgraph(K7, k_triangle(3))


def test_named_pattern_graphs():
    # the diamond and K4-e+v are the k-triangles T_2 and T_3
    assert build_named("diamond") == k_triangle(2)
    assert build_named("K4ev") == k_triangle(3)
    # the complement of K_2 + claw keeps its labelling: K_2 on 0-1, the
    # claw's centre at 2
    assert build_named("coK2claw") == graph_from_edges(6, [
        (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
        (3, 4), (3, 5), (4, 5)])


def _embeds_brute_force(G, pattern):
    """Try every injective map of pattern vertices into G."""
    for image in itertools.permutations(range(G.n), pattern.n):
        if all(image[b] in G.adj[image[a]] for a, b in pattern.edges()):
            return True
    return False


def _isomorphic_brute_force(G, H):
    """Try every bijection of G's vertices onto H's."""
    edges = set(H.edges())
    return G.n == H.n and any(
        {tuple(sorted((perm[u], perm[v]))) for u, v in G.edges()} == edges
        for perm in itertools.permutations(range(H.n)))


def _degree_preserving_swap(G, rng):
    """G with edges ab and cd replaced by ad and cb, when such a swap
    exists; the degree sequence stays the same."""
    edges = G.edges()
    rng.shuffle(edges)
    for (a, b), (c, d) in itertools.combinations(edges, 2):
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) == 4 and d not in G.adj[a] and b not in G.adj[c]:
            kept = [e for e in edges if e not in ((a, b), (c, d), (d, c))]
            return graph_from_edges(G.n, kept + [(a, d), (c, b)])
    return G


def test_pattern_detection_matches_brute_force():
    patterns = [complete(2), path(3), cycle(3), path(4), cycle(4),
                build_named("claw"), build_named("diamond"), complete(4),
                graph_from_edges(3, [(0, 1)]),            # K2 + K1
                graph_from_edges(4, [(0, 1), (2, 3)]),    # 2K2
                graph_from_edges(4, [(0, 1), (1, 2)])]    # P3 + K1
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 7)
        p = rng.random()
        G = graph_from_edges(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                 if rng.random() < p])
        for pattern in patterns:
            assert contains_subgraph(G, pattern) == \
                _embeds_brute_force(G, pattern), (G.adj, pattern)
    # is_isomorphic against every bijection, on pairs with equal degree
    # sequences, so that its search runs: a relabelling or a swap of two
    # edges' ends
    answers = []
    for _ in range(80):
        n = rng.randint(4, 7)
        G = random_connected_graph(rng, n, p=rng.uniform(0.3, 0.7))
        perm = list(range(n))
        rng.shuffle(perm)
        H = graph_from_edges(n, [(perm[u], perm[v]) for u, v in G.edges()])
        if rng.random() < 0.5:
            H = _degree_preserving_swap(H, rng)
        expected = _isomorphic_brute_force(G, H)
        assert is_isomorphic(G, H) == expected, (G.edges(), H.edges())
        answers.append(expected)
    assert True in answers and False in answers


def test_pattern_search_leaves_no_garbage_cycles():
    # the benchmark's peak RSS follows how often the collector runs, so the
    # small-graph call paths must not leave reference cycles behind
    G, H = build_named("petersen"), build_named("cube")
    K4, K33 = build_named("K4"), build_named("K33")
    pattern = cycle(8)
    text = emit_graph(G)
    calls = [
        lambda: contains_subgraph(G, pattern),
        lambda: not contains_subgraph(H, k_triangle(3)),
        lambda: is_isomorphic(G, build_named("petersen")),
        lambda: not is_isomorphic(H, build_named("wagner")),
        lambda: parse_graph(text) == G,
        lambda: cartesian_product(K4, K33).n == 24,
        lambda: closed_form(path(30)).rule == "tree",
        lambda: closed_form(G).rule == "cubic",
        lambda: closed_form(cartesian_product(K4, K33)).rule == "prodcub",
        lambda: partition_quality(G, Bipartition.from_side1(10, range(5))).quality,
        lambda: verify_equivalence(cover_plus_matching(K33)),
    ]
    gc.disable()
    try:
        gc.collect()
        for i, call in enumerate(calls):
            assert call(), i
            assert gc.collect() == 0, i
    finally:
        gc.enable()


def test_isomorphism_negative():
    assert not is_isomorphic(build_named("prism"), complete_bipartite(3, 3))
    assert not is_isomorphic(cycle(6), cycle(5))


def test_pattern_search_is_not_bounded_by_recursion_limit():
    # the embedding runs on an explicit stack and the pattern order takes
    # O(m log n), so patterns past the recursion limit answer at once
    labels = list(range(1100))
    random.Random(11).shuffle(labels)
    relabelled = graph_from_edges(
        1100, [(labels[u], labels[v]) for u, v in cycle(1100).edges()])
    for call in (lambda: is_isomorphic(cycle(1100), relabelled),
                 lambda: contains_subgraph(cycle(1200), path(1100))):
        started = time.perf_counter()
        assert call()
        assert time.perf_counter() - started < 2


def test_parse_emit_round_trip():
    text = "c a comment\np 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"
    G = parse_graph(text)
    assert is_isomorphic(G, cycle(4))
    canonical = emit_graph(G)
    assert emit_graph(parse_graph(canonical)) == canonical


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphParseError) as exc:
        parse_graph("p 3 1\ne 1 9\n")
    assert exc.value.line == 2
    with pytest.raises(GraphParseError):
        parse_graph("p 3 2\ne 1 2\n")  # declared m mismatch


@pytest.mark.parametrize("text, line, message", [
    ("p 3 0\np 3 0\n", 2, "duplicate p line"),
    ("c first\ne 1 2\np 3 1\n", 2, "e line before p line"),
    ("p 3\n", 1, "p line must be 'p <n> <m>'"),
    ("p 3 1 7\n", 1, "p line must be 'p <n> <m>'"),
    ("p 3 1\ne 1\n", 2, "e line must be 'e <u> <v>'"),
    ("p 3 1\ne 1 2 3\n", 2, "e line must be 'e <u> <v>'"),
    ("p three 1\n", 1, "p line has non-integer fields"),
    ("p 3 1.0\n", 1, "p line has non-integer fields"),
    ("p 3 1\ne 1 b\n", 2, "e line has non-integer endpoints"),
    ("p 3 1\n\ne 1 4\n", 3, "endpoint out of range 1..3"),
    ("p 3 1\ne 0 2\n", 2, "endpoint out of range 1..3"),
    ("p 3 1\ne 2 2\n", 2, "self-loop"),
    ("p 3 0\nx 1 2\n", 2, "unknown line type 'x'"),
    ("p 3 1\ne 1 2\nE 2 3\n", 3, "unknown line type 'E'"),
    ("", None, "missing p line"),
    ("c only a comment\n\n", None, "missing p line"),
    ("p 3 2\ne 1 2\n", None, "p line declares 2 edges but 1 given"),
    ("p 3 2\ne 1 2\ne 2 1\n", None, "p line declares 2 edges but 1 given"),
    ("p 3 0\ne 1 2\n", None, "p line declares 0 edges but 1 given"),
])
def test_parse_error_table(text, line, message):
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text)
    assert exc.value.line == line
    expected = message if line is None else f"line {line}: {message}"
    assert str(exc.value) == expected


@pytest.mark.parametrize("text", [
    "p 4 3\ne 1 2\ne 2 3\ne 3 4\n",
    "c a comment\n\np 4 3\n  c indented comment\ne 1 2\n\ne 2 3\ncomment\ne 3 4",
    "p 4 3\ne 2 1\ne 3 2\ne 4 3\n",
    "p 4 3\ne 1 2\ne 2 1\ne 1 2\ne 3 2\ne 2 3\n\t e 3 4 \n",
])
def test_parse_accepts_comments_blanks_and_repeated_edges(text):
    G = parse_graph(text, name="P4")
    assert G == path(4) and G.name == "P4" and G.num_edges == 3


def test_parse_refuses_graphs_below_two_vertices():
    with pytest.raises(ParameterError):
        parse_graph("p 1 0\n")



def test_complement_involution():
    G = build_named("petersen")
    assert is_isomorphic(complement(complement(G)), G)
