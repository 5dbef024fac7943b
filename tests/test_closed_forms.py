"""Closed-form values, class bounds, and characterizations against the
exact solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_q
from degratio.catalog import (base_catalog, cubic_catalog, product_pairs,
                              random_connected_graph)
from degratio import formulas
from degratio.errors import (BudgetExceededError, CertificateError,
                             NoApplicableRule, ParameterError,
                             PreconditionError)
from degratio.formulas import (characterize_third, characterize_two_fifths,
                               class_lower_bound, clique_q, closed_form,
                               cubic_q, edge_upper_bound, four_regular_q,
                               ktriangle_q, product_cubic_q,
                               product_kreg_tree_q, tree_q, two_fifths_family)
from degratio import (build_named, complete, complete_bipartite, cycle,
                      is_isomorphic, k_triangle, named, path)
from degratio import graph as graph_module
from degratio.graph import (cartesian_product, graph_from_edges, is_tree,
                            regularity)
from degratio.named import contains_subgraph
from degratio.ratios import Bipartition, certify, partition_quality, top_edge
from degratio.solver import find_matching_cut, solve_q


def _check_verdict(G, verdict, expected):
    assert verdict.value == expected
    if verdict.witness is not None:
        assert partition_quality(G, verdict.witness).quality == expected


def test_tree_formula_matches_solver():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 9)
        edges = [(v, rng.randint(0, v - 1)) for v in range(1, n)]
        T = graph_from_edges(n, edges)
        v = tree_q(T)
        _check_verdict(T, v, naive_q(T)[0])


def test_tree_formula_rejects_cycles():
    with pytest.raises(PreconditionError):
        tree_q(cycle(4))


def test_ktriangle_values():
    for k in range(1, 7):
        T = k_triangle(k)
        v = ktriangle_q(k)
        assert v.value == Fraction(k // 2 + 1, k + 2)
        _check_verdict(T, v, naive_q(T)[0])


def test_ktriangle_witness_on_relabelled_graphs():
    rng = random.Random(7)
    for k in range(1, 9):
        T = k_triangle(k)
        for _ in range(8):
            perm = list(range(T.n))
            rng.shuffle(perm)
            G = graph_from_edges(T.n, [(perm[u], perm[v]) for u, v in T.edges()])
            v = closed_form(G)
            assert partition_quality(G, v.witness).quality == v.value, (k, perm)


def test_clique_values():
    for n in range(2, 10):
        v = clique_q(n)
        p = n // 2
        assert v.value == (Fraction(1, 2) if n % 2 == 0 else Fraction(p, n))
        _check_verdict(complete(n), v, naive_q(complete(n))[0])


def test_cubic_dichotomy():
    from degratio.catalog import cubic_catalog
    for G in cubic_catalog():
        expected = solve_q(G).q
        _check_verdict(G, cubic_q(G), expected)
    assert cubic_q(complete(4)).value == Fraction(1, 2)
    assert cubic_q(complete_bipartite(3, 3)).value == Fraction(1, 2)


def test_cubic_k4_and_k33_need_no_search(monkeypatch):
    # K4 and K33 take the edge witness, under any labelling, and no solver
    # search runs
    from degratio import solver
    searches = []
    search = solver._search
    monkeypatch.setattr(solver, "_search",
                        lambda *args: searches.append(args) or search(*args))
    rng = random.Random(3)
    for base in (complete(4), complete_bipartite(3, 3)):
        for _ in range(200):
            perm = list(range(base.n))
            rng.shuffle(perm)
            G = graph_from_edges(base.n, [(perm[u], perm[v]) for u, v in base.edges()])
            for verdict in (cubic_q(G), closed_form(G)):
                assert verdict.value == Fraction(1, 2)
                certify(G, verdict.witness, Fraction(1, 2), "==")
    assert searches == []


def test_four_regular_trichotomy():
    cases = [
        (complete(5), Fraction(2, 5)),
        (cartesian_product(complete(4), complete(2)), Fraction(4, 5)),
        (complete_bipartite(4, 4), Fraction(3, 5)),
    ]
    for G, expected in cases:
        v = four_regular_q(G)
        _check_verdict(G, v, expected)
        assert solve_q(G).q == expected


def test_four_regular_q_searches_share_one_budget():
    # C11(1, 2) has no matching-cut, so four_regular_q searches for one and
    # then solves: both searches draw on the one budget, and exhaustion
    # counts the work of both
    G = graph_from_edges(11, [(i, (i + d) % 11) for i in range(11) for d in (1, 2)])
    total = find_matching_cut(G).explored + solve_q(G).explored
    for fn in (four_regular_q, closed_form):
        with pytest.raises(BudgetExceededError) as info:
            fn(G, budget=total - 1)
        assert info.value.explored == total
        assert fn(G, budget=total).value == Fraction(3, 5)


def test_product_cubic_values():
    K4, K33 = complete(4), complete_bipartite(3, 3)
    prism = build_named("prism")
    assert product_cubic_q(K4, K4).value == Fraction(5, 7)
    assert product_cubic_q(K4, K33).value == Fraction(5, 7)
    assert product_cubic_q(K33, K33).value == Fraction(5, 7)
    assert product_cubic_q(prism, K4).value == Fraction(6, 7)


def test_product_kreg_tree_matches_solver():
    for G, H in [(cycle(3), path(2)), (complete(4), path(3)),
                 (cycle(4), path(4)), (complete(2), path(5))]:
        v = product_kreg_tree_q(G, H)
        P = cartesian_product(G, H)
        if P.n <= 16:
            assert solve_q(P).q == v.value, (G.name, H.name)
        assert partition_quality(P, v.witness).quality == v.value


def test_edge_upper_bound_is_upper_bound(catalog):
    for G in catalog:
        if G.n <= 8:
            assert naive_q(G)[0] <= edge_upper_bound(G) < 1


def _per_edge_bound(G):
    """The edge upper bound as its definition reads: the largest, over the
    edges uv, of min(d(u)/d[u], d(v)/d[v])."""
    return max(min(Fraction(G.degree(u), G.closed_degree(u)),
                   Fraction(G.degree(v), G.closed_degree(v)))
               for u, v in G.edges())


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 12), data=st.data())
def test_edge_upper_bound_matches_per_edge_fractions(n, data):
    # a random spanning tree, relabelled, plus random chords
    label = data.draw(st.permutations(range(n)))
    edges = [(label[v], label[data.draw(st.integers(0, v - 1))])
             for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges += data.draw(st.lists(st.sampled_from(pairs), unique=True))
    G = graph_from_edges(n, edges)
    assert edge_upper_bound(G) == _per_edge_bound(G)
    # the edge the tree and product rules split at: the first maximizing one
    first = max(G.edges(), key=lambda e: min(G.degree(x) for x in e))
    assert top_edge(G) == (first, min(G.closed_degree(x) for x in first))
    if G.num_edges == n - 1:
        _check_verdict(G, tree_q(G), _per_edge_bound(G))


def test_closed_form_certifies_the_rule(monkeypatch):
    # a rule whose witness misses its value is refused
    monkeypatch.setattr(formulas, "tree_q", lambda T: formulas.FormulaVerdict(
        Fraction(3, 4), "tree", Bipartition.from_side1(T.n, {0})))
    with pytest.raises(CertificateError):
        closed_form(path(5))


def test_class_lower_bound_values():
    assert class_lower_bound(complete(5)).value == Fraction(2, 5)
    assert class_lower_bound(complete(7)).value == Fraction(3, 7)
    lb = class_lower_bound(cycle(5))
    assert lb.value == Fraction(1, 2) and "lowboundC3" in lb.rules
    lb = class_lower_bound(build_named("petersen"))
    assert lb.value == Fraction(1, 2) and lb.strict
    lb = class_lower_bound(cartesian_product(complete(4), complete(4)))
    assert lb.value == Fraction(1, 2) and lb.strict and "prodmax" in lb.rules


def test_lowbound_rule_reads_the_smallest_even_degree():
    # p/(2p+1) for the smallest even degree 2p, 1/2 when every degree is
    # odd; each graph here contains a K4-e+v, so only this rule applies
    from degratio.construct import lower_bound_witness
    K5_and_a_vertex = graph_from_edges(6, complete(5).edges())
    for G, value in [(complete(6), Fraction(1, 2)), (complete(8), Fraction(1, 2)),
                     (complete(7), Fraction(3, 7)), (K5_and_a_vertex, Fraction(0))]:
        lb = class_lower_bound(G)
        assert (lb.value, lb.strict, lb.rules) == (value, False, ("lowbound",)), G
        if value:
            w = lower_bound_witness(G)
            assert (w.value, w.rule) == (value, "lowbound"), G


def _pattern_search_classes(G):
    """The theorem classes by seven subgraph searches, as decided before the
    common-neighbour counts: the reference for ``_theorem_classes``."""
    k4ev_free = (not contains_subgraph(G, k_triangle(3))
                 and not is_isomorphic(G, cycle(3)))
    sparse_free = (
        not (contains_subgraph(G, cycle(4)) or contains_subgraph(G, complete(4))
             or contains_subgraph(G, build_named("diamond")))
        or not (contains_subgraph(G, cycle(3)) or contains_subgraph(G, cycle(8))
                or contains_subgraph(G, complete_bipartite(2, 3)))
    )
    return {"k4ev_free": k4ev_free, "sparse_free": sparse_free}


def _class_test_graphs():
    rng = random.Random(9)
    for _ in range(400):
        n = rng.randint(2, 11)
        p = rng.choice((.15, .3, .5, .8))
        if rng.random() < .3:
            # bipartite draws: C4s without triangles reach the C8 search
            yield graph_from_edges(n, [(u, v) for u in range(n)
                                       for v in range(u + 1, n)
                                       if (u + v) % 2 and rng.random() < p])
        else:  # some of these are disconnected
            yield graph_from_edges(n, [(u, v) for u in range(n)
                                       for v in range(u + 1, n)
                                       if rng.random() < p])
    yield from base_catalog()
    yield from cubic_catalog()
    for _, _, P in product_pairs():
        yield P


def test_theorem_classes_match_pattern_search():
    seen = set()
    for G in _class_test_graphs():
        classes = formulas._theorem_classes(G)
        assert classes == _pattern_search_classes(G), (G, G.edges())
        seen.add(tuple(classes.values()))
    assert len(seen) == 4  # every combination of the two flags occurs


def test_class_lower_bound_sound(catalog):
    for G in catalog:
        if G.n > 8:
            continue
        q = naive_q(G)[0]
        lb = class_lower_bound(G)
        assert (lb.value < q) if lb.strict else (lb.value <= q), G.name


def test_characterizations():
    assert characterize_third(cycle(3))
    assert characterize_third(k_triangle(1))
    assert not characterize_third(cycle(4))
    for F in two_fifths_family():
        assert characterize_two_fifths(F)
        assert solve_q(F).q == Fraction(2, 5)
    assert not characterize_two_fifths(build_named("petersen"))
    with pytest.raises(PreconditionError):
        characterize_two_fifths(complete(8))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_two_fifths_floor_on_samples(seed):
    # every connected graph except the triangle satisfies q >= 2/5; with
    # max degree <= 6 the value 2/5 pins the four known graphs exactly
    rng = random.Random(seed)
    G = random_connected_graph(rng, rng.randint(3, 8), p=rng.uniform(0.3, 0.9))
    q = naive_q(G)[0]
    if is_isomorphic(G, cycle(3)):
        assert q == Fraction(1, 3)
        return
    assert q >= Fraction(2, 5)
    if G.max_degree <= 6:
        members = any(is_isomorphic(G, F) for F in two_fifths_family())
        assert (q == Fraction(2, 5)) == members
        if not members:
            assert q >= Fraction(3, 7)


def test_closed_form_dispatcher():
    assert closed_form(complete(6)).rule == "clique"
    assert closed_form(k_triangle(4)).rule == "ktriangle"
    assert closed_form(path(5)).rule == "tree"
    assert closed_form(build_named("petersen")).rule == "cubic"
    assert closed_form(complete_bipartite(4, 4)).rule == "4reg"
    assert closed_form(build_named("prod:K4,K33")).rule == "prodcub"
    assert closed_form(build_named("prod:K4,P3")).rule == "prodkregtree"
    with pytest.raises(NoApplicableRule):
        closed_form(cycle(5))


def _reference_rule(G):
    """The closed-form rule for a connected G, recognized by isomorphism
    tests as the dispatcher once did, and whether G (or, for ``prodcub``,
    each factor) is the rule's special case: K4 or K33 for the cubic rules,
    K5 for ``4reg``.  None when no rule applies."""
    k4_or_k33 = lambda F: (is_isomorphic(F, complete(4))
                           or is_isomorphic(F, complete_bipartite(3, 3)))
    if is_isomorphic(G, complete(G.n)):
        return "clique", False
    if G.n >= 3 and is_isomorphic(G, k_triangle(G.n - 2)):
        return "ktriangle", False
    if is_tree(G):
        return "tree", False
    if G.factors is not None:
        Gf, Hf = G.factors
        if regularity(Gf) == 3 and regularity(Hf) == 3:
            return "prodcub", k4_or_k33(Gf) and k4_or_k33(Hf)
        if (regularity(Gf) is not None and is_tree(Hf)
                or regularity(Hf) is not None and is_tree(Gf)):
            return "prodkregtree", False
    if regularity(G) == 3:
        return "cubic", k4_or_k33(G)
    if regularity(G) == 4:
        return "4reg", is_isomorphic(G, complete(5))
    return None


# the value of each rule's special case
_SPECIAL_VALUE = {"prodcub": Fraction(5, 7), "cubic": Fraction(1, 2),
                  "4reg": Fraction(2, 5)}


def _recognition_graphs():
    yield from base_catalog()
    yield from cubic_catalog()
    for _, _, P in product_pairs():
        yield P
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(2, 8)
        G = random_connected_graph(rng, n, p=rng.choice((0.25, 0.5, 0.8, 1.0)))
        perm = list(range(n))
        rng.shuffle(perm)
        yield graph_from_edges(n, [(perm[u], perm[v]) for u, v in G.edges()])


def test_recognition_matches_isomorphism_reference():
    seen = set()
    for G in _recognition_graphs():
        expected = _reference_rule(G)
        try:
            verdict = closed_form(G)
        except NoApplicableRule:
            assert expected is None, (G, G.edges())
            continue
        rule, special = expected
        assert verdict.rule == rule, (G, G.edges())
        if rule in _SPECIAL_VALUE:
            assert (verdict.value == _SPECIAL_VALUE[rule]) == special, (G, G.edges())
        seen.add((rule, special))
    # every rule occurs, and every special case that closed_form reaches: it
    # sends K4 and K5 to the clique rule
    assert len(seen) == 9, seen


def test_recognition_builds_no_graph(monkeypatch):
    K4, K5, K33 = complete(4), complete(5), complete_bipartite(3, 3)
    cases = [
        (path(2000), Fraction(2, 3), "tree"),
        (complete(9), Fraction(4, 9), "clique"),
        (graph_from_edges(7, [(6 - u, 6 - v) for u, v in k_triangle(5).edges()]),
         Fraction(3, 7), "ktriangle"),
        (K33, Fraction(1, 2), "cubic"),
        (build_named("prism"), Fraction(3, 4), "cubic"),
        (build_named("K44"), Fraction(3, 5), "4reg"),
        (cartesian_product(K4, K33), Fraction(5, 7), "prodcub"),
        (build_named("prod:prism,K4"), Fraction(6, 7), "prodcub"),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("closed_form built a graph to recognize its input")

    for name in ("complete", "k_triangle", "complete_bipartite", "is_isomorphic"):
        monkeypatch.setattr(named, name, refuse)
        monkeypatch.setattr(formulas, name, refuse, raising=False)
    for G, value, rule in cases:
        verdict = closed_form(G)
        assert (verdict.value, verdict.rule) == (value, rule), G
    # closed_form sends K4 and K5 to the clique rule; the class rules
    # recognize them too
    assert cubic_q(K4).value == Fraction(1, 2)
    assert four_regular_q(K5).value == Fraction(2, 5)


def test_product_closed_forms_read_the_given_product(monkeypatch):
    # closed_form reads a product's factors and builds no second copy of it,
    # also when the tree is the left factor
    graphs = [build_named(f"prod:{name}") for name in ("K4,K4", "K4,P3", "P3,K4", "K2,K3")]
    built = []
    product = graph_module.cartesian_product
    spy = lambda G, H: built.append((G, H)) or product(G, H)
    monkeypatch.setattr(graph_module, "cartesian_product", spy)
    monkeypatch.setattr(formulas, "cartesian_product", spy)
    rules = []
    for P in graphs:
        verdict = closed_form(P)
        assert verdict.value == solve_q(P).q, P
        rules.append(verdict.rule)
    assert built == []
    assert rules == ["prodcub", "prodkregtree", "prodkregtree", "prodkregtree"]


def test_parameter_validation():
    with pytest.raises(ParameterError):
        clique_q(1)
    with pytest.raises(ParameterError):
        ktriangle_q(0)
