"""Degree-constrained partitions and good pairs."""

import logging
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import witness_set
from degratio.catalog import base_catalog, random_connected_graph
from degratio.construct import (DegreeDemands, GoodPair,
                                degree_constrained_partition,
                                demands_satisfied, extend_good_pair,
                                find_good_pair, hou_demands, is_good_pair,
                                lower_bound_witness, ma_demands,
                                stiebitz_demands)
from degratio import construct
from degratio.errors import (BudgetExceededError, CertificateError,
                             ParameterError, PreconditionError)
from degratio.formulas import two_fifths_family
from degratio import build_named, complete, cycle, is_isomorphic
from degratio.graph import (components, cut_vertices, graph_from_edges,
                            is_connected, low_link)
from degratio.ratios import Bipartition, partition_quality


def test_demand_regime_validation():
    G = complete(5)
    stiebitz_demands(G).validate(G)
    with pytest.raises(PreconditionError):
        # hou needs a K4-e+v-subgraph-free graph; K5 is not
        hou_demands(G).validate(G)
    with pytest.raises(PreconditionError):
        ma_demands(G).validate(G)
    C8 = cycle(8)
    with pytest.raises(PreconditionError):
        # C8 blocks one ma branch and C4-subgraph-freeness holds, but the
        # degree-2 vertices cannot carry demands of 2 on both sides
        DegreeDemands((2,) * 8, "ma").validate(C8)


def test_hou_applies_to_triangle_free():
    G = build_named("petersen")
    demands = hou_demands(G)
    demands.validate(G)
    P = degree_constrained_partition(G, demands)
    assert demands_satisfied(G, demands, P)


def test_ma_applies_to_petersen():
    G = build_named("petersen")  # (C4,K4,diamond)-subgraph-free
    demands = ma_demands(G)
    P = degree_constrained_partition(G, demands)
    assert demands_satisfied(G, demands, P)
    # the resulting quality is strictly above 1/2
    assert partition_quality(G, P).quality > Fraction(1, 2)


def test_stiebitz_partition_on_dense_graphs():
    for n in (5, 6, 7, 8):
        G = complete(n)
        demands = stiebitz_demands(G)
        P = degree_constrained_partition(G, demands)
        assert demands_satisfied(G, demands, P)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_degree_constrained_partition_random(seed):
    rng = random.Random(seed)
    G = random_connected_graph(rng, rng.randint(4, 10), p=rng.uniform(0.4, 0.9))
    demands = stiebitz_demands(G)
    P = degree_constrained_partition(G, demands)
    assert demands_satisfied(G, demands, P)


def test_lower_bound_witness_on_catalog():
    for G in base_catalog():
        if G.n > 12:
            continue
        w = lower_bound_witness(G)
        assert w.quality >= w.value, G.name
        if w.strict:
            assert w.quality > w.value, G.name
        assert partition_quality(G, w.partition).quality == w.quality


def _meets_bound(G, w):
    assert partition_quality(G, w.partition).quality == w.quality
    return w.quality > w.value if w.strict else w.quality >= w.value


def test_lower_bound_witness_beyond_22_vertices():
    graphs = list(witness_set())
    graphs.append(random_connected_graph(random.Random(7), 30, 0.7))
    for G in graphs:
        assert _meets_bound(G, lower_bound_witness(G, budget=1 << 20)), G


def test_lower_bound_witness_honours_the_budget():
    # the local search stalls from the alternating start on this dense
    # 60-vertex graph, and the partition search then needs 116 assignments
    G = witness_set()[97]
    budget = 16
    try:
        w = lower_bound_witness(G, budget=budget)
    except BudgetExceededError as exc:
        assert exc.explored > budget
    else:
        assert _meets_bound(G, w)


def test_good_pair_invariant_checker():
    G = complete(6)
    good = GoodPair(frozenset({0, 1, 2}), frozenset({3, 4, 5}),
                    Fraction(3, 7))
    assert is_good_pair(G, good)
    bad = GoodPair(frozenset({0}), frozenset({3, 4, 5}), Fraction(3, 7))
    assert not is_good_pair(G, bad)


def _good_pair_scope(G):
    if not is_connected(G) or G.max_degree > 6:
        return False
    if cut_vertices(G):
        return False
    excluded = two_fifths_family() + (cycle(3),)
    if any(is_isomorphic(G, F) for F in excluded):
        return False
    # the construction starts from a triangle
    return any(G.adj[u] & G.adj[v] for u in range(G.n) for v in G.adj[u])


def test_good_pair_catalog_no_fallback():
    covered = 0
    for G in base_catalog():
        if not _good_pair_scope(G):
            continue
        gp = find_good_pair(G)
        assert gp.case != "fallback", G.name
        assert is_good_pair(G, gp)
        P = extend_good_pair(G, gp)
        assert partition_quality(G, P).quality >= Fraction(3, 7), G.name
        covered += 1
    assert covered >= 5


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_good_pair_random_graphs(seed):
    rng = random.Random(seed)
    G = random_connected_graph(rng, rng.randint(4, 9), p=rng.uniform(0.3, 0.8))
    if not _good_pair_scope(G):
        return
    gp = find_good_pair(G)
    P = extend_good_pair(G, gp)
    assert partition_quality(G, P).quality >= Fraction(3, 7)


def test_cycle_within_finds_a_cycle_unless_a_forest():
    rng = random.Random(5)
    answers = set()
    for _ in range(300):
        n = rng.randint(2, 12)
        G = random_connected_graph(rng, n, p=rng.uniform(0.1, 0.6))
        allowed = frozenset(v for v in range(n) if rng.random() < 0.7)
        sub = graph_from_edges(n, [(u, v) for u, v in G.edges()
                                   if u in allowed and v in allowed])
        comps = sum(1 for c in components(sub) if c <= allowed)
        forest = sub.num_edges == len(allowed) - comps
        cyc = construct._cycle(sub, low_link(sub))
        answers.add(cyc is None)
        if forest:
            assert cyc is None, (G.edges(), allowed)
            continue
        assert cyc is not None and len(cyc) == len(set(cyc)) >= 3
        assert set(cyc) <= allowed
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert b in G.adj[a], (G.edges(), allowed, cyc)
    assert answers == {True, False}


def test_good_pair_four_regular_variant():
    G = graph_from_edges(7, [(u, v) for u in range(7) for v in range(u + 1, 7)
                             if (v - u) % 7 in (1, 2, 5, 6)])  # circulant C7(1,2)
    gp = find_good_pair(G, threshold=Fraction(3, 5))
    assert is_good_pair(G, gp)
    P = extend_good_pair(G, gp)
    assert partition_quality(G, P).quality >= Fraction(3, 5)


def test_good_pair_preconditions():
    with pytest.raises(PreconditionError):
        find_good_pair(complete(5))  # excluded family member
    with pytest.raises(PreconditionError):
        find_good_pair(complete(8))  # max degree 7
    with pytest.raises(PreconditionError):
        find_good_pair(cycle(6))  # triangle-free
    with pytest.raises(ParameterError):
        find_good_pair(complete(6), threshold=Fraction(1, 2))


def test_three_fifths_good_pair_refuses_k5(caplog):
    # K5 is connected and 4-regular, but q(K5) = 2/5: it is refused before
    # the case analysis, not by a failed fallback certificate
    with caplog.at_level(logging.WARNING, logger="degratio.construct"):
        with pytest.raises(PreconditionError, match="K5"):
            find_good_pair(complete(5), threshold=Fraction(3, 5))
    assert not caplog.records


def test_extend_rejects_non_good_pair():
    G = complete(6)
    with pytest.raises(PreconditionError):
        extend_good_pair(G, GoodPair(frozenset({0}), frozenset({1}),
                                     Fraction(3, 7)))


@pytest.mark.parametrize("name, rule", [("petersen", "lowboundC4free"), ("K4", "lowboundC3")])
def test_lower_bound_witness_checks_the_classes_once(name, rule, monkeypatch):
    # the ma and hou regimes both need the theorem classes to choose the
    # regime; they are computed once
    calls = []
    classes = construct._theorem_classes
    monkeypatch.setattr(construct, "_theorem_classes", lambda G: calls.append(G) or classes(G))
    assert lower_bound_witness(build_named(name)).rule == rule
    assert len(calls) == 1


def test_lower_bound_witness_certifies_a_strict_bound(monkeypatch):
    # Petersen falls under the strict rule 1/2 < q; a witness of quality
    # exactly 1/2 does not prove it
    G = build_named("petersen")
    P = Bipartition.from_string("1122222222")
    assert partition_quality(G, P).quality == Fraction(1, 2)
    monkeypatch.setattr(construct, "_demand_partition", lambda G, demands, budget: P)
    with pytest.raises(CertificateError):
        lower_bound_witness(G)


def test_lower_bound_witness_picks_valid_demands(monkeypatch):
    # lower_bound_witness builds each regime's demands from the conditions
    # that chose the regime and does not validate them at run time; here
    # every demand vector it hands on passes validate
    picked = []
    search = construct._demand_partition
    monkeypatch.setattr(construct, "_demand_partition",
                        lambda G, demands, budget: picked.append((G, demands))
                        or search(G, demands, budget))
    graphs = [G for G in base_catalog() if is_connected(G)] + list(witness_set())
    for G in graphs:
        lower_bound_witness(G)
    assert [G for G, _ in picked] == graphs
    for G, demands in picked:
        demands.validate(G)
    assert {demands.regime for _, demands in picked} == {"stiebitz", "hou", "ma"}
