"""Exact ratio arithmetic, bipartitions, and cut predicates."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degratio.catalog import (base_catalog, cubic_catalog, product_pairs,
                              random_connected_graph)
from degratio.errors import CertificateError, ParameterError, PreconditionError
from degratio import build_named, complete, cycle, path
from degratio.graph import graph_from_edges
from degratio.ratios import (Bipartition, certify, crossing_edges, format_ratio,
                             is_matching, parse_ratio, partition_quality,
                             top_edge, vertex_ratio)


def test_ratio_round_trip():
    assert parse_ratio("3/7") == Fraction(3, 7)
    assert parse_ratio("1") == Fraction(1)
    assert format_ratio(Fraction(6, 14)) == "3/7"
    with pytest.raises(ParameterError):
        parse_ratio("1/0")
    with pytest.raises(ParameterError):
        parse_ratio("three sevenths")


def test_bipartition_invariants():
    with pytest.raises(ParameterError):
        Bipartition((1, 1, 1))
    with pytest.raises(ParameterError):
        Bipartition((1, 3))
    P = Bipartition.from_string("1212")
    assert P.side(1) == frozenset({0, 2})
    assert P.flipped().side(2) == frozenset({0, 2})
    assert Bipartition.from_string(P.to_string()) == P


def test_bipartition_stores_its_sides_as_a_tuple():
    # a list used to be kept as given: unequal to the tuple form, and unhashable
    P = Bipartition([1, 2, 1])
    assert P.sides == (1, 2, 1) and type(P.sides) is tuple
    assert P == Bipartition((1, 2, 1))
    assert hash(P) == hash(Bipartition((1, 2, 1)))


def test_certify_refuses_an_unknown_relation():
    # "<" used to raise a bare KeyError
    G, P = cycle(4), Bipartition.from_string("1122")
    assert certify(G, P, Fraction(2, 3), "==") == Fraction(2, 3)
    assert certify(G, P, Fraction(1, 2), ">") == Fraction(2, 3)
    with pytest.raises(CertificateError):
        certify(G, P, Fraction(2, 3), ">")
    for relation in ("<", "=", "<=", ""):
        with pytest.raises(ParameterError):
            certify(G, P, Fraction(1, 2), relation)


def test_vertex_ratio_examples():
    G = cycle(3)
    P = Bipartition.from_string("112")
    assert vertex_ratio(G, P, 0) == Fraction(2, 3)
    assert vertex_ratio(G, P, 2) == Fraction(1, 3)
    rep = partition_quality(G, P)
    assert rep.quality == Fraction(1, 3) and rep.witness_vertex == 2


def test_vertex_ratio_refuses_vertices_out_of_range():
    # -1 used to read vertex n - 1, and n a bare IndexError
    G, P = cycle(3), Bipartition.from_string("112")
    for v in (-1, 3, 10):
        with pytest.raises(ParameterError):
            vertex_ratio(G, P, v)


def test_from_side1_refuses_labels_out_of_range():
    # a label past n used to be dropped silently
    for side1 in ([0, 5], [-1, 0], [0, 3]):
        with pytest.raises(ParameterError):
            Bipartition.from_side1(3, side1)
    assert Bipartition.from_side1(3, [0, 2]).sides == (1, 2, 1)


def test_quality_witness_is_smallest_label():
    G = complete(4)
    rep = partition_quality(G, Bipartition.from_string("1122"))
    assert rep.quality == Fraction(1, 2)
    assert rep.witness_vertex == 0


def test_crossing_and_matching():
    G = cycle(4)
    P = Bipartition.from_string("1122")
    cross = crossing_edges(G, P)
    assert sorted(cross) == [(0, 3), (1, 2)]
    assert is_matching(G, cross)
    assert not is_matching(complete(3), [(0, 1), (1, 2)])
    with pytest.raises(ParameterError):
        is_matching(path(3), [(0, 2)])
    # a label outside 0..n-1 is refused, not read as another vertex
    for edge in [(-1, 0), (6, 0)]:
        with pytest.raises(ParameterError, match="outside"):
            is_matching(cycle(6), [edge])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_flip_preserves_quality(seed, data):
    rng = random.Random(seed)
    G = random_connected_graph(rng, rng.randint(3, 8))
    mask = data.draw(st.integers(1, (1 << G.n) - 2))
    P = Bipartition.from_side1(G.n, [v for v in range(G.n) if mask >> v & 1])
    assert partition_quality(G, P).quality == \
        partition_quality(G, P.flipped()).quality


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_vertex_ratios_sum_to_both_sides(seed):
    # every vertex ratio lies in (0, 1] and equals the closed-neighborhood
    # fraction computed by direct counting with cross-multiplication
    rng = random.Random(seed)
    G = random_connected_graph(rng, rng.randint(3, 8))
    mask = rng.randint(1, (1 << G.n) - 2)
    P = Bipartition.from_side1(G.n, [v for v in range(G.n) if mask >> v & 1])
    for v in range(G.n):
        r = vertex_ratio(G, P, v)
        kept = 1 + sum(1 for u in G.adj[v] if P.sides[u] == P.sides[v])
        assert 0 < r <= 1
        assert r.numerator * (len(G.adj[v]) + 1) == kept * r.denominator


def test_crossing_edges_partition_monotone():
    # moving a vertex across can only change ratios of its closed neighborhood
    G = build_named("petersen")
    P = Bipartition.from_string("1111122222")
    base = partition_quality(G, P).per_vertex
    sides = list(P.sides)
    sides[0] = 2
    Q = Bipartition(tuple(sides))
    after = partition_quality(G, Q).per_vertex
    for v in range(G.n):
        if v != 0 and v not in G.adj[0]:
            assert base[v] == after[v]


def _top_edge_reference(G):
    """The first edge of ``G.edges()`` with the largest min(d[u], d[v])."""
    best, top = None, 0
    for u, v in G.edges():
        t = min(G.closed_degree(u), G.closed_degree(v))
        if t > top:
            best, top = (u, v), t
    return best, top


def test_top_edge_matches_the_sorted_edge_reference():
    # top_edge walks the adjacency sets unsorted; the witnesses of tree_q and
    # product_kreg_tree_q split at its edge, so the tie rule must not change
    rng = random.Random(9)
    graphs = list(base_catalog()) + list(cubic_catalog())
    graphs += [P for _, _, P in product_pairs(max_product=36)]
    for _ in range(300):
        n = rng.randint(2, 16)
        p = rng.choice((0.1, 0.2, 0.4, 0.8))
        graphs.append(graph_from_edges(n, [(u, v) for u in range(n)
                                           for v in range(u + 1, n) if rng.random() < p]))
    checked = 0
    for G in graphs:
        if G.num_edges:
            assert top_edge(G) == _top_edge_reference(G), G.adj
            checked += 1
        else:
            with pytest.raises(PreconditionError):
                top_edge(G)
    assert checked > 250
