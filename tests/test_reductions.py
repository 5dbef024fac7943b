"""Gadget constructions: structural postconditions and the claims each
gadget proves."""

import functools
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import naive_matching_cut, naive_q
from degratio.catalog import random_connected_graph
from degratio.errors import (BudgetExceededError, ParameterError,
                             PreconditionError)
from degratio import (build_named, complete, complete_bipartite, cycle,
                      is_isomorphic, path)
from degratio.graph import (bipartition_classes, graph_from_edges,
                            is_connected, regularity)
from degratio.reductions import (bipartite_double_cover, cover_plus_matching,
                                 is_matching_cut_set, product_with_fixed,
                                 twin_expand_then_K2, verify_equivalence)
from degratio.solver import decide, find_matching_cut


def test_double_cover_structure():
    inst = bipartite_double_cover(complete(5))
    H = inst.graph
    assert H.n == 10 and H.num_edges == 2 * complete(5).num_edges
    assert regularity(H) == 4
    assert bipartition_classes(H) is not None
    assert inst.gadget_vertices_of(3) == (6, 7)


def test_double_cover_of_odd_cycle_is_double_length_cycle():
    inst = bipartite_double_cover(cycle(5))
    assert is_isomorphic(inst.graph, cycle(10))


def test_double_cover_refuses_a_bipartite_source():
    # the cover of a bipartite graph is two disjoint copies of it
    with pytest.raises(PreconditionError, match="bipartite"):
        bipartite_double_cover(build_named("cube"))


def test_cover_plus_matching_structure():
    inst = cover_plus_matching(complete_bipartite(3, 3))
    H = inst.graph
    assert H.n == 12 and regularity(H) == 4
    assert bipartition_classes(H) is not None
    # degree goes up by exactly one everywhere
    assert all(H.degree(2 * v) == complete_bipartite(3, 3).degree(v) + 1
               for v in range(6))


def test_cover_plus_matching_gadget_keeps_copy_swap_cut():
    # existence of a matching-cut is NOT preserved: the copy-swap cut
    # {v1 v2} always crosses; only mapped cuts are equivalent
    inst = cover_plus_matching(complete_bipartite(3, 3))
    assert not find_matching_cut(inst.source).has_cut
    assert find_matching_cut(inst.graph).has_cut


def test_twin_expand_structure():
    inst = twin_expand_then_K2(cycle(6))
    H = inst.graph
    assert H.n == 24
    assert inst.claim.threshold == Fraction(4, 5)
    # twins keep degree 2 in the product (one twin edge + one rung)
    twin_vertices = [2 * (6 + v) + side for v in range(6) for side in (0, 1)]
    assert all(H.degree(t) == 2 for t in twin_vertices)


def test_twin_expand_needs_a_bipartite_source():
    with pytest.raises(PreconditionError):
        twin_expand_then_K2(complete(4))


def test_product_with_fixed_preconditions():
    with pytest.raises(PreconditionError):
        product_with_fixed(cycle(6), cycle(4))  # C4 has a matching-cut
    inst = product_with_fixed(cycle(6), complete(3))
    assert inst.claim.threshold == Fraction(4, 5)
    inst = product_with_fixed(cycle(6), complete(4))
    assert inst.claim.threshold == Fraction(5, 6)


def test_is_matching_cut_set():
    G = cycle(6)
    assert is_matching_cut_set(G, [(0, 1), (3, 4)])
    assert not is_matching_cut_set(G, [(0, 1)])  # one edge cannot disconnect C6
    assert not is_matching_cut_set(G, [(0, 1), (1, 2)])  # shares a vertex
    assert not is_matching_cut_set(G, [])
    for edge in [(-1, 0), (6, 0)]:  # labels outside 0..5
        with pytest.raises(ParameterError):
            is_matching_cut_set(G, [edge, (2, 3)])


def _crossing_sets(G):
    """Every edge set that is the crossing set of a nontrivial partition
    whose crossing edges are pairwise disjoint, by enumerating partitions."""
    found = set()
    for mask in range(1, (1 << G.n) - 1):
        crossing = frozenset((u, v) for u, v in G.edges()
                             if (mask >> u & 1) != (mask >> v & 1))
        ends = [x for e in crossing for x in e]
        if crossing and len(ends) == len(set(ends)):
            found.add(crossing)
    return found


def test_is_matching_cut_set_matches_partition_enumeration():
    rng = random.Random(5)
    for _ in range(60):
        G = random_connected_graph(rng, rng.randint(2, 8), p=rng.uniform(0.2, 0.8))
        edges = G.edges()
        cuts = _crossing_sets(G)
        # every matching-cut, and random edge sets of every size
        samples = [sorted(c) for c in cuts]
        samples += [rng.sample(edges, rng.randint(0, len(edges))) for _ in range(30)]
        for cut in samples:
            assert is_matching_cut_set(G, cut) == (frozenset(cut) in cuts), \
                (G.edges(), cut)
            flipped = [(v, u) for u, v in cut]  # endpoint order is immaterial
            assert is_matching_cut_set(G, flipped) == (frozenset(cut) in cuts)


def _mapped_cut_by_all_subsets(inst):
    """The mapped_cut verdict over every nonempty edge set of the source."""
    edges = inst.source.edges()
    for r in range(1, len(edges) + 1):
        for cut in combinations(edges, r):
            image = [e for u, v in cut for e in ((2 * u, 2 * v + 1), (2 * v, 2 * u + 1))]
            if (is_matching_cut_set(inst.source, cut)
                    != is_matching_cut_set(inst.graph, image)):
                return False
    return True


@pytest.mark.parametrize("name", ["K33", "C4", "C6", "C8", "cube"])
def test_mapped_cut_over_matchings_matches_all_subsets(name):
    inst = cover_plus_matching(build_named(name))
    assert inst.claim.kind == "mapped_cut"
    assert verify_equivalence(inst) == _mapped_cut_by_all_subsets(inst)


def test_mapped_cut_budget_counts_matchings():
    inst = cover_plus_matching(build_named("K33"))  # K33 has 33 nonempty matchings
    assert verify_equivalence(inst, budget=33)
    with pytest.raises(BudgetExceededError):
        verify_equivalence(inst, budget=32)


def test_verify_equivalence_searches_share_one_budget():
    # the source search of K5 takes 7 assignments and the gadget search 19,
    # so a budget of 19 leaves the gadget search 12
    inst = bipartite_double_cover(build_named("K5"))
    assert find_matching_cut(inst.source).explored == 7
    with pytest.raises(BudgetExceededError) as exc:
        verify_equivalence(inst, budget=19)
    assert exc.value.explored == 20
    assert verify_equivalence(inst, budget=26)
    # cut_iff_q: 8 assignments on the source C6, 32 in decide on the gadget
    inst = twin_expand_then_K2(cycle(6))
    with pytest.raises(BudgetExceededError) as exc:
        verify_equivalence(inst, budget=39)
    assert exc.value.explored == 40
    assert verify_equivalence(inst, budget=40)


def test_verify_equivalence_instances():
    checks = [
        bipartite_double_cover(complete(5)),
        bipartite_double_cover(cycle(5)),
        cover_plus_matching(complete_bipartite(3, 3)),
        cover_plus_matching(cycle(6)),
        twin_expand_then_K2(complete(2)),
        twin_expand_then_K2(cycle(6)),
        product_with_fixed(cycle(6), complete(4)),
    ]
    for inst in checks:
        assert verify_equivalence(inst), inst.construction


def test_twin_expand_k2_small_case():
    inst = twin_expand_then_K2(complete(2))
    assert inst.graph.n == 8
    assert inst.claim.threshold == Fraction(3, 4)
    assert verify_equivalence(inst)


@functools.cache
def _small_sources(max_n=6):
    """Every labelled connected graph with 2 <= n <= max_n, one per edge
    set of K_n."""
    graphs = []
    for n in range(2, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            G = graph_from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            if is_connected(G):
                graphs.append(G)
    return tuple(graphs)


def test_every_claim_holds_on_every_small_source():
    builders = {
        "double_cover": bipartite_double_cover,
        "cover_plus_matching": cover_plus_matching,
        "twin_expand_K2": twin_expand_then_K2,
        "product_fixed_H": lambda G: product_with_fixed(G, complete(4)),
    }
    accepted = dict.fromkeys(builders, 0)
    for G in _small_sources():
        for name, build in builders.items():
            try:
                inst = build(G)
            except PreconditionError:
                continue
            accepted[name] += 1
            assert verify_equivalence(inst), (name, G.edges())
    # connected regular graphs: 91 not bipartite and 74 bipartite
    assert accepted == {"double_cover": 91, "cover_plus_matching": 74,
                        "twin_expand_K2": 3249, "product_fixed_H": 74}


def test_double_cover_claim_by_enumeration():
    covers = 0
    for G in _small_sources():
        try:
            inst = bipartite_double_cover(G)
        except PreconditionError:
            continue
        covers += 1
        assert naive_matching_cut(inst.graph) or not naive_matching_cut(G), G.edges()
    assert covers == 91


def test_twin_expansion_claim_by_enumeration():
    sources = [G for G in _small_sources(3) if bipartition_classes(G) is not None]
    assert len(sources) == 4  # K2 and the three labelled P3
    for G in sources:
        inst = twin_expand_then_K2(G)
        reaches = naive_q(inst.graph)[0] >= inst.claim.threshold
        source_cut = naive_matching_cut(G)
        assert source_cut or not reaches
        regular = regularity(G) is not None
        assert inst.claim.kind == ("cut_iff_q" if regular else "q_implies_cut")
        if regular:
            assert reaches == source_cut


# the 4-regular circulant C8(1, 2)
C8_12 = graph_from_edges(8, [(v, (v + s) % 8) for v in range(8) for s in (1, 2)])


@pytest.mark.parametrize("G", [complete(4), C8_12], ids=["K4", "C8(1,2)"])
def test_double_cover_converse_fails(G):
    # neither source has a matching-cut, but each cover has one
    inst = bipartite_double_cover(G)
    assert not find_matching_cut(G).has_cut
    assert find_matching_cut(inst.graph).has_cut
    assert inst.claim.kind == "cut_implies_cut" and verify_equivalence(inst)


@pytest.mark.parametrize("G", [build_named("claw"), path(3)], ids=["claw", "P3"])
def test_twin_expansion_converse_fails_on_irregular_sources(G):
    # the source has a matching-cut, but the gadget misses the threshold
    inst = twin_expand_then_K2(G)
    assert find_matching_cut(G).has_cut
    assert not decide(inst.graph, inst.claim.threshold)
    assert inst.claim.kind == "q_implies_cut" and verify_equivalence(inst)


def test_twin_expansion_claim_kind_follows_regularity():
    assert twin_expand_then_K2(complete_bipartite(4, 3)).claim.kind == "q_implies_cut"
    assert twin_expand_then_K2(cycle(6)).claim.kind == "cut_iff_q"
