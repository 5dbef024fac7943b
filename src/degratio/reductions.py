"""Hardness-reduction gadget generators and small-instance claim checkers.

Each generator turns a source graph into a gadget graph, the claim it
proves about the pair and a vertex provenance map.  The degree bounds of
the hardness sources (Chvátal 1984; Le and Randerath 2003) make the source
problem hard but change no claim, so the constructions take any degree.

Gadget vertex naming: copy one of source vertex v is 2v, copy two is 2v+1;
twin vertices are appended after the originals before taking the product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import BudgetExceededError, PreconditionError
from .graph import (Graph, cartesian_product, fiber, graph_from_edges,
                    is_connected, regularity, two_coloring)
from .named import complete
from .ratios import is_matching
from .solver import DEFAULT_BUDGET, _in_turn, decide, find_matching_cut


@dataclass(frozen=True)
class ReductionClaim:
    """What a gadget is proved to satisfy; each builder proves its claim.

    cut_implies_cut: a source matching-cut gives a gadget matching-cut.
    mapped_cut:  an edge set C is a matching-cut of the source iff its image
                 {u1 v2, u2 v1 : uv in C} is a matching-cut of the gadget
                 (existence is not kept: the copy-swap cut always crosses).
    cut_iff_q:   the source has a matching-cut iff the gadget's degree ratio
                 reaches the threshold.
    q_implies_cut: a gadget reaching the threshold gives a source matching-cut.
    """

    kind: str  # "cut_implies_cut" | "mapped_cut" | "cut_iff_q" | "q_implies_cut"
    threshold: Fraction | None = None


@dataclass(frozen=True)
class GadgetInstance:
    graph: Graph
    source: Graph
    construction: str
    claim: ReductionClaim
    provenance: tuple[tuple[int, tuple[int, ...]], ...]

    def gadget_vertices_of(self, source_vertex: int) -> tuple[int, ...]:
        return dict(self.provenance)[source_vertex]


def _crossed(edges) -> list[tuple[int, int]]:
    """The two crossed copies u1 v2 and u2 v1 of each edge uv."""
    return [e for u, v in edges for e in ((2 * u, 2 * v + 1), (2 * v, 2 * u + 1))]


def bipartite_double_cover(G: Graph) -> GadgetInstance:
    """Two crossed copies of a connected regular non-bipartite source.

    Claim ``cut_implies_cut``: a source matching-cut (A, B) lifts to
    (A x {0, 1}, B x {0, 1}), where the crossing edges at a copy of v are
    copies of those at v, so at most one.  K4 and C8(1, 2) refute the converse.
    """
    if regularity(G) is None or not is_connected(G):
        raise PreconditionError("double cover needs a connected regular source")
    if two_coloring(G) is not None:
        raise PreconditionError("the double cover of a bipartite source is "
                                "two disjoint copies of it")
    gadget = graph_from_edges(2 * G.n, _crossed(G.edges()),
                              name=f"double_cover({G.name or G.n})")
    prov = tuple([(v, (2 * v, 2 * v + 1)) for v in range(G.n)])
    return GadgetInstance(gadget, G, "double_cover",
                          ReductionClaim("cut_implies_cut"), prov)


def cover_plus_matching(G: Graph) -> GadgetInstance:
    """Double cover plus the perfect matching joining the two copies of each
    vertex; lifts a (k-1)-regular bipartite source to a k-regular bipartite
    gadget with the same matching-cuts, mapped edge by edge."""
    if regularity(G) is None or not is_connected(G) or two_coloring(G) is None:
        raise PreconditionError(
            "cover-plus-matching needs a connected regular bipartite source")
    edges = _crossed(G.edges()) + [(2 * v, 2 * v + 1) for v in range(G.n)]
    gadget = graph_from_edges(2 * G.n, edges,
                              name=f"cover_plus_matching({G.name or G.n})")
    prov = tuple([(v, (2 * v, 2 * v + 1)) for v in range(G.n)])
    return GadgetInstance(gadget, G, "cover_plus_matching",
                          ReductionClaim("mapped_cut"), prov)


def twin_expand_then_K2(G: Graph) -> GadgetInstance:
    """Attach a degree-1 twin to every vertex of a connected bipartite
    source, then take the product with K2, at threshold (D+1)/(D+2) for the
    twin-expanded maximum degree D.

    Claim ``cut_iff_q`` on a regular source, else ``q_implies_cut``.  At the
    threshold a gadget vertex keeps its closed neighbourhood whole, or loses
    one edge if its closed degree is D+2.  Twins (closed degree 3 < D+2)
    keep both copies of their vertex on one side, so the projection onto G
    is a matching-cut.  Conversely a source matching-cut lifts, twins beside
    their vertices, when every source vertex has closed degree D+2 in the
    gadget, that is when G is regular; P3 refutes the converse otherwise.
    """
    if not is_connected(G) or two_coloring(G) is None:
        raise PreconditionError("twin expansion needs a connected bipartite source")
    n = G.n
    twin_edges = list(G.edges()) + [(v, n + v) for v in range(n)]
    expanded = graph_from_edges(2 * n, twin_edges,
                                name=f"twin_expand({G.name or G.n})")
    gadget = cartesian_product(expanded, complete(2))
    big = expanded.max_degree
    kind = "q_implies_cut" if regularity(G) is None else "cut_iff_q"
    prov = tuple([(v, (2 * v, 2 * v + 1)) for v in range(n)])
    return GadgetInstance(gadget, G, "twin_expand_K2",
                          ReductionClaim(kind, Fraction(big + 1, big + 2)), prov)


def product_with_fixed(G: Graph, H: Graph,
                       budget: int = DEFAULT_BUDGET) -> GadgetInstance:
    """Product of a connected k-regular bipartite source with a fixed
    connected k'-regular graph H that has no matching-cut.

    Claim ``cut_iff_q`` at (k+k')/(k+k'+1): in the (k+k')-regular product a
    partition reaches it iff each vertex loses at most one edge, iff it is a
    matching-cut, and the product has one iff G does (product rule).
    """
    k = regularity(G)
    if k is None or two_coloring(G) is None or not is_connected(G):
        raise PreconditionError(
            "product reduction needs a connected regular bipartite source")
    kp = regularity(H)
    if kp is None or not is_connected(H):
        raise PreconditionError("the fixed factor must be connected and regular")
    if find_matching_cut(H, budget=budget).has_cut:
        raise PreconditionError("the fixed factor must not have a matching-cut")
    gadget = cartesian_product(G, H)
    threshold = Fraction(k + kp, k + kp + 1)
    prov = tuple([(v, fiber(gadget, "left", v)) for v in range(G.n)])
    return GadgetInstance(gadget, G, "product_fixed_H",
                          ReductionClaim("cut_iff_q", threshold), prov)


def is_matching_cut_set(G: Graph, cut) -> bool:
    """Whether the given edge set is exactly the crossing set of some
    partition with pairwise disjoint crossing edges."""
    cut = [tuple(sorted(e)) for e in cut]
    if len(set(cut)) != len(cut) or not cut:
        return False
    if not is_matching(G, cut):
        return False
    # the crossing set is exactly the cut iff some 0/1 colouring changes
    # colour across the cut edges and nowhere else
    mate = [-1] * G.n
    for u, v in cut:
        mate[u] = v
        mate[v] = u
    return two_coloring(G, mate) is not None


def _matchings(G: Graph) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every nonempty matching of G once, as a tuple of edges in
    ``G.edges()`` order."""
    edges = G.edges()
    stack = [(0, 0, ())]  # (next edge index, mask of covered vertices, edges)
    while stack:
        start, covered, chosen = stack.pop()
        for i in range(start, len(edges)):
            u, v = edges[i]
            if not (covered >> u & 1 or covered >> v & 1):
                matching = chosen + ((u, v),)
                yield matching
                stack.append((i + 1, covered | 1 << u | 1 << v, matching))


def verify_equivalence(inst: GadgetInstance, budget: int = DEFAULT_BUDGET) -> bool:
    """Evaluate both sides of the instance's claim exactly and compare them
    by the claim's relation.

    A ``mapped_cut`` claim is checked over the source's nonempty matchings
    only, which is exact: any other nonempty edge set fails on both sides.
    It is no matching-cut of the source, which must be a matching, and if
    two of its edges share a vertex v then its image has two edges at copy
    2v + 1 of v, so the image is no matching-cut of the gadget either.
    ``budget`` bounds the number of matchings checked there.

    The other kinds search the source for a matching-cut, then the gadget
    for one (``cut_implies_cut``) or ``decide`` it at the threshold; the
    searches draw on the one budget in turn.  Budget exhaustion propagates
    as :class:`BudgetExceededError`, which is inconclusive rather than a
    refutation; its ``explored`` counts both searches.
    """
    kind = inst.claim.kind
    if kind in ("cut_implies_cut", "cut_iff_q", "q_implies_cut"):
        left = find_matching_cut(inst.source, budget=budget)
        if kind == "cut_implies_cut":
            right = _in_turn(left.explored, budget, find_matching_cut, inst.graph)
        else:
            right = _in_turn(left.explored, budget, decide, inst.graph,
                             inst.claim.threshold)
        source, gadget = left.has_cut, bool(right)
        # on bools, a <= b is "a implies b"
        return {"cut_implies_cut": source <= gadget, "cut_iff_q": source == gadget,
                "q_implies_cut": gadget <= source}[kind]
    if kind == "mapped_cut":
        for checked, cut in enumerate(_matchings(inst.source), start=1):
            if checked > budget:
                raise BudgetExceededError(explored=checked)
            if (is_matching_cut_set(inst.source, cut)
                    != is_matching_cut_set(inst.graph, _crossed(cut))):
                return False
        return True
    raise PreconditionError(f"unknown claim kind {kind!r}")
