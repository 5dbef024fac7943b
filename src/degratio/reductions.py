"""Hardness-reduction gadget generators and small-instance equivalence
checkers.

Each generator turns a source graph into a gadget graph together with the
decision equivalence it is supposed to satisfy, and keeps a vertex
provenance map.  ``strict=True`` enforces the degree bounds under which the
hardness claims hold; the default test mode waives only those bounds (the
constructions themselves are degree-generic) so that instances stay small
enough for exhaustive verification.

Gadget vertex naming: copy one of source vertex v is 2v, copy two is 2v+1;
twin vertices are appended after the originals before taking the product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import BudgetExceededError, PreconditionError
from .graph import (Graph, bipartition_classes, cartesian_product, fiber,
                    graph_from_edges, is_connected, regularity, two_coloring)
from .named import complete
from .ratios import is_matching
from .solver import DEFAULT_BUDGET, decide, find_matching_cut


@dataclass(frozen=True)
class ReductionClaim:
    """Decision equivalence asserted for a gadget.

    cut_iff_cut: the source has a matching-cut iff the gadget has one.
    mapped_cut:  an edge set C is a matching-cut of the source iff its image
                 {u1 v2, u2 v1 : uv in C} is a matching-cut of the gadget.
                 (Existence is NOT preserved here: two bipartite copies plus
                 a perfect matching always admit the copy-swap cut.)
    cut_iff_q:   the source has a matching-cut iff the gadget's degree ratio
                 reaches the threshold.
    """

    kind: str  # "cut_iff_cut" | "mapped_cut" | "cut_iff_q"
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


def _double_cover_edges(G: Graph) -> list[tuple[int, int]]:
    edges = []
    for u, v in G.edges():
        edges.append((2 * u, 2 * v + 1))
        edges.append((2 * v, 2 * u + 1))
    return edges


def bipartite_double_cover(G: Graph, strict: bool = False) -> GadgetInstance:
    """Two copies of each vertex with crossed edge copies; preserves
    matching-cut existence for connected regular sources."""
    k = regularity(G)
    if k is None or not is_connected(G):
        raise PreconditionError("double cover needs a connected regular source")
    if strict and k < 4:
        raise PreconditionError(f"hardness claim needs degree >= 4, got {k}")
    gadget = graph_from_edges(2 * G.n, _double_cover_edges(G),
                              name=f"double_cover({G.name or G.n})")
    prov = tuple([(v, (2 * v, 2 * v + 1)) for v in range(G.n)])
    return GadgetInstance(gadget, G, "double_cover",
                          ReductionClaim("cut_iff_cut"), prov)


def cover_plus_matching(G: Graph, strict: bool = False) -> GadgetInstance:
    """Double cover plus the perfect matching joining the two copies of each
    vertex; lifts a (k-1)-regular bipartite source to a k-regular bipartite
    gadget with the same matching-cut verdict."""
    k = regularity(G)
    if k is None or not is_connected(G) or two_coloring(G) is None:
        raise PreconditionError(
            "cover-plus-matching needs a connected regular bipartite source")
    if strict and k < 4:
        raise PreconditionError(f"hardness claim needs degree >= 4, got {k}")
    edges = _double_cover_edges(G) + [(2 * v, 2 * v + 1) for v in range(G.n)]
    gadget = graph_from_edges(2 * G.n, edges,
                              name=f"cover_plus_matching({G.name or G.n})")
    prov = tuple([(v, (2 * v, 2 * v + 1)) for v in range(G.n)])
    return GadgetInstance(gadget, G, "cover_plus_matching",
                          ReductionClaim("mapped_cut"), prov)


def twin_expand_then_K2(G: Graph, strict: bool = False) -> GadgetInstance:
    """Attach a degree-1 twin to every vertex, then take the product with an
    edge; the source has a matching-cut iff the gadget's ratio reaches
    (D+1)/(D+2) where D is the twin-expanded maximum degree."""
    classes = bipartition_classes(G)
    if not is_connected(G) or classes is None:
        raise PreconditionError("twin expansion needs a connected bipartite source")
    if strict:
        side_degrees = [sorted({G.degree(v) for v in side}) for side in classes]
        if sorted(map(tuple, side_degrees)) != [(3,), (4,)]:
            raise PreconditionError("hardness claim needs a (3,4)-biregular source")
    n = G.n
    twin_edges = list(G.edges()) + [(v, n + v) for v in range(n)]
    expanded = graph_from_edges(2 * n, twin_edges,
                                name=f"twin_expand({G.name or G.n})")
    gadget = cartesian_product(expanded, complete(2))
    big = expanded.max_degree
    threshold = Fraction(big + 1, big + 2)
    prov = tuple([(v, (2 * v, 2 * v + 1)) for v in range(n)])
    return GadgetInstance(gadget, G, "twin_expand_K2",
                          ReductionClaim("cut_iff_q", threshold), prov)


def product_with_fixed(G: Graph, H: Graph, strict: bool = False,
                       budget: int = DEFAULT_BUDGET) -> GadgetInstance:
    """Product with a fixed regular matching-cut-free graph H; the source
    has a matching-cut iff the product's ratio reaches (k+k')/(k+k'+1)."""
    k = regularity(G)
    if k is None or two_coloring(G) is None or not is_connected(G):
        raise PreconditionError(
            "product reduction needs a connected regular bipartite source")
    if strict and k < 4:
        raise PreconditionError(f"hardness claim needs degree >= 4, got {k}")
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


def _mapped_cut(cut) -> list[tuple[int, int]]:
    return [e for u, v in cut for e in ((2 * u, 2 * v + 1), (2 * v, 2 * u + 1))]


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
    """Evaluate both sides of the instance's claim exactly and compare.

    A ``mapped_cut`` claim is checked over the source's nonempty matchings
    only, which is exact: any other nonempty edge set fails on both sides.
    It is no matching-cut of the source, which must be a matching, and if
    two of its edges share a vertex v then its image has two edges at copy
    2v + 1 of v, so the image is no matching-cut of the gadget either.
    ``budget`` bounds the number of matchings checked there.

    The two searches of ``cut_iff_cut`` and ``cut_iff_q``, source first,
    draw on the one budget in turn.  Budget exhaustion propagates as
    :class:`BudgetExceededError`, which is inconclusive rather than a
    refutation; its ``explored`` counts both searches.
    """
    if inst.claim.kind in ("cut_iff_cut", "cut_iff_q"):
        left = find_matching_cut(inst.source, budget=budget)
        try:
            if inst.claim.kind == "cut_iff_cut":
                right = find_matching_cut(inst.graph, budget=budget - left.explored)
            else:
                right = decide(inst.graph, inst.claim.threshold,
                               budget=budget - left.explored)
        except BudgetExceededError as exc:
            exc.explored += left.explored
            raise
        return left.has_cut == bool(right)
    if inst.claim.kind == "mapped_cut":
        for checked, cut in enumerate(_matchings(inst.source), start=1):
            if checked > budget:
                raise BudgetExceededError(explored=checked)
            if (is_matching_cut_set(inst.source, cut)
                    != is_matching_cut_set(inst.graph, _mapped_cut(cut))):
                return False
        return True
    raise PreconditionError(f"unknown claim kind {inst.claim.kind!r}")
