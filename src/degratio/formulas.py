"""Class recognizers and exact closed-form values of the degree ratio,
each carrying a certifying witness partition where one is known.

Rule identifiers (also used by the CLI): upbound, tree, ktriangle, clique,
cubic, 4reg, prodcub, prodkregtree, lowbound, c3, d6.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (CertificateError, NoApplicableRule, ParameterError,
                     PreconditionError)
from .graph import (Graph, cartesian_product, is_connected, is_tree, low_link,
                    regularity, subtree_sides, two_coloring)
from .named import build_named, contains_subgraph, cycle, is_isomorphic
from .ratios import Bipartition, certify, top_edge
from .solver import (DEFAULT_BUDGET, _in_turn, find_matching_cut, lift_partition,
                     solve_q)


@dataclass(frozen=True)
class FormulaVerdict:
    value: Fraction
    rule: str
    witness: Bipartition


@dataclass(frozen=True)
class LowerBound:
    value: Fraction
    strict: bool  # True when the guarantee is value < q(G), not value <= q(G)
    rules: tuple[str, ...]


def two_fifths_family() -> tuple[Graph, ...]:
    """The four graphs of maximum degree at most 6 whose degree ratio is
    exactly 2/5."""
    return (build_named("K5"), build_named("K5-e"), build_named("T3"),
            build_named("coK2claw"))


# -- bounds -----------------------------------------------------------------


def edge_upper_bound(G: Graph) -> Fraction:
    """max over edges uv of min(d(u)/d[u], d(v)/d[v]); an upper bound on q(G)
    for connected graphs."""
    if not is_connected(G):
        raise PreconditionError("edge upper bound needs a connected graph")
    _, top = top_edge(G)
    return Fraction(top - 1, top)


def _theorem_classes(G: Graph) -> dict[str, bool]:
    """Applicability of the degree-constrained partition theorems:
    ``k4ev_free`` (no K4-e+v subgraph, and not C3) and ``sparse_free`` (no
    C4/K4/diamond subgraph, or no K3/C8/K23 subgraph).

    Pattern containment is SUBGRAPH containment: the theorem classes must
    exclude cliques (K7 contains K4ev as a subgraph but not induced, yet
    q(K7) = 3/7 < 1/2).  The triangle C3 is excluded from the K4ev-free
    class explicitly: its demanded partition does not exist.

    With c(u, x) = |N(u) & N(x)| for u != x, G contains

    - K3 iff some edge ux has c(u, x) >= 1;
    - K4-e+v (= T3, an edge with three common neighbors) iff some edge ux
      has c(u, x) >= 3;
    - C4 iff some pair u != x has c(u, x) >= 2;
    - K23 iff some pair u != x has c(u, x) >= 3.

    K4 and the diamond each contain a C4, so (C4, K4, diamond)-free is
    C4-free.  A K4-e+v contains a C4, a K3 and a K23, so it settles both
    classes as False at once.  Counting N(w) over w in N(u) for every u costs
    the sum of d(w)^2; only C8 is left to a subgraph search, and only when G
    has a C4 but no K3 and no K23.
    """
    adj = G.adj
    triangle = c4 = k23 = False
    for u in range(G.n):
        nu = adj[u]
        common: dict[int, int] = {}
        for w in nu:
            for x in adj[w]:
                common[x] = common.get(x, 0) + 1
        common.pop(u, None)
        triangle = triangle or not nu.isdisjoint(common)
        top = max(common.values(), default=0)
        c4 = c4 or top >= 2
        if top >= 3:
            for x, c in common.items():
                if c >= 3:
                    if x in nu:  # a K4-e+v
                        return {"k4ev_free": False, "sparse_free": False}
                    k23 = True
    k4ev_free = not characterize_third(G)
    sparse_free = (not c4 or not (triangle or k23
                                  or contains_subgraph(G, cycle(8))))
    return {"k4ev_free": k4ev_free, "sparse_free": sparse_free}


def _lowbound(G: Graph) -> Fraction:
    """The ``lowbound`` rule: p/(2p+1) for the smallest even degree 2p of G,
    and 1/2 when every degree is odd."""
    even = [d for d in map(len, G.adj) if d % 2 == 0]
    if not even:
        return Fraction(1, 2)
    p = min(even) // 2
    return Fraction(p, 2 * p + 1)


def class_lower_bound(G: Graph, budget: int = DEFAULT_BUDGET) -> LowerBound:
    """Best guaranteed lower bound on q(G) among the applicable class rules."""
    candidates = [LowerBound(_lowbound(G), False, ("lowbound",))]
    classes = _theorem_classes(G)
    if classes["k4ev_free"]:
        candidates.append(LowerBound(Fraction(1, 2), False, ("lowboundC3",)))
    if classes["sparse_free"] and G.min_degree >= 3:
        # demand functions ceil(d/2) need both demands >= 2
        candidates.append(LowerBound(Fraction(1, 2), True, ("lowboundC4free",)))

    if G.factors is not None:
        candidates.append(LowerBound(Fraction(1, 2), True, ("prodlowbound",)))
        Gf, Hf = G.factors
        if Gf.n <= 12 and Hf.n <= 12:
            # the two factor solves draw on the one budget
            left = solve_q(Gf, budget=budget)
            right = _in_turn(left.explored, budget, solve_q, Hf)
            candidates.append(LowerBound(max(left.q, right.q), True, ("prodmax",)))

    best = max(candidates, key=lambda lb: (lb.value, lb.strict))
    rules = tuple(sorted({r for lb in candidates
                          if (lb.value, lb.strict) == (best.value, best.strict)
                          for r in lb.rules}))
    return LowerBound(best.value, best.strict, rules)


# -- exact formulas ---------------------------------------------------------


def tree_q(T: Graph) -> FormulaVerdict:
    """Exact value for trees: the edge upper bound is attained by splitting
    at a maximizing edge uv, with u on side 1.  Every edge of a tree is a
    DFS tree edge, and the child's subtree is its side."""
    if not is_tree(T):
        raise PreconditionError("tree formula needs a tree")
    (u, v), top = top_edge(T)
    disc, _, parent, end = low_link(T)
    if parent[u] == v:
        witness = Bipartition(subtree_sides(disc, end, u))
    else:
        witness = Bipartition(subtree_sides(disc, end, v)).flipped()
    return FormulaVerdict(Fraction(top - 1, top), "tree", witness)


def ktriangle_q(k: int) -> FormulaVerdict:
    """q(T_k) = (floor(k/2)+1)/(k+2), attained by splitting the apexes."""
    if k < 1:
        raise ParameterError(f"k-triangle needs k >= 1, got {k}")
    half = k // 2
    value = Fraction(half + 1, k + 2)
    side1 = {0} | {2 + i for i in range(half)}
    witness = Bipartition.from_side1(k + 2, side1)
    return FormulaVerdict(value, "ktriangle", witness)


def clique_q(n: int) -> FormulaVerdict:
    """q(K_2p) = 1/2 and q(K_2p+1) = p/(2p+1), by an (almost) balanced split."""
    if n < 2:
        raise ParameterError(f"clique needs n >= 2, got {n}")
    p = n // 2
    value = Fraction(1, 2) if n % 2 == 0 else Fraction(p, 2 * p + 1)
    witness = Bipartition.from_side1(n, range(p))
    return FormulaVerdict(value, "clique", witness)


def _k4_or_k33(G: Graph) -> bool:
    """Whether a connected cubic graph is K4 or K33: K4 is the only cubic
    graph on 4 vertices, and K33 the bipartite one on 6 (the other one, the
    prism, has triangles)."""
    return G.n == 4 or (G.n == 6 and two_coloring(G) is not None)


def cubic_q(G: Graph, budget: int = DEFAULT_BUDGET) -> FormulaVerdict:
    """Connected cubic graphs: 1/2 for K4 and K33, 3/4 with a matching-cut
    witness otherwise."""
    if regularity(G) != 3 or not is_connected(G):
        raise PreconditionError("cubic formula needs a connected 3-regular graph")
    if _k4_or_k33(G):
        # an edge against the rest: every vertex keeps at least 2 of its
        # closed neighbourhood of 4, and the edge's ends exactly 2
        witness = Bipartition.from_side1(G.n, {0, min(G.adj[0])})
        return FormulaVerdict(Fraction(1, 2), "cubic", witness)
    cert = find_matching_cut(G, budget=budget)
    if not cert.has_cut:
        raise CertificateError("cubic graph other than K4/K33 without matching-cut")
    return FormulaVerdict(Fraction(3, 4), "cubic", cert.partition)


def four_regular_q(G: Graph, budget: int = DEFAULT_BUDGET) -> FormulaVerdict:
    """Connected 4-regular graphs: 2/5 for K5; otherwise 4/5 exactly when a
    matching-cut exists, else 3/5 (witness solver-derived)."""
    if regularity(G) != 4 or not is_connected(G):
        raise PreconditionError("4-regular formula needs a connected 4-regular graph")
    if G.n == 5:  # K5 is the only 4-regular graph on 5 vertices
        return FormulaVerdict(Fraction(2, 5), "4reg", clique_q(5).witness)
    cert = find_matching_cut(G, budget=budget)
    if cert.has_cut:
        return FormulaVerdict(Fraction(4, 5), "4reg", cert.partition)
    res = _in_turn(cert.explored, budget, solve_q, G)
    if res.q != Fraction(3, 5):
        raise CertificateError(f"4-regular dichotomy violated: solver says {res.q}")
    return FormulaVerdict(Fraction(3, 5), "4reg", res.optimal_partition)


def product_kreg_tree_q(G: Graph, H: Graph) -> FormulaVerdict:
    """q(G box H) for G k-regular connected and H a tree, with a fiber-wise
    witness split along a maximizing tree edge."""
    if regularity(G) is None or not is_connected(G):
        raise PreconditionError("left factor must be connected and regular")
    if not is_tree(H):
        raise PreconditionError("right factor must be a tree")
    P = cartesian_product(G, H)
    verdict = _product_kreg_tree(P, "right")
    certify(P, verdict.witness, verdict.value, "==")
    return verdict


def _product_kreg_tree(P: Graph, which: str) -> FormulaVerdict:
    """:func:`product_kreg_tree_q` on a product P whose ``which`` factor is
    a tree and whose other factor is connected and k-regular."""
    T, R = P.factors if which == "left" else P.factors[::-1]
    k = regularity(R)
    # (d(x) + k)/(d[x] + k) grows with d[x], so the tree's top edge is the
    # best split; tree_q's value (top - 1)/top is in lowest terms
    tree = tree_q(T)
    top = tree.value.denominator
    return FormulaVerdict(Fraction(top - 1 + k, top + k), "prodkregtree",
                          lift_partition(P, tree.witness, which))


def product_cubic_q(G: Graph, H: Graph,
                    budget: int = DEFAULT_BUDGET) -> FormulaVerdict:
    """q(G box H) for connected cubic factors: 5/7 when both factors are K4
    or K33, else 6/7 via a lifted matching-cut."""
    for F in (G, H):
        if regularity(F) != 3 or not is_connected(F):
            raise PreconditionError("both factors must be connected cubic graphs")
    P = cartesian_product(G, H)
    verdict = _product_cubic(P, budget)
    certify(P, verdict.witness, verdict.value, "==")
    return verdict


def _product_cubic(P: Graph, budget: int) -> FormulaVerdict:
    """:func:`product_cubic_q` on a product P of connected cubic factors."""
    G, H = P.factors
    if _k4_or_k33(G) and _k4_or_k33(H):
        # two adjacent left-factor fibers against the rest
        pair = Bipartition.from_side1(G.n, {0, min(G.adj[0])})
        return FormulaVerdict(Fraction(5, 7), "prodcub",
                              lift_partition(P, pair, "left"))
    cert = find_matching_cut(P, budget=budget)
    if not cert.has_cut:
        raise CertificateError("cubic product dichotomy violated: no matching-cut")
    return FormulaVerdict(Fraction(6, 7), "prodcub", cert.partition)


def closed_form(G: Graph, budget: int = DEFAULT_BUDGET) -> FormulaVerdict:
    """Dispatch to the first applicable exact formula and certify that its
    witness has exactly the formula's value; raises
    :class:`NoApplicableRule` when the graph matches no proven class."""
    verdict = _first_rule(G, budget)
    certify(G, verdict.witness, verdict.value, "==")
    return verdict


def _first_rule(G: Graph, budget: int) -> FormulaVerdict:
    if not is_connected(G):
        raise PreconditionError("closed forms apply to connected graphs")
    n = G.n
    if 2 * G.num_edges == n * (n - 1):
        return clique_q(n)
    degrees = [len(a) for a in G.adj]
    if n >= 3 and degrees.count(n - 1) == 2 and degrees.count(2) == n - 2:
        # T_k: two vertices see all others, so the rest see only those two.
        # Split the input's own base pair and give the first half of the
        # apexes to the first base vertex
        k = n - 2
        a, _, *apexes = sorted(G.vertices(), key=lambda v: -degrees[v])
        witness = Bipartition.from_side1(G.n, [a] + apexes[: k // 2])
        return FormulaVerdict(ktriangle_q(k).value, "ktriangle", witness)
    if is_tree(G):
        return tree_q(G)
    if G.factors is not None:
        Gf, Hf = G.factors
        if regularity(Gf) == 3 and regularity(Hf) == 3:
            return _product_cubic(G, budget)
        if regularity(Gf) is not None and is_tree(Hf):
            return _product_kreg_tree(G, "right")
        if regularity(Hf) is not None and is_tree(Gf):
            return _product_kreg_tree(G, "left")
    if regularity(G) == 3:
        return cubic_q(G, budget=budget)
    if regularity(G) == 4:
        return four_regular_q(G, budget=budget)
    raise NoApplicableRule("no applicable rule for this graph")


# -- characterizations ------------------------------------------------------


def characterize_third(G: Graph) -> bool:
    """q(G) = 1/3 exactly for the triangle: 3 vertices and 3 edges."""
    return G.n == 3 and G.num_edges == 3


def characterize_two_fifths(G: Graph) -> bool:
    """For maximum degree at most 6: q(G) = 2/5 exactly on the four-member
    family returned by :func:`two_fifths_family`."""
    if G.max_degree > 6:
        raise PreconditionError("characterization proven only for max degree <= 6")
    return any(is_isomorphic(G, F) for F in two_fifths_family())
