"""Witness-producing procedures: degree-constrained bipartitions, and the
good-pair construction and its extension to a full partition.

The partition-existence theorems behind the degree-constrained demands are
non-constructive.  A potential-guided local search runs first, from an
alternating start; when it stalls, the solver's one partition search
finishes the job under the caller's budget, with cap d(v) - f(v) on each
vertex.  A demand regime
whose preconditions hold but whose exhaustive search comes up empty raises
:class:`CertificateError`, never a silent miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import CertificateError, ParameterError, PreconditionError
from .formulas import (_lowbound, _theorem_classes, characterize_third,
                       characterize_two_fifths)
from .graph import (Graph, cut_vertices, graph_from_edges, is_connected,
                    low_link, regularity, root_subtrees)
from .ratios import Bipartition, certify
from .solver import DEFAULT_BUDGET, _search, solve_q


# -- degree-constrained partitions ------------------------------------------


@dataclass(frozen=True)
class DegreeDemands:
    """Per-vertex inner-degree demands f under one of three regimes.

    stiebitz: d(x) >= 2f(x) + 1, any graph;
    hou:      d(x) >= 2f(x), demands >= 1, no K4-e+v subgraph;
    ma:       d(x) >= 2f(x) - 1, demands >= 2, either no
              C4/K4/diamond subgraph or no K3/C8/K23 subgraph.

    K4 and the diamond contain a C4, so the first ma class is the C4-free
    graphs.  The classes are read off common-neighbor counts c(u, x): a C4
    is a pair with c >= 2, a K23 a pair with c >= 3, a K3 an edge with
    c >= 1 and a K4-e+v an edge with c >= 3; only C8 needs a subgraph
    search (see ``formulas._theorem_classes``).

    The theorems allow different demands f1, f2 on the two sides; every
    regime here uses f1 = f2 = f, so the complement of a demand partition
    is one too.
    """

    f: tuple[int, ...]
    regime: str

    def validate(self, G: Graph):
        """Raise unless the regime's theorem applies to G; the subgraph
        classes are computed only for the hou and ma regimes."""
        if len(self.f) != G.n:
            raise ParameterError("the demand vector must cover every vertex")
        if any(x < 0 for x in self.f):
            raise ParameterError("demands must be nonnegative")
        slack = [G.degree(v) - 2 * self.f[v] for v in range(G.n)]  # d - 2f
        if self.regime == "stiebitz":
            bad = [v for v in range(G.n) if slack[v] < 1]
            if bad:
                raise PreconditionError(f"d(x) >= 2f+1 fails at {bad[0]}")
        elif self.regime == "hou":
            if any(x < 1 for x in self.f):
                raise PreconditionError("hou regime needs demands >= 1")
            bad = [v for v in range(G.n) if slack[v] < 0]
            if bad:
                raise PreconditionError(f"d(x) >= 2f fails at {bad[0]}")
            if not _theorem_classes(G)["k4ev_free"]:
                raise PreconditionError("hou regime needs a K4-e+v-subgraph-free graph")
        elif self.regime == "ma":
            if any(x < 2 for x in self.f):
                raise PreconditionError("ma regime needs demands >= 2")
            bad = [v for v in range(G.n) if slack[v] < -1]
            if bad:
                raise PreconditionError(f"d(x) >= 2f-1 fails at {bad[0]}")
            if not _theorem_classes(G)["sparse_free"]:
                raise PreconditionError(
                    "ma regime needs a (C4,K4,diamond)- or (K3,C8,K23)-subgraph-free graph")
        else:
            raise ParameterError(f"unknown regime {self.regime!r}")


def stiebitz_demands(G: Graph) -> DegreeDemands:
    return DegreeDemands(tuple([(G.degree(v) - 1) // 2 for v in range(G.n)]), "stiebitz")


def hou_demands(G: Graph) -> DegreeDemands:
    return DegreeDemands(tuple([G.degree(v) // 2 for v in range(G.n)]), "hou")


def ma_demands(G: Graph) -> DegreeDemands:
    return DegreeDemands(tuple([(G.degree(v) + 1) // 2 for v in range(G.n)]), "ma")


def demands_satisfied(G: Graph, demands: DegreeDemands, P: Bipartition) -> bool:
    return all(sum(1 for u in G.adj[v] if P.sides[u] == P.sides[v]) >= demands.f[v]
               for v in range(G.n))


def _demand_climb(G: Graph, f: tuple[int, ...], P: Bipartition) -> Bipartition | None:
    """Local search from P: move the first vertex, in index order, that has
    fewer than f(v) neighbors on its side and whose side keeps another
    vertex.  None when it stalls with a vertex short of its demand.

    A move of v raises e(V1) + e(V2) by d(v) - 2 * inner(v) >= 1 under every
    regime of :meth:`DegreeDemands.validate`, so there are at most m moves.
    """
    n = G.n
    side = list(P.sides)
    size = [0, side.count(1), side.count(2)]
    inner = [sum(1 for u in G.adj[v] if side[u] == side[v]) for v in range(n)]
    while True:
        v = next((v for v in range(n) if inner[v] < f[v] and size[side[v]] > 1), -1)
        if v < 0:
            break
        size[side[v]] -= 1
        side[v] = 3 - side[v]
        size[side[v]] += 1
        inner[v] = G.degree(v) - inner[v]
        for u in G.adj[v]:
            inner[u] += 1 if side[u] == side[v] else -1
    if any(inner[v] < f[v] for v in range(n)):
        return None
    return Bipartition(tuple(side))


def degree_constrained_partition(G: Graph, demands: DegreeDemands,
                                 budget: int = DEFAULT_BUDGET) -> Bipartition:
    """A nontrivial partition in which each vertex v has at least f(v)
    neighbors on its own side.

    The local search runs from the alternating start.  When it stalls, one
    partition search with cap d(v) - f(v) decides; it raises
    :class:`BudgetExceededError` past ``budget``.
    """
    demands.validate(G)
    return _demand_partition(G, demands, budget)


def _demand_partition(G: Graph, demands: DegreeDemands, budget: int) -> Bipartition:
    """:func:`degree_constrained_partition` for demands known to meet their
    regime's conditions."""
    n = G.n
    P = _demand_climb(G, demands.f, Bipartition(tuple([1 + i % 2 for i in range(n)])))
    if P is not None:
        return P
    cap = [G.degree(v) - demands.f[v] for v in range(n)]
    _, sides = _search(G, cap, budget, lambda sides, same: True)
    if sides is None:
        raise CertificateError(
            f"no demand-feasible partition exists under regime {demands.regime!r} "
            "although its preconditions hold")
    return Bipartition(sides)


@dataclass(frozen=True)
class LowerBoundWitness:
    value: Fraction
    strict: bool
    rule: str
    partition: Bipartition
    quality: Fraction


def lower_bound_witness(G: Graph, budget: int = DEFAULT_BUDGET) -> LowerBoundWitness:
    """Strongest applicable class bound together with a partition realizing
    it, built from the matching demand functions.  Raises
    :class:`BudgetExceededError` when the partition search needs more than
    ``budget`` assignments."""
    if not is_connected(G):
        raise PreconditionError("lower bound witness needs a connected graph")
    classes = _theorem_classes(G)
    if classes["sparse_free"] and G.min_degree >= 3:
        demands, value, strict, rule = (
            ma_demands(G), Fraction(1, 2), True, "lowboundC4free")
    elif classes["k4ev_free"] and G.min_degree >= 2:
        demands, value, strict, rule = (
            hou_demands(G), Fraction(1, 2), False, "lowboundC3")
    else:
        demands, value, strict, rule = (
            stiebitz_demands(G), _lowbound(G), False, "lowbound")
    # each regime's demands are built to meet the conditions that chose it
    P = _demand_partition(G, demands, budget)
    quality = certify(G, P, value, ">" if strict else ">=")
    return LowerBoundWitness(value, strict, rule, P, quality)


# -- good pairs -------------------------------------------------------------


@dataclass(frozen=True)
class GoodPair:
    """Two disjoint nonempty sets whose members already meet the threshold
    ratio within their own set."""

    A: frozenset[int]
    B: frozenset[int]
    threshold: Fraction
    case: str = ""


def _short(G: Graph, group, threshold: Fraction) -> list[int]:
    """The members of ``group`` that keep less than ``threshold`` of their
    closed neighbourhood inside it."""
    return [v for v in group
            if Fraction(1 + len(G.adj[v] & group), G.closed_degree(v)) < threshold]


def is_good_pair(G: Graph, gp: GoodPair) -> bool:
    if not gp.A or not gp.B or gp.A & gp.B:
        return False
    return not (_short(G, gp.A, gp.threshold) or _short(G, gp.B, gp.threshold))


def _smallest_triangle(G: Graph) -> tuple[int, int, int] | None:
    for a in range(G.n):
        for b in sorted(G.adj[a]):
            if b <= a:
                continue
            common = sorted(c for c in G.adj[a] & G.adj[b] if c > b)
            if common:
                return (a, b, common[0])
    return None


def _tree_path(dfs, u: int, v: int) -> list[int]:
    """The path from u to v in the DFS forest of one :func:`low_link` pass
    ``dfs``, for u and v in one tree: up from u to the first vertex whose
    subtree holds v, then down to v."""
    disc, _, parent, end = dfs
    up = [u]
    while not disc[up[-1]] <= disc[v] < end[up[-1]]:
        up.append(parent[up[-1]])
    down = [v]
    while down[-1] != up[-1]:
        down.append(parent[down[-1]])
    return up + down[-2::-1]


def _cycle(G: Graph, dfs) -> list[int] | None:
    """Vertex list of some cycle of G, from its :func:`low_link` pass
    ``dfs``, or None when G is a forest.  An edge xy outside the DFS tree
    joins x to an ancestor y, so it closes the tree path from x to y."""
    disc, _, parent, _ = dfs
    for x, nx in enumerate(G.adj):
        for y in nx:
            if disc[y] < disc[x] and y != parent[x]:
                return _tree_path(dfs, x, y)
    return None


def _proof_candidates(G: Graph, tri: tuple[int, int, int]):
    """Generate (case, A, B) candidates following the case analysis for the
    3/7 threshold; each candidate is validated by the caller."""
    tset = frozenset(tri)
    rest = frozenset(range(G.n)) - tset
    # G - T, with the triangle's vertices kept isolated: one DFS finds its
    # cycles, its components and the paths in them
    inner = graph_from_edges(G.n, [e for e in G.edges() if tset.isdisjoint(e)])
    dfs = low_link(inner)

    cyc = _cycle(inner, dfs)
    if cyc is not None:
        yield ("triangle-cycle", tset, frozenset(cyc))
        return  # the remaining cases assume an acyclic remainder

    disc, _, parent, end = dfs
    comps = [comp for comp in root_subtrees(disc, parent, end) if comp <= rest]

    def leaves(comp):
        return sorted(v for v in comp if sum(1 for u in G.adj[v] if u in comp) == 1)

    def is_path(comp):
        return len(comp) >= 2 and all(
            sum(1 for u in G.adj[v] if u in comp) <= 2 for v in comp)

    # two vertices of closed degree <= 4 in one component: triangle vs path
    for comp in comps:
        low = sorted(v for v in comp if G.closed_degree(v) <= 4)
        for u, v in combinations(low, 2):
            yield ("two-low-path", tset, frozenset(_tree_path(dfs, u, v)))

    # a component with three leaves: a cycle through one triangle vertex
    for comp in comps:
        lvs = leaves(comp)
        if len(lvs) < 3:
            continue
        for w in lvs:
            for c in sorted(G.adj[w] & tset):
                ab = tset - {c}
                for u in lvs:
                    if u == w:
                        continue
                    for v in lvs:
                        if v in (u, w):
                            continue
                        P = frozenset(_tree_path(dfs, v, w))
                        yield ("three-leaves", P | {c}, ab | {u})

    paths = [comp for comp in comps if is_path(comp)]
    isolated = sorted(min(comp) for comp in comps if len(comp) == 1)

    # two path components
    for C1 in paths:
        for C2 in paths:
            if C1 == C2:
                continue
            for u in leaves(C1):
                for c in sorted(G.adj[u] & tset):
                    for v2 in leaves(C2):
                        yield ("two-paths", C1 | {c}, (tset - {c}) | {v2})

    # one path plus an isolated vertex
    for C in paths:
        for w in isolated:
            lvs = leaves(C)
            for u in lvs:
                for v in lvs:
                    if v == u:
                        continue
                    for c in sorted(G.adj[u] & tset):
                        yield ("path-isolated", C | {c}, (tset - {c}) | {w})
                        yield ("path-isolated", frozenset({c, u, w}),
                               (tset - {c}) | {v})
                        for b in sorted(tset - {c}):
                            yield ("path-isolated", C | {b}, (tset - {b}) | {w})

    # a single path and nothing else
    if len(comps) == 1 and paths:
        C = paths[0]
        lvs = leaves(C)
        for u in lvs:
            for v in lvs:
                if v == u:
                    continue
                for c in sorted(G.adj[u] & tset):
                    if len(C) == 2:
                        yield ("single-path", tset - {c}, frozenset({c, u, v}))
                    w = next(x for x in sorted(G.adj[u]) if x in C)
                    yield ("single-path", frozenset({c, u, w}), (tset - {c}) | {v})
                    for c2 in sorted(G.adj[w] & tset):
                        yield ("single-path", frozenset({c2, u, w}),
                               (tset - {c2}) | {v})
                    for s in sorted(G.adj[w] & C - {u}):
                        for c2 in sorted(G.adj[s] & tset):
                            yield ("single-path", frozenset({c2, s, u, w}),
                                   (tset - {c2}) | {v})

    # every component is an isolated vertex
    if comps and all(len(comp) == 1 for comp in comps):
        by_degree = sorted(tri, key=lambda v: (G.degree(v), v))
        for c in by_degree:
            ab = tset - {c}
            outside = sorted(v for v in G.adj[c] if v not in tset)
            if G.degree(c) == 2:
                # the whole graph is a k-triangle on apexes rest
                a, b = sorted(ab)
                apexes = sorted(rest | {c})
                half = len(apexes) // 2
                A = frozenset({a} | set(apexes[:half]))
                yield ("ktriangle-split", A, frozenset(range(G.n)) - A)
            elif G.degree(c) == 3 and outside:
                pair = frozenset({c, outside[0]})
                yield ("isolated-deg3", pair, frozenset(range(G.n)) - pair)
            elif len(outside) >= 2:
                u, v = outside[0], outside[1]
                a, b = sorted(ab)
                for w in sorted(rest - {u, v}):
                    if a in G.adj[w] and b in G.adj[w]:
                        yield ("isolated-deg4plus", frozenset({c, u, v}),
                               frozenset({a, b, w}))


def find_good_pair(G: Graph, threshold: Fraction = Fraction(3, 7),
                   budget: int = DEFAULT_BUDGET) -> GoodPair:
    """A good pair via the structural case analysis around a smallest
    triangle; an exhaustive fallback (logged loudly) covers any gap."""
    if threshold == Fraction(3, 7):
        if not is_connected(G):
            raise PreconditionError("good pair search needs a connected graph")
        if G.max_degree > 6:
            raise PreconditionError("3/7 good pairs proven only for max degree <= 6")
        if cut_vertices(G):
            raise PreconditionError("good pair search assumes a biconnected graph")
        if characterize_third(G) or characterize_two_fifths(G):
            raise PreconditionError("graph is one of the excluded 2/5-value graphs")
    elif threshold == Fraction(3, 5):
        if regularity(G) != 4 or not is_connected(G):
            raise PreconditionError("3/5 good pairs apply to connected 4-regular graphs")
        if G.n == 5:  # the only 4-regular graph on 5 vertices
            raise PreconditionError("K5 has q = 2/5 < 3/5; it has no 3/5 good pair")
    else:
        raise ParameterError(f"unsupported good-pair threshold {threshold}")

    tri = _smallest_triangle(G)
    if tri is None:
        raise PreconditionError("good pair search needs a triangle")

    for case, A, B in _proof_candidates(G, tri):
        gp = GoodPair(frozenset(A), frozenset(B), threshold, case)
        if is_good_pair(G, gp):
            return gp

    import logging  # only this fallback logs, so importing the module skips it
    logging.getLogger(__name__).warning(
        "good-pair case analysis exhausted on %r; falling back to the "
        "exact solver (suspected case gap)", G)
    # a partition is a good pair exactly when its quality meets the threshold
    P = solve_q(G, budget=budget).optimal_partition
    certify(G, P, threshold)
    return GoodPair(P.side(1), P.side(2), threshold, "fallback")


def extend_good_pair(G: Graph, gp: GoodPair) -> Bipartition:
    """Grow a good pair into a full partition of quality >= its threshold.

    Leftover vertices that already meet the threshold among themselves form
    the second side wholesale; otherwise a violating vertex joins the side
    holding more of its neighbors (ties to A).  The leftover set strictly
    shrinks, so at most n iterations run.
    """
    if not is_good_pair(G, gp):
        raise PreconditionError("input does not satisfy the good-pair invariant")
    A, B = set(gp.A), set(gp.B)
    thr = gp.threshold
    while True:
        C = set(range(G.n)) - A - B
        if not C:
            P = Bipartition.from_side1(G.n, A)
            break
        short = _short(G, C, thr)
        if not short:
            P = Bipartition.from_side1(G.n, A | B)
            break
        v = min(short)
        if len(G.adj[v] & A) >= len(G.adj[v] & B):
            A.add(v)
        else:
            B.add(v)
    certify(G, P, thr)
    return P
