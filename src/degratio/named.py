"""Named graphs, ``build_named`` (string ids such as ``K_12`` or
``prod:K4,P3``), and the subgraph and isomorphism tests.  A solve needs
none of these, so the package loads this module when one of its names is
first read."""

from __future__ import annotations

import itertools
import re

from .errors import ParameterError
from .graph import Graph, cartesian_product, complement, graph_from_edges


# -- named constructions ----------------------------------------------------


def complete(n: int) -> Graph:
    if n < 2:
        raise ParameterError(f"K_n needs n >= 2, got {n}")
    return graph_from_edges(n, itertools.combinations(range(n), 2), name=f"K{n}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise ParameterError(f"C_n needs n >= 3, got {n}")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)], name=f"C{n}")


def path(n: int) -> Graph:
    if n < 2:
        raise ParameterError(f"P_n needs n >= 2, got {n}")
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)], name=f"P{n}")


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1 or m + n < 2:
        raise ParameterError(f"K_mn needs m,n >= 1, got {m},{n}")
    edges = [(i, m + j) for i in range(m) for j in range(n)]
    return graph_from_edges(m + n, edges, name=f"K{m}{n}")


def k_triangle(k: int) -> Graph:
    """T_k: edge st plus k vertices adjacent to both s and t.  T_1 = C_3."""
    if k < 1:
        raise ParameterError(f"T_k needs k >= 1, got {k}")
    edges = [(0, 1)] + [(0, 2 + i) for i in range(k)] + [(1, 2 + i) for i in range(k)]
    return graph_from_edges(k + 2, edges, name=f"T{k}")


def claw() -> Graph:
    return complete_bipartite(1, 3).relabel("claw")


def diamond() -> Graph:
    """K_4 minus the edge 2-3, which is T_2."""
    return k_triangle(2).relabel("diamond")


def k4_minus_e_plus_v() -> Graph:
    """Diamond plus a vertex adjacent to its two degree-3 vertices: T_3."""
    return k_triangle(3).relabel("K4ev")


def co_k2_claw() -> Graph:
    """Complement of the disjoint union K_2 + claw, on 6 vertices."""
    union = graph_from_edges(6, [(0, 1), (2, 3), (2, 4), (2, 5)])
    return complement(union).relabel("coK2claw")


def prism() -> Graph:
    """Triangular prism: two triangles joined by a perfect matching."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    return graph_from_edges(6, edges, name="prism")


def cube() -> Graph:
    """The 3-cube Q_3."""
    edges = [(a, b) for a in range(8) for b in range(a + 1, 8)
             if bin(a ^ b).count("1") == 1]
    return graph_from_edges(8, edges, name="cube")


def wagner() -> Graph:
    """The Wagner graph V_8: C_8 plus the four long diagonals."""
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
    return graph_from_edges(8, edges, name="wagner")


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, outer + spokes + inner, name="petersen")


def wheel(rim: int) -> Graph:
    """Hub vertex 0 joined to a rim cycle on ``rim`` vertices."""
    if rim < 3:
        raise ParameterError(f"wheel needs rim >= 3, got {rim}")
    edges = [(0, 1 + i) for i in range(rim)]
    edges += [(1 + i, 1 + (i + 1) % rim) for i in range(rim)]
    return graph_from_edges(rim + 1, edges, name=f"W{rim}")


_FIXED_NAMES = {
    "claw": claw,
    "diamond": diamond,
    "K4ev": k4_minus_e_plus_v,
    "coK2claw": co_k2_claw,
    "prism": prism,
    "cube": cube,
    "wagner": wagner,
    "petersen": petersen,
}


def build_named(name: str) -> Graph:
    """Resolve a string id to a graph.

    Accepted forms: ``K<n>`` clique for one digit n (two digits mean a
    complete bipartite K_{m,n}, e.g. K33; three or more are refused),
    ``K_<n>`` clique on any n >= 2 vertices (e.g. K_12), ``K_<m>_<n>``
    complete bipartite K_{m,n} for any m, n >= 1 (e.g. K_3_12; the comma
    form K_3,12 is refused, since ``prod:`` splits at the comma), ``K5-e``
    clique minus an edge, ``C<n>`` cycle, ``P<n>`` path, ``T<k>``
    k-triangle, ``W<n>`` wheel, the fixed names claw / diamond / K4ev /
    coK2claw / prism / cube / wagner / petersen, and ``prod:<a>,<b>`` for a
    cartesian product of two named graphs.
    """
    name = name.strip()
    m = re.search(r"K_?(\d+),(\d+)", name)
    if m:
        raise ParameterError(
            f"{m.group(0)} is not a graph id; K_{{{m.group(1)},{m.group(2)}}} "
            f"is K_{m.group(1)}_{m.group(2)}")
    if name.startswith("prod:"):
        body = name[len("prod:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise ParameterError(f"prod: takes exactly two factor names, got {body!r}")
        return cartesian_product(build_named(parts[0]), build_named(parts[1]))
    if name in _FIXED_NAMES:
        return _FIXED_NAMES[name]()
    m = re.fullmatch(r"K(\d+)-e", name)
    if m:
        k = int(m.group(1))
        base = complete(k)
        edges = [e for e in base.edges() if e != (0, 1)]
        return graph_from_edges(k, edges, name=f"K{k}-e")
    m = re.fullmatch(r"K_(\d+)", name)
    if m:
        return complete(int(m.group(1))).relabel(name)
    m = re.fullmatch(r"K_(\d+)_(\d+)", name)
    if m:
        return complete_bipartite(int(m.group(1)), int(m.group(2))).relabel(name)
    m = re.fullmatch(r"K(\d)(\d)", name)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        if a and not b:
            raise ParameterError(
                f"{name} names K_{{{a},0}}, which has an empty part; "
                f"the clique on {name[1:]} vertices is K_{name[1:]}")
        return complete_bipartite(a, b)
    m = re.fullmatch(r"K(\d+)", name)
    if m:  # one digit, or three or more
        if len(m.group(1)) > 1:
            raise ParameterError(
                f"{name} is ambiguous; the clique on {name[1:]} vertices is K_{name[1:]}")
        return complete(int(m.group(1)))
    m = re.fullmatch(r"C(\d+)", name)
    if m:
        return cycle(int(m.group(1)))
    m = re.fullmatch(r"P(\d+)", name)
    if m:
        return path(int(m.group(1)))
    m = re.fullmatch(r"T(\d+)", name)
    if m:
        return k_triangle(int(m.group(1)))
    m = re.fullmatch(r"W(\d+)", name)
    if m:
        return wheel(int(m.group(1)))
    raise ParameterError(f"unknown graph id {name!r}")


# -- pattern detection ------------------------------------------------------


def contains_subgraph(G: Graph, pattern: Graph) -> bool:
    """True iff pattern embeds into G as a (not necessarily induced)
    subgraph: some injective map of its vertices sends edges to edges.
    Backtracking over the pattern's vertices."""
    k = pattern.n
    if k > G.n:
        return False
    pdeg = [len(a) for a in pattern.adj]
    gdeg = [len(a) for a in G.adj]
    # order pattern vertices so each one after the first touches a previous
    # vertex when possible; improves pruning a lot on connected patterns
    order: list[int] = []
    remaining = set(range(k))
    while remaining:
        attached = [v for v in remaining if any(u in order for u in pattern.adj[v])]
        pool = attached or list(remaining)
        v = max(pool, key=lambda x: pdeg[x])
        order.append(v)
        remaining.discard(v)
    # per position: the earlier positions whose images must be adjacent to
    # this one's
    linked = [[j for j in range(i) if order[j] in pattern.adj[order[i]]]
              for i in range(k)]
    image = [0] * k
    used = [False] * G.n

    def extend(i: int) -> bool:
        if i == k:
            return True
        need = pdeg[order[i]]
        near = linked[i]
        # the image must be adjacent to every placed neighbor's image
        candidates = G.adj[image[near[0]]] if near else range(G.n)
        for gv in candidates:
            if used[gv] or gdeg[gv] < need:
                continue
            nbrs = G.adj[gv]
            if all(image[j] in nbrs for j in near):
                image[i] = gv
                used[gv] = True
                if extend(i + 1):
                    return True
                used[gv] = False
        return False

    try:
        return extend(0)
    finally:
        del extend  # it refers to itself through its cell; free it now


def is_isomorphic(G: Graph, H: Graph) -> bool:
    """Isomorphism test for small graphs: a degree prefilter, then one
    subgraph search.  With equal vertex and edge counts the search is
    exact: an injective map of G's vertices into H's that sends edges to
    edges is onto H's vertices, and maps G's edges one-to-one into H's
    equally many edges, so onto those too."""
    if G.n != H.n or G.num_edges != H.num_edges:
        return False
    if sorted(len(s) for s in G.adj) != sorted(len(s) for s in H.adj):
        return False
    return contains_subgraph(H, G)
