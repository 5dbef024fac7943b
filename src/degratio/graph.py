"""Simple undirected graphs: representation, named constructions, cartesian
products with fiber provenance, subgraph detection, one low-link pass that
finds bridges, cut vertices and components, and one two-colouring.

Vertices are dense integer labels 0..n-1.  Graph values are immutable after
construction.  Adjacency is checked once, where it enters: a direct
``Graph(n, adj)`` stores its rows as frozensets and checks that they are
symmetric, loop-free and in range, and ``graph_from_edges`` and
``parse_graph`` check each edge as they read it.  They, ``complement``,
``cartesian_product`` and ``relabel`` then build through ``_trusted``,
which skips ``Graph``'s O(m) walk.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable

from .errors import GraphParseError, ParameterError, PreconditionError


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    ``factors`` keeps product provenance: when the graph was built by
    :func:`cartesian_product` it holds the two factor graphs, and vertex
    ``(g, h)`` of the product is the integer ``g * factors[1].n + h``.
    """

    n: int
    adj: tuple[frozenset[int], ...]
    name: str | None = field(default=None, compare=False)
    factors: tuple["Graph", "Graph"] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError(f"graphs must have at least 2 vertices, got n={self.n}")
        # rows become frozensets, so a repeated neighbour counts once
        object.__setattr__(self, "adj", tuple(map(frozenset, self.adj)))
        n, adj = self.n, self.adj
        if len(adj) != n:
            raise ParameterError("adjacency length does not match vertex count")
        for v, nbrs in enumerate(adj):
            if v in nbrs:
                raise ParameterError(f"self-loop at vertex {v}")
            for u in nbrs:
                if not 0 <= u < n:
                    raise ParameterError(f"neighbor {u} of {v} out of range")
                if v not in adj[u]:
                    raise ParameterError(f"adjacency not symmetric at edge {v}-{u}")

    # -- basic quantities ---------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def closed_degree(self, v: int) -> int:
        """d[v] = d(v) + 1."""
        return len(self.adj[v]) + 1

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    @property
    def min_degree(self) -> int:
        return min(len(s) for s in self.adj)

    @property
    def max_degree(self) -> int:
        return max(len(s) for s in self.adj)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def vertices(self) -> range:
        return range(self.n)

    def relabel(self, name: str) -> "Graph":
        return _trusted(self.n, self.adj, name, self.factors)

    def __repr__(self):
        label = self.name or f"graph"
        return f"<{label}: n={self.n} m={self.num_edges}>"


def _trusted(n: int, adj: tuple[frozenset[int], ...], name: str | None,
             factors: tuple[Graph, Graph] | None = None) -> Graph:
    """A Graph on adjacency its builder already made symmetric, loop-free
    and in range, without ``__post_init__``'s walk; n >= 2 is still checked."""
    if n < 2:
        raise ParameterError(f"graphs must have at least 2 vertices, got n={n}")
    G = object.__new__(Graph)
    G.__dict__.update(n=n, adj=adj, name=name, factors=factors)
    return G


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]], name: str | None = None,
                     factors: tuple[Graph, Graph] | None = None) -> Graph:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ParameterError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterError(f"edge {u}-{v} out of range for n={n}")
        adj[u].add(v)
        adj[v].add(u)
    return _trusted(n, tuple(map(frozenset, adj)), name, factors)


# -- connectivity -----------------------------------------------------------


def components(G: Graph) -> list[frozenset[int]]:
    seen = [False] * G.n
    out = []
    for s in range(G.n):
        if seen[s]:
            continue
        comp = {s}
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for u in G.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.add(u)
                    stack.append(u)
        out.append(frozenset(comp))
    return out


def is_connected(G: Graph) -> bool:
    """One flood fill from vertex 0 over a list of flags."""
    adj = G.adj
    seen = [False] * G.n
    seen[0] = True
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if not seen[u]:
                seen[u] = True
                stack.append(u)
    return False not in seen


def low_link(G: Graph) -> tuple[list[int], list[int], list[int]]:
    """One iterative depth-first pass over every component, started from
    the lowest unvisited vertex: the discovery time, low point and DFS-tree
    parent of each vertex, the parent being -1 at a root.

    A vertex's low point is the earliest discovery time it reaches by tree
    edges down and one back edge.  A tree edge pv is a bridge iff
    low[v] > disc[p], and a non-root p is a cut vertex iff some child v has
    low[v] >= disc[p].  Each component is discovered in one run of times,
    so the root 0's component is the vertices discovered before the next
    root."""
    adj = G.adj
    disc = [-1] * G.n
    low = [0] * G.n
    parent = [-1] * G.n
    timer = 0
    for root in range(G.n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            for u in it:
                if disc[u] < 0:
                    parent[u] = v
                    disc[u] = low[u] = timer
                    timer += 1
                    stack.append((u, iter(adj[u])))
                    break
                if disc[u] < low[v] and u != parent[v]:
                    low[v] = disc[u]
            else:
                stack.pop()
                p = parent[v]
                if p >= 0 and low[v] < low[p]:
                    low[p] = low[v]
    return disc, low, parent


def cut_vertices(G: Graph) -> frozenset[int]:
    """The cut vertices of G, from one :func:`low_link` pass: a root with
    two or more DFS children, or a non-root p with a child v that reaches
    no vertex above p (low[v] >= disc[p])."""
    disc, low, parent = low_link(G)
    cuts: set[int] = set()
    children = [0] * G.n
    for v, p in enumerate(parent):
        if p < 0:
            continue
        if parent[p] < 0:
            children[p] += 1
        elif low[v] >= disc[p]:
            cuts.add(p)
    return frozenset(cuts | {r for r, c in enumerate(children) if c >= 2})


def split_side(G: Graph, u: int, v: int) -> frozenset[int]:
    """The vertices reachable from u without passing through v: for a
    bridge uv, such as a tree edge, u's side once the edge is removed."""
    seen = {u}
    stack = [u]
    while stack:
        w = stack.pop()
        for x in G.adj[w]:
            if x != v and x not in seen:
                seen.add(x)
                stack.append(x)
    return frozenset(seen)


def is_tree(G: Graph) -> bool:
    return is_connected(G) and G.num_edges == G.n - 1


def regularity(G: Graph) -> int | None:
    """The common degree k when G is k-regular, else None."""
    degs = {len(s) for s in G.adj}
    return degs.pop() if len(degs) == 1 else None


def two_coloring(G: Graph, mate: list[int] | None = None) -> list[int] | None:
    """Colours 0/1 in which an edge changes colour exactly when it crosses,
    the lowest vertex of each component coloured 0; None when there are
    none.  Every edge crosses when ``mate`` is None, so the colouring is a
    proper 2-colouring; otherwise only the edges v-mate[v] cross, mate[v]
    being -1 at a vertex that no crossing edge meets."""
    adj = G.adj
    color = [-1] * G.n
    cross = mate is None
    for s in range(G.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            other = color[v] ^ cross  # a neighbour's colour, except at v's mate
            m = -1 if cross else mate[v]
            for u in adj[v]:
                want = other ^ 1 if u == m else other
                if color[u] < 0:
                    color[u] = want
                    stack.append(u)
                elif color[u] != want:
                    return None
    return color


def bipartition_classes(G: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Two color classes when G is bipartite, else None."""
    color = two_coloring(G)
    if color is None:
        return None
    return (frozenset(v for v, c in enumerate(color) if c == 0),
            frozenset(v for v, c in enumerate(color) if c == 1))


# -- complement and products ------------------------------------------------


def complement(G: Graph) -> Graph:
    adj = tuple(frozenset(u for u in range(G.n) if u != v and u not in G.adj[v])
                for v in range(G.n))
    name = None
    if G.name:
        name = f"co-{G.name}"
    return _trusted(G.n, adj, name)


def cartesian_product(G: Graph, H: Graph) -> Graph:
    """Cartesian product G box H with factor provenance retained.

    Vertex (g, h) gets index g * H.n + h.  (g1,h1) ~ (g2,h2) iff g1 = g2 and
    h1 ~ h2, or h1 = h2 and g1 ~ g2.  Both factors must be connected with at
    least two vertices.
    """
    for F in (G, H):
        if not is_connected(F):
            raise PreconditionError("product factors must be connected")
    hn = H.n
    # (g, h) is adjacent to (g, y) for y ~ h and to (x, h) for x ~ g; plain
    # loops, since a comprehension per vertex costs a frame on CPython 3.11
    adj = []
    for g, ng in enumerate(G.adj):
        base = g * hn
        for h, nh in enumerate(H.adj):
            row = []
            for y in nh:
                row.append(base + y)
            for x in ng:
                row.append(x * hn + h)
            adj.append(frozenset(row))
    name = None
    if G.name and H.name:
        name = f"{G.name}x{H.name}"
    return _trusted(G.n * hn, tuple(adj), name, (G, H))


def fiber(P: Graph, which: str, anchor: int) -> tuple[int, ...]:
    """Vertex set of one fiber of a product.

    ``which='left'`` with anchor g gives the copy of the right factor
    {(g, h) : h}, ``which='right'`` with anchor h the copy of the left factor.
    """
    if P.factors is None:
        raise PreconditionError("graph has no product provenance")
    G, H = P.factors
    if which == "left":
        if not 0 <= anchor < G.n:
            raise ParameterError(f"left anchor {anchor} out of range")
        return tuple(anchor * H.n + h for h in range(H.n))
    if which == "right":
        if not 0 <= anchor < H.n:
            raise ParameterError(f"right anchor {anchor} out of range")
        return tuple(g * H.n + anchor for g in range(G.n))
    raise ParameterError(f"which must be 'left' or 'right', got {which!r}")


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


# -- text format ------------------------------------------------------------


def parse_graph(text: str, name: str | None = None) -> Graph:
    """Parse the ``p <n> <m>`` / ``e <u> <v>`` text format (1-indexed).

    Repeated and reversed edges are accepted, and each edge counts once
    against the declared m."""
    n = m = None
    adj: list[set[int]] = []
    edges = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        kind = fields[0]
        if kind == "e":
            if n is None:
                raise GraphParseError("e line before p line", lineno)
            if len(fields) != 3:
                raise GraphParseError("e line must be 'e <u> <v>'", lineno)
            try:
                u = int(fields[1]) - 1
                v = int(fields[2]) - 1
            except ValueError:
                raise GraphParseError("e line has non-integer endpoints", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphParseError(f"endpoint out of range 1..{n}", lineno)
            if u == v:
                raise GraphParseError("self-loop", lineno)
            nu = adj[u]
            if v not in nu:
                nu.add(v)
                adj[v].add(u)
                edges += 1
        elif kind == "p":
            if n is not None:
                raise GraphParseError("duplicate p line", lineno)
            if len(fields) != 3:
                raise GraphParseError("p line must be 'p <n> <m>'", lineno)
            try:
                n, m = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphParseError("p line has non-integer fields", lineno)
            adj = [set() for _ in range(n)]
        elif not kind.startswith("c"):  # lines starting with c are comments
            raise GraphParseError(f"unknown line type {kind!r}", lineno)
    if n is None:
        raise GraphParseError("missing p line")
    if m != edges:
        raise GraphParseError(f"p line declares {m} edges but {edges} given")
    return _trusted(n, tuple(map(frozenset, adj)), name)


def emit_graph(G: Graph) -> str:
    """Canonical text emission; re-parsing and re-emitting is a fixed point."""
    lines = [f"p {G.n} {G.num_edges}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in G.edges()]
    return "\n".join(lines) + "\n"
