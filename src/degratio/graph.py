"""Simple undirected graphs: representation, builders, cartesian products
with fiber provenance, one low-link pass whose discovery times and subtree
ends give the bridges and their sides, the cut vertices and the
components, one two-colouring, and the ``p``/``e`` text format.  The
named constructions and pattern search live in ``named``, which a solve
does not import.

Vertices are dense integer labels 0..n-1.  Graph values are immutable after
construction.  Adjacency is checked once, where it enters: a direct
``Graph(n, adj)`` stores its rows as frozensets and checks that they are
symmetric, loop-free and in range, and ``graph_from_edges`` and
``parse_graph`` check each edge as they read it.  They, ``complement``,
``cartesian_product`` and ``relabel`` then build through ``_trusted``,
which skips ``Graph``'s O(m) walk.
"""

from __future__ import annotations

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
        # rows become frozensets, so a repeated neighbour counts once; tuples
        # are built from lists, which give them their final size at once
        object.__setattr__(self, "adj", tuple(list(map(frozenset, self.adj))))
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


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]],
                     name: str | None = None) -> Graph:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ParameterError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterError(f"edge {u}-{v} out of range for n={n}")
        adj[u].add(v)
        adj[v].add(u)
    return _trusted(n, tuple(list(map(frozenset, adj))), name)


# -- connectivity -----------------------------------------------------------


def components(G: Graph) -> list[frozenset[int]]:
    """The vertex sets of G's components, in order of their lowest vertex,
    read off one :func:`low_link` pass as the roots' subtrees."""
    disc, _, parent, end = low_link(G)
    return root_subtrees(disc, parent, end)


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


def low_link(G: Graph) -> tuple[list[int], list[int], list[int], list[int]]:
    """One iterative depth-first pass over every component, started from
    the lowest unvisited vertex: the discovery time, low point, DFS-tree
    parent and subtree end of each vertex, the parent being -1 at a root.

    A vertex's low point is the earliest discovery time it reaches by tree
    edges down and one back edge.  A tree edge pv is a bridge iff
    low[v] > disc[p], and a non-root p is a cut vertex iff some child v has
    low[v] >= disc[p].  A subtree is discovered in one run of times: v's
    subtree is the x with disc[v] <= disc[x] < end[v].  So a root's subtree
    is its component, and a bridge pv's side at v is v's subtree."""
    adj = G.adj
    disc = [-1] * G.n
    low = [0] * G.n
    parent = [-1] * G.n
    end = [0] * G.n
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
                end[v] = timer
                p = parent[v]
                if p >= 0 and low[v] < low[p]:
                    low[p] = low[v]
    return disc, low, parent, end


def subtree_sides(disc: list[int], end: list[int], v: int) -> tuple[int, ...]:
    """Sides from one :func:`low_link` pass: 1 on v's DFS subtree, 2 on
    every other vertex."""
    lo, hi = disc[v], end[v]
    return tuple([1 if lo <= t < hi else 2 for t in disc])


def root_subtrees(disc: list[int], parent: list[int],
                  end: list[int]) -> list[frozenset[int]]:
    """The subtrees of the roots of one :func:`low_link` pass, that is the
    components, each a slice of the vertices in discovery order."""
    order = [0] * len(disc)
    for v, t in enumerate(disc):
        order[t] = v
    return [frozenset(order[disc[r]:end[r]]) for r, p in enumerate(parent) if p < 0]


def cut_vertices(G: Graph) -> frozenset[int]:
    """The cut vertices of G, from one :func:`low_link` pass: a root with
    two or more DFS children, or a non-root p with a child v that reaches
    no vertex above p (low[v] >= disc[p])."""
    disc, low, parent, _ = low_link(G)
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
    adj = tuple([frozenset(u for u in range(G.n) if u != v and u not in G.adj[v])
                 for v in range(G.n)])
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
        return tuple(range(anchor * H.n, (anchor + 1) * H.n))
    if which == "right":
        if not 0 <= anchor < H.n:
            raise ParameterError(f"right anchor {anchor} out of range")
        return tuple(range(anchor, G.n * H.n, H.n))
    raise ParameterError(f"which must be 'left' or 'right', got {which!r}")


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
    return _trusted(n, tuple(list(map(frozenset, adj))), name)


def emit_graph(G: Graph) -> str:
    """Canonical text emission; re-parsing and re-emitting is a fixed point."""
    lines = [f"p {G.n} {G.num_edges}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in G.edges()]
    return "\n".join(lines) + "\n"
