"""Seeded inputs and the operation lists of the three workloads.

Everything here is the benchmark's own code: graphs are generated as edge
lists, written out as degratio's ``p``/``e`` text, and run through the
public API by :func:`run_op`.  ``lib`` is any object with degratio's public
functions as attributes, so the traced run can pass wrapped ones.

Each instance draws from its own ``random.Random("<workload>:<seed>:<name>")``,
so the same seed always gives the same text, and changing one instance
leaves the others alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import oracle

WORKLOADS = ("solve-dense", "solve-sparse", "decide-known")


@dataclass(frozen=True)
class BenchGraph:
    """A generated graph together with what the checks need to know about it.

    ``text`` is the ``p``/``e`` text handed to ``parse_graph``.  A product
    is built from its two parsed factors with ``cartesian_product``, whose
    vertex (g, h) is ``g * factors[1].n + h``; a clique with ``clique=True``
    is built with ``complete(n)``.  ``known_q`` is the paper's closed form
    when one applies.
    """

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    text: str = ""
    factors: tuple["BenchGraph", "BenchGraph"] | None = None
    clique: bool = False
    known_q: Fraction | None = None
    regular: int | None = None


@dataclass(frozen=True)
class Op:
    """One user-level call chain on one graph."""

    kind: str
    graph: BenchGraph
    threshold: Fraction | None = None   # decide
    gadget: str | None = None           # gadget: the reductions generator
    fixed: BenchGraph | None = None     # gadget: the fixed factor of product_with_fixed

    @property
    def label(self) -> str:
        extra = f"@{self.threshold}" if self.threshold is not None else ""
        extra += f":{self.gadget}" if self.gadget else ""
        return f"{self.kind}{extra}:{self.graph.name}"


# -- edge-list generators ----------------------------------------------------


def _norm(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))


def to_text(n: int, edges) -> str:
    lines = [f"p {n} {len(edges)}"] + [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def _connected(n: int, edges) -> bool:
    adj = oracle.adjacency_masks(n, edges)
    seen, frontier = 1, 1
    while frontier:
        grow = 0
        rest = frontier
        while rest:
            low = rest & -rest
            rest ^= low
            grow |= adj[low.bit_length() - 1]
        frontier = grow & ~seen
        seen |= grow
    return seen == (1 << n) - 1


def relabel(rng: random.Random, n: int, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return _norm((perm[u], perm[v]) for u, v in edges)


def gnp(rng: random.Random, n: int):
    """G(n, 1/2), drawn again until connected."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        if _connected(n, edges):
            return _norm(edges)


def random_tree(rng: random.Random, n: int):
    """Uniform labelled tree from a random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = (w for w in range(n) if degree[w] == 1)
    edges.append((u, v))
    return _norm(edges)


def sparse_graph(rng: random.Random, n: int):
    """A random tree plus n//6 chords that each close a triangle, so most
    edges stay bridges and most inner vertices stay cut vertices."""
    edges = set(random_tree(rng, n))
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    added = 0
    while added < n // 6:
        mid = rng.randrange(n)
        if len(adj[mid]) < 2:
            continue
        u, v = rng.sample(sorted(adj[mid]), 2)
        if v in adj[u]:
            continue
        edges.add((min(u, v), max(u, v)))
        adj[u].add(v)
        adj[v].add(u)
        added += 1
    return _norm(edges)


def random_cubic(rng: random.Random, n: int):
    """Connected simple cubic graph from the pairing model, by rejection."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = list(zip(points[::2], points[1::2]))
        edges = _norm(pairs)
        if len(edges) == len(pairs) and all(u != v for u, v in pairs) \
                and _connected(n, edges):
            return edges


def complete_edges(n: int):
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def path_edges(n: int):
    return tuple((i, i + 1) for i in range(n - 1))


def cycle_edges(n: int):
    return _norm((i, (i + 1) % n) for i in range(n))


def bipartite_edges(a: int, b: int):
    return tuple((i, a + j) for i in range(a) for j in range(b))


def ktriangle_edges(k: int):
    """T_k: an edge st plus k vertices adjacent to both s and t."""
    return _norm([(0, 1)] + [(0, 2 + i) for i in range(k)] + [(1, 2 + i) for i in range(k)])


def circulant12_edges(n: int):
    """C_n(1,2): the 4-regular square of the n-cycle."""
    return _norm((i, (i + s) % n) for i in range(n) for s in (1, 2))


NAMED_CUBIC = {
    "K4": complete_edges(4),
    "K33": bipartite_edges(3, 3),
    "prism": ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5)),
    "cube": _norm((a, b) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1),
    "wagner": _norm([(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]),
    "petersen": _norm([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
}


def product_edges(g: BenchGraph, h: BenchGraph):
    """Edges of g box h with vertex (a, b) numbered a * h.n + b."""
    edges = [(a * h.n + u, a * h.n + v) for a in range(g.n) for u, v in h.edges]
    edges += [(u * h.n + b, v * h.n + b) for b in range(h.n) for u, v in g.edges]
    return _norm(edges)


def _regularity(n: int, edges) -> int | None:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg[0] if len(set(deg)) == 1 else None


def graph(name: str, n: int, edges, known_q: Fraction | None = None) -> BenchGraph:
    edges = _norm(edges)
    return BenchGraph(name, n, edges, to_text(n, edges), known_q=known_q,
                      regular=_regularity(n, edges))


def product(g: BenchGraph, h: BenchGraph, known_q: Fraction) -> BenchGraph:
    n = g.n * h.n
    edges = product_edges(g, h)
    return BenchGraph(f"{g.name}x{h.name}", n, edges, factors=(g, h),
                      known_q=known_q, regular=_regularity(n, edges))


# -- the workloads -----------------------------------------------------------


def _rng(workload: str, seed: int, name: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{name}")


def solve_dense(seed: int) -> list[Op]:
    rng = lambda name: _rng("solve-dense", seed, name)
    graphs = []
    for n in (21, 22, 23):
        for i in range(16):
            name = f"gnp{n}.{i}"
            graphs.append(graph(name, n, gnp(rng(name), n)))
    for n in (16, 17, 18, 19, 20):
        graphs.append(BenchGraph(f"K{n}", n, complete_edges(n), clique=True,
                                 known_q=oracle.clique_q(n), regular=n - 1))
    for a, b in ((6, 10), (7, 8), (8, 9)):
        name = f"K{a},{b}"
        graphs.append(graph(name, a + b, relabel(rng(name), a + b, bipartite_edges(a, b))))
    for k in (12, 14, 16):
        name = f"T{k}"
        graphs.append(graph(name, k + 2, relabel(rng(name), k + 2, ktriangle_edges(k)),
                            known_q=oracle.ktriangle_q(k)))
    return [Op("solve", g) for g in graphs]


def solve_sparse(seed: int) -> list[Op]:
    rng = lambda name: _rng("solve-sparse", seed, name)
    graphs = []
    for n in (16, 24, 32, 40):
        name = f"P{n}"
        edges = relabel(rng(name), n, path_edges(n))
        graphs.append(graph(name, n, edges, known_q=oracle.tree_q(n, edges)))
    for n in (16, 22, 28, 34):
        name = f"tree{n}"
        edges = relabel(rng(name), n, random_tree(rng(name), n))
        graphs.append(graph(name, n, edges, known_q=oracle.tree_q(n, edges)))
    for n in (18, 24, 30, 36):
        name = f"sparse{n}"
        graphs.append(graph(name, n, relabel(rng(name), n, sparse_graph(rng(name), n))))
    return [Op("solve", g) for g in graphs]


def _known_graphs(seed: int) -> list[BenchGraph]:
    rng = lambda name: _rng("decide-known", seed, name)
    graphs = []
    for n in (5, 9, 12, 15, 16):
        name = f"K{n}"
        graphs.append(graph(name, n, complete_edges(n), known_q=oracle.clique_q(n)))
    for k in (5, 8, 11, 14):
        name = f"T{k}"
        graphs.append(graph(name, k + 2, relabel(rng(name), k + 2, ktriangle_edges(k)),
                            known_q=oracle.ktriangle_q(k)))
    cubic = {}
    for name, edges in NAMED_CUBIC.items():
        n = max(max(e) for e in edges) + 1
        special = name in ("K4", "K33")
        cubic[name] = graph(name, n, relabel(rng(name), n, edges),
                            known_q=oracle.cubic_q(special))
    for n in (12, 16, 20, 24):
        name = f"cubic{n}"
        cubic[name] = graph(name, n, random_cubic(rng(name), n), known_q=oracle.cubic_q(False))
    graphs += cubic.values()
    for n in (8, 11, 15, 20):
        name = f"C{n}(1,2)"
        # 4-regular without a matching-cut for n >= 6
        graphs.append(graph(name, n, relabel(rng(name), n, circulant12_edges(n)),
                            known_q=oracle.four_regular_q(False, False)))
    k4, k33 = cubic["K4"], cubic["K33"]
    graphs.append(product(k4, k4, oracle.product_cubic_q(True)))
    graphs.append(product(k4, k33, oracle.product_cubic_q(True)))
    graphs.append(product(cubic["prism"], k4, oracle.product_cubic_q(False)))
    graphs.append(product(cubic["cube"], k4, oracle.product_cubic_q(False)))
    regular = [graph("C5", 5, cycle_edges(5)), k4,
               graph("C7(1,2)", 7, circulant12_edges(7)), k33]
    for base, tree_n in zip(regular, (6, 5, 4, 4)):
        name = f"tree{tree_n}"
        t = graph(f"tree{tree_n}", tree_n, random_tree(rng(f"{base.name}x{name}"), tree_n))
        graphs.append(product(base, t, oracle.product_regular_tree_q(
            base.regular, t.n, t.edges)))
    return graphs


GADGETS = (
    ("bipartite_double_cover", ("petersen", "prism", "K5", "wagner")),
    ("cover_plus_matching", ("K33", "C8")),
    ("twin_expand_then_K2", ("P4", "P6", "C6", "cube")),
    ("product_with_fixed", ("C4", "C6", "K33", "cube")),
)


def _gadget_sources() -> dict[str, BenchGraph]:
    named = {name: graph(name, max(max(e) for e in edges) + 1, edges)
             for name, edges in NAMED_CUBIC.items()}
    named["K5"] = graph("K5", 5, complete_edges(5))
    for n in (4, 6, 8):
        named[f"C{n}"] = graph(f"C{n}", n, cycle_edges(n))
    for n in (4, 6):
        named[f"P{n}"] = graph(f"P{n}", n, path_edges(n))
    return named


def decide_known(seed: int) -> list[Op]:
    ops = []
    for g in _known_graphs(seed):
        above = oracle.next_candidate_above(g.n, g.edges, g.known_q)
        ops += [Op("decide", g, threshold=g.known_q), Op("decide", g, threshold=above),
                Op("matching_cut", g), Op("upper_bound", g), Op("class_bound", g),
                Op("lb_witness", g)]
        # closed_form hands back T_k's witness in the labelling with apexes
        # 0 and 1, which is wrong for a relabelled T_k (see CHANGES.md)
        if not g.name.startswith("T"):
            ops.append(Op("closed_form", g))
    sources = _gadget_sources()
    for gadget, names in GADGETS:
        for name in names:
            fixed = sources["K4"] if gadget == "product_with_fixed" else None
            ops.append(Op("gadget", sources[name], gadget=gadget, fixed=fixed))
    return ops


BUILDERS = {"solve-dense": solve_dense, "solve-sparse": solve_sparse,
            "decide-known": decide_known}


def build_ops(workload: str, seed: int) -> list[Op]:
    return BUILDERS[workload](seed)


def graphs_of(ops: list[Op]) -> list[BenchGraph]:
    """Distinct graphs of an operation list, in first-use order."""
    seen = {}
    for op in ops:
        seen.setdefault(id(op.graph), op.graph)
    return list(seen.values())


# -- running one operation ---------------------------------------------------


def build(lib, g: BenchGraph):
    if g.clique:
        return lib.complete(g.n)
    if g.factors is not None:
        left, right = g.factors
        return lib.cartesian_product(lib.parse_graph(left.text), lib.parse_graph(right.text))
    return lib.parse_graph(g.text)


def run_op(lib, op: Op):
    """Run one operation; returns (answer, QualityReport of its witness or None)."""
    G = build(lib, op.graph)
    if op.kind == "solve":
        res = lib.solve_q(G)
        return res, lib.partition_quality(G, res.optimal_partition)
    if op.kind == "decide":
        res = lib.decide(G, op.threshold)
        return res, (lib.partition_quality(G, res.witness) if res.satisfied else None)
    if op.kind == "matching_cut":
        res = lib.find_matching_cut(G)
        return res, (lib.partition_quality(G, res.partition) if res.has_cut else None)
    if op.kind == "closed_form":
        res = lib.closed_form(G)
        return res, lib.partition_quality(G, res.witness)
    if op.kind == "upper_bound":
        return lib.edge_upper_bound(G), None
    if op.kind == "class_bound":
        return lib.class_lower_bound(G), None
    if op.kind == "lb_witness":
        res = lib.lower_bound_witness(G)
        return res, lib.partition_quality(G, res.partition)
    if op.kind == "gadget":
        args = (G, lib.parse_graph(op.fixed.text)) if op.fixed else (G,)
        inst = getattr(lib, op.gadget)(*args)
        return inst, lib.verify_equivalence(inst)
    raise ValueError(f"unknown operation kind {op.kind!r}")
