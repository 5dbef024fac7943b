"""Shared fixtures and independent brute-force oracles.

The oracles deliberately share no code with the library's pruned search:
they enumerate every bipartition directly and are the ground truth the
solver is checked against on small instances.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest

from degratio.catalog import random_connected_graph
from degratio.graph import Graph, graph_from_edges
from degratio.ratios import Bipartition


def naive_q(G: Graph) -> tuple[Fraction, Bipartition]:
    """Ground-truth q(G) by full enumeration of 2^n - 2 bipartitions."""
    best = None
    best_mask = None
    for mask in range(1, (1 << G.n) - 1):
        worst = None
        for v in range(G.n):
            mine = mask >> v & 1
            kept = 1 + sum(1 for u in G.adj[v] if mask >> u & 1 == mine)
            r = Fraction(kept, len(G.adj[v]) + 1)
            if worst is None or r < worst:
                worst = r
        if best is None or worst > best:
            best, best_mask = worst, mask
    return best, Bipartition.from_mask(G.n, best_mask)


def naive_matching_cut(G: Graph) -> bool:
    """Ground-truth matching-cut existence by full partition enumeration."""
    for mask in range(1, (1 << G.n) - 1):
        touched = set()
        ok = True
        for u, v in G.edges():
            if (mask >> u & 1) != (mask >> v & 1):
                if u in touched or v in touched:
                    ok = False
                    break
                touched.add(u)
                touched.add(v)
        if ok:
            return True
    return False


def naive_demand_partition(G: Graph, f) -> bool:
    """Ground-truth existence of a nontrivial bipartition in which each
    vertex v has at least f[v] neighbors on its own side."""
    nbrs = [sum(1 << u for u in G.adj[v]) for v in range(G.n)]
    full = (1 << G.n) - 1
    for mask in range(1, full):
        if all((nbrs[v] & (mask if mask >> v & 1 else full ^ mask)).bit_count() >= f[v]
               for v in range(G.n)):
            return True
    return False


def paley(p: int) -> Graph:
    """The Paley graph on the integers mod a prime p = 1 (mod 4): u and v are
    adjacent when v - u is a nonzero quadratic residue."""
    residues = {x * x % p for x in range(1, p)}
    return graph_from_edges(p, [(u, v) for u in range(p) for v in range(u + 1, p)
                                if (v - u) % p in residues])


@functools.cache
def witness_set() -> tuple[Graph, ...]:
    """Seeded random connected graphs for the lower-bound witnesses: five
    G(n, p) for each n in (23, 26, 30, 40, 60) and p in (.1, .2, .4, .7),
    drawn from random.Random(7) in this order."""
    rng = random.Random(7)
    return tuple(random_connected_graph(rng, n, p) for n in (23, 26, 30, 40, 60)
                 for p in (.1, .2, .4, .7) for _ in range(5))


@pytest.fixture(scope="session")
def catalog():
    from degratio.catalog import base_catalog
    return base_catalog()


# one line per acceptance criterion, echoed after the run summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
