"""Shared fixtures and independent brute-force oracles.

The oracles deliberately share no code with the library's pruned search:
they enumerate every bipartition directly and are the ground truth the
solver is checked against on small instances.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from degratio.graph import Graph
from degratio.ratios import Bipartition, partition_quality


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


def naive_climb(G: Graph, P: Bipartition) -> Bipartition:
    """Reference hill climb: each round rescores every single-vertex flip
    that leaves both sides nonempty and takes the first strictly best one,
    for at most 4n rounds."""
    cur = P
    cur_q = partition_quality(G, cur).quality
    for _ in range(4 * G.n):
        best, best_q = None, cur_q
        for v in range(G.n):
            sides = list(cur.sides)
            sides[v] = 3 - sides[v]
            if sides.count(cur.sides[v]) == 0:
                continue
            cand = Bipartition(tuple(sides))
            q = partition_quality(G, cand).quality
            if q > best_q:
                best, best_q = cand, q
        if best is None:
            return cur
        cur, cur_q = best, best_q
    return cur


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
