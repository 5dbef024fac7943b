"""Built-in graph catalog and seeded random graph sampling for the
verification suites and tests."""

from __future__ import annotations

import random

from .errors import ParameterError
from .graph import Graph, cartesian_product, graph_from_edges, is_connected
from .named import build_named

_BASE_NAMES = (
    "K2", "K3", "K4", "K5", "K6", "K7", "K5-e",
    "C3", "C4", "C5", "C6", "C7", "C8",
    "P3", "P4", "P5",
    "claw", "diamond", "T1", "T2", "T3", "T4", "T5",
    "coK2claw", "K23", "K33", "K44",
    "prism", "cube", "wagner", "petersen", "W5",
)

_CUBIC_NAMES = ("K4", "K33", "prism", "cube", "wagner", "prod:C5,K2", "petersen")

_PRODUCT_FACTOR_NAMES = ("K2", "K3", "C4", "K4", "K33", "prism")

_MAX_TRIES = 10_000


def base_catalog() -> tuple[Graph, ...]:
    """Connected named graphs with at most 10 vertices."""
    return tuple([build_named(name) for name in _BASE_NAMES])


def cubic_catalog() -> tuple[Graph, ...]:
    """Every connected cubic catalog graph with at most 10 vertices."""
    return tuple([build_named(name) for name in _CUBIC_NAMES])


def product_pairs(max_product: int = 24):
    """Ordered factor pairs whose product has at most ``max_product``
    vertices, with the product itself."""
    factors = [build_named(name) for name in _PRODUCT_FACTOR_NAMES]
    for G in factors:
        for H in factors:
            if G.n * H.n <= max_product:
                yield G, H, cartesian_product(G, H)


def random_connected_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    """Erdos-Renyi sample rejected until connected."""
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if not 0 < p <= 1:
        raise ParameterError(f"edge probability must lie in (0, 1], got {p}")
    for _ in range(_MAX_TRIES):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        G = graph_from_edges(n, edges, name=f"gnp({n},{p})")
        if is_connected(G):
            return G
    raise RuntimeError(f"no connected sample after {_MAX_TRIES} tries")
