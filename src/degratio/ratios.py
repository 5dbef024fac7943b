"""Exact rational degree ratios, bipartitions, and cut structure.

All q-values are :class:`fractions.Fraction` values in canonical reduced
form; floating point is never used in verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError
from .graph import Graph

Ratio = Fraction


def format_ratio(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"


def parse_ratio(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse ratio {text!r}: {exc}")


@dataclass(frozen=True)
class Bipartition:
    """A two-sided vertex partition; both sides are always nonempty."""

    sides: tuple[int, ...]  # 1 or 2 per vertex

    def __post_init__(self):
        if any(s not in (1, 2) for s in self.sides):
            raise ParameterError("side labels must be 1 or 2")
        if 1 not in self.sides or 2 not in self.sides:
            raise ParameterError("both sides of a partition must be nonempty")

    @classmethod
    def from_side1(cls, n: int, side1) -> "Bipartition":
        side1 = set(side1)
        return cls(tuple(1 if v in side1 else 2 for v in range(n)))

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Bipartition":
        return cls(tuple(1 if mask >> v & 1 else 2 for v in range(n)))

    @classmethod
    def from_string(cls, text: str) -> "Bipartition":
        try:
            return cls(tuple(int(c) for c in text.strip()))
        except ValueError:
            raise ParameterError(f"bad partition string {text!r}")

    def side(self, i: int) -> frozenset[int]:
        return frozenset(v for v, s in enumerate(self.sides) if s == i)

    def to_string(self) -> str:
        return "".join(str(s) for s in self.sides)

    def flipped(self) -> "Bipartition":
        return Bipartition(tuple(3 - s for s in self.sides))

    def __len__(self):
        return len(self.sides)


def _check(G: Graph, P: Bipartition):
    if len(P) != G.n:
        raise ParameterError(f"partition over {len(P)} vertices, graph has {G.n}")


def vertex_ratio(G: Graph, P: Bipartition, v: int) -> Fraction:
    """Degree ratio of v: fraction of its closed neighborhood on its own side."""
    _check(G, P)
    side = P.sides[v]
    kept = 1 + sum(1 for u in G.adj[v] if P.sides[u] == side)
    return Fraction(kept, G.closed_degree(v))


@dataclass(frozen=True)
class QualityReport:
    per_vertex: tuple[Fraction, ...]
    quality: Fraction
    witness_vertex: int


def partition_quality(G: Graph, P: Bipartition) -> QualityReport:
    """Minimum vertex ratio over the partition, with the smallest attaining
    vertex as witness."""
    _check(G, P)
    per_vertex = tuple(vertex_ratio(G, P, v) for v in range(G.n))
    quality = min(per_vertex)
    witness = per_vertex.index(quality)
    return QualityReport(per_vertex, quality, witness)


def crossing_edges(G: Graph, P: Bipartition) -> list[tuple[int, int]]:
    """Edges with one endpoint on each side."""
    _check(G, P)
    return [(u, v) for u, v in G.edges() if P.sides[u] != P.sides[v]]


def is_matching(G: Graph, edges) -> bool:
    """True iff the given edges of G are pairwise vertex-disjoint."""
    seen: set[int] = set()
    for u, v in edges:
        if v not in G.adj[u]:
            raise ParameterError(f"{(u, v)} is not an edge of the graph")
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


@dataclass(frozen=True)
class MatchingCutCertificate:
    """Either a partition whose crossing edges form a matching, or a
    proof-of-absence marker backed by exhaustive (or factor-rule) search."""

    has_cut: bool
    partition: Bipartition | None
    crossing: tuple[tuple[int, int], ...]
    exhaustive: bool = True

    def __post_init__(self):
        if self.has_cut and self.partition is None:
            raise ParameterError("has_cut certificate requires a partition")
        if not self.has_cut and self.partition is not None:
            raise ParameterError("no_cut certificate carries no partition")

    def __bool__(self):
        return self.has_cut
