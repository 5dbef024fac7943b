"""Exact rational degree ratios, bipartitions, and cut structure.

All q-values are :class:`fractions.Fraction` values in canonical reduced
form; floating point is never used in verdicts.  :func:`min_ratio` finds a
partition's quality as an int pair, comparing ratios kept/d[v] by
cross-multiplying, and :func:`certify` uses it to check a witness against
the value claimed for it.  :func:`partition_quality` stays the per-vertex
``Fraction`` report.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError, ParameterError, PreconditionError
from .graph import Graph


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
        object.__setattr__(self, "sides", tuple(self.sides))
        labels = set(self.sides)
        if not labels <= {1, 2}:
            raise ParameterError("side labels must be 1 or 2")
        if len(labels) < 2:
            raise ParameterError("both sides of a partition must be nonempty")

    @classmethod
    def from_side1(cls, n: int, side1) -> "Bipartition":
        side1 = set(side1)
        if side1 and (min(side1) < 0 or max(side1) >= n):
            raise ParameterError(f"side-1 labels must lie in 0..{n - 1}")
        return cls(tuple([1 if v in side1 else 2 for v in range(n)]))

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Bipartition":
        return cls(tuple([1 if mask >> v & 1 else 2 for v in range(n)]))

    @classmethod
    def from_string(cls, text: str) -> "Bipartition":
        try:
            return cls(tuple([int(c) for c in text.strip()]))
        except ValueError:
            raise ParameterError(f"bad partition string {text!r}")

    def side(self, i: int) -> frozenset[int]:
        return frozenset(v for v, s in enumerate(self.sides) if s == i)

    def to_string(self) -> str:
        return "".join(str(s) for s in self.sides)

    def flipped(self) -> "Bipartition":
        return Bipartition(tuple([3 - s for s in self.sides]))

    def __len__(self):
        return len(self.sides)


def _check(G: Graph, P: Bipartition):
    if len(P) != G.n:
        raise ParameterError(f"partition over {len(P)} vertices, graph has {G.n}")


def vertex_ratio(G: Graph, P: Bipartition, v: int) -> Fraction:
    """Degree ratio of v: fraction of its closed neighborhood on its own side."""
    _check(G, P)
    if not 0 <= v < G.n:
        raise ParameterError(f"vertex {v} out of range 0..{G.n - 1}")
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
    vertex as witness.

    One ``Fraction`` is built per distinct (kept, d[v]) pair, and the minimum
    is found by cross-multiplying ints; the witness is the first vertex whose
    ratio has the minimum value (2/4 and 1/2 tie)."""
    _check(G, P)
    sides = P.sides
    ratios: dict[tuple[int, int], Fraction] = {}
    per_vertex = []
    bk, bd, witness = 2, 1, 0
    for v, (a, s) in enumerate(zip(G.adj, sides)):
        k = 1
        for u in a:
            if sides[u] == s:
                k += 1
        d = len(a) + 1
        r = ratios.get((k, d))
        if r is None:
            r = ratios[k, d] = Fraction(k, d)
        per_vertex.append(r)
        if k * bd < bk * d:
            bk, bd, witness = k, d, v
    return QualityReport(tuple(per_vertex), ratios[bk, bd], witness)


def min_ratio(G: Graph, sides) -> tuple[int, int]:
    """The quality of the partition with side labels ``sides`` as an
    unreduced ratio (kept, d1): the smallest share of a closed neighborhood
    kept on its own side, the first such vertex winning ties."""
    bk = bd = 1
    for a, s in zip(G.adj, sides):
        k = 1
        for u in a:
            if sides[u] == s:
                k += 1
        d = len(a) + 1
        if k * bd < bk * d:
            bk, bd = k, d
    return bk, bd


_RELATIONS = {"==": operator.eq, ">=": operator.ge, ">": operator.gt}


def certify(G: Graph, P: Bipartition, bound: Fraction,
            relation: str = ">=") -> Fraction:
    """The quality of P, recomputed by :func:`min_ratio`, when it is
    ``relation`` (``"=="``, ``">="`` or ``">"``) the bound; raises
    :class:`CertificateError` otherwise."""
    compare = _RELATIONS.get(relation)
    if compare is None:
        raise ParameterError(f"relation must be '==', '>=' or '>', got {relation!r}")
    _check(G, P)
    quality = Fraction(*min_ratio(G, P.sides))
    if not compare(quality, bound):
        raise CertificateError(f"witness quality {format_ratio(quality)} is not "
                               f"{relation} {format_ratio(bound)}")
    return quality


def top_edge(G: Graph) -> tuple[tuple[int, int], int]:
    """The first edge uv, in ``G.edges()`` order, that maximizes
    top = min(d[u], d[v]) over closed degrees, and that top.

    (t - 1)/t grows with t, so uv also maximizes min(d(u)/d[u], d(v)/d[v]),
    and the edge upper bound on q(G) is (top - 1)/top.  The adjacency sets
    are walked unsorted: a later u must beat top strictly, and among the
    neighbors v > u of one u a tie goes to the lower v.  No edge beats the
    largest closed degree, so the walk stops when top reaches it.
    """
    d1 = [len(a) + 1 for a in G.adj]
    most = max(d1)
    best, top = None, 0
    for u, a in enumerate(G.adj):
        du = d1[u]
        if du <= top:
            continue
        bt, bv = top, -1
        for v in a:
            if v > u:
                t = d1[v] if d1[v] < du else du
                if t > bt or (t == bt and 0 <= bv and v < bv):
                    bt, bv = t, v
        if bv >= 0:
            best, top = (u, bv), bt
            if top == most:
                break
    if best is None:
        raise PreconditionError("the graph has no edge")
    return best, top


def crossing_edges(G: Graph, P: Bipartition) -> list[tuple[int, int]]:
    """Edges with one endpoint on each side."""
    _check(G, P)
    return [(u, v) for u, v in G.edges() if P.sides[u] != P.sides[v]]


def is_matching(G: Graph, edges) -> bool:
    """True iff the given edges of G are pairwise vertex-disjoint."""
    seen: set[int] = set()
    for u, v in edges:
        if not (0 <= u < G.n and 0 <= v < G.n):
            raise ParameterError(f"edge {(u, v)} has a label outside 0..{G.n - 1}")
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
    proof-of-absence marker backed by exhaustive (or factor-rule) search.
    ``explored`` is the number of assignments that search made."""

    has_cut: bool
    partition: Bipartition | None
    crossing: tuple[tuple[int, int], ...]
    explored: int = 0

    def __post_init__(self):
        if self.has_cut and self.partition is None:
            raise ParameterError("has_cut certificate requires a partition")
        if not self.has_cut and self.partition is not None:
            raise ParameterError("no_cut certificate carries no partition")

    def __bool__(self):
        return self.has_cut
