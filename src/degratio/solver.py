"""Exact computation of the optimal degree ratio q(G), the decision
"q(G) >= q", and matching-cut detection, by one partition search; the
degree-constrained partitions of ``construct`` use the same search.

``solve_q`` and ``decide`` each run at most one search and no sub-solve, so
the budget bounds the whole call and ``explored`` counts all of its work.
A disconnected graph needs no search: a component splits it with quality 1.
``solve_q`` makes one low-link pass before its search, which finds the
components and every bridge; both kinds of split are DFS subtrees of that
pass, so no second flood builds them.  A split at a bridge uv cuts only
the edge uv, so its quality is exactly (t - 1)/t for t = min(d[u], d[v]).
The bridge with the largest t gives the first incumbent; when t is the top
of the edge upper bound (top - 1)/top, that split is optimal and no search
runs.  Otherwise the search starts from that incumbent, or from 0/1 on a
bridgeless graph, under which the caps allow every partition.  It finds
better incumbents at the leaves and stops at the first leaf that meets the
edge upper bound.  ``decide`` stops at its first leaf.

Each search asks for a nontrivial partition in which each vertex v has at
most cap[v] neighbors on the other side.  The caps do not depend on the
side, so the search fixes vertex 0 on side 1 (complement symmetry halves
the space).

The search branches in maximum-cardinality-search order: vertex 0 first,
then always a vertex with the most placed neighbors, so each decision meets
as many constraints as possible early.  Every assignment is propagated (the
rules are listed in ``_search``).  Each forced assignment is implied by the
caps and the assignments already made: a vertex with more than cap[v]
neighbors on side s cannot go on the other side, and a saturated vertex u,
one with exactly cap[u] neighbors across, cannot take another crossing
edge, so its free neighbors must join its side.  A branch dies when a
vertex is pushed over its cap; a vertex forced onto both sides would kill
it too, but ``_search`` shows that none is.

The pair rule looks at two placed vertices at once: u on side 1 and x on
side 2, with slacks r_u = cap[u] - cross(u) and r_x = cap[x] - cross(x),
where cross counts the neighbors across.  Let C be their free common
neighbors and k = |C|.  Each w in C costs one of them a crossing edge,
whichever side w takes (wx on side 1, wu on side 2), so the edges to C take
k of the r_u + r_x crossing edges that u and x can still take.  So
k > r_u + r_x kills the branch, and at k = r_u + r_x the edges to C use up
both slacks: no other crossing edge may reach u or x, so u's other free
neighbors join side 1 and x's join side 2.  A saturated vertex never
pairs: at a propagation fixpoint its free neighbors have all joined its
side, so it has none, and the rule takes only placed vertices whose slack
is below their free neighbor count (k is at most either count).

An assignment costs little.  Saturation is lazy: a saturated vertex's free
neighbors are listed only when the propagation queue reaches it, so a
conflict found first saves the list, and they are listed by a plain loop:
CPython 3.11 builds a frame for every comprehension it runs (3.12 inlines
them, PEP 709, so the loop gains less there and loses nothing).  A graph
without twins skips the twin rule below.  Undo has two paths.  On a dense
graph, ``n * n <= 8 * m``, each decision saves the two neighbor-count
arrays and backtracking restores them; the copies hold at most 2n^2 <= 16m
counts, a constant multiple of the adjacency.  On a sparser graph, where
such copies would be quadratic in the size of a long path or tree, undo
decrements the counts of each undone vertex's neighbors instead.  The pair
rule runs on the first path only; ``_search`` says why.

``solve_q`` lowers the caps as its incumbent improves.  Caps only go down,
so a forced assignment made under an older cap is still forced under the
newer one: "more than the old cap" implies "more than the new cap", a
vertex saturated under the old cap is at or over the new one, and a pair
whose k met or exceeded the old slacks meets or exceeds the new ones.  A
lowered cap is checked only where a count changes later, so a leaf may fall
short of the newest incumbent.  So ``solve_q`` scores every leaf, in O(n)
from the search's own neighbor counts, and a witness found by its search is
certified by ``ratios.certify`` before it is returned.  The same lag can
leave a placed vertex over its new cap, with a negative slack, when the
pair rule reads it; then every leaf below breaks the current caps, and
such a leaf is no better than the incumbent, so pruning it loses nothing.

It also breaks twin symmetry.  True twins (N[u] = N[w]) and false twins
(N(u) = N(w)) can be swapped by an automorphism, and every question asked
here is invariant under an automorphism that keeps the caps.  Twins have
equal degrees, so the caps of ``decide``, matching-cut and ``solve_q``
agree on them, but two twins may have different degree demands.  So a
twin class is taken only among twins with equal caps.  Inside each class,
taken in search order, a later twin never goes on side 1 while an earlier
one is on side 2: sorting each class by side maps any partition to an
equivalent one that obeys the rule.  The two rules agree because vertex 0
comes first in the search order, hence first in its class, and a partition
with vertex 0 on side 1 keeps it there once each class is sorted.  No
vertex has both a true twin w and a false twin x (w in N(u) = N(x) gives
x in N[w] = N[u], so x in N(u) = N(x)), so the classes of both kinds are
disjoint.

The twin rule is a chain of clauses between consecutive twins of a class,
"the later one on side 1 implies the earlier one on side 1", which is the
same as "the earlier one on side 2 implies the later one on side 2".  The
clauses are fixed by the search order before the search starts and do not
depend on which vertex is assigned first, so propagating them in both
directions, from whichever twin of a pair is assigned first, forces only
what every partition obeying the rule already has.  Every other rule,
the pair rule included, follows from the caps alone, so it keeps every
partition that meets them, and so every one that obeys the twin chain too.

The caps are:

- ``decide(G, q)``: ``d[v] * (den - num) // den``, i.e. ratio >= q;
- matching-cut: 1;
- a degree demand f(v), "v keeps at least f(v) neighbors on its side":
  ``d(v) - f(v)``;
- ``solve_q``: ``(d[v] * (den - num) - 1) // den`` for the incumbent's
  num/den, i.e. strictly better; the caps are lowered after each improving
  leaf, which makes the search a branch and bound.

The budget bounds ``explored``, the number of assignments the search
attempts, decided or forced.  Failure to finish within it raises
:class:`BudgetExceededError`; the answer is never silently inexact.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import (BudgetExceededError, CertificateError, ParameterError,
                     PreconditionError)
from .graph import (Graph, cartesian_product, is_connected, low_link,
                    subtree_sides)
from .ratios import (Bipartition, MatchingCutCertificate, certify,
                     crossing_edges, is_matching, min_ratio, top_edge)

DEFAULT_BUDGET = 1 << 26


@dataclass(frozen=True)
class SolveResult:
    q: Fraction
    optimal_partition: Bipartition
    explored: int
    method: str


@dataclass(frozen=True)
class DecideResult:
    satisfied: bool
    witness: Bipartition | None
    explored: int

    def __bool__(self):
        return self.satisfied


# -- the search engine -----------------------------------------------------


def _mcs_order(G: Graph) -> list[int]:
    """Maximum-cardinality-search order from vertex 0: each next vertex is
    an unplaced one with the most placed neighbors, ties going to the higher
    degree, then to the lower label.

    A vertex's key is -(count * n^2 + degree * n + n - 1 - v), so one more
    placed neighbor outweighs any degree and label.  The heap is lazy: a
    vertex's newest entry has its lowest key, so it pops first, and older
    entries are skipped once the vertex is placed."""
    n = G.n
    adj = G.adj
    step = n * n
    key = [-(len(a) * n + n - 1 - v) for v, a in enumerate(adj)]
    key[0] -= step * n  # vertex 0 first
    heap = key[:]
    heapq.heapify(heap)
    push = heapq.heappush
    placed = [False] * n
    order = []
    while heap:
        v = n - 1 - -heapq.heappop(heap) % n
        if placed[v]:
            continue
        placed[v] = True
        order.append(v)
        for u in adj[v]:
            if not placed[u]:
                k = key[u] - step
                key[u] = k
                push(heap, k)
    return order


def _twin_before(G: Graph, order: list[int], cap: list[int]) -> list[int]:
    """For each vertex v, the latest vertex before v in ``order`` that is a
    true or false twin of v with the same cap, or -1 when there is none.
    An open neighborhood never equals a closed one (N(u) = N[w] gives w in
    N(u), so u in N[w] = N(u)), so one dictionary holds both kinds of key,
    and by the module docstring at most one of them has an earlier twin."""
    n, adj = G.n, G.adj
    # twins share degree and cap, so only a (degree, cap) class of two or
    # more vertices needs keys, and within one class a key is a neighborhood
    classes: dict[int, list[int]] = {}
    for v in order:
        classes.setdefault(cap[v] * n + len(adj[v]), []).append(v)
    twin = [-1] * n
    for members in classes.values():
        if len(members) > 1:
            last: dict[frozenset[int], int] = {}
            for v in members:
                a = adj[v]
                ta = a | {v}
                f, t = last.get(a, -1), last.get(ta, -1)
                twin[v] = f if f > t else t
                last[a] = last[ta] = v
    return twin


def _search(G: Graph, cap: list[int], budget: int, on_leaf):
    """Depth-first search over side assignments with unit propagation,
    branching in maximum-cardinality-search order with vertex 0 fixed on
    side 1 and side 1 tried first.

    ``same[s][v]`` counts v's neighbors on side s, for every vertex v.  An
    assignment of v to side s, decided or forced, propagates as follows (the
    module docstring says why each rule loses nothing):

    - it fails if v already has more than ``cap[v]`` neighbors on the other
      side;
    - a neighbor u on the other side gains a crossing edge; above ``cap[u]``
      the branch dies, and at exactly ``cap[u]`` u is saturated, which forces
      every free neighbor of u onto u's side;
    - a free neighbor u with more than ``cap[u]`` neighbors on side s is
      forced onto side s;
    - if v itself is saturated, its free neighbors are forced onto side s;
    - twins obey a chain: side 1 forces the previous twin onto side 1, and
      side 2 forces the next twin onto side 2;
    - on the copy path below, at each propagation fixpoint, the pair rule:
      for u on side 1 and x on side 2 with slacks r = cap - cross and k
      free common neighbors, k > r_u + r_x kills the branch, and
      k = r_u + r_x forces u's other free neighbors onto side 1 and x's
      onto side 2; the forced vertices are propagated, and the rule is
      tried again at the next fixpoint.

    A vertex forced onto both sides kills the branch.  That check never
    fires; it stays as a guard.  115,877 exhaustive searches of random twin
    blow-ups (classes of one to five twins, random caps equal within a
    class) never reached it, and this is why.  Count, saturation and pair
    entries name free vertices when queued.  If such a vertex is placed on
    the other side before its entry is read, the branch dies first: its
    count is still over its cap, or the saturated vertex overflows; the
    pair rule's two lists share no vertex and run before any entry they
    cause.  So only a chain entry can find its twin on the other side, and
    that needs a wrong pair: twins a before b in the chain with a on side 2
    and b on side 1.  No fixpoint holds one, as the chain has closed there,
    so some placement inside a propagation makes the first.  A decision or
    pair entry cannot: the closed chain has placed its target already, or
    the other twin would be a common neighbor of the pair.  A chain entry
    cannot: its source made a wrong pair before.  A count entry cannot:
    twins share their counts, so the other twin went over its cap first.
    Nor can a saturation entry of a vertex y.  The other twin was placed
    before y saturated and queued a chain of entries toward the target.
    Each of them queues the next ahead of y's listed neighbors and places a
    neighbor of y on the side opposite y, which overflows y once y is
    saturated; before that, the chain places the target, and y never lists
    it.

    Each decision fills one queue of packed entries ``v << 2 | s`` and
    propagates it in place.  Saturation is lazy: a saturated vertex u
    enters the queue once, as the marker ``u << 2``, and its free neighbors
    are listed and forced only when the queue reaches the marker, so a
    conflict found first saves the list.  Counts only rise within one
    propagation, so u is still saturated then.

    Undo takes one of two paths.  On a dense graph, ``n * n <= 8 * m``
    (average degree at least n/4), each decision saves both count arrays,
    and backtracking restores them by slice assignment and clears ``side``
    for the vertices on the trail.  The saved arrays hold at most 2n
    counts per level on at most n levels, so 2n^2 <= 16m slots: a constant
    multiple of the adjacency.  On any other graph, where that copy could
    dwarf the graph (a long path would save quadratic counts), undo pops the
    trail and decrements every neighbor of each undone vertex.  Every
    increment is made before a conflict is reported, so this restores the
    counts exactly.

    The pair rule runs only on the copy path.  There the search builds int
    adjacency masks when it starts, keeps the mask of free vertices exact at
    each assignment, and each decision saves it with its counts.  Before the
    first backtrack the rule has no pair to test: every decision tries side
    1 first, and every rule that forces a vertex onto side s starts from a
    vertex already on side s, so side 2 stays empty until a backtrack
    decides a vertex onto it.  At each fixpoint the rule scans the
    trail for candidates, placed vertices whose slack r is below their free
    neighbor count f (a saturated vertex has f = 0 there), and counts the
    free common neighbors of a pair only when r_u + r_x <= min(f_u, f_x).
    On sparse graphs it prunes almost nothing and costs time.  With the copy
    path forced on every graph, it cut the "no" of ``decide`` at 3/4 on a
    600-vertex cycle with 300 random chords from 381,657 to 378,425
    assignments, and the matching-cut search of two random 4-regular graphs
    on 160 vertices by under 0.2%, each at 1.3 to 1.7 times the time.  On
    the solve-dense benchmark workload, mostly G(n, 1/2) with n 21-23, it
    cut the search nodes of one pass from 141,257 to 49,530.

    At each complete assignment with both sides nonempty,
    ``on_leaf(sides, same)`` is called; the search stops there when it
    returns true.  ``same[s][v]`` is then exactly v's number of neighbors on
    side s: the counts always match the vertices on the trail, since every
    placed vertex is on it with all of its increments made, and both undo
    paths restore the counts of a shorter trail; at a leaf the trail holds
    every vertex.  ``on_leaf`` must read the counts before it returns, as
    the search goes on changing them.  It may lower ``cap`` in place, and
    later checks use the new caps.  The stack is explicit, so the depth is
    not bounded by the interpreter's recursion limit.

    Returns ``(explored, sides)``: the number of attempted assignments,
    decided or forced, and the leaf that stopped the search, or None when the
    search was exhausted.  More than ``budget`` of them raises
    :class:`BudgetExceededError`.
    """
    n = G.n
    order = _mcs_order(G)
    prev = _twin_before(G, order, cap)  # the previous twin in the chain
    succ = [-1] * n  # the next twin in the chain
    for v, w in enumerate(prev):
        if w >= 0:
            succ[w] = v
    chain = (None, prev, succ)  # side 1 pulls the previous twin, side 2 the next
    twins = max(prev) >= 0
    adjl = [tuple(a) for a in G.adj]
    deg = [len(a) for a in adjl]
    copy = n * n <= 4 * sum(deg)  # n * n <= 8 * m
    side = [0] * n
    same1, same2 = [0] * n, [0] * n
    same = (None, same1, same2)
    trail: list[int] = []
    # decisions with side 2 left to try: (trail length, position[, counts,
    # free mask]), the last two on the copy path only
    levels = []
    masks: list[int] = []  # the pair rule's neighbor masks, copy path only
    if copy:
        for a in adjl:
            mask = 0
            for w in a:
                mask |= 1 << w
            masks.append(mask)
    free = (1 << n) - 1  # the free vertices, kept on the copy path only
    explored = 0
    i = 0
    queue = [order[0] << 2 | 1]
    while True:
        ok = True
        for x in queue:
            v = x >> 2
            s = x & 3
            if not s:  # v is saturated: its free neighbors join its side
                s = side[v]
                for w in adjl[v]:
                    if not side[w]:
                        queue.append(w << 2 | s)
                continue
            if side[v]:
                if side[v] != s:
                    ok = False
                    break
                continue
            explored += 1
            if explored > budget:
                raise BudgetExceededError(explored=explored)
            o = 3 - s
            so = same[o]
            cv = cap[v]
            if so[v] > cv:
                ok = False
                break
            side[v] = s
            trail.append(v)
            if copy:
                free ^= 1 << v
            ss = same[s]
            for u in adjl[v]:
                c = ss[u] + 1
                ss[u] = c
                if c >= cap[u]:
                    su = side[u]
                    if su == o:
                        if c > cap[u]:
                            ok = False  # finish the increments first
                        else:
                            queue.append(u << 2)
                    elif not su and c > cap[u]:
                        queue.append(u << 2 | s)
            if not ok:
                break
            if so[v] == cv:
                queue.append(v << 2)
            if twins:
                w = chain[s][v]
                if w >= 0:
                    queue.append(w << 2 | s)
        if ok:
            while i < n and side[order[i]]:
                i += 1
            if i < n and copy:
                # the pair rule: u on side 1 and x on side 2 with slacks r,
                # free neighbor counts f and k free common neighbors, where
                # k <= min(f_u, f_x); a vertex with g = f - r > 0 is a
                # candidate, and a pair is counted only when
                # r_u + r_x <= min(f_u, f_x), i.e. r_x <= g_u and r_u <= g_x
                ones, twos = [], []
                for v in trail:
                    if side[v] == 1:
                        g = deg[v] - cap[v] - same1[v]
                        if g > 0:
                            ones.append((v, cap[v] - same2[v], g))
                    else:
                        g = deg[v] - cap[v] - same2[v]
                        if g > 0:
                            twos.append((v, cap[v] - same1[v], g))
                queue = []
                for u, ru, gu in ones:
                    mu = masks[u] & free
                    for x, rx, gx in twos:
                        if rx <= gu and ru <= gx:
                            common = mu & masks[x]
                            k = common.bit_count() - ru - rx
                            if k > 0:  # more crossing edges than u and x allow
                                ok = False
                                break
                            if not k:  # C takes all the slack of u and of x
                                for w in adjl[u]:
                                    if not side[w] and not common >> w & 1:
                                        queue.append(w << 2 | 1)
                                for w in adjl[x]:
                                    if not side[w] and not common >> w & 1:
                                        queue.append(w << 2 | 2)
                                if queue:
                                    break
                    if not ok or queue:
                        break
                if queue:
                    continue  # propagate the forced assignments
            if ok:
                if i < n:
                    levels.append((len(trail), i, same1[:], same2[:], free)
                                  if copy else (len(trail), i))
                    queue = [order[i] << 2 | 1]
                    continue
                if 2 in side:
                    sides = tuple(side)
                    if on_leaf(sides, same):
                        return explored, sides
        if not levels:
            return explored, None
        if copy:
            depth, i, same1[:], same2[:], free = levels.pop()
            for v in trail[depth:]:
                side[v] = 0
            del trail[depth:]
        else:
            depth, i = levels.pop()
            while len(trail) > depth:
                v = trail.pop()
                ss = same[side[v]]
                side[v] = 0
                for u in adjl[v]:
                    ss[u] -= 1
        queue = [order[i] << 2 | 2]


def _in_turn(spent: int, budget: int, search, *args):
    """``search(*args, budget=budget - spent)`` for a search that runs after
    others which spent ``spent`` of one budget; a
    :class:`BudgetExceededError` it raises counts their work too."""
    try:
        return search(*args, budget=budget - spent)
    except BudgetExceededError as exc:
        exc.explored += spent
        raise


def _component_split(G: Graph) -> Bipartition | None:
    """A partition with vertex 0's component on side 1 when G is
    disconnected; it has quality 1, which no partition beats.  None for a
    connected graph."""
    if is_connected(G):
        return None
    disc, _, _, end = low_link(G)
    return Bipartition(subtree_sides(disc, end, 0))


def solve_q(G: Graph, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Exact optimum of the degree ratio over all nontrivial bipartitions.

    One low-link pass finds the components and the bridges, and each split
    is a DFS subtree of that pass.  A disconnected graph answers at once
    with a component.  A split at a bridge uv cuts only the edge uv, so its
    quality is exactly (t - 1)/t for t = min(d[u], d[v]); the bridge with
    the largest t gives the first incumbent, and when t is the top of the
    edge bound it is the answer.  Otherwise one branch and bound runs from
    that incumbent, or from 0/1 on a bridgeless graph.  ``method`` is
    ``"upper_bound_met"`` when the run stopped at a partition that meets an
    upper bound, the edge bound (top - 1)/top or 1 for a disconnected
    graph, and ``"pruned_search"`` when the search was exhausted.  The
    search's leaves are scored from its own neighbor counts, so a witness it
    found is certified before it is returned.
    """
    disc, low, parent, end = low_link(G)
    if end[0] < G.n:  # vertex 0's DFS subtree, its component, misses a vertex
        split = Bipartition(subtree_sides(disc, end, 0))
        return SolveResult(Fraction(1), split, 0, "upper_bound_met")
    top = top_edge(G)[1]
    d1 = [len(a) + 1 for a in G.adj]
    best_part, bk, bd = None, 0, 1
    cap: list[int] = []

    def require_better_than(num: int, den: int):
        # kept/d1 > num/den  <=>  cross <= (d1 * (den - num) - 1) // den
        cap[:] = [(d * (den - num) - 1) // den for d in d1]

    # the bridge pv (low[v] > disc[p]) with the largest min(d[p], d[v])
    t, p, v = max(((min(d1[p], d1[v]), p, v) for v, p in enumerate(parent)
                   if p >= 0 and low[v] > disc[p]), default=(0, 0, 0))
    if t:
        best_part = Bipartition(subtree_sides(disc, end, v))  # v's side
        bk, bd = min_ratio(G, best_part.sides)
        if bk * top == (top - 1) * bd:
            return SolveResult(Fraction(bk, bd), best_part, 0, "upper_bound_met")

    def improve(sides, same) -> bool:
        # a lowered cap is checked only where a cross count changes later,
        # so a leaf can fall short of an incumbent found after its prefix;
        # the leaf is scored like min_ratio, from the search's exact counts
        nonlocal best_part, bk, bd
        k = d = 1
        for v, s in enumerate(sides):
            kv = 1 + same[s][v]
            if kv * d < k * d1[v]:
                k, d = kv, d1[v]
        if k * bd > bk * d:
            best_part, bk, bd = Bipartition(sides), k, d
            require_better_than(k, d)
        return bk * top == (top - 1) * bd  # nothing beats the upper bound

    start = best_part
    require_better_than(bk, bd)
    explored, stop = _search(G, cap, budget, improve)
    q = Fraction(bk, bd)
    if best_part is not start:  # scored from the search's counts: check it
        certify(G, best_part, q, "==")
    method = "pruned_search" if stop is None else "upper_bound_met"
    return SolveResult(q, best_part, explored, method)


# -- the decision problem ---------------------------------------------------


def decide(G: Graph, q: Fraction, budget: int = DEFAULT_BUDGET) -> DecideResult:
    """Is there a nontrivial partition of quality >= q?  One search, which
    stops at the first witness; a disconnected graph answers yes at once."""
    if not isinstance(q, Rational):
        raise ParameterError(f"threshold must be an exact rational, got {q!r}")
    if not 0 < q <= 1:
        raise ParameterError(f"threshold must satisfy 0 < q <= 1, got {q}")
    split = _component_split(G)
    if split is not None:
        return DecideResult(True, split, 0)
    num, den = q.numerator, q.denominator
    # kept/d1 >= q  <=>  cross <= d1 * (den - num) // den
    cap = [(len(a) + 1) * (den - num) // den for a in G.adj]
    explored, sides = _search(G, cap, budget, lambda sides, same: True)
    if sides is None:
        return DecideResult(False, None, explored)
    witness = Bipartition(sides)
    certify(G, witness, q)
    return DecideResult(True, witness, explored)


# -- matching cuts ----------------------------------------------------------


def _cut_partition(G: Graph, budget: int) -> tuple[int, Bipartition | None]:
    """A matching-cut partition of a connected graph, or None when it has
    none, with the number of assignments made.

    A product with provenance is decided through its factors: it has a
    matching-cut iff some factor has one, and a factor cut lifts fiber-wise.
    The factor searches draw on the one budget in turn.
    """
    if not G.factors:
        # a vertex with two cross neighbors kills the branch, so a leaf is a cut
        explored, sides = _search(G, [1] * G.n, budget, lambda sides, same: True)
        return explored, None if sides is None else Bipartition(sides)
    spent = 0
    for which, F in zip(("left", "right"), G.factors):
        explored, part = _in_turn(spent, budget, _cut_partition, F)
        spent += explored
        if part is not None:
            return spent, lift_partition(G, part, which)
    return spent, None


def find_matching_cut(G: Graph, budget: int = DEFAULT_BUDGET) -> MatchingCutCertificate:
    """Certificate for matching-cut existence in a connected graph.

    Product graphs with provenance are decided through their factors (the
    factor rule both finds a lifted cut and certifies absence), whose
    searches share ``budget``; a graph without provenance, such as
    ``Graph(P.n, P.adj)``, gets the raw exhaustive search.  ``explored``
    counts the assignments of every search made, factor searches included.
    """
    if not is_connected(G):
        raise PreconditionError("matching-cut search needs a connected graph")
    explored, part = _cut_partition(G, budget)
    if part is None:
        return MatchingCutCertificate(False, None, (), explored)
    crossing = tuple(crossing_edges(G, part))
    if not crossing or not is_matching(G, crossing):
        raise CertificateError("matching-cut witness does not cut a matching")
    return MatchingCutCertificate(True, part, crossing, explored)


def lift_partition(P: Graph, factor_partition: Bipartition, which: str) -> Bipartition:
    """Copy a factor partition fiber-wise onto a product graph."""
    if P.factors is None:
        raise PreconditionError("graph has no product provenance")
    G, H = P.factors
    if which == "left":
        sides = tuple([factor_partition.sides[v // H.n] for v in range(P.n)])
    elif which == "right":
        sides = tuple([factor_partition.sides[v % H.n] for v in range(P.n)])
    else:
        raise ParameterError(f"which must be 'left' or 'right', got {which!r}")
    return Bipartition(sides)


def product_matching_cut(G: Graph, H: Graph,
                         budget: int = DEFAULT_BUDGET) -> MatchingCutCertificate:
    """Matching-cut certificate for the cartesian product G box H, decided by
    the factor rule: the product has a matching-cut iff some factor has one,
    and a factor cut lifts fiber-wise.  Both factors must be connected."""
    return find_matching_cut(cartesian_product(G, H), budget)
