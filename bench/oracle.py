"""Independent reference computations for checking degratio's answers.

Nothing here imports degratio.  Graphs are given as a vertex count ``n`` and
a list of edges ``(u, v)`` on vertices 0..n-1; neighbourhoods are integer
bitmasks and every ratio is an exact ``Fraction`` built from integer
neighbour counts.

* :func:`witness_quality` recomputes the quality of a side assignment.
* :func:`brute_force_q` enumerates every nontrivial bipartition (small n).
* :func:`exact_q` is an exact search of its own: a feasibility DFS under
  per-vertex caps on cross neighbours, driven by a binary search over the
  finite set of candidate ratios k/d[v].
* The closed forms restate the paper's values for K_n, T_k, trees, cubic
  graphs, 4-regular graphs, cubic products and regular x tree products.
"""

from __future__ import annotations

from fractions import Fraction

BRUTE_FORCE_MAX_N = 16


def adjacency_masks(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def witness_quality(n: int, edges, sides) -> Fraction:
    """Worst kept/closed-degree ratio of a side assignment (values 1 or 2)."""
    if len(sides) != n or set(sides) != {1, 2}:
        raise ValueError(f"not a nontrivial bipartition of {n} vertices: {sides!r}")
    kept = [1] * n
    deg = [1] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
        if sides[u] == sides[v]:
            kept[u] += 1
            kept[v] += 1
    return min(Fraction(kept[v], deg[v]) for v in range(n))


def crossing_edges(edges, sides) -> list[tuple[int, int]]:
    return sorted((min(u, v), max(u, v)) for u, v in edges if sides[u] != sides[v])


def is_matching(edge_list) -> bool:
    ends = [x for e in edge_list for x in e]
    return len(ends) == len(set(ends))


def edge_upper_bound(n: int, edges) -> Fraction:
    """max over edges uv of min(d(u)/d[u], d(v)/d[v])."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(min(Fraction(deg[u], deg[u] + 1), Fraction(deg[v], deg[v] + 1))
               for u, v in edges)


def candidate_ratios(n: int, edges) -> list[Fraction]:
    """Every value a partition quality can take: k/d[v] for 1 <= k <= d[v]."""
    deg = [1] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return sorted({Fraction(k, d) for d in set(deg) for k in range(1, d + 1)})


def next_candidate_above(n: int, edges, q: Fraction) -> Fraction:
    return min(c for c in candidate_ratios(n, edges) if c > q)


def brute_force_q(n: int, edges) -> Fraction:
    """Best quality over all 2^(n-1) - 1 nontrivial bipartitions."""
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_MAX_N} vertices")
    adj = adjacency_masks(n, edges)
    closed = [a.bit_count() + 1 for a in adj]
    full = (1 << n) - 1
    best_num, best_den = 0, 1
    # vertex n-1 stays on side A, so each unordered bipartition is seen once
    for side_b in range(1, 1 << (n - 1)):
        side_a = full ^ side_b
        num, den = 1, 1
        for v in range(n):
            same = side_b if side_b >> v & 1 else side_a
            kept = (adj[v] & same).bit_count() + 1
            if kept * den < num * closed[v]:
                num, den = kept, closed[v]
                if num * best_den <= best_num * den:
                    break
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(best_num, best_den)


def _bfs_order(n: int, adj: list[int]) -> list[int]:
    order = []
    seen = 0
    for root in range(n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        order.append(root)
        i = len(order) - 1
        while i < len(order):
            fresh = adj[order[i]] & ~seen
            i += 1
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                seen |= low
                order.append(low.bit_length() - 1)
    return order


def feasible(n: int, adj: list[int], caps: list[int]) -> int | None:
    """Side-B bitmask of a nontrivial bipartition in which every vertex v has
    at most caps[v] neighbours on the other side, or None when none exists.

    Depth-first over vertices in BFS order; the first vertex stays on side
    A.  A branch dies as soon as some assigned vertex has more cross
    neighbours among the assigned ones than its cap allows.  The recursion
    is one level per vertex, which the benchmark's graphs (n <= 100) allow.
    """
    order = _bfs_order(n, adj)
    cross = [0] * n

    def extend(depth: int, side_a: int, side_b: int) -> int | None:
        if depth == n:
            return side_b or None
        v = order[depth]
        bit = 1 << v
        for on_b in (False, True):
            nbrs = adj[v] & (side_a if on_b else side_b)
            count = nbrs.bit_count()
            if count > caps[v]:
                continue
            touched = []
            ok = True
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                u = low.bit_length() - 1
                cross[u] += 1
                touched.append(u)
                if cross[u] > caps[u]:
                    ok = False
                    break
            found = None
            if ok:
                cross[v] = count
                if on_b:
                    found = extend(depth + 1, side_a, side_b | bit)
                else:
                    found = extend(depth + 1, side_a | bit, side_b)
                cross[v] = 0
            for u in touched:
                cross[u] -= 1
            if found is not None:
                return found
        return None

    return extend(1, 1 << order[0], 0)


def _caps_for(closed: list[int], t: Fraction) -> list[int]:
    # kept/d >= t  <=>  cross <= d - ceil(t * d)
    return [d - -(-t.numerator * d // t.denominator) for d in closed]


def _mask_sides(n: int, side_b: int) -> tuple[int, ...]:
    return tuple(2 if side_b >> v & 1 else 1 for v in range(n))


def exact_q(n: int, edges) -> Fraction:
    """q(G) by binary search over the candidate ratios; every feasible probe
    lifts the lower end to the quality of the witness it found."""
    adj = adjacency_masks(n, edges)
    closed = [a.bit_count() + 1 for a in adj]
    cands = candidate_ratios(n, edges)
    side_b = feasible(n, adj, _caps_for(closed, cands[0]))
    if side_b is None:
        raise ValueError("graph has no nontrivial bipartition")
    lo = cands.index(witness_quality(n, edges, _mask_sides(n, side_b)))
    hi = len(cands)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        side_b = feasible(n, adj, _caps_for(closed, cands[mid]))
        if side_b is None:
            hi = mid
        else:
            lo = cands.index(witness_quality(n, edges, _mask_sides(n, side_b)))
    return cands[lo]


def reaches(n: int, edges, t: Fraction) -> bool:
    """Whether some nontrivial bipartition has quality >= t."""
    adj = adjacency_masks(n, edges)
    closed = [a.bit_count() + 1 for a in adj]
    return feasible(n, adj, _caps_for(closed, t)) is not None


def has_matching_cut(n: int, edges) -> bool:
    """A matching-cut is a nontrivial bipartition with at most one cross
    neighbour per vertex (a connected graph then has at least one cross edge)."""
    return feasible(n, adjacency_masks(n, edges), [1] * n) is not None


# -- the paper's closed forms ------------------------------------------------


def clique_q(n: int) -> Fraction:
    p = n // 2
    return Fraction(1, 2) if n % 2 == 0 else Fraction(p, 2 * p + 1)


def ktriangle_q(k: int) -> Fraction:
    return Fraction(k // 2 + 1, k + 2)


def tree_q(n: int, edges) -> Fraction:
    return edge_upper_bound(n, edges)


def cubic_q(special: bool) -> Fraction:
    """Connected cubic graphs: 1/2 for K4 and K33, 3/4 otherwise."""
    return Fraction(1, 2) if special else Fraction(3, 4)


def four_regular_q(is_k5: bool, matching_cut: bool) -> Fraction:
    if is_k5:
        return Fraction(2, 5)
    return Fraction(4, 5) if matching_cut else Fraction(3, 5)


def product_cubic_q(both_special: bool) -> Fraction:
    """G box H for connected cubic G, H: 5/7 when both are K4 or K33."""
    return Fraction(5, 7) if both_special else Fraction(6, 7)


def product_regular_tree_q(k: int, tree_n: int, tree_edges) -> Fraction:
    """G box T for a connected k-regular G and a tree T."""
    deg = [0] * tree_n
    for u, v in tree_edges:
        deg[u] += 1
        deg[v] += 1
    return max(min(Fraction(deg[u] + k, deg[u] + k + 1),
                   Fraction(deg[v] + k, deg[v] + k + 1))
               for u, v in tree_edges)
