"""Edge connectivity, minimum-cut side enumeration, and membership in the
graph classes that require t+1 disjoint minimum-cut sides plus a leftover
vertex.

One integer-capacity max-flow routine (`max_flow`) serves every route:
edge connectivity is a unit-capacity flow from vertex 0 to every other
vertex; the full listing of minimum-cut sides reads the closed sets of
those flows' residual graphs (Picard & Queyranne 1980); and
`packing.nu_f_exact` runs it on its attack networks. The exhaustive
2^(n-1) side scan is a test oracle, not a runtime route.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .errors import ToolError
from .graphs import Graph, VertexSet, boundary_size_mask, components, is_connected

# Vertex entries over all listed sides (each cut lists n: its side and the
# complement). C100 lists 495 000; C1000 would list about 10^9.
SIDE_OUTPUT_CAP = 1_000_000
T_CAP = 8


def _mask_to_set(mask: int) -> VertexSet:
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        out.append(v)
        mask &= mask - 1
    return frozenset(out)


def _canon_key(s: VertexSet) -> tuple[int, tuple[int, ...]]:
    return (len(s), tuple(sorted(s)))


def max_flow(
    cap: list[dict[int, int]], s: int, t: int, stop: int | None = None
) -> tuple[int, dict[int, int | None]]:
    """Augment shortest s-t paths by their bottleneck in the residual
    capacities `cap` (cap[x][y], changed in place) until none is left or
    the flow reaches `stop`.

    Returns the flow value and the vertices the last search reached. When
    t is not among them they are the residual reach-set of s: the minimal
    source side of a minimum s-t cut.
    """
    flow = 0
    while True:
        parent: dict[int, int | None] = {s: None}
        dq = deque([s])
        while dq and t not in parent:
            x = dq.popleft()
            for y, c in cap[x].items():
                if c > 0 and y not in parent:
                    parent[y] = x
                    dq.append(y)
        if t not in parent:
            return flow, parent
        path = []
        y = t
        while (x := parent[y]) is not None:
            path.append((x, y))
            y = x
        b = min(cap[x][y] for x, y in path)
        for x, y in path:
            cap[x][y] -= b
            cap[y][x] = cap[y].get(x, 0) + b
        flow += b
        if stop is not None and flow >= stop:
            return flow, parent


def _unit_network(g: Graph) -> list[dict[int, int]]:
    return [dict.fromkeys(g.adjacency[v], 1) for v in range(g.n)]


def _min_cut_flow(g: Graph) -> tuple[int, VertexSet]:
    """Global min cut via max-flow from vertex 0 to every other vertex:
    the smallest flow value and the minimal source side of the first t
    attaining it. A flow that reaches the best value so far stops early."""
    best = None
    best_side: VertexSet = frozenset()
    for t in range(1, g.n):
        flow, reached = max_flow(_unit_network(g), 0, t, stop=best)
        if t not in reached and (best is None or flow < best):
            best = flow
            best_side = frozenset(reached)
    assert best is not None
    return best, best_side


def _closure(out: list[int], mask: int) -> int:
    """Every vertex reachable from `mask` along the arcs out[v] (bitmasks)."""
    seen = front = mask
    while front:
        nxt = 0
        while front:
            nxt |= out[(front & -front).bit_length() - 1]
            front &= front - 1
        front = nxt & ~seen
        seen |= front
    return seen


def _list_sides(n: int, t: int, cap: list[dict[int, int]], cuts: list[int]) -> bool:
    """Append to `cuts` the side masks listed at t, read off the residual
    capacities `cap` of a maximum 0-t flow; False once the listing passes
    SIDE_OUTPUT_CAP listed vertex entries."""
    out = [0] * n
    into = [0] * n
    for x in range(n):
        for y, c in cap[x].items():
            if c > 0:
                out[x] |= 1 << y
                into[y] |= 1 << x
    forced = _closure(out, (1 << t) - 1)
    if forced >> t & 1:
        return True
    taken = forced | _closure(into, 1 << t)
    free = [v for v in range(t + 1, n) if not taken >> v & 1]
    reach: dict[int, int] = {}
    stack = [(0, forced, 0)]
    while stack:
        i, side, banned = stack.pop()
        while i < len(free) and side >> free[i] & 1:
            i += 1
        if i == len(free):
            cuts.append(side)
            if len(cuts) * n > SIDE_OUTPUT_CAP:
                return False
            continue
        v = free[i]
        stack.append((i + 1, side, banned | 1 << v))
        if v not in reach:
            reach[v] = _closure(out, 1 << v)
        if not reach[v] & banned:
            stack.append((i + 1, side | reach[v], banned))
    return True


@lru_cache(maxsize=512)
def min_cut_sides(g: Graph) -> tuple[VertexSet, ...]:
    """Every non-empty proper vertex set whose boundary equals kappa'(G),
    ordered by size then lexicographically. Both sides of each cut appear.

    Each cut has one side S holding vertex 0; it is listed at
    t = min(V \\ S). S is then a minimum 0-t cut (its boundary is kappa'),
    and the minimum 0-t cuts are exactly the vertex sets holding 0, missing
    t and closed in the residual graph of a maximum 0-t flow (Picard &
    Queyranne 1980). A closed set is a union of residual reach-sets R(v),
    so the sides listed at t are found by branching over the free vertices
    (outside the forced part R({0..t-1}), not reaching t) in order: the
    exclude branch bans v, the include branch adds R(v) only when R(v)
    holds no banned vertex. Every branch ends in a distinct side, so the
    work is polynomial in the output.

    One pass of 0-t flows finds kappa' and the sides together: each flow
    stops at the best value so far plus one (kappa' <= delta starts it),
    the sides are listed at every t whose flow equals that best, and a
    smaller flow discards them. Past SIDE_OUTPUT_CAP listed vertex entries
    at the final kappa' the listing stops with TOO_LARGE.
    """
    if g.n < 2:
        raise ToolError("TOO_SMALL", f"need n >= 2, got n={g.n}")
    if not is_connected(g):
        raise ToolError("DISCONNECTED", "minimum-cut sides need a connected graph")
    n = g.n
    best = g.min_degree
    cuts: list[int] = []
    fits = True
    for t in range(1, n):
        cap = _unit_network(g)
        flow, _ = max_flow(cap, 0, t, stop=best + 1)
        if flow > best:
            continue
        if flow < best:
            best, cuts, fits = flow, [], True
        if fits:
            fits = _list_sides(n, t, cap, cuts)
    if not fits:
        raise ToolError(
            "TOO_LARGE", f"minimum-cut sides exceed {SIDE_OUTPUT_CAP} listed vertices"
        )
    full = (1 << n) - 1
    sides = [_mask_to_set(s) for s in cuts] + [_mask_to_set(full ^ s) for s in cuts]
    return tuple(sorted(sides, key=_canon_key))


def edge_connectivity(g: Graph) -> tuple[int, VertexSet]:
    """kappa'(G) together with a side attaining it.

    Disconnected graphs have connectivity 0 (witness: a component);
    connected ones get the value and the source side of a max-flow cut.
    """
    if g.n < 2:
        raise ToolError("TOO_SMALL", f"need n >= 2, got n={g.n}")
    comps = components(g)
    if len(comps) > 1:
        return 0, min(comps, key=_canon_key)
    return _min_cut_flow(g)


@dataclass(frozen=True)
class GtWitness:
    """t+1 disjoint minimum-cut sides whose union misses a vertex."""

    t: int
    subsets: tuple[VertexSet, ...]


def validate_gt_witness(g: Graph, w: GtWitness) -> list[str]:
    """All violated witness invariants (empty list means valid)."""
    problems = []
    if len(w.subsets) != w.t + 1:
        problems.append(f"expected {w.t + 1} subsets, got {len(w.subsets)}")
    kappa, _ = edge_connectivity(g)
    used: set[int] = set()
    for i, s in enumerate(w.subsets):
        if not s:
            problems.append(f"subset {i} empty")
            continue
        if not all(0 <= v < g.n for v in s):
            problems.append(f"subset {i} out of range")
            continue
        if len(s) >= g.n:
            problems.append(f"subset {i} not proper")
        if used & s:
            problems.append(f"subset {i} overlaps an earlier subset")
        used |= s
        mask = 0
        for v in s:
            mask |= 1 << v
        b = boundary_size_mask(g, mask)
        if b != kappa:
            problems.append(f"subset {i} has boundary {b}, kappa'={kappa}")
    if len(used) >= g.n:
        problems.append("union of subsets leaves no vertex over")
    return problems


def gt_membership(g: Graph, t: int) -> GtWitness | None:
    """Search for t+1 pairwise-disjoint minimum-cut sides with a non-empty
    leftover; None means the graph is not in the class.

    Exact backtracking over the enumerated sides, smallest sides first.
    """
    if t < 1 or t > T_CAP:
        raise ToolError("PARAMETER_ERROR", f"t must be in 1..{T_CAP}, got {t}")
    if not is_connected(g):
        raise ToolError("DISCONNECTED", "class membership needs a connected graph")
    if g.n < t + 2:
        raise ToolError("TOO_SMALL", f"need n >= t+2 = {t + 2}, got n={g.n}")
    sides = min_cut_sides(g)
    masks = []
    for s in sides:
        mask = 0
        for v in s:
            mask |= 1 << v
        masks.append(mask)
    full = (1 << g.n) - 1
    need = t + 1
    chosen: list[int] = []

    def backtrack(start: int, used: int) -> tuple[VertexSet, ...] | None:
        if len(chosen) == need:
            if used != full:
                return tuple(sides[i] for i in chosen)
            return None
        remaining = need - len(chosen)
        for i in range(start, len(sides)):
            if len(sides) - i < remaining:
                break
            if masks[i] & used:
                continue
            chosen.append(i)
            found = backtrack(i + 1, used | masks[i])
            chosen.pop()
            if found is not None:
                return found
        return None

    found = backtrack(0, 0)
    if found is None:
        return None
    return GtWitness(t=t, subsets=found)
