"""Edge connectivity, minimum-cut sides, and membership in the graph
classes that require t+1 disjoint minimum-cut sides plus a leftover
vertex.

One max-flow routine (`max_flow`) serves every route, `packing.nu_f_exact`
included. One loop of unit-capacity flows from vertex 0 to every other
vertex (`_flows`) is read three ways off its residual graphs (Picard &
Queyranne 1980): edge connectivity with a witness side, the minimal
minimum-cut sides that decide class membership, and the listing of all
minimum-cut sides. The 2^(n-1) side scan and the backtrack over listed
sides are test oracles, not runtime routes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import ToolError
from .graphs import Graph, VertexSet, _mask_to_set, boundary_size, check_ints, components
from .graphs import is_connected, per_graph

# Vertex entries over all sides `min_cut_sides` lists (n per cut: its side
# and the complement). C100 lists 495 000; C1000 would list about 10^9.
SIDE_OUTPUT_CAP = 1_000_000


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


def _flows(g: Graph):
    """Maximum 0-t flows on the unit network of g for t = 1..n-1, each
    stopped at the best value so far plus one (kappa' <= delta starts it).
    Yields (flow, t, residual capacities, residual reach-set of 0) for
    every flow at or below the best so far; those flows ran to completion."""
    unit: list[dict[int, int]] = [{} for _ in range(g.n)]
    for u, v in g.sorted_edges():
        unit[u][v] = unit[v][u] = 1
    best = g.min_degree
    for t in range(1, g.n):
        cap = [arcs.copy() for arcs in unit]
        flow, reached = max_flow(cap, 0, t, stop=best + 1)
        if flow <= best:
            best = flow
            yield flow, t, cap, reached


def _reaching(cap: list[dict[int, int]], t: int) -> VertexSet:
    """The vertices with a path to t along the residual arcs of `cap`."""
    seen = {t}
    stack = [t]
    while stack:
        y = stack.pop()
        for x in cap[y]:
            if x not in seen and cap[x][y] > 0:
                seen.add(x)
                stack.append(x)
    return frozenset(seen)


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


@per_graph
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

    The sides are listed at every t whose flow in `_flows` equals the best
    so far, and a smaller flow discards them. Past SIDE_OUTPUT_CAP listed
    vertex entries at the final kappa' the listing stops with TOO_LARGE.
    """
    if g.n < 2:
        raise ToolError("TOO_SMALL", f"need n >= 2, got n={g.n}")
    if not is_connected(g):
        raise ToolError("DISCONNECTED", "minimum-cut sides need a connected graph")
    best = None
    cuts: list[int] = []
    fits = True
    for flow, t, cap, _ in _flows(g):
        if flow != best:
            best, cuts, fits = flow, [], True
        if fits:
            fits = _list_sides(g.n, t, cap, cuts)
    if not fits:
        raise ToolError(
            "TOO_LARGE", f"minimum-cut sides exceed {SIDE_OUTPUT_CAP} listed vertices"
        )
    full = (1 << g.n) - 1
    sides = [_mask_to_set(s) for s in cuts] + [_mask_to_set(full ^ s) for s in cuts]
    return tuple(sorted(sides, key=_canon_key))


@per_graph
def _min_cut_structure(g: Graph) -> tuple[int, VertexSet, tuple[VertexSet, ...]]:
    """kappa' of a connected graph with n >= 2, the residual reach-set of 0
    at the first t attaining it, and the inclusion-minimal minimum-cut
    sides in canonical order.

    At a t whose flow is kappa', the reach-set of 0 is the smallest
    minimum-cut side holding 0 and missing t, and the vertices reaching t
    form the smallest one holding t and missing 0. So a minimal side is the
    first set at every t outside it if it holds 0, else the second set at
    every t inside it. Minimal sides are pairwise disjoint (see
    `gt_membership`) and every other candidate contains one, so in
    canonical order they are the candidates missing all those kept before.
    """
    best = None
    for flow, t, cap, reached in _flows(g):
        if flow != best:
            best, side, found = flow, frozenset(reached), set()
        found |= {frozenset(reached), _reaching(cap, t)}
    minimal: list[VertexSet] = []
    used: set[int] = set()
    for s in sorted(found, key=_canon_key):
        if used.isdisjoint(s):
            minimal.append(s)
            used |= s
    return best, side, tuple(minimal)


def edge_connectivity(g: Graph) -> tuple[int, VertexSet]:
    """kappa'(G) together with a side attaining it.

    Disconnected graphs have connectivity 0 (witness: a component);
    connected ones get the value and the source side of a max-flow cut.
    """
    if g.n < 2:
        raise ToolError("TOO_SMALL", f"need n >= 2, got n={g.n}")
    if not is_connected(g):
        return 0, min(components(g), key=_canon_key)
    kappa, side, _ = _min_cut_structure(g)
    return kappa, side


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
        b = boundary_size(g, s)
        if b != kappa:
            problems.append(f"subset {i} has boundary {b}, kappa'={kappa}")
    if len(used) >= g.n:
        problems.append("union of subsets leaves no vertex over")
    return problems


def gt_membership(g: Graph, t: int) -> GtWitness | None:
    """t+1 pairwise-disjoint minimum-cut sides with a non-empty leftover;
    None means the graph is not in the class.

    The inclusion-minimal minimum-cut sides are pairwise disjoint. Were two
    distinct ones X and Y to meet, a smaller minimum-cut side would lie
    inside X: X & Y by submodularity when X | Y is not V (both it and X | Y
    have boundary at least kappa', and the two sum to at most 2 kappa'), or
    X - Y by posimodularity when X | Y is V. Every side contains a minimal
    one, and disjoint sides contain distinct ones. So fewer than t+1
    minimal sides leave no witness, and so do exactly t+1 that cover V,
    since any t+1 disjoint sides then cover V. Otherwise the first t+1
    minimal sides in canonical order (size, then lexicographic) are the
    witness. A backtrack over every side in that order succeeds first with
    the same sides: the first side disjoint from the earlier picks is
    minimal, since a smaller side inside it would come earlier.
    """
    check_ints(t=t)
    if t < 1:
        raise ToolError("PARAMETER_ERROR", f"t must be >= 1, got {t}")
    if not is_connected(g):
        raise ToolError("DISCONNECTED", "class membership needs a connected graph")
    if g.n < t + 2:
        raise ToolError("TOO_SMALL", f"need n >= t+2 = {t + 2}, got n={g.n}")
    _, _, sides = _min_cut_structure(g)
    if len(sides) <= t or (len(sides) == t + 1 and sum(map(len, sides)) == g.n):
        return None
    return GtWitness(t=t, subsets=sides[: t + 1])
