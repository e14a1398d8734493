"""Edge connectivity, minimum-cut side enumeration, and membership in the
graph classes that require t+1 disjoint minimum-cut sides plus a leftover
vertex.

Edge connectivity is computed by a unit-capacity max-flow at every size.
The full listing of minimum-cut sides comes from exhaustive side
enumeration at desk scale; the test suite requires the two routes to
agree on the connectivity value.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .errors import ToolError
from .graphs import Graph, VertexSet, boundary_size_mask, components, is_connected

ENUM_LIMIT = 20
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


def _min_cut_flow(g: Graph) -> tuple[int, VertexSet]:
    """Global min cut via max-flow from vertex 0 to every other vertex.

    Unit capacities in both directions; flow values are bounded by the
    minimum degree, so repeated BFS augmentation is cheap at this scale.
    """
    n = g.n
    best = None
    best_side: VertexSet = frozenset()
    for t in range(1, n):
        cap = {}
        for u, v in g.edges:
            cap[(u, v)] = 1
            cap[(v, u)] = 1
        flow = 0
        while True:
            parent = {0: None}
            dq = deque([0])
            while dq:
                x = dq.popleft()
                if x == t:
                    break
                for y in g.adjacency[x]:
                    if y not in parent and cap[(x, y)] > 0:
                        parent[y] = x
                        dq.append(y)
            if t not in parent:
                break
            y = t
            while parent[y] is not None:
                x = parent[y]
                cap[(x, y)] -= 1
                cap[(y, x)] += 1
                y = x
            flow += 1
            if best is not None and flow >= best:
                break
        if t not in parent and (best is None or flow < best):
            best = flow
            best_side = frozenset(parent)
    assert best is not None
    return best, best_side


@lru_cache(maxsize=512)
def _enumerate_cuts(g: Graph) -> tuple[int, tuple[VertexSet, ...]]:
    """(kappa', all minimum-cut sides) by scanning every side containing
    vertex 0; both sides of each cut are reported."""
    n = g.n
    full = (1 << n) - 1
    best = None
    best_masks: list[int] = []
    for bits in range(1 << (n - 1)):
        mask = (bits << 1) | 1
        if mask == full:
            continue
        cut = boundary_size_mask(g, mask)
        if best is None or cut < best:
            best = cut
            best_masks = [mask]
        elif cut == best:
            best_masks.append(mask)
    assert best is not None
    sides: set[VertexSet] = set()
    for mask in best_masks:
        sides.add(_mask_to_set(mask))
        sides.add(_mask_to_set(full ^ mask))
    return best, tuple(sorted(sides, key=_canon_key))


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


def min_cut_sides(g: Graph) -> tuple[VertexSet, ...]:
    """Every non-empty proper vertex set whose boundary equals kappa'(G),
    ordered by size then lexicographically. Both sides of each cut appear.
    """
    if g.n < 2:
        raise ToolError("TOO_SMALL", f"need n >= 2, got n={g.n}")
    if not is_connected(g):
        raise ToolError("DISCONNECTED", "minimum-cut sides need a connected graph")
    if g.n > ENUM_LIMIT:
        raise ToolError("TOO_LARGE", f"side enumeration capped at n={ENUM_LIMIT}")
    return _enumerate_cuts(g)[1]


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
