"""Shared graph corpora for the test suite.

Everything here is seeded and deterministic so expected values can be
frozen into the tests.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from hypothesis import assume
from hypothesis.strategies import composite, integers

from treecert import (
    ExperimentConfig,
    FamilySpec,
    FractionalPackingResult,
    Graph,
    build_graph,
    generate,
    is_connected,
    min_cut_sides,
)
from treecert.graphs import _union_edges, boundary_size_mask
from treecert.packing import _forest_faults
from treecert.spectra import matrix_from_rows

SHIPPED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default_experiment.json"


def shipped_config() -> ExperimentConfig:
    """The shipped soundness corpus, loaded the way the CLI loads it."""
    return ExperimentConfig.from_dict(json.loads(SHIPPED_CONFIG.read_text()))


@composite
def graphs(draw, n_min: int = 2, n_max: int = 7, connected: bool = False) -> Graph:
    """Hypothesis strategy for small simple graphs (edge set as a bitmask)."""
    n = draw(integers(n_min, n_max))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(integers(0, 2 ** len(pairs) - 1))
    g = build_graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])
    if connected:
        assume(is_connected(g))
    return g


def complete(n: int) -> Graph:
    return generate(FamilySpec("complete", {"n": n}))


def cycle(n: int) -> Graph:
    return generate(FamilySpec("cycle", {"n": n}))


def path(n: int) -> Graph:
    return generate(FamilySpec("path", {"n": n}))


def star(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def clique_chains(max_n: int) -> list[Graph]:
    """Every clique chain (blocks >= 2, block order q >= 2, 1 <= links <= q)
    with at most max_n vertices."""
    return [
        generate(FamilySpec("clique_chain", {"blocks": c, "q": q, "links": l}))
        for c in range(2, max_n // 2 + 1)
        for q in range(2, max_n // c + 1)
        for l in range(1, q + 1)
    ]


def random_connected_graph(rng: random.Random, n_lo: int, n_hi: int) -> Graph:
    """Random connected graph: a random spanning tree plus random extras."""
    n = rng.randint(n_lo, n_hi)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a = order[rng.randrange(i)]
        b = order[i]
        edges.add((min(a, b), max(a, b)))
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.35:
            edges.add((u, v))
    return build_graph(n, edges)


def random_graph(rng: random.Random, n_lo: int, n_hi: int, p: float = 0.4) -> Graph:
    """Random graph, possibly disconnected."""
    n = rng.randint(n_lo, n_hi)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return build_graph(n, edges)


def random_regular_reference(n: int, r: int, seed: int) -> Graph:
    """The first swap loop of `random_regular`, kept as the oracle for the
    faster one in `harness`: a circulant scrambled by 30*m degree-
    preserving swap attempts. Takes valid (n, r) only."""
    edges = set()
    for v in range(n):
        for j in range(1, r // 2 + 1):
            w = (v + j) % n
            edges.add((min(v, w), max(v, w)))
    if r % 2:  # n is even here since n*r is
        for v in range(n // 2):
            edges.add((v, v + n // 2))
    rng = random.Random(seed)
    edge_list = sorted(edges)
    for _ in range(30 * len(edge_list)):
        i, j = rng.randrange(len(edge_list)), rng.randrange(len(edge_list))
        if i == j:
            continue
        a, b = edge_list[i]
        c, d = edge_list[j]
        if rng.random() < 0.5:
            b, a = a, b
        if len({a, b, c, d}) < 4:
            continue
        e1 = (min(a, c), max(a, c))
        e2 = (min(b, d), max(b, d))
        if e1 in edges or e2 in edges:
            continue
        edges.discard(edge_list[i])
        edges.discard(edge_list[j])
        edges.add(e1)
        edges.add(e2)
        edge_list[i], edge_list[j] = e1, e2
    return build_graph(n, edges)


def all_connected_graphs(n: int):
    """Every labeled connected graph on n vertices (use only for n <= 5)."""
    pairs = list(combinations(range(n), 2))
    out = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        g = build_graph(n, edges)
        if is_connected(g):
            out.append(g)
    return out


def two_blocks_bridge(q: int) -> Graph:
    """Two complete blocks of order q joined by a single bridge."""
    edges = []
    for base in (0, q):
        edges.extend(
            (base + i, base + j) for i in range(q) for j in range(i + 1, q)
        )
    edges.append((0, q))
    return build_graph(2 * q, edges)


def enumerate_cuts(g: Graph) -> tuple[int, tuple[frozenset, ...]]:
    """Oracle: (kappa', all minimum-cut sides of a connected graph) by
    scanning every side containing vertex 0; both sides of each cut are
    reported, ordered by size then lexicographically."""
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
    sides = set()
    for mask in best_masks:
        for side in (mask, full ^ mask):
            sides.add(frozenset(v for v in range(n) if side >> v & 1))
    return best, tuple(sorted(sides, key=lambda s: (len(s), tuple(sorted(s)))))


def gt_membership_backtrack(g: Graph, t: int) -> tuple[frozenset, ...] | None:
    """Oracle for `gt_membership`: backtrack over every minimum-cut side in
    canonical order for t+1 pairwise-disjoint ones whose union misses a
    vertex; the first such choice, or None."""
    sides = min_cut_sides(g)
    masks = [sum(1 << v for v in s) for s in sides]
    full = (1 << g.n) - 1
    chosen: list[int] = []

    def backtrack(start: int, used: int) -> tuple[frozenset, ...] | None:
        if len(chosen) == t + 1:
            return tuple(sides[i] for i in chosen) if used != full else None
        for i in range(start, len(sides) - t + len(chosen)):
            if masks[i] & used:
                continue
            chosen.append(i)
            found = backtrack(i + 1, used | masks[i])
            chosen.pop()
            if found is not None:
                return found
        return None

    return backtrack(0, 0)


def _mask_vertices(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def small_cut_scan(g: Graph) -> str:
    """Oracle for `check_lemma_small_cut`: scan every non-empty proper
    vertex set. VIOLATIONS when one with boundary <= delta - 1 has at most
    delta vertices, NO_VIOLATION when some set has that boundary, else
    VACUOUS."""
    delta = g.min_degree
    hits = False
    for mask in range(1, (1 << g.n) - 1):
        if boundary_size_mask(g, mask) <= delta - 1:
            if mask.bit_count() < delta + 1:
                return "VIOLATIONS"
            hits = True
    return "NO_VIOLATION" if hits else "VACUOUS"


def induces_connected(g: Graph, mask: int) -> bool:
    start = (mask & -mask).bit_length() - 1
    seen = 1 << start
    stack = [start]
    while stack:
        u = stack.pop()
        fresh = g.adj_bits[u] & mask & ~seen
        seen |= fresh
        stack.extend(_mask_vertices(fresh))
    return seen == mask


def connected_cut_scan(g: Graph, k: int) -> list[tuple[tuple[int, ...], int]]:
    """Oracle for the exhaustive phase of `check_cut_lower_bound`: every
    non-empty proper vertex set that induces a connected subgraph and has
    boundary <= k, as (sorted vertices, boundary)."""
    out = []
    for mask in range(1, (1 << g.n) - 1):
        cut = boundary_size_mask(g, mask)
        if cut <= k and induces_connected(g, mask):
            out.append((_mask_vertices(mask), cut))
    return out


def components_reference(g: Graph) -> list[frozenset]:
    """Oracle for `components`: a depth-first search from each unseen
    vertex in order, so the sets come ordered by smallest member."""
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in _mask_vertices(g.adj_bits[u]):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def nu_f_bruteforce(g: Graph) -> FractionalPackingResult:
    """Oracle: min over all vertex partitions (p >= 2) of
    (crossing edges) / (p - 1) by complete restricted-growth enumeration.
    Ties prefer more blocks, then the lexicographically first assignment;
    disconnected graphs yield 0 with the component partition."""
    comps = components_reference(g)
    if len(comps) > 1:
        return FractionalPackingResult(value=Fraction(0), partition=tuple(comps), p=len(comps))
    n = g.n
    below = [[u for u in range(v) if g.adj_bits[v] >> u & 1] for v in range(n)]
    assign = [0] * n
    best: list = [None, 0, None]  # value, p, assignment copy

    def rec(v: int, nblocks: int, crossing: int) -> None:
        if v == n:
            if nblocks < 2:
                return
            val = Fraction(crossing, nblocks - 1)
            if best[0] is None or val < best[0] or (val == best[0] and nblocks > best[1]):
                best[0], best[1], best[2] = val, nblocks, assign.copy()
            return
        counts = [0] * (nblocks + 1)
        for u in below[v]:
            counts[assign[u]] += 1
        for b in range(nblocks + 1):
            assign[v] = b
            rec(v + 1, nblocks + (1 if b == nblocks else 0), crossing + len(below[v]) - counts[b])

    rec(1, 1, 0)
    blocks: list[list[int]] = [[] for _ in range(best[1])]
    for v, b in enumerate(best[2]):
        blocks[b].append(v)
    return FractionalPackingResult(
        value=best[0], partition=tuple(frozenset(b) for b in blocks), p=best[1]
    )


def tau_partition_bruteforce(g: Graph) -> int:
    """Oracle: the spanning-tree packing number as the floor of the
    enumerated fractional packing number (Nash-Williams-Tutte)."""
    return math.floor(nu_f_bruteforce(g).value)


def exists_good_forest_bruteforce(n: int, edges, d: int) -> bool:
    """Independent oracle: scan every forest of the edge set and test the
    size bound and big-component requirement literally on each one."""
    edges = sorted(set(edges))

    def is_forest(forest):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in forest:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    def good(forest):
        if not (d * len(forest) > (d - 1) * (n - 1)):
            return False
        if len(forest) == n - 1:
            return True  # a forest with n-1 edges spans
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in forest:
            parent[find(u)] = find(v)
        counts: dict[int, int] = {}
        for u, _ in forest:
            counts[find(u)] = counts.get(find(u), 0) + 1
        return any(c >= d for c in counts.values())

    def rec(i, forest):
        if good(forest):
            return True
        if i == len(edges):
            return False
        if rec(i + 1, forest):
            return True
        cand = forest + [edges[i]]
        return is_forest(cand) and rec(i + 1, cand)

    return rec(0, [])


class _RollbackDSU:
    """Union-find without path compression so unions roll back in O(1)."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.trail: list[int] = []

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, u: int, v: int) -> bool:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        self.parent[ru] = rv
        self.trail.append(ru)
        return True

    def undo(self) -> None:
        ru = self.trail.pop()
        self.parent[ru] = ru


def remainder_feasible(n: int, remainder_edges, d: int) -> bool:
    """Whether some forest inside the remainder meets conditions B and C
    of P(k, d). A maximal forest of the remainder is the largest one and
    has the largest components, so it decides both; a spanning one always
    qualifies (at n = 1 too, where it has no edges)."""
    forest = _union_edges(n, remainder_edges)[1]
    return len(forest) == n - 1 or not _forest_faults(n, forest, d)


class _Verdict(Exception):
    def __init__(self, status: str):
        self.status = status


def enumerate_packings(g: Graph, k: int, d: int, budget=math.inf) -> tuple[str, int]:
    """Oracle for `search_pkd_witness`: enumerate every k-packing and ask
    `remainder_feasible` whether the leftover edges host the forest.
    Trees are built as increasing edge-index sequences with strictly
    increasing first edges across the trees, so each unordered packing
    appears exactly once. Returns the verdict and the nodes visited; past
    `budget` nodes the verdict is INCONCLUSIVE."""
    edges = g.sorted_edges()
    m, n, need = len(edges), g.n, g.n - 1
    used = [False] * m
    nodes = 0

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _Verdict("INCONCLUSIVE")

    def start_tree(ti: int, min_first: int) -> None:
        tick()
        unused = [edges[j] for j in range(m) if not used[j]]
        if ti == k:
            if remainder_feasible(n, unused, d):
                raise _Verdict("FOUND")
            return
        spans = _RollbackDSU(n)
        if sum(spans.union(u, v) for u, v in unused) < need:
            return
        grow(ti, _RollbackDSU(n), min_first, 0, None)

    def grow(ti: int, dsu: _RollbackDSU, pos: int, cnt: int, first) -> None:
        tick()
        if cnt == need:
            start_tree(ti + 1, first + 1)
            return
        for j in range(pos, m):
            if m - j < need - cnt:
                break
            if used[j] or not dsu.union(*edges[j]):
                continue
            used[j] = True
            grow(ti, dsu, j + 1, cnt + 1, j if first is None else first)
            used[j] = False
            dsu.undo()

    try:
        start_tree(0, 0)
    except _Verdict as verdict:
        return verdict.status, nodes
    return "REFUTED", nodes


def trace(m) -> float:
    return sum(m.rows[i][i] for i in range(m.order))


def frobenius_norm(m) -> float:
    return math.sqrt(sum(x * x for r in m.rows for x in r))


def mat_scale(m, c: float):
    return matrix_from_rows([[c * x for x in r] for r in m.rows])


def trace_exact(q) -> Fraction:
    """The exact trace of a QuotientMatrix."""
    return sum((q.entries[i][i] for i in range(q.t)), Fraction(0))


def jacobi_eigenvalues(m) -> tuple[float, ...]:
    """Accuracy oracle: all eigenvalues of the SymmetricMatrix m by cyclic
    Jacobi rotations, sorted non-increasing. Converged once the
    off-diagonal Frobenius norm is at most 1e-13 times that of m; by
    Weyl's inequality every diagonal entry is then within that norm of an
    eigenvalue."""
    n = m.order
    a = [list(r) for r in m.rows]
    threshold = 1e-13 * frobenius_norm(m)

    def off_norm() -> float:
        return math.sqrt(2.0 * sum(a[i][j] ** 2 for i in range(n) for j in range(i + 1, n)))

    for _ in range(100):
        if off_norm() <= threshold:
            return tuple(sorted((a[i][i] for i in range(n)), reverse=True))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
                for r in range(n):
                    if r != p and r != q:
                        arp, arq = a[r][p], a[r][q]
                        a[r][p] = a[p][r] = c * arp - s * arq
                        a[r][q] = a[q][r] = s * arp + c * arq
    raise AssertionError("Jacobi oracle not converged after 100 sweeps")


def desk_corpus(max_n: int, include_random: bool = True):
    """Named small graphs plus seeded random connected graphs, all with
    at most max_n vertices."""
    graphs = []
    for n in range(2, max_n + 1):
        graphs.append(complete(n))
    for n in range(3, max_n + 1):
        graphs.append(cycle(n))
    for n in range(2, max_n + 1):
        graphs.append(path(n))
    for leaves in range(2, max_n):
        if leaves + 1 <= max_n:
            graphs.append(star(leaves))
    for fam, params in [
        ("clique_chain", {"blocks": 3, "q": 2, "links": 1}),
        ("clique_chain", {"blocks": 3, "q": 3, "links": 1}),
        ("clique_star", {"pendants": 3, "q": 2, "links": 1}),
    ]:
        g = generate(FamilySpec(fam, params))
        if g.n <= max_n:
            graphs.append(g)
    if include_random:
        rng = random.Random(20240917)
        for _ in range(40):
            graphs.append(random_connected_graph(rng, 4, min(9, max_n)))
    return graphs
