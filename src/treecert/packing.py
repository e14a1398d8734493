"""Exact spanning-tree packing machinery.

Three routes live here, one per quantity:

* the fractional packing number by Cunningham's optimal attack: Newton
  steps on lambda, each one max-flow per vertex (exact rationals; the
  set-partition enumeration it replaced is a test oracle). The packing
  number tau is its floor (Nash-Williams 1961, Tutte 1961),
* constructive tree packing by matroid-union augmentation (polynomial,
  produces the actual trees, the primal witness for tau). Each part is
  filled greedily by union-find first, so augmenting searches run only
  for the edges the fill rejects; the forests are parent-pointer trees,
  so a path query climbs to the meeting point of its ends instead of
  scanning the part,
* the P(k, d) decision: whether k disjoint spanning trees can leave room
  for one more sufficiently large forest. Counting refutes it outright
  when the min degree or the edges left beside k trees fall short; else
  a (k+1)-forest matroid-union state seeded with k packed trees refutes
  by its rank (REFUTED) or holds a qualifying forest beside those trees
  (FOUND). What is left is
  decided exactly over the connected (d+1)-vertex sets S that the big
  component of the forest can span (Edmonds 1965, matroid partition): one
  polynomial union per S, so the search is exponential only in
  min(d, n-d). A budget on the sets tried is the one source of
  INCONCLUSIVE; the k-packing enumeration it replaced is a test oracle.

All threshold comparisons are integer/rational; floating point never
decides a combinatorial branch.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .connectivity import GtWitness, edge_connectivity, max_flow, validate_gt_witness
from .errors import ToolError
from .graphs import Edge, Graph, VertexSet, boundary_size, check_ints, components, edge
from .graphs import is_connected, per_graph
from .graphs import _components_from_edges, _find, _mask_to_set, _union_edges

DEFAULT_BUDGET = 100_000  # connected (d+1)-vertex sets tried by search_pkd_witness


@dataclass(frozen=True)
class FractionalPackingResult:
    value: Fraction
    partition: tuple[VertexSet, ...]
    p: int


@dataclass(frozen=True)
class PackingWitness:
    """k edge-disjoint spanning trees plus one more edge-disjoint forest."""

    trees: tuple[frozenset[Edge], ...]
    forest: frozenset[Edge]
    k: int
    d: int


@dataclass(frozen=True)
class PkdSearchResult:
    status: str  # FOUND | REFUTED | INCONCLUSIVE
    witness: PackingWitness | None
    nodes: int


# ---------------------------------------------------------------------------
# fractional packing number


@per_graph
def nu_f_exact(g: Graph) -> FractionalPackingResult:
    """Exact min over all vertex partitions P (p >= 2 blocks) of
    (crossing edges) / (p - 1), by Cunningham's optimal attack (1985).

    Newton (Dinkelbach) steps on lambda start at m/(n-1), the ratio of the
    all-singleton partition. Each step takes the minimum of
    |E(P)| - lambda(|P| - 1) over all partitions from `_attack`; when it
    is 0, lambda is the value, else lambda moves down to the ratio of the
    minimizing partition.

    Ties prefer more blocks, then the lexicographically first assignment.
    Since |E(P)| - lambda|P| is submodular on the partition lattice, the
    optimal partitions at lambda = nu_f have a unique finest member; that
    is the one with the most blocks, and the one `_attack` returns.
    Blocks are ordered by their smallest vertex. Disconnected graphs yield
    value 0 with the component partition.
    """
    if g.n < 2:
        raise ToolError("TOO_SMALL", f"need n >= 2, got n={g.n}")
    if not is_connected(g):
        comps = components(g)
        return FractionalPackingResult(value=Fraction(0), partition=tuple(comps), p=len(comps))
    lam = Fraction(g.m, g.n - 1)
    while True:
        settled, label = _attack(g, lam)
        crossing = sum(1 for u, v in g.edges if label[u] != label[v])
        blocks: dict[int, list[int]] = {}
        for v in range(g.n):
            blocks.setdefault(label[v], []).append(v)
        if settled:
            break
        lam = Fraction(crossing, len(blocks) - 1)
    return FractionalPackingResult(
        value=lam, partition=tuple(frozenset(b) for b in blocks.values()), p=len(blocks)
    )


def _attack(g: Graph, lam: Fraction) -> tuple[bool, list[int]]:
    """Whether min over partitions P of |E(P)| - lam(|P| - 1) is 0, and
    the finest P attaining the minimum as a block label per vertex.

    |E(P)| - lam|P| sums h(B) = d(B)/2 - lam over the blocks, so this is
    the greedy for the Dilworth truncation of h. Vertex i gets
    x(i) = min{h(B) - x(B - i) : i in B, B within 0..i}, one max-flow with
    capacities scaled to integers by 2q (lam = p/q): the source is i, the
    sink is the contracted vertices above i, every edge carries q each
    way, and vertex u < i gets an arc from i of capacity x(u) when
    x(u) >= 0, else an arc to the sink of capacity -x(u). The minimum is
    lam + x(V). The blocks that meet the minimal source side merge with i.
    """
    p, q = lam.numerator, lam.denominator
    n = g.n
    x = [0] * n  # 2q * x(v)
    label = list(range(n))
    for i in range(n):
        cap: list[dict[int, int]] = [{} for _ in range(n + 1)]
        for u, w in g.edges:
            if w <= i:
                cap[u][w] = cap[w][u] = q
            elif u <= i:
                cap[u][n] = cap[u].get(n, 0) + q
        for u in range(i):
            if x[u] > 0:
                cap[i][u] = cap[i].get(u, 0) + x[u]
            elif x[u] < 0:
                cap[u][n] = cap[u].get(n, 0) - x[u]
        flow, source_side = max_flow(cap, i, n)
        x[i] = flow - 2 * p - sum(x[u] for u in range(i) if x[u] > 0)
        merged = {label[u] for u in source_side}
        for u in range(i + 1):
            if label[u] in merged:
                label[u] = i
    return 2 * p + sum(x) == 0, label


# ---------------------------------------------------------------------------
# constructive packing (matroid-union augmentation)


class _Forests:
    """Edge-disjoint forests on the vertices 0..n, each part a
    parent-pointer forest: `up[i][x]` is x's parent in part i (-1 at a
    root) and `via[i][x]` the edge to it. Linking re-roots one tree.

    Part i is the graphic matroid of the endpoint map `ends[i]`: e joins
    the vertices `ends[i](e)`, or is a loop there when that is None. A map
    of None is the graph itself. Pointers run over the mapped ends but
    `via` keeps the original edge, so path queries return graph edges in
    every part.

    `dead` holds the edges a failed augmenting search labeled: none of
    them reaches a free slot until the forests change, so each is skipped
    as an offer and never labeled again. Any insertion clears it.
    """

    def __init__(self, n: int, k: int):
        self.n = n
        self.up: list[list[int]] = []
        self.via: list[list[Edge | None]] = []
        self.size: list[int] = []
        self.ends: list = []
        self.owner: dict[Edge, int] = {}
        self.dead: set[Edge] = set()
        for _ in range(k):
            self.add_part(None)

    def add_part(self, ends) -> None:
        self.up.append([-1] * (self.n + 1))  # vertex n: S contracted in _set_union
        self.via.append([None] * (self.n + 1))
        self.size.append(0)
        self.ends.append(ends)
        self.dead.clear()

    def add(self, i: int, e: Edge) -> None:
        """Put e in part i; its mapped ends must lie in different trees.
        The end nearer its root is re-rooted and hung from the other."""
        u, v = e if self.ends[i] is None else self.ends[i](e)
        up, via = self.up[i], self.via[i]
        a, b = u, v
        while up[a] >= 0 and up[b] >= 0:
            a, b = up[a], up[b]
        if up[a] >= 0:
            u, v, a, b = v, u, b, a
        while up[b] >= 0:
            b = up[b]
        if a == b:  # a pointer cycle would hang every later query
            raise ToolError("INTERNAL", f"edge {e} would close a cycle in forest {i}")
        x, prev, prev_edge = u, v, e
        while x >= 0:
            nxt, nxt_edge = up[x], via[x]
            up[x], via[x] = prev, prev_edge
            x, prev, prev_edge = nxt, x, nxt_edge
        self.owner[e] = i
        self.size[i] += 1
        self.dead.clear()

    def remove(self, i: int, e: Edge) -> None:
        u, v = e if self.ends[i] is None else self.ends[i](e)
        up, via = self.up[i], self.via[i]
        child = u if up[u] == v else v
        up[child], via[child] = -1, None
        del self.owner[e]
        self.size[i] -= 1

    def path_edges(self, i: int, u: int, v: int) -> list[Edge] | None:
        """Edges of the part-i path from u to v; None if no path exists
        (so an edge joining u and v can join part i without a cycle).
        The ends climb in turn until one steps onto a vertex the other has
        passed, their meeting point; two roots mean different trees."""
        up, via = self.up[i], self.via[i]
        chain_u, chain_v = [u], [v]
        at_u, at_v = {u: 0}, {v: 0}  # vertex -> its place on that chain
        a, b = u, v
        while a >= 0 or b >= 0:
            if a >= 0 and (a := up[a]) >= 0:
                if a in at_v:
                    return [via[x] for x in chain_u] + [via[x] for x in chain_v[: at_v[a]]]
                at_u[a] = len(chain_u)
                chain_u.append(a)
            if b >= 0 and (b := up[b]) >= 0:
                if b in at_u:
                    return [via[x] for x in chain_v] + [via[x] for x in chain_u[: at_u[b]]]
                at_v[b] = len(chain_v)
                chain_v.append(b)
        return None

    def try_insert(self, e0: Edge) -> bool:
        """Shortest augmenting exchange: breadth-first labeling over edges,
        then the chain of moves that frees a slot for e0."""
        dead = self.dead
        pred: dict[Edge, tuple[Edge, int] | None] = {e0: None}
        dq = deque([e0])
        while dq:
            f = dq.popleft()
            own = self.owner.get(f)
            for i, ends in enumerate(self.ends):
                if i == own:
                    continue
                uv = f if ends is None else ends(f)
                if uv is None:
                    continue
                path = self.path_edges(i, *uv)
                if path is None:
                    cur, dest = f, i
                    while True:
                        src = self.owner.get(cur)
                        if src is not None:
                            self.remove(src, cur)
                        self.add(dest, cur)
                        info = pred[cur]
                        if info is None:
                            break
                        cur, dest = info
                    return True
                for h in path:
                    if h not in pred and h not in dead:
                        pred[h] = (f, i)
                        dq.append(h)
        dead.update(pred)
        return False

    def fill(self, i: int, edges, cap: int) -> int:
        """Greedy: put into part i each unplaced edge whose mapped ends lie
        in different trees of it, by one union-find seeded with its trees,
        stopping after `cap`; returns how many went in."""
        up, ends = self.up[i], self.ends[i]
        parent, _ = _union_edges(len(up), [(x, y) for x, y in enumerate(up) if y >= 0])
        placed = 0
        for e in edges:
            if placed == cap:
                break
            if e in self.owner:
                continue
            uv = e if ends is None else ends(e)
            if uv is None:
                continue
            ru, rv = _find(parent, uv[0]), _find(parent, uv[1])
            if ru != rv:
                parent[ru] = rv
                self.add(i, e)
                placed += 1
        return placed

    def insert_all(self, edges, cap: int) -> int:
        """Fill every part that is not a spanning tree, then offer each
        edge still unplaced once, in order, stopping after `cap`
        insertions; returns how many went in. An edge the union rejects
        stays rejected as the forests grow, so one pass reaches the union
        rank."""
        placed = 0
        for i, size in enumerate(self.size):
            if size < self.n - 1 and placed < cap:
                placed += self.fill(i, edges, min(cap - placed, self.n - 1 - size))
        for e in edges:
            if placed == cap:
                break
            if e not in self.owner and e not in self.dead and self.try_insert(e):
                placed += 1
        return placed

    def edge_sets(self, trees: int) -> list[frozenset[Edge]]:
        """Each part's edges; the first `trees` parts must be spanning trees."""
        out: list[set[Edge]] = [set() for _ in self.up]
        for e, i in self.owner.items():
            out[i].add(e)
        if not all(_is_spanning_tree(t, self.n) for t in out[:trees]):
            raise ToolError("INTERNAL", "augmentation produced a non-tree")
        return [frozenset(s) for s in out]


def _pack(g: Graph, k: int) -> _Forests | None:
    """k edge-disjoint spanning trees of g as a k-part union state, or None
    exactly when they do not exist."""
    target = k * (g.n - 1)
    if g.m < target:
        return None
    forests = _Forests(g.n, k)
    if forests.insert_all(g.sorted_edges(), target) < target:
        return None
    return forests


def pack_spanning_trees(g: Graph, k: int) -> tuple[frozenset[Edge], ...] | None:
    """k pairwise edge-disjoint spanning trees of g, or None exactly when
    fewer than k exist. Matroid-union augmentation over the k forests."""
    check_ints(k=k)
    if k < 1:
        raise ToolError("PARAMETER_ERROR", f"k must be >= 1, got {k}")
    if not is_connected(g):
        raise ToolError("DISCONNECTED", "tree packing needs a connected graph")
    forests = _pack(g, k)
    return None if forests is None else tuple(forests.edge_sets(k))


def tau_packing(g: Graph) -> int:
    """Spanning-tree packing number: floor(nu_f) by Nash-Williams (1961)
    and Tutte (1961). `pack_spanning_trees(g, tau)` builds the trees; the
    nu_f partition P, with |E(P)| < (tau+1)(|P|-1), shows that tau+1 do
    not exist. Disconnected graphs give 0."""
    if g.n < 2:
        raise ToolError("TOO_SMALL", f"need n >= 2, got n={g.n}")
    return math.floor(nu_f_exact(g).value)


# ---------------------------------------------------------------------------
# forest helpers


def _is_forest(edges, n: int) -> bool:
    return len(_union_edges(n, edges)[1]) == len(edges)


def _is_spanning_tree(edges, n: int) -> bool:
    return len(edges) == n - 1 and _is_forest(edges, n)


def _forest_faults(n: int, forest, d: int) -> list[str]:
    """The conditions of P(k, d) that the forest F misses: CONDITION_B,
    more than (d-1)/d of n-1 edges, and CONDITION_C, a component with d
    edges unless F spans."""
    faults = []
    if d * len(forest) <= (d - 1) * (n - 1):
        faults.append("CONDITION_B")
    if len(forest) < n - 1 and max(map(len, _components_from_edges(n, forest))) <= d:
        faults.append("CONDITION_C")
    return faults


# ---------------------------------------------------------------------------
# property P(k, d): verification and search


def verify_pkd_witness(g: Graph, w: PackingWitness) -> list[str]:
    """Every violated witness invariant (empty list = valid).

    Checks all of: each tree spans, everything is pairwise edge-disjoint,
    the extra edge set is a forest, its size clears the exact rational
    threshold, and a non-spanning forest has a component with >= d edges.
    """
    check_ints(k=w.k, d=w.d)
    if w.k < 1 or w.d < 1:
        raise ToolError("PARAMETER_ERROR", "k and d must be >= 1")
    for es in list(w.trees) + [w.forest]:
        for e in es:
            if edge(*e) not in g.edges:
                raise ToolError("FOREIGN_EDGE", f"edge {e} not in the graph")
    # (u, v) and (v, u) are one edge: compare normalised edges
    trees = [[edge(*e) for e in t] for t in w.trees]
    forest = [edge(*e) for e in w.forest]
    violations = []
    if len(trees) != w.k:
        violations.append("TREE_COUNT")
    for i, t in enumerate(trees):
        if not _is_spanning_tree(t, g.n):
            violations.append(f"TREE_INVALID:{i}")
    every = [e for es in trees + [forest] for e in es]
    if len(set(every)) != len(every):
        violations.append("NOT_EDGE_DISJOINT")
    if not _is_forest(forest, g.n):
        violations.append("FOREST_INVALID")
    else:
        violations += _forest_faults(g.n, forest, w.d)
    return violations


def _set_union(g: Graph, trees, s: VertexSet) -> list[frozenset[Edge]] | None:
    """The spanning trees `trees` seed a union whose last part holds a
    spanning tree B of G[S] and then the largest forest J of G/S it can.
    Returns the trees followed by B + J, or None when no spanning trees
    leave room for B.

    Phase A makes the last part graphic(G[S]), with every other edge a
    loop, and fills it to |S| - 1 edges. Phase B makes it graphic(G[S]) +
    graphic(G/S), S contracted to the fresh vertex n. As B spans G[S], a
    chain swaps S-edges only for S-edges and grows only J, so B stays a
    spanning tree of G[S], and B + J is the largest forest holding one
    that fits beside some k spanning trees.
    """
    n, d = g.n, len(s) - 1
    edges = g.sorted_edges()
    forests = _Forests(n, len(trees))
    for i, t in enumerate(trees):
        for e in t:
            forests.add(i, e)
    forests.add_part(lambda e: e if e[0] in s and e[1] in s else None)
    if forests.insert_all(edges, d) < d:
        return None

    def contracted(e: Edge) -> Edge:
        u, v = e
        return e if u in s and v in s else (n if u in s else u, n if v in s else v)

    # B's edges keep their ends under the new map, so its pointers stay;
    # the dead edges were dead for the old map only
    forests.ends[-1] = contracted
    forests.dead.clear()
    forests.insert_all(edges, n - 1 - d)
    return forests.edge_sets(len(trees))


def _connected_sets(g: Graph, size: int):
    """Every connected vertex set with `size` vertices exactly once: rooted
    at its smallest vertex, grown by larger ones, branching on the smallest
    frontier vertex (take it, or drop it for good)."""
    for r in range(g.n):
        stack = [(1 << r, 0, g.adj_bits[r])]  # set, dropped, neighbours
        while stack:
            bits, dropped, nbrs = stack.pop()
            if bits.bit_count() == size:
                yield _mask_to_set(bits)
                continue
            frontier = nbrs & ~bits & ~dropped & (-1 << (r + 1))
            if frontier:
                low = frontier & -frontier
                stack.append((bits, dropped | low, nbrs))
                nbrs |= g.adj_bits[low.bit_length() - 1]
                stack.append((bits | low, dropped, nbrs))


def search_pkd_witness(
    g: Graph, k: int, d: int, budget: int = DEFAULT_BUDGET
) -> PkdSearchResult:
    """Decide whether k disjoint spanning trees plus a qualifying extra
    forest exist.

    Counting first: min degree below k, or too few edges beside k trees
    for condition B, settles REFUTED before any union is built. Stage 1:
    k packed trees seed a (k+1)-part union whose last part is graphic(g);
    offering every edge gives the largest extra forest size f over all
    k-packings, and d*f <= (d-1)(n-1) settles REFUTED. Stage 2:
    the union is maximal, so its extra forest is a maximal forest of the
    edges outside its k trees; if it also meets condition C it is the
    witness, FOUND. Both report nodes = 0.

    What is left has d < n - 1 (for d >= n - 1 only a spanning forest
    qualifies, and stage 1 or 2 settles it), so condition C holds exactly
    when F contains a spanning tree of G[S] for a connected S with d + 1
    vertices. Stage 3 runs `_set_union` with the stage-1 trees once per S
    from `_connected_sets`, exponential only in min(d, n - d): FOUND as
    soon as the forest clears the size bound, REFUTED when none does.
    `nodes` counts the sets tried; past `budget` of them the verdict is
    INCONCLUSIVE. FOUND always carries a verified witness.
    """
    if g.n < 2:
        raise ToolError("TOO_SMALL", f"need n >= 2, got n={g.n}")
    check_ints(k=k, d=d, budget=budget)
    if k < 1 or d < 1:
        raise ToolError("PARAMETER_ERROR", "k and d must be >= 1")
    if budget < 1:
        raise ToolError("PARAMETER_ERROR", f"budget must be >= 1, got {budget}")
    if not is_connected(g):
        raise ToolError("DISCONNECTED", "the search needs a connected graph")

    n = g.n
    if _counting_refutes(g, k, d):
        return PkdSearchResult("REFUTED", None, 0)
    stage_one = _stage_one(g, k)
    if stage_one is None:
        return PkdSearchResult("REFUTED", None, 0)
    *trees, forest = stage_one
    faults = _forest_faults(n, forest, d)
    if "CONDITION_B" in faults:
        return PkdSearchResult("REFUTED", None, 0)
    if not faults:
        return PkdSearchResult("FOUND", _build_witness(g, trees, forest, k, d), 0)
    tried = 0
    for s in _connected_sets(g, d + 1):
        if tried == budget:
            return PkdSearchResult("INCONCLUSIVE", None, tried)
        tried += 1
        found = _set_union(g, trees, s)
        if found is not None and not _forest_faults(n, found[-1], d):
            *trees, forest = found
            return PkdSearchResult("FOUND", _build_witness(g, trees, forest, k, d), tried)
    return PkdSearchResult("REFUTED", None, tried)


def _counting_refutes(g: Graph, k: int, d: int) -> bool:
    """Whether counting alone refutes P(k, d): each spanning tree meets
    every vertex, so k of them need min degree >= k; and the extra forest
    has at most m - k(n-1) edges, so condition B needs
    d(m - k(n-1)) > (d-1)(n-1)."""
    return g.min_degree < k or d * (g.m - k * (g.n - 1)) <= (d - 1) * (g.n - 1)


def _stage_one(g: Graph, k: int) -> list[frozenset[Edge]] | None:
    """Stage 1 of the search: k packed trees, then the largest extra forest
    beside them, or None when g has no k disjoint spanning trees."""
    forests = _pack(g, k)
    if forests is None:
        return None
    forests.add_part(None)
    forests.insert_all(g.sorted_edges(), g.n - 1)
    return forests.edge_sets(k)


def _build_witness(g: Graph, trees, forest, k: int, d: int) -> PackingWitness:
    w = PackingWitness(trees=tuple(trees), forest=forest, k=k, d=d)
    bad = verify_pkd_witness(g, w)
    if bad:
        raise ToolError("INTERNAL", f"search built an invalid witness: {bad}")
    return w


# ---------------------------------------------------------------------------
# constructive decomposition into four big components


def lemma41_decompose(
    g: Graph, gt: GtWitness, x, k: int
) -> tuple[frozenset[Edge], tuple[VertexSet, ...]]:
    """Given a cut x splitting g into three components under the stated
    boundary bounds, produce extra edges x' (at most kappa' of them, all
    outside x) whose removal leaves exactly four components, each with at
    least min_degree + 1 vertices.

    The construction cuts one component along its intersection with a
    witness subset; the pieces that leaves are regrouped into two
    connected sides via a spanning tree of the contracted piece graph,
    which keeps every removed edge inside the candidate cut.
    """
    check_ints(k=k)
    if k < 2:
        raise ToolError("PARAMETER_ERROR", f"k must be >= 2, got {k}")
    xset = frozenset(edge(*e) for e in x)
    for e in xset:
        if e not in g.edges:
            raise ToolError("FOREIGN_EDGE", f"edge {e} not in the graph")
    delta = g.min_degree
    if delta < 3 * k + 3:
        raise ToolError(
            "HYPOTHESIS_VIOLATED", f"min degree {delta} < 3k+3 = {3 * k + 3}"
        )
    remaining = g.edges - xset
    comps = _components_from_edges(g.n, remaining)
    if len(comps) != 3:
        raise ToolError(
            "WRONG_COMPONENT_COUNT", f"cut leaves {len(comps)} components, need 3"
        )
    r = [boundary_size(g, comp) for comp in comps]
    for ri in r:
        if not (k + 1 <= ri <= 2 * k + 1):
            raise ToolError(
                "HYPOTHESIS_VIOLATED", f"boundary {ri} outside [{k + 1}, {2 * k + 1}]"
            )
    if sum(r) > 4 * k + 3:
        raise ToolError("HYPOTHESIS_VIOLATED", f"sum of boundaries {sum(r)} > {4 * k + 3}")
    if gt.t != 2:
        raise ToolError("HYPOTHESIS_VIOLATED", f"need a t=2 witness, got t={gt.t}")
    problems = validate_gt_witness(g, gt)
    if problems:
        raise ToolError("HYPOTHESIS_VIOLATED", f"invalid class witness: {problems}")

    kappa, _ = edge_connectivity(g)
    split = None
    for comp in comps:
        for block in gt.subsets:
            inter = comp & block
            if inter and inter != comp:
                split = (comp, inter)
                break
        if split:
            break
    if split is None:
        raise ToolError("NO_SPLIT_FOUND", "no component meets a witness subset properly")

    comp, inter = split
    comp_edges = [e for e in remaining if e[0] in comp and e[1] in comp]
    x1 = {e for e in comp_edges if (e[0] in inter) != (e[1] in inter)}
    keep = [e for e in comp_edges if e not in x1]
    pieces = [p for p in _components_from_edges(g.n, keep) if p <= comp]
    # contract the pieces and drop the first edge of a spanning tree of the
    # contracted graph: the two subtrees are connected sides, and only x1
    # edges cross between them (all of x1 when there are two pieces)
    piece_of = {v: pi for pi, p in enumerate(pieces) for v in p}
    _, tree = _union_edges(len(pieces), sorted({(piece_of[u], piece_of[v]) for u, v in x1}))
    side = next(c for c in _components_from_edges(len(pieces), tree[1:]) if tree[0][0] in c)
    x_prime = frozenset(e for e in x1 if (piece_of[e[0]] in side) != (piece_of[e[1]] in side))

    final = _components_from_edges(g.n, g.edges - xset - x_prime)
    if len(final) != 4:
        raise ToolError("NO_SPLIT_FOUND", f"removal left {len(final)} components")
    if len(x_prime) > kappa:
        raise ToolError("NO_SPLIT_FOUND", f"|x'|={len(x_prime)} exceeds kappa'={kappa}")
    if any(len(c) < delta + 1 for c in final):
        raise ToolError("NO_SPLIT_FOUND", "a component is smaller than min degree + 1")
    return x_prime, tuple(final)
