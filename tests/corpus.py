"""Shared graph corpora for the test suite.

Everything here is seeded and deterministic so expected values can be
frozen into the tests.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path

from hypothesis import assume
from hypothesis.strategies import composite, integers

from treecert import ExperimentConfig, FamilySpec, Graph, build_graph, generate, is_connected

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
