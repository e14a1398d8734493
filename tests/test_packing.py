import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis.strategies import integers

from treecert import (
    FamilySpec,
    PackingWitness,
    ToolError,
    build_graph,
    check_cut_lower_bound,
    generate,
    gt_membership,
    is_connected,
    lemma41_decompose,
    lemma41_gadget_fixture,
    nu_f_exact,
    pack_spanning_trees,
    search_pkd_witness,
    tau_packing,
    verify_pkd_witness,
)
from treecert.graphs import _components_from_edges, edge
from treecert.packing import (
    DEFAULT_BUDGET,
    PkdSearchResult,
    _is_forest,
    _is_spanning_tree,
    _connected_sets,
    _Forests,
    _counting_refutes,
    _set_union,
    _stage_one,
)

from corpus import (
    BfsForests,
    all_connected_graphs,
    clique_chains,
    complete,
    cycle,
    enumerate_packings,
    graphs,
    nu_f_bruteforce,
    path,
    path_edges_reference,
    random_connected_graph,
    remainder_feasible,
    star,
    tau_partition_bruteforce,
)


def relabel(g, perm):
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# ---------------------------------------------------------------------------
# nu_f


def test_nu_f_examples():
    r4 = nu_f_exact(complete(4))
    assert r4.value == 2 and r4.p == 4
    r5 = nu_f_exact(complete(5))
    assert r5.value == Fraction(5, 2) and r5.p == 5
    for n in range(3, 8):
        assert nu_f_exact(cycle(n)).value == Fraction(n, n - 1)
    for g in (path(5), star(4), path(2)):
        assert nu_f_exact(g).value == 1
    # trees tie between the all-singleton partition and coarser ones; the
    # tie goes to more blocks
    assert nu_f_exact(path(4)).p == 4


def test_nu_f_minimizing_partition_is_consistent():
    rng = random.Random(2)
    for _ in range(40):
        g = random_connected_graph(rng, 2, 7)
        res = nu_f_exact(g)
        crossing = sum(
            1
            for (u, v) in g.edges
            if next(i for i, b in enumerate(res.partition) if u in b)
            != next(i for i, b in enumerate(res.partition) if v in b)
        )
        assert res.value == Fraction(crossing, res.p - 1)
        assert res.p == len(res.partition)


def test_nu_f_disconnected_and_caps():
    g = build_graph(4, [(0, 1), (2, 3)])
    res = nu_f_exact(g)
    assert res.value == 0 and res.p == 2
    # no size cap: the attack is polynomial
    res = nu_f_exact(complete(13))
    assert res.value == Fraction(13, 2) and res.p == 13
    assert nu_f_exact(complete(30)).value == 15
    assert nu_f_exact(cycle(40)).value == Fraction(40, 39)


def _same_nu_f(g):
    res, oracle = nu_f_exact(g), nu_f_bruteforce(g)
    assert (res.value, res.p, res.partition) == (oracle.value, oracle.p, oracle.partition)


def test_nu_f_matches_enumeration_on_small_and_named_graphs():
    for n in range(2, 6):
        for g in all_connected_graphs(n):
            _same_nu_f(g)
    for g in [cycle(n) for n in range(3, 10)] + [path(n) for n in range(2, 10)]:
        _same_nu_f(g)
    for g in [star(k) for k in range(2, 9)] + clique_chains(9):
        _same_nu_f(g)


@settings(max_examples=150, deadline=None)
@given(graphs(n_min=2, n_max=9, connected=True))
def test_nu_f_matches_enumeration_property(g):
    _same_nu_f(g)


def test_tau_examples():
    assert tau_partition_bruteforce(complete(4)) == 2
    assert tau_partition_bruteforce(cycle(5)) == 1
    assert tau_partition_bruteforce(build_graph(4, [(0, 1), (2, 3)])) == 0


# ---------------------------------------------------------------------------
# constructive packing


def test_pack_examples():
    trees = pack_spanning_trees(complete(4), 2)
    assert trees is not None and len(trees) == 2
    for t in trees:
        assert _is_spanning_tree(t, 4)
    assert not (trees[0] & trees[1])
    assert pack_spanning_trees(cycle(4), 2) is None  # 4 edges < 2*(n-1)
    assert pack_spanning_trees(complete(2), 1) == (frozenset({(0, 1)}),)


def test_pack_rejects_disconnected():
    with pytest.raises(ToolError) as err:
        pack_spanning_trees(build_graph(4, [(0, 1), (2, 3)]), 1)
    assert err.value.code == "DISCONNECTED"


def test_oracle_equivalence_small():
    for n in range(2, 5):
        for g in all_connected_graphs(n):
            tau = tau_partition_bruteforce(g)
            for k in range(1, tau + 2):
                assert (pack_spanning_trees(g, k) is not None) == (tau >= k)
            assert tau_packing(g) == tau


def test_oracle_equivalence_random():
    rng = random.Random(17)
    for _ in range(80):
        g = random_connected_graph(rng, 2, 6)
        tau = tau_partition_bruteforce(g)
        assert tau_packing(g) == tau
        assert tau == nu_f_exact(g).value.__floor__()


@settings(max_examples=60, deadline=None)
@given(graphs(n_max=6, connected=True))
def test_oracle_equivalence_property(g):
    tau = tau_partition_bruteforce(g)
    assert (pack_spanning_trees(g, tau + 1) is None) if g.n > 1 else True
    if tau >= 1:
        trees = pack_spanning_trees(g, tau)
        assert trees is not None
        assert all(_is_spanning_tree(t, g.n) for t in trees)


def test_packed_trees_are_disjoint_spanning():
    rng = random.Random(71)
    for _ in range(40):
        g = random_connected_graph(rng, 3, 8)
        tau = tau_partition_bruteforce(g)
        if tau < 1:
            continue
        trees = pack_spanning_trees(g, tau)
        assert trees is not None
        seen = set()
        for t in trees:
            assert _is_spanning_tree(t, g.n)
            assert not (seen & t)
            seen |= t


# ---------------------------------------------------------------------------
# witness verification


def test_verify_valid_two_tree_witness():
    k5 = complete(5)
    trees = pack_spanning_trees(k5, 2)
    w = PackingWitness(trees=(trees[0],), forest=trees[1], k=1, d=2)
    assert verify_pkd_witness(k5, w) == []


def test_verify_condition_c():
    k4 = complete(4)
    w = PackingWitness(
        trees=(frozenset({(0, 2), (1, 2), (1, 3)}),),
        forest=frozenset({(0, 1), (2, 3)}),
        k=1,
        d=2,
    )
    assert verify_pkd_witness(k4, w) == ["CONDITION_C"]


def test_verify_shared_edge():
    k4 = complete(4)
    tree = frozenset({(0, 1), (1, 2), (2, 3)})
    w = PackingWitness(trees=(tree,), forest=frozenset({(0, 1), (0, 3), (0, 2)}), k=1, d=1)
    assert "NOT_EDGE_DISJOINT" in verify_pkd_witness(k4, w)


def test_verify_shared_edge_written_in_reverse():
    k3 = complete(3)
    tree = frozenset({(0, 1), (1, 2)})
    for reused in [(0, 1), (1, 0)]:
        w = PackingWitness(trees=(tree,), forest=frozenset({reused}), k=1, d=1)
        assert "NOT_EDGE_DISJOINT" in verify_pkd_witness(k3, w), reused


def test_verify_foreign_edge():
    with pytest.raises(ToolError) as err:
        verify_pkd_witness(
            cycle(4),
            PackingWitness(trees=(frozenset({(0, 2)}),), forest=frozenset(), k=1, d=1),
        )
    assert err.value.code == "FOREIGN_EDGE"


def test_verify_reports_all_failures():
    k4 = complete(4)
    w = PackingWitness(
        trees=(frozenset({(0, 1), (1, 2)}),),  # too small
        forest=frozenset({(0, 1)}),  # shared edge and too small for d=3
        k=1,
        d=3,
    )
    out = verify_pkd_witness(k4, w)
    assert "TREE_INVALID:0" in out
    assert "NOT_EDGE_DISJOINT" in out
    assert "CONDITION_B" in out


# ---------------------------------------------------------------------------
# the search


def test_search_examples():
    res = search_pkd_witness(complete(5), 1, 2)
    assert res.status == "FOUND"
    assert verify_pkd_witness(complete(5), res.witness) == []
    assert search_pkd_witness(cycle(4), 1, 2).status == "REFUTED"
    assert search_pkd_witness(complete(4), 2, 3).status == "REFUTED"


def test_search_seeded_route_settles_without_enumeration():
    # K4 plus a pendant vertex: tau = 1. The pendant edge sits in every
    # tree, so any extra forest has at most 3 edges: FOUND for d = 2, and
    # REFUTED by the rank bound at d = 5, which needs 4.
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
    assert tau_partition_bruteforce(g) == 1
    found = search_pkd_witness(g, 1, 2)
    assert (found.status, found.nodes) == ("FOUND", 0)
    assert verify_pkd_witness(g, found.witness) == []
    assert search_pkd_witness(g, 1, 5) == PkdSearchResult("REFUTED", None, 0)
    # tau >= k + 1: the extra forest spans
    spans = search_pkd_witness(complete(6), 2, 5)
    assert (spans.status, spans.nodes, len(spans.witness.forest)) == ("FOUND", 0, 5)
    # fewer than k trees
    assert search_pkd_witness(cycle(5), 2, 1) == PkdSearchResult("REFUTED", None, 0)


# Vertex 0 joins every vertex, 1-5 is a pendant edge and 2, 3, 4 a
# triangle: tau = 1 and the seeded tree leaves a big enough remainder whose
# components are too small for d = 4, so only the set route settles it.
FALLBACK_GRAPH = build_graph(
    6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 5), (2, 3), (2, 4), (3, 4)]
)


def clique_chain(blocks, q, links):
    return generate(FamilySpec("clique_chain", {"blocks": blocks, "q": q, "links": links}))


def test_search_found_by_subtree_route():
    g = FALLBACK_GRAPH
    assert tau_partition_bruteforce(g) == 1
    res = search_pkd_witness(g, 1, 4)
    assert res.status == "FOUND"
    assert res.nodes > 0  # really went through the set route
    assert verify_pkd_witness(g, res.witness) == []


def test_search_budget_exhaustion():
    # REFUTED only after 20 connected 5-vertex sets, so one set stops it
    res = search_pkd_witness(clique_chain(2, 4, 1), 1, 4, budget=1)
    assert res.status == "INCONCLUSIVE"
    assert res.witness is None
    assert res.nodes > 0


@pytest.mark.parametrize("budget", [0, -5])
def test_search_rejects_budget_below_one(budget):
    with pytest.raises(ToolError) as err:
        search_pkd_witness(FALLBACK_GRAPH, 1, 4, budget=budget)
    assert err.value.code == "PARAMETER_ERROR"


def test_set_route_found_where_enumeration_needs_millions():
    # the k-packing enumeration needed 51.7 M nodes here
    g = build_graph(9, [(0, 1), (0, 5), (0, 6), (0, 8), (1, 2), (1, 3), (1, 4), (1, 5),
                        (1, 6), (1, 7), (2, 3), (2, 5), (2, 6), (2, 7), (3, 4), (3, 5),
                        (3, 6), (3, 7), (3, 8), (4, 8), (5, 6), (5, 7), (6, 7)])
    res = search_pkd_witness(g, 2, 7, budget=20_000)
    assert res.status == "FOUND" and res.nodes > 0
    assert verify_pkd_witness(g, res.witness) == []


def test_set_route_refutes_where_enumeration_is_inconclusive():
    # the enumeration is still INCONCLUSIVE after 5 M nodes
    res = search_pkd_witness(clique_chain(3, 5, 1), 1, 5)
    assert res.status == "REFUTED" and res.nodes > 0


def test_set_route_found_where_subtrees_ran_past_the_default_budget():
    # a search over frozen 9-edge subtrees needed 270 299 of them here,
    # and the enumeration is INCONCLUSIVE at 20 M nodes
    g = build_graph(11, [(0, 1), (0, 4), (0, 9), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3),
                         (2, 4), (2, 5), (2, 7), (2, 8), (2, 9), (3, 4), (3, 6), (3, 7),
                         (3, 8), (3, 9), (3, 10), (4, 7), (4, 9), (4, 10), (5, 8), (6, 7),
                         (6, 9), (6, 10), (7, 9), (7, 10), (9, 10)])
    res = search_pkd_witness(g, 2, 9, budget=DEFAULT_BUDGET)
    assert res.status == "FOUND" and res.nodes > 0
    assert verify_pkd_witness(g, res.witness) == []


def test_seeded_decision_matches_enumeration():
    """The seeded verdict, with the set route behind it, equals the
    full canonical enumeration (unlimited budget) on every connected graph
    with n <= 5 and on random connected graphs with n <= 9, for k in
    {1, 2} and d in 1..5."""
    rng = random.Random(9)
    randoms = []
    while len(randoms) < 150:
        g = random_connected_graph(rng, 2, 9)
        if g.m <= 14:  # keeps the exhaustive oracle quick
            randoms.append(g)
    sample = [g for n in range(2, 6) for g in all_connected_graphs(n)] + randoms
    # known fallback cases: the seeded trees leave a forest of the right
    # size whose components are too small; the clique chain is REFUTED at
    # k = 1, d = 4 after 20 sets
    sample.append(FALLBACK_GRAPH)
    sample.append(
        build_graph(7, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 5), (2, 3), (2, 4),
                        (2, 5), (2, 6), (3, 5), (4, 6)])
    )
    sample.append(clique_chain(2, 4, 1))
    fallbacks = Counter()
    for g in sample:
        for k in (1, 2):
            for d in range(1, 6):
                res = search_pkd_witness(g, k, d)
                oracle, _ = enumerate_packings(g, k, d)
                assert res.status == oracle, (g, sorted(g.edges), k, d)
                if res.witness is not None:
                    assert verify_pkd_witness(g, res.witness) == []
                if res.nodes > 0:
                    fallbacks[res.status] += 1
    assert fallbacks["FOUND"] >= 2 and fallbacks["REFUTED"] >= 1


def test_stage_one_forest_has_the_components_of_the_edges_outside_the_trees():
    """Stage 2 decides on the stage-1 extra forest. The union is maximal,
    so that forest is a maximal forest of E - trees: no edge outside the
    trees joins two of its components. Stage 1 is called directly, since
    the search returns on counting refutations before it."""
    rng = random.Random(18)
    sample = [
        generate(FamilySpec("gnp", {"n": n, "p": p}, seed=rng.getrandbits(32)))
        for n in range(4, 15)
        for p in (0.4, 0.6, 0.8)
    ]
    sample += [
        generate(FamilySpec("random_regular", {"n": n, "r": r}, seed=seed))
        for n, r in [(8, 3), (8, 5), (10, 4), (10, 6), (12, 5), (14, 8)]
        for seed in (1, 2)
    ]
    sample += clique_chains(12)
    cases = 0
    for g in sample:
        if not is_connected(g):
            continue
        for k in (1, 2, 3):
            stage_one = _stage_one(g, k)
            if stage_one is None:  # fewer than k spanning trees
                continue
            *trees, forest = stage_one
            rest = g.edges.difference(*trees)
            assert forest <= rest
            assert sorted(map(sorted, _components_from_edges(g.n, forest))) == sorted(
                map(sorted, _components_from_edges(g.n, rest))
            ), (sorted(g.edges), k)
            cases += 1
    assert cases >= 150


@settings(max_examples=60, deadline=None)
@given(graphs(n_min=2, n_max=8, connected=True))
def test_search_and_counting_refutations_match_enumeration(g):
    """On connected graphs with n <= 8, at k = 1-3 and every d from 1 to
    n, the search status equals the k-packing enumeration, and every
    counting refutation is one the enumeration makes. The edge bound past
    n = 5 keeps the exhaustive oracle quick."""
    assume(g.n <= 5 or g.m <= 2 * g.n - 1)
    for k in (1, 2, 3):
        for d in range(1, g.n + 1):
            res = search_pkd_witness(g, k, d)
            oracle, _ = enumerate_packings(g, k, d)
            assert res.status == oracle, (sorted(g.edges), k, d)
            if _counting_refutes(g, k, d):
                assert oracle == "REFUTED"
                assert res == PkdSearchResult("REFUTED", None, 0)


@settings(max_examples=80, deadline=None)
@given(graphs(n_min=2, n_max=9), integers(1, 3), integers(0, 2**9 - 1), integers(0, 2))
def test_union_rank_matches_the_bfs_union(g, k, s_bits, last):
    """k graphic parts and one more part, graphic(g), graphic(G[S]) or
    graphic(G[S]) + graphic(G/S) with S contracted to vertex n: the union
    reaches the rank of the BFS-per-edge union, and every part is a forest
    on its mapped ends."""
    s = frozenset(v for v in range(g.n) if s_bits >> v & 1)
    n = g.n

    def inside(e):
        return e if e[0] in s and e[1] in s else None

    def contracted(e):
        u, v = e
        return e if u in s and v in s else (n if u in s else u, n if v in s else v)

    fast, slow = _Forests(n, k), BfsForests(k)
    for forests in (fast, slow):
        forests.add_part([None, inside, contracted][last])
    edges = g.sorted_edges()
    assert fast.insert_all(edges, g.m) == slow.insert_all(edges, g.m)
    for part, ends in zip(fast.edge_sets(0), fast.ends):
        mapped = [e if ends is None else ends(e) for e in part]
        assert None not in mapped and _is_forest(mapped, n + 1)


def test_path_queries_match_the_bfs_reference():
    """Parent-pointer path queries find the path the BFS reference finds
    (or none with it) over random sequences of links and cuts in a part."""
    rng = random.Random(24)
    for _ in range(40):
        n = rng.randint(2, 16)
        forests = _Forests(n, 1)
        adj: dict = {}
        for _ in range(150):
            u, v = rng.sample(range(n), 2)
            path = forests.path_edges(0, u, v)
            ref = path_edges_reference(adj, u, v)
            assert (path is None) == (ref is None)
            if path is None:
                e = edge(u, v)
                forests.add(0, e)
                adj.setdefault(u, {})[v] = adj.setdefault(v, {})[u] = e
            else:
                assert sorted(path) == sorted(ref)
                if rng.random() < 0.4:
                    a, b = cut = rng.choice(path)
                    forests.remove(0, cut)
                    del adj[a][b], adj[b][a]
    closed = _Forests(3, 1)
    closed.add(0, (0, 1))
    closed.add(0, (1, 2))
    with pytest.raises(ToolError) as err:  # a cycle is refused, not linked
        closed.add(0, (0, 2))
    assert err.value.code == "INTERNAL"


def _same_connected_sets(g):
    for size in range(1, g.n + 1):
        listed = list(_connected_sets(g, size))
        assert len(listed) == len(set(listed))  # each set once
        bruteforce = {
            frozenset(c)
            for c in combinations(range(g.n), size)
            if frozenset(c) in _components_from_edges(g.n, [e for e in g.edges if set(e) <= set(c)])
        }
        assert set(listed) == bruteforce


def test_connected_sets_match_bruteforce_on_small_graphs():
    for n in range(2, 6):
        for g in all_connected_graphs(n):
            _same_connected_sets(g)


@settings(max_examples=80, deadline=None)
@given(graphs(n_min=2, n_max=7, connected=True))
def test_connected_sets_match_bruteforce_property(g):
    _same_connected_sets(g)


def test_set_union_keeps_a_spanning_tree_of_the_set():
    # augmenting chains move edges inside S out of the last part here, so
    # only the swap of S-edges for S-edges keeps B spanning G[S]
    moving = build_graph(8, [(0, 1), (0, 2), (0, 4), (0, 6), (1, 4), (2, 3), (2, 4), (2, 5),
                             (2, 6), (3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7), (5, 6),
                             (5, 7)])
    for g in all_connected_graphs(5) + [moving]:
        for k in (1, 2):
            packed = pack_spanning_trees(g, k)
            if packed is None:
                continue
            for d in range(1, g.n - 1):
                for s in _connected_sets(g, d + 1):
                    found = _set_union(g, packed, s)
                    if found is None:
                        continue
                    *trees, forest = found
                    inside = [e for e in forest if e[0] in s and e[1] in s]
                    assert _is_forest(forest, g.n)
                    assert len(inside) == d and _is_forest(inside, g.n)
                    assert all(_is_spanning_tree(t, g.n) for t in trees)
                    assert not any(t & forest for t in trees)


def test_seeded_stages_settle_when_d_reaches_n_minus_1():
    # only a spanning forest qualifies, so the union rank decides
    for n in range(2, 6):
        for g in all_connected_graphs(n):
            for k in (1, 2):
                for d in range(n - 1, n + 2):
                    if d >= 1:
                        assert search_pkd_witness(g, k, d).nodes == 0


def test_search_refuted_stable_under_relabeling():
    rng = random.Random(4)
    cases = [(cycle(4), 1, 2), (complete(4), 2, 3), (cycle(6), 1, 3)]
    for g, k, d in cases:
        base = search_pkd_witness(g, k, d).status
        for _ in range(4):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert search_pkd_witness(relabel(g, perm), k, d).status == base


def test_search_preconditions():
    with pytest.raises(ToolError):
        search_pkd_witness(build_graph(4, [(0, 1), (2, 3)]), 1, 1)
    with pytest.raises(ToolError):
        search_pkd_witness(complete(4), 0, 1)


_K6 = complete(6)
_K6_WITNESS = search_pkd_witness(_K6, 1, 2).witness
_GADGET = lemma41_gadget_fixture(2)


@pytest.mark.parametrize(
    "entry, args",
    [
        (search_pkd_witness, (_K6, 1, 2.5)),
        (search_pkd_witness, (_K6, 1.5, 2)),
        (search_pkd_witness, (_K6, True, 2)),
        (search_pkd_witness, (_K6, "1", 2)),
        (search_pkd_witness, (_K6, 1, 2, 10.0)),
        (search_pkd_witness, (_K6, 1, 2, True)),
        (pack_spanning_trees, (_K6, 1.5)),
        (pack_spanning_trees, (_K6, True)),
        (verify_pkd_witness, (_K6, replace(_K6_WITNESS, d=2.5))),
        (verify_pkd_witness, (_K6, replace(_K6_WITNESS, k=1.0))),
        (gt_membership, (_K6, 1.0)),
        (gt_membership, (_K6, True)),
        (check_cut_lower_bound, (_K6, 2.0, "lemma2.4")),
        (lemma41_decompose, (_GADGET.graph, _GADGET.witness, _GADGET.cut, 2.0)),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_integer_parameters_are_refused_at_every_entry_point(entry, args):
    # k, d, t and budget follow one rule: an int that is not a bool
    with pytest.raises(ToolError) as err:
        entry(*args)
    assert err.value.code == "PARAMETER_ERROR"


def _all_spanning_trees(g):
    edges = g.sorted_edges()
    out = []

    def rec(i, chosen):
        if len(chosen) == g.n - 1:
            out.append(frozenset(chosen))
            return
        if i == len(edges) or len(edges) - i < g.n - 1 - len(chosen):
            return
        if _is_forest(chosen + [edges[i]], g.n):
            rec(i + 1, chosen + [edges[i]])
        rec(i + 1, chosen)

    rec(0, [])
    return out


def test_search_status_matches_naive_enumeration():
    """Fully independent decision procedure: materialize every spanning
    tree, try every disjoint k-tuple, and scan all forests of each
    remainder. Must agree with the search on FOUND vs REFUTED."""
    from corpus import exists_good_forest_bruteforce

    rng = random.Random(321)
    cases = 0
    while cases < 25:
        g = random_connected_graph(rng, 3, 5)
        if g.m > 8:
            continue
        k = rng.randint(1, 2)
        d = rng.randint(1, 3)
        trees = _all_spanning_trees(g)
        naive = False
        for combo in combinations(trees, k):
            union = set()
            ok = True
            for t in combo:
                if union & t:
                    ok = False
                    break
                union |= t
            if not ok:
                continue
            if exists_good_forest_bruteforce(g.n, g.edges - frozenset(union), d):
                naive = True
                break
        res = search_pkd_witness(g, k, d)
        assert res.status == ("FOUND" if naive else "REFUTED"), (g, k, d)
        cases += 1


# ---------------------------------------------------------------------------
# remainder reduction vs direct forest enumeration


def test_remainder_reduction_matches_enumeration():
    from corpus import exists_good_forest_bruteforce

    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(3, 7)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pool)
        edges = pool[: rng.randint(0, min(len(pool), 12))]
        d = rng.randint(1, 4)
        assert remainder_feasible(n, edges, d) == exists_good_forest_bruteforce(n, edges, d)


# ---------------------------------------------------------------------------
# the 4-component decomposition


def test_lemma41_gadget_decomposition():
    fx = lemma41_gadget_fixture(2)
    g = fx.graph
    from treecert import edge_connectivity

    kappa = edge_connectivity(g)[0]
    x_prime, comps = lemma41_decompose(g, fx.witness, fx.cut, fx.k)
    assert len(comps) == 4
    assert len(x_prime) <= kappa
    assert all(len(c) >= g.min_degree + 1 for c in comps)
    assert not (x_prime & fx.cut)


def test_lemma41_gadget_decomposition_k3():
    fx = lemma41_gadget_fixture(3)
    x_prime, comps = lemma41_decompose(fx.graph, fx.witness, fx.cut, fx.k)
    assert len(comps) == 4
    assert all(len(c) >= fx.graph.min_degree + 1 for c in comps)


def test_lemma41_wrong_component_count():
    fx = lemma41_gadget_fixture(2)
    cd_links = [(e) for e in fx.graph.edges if e[0] in range(20, 30) and e[1] in range(30, 40)]
    with pytest.raises(ToolError) as err:
        lemma41_decompose(fx.graph, fx.witness, cd_links, 2)
    assert err.value.code == "WRONG_COMPONENT_COUNT"


def test_lemma41_boundary_bound_violated():
    fx = lemma41_gadget_fixture(2)
    # swap the A-C links for the C-D links in the cut: the component that
    # keeps A and C together then has boundary 2k+2
    ab = [e for e in fx.cut if e[1] < 20]
    bc = [e for e in fx.cut if e[0] >= 10]
    cd = [e for e in fx.graph.edges if e[0] in range(20, 30) and e[1] in range(30, 40)]
    with pytest.raises(ToolError) as err:
        lemma41_decompose(fx.graph, fx.witness, ab + bc + cd, 2)
    assert err.value.code == "HYPOTHESIS_VIOLATED"


def test_lemma41_degree_hypothesis():
    fx = lemma41_gadget_fixture(2)
    with pytest.raises(ToolError) as err:
        lemma41_decompose(fx.graph, fx.witness, fx.cut, 3)  # needs delta >= 12
    assert err.value.code == "HYPOTHESIS_VIOLATED"


def test_lemma41_parameter_checks():
    fx = lemma41_gadget_fixture(2)
    with pytest.raises(ToolError) as err:
        lemma41_decompose(fx.graph, fx.witness, fx.cut, 1)
    assert err.value.code == "PARAMETER_ERROR"
    with pytest.raises(ToolError) as err:
        lemma41_decompose(fx.graph, fx.witness, [(0, 999)], 2)
    assert err.value.code == "FOREIGN_EDGE"


def test_lemma41_regrouping_branch():
    # Seven K10 blocks: M sits between leaves L1, L2 (one link each), so
    # cutting along the witness set M shatters its component into three
    # pieces and the spanning-tree regrouping has to rebuild two sides.
    # B carries pendant E and C carries pendant D (two links each) to
    # supply the other two minimum-cut sides (kappa' = 2).
    from treecert import GtWitness, edge_connectivity

    q = 10
    M = range(0, 10)
    L1 = range(10, 20)
    L2 = range(20, 30)
    B = range(30, 40)
    C = range(40, 50)
    E = range(50, 60)
    D = range(60, 70)
    edges = []
    for blk in (M, L1, L2, B, C, E, D):
        edges.extend(
            (blk[i], blk[j]) for i in range(q) for j in range(i + 1, q)
        )
    edges += [(M[0], L1[0]), (M[0], L2[0])]  # inside the split component
    cut = [
        (L1[1], B[0]), (L1[2], B[1]),  # L1-B
        (L2[1], C[0]), (L2[2], C[1]),  # L2-C
        (B[2], C[2]),                  # B-C
    ]
    edges += cut
    edges += [(B[3], E[0]), (B[4], E[1])]  # pendants keep kappa' = 2
    edges += [(C[3], D[0]), (C[4], D[1])]
    g = build_graph(70, edges)
    assert g.min_degree == 9
    assert edge_connectivity(g)[0] == 2
    witness = GtWitness(t=2, subsets=(frozenset(M), frozenset(E), frozenset(D)))
    from treecert import validate_gt_witness

    assert validate_gt_witness(g, witness) == []
    x_prime, comps = lemma41_decompose(g, witness, cut, 2)
    assert len(comps) == 4
    assert len(x_prime) <= 2
    assert all(len(c) >= 10 for c in comps)
