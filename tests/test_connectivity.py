import random

import pytest
from hypothesis import given, settings

from treecert import (
    FamilySpec,
    ToolError,
    build_graph,
    edge_connectivity,
    generate,
    gt_membership,
    min_cut_sides,
    validate_gt_witness,
)
from treecert.connectivity import SIDE_OUTPUT_CAP
from treecert.graphs import boundary_size

from corpus import (
    all_connected_graphs,
    clique_chains,
    complete,
    cycle,
    enumerate_cuts,
    graphs,
    gt_membership_backtrack,
    path,
    random_connected_graph,
    random_graph,
    star,
)


def test_edge_connectivity_examples():
    assert edge_connectivity(complete(4))[0] == 3
    assert edge_connectivity(cycle(5))[0] == 2
    assert edge_connectivity(path(6))[0] == 1
    assert edge_connectivity(star(4))[0] == 1


def test_edge_connectivity_witness_attains_value():
    rng = random.Random(31)
    for _ in range(60):
        g = random_connected_graph(rng, 2, 9)
        kappa, side = edge_connectivity(g)
        assert 0 < len(side) < g.n
        assert boundary_size(g, side) == kappa


def test_edge_connectivity_disconnected_and_small():
    g = build_graph(4, [(0, 1), (2, 3)])
    kappa, side = edge_connectivity(g)
    assert kappa == 0 and boundary_size(g, side) == 0
    with pytest.raises(ToolError) as err:
        edge_connectivity(build_graph(1, []))
    assert err.value.code == "TOO_SMALL"


def test_kappa_at_most_delta():
    rng = random.Random(101)
    for _ in range(500):
        g = random_graph(rng, 2, 12, p=rng.choice([0.2, 0.4, 0.7]))
        assert edge_connectivity(g)[0] <= g.min_degree


def test_flow_route_agrees_with_enumeration():
    rng = random.Random(77)
    for _ in range(120):
        g = random_connected_graph(rng, 2, 12)
        kappa, sides = enumerate_cuts(g)
        flow_kappa, flow_side = edge_connectivity(g)
        assert flow_kappa == kappa
        assert boundary_size(g, flow_side) == kappa
        assert flow_side in sides
        assert 0 in flow_side


def test_min_cut_sides_counts():
    assert len(min_cut_sides(complete(4))) == 8  # 4 singletons + 4 triples
    assert len(min_cut_sides(cycle(4))) == 12
    assert len(min_cut_sides(star(3))) == 6


def test_min_cut_sides_match_enumeration_on_small_and_named_graphs():
    for n in range(2, 6):
        for g in all_connected_graphs(n):
            assert min_cut_sides(g) == enumerate_cuts(g)[1]
    for n in range(3, 16):
        sides = min_cut_sides(cycle(n))
        assert len(sides) == n * (n - 1)
        assert sides == enumerate_cuts(cycle(n))[1]
    named = [path(n) for n in range(2, 13)] + [star(k) for k in range(2, 12)]
    for g in named + clique_chains(14):
        assert min_cut_sides(g) == enumerate_cuts(g)[1]


@settings(max_examples=150, deadline=None)
@given(graphs(n_min=2, n_max=14, connected=True))
def test_min_cut_sides_match_enumeration_property(g):
    assert min_cut_sides(g) == enumerate_cuts(g)[1]


def test_min_cut_sides_output_cap():
    assert len(min_cut_sides(cycle(100))) == 9900
    # C300 has 89 700 sides, 300 listed vertices per cut
    assert 89_700 // 2 * 300 > SIDE_OUTPUT_CAP
    with pytest.raises(ToolError) as err:
        min_cut_sides(cycle(300))
    assert err.value.code == "TOO_LARGE"


def test_min_cut_sides_all_attain_kappa_and_pair_up():
    rng = random.Random(13)
    for _ in range(40):
        g = random_connected_graph(rng, 3, 9)
        kappa, _ = edge_connectivity(g)
        sides = min_cut_sides(g)
        full = frozenset(range(g.n))
        for s in sides:
            assert boundary_size(g, s) == kappa
            assert (full - s) in set(sides)
        # canonical order: size then lexicographic
        keys = [(len(s), tuple(sorted(s))) for s in sides]
        assert keys == sorted(keys)


def test_min_cut_sides_preconditions():
    with pytest.raises(ToolError) as err:
        min_cut_sides(build_graph(4, [(0, 1), (2, 3)]))
    assert err.value.code == "DISCONNECTED"


def test_gt_membership_examples():
    w = gt_membership(complete(4), 1)
    assert w.subsets == (frozenset({0}), frozenset({1}))
    w = gt_membership(cycle(4), 1)
    assert w.subsets == (frozenset({0}), frozenset({1}))
    assert validate_gt_witness(cycle(4), w) == []


def test_gt_membership_clique_star_gadget():
    g = generate(FamilySpec("clique_star", {"pendants": 3, "q": 5, "links": 1}))
    assert edge_connectivity(g)[0] == 1
    w = gt_membership(g, 2)
    assert w is not None
    assert validate_gt_witness(g, w) == []


def test_gt_membership_not_member():
    # P4: sides with cut 1 are the prefixes; any two disjoint prefixes
    # would have to be {0} and... none, so t=1 needs the suffix side
    assert gt_membership(path(4), 1) is not None  # {0} and {3}
    # K2 plus pendant path is too small for t=2 leftover
    assert gt_membership(path(4), 2) is None


def test_gt_monotone_in_t():
    rng = random.Random(55)
    for _ in range(40):
        g = random_connected_graph(rng, 4, 9)
        for t in (2, 3):
            if g.n < t + 2:
                continue
            w = gt_membership(g, t)
            if w is not None:
                for smaller in range(1, t):
                    assert gt_membership(g, smaller) is not None


def test_complete_graphs_in_classes():
    for n in range(3, 9):
        assert gt_membership(complete(n), 1) is not None
    for n in range(4, 9):
        assert gt_membership(complete(n), 2) is not None


def test_gt_preconditions():
    with pytest.raises(ToolError) as err:
        gt_membership(complete(3), 2)  # n < t + 2
    assert err.value.code == "TOO_SMALL"
    with pytest.raises(ToolError) as err:
        gt_membership(complete(5), 0)
    assert err.value.code == "PARAMETER_ERROR"
    # t has no upper cap: K12 has 12 singleton sides, 10 of them leave two over
    w = gt_membership(complete(12), 9)
    assert w.subsets == tuple(frozenset({v}) for v in range(10))
    assert validate_gt_witness(complete(12), w) == []
    with pytest.raises(ToolError) as err:
        gt_membership(build_graph(5, [(0, 1)]), 1)
    assert err.value.code == "DISCONNECTED"


def _assert_gt_matches_backtrack(g):
    for t in (1, 2, 3):
        if g.n < t + 2:
            continue
        w = gt_membership(g, t)
        expected = gt_membership_backtrack(g, t)
        assert (None if w is None else w.subsets) == expected, (sorted(g.edges), t)
        if w is not None:
            assert w.t == t
            assert validate_gt_witness(g, w) == []


def test_gt_membership_matches_backtrack_on_all_small_graphs():
    for n in range(2, 7):
        for g in all_connected_graphs(n):
            _assert_gt_matches_backtrack(g)


@settings(max_examples=150, deadline=None)
@given(graphs(n_min=2, n_max=14, connected=True))
def test_gt_membership_matches_backtrack_property(g):
    _assert_gt_matches_backtrack(g)


def test_gt_witness_validation_catches_bad_witness():
    from treecert import GtWitness

    g = complete(4)
    bad = GtWitness(t=1, subsets=(frozenset({0, 1}), frozenset({2})))
    # {0,1} has boundary 4 != kappa' = 3
    assert validate_gt_witness(g, bad)
