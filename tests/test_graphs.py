import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecert import (
    ParseError,
    ToolError,
    components,
    cut_size,
    edge_connectivity,
    is_connected,
    nu_f_exact,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    serialize_edge_list,
)
from treecert.graphs import build_graph, validate_partition

from corpus import complete, components_reference, cycle, graphs, path, random_graph, star


def test_parse_path():
    g = parse_edge_list("3 2\n0 1\n1 2")
    assert g.n == 3 and g.m == 2
    assert g.min_degree == 1 and g.max_degree == 2


def test_parse_self_loop_line_number():
    with pytest.raises(ParseError) as err:
        parse_edge_list("2 1\n0 0")
    assert err.value.code == "SELF_LOOP"
    assert err.value.line == 2


def test_parse_duplicate_edge_line_number():
    with pytest.raises(ParseError) as err:
        parse_edge_list("3 2\n0 1\n0 1")
    assert err.value.code == "DUPLICATE_EDGE"
    assert err.value.line == 3


def test_parse_duplicate_reversed():
    with pytest.raises(ParseError) as err:
        parse_edge_list("3 2\n0 1\n1 0")
    assert err.value.code == "DUPLICATE_EDGE"


def test_parse_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_edge_list("3 1\n0 5")
    assert err.value.code == "VERTEX_OUT_OF_RANGE"
    assert err.value.line == 2


def test_parse_count_mismatch_both_ways():
    with pytest.raises(ParseError) as err:
        parse_edge_list("3 1\n0 1\n1 2")
    assert err.value.code == "EDGE_COUNT_MISMATCH"
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_edge_list("3 2\n0 1")
    assert err.value.code == "EDGE_COUNT_MISMATCH"


def test_parse_malformed():
    with pytest.raises(ParseError) as err:
        parse_edge_list("3 1\n0 x")
    assert err.value.code == "MALFORMED_LINE"
    with pytest.raises(ParseError):
        parse_edge_list("")


def test_parse_caps_the_vertex_count():
    from treecert.graphs import MAX_VERTICES

    for text in (f"{MAX_VERTICES + 1} 0", "100000000 1\n0 1"):
        with pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert err.value.code == "TOO_LARGE" and err.value.line == 1
    assert parse_edge_list(f"{MAX_VERTICES} 0").n == MAX_VERTICES
    # graph6 four-byte size field: n = 2000
    size = "~" + "".join(chr(63 + ((2000 >> s) & 63)) for s in (12, 6, 0))
    with pytest.raises(ParseError) as err:
        parse_graph6(size)
    assert err.value.code == "TOO_LARGE"


_edge_list_like = st.lists(
    st.lists(
        st.one_of(st.integers(-2, 12), st.integers(), st.sampled_from(["x", "", "1.5"])),
        max_size=3,
    ).map(lambda row: " ".join(map(str, row))),
    max_size=8,
).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _edge_list_like))
def test_parsers_raise_only_parse_errors(text):
    for parse in (parse_edge_list, parse_graph6):
        try:
            parse(text)
        except ParseError:
            pass


def test_cut_size_examples():
    k4 = complete(4)
    assert cut_size(k4, {0}, {1, 2, 3}) == 3
    c4 = cycle(4)
    assert cut_size(c4, {0, 1}, {2, 3}) == 2
    assert cut_size(c4, {0, 2}, {1, 3}) == 4


def test_cut_size_rejects_overlap():
    with pytest.raises(ToolError) as err:
        cut_size(complete(4), {0, 1}, {1, 2})
    assert err.value.code == "DISJOINTNESS_VIOLATION"


def test_components_examples():
    assert components(path(3)) == [frozenset({0, 1, 2})]
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert components(g) == [frozenset({0, 1, 2}), frozenset({3, 4})]
    assert components(build_graph(3, [])) == [
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    ]
    # the answers built on the component order stay as they were
    g = build_graph(6, [(3, 4), (1, 2), (0, 1)])
    assert edge_connectivity(g) == (0, frozenset({5}))
    res = nu_f_exact(g)
    assert res.partition == (frozenset({0, 1, 2}), frozenset({3, 4}), frozenset({5}))
    assert (res.value, res.p) == (0, 3)


@settings(max_examples=200)
@given(graphs(n_min=1, n_max=12))
def test_components_match_the_search_reference(g):
    # the union-find route gives the reference's sets in the reference's
    # order, and so do the disconnected answers built on it
    want = components_reference(g)
    assert components(g) == want
    assert is_connected(g) == (len(want) == 1)
    if len(want) > 1:
        assert edge_connectivity(g) == (0, min(want, key=lambda s: (len(s), sorted(s))))
        res = nu_f_exact(g)
        assert (res.value, res.partition, res.p) == (0, tuple(want), len(want))


def test_degree_sum_identity():
    g = random_graph(random.Random(7), 6, 10)
    assert sum(g.degrees) == 2 * g.m


@settings(max_examples=60)
@given(st.integers(2, 9), st.randoms(use_true_random=False))
def test_cut_identity_and_roundtrip(n, rnd):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rnd.random() < 0.5
    ]
    g = build_graph(n, edges)
    # parse(serialize(g)) == g
    assert parse_edge_list(serialize_edge_list(g)) == g
    # cut(x, V-x) = sum deg(x) - 2 * internal(x)
    x = {v for v in range(n) if rnd.random() < 0.5}
    y = set(range(n)) - x
    if x and y:
        internal = sum(1 for (u, v) in edges if u in x and v in x)
        assert cut_size(g, x, y) == sum(g.degrees[v] for v in x) - 2 * internal


def test_components_form_partition():
    g = random_graph(random.Random(3), 5, 9, p=0.2)
    blocks = components(g)
    validate_partition(g, blocks)


# graph6: known encodings (K2 = 'A_', P3 = 'Bg', K3 = 'Bw', K4 = 'C~')
def test_graph6_known_strings():
    assert parse_graph6("A_") == complete(2)
    assert parse_graph6("Bw") == complete(3)
    assert parse_graph6("C~") == complete(4)
    assert parse_graph6(">>graph6<<Bg") == path(3)


def test_graph6_matches_cycle():
    # C4 as 0-1-2-3-0: bits (01)(02)(12)(03)(13)(23) = 101101 -> chr(45+63)
    assert parse_graph6("C" + chr(45 + 63)) == cycle(4)


def test_parse_graph_autodetect():
    assert parse_graph("2 1\n0 1") == complete(2)
    assert parse_graph("A_") == complete(2)


def test_star_shape():
    g = star(3)
    assert g.min_degree == 1 and g.max_degree == 3 and g.m == 3


def test_package_exports_no_modules():
    import types

    import treecert

    assert treecert.__all__
    assert not [n for n in treecert.__all__ if isinstance(getattr(treecert, n), types.ModuleType)]
