import random
from fractions import Fraction

import pytest

from treecert import (
    ToolError,
    build_matrix,
    check_interlacing,
    check_weyl,
    cut_profile,
    quotient_laplacian,
    spectral_profile,
)
from treecert.spectra import matrix_from_rows

from corpus import (
    complete,
    cycle,
    mat_scale,
    path,
    random_connected_graph,
    random_graph,
    trace_exact,
)


def _random_partition(rng, n, p):
    while True:
        assign = [rng.randrange(p) for _ in range(n)]
        blocks = [[v for v in range(n) if assign[v] == b] for b in range(p)]
        if all(blocks):
            return blocks


def test_quotient_k4_two_blocks():
    q = quotient_laplacian(complete(4), [{0, 1}, {2, 3}])
    assert q.entries == (
        (Fraction(2), Fraction(-2)),
        (Fraction(-2), Fraction(2)),
    )
    eigs = q.eigenvalues()
    assert abs(eigs[0] - 4) < 1e-9 and abs(eigs[1]) < 1e-9


def test_quotient_singletons_is_the_laplacian():
    g = path(3)
    q = quotient_laplacian(g, [{0}, {1}, {2}])
    lap = build_matrix(g, 1, -1)
    for i in range(3):
        for j in range(3):
            assert float(q.entries[i][j]) == lap.rows[i][j]


def test_quotient_c4():
    q = quotient_laplacian(cycle(4), [{0, 1}, {2, 3}])
    assert q.entries == (
        (Fraction(1), Fraction(-1)),
        (Fraction(-1), Fraction(1)),
    )
    eigs = q.eigenvalues()
    assert abs(eigs[0] - 2) < 1e-9 and abs(eigs[1]) < 1e-9


def test_quotient_row_sums_zero_and_trace():
    rng = random.Random(42)
    for _ in range(50):
        g = random_connected_graph(rng, 3, 9)
        blocks = _random_partition(rng, g.n, rng.randint(2, min(4, g.n)))
        q = quotient_laplacian(g, blocks)
        prof = cut_profile(g, blocks)
        for i in range(q.t):
            assert sum(q.entries[i], Fraction(0)) == 0
        assert trace_exact(q) == sum(
            Fraction(prof.r[i], len(prof.partition[i])) for i in range(q.t)
        )
        # eigenvalue sum matches the exact trace
        assert abs(sum(q.eigenvalues()) - float(trace_exact(q))) < 1e-8


def test_cut_profile_identities():
    rng = random.Random(6)
    for _ in range(30):
        g = random_graph(rng, 4, 9)
        blocks = _random_partition(rng, g.n, rng.randint(2, 4))
        prof = cut_profile(g, blocks)
        t = len(prof.partition)
        for i in range(t):
            assert prof.r[i] == sum(prof.r_pair[i][j] for j in range(t) if j != i)
        assert sum(prof.r) == 2 * sum(
            prof.r_pair[i][j] for i in range(t) for j in range(i + 1, t)
        )


def test_partition_validation():
    with pytest.raises(ToolError) as err:
        quotient_laplacian(complete(4), [{0, 1}, {1, 2, 3}])
    assert err.value.code == "PARTITION_INVALID"
    with pytest.raises(ToolError):
        quotient_laplacian(complete(4), [{0, 1}])  # does not cover


def test_check_interlacing_cases():
    assert check_interlacing([4, 4, 4, 0], [4, 0], 1e-8) is None
    assert check_interlacing([3, 1, 0], [2.9, 1.1], 1e-8) == 2
    assert check_interlacing([5, 5], [5], 1e-8) is None
    with pytest.raises(ToolError) as err:
        check_interlacing([1, 0], [1, 0], 1e-8)
    assert err.value.code == "LENGTH_ERROR"


def test_interlacing_suite_random():
    rng = random.Random(314)
    for _ in range(200):
        g = random_connected_graph(rng, 3, 10)
        p = rng.randint(2, min(4, g.n - 1)) if g.n > 2 else 2
        blocks = _random_partition(rng, g.n, p)
        q_eigs = quotient_laplacian(g, blocks).eigenvalues()
        lap = spectral_profile(g, 1, -1).eigenvalues
        assert check_interlacing(lap, q_eigs, 1e-8) is None
        # the quotient inherits positive semidefiniteness
        assert q_eigs[-1] >= -1e-8
        assert q_eigs[0] <= float(
            trace_exact(quotient_laplacian(g, blocks))
        ) + len(blocks) * 1e-8


def test_weyl_degree_laplacian_decomposition():
    k4 = complete(4)
    d_mat = build_matrix(k4, 1, 0)
    neg_l = mat_scale(build_matrix(k4, 1, -1), -1.0)
    assert check_weyl(d_mat, neg_l, 1e-8) == []


def test_weyl_zero_matrices():
    z = matrix_from_rows([[0.0] * 3 for _ in range(3)])
    assert check_weyl(z, z, 1e-8) == []


def test_weyl_random_pairs():
    rng = random.Random(2718)
    for _ in range(60):
        n = rng.randint(2, 6)

        def rand_sym():
            m = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.uniform(-3, 3)
            return matrix_from_rows(m)

        assert check_weyl(rand_sym(), rand_sym(), 1e-8) == []


def test_weyl_shape_error():
    a = matrix_from_rows([[1.0]])
    b = matrix_from_rows([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ToolError) as err:
        check_weyl(a, b, 1e-8)
    assert err.value.code == "SHAPE_ERROR"
