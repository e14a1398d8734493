import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.strategies import composite

from treecert import (
    FamilySpec,
    ToolError,
    build_graph,
    build_matrix,
    generate,
    inertia,
    spectral_profile,
    sym_eigenvalues,
)
from treecert import spectra
from treecert.spectra import eigenvalue_clears, matrix_from_rows, simplest_between

from corpus import (
    complete,
    cycle,
    frobenius_norm,
    graphs,
    jacobi_eigenvalues,
    path,
    random_graph,
    star,
    trace,
)

TOL = 1e-9


def close(xs, ys, tol=TOL):
    return len(xs) == len(ys) and all(abs(a - b) <= tol for a, b in zip(xs, ys))


def test_build_matrix_k2():
    k2 = complete(2)
    assert build_matrix(k2, 1, -1).rows == ((1.0, -1.0), (-1.0, 1.0))
    assert build_matrix(k2, 0, 1).rows == ((0.0, 1.0), (1.0, 0.0))
    assert build_matrix(k2, 1, 1).rows == ((1.0, 1.0), (1.0, 1.0))


def test_laplacian_spectra_closed_forms():
    assert close(sym_eigenvalues(build_matrix(complete(2), 1, -1)), [2, 0])
    assert close(sym_eigenvalues(build_matrix(complete(4), 1, -1)), [4, 4, 4, 0])
    # characteristic polynomial of L(P3) factors as x(x-1)(x-3)
    assert close(sym_eigenvalues(build_matrix(path(3), 1, -1)), [3, 1, 0])


def test_adjacency_circulant_c4():
    # 2cos(2*pi*j/4) for j = 0..3
    assert close(sym_eigenvalues(build_matrix(cycle(4), 0, 1)), [2, 0, 0, -2])


def test_adjacency_circulant_formula():
    for n in (5, 6, 7):
        want = sorted((2 * math.cos(2 * math.pi * j / n) for j in range(n)), reverse=True)
        got = sym_eigenvalues(build_matrix(cycle(n), 0, 1))
        assert close(got, want, tol=1e-9)


def test_power_sum_identities():
    # independent oracle: trace(A^p) = sum(lambda^p) for p = 2, 3, without
    # going through any eigensolver
    rng = random.Random(1234)
    for _ in range(40):
        n = rng.randint(2, 7)
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = float(rng.randint(-3, 3))
        m = matrix_from_rows(rows)
        eigs = sym_eigenvalues(m)
        sq = [
            [sum(rows[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        cu = [
            [sum(sq[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        scale = 1 + frobenius_norm(m) ** 3
        assert abs(sum(x * x for x in eigs) - sum(sq[i][i] for i in range(n))) <= 1e-8 * scale
        assert abs(sum(x**3 for x in eigs) - sum(cu[i][i] for i in range(n))) <= 1e-8 * scale


def test_inertia_exact_cases():
    # C4 adjacency {2, 0, 0, -2}: the first pivot is a zero diagonal entry
    assert inertia(cycle(4), 0, 1, 0) == (1, 2, 1)
    assert inertia(complete(5), 0, 1, 0) == (1, 0, 4)  # {4, -1 x 4}
    assert inertia(complete(7), 1, -1, Fraction(7)) == (0, 6, 1)  # {7 x 6, 0}
    assert inertia(complete(7), 1, -1, 7 - Fraction(1, 10**12)) == (6, 0, 1)
    # 2D - A of P3 is {3 + sqrt 3, 2, 3 - sqrt 3}; at theta = 2 the zero
    # pivot's row is (0, -1) with M[1][1] = 2, so only s = -1 clears it
    assert inertia(path(3), 2, -1, 2) == (1, 1, 1)


def test_inertia_reads_ints_floats_and_fractions_alike():
    # C5 adjacency is {2, 0.618 x 2, -1.618 x 2}: A against 1/2, I + A and
    # A/2 against 0 each have three eigenvalues above and two below
    for point in ((0, 1, Fraction(1, 2)), (Fraction(1, 2), 1, 0), (0, Fraction(1, 2), 0)):
        forms = [point, tuple(map(float, point)), tuple(map(Fraction, point))]
        for first in forms:
            g = cycle(5)
            assert g.memo == {}
            for args in [first] + forms:  # the memo empty, then holding the answer
                assert inertia(g, *args) == (3, 0, 2), (first, args)
    for bad in (None, "x", float("nan"), float("inf"), "1/0"):
        with pytest.raises(ToolError) as err:
            inertia(cycle(5), 0, 1, bad)
        assert err.value.code == "PARAMETER_ERROR", bad
        with pytest.raises(ToolError) as err:
            spectral_profile(cycle(5), bad, 1)
        assert err.value.code == "PARAMETER_ERROR", bad


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    p=st.floats(0, 1),
    seed=st.integers(0, 2**32),
    a=_rationals,
    b=_rationals,
    theta=st.fractions(min_value=-30, max_value=30, max_denominator=12),
)
def test_inertia_matches_jacobi_counts(n, p, seed, a, b, theta):
    g = generate(FamilySpec("gnp", {"n": n, "p": p}, seed=seed))
    eigs = spectral_profile(g, a, b).eigenvalues
    assume(all(abs(x - theta) >= 1e-6 for x in eigs))
    above = sum(x > theta for x in eigs)
    assert inertia(g, a, b, theta) == (above, 0, n - above)


F = Fraction


def test_simplest_between_fixed_cases():
    assert simplest_between(F(3, 2), F(7, 2)) == 2  # integers inside: smallest |x|
    assert simplest_between(F(-1, 3), F(1, 5)) == 0
    assert simplest_between(F(-7, 2), F(-3, 2)) == -2
    assert simplest_between(F(-3, 10), F(-1, 5)) == F(-1, 4)
    assert simplest_between(F(-1), F(0)) == F(-1, 2)
    # integer open endpoints are excluded
    assert simplest_between(F(0), F(1)) == F(1, 2)
    assert simplest_between(F(2), F(3)) == F(5, 2)
    assert simplest_between(F(-3), F(-2)) == F(-5, 2)
    assert simplest_between(F(2), F(4)) == 3
    assert simplest_between(F(1, 3), F(1, 2)) == F(2, 5)
    # narrower than 1e-9
    eps = F(1, 10**10)
    assert simplest_between(F(1, 3) - eps, F(1, 3) + eps) == F(1, 3)
    assert simplest_between(eps, 2 * eps) == F(1, 5 * 10**9 + 1)
    lo = F(0.1)
    x = simplest_between(lo, lo + F(1, 2**60))
    assert lo < x < lo + F(1, 2**60)


_endpoints = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=500),
    st.floats(-20, 20).map(F),
)


@settings(max_examples=300, deadline=None)
@given(x=_endpoints, y=_endpoints)
def test_simplest_between_is_inside_and_simplest(x, y):
    assume(x != y)
    lo, hi = min(x, y), max(x, y)
    s = simplest_between(lo, hi)
    assert lo < s < hi
    for q in range(1, min(s.denominator, 51)):
        p = math.floor(lo * q) + 1  # smallest p with p/q > lo
        assert F(p, q) >= hi


def _exact_clears(g, a, b, side, index, theta):
    above, at, below = inertia(g, a, b, theta)
    return (above if side == "largest" else below) + at < index


def _float_eigenvalue(g, a, b, side, index):
    prof = spectral_profile(g, a, b)
    return prof.kth_largest(index) if side == "largest" else prof.kth_smallest(index)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    p=st.floats(0, 1),
    seed=st.integers(0, 2**32),
    a=_rationals,
    b=_rationals,
    theta=st.fractions(min_value=-30, max_value=30, max_denominator=12),
    side=st.sampled_from(["largest", "smallest"]),
    index=st.integers(1, 12),
    wrong=st.one_of(st.none(), st.floats(-40, 40)),
)
def test_eigenvalue_clears_matches_inertia_at_theta(n, p, seed, a, b, theta, side, index, wrong):
    # `wrong`: an arbitrary float in place of the eigenvalue estimate
    g = generate(FamilySpec("gnp", {"n": n, "p": p}, seed=seed))
    index = min(index, n)
    estimate = _float_eigenvalue(g, a, b, side, index) if wrong is None else wrong
    assert eigenvalue_clears(g, a, b, side, index, theta, estimate) == _exact_clears(
        g, a, b, side, index, theta
    )


def _recording_inertia(monkeypatch):
    thetas = []
    real = spectra.inertia

    def recorded(g, a, b, theta):
        thetas.append(theta)
        return real(g, a, b, theta)

    monkeypatch.setattr(spectra, "inertia", recorded)
    return thetas


def test_eigenvalue_clears_ties_fall_back_to_theta(monkeypatch):
    thetas = _recording_inertia(monkeypatch)
    ties = [  # (graph, a, b, theta, sorted spectrum holding theta, last point counted)
        # 5-regular: L = 5I - A, so the count runs on A at tau = (6 - 5)/(-1)
        (complete(6), 1, -1, F(6), [6, 6, 6, 6, 6, 0], F(-1)),
        (cycle(4), 0, 1, F(-2), [2, 0, 0, -2], F(-2)),
        (cycle(4), 0, 1, F(0), [2, 0, 0, -2], F(0)),
        (cycle(4), 0, 1, F(2), [2, 0, 0, -2], F(2)),
        # irregular: counted on 2D - A itself
        (path(3), 2, -1, F(2), [3 + math.sqrt(3), 2, 3 - math.sqrt(3)], F(2)),
    ]
    checked = 0
    for g, a, b, theta, spectrum, point in ties:
        for index in range(1, g.n + 1):
            for side, value in (("largest", spectrum[index - 1]), ("smallest", spectrum[-index])):
                if value != theta:
                    continue
                checked += 1
                del thetas[:]
                estimate = _float_eigenvalue(g, a, b, side, index)
                # an eigenvalue equal to theta does not clear it
                assert not eigenvalue_clears(g, a, b, side, index, theta, estimate)
                assert thetas[-1] == point
    assert checked == 20


def test_eigenvalue_clears_ignores_a_wrong_estimate(monkeypatch):
    # L(K5) = 4I - A(K5) is {5, 5, 5, 5, 0}; A(K5) is {4, -1, -1, -1, -1}
    k5 = complete(5)
    thetas = _recording_inertia(monkeypatch)
    # largest L-eigenvalue below 6 is the smallest A-eigenvalue above
    # tau = -2; the estimate 7 maps to -3, so sigma = -5/2 proves nothing
    assert eigenvalue_clears(k5, 1, -1, "largest", 1, F(6), 7.0)
    assert thetas == [F(-5, 2), F(-2)]
    assert not eigenvalue_clears(k5, 1, -1, "largest", 1, F(4), 3.0)
    assert not eigenvalue_clears(k5, 1, -1, "smallest", 2, F(6), 100.0)
    assert eigenvalue_clears(k5, 1, -1, "smallest", 1, F(-1, 3), -5.0)


@composite
def regular_graphs(draw, n_max: int = 14):
    n = draw(st.integers(2, n_max))
    r = draw(st.integers(1, n - 1).filter(lambda r: n * r % 2 == 0))
    return generate(FamilySpec("random_regular", {"n": n, "r": r}, seed=draw(st.integers(0, 2**32))))


@settings(max_examples=200, deadline=None)
@given(
    g=regular_graphs(),
    a=_rationals,
    b=st.one_of(st.just(F(0)), _rationals),
    theta=st.fractions(min_value=-30, max_value=30, max_denominator=12),
    tie=st.one_of(st.none(), st.integers(-14, 14)),
    side=st.sampled_from(["largest", "smallest"]),
    index=st.integers(1, 14),
    wrong=st.one_of(st.none(), st.floats(-40, 40)),
)
def test_eigenvalue_clears_on_regular_graphs_matches_inertia_at_theta(
    g, a, b, theta, tie, side, index, wrong
):
    # the decision runs on A(G) at tau = (theta - a*r)/b; the oracle counts
    # a*D + b*A at theta. `tie` puts theta at a*r + b*tie, on an eigenvalue
    # whenever tie is an integer adjacency eigenvalue (r always is)
    if tie is not None:
        theta = a * g.max_degree + b * tie
    index = min(index, g.n)
    estimate = _float_eigenvalue(g, a, b, side, index) if wrong is None else wrong
    assert eigenvalue_clears(g, a, b, side, index, theta, estimate) == _exact_clears(
        g, a, b, side, index, theta
    )


@settings(max_examples=100, deadline=None)
@given(g=regular_graphs(), a=_rationals, b=_rationals)
def test_regular_profile_matches_the_direct_solve(g, a, b):
    m = build_matrix(g, float(a), float(b))
    got = spectral_profile(g, a, b).eigenvalues
    tol = 1e-12 * (1 + frobenius_norm(m))
    assert close(got, sym_eigenvalues(m), tol=tol)
    assert close(got, jacobi_eigenvalues(m), tol=tol)


def test_regular_graph_profiles_cost_one_eigensolve(monkeypatch):
    calls = []
    real = spectra.sym_eigenvalues

    def counted(m):
        calls.append(m.order)
        return real(m)

    monkeypatch.setattr(spectra, "sym_eigenvalues", counted)
    g = generate(FamilySpec("random_regular", {"n": 12, "r": 5}, seed=3))
    # the (a, b) pairs the shipped conditions use at a_grid [1], b_grid [2, -2]
    for a, b in [(0, 1), (1, -1), (1, 1), (1, 2), (1, -2)]:
        spectral_profile(g, a, b)
    assert calls == [12]
    spectral_profile(path(4), 1, -1)  # irregular: solved directly
    assert calls == [12, 4]


def test_sym_eigenvalues_near_the_float_limit():
    # entries up to 7e307: unscaled, QL's intermediate sums overflowed
    g = build_graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7) if (u, v) != (0, 1)])
    big = spectral_profile(g, 10**307, 10**307).eigenvalues
    unit = spectral_profile(g, 1, 1).eigenvalues
    assert 1.15e308 < big[0] < 1.16e308
    assert close(big, [1e307 * x for x in unit], tol=1e-12 * 1e308)
    # an eigenvalue past the float range fails loudly, scaled back or mapped
    with pytest.raises(ToolError) as err:
        sym_eigenvalues(matrix_from_rows([[1e308, 1e308], [1e308, 1e308]]))
    assert err.value.code == "NON_FINITE"
    huge = 5 * 10**307  # K4: a*r = 1.5e308 is finite, a*r + b*3 is not
    with pytest.raises(ToolError) as err:
        sym_eigenvalues(build_matrix(complete(4), float(huge), float(huge)))
    assert err.value.code == "NON_FINITE"
    with pytest.raises(ToolError) as err:
        spectral_profile(complete(4), huge, huge)
    assert err.value.code == "NON_FINITE"


def test_eigenvalue_clears_settles_at_sigma(monkeypatch):
    # thm5.1's threshold on an 8-regular n = 40 graph: the second-largest
    # adjacency eigenvalue is far below it, so sigma alone decides
    g = generate(FamilySpec("random_regular", {"n": 40, "r": 8}, seed=7))
    theta = 8 - 2 * (2 + F(7, 8)) / 9
    estimate = _float_eigenvalue(g, 0, 1, "largest", 2)
    thetas = _recording_inertia(monkeypatch)
    assert eigenvalue_clears(g, 0, 1, "largest", 2, theta, estimate)
    assert len(thetas) == 1 and thetas[0] != theta and thetas[0].denominator <= 5
    assert _exact_clears(g, 0, 1, "largest", 2, theta)


def test_profile_accessors():
    prof = spectral_profile(complete(4), 1, -1)
    assert abs(prof.kth_smallest(3) - 4) <= TOL  # third-smallest of {4,4,4,0}
    assert abs(prof.kth_largest(1) - 4) <= TOL
    prof3 = spectral_profile(path(3), 1, -1)
    assert abs(prof3.kth_smallest(2) - 1) <= TOL
    adj = spectral_profile(complete(4), 0, 1)
    assert abs(adj.kth_largest(2) - (-1)) <= TOL


def test_profile_index_bounds():
    prof = spectral_profile(complete(3), 1, -1)
    with pytest.raises(ToolError):
        prof.kth_largest(4)
    with pytest.raises(ToolError):
        prof.kth_smallest(0)


def test_non_finite_entries_rejected():
    # checked before symmetry: an off-diagonal NaN never equals its mirror
    inf, nan = float("inf"), float("nan")
    for rows in (
        [[inf, 1.0], [1.0, 0.0]],
        [[0.0, inf], [inf, 0.0]],
        [[nan, 1.0], [1.0, 0.0]],
        [[0.0, nan], [nan, 0.0]],
        [[0.0, nan], [1.0, 0.0]],
    ):
        with pytest.raises(ToolError) as err:
            matrix_from_rows(rows)
        assert err.value.code == "NON_FINITE"


def test_no_convergence_past_iteration_cap(monkeypatch):
    m = build_matrix(path(3), 1, -1)
    monkeypatch.setattr(spectra, "MAX_QL_ITERATIONS", 0)
    with pytest.raises(ToolError) as err:
        sym_eigenvalues(m)
    assert err.value.code == "NO_CONVERGENCE"
    # a diagonal matrix needs no iteration at all
    assert sym_eigenvalues(matrix_from_rows([[1.0, 0.0], [0.0, 3.0]])) == (3.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    p=st.floats(0, 1),
    seed=st.integers(0, 2**32),
    a=_rationals,
    b=_rationals,
)
def test_matches_jacobi_oracle(n, p, seed, a, b):
    g = generate(FamilySpec("gnp", {"n": n, "p": p}, seed=seed))
    m = build_matrix(g, float(a), float(b))
    got = sym_eigenvalues(m)
    assert close(got, jacobi_eigenvalues(m), tol=1e-12 * (1 + frobenius_norm(m)))


@pytest.mark.parametrize("n", [100, 200])
def test_closed_form_spectra_large(n):
    cases = [
        (build_matrix(cycle(n), 0, 1), [2 * math.cos(2 * math.pi * j / n) for j in range(n)]),
        (build_matrix(path(n), 1, -1), [2 - 2 * math.cos(math.pi * j / n) for j in range(n)]),
        (build_matrix(complete(n), 1, -1), [float(n)] * (n - 1) + [0.0]),
        (build_matrix(star(n - 1), 1, -1), [float(n)] + [1.0] * (n - 2) + [0.0]),
    ]
    for m, want in cases:
        assert close(sym_eigenvalues(m), sorted(want, reverse=True), tol=1e-10)


def test_diagonal_and_order_one():
    m = matrix_from_rows([[2.0, 0.0, 0.0], [0.0, -5.0, 0.0], [0.0, 0.0, 7.5]])
    assert sym_eigenvalues(m) == (7.5, 2.0, -5.0)
    assert sym_eigenvalues(matrix_from_rows([[-3.25]])) == (-3.25,)


def test_trace_identity_random_graphs():
    rng = random.Random(11)
    for _ in range(100):
        g = random_graph(rng, 2, 10)
        for a, b in [(1, -1), (0, 1), (1, 1), (2, -3), (0.5, 2)]:
            m = build_matrix(g, a, b)
            eigs = sym_eigenvalues(m)
            bound = g.n * 1e-10 * (1 + frobenius_norm(m))
            assert abs(sum(eigs) - trace(m)) <= max(bound, 1e-12)


@settings(max_examples=60, deadline=None)
@given(graphs(n_max=8))
def test_trace_identity_property(g):
    for a, b in [(1, -1), (0, 1), (1, 1)]:
        m = build_matrix(g, a, b)
        bound = g.n * 1e-10 * (1 + frobenius_norm(m))
        assert abs(sum(sym_eigenvalues(m)) - trace(m)) <= max(bound, 1e-12)


def test_scaling_law():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, 2, 8)
        a = rng.choice([0, 1, 2, -1, 0.5])
        for b in (2, 0.5, -1, -2.5):
            lhs = spectral_profile(g, a, b).eigenvalues
            base = spectral_profile(g, a / b, 1).eigenvalues
            if b > 0:
                rhs = [b * x for x in base]
            else:
                rhs = [b * x for x in reversed(base)]
            assert close(lhs, rhs, tol=1e-8)


def test_zero_multiplicity_counts_components():
    rng = random.Random(23)
    for _ in range(500):
        g = random_graph(rng, 2, 12, p=rng.choice([0.1, 0.3, 0.5]))
        from treecert import components

        eigs = sym_eigenvalues(build_matrix(g, 1, -1))
        near_zero = sum(1 for x in eigs if abs(x) <= 1e-7)
        assert near_zero == len(components(g))


def test_regular_graph_laplacian_complement_relation():
    # for r-regular graphs the Laplacian spectrum is {r - adjacency eigenvalues}
    for g, r in [(cycle(6), 2), (complete(5), 4)]:
        adj = spectral_profile(g, 0, 1).eigenvalues
        lap = spectral_profile(g, 1, -1).eigenvalues
        derived = sorted((r - x for x in adj), reverse=True)
        assert close(lap, derived, tol=1e-8)


def test_zero_matrix():
    m = matrix_from_rows([[0.0, 0.0], [0.0, 0.0]])
    assert sym_eigenvalues(m) == (0.0, 0.0)


def test_asymmetric_rejected():
    with pytest.raises(ToolError):
        matrix_from_rows([[0.0, 1.0], [2.0, 0.0]])


def test_determinism():
    g = random_graph(random.Random(9), 8, 8)
    m = build_matrix(g, 1, -1)
    assert sym_eigenvalues(m) == sym_eigenvalues(m)
