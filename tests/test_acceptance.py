"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one `acceptance N: PASS/FAIL` line (run with -s to see
them live); a FAIL line is followed by the failing assertion.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from treecert import (
    CertificateRequest,
    build_graph,
    certify,
    check_interlacing,
    check_lemma_small_cut,
    check_weyl,
    edge_connectivity,
    lemma41_decompose,
    lemma41_gadget_fixture,
    nu_f_exact,
    pack_spanning_trees,
    quotient_laplacian,
    search_pkd_witness,
    spectral_profile,
    sym_eigenvalues,
    tau_packing,
    validate_gt_witness,
)
from treecert import cli
from treecert.packing import _is_spanning_tree
from treecert.spectra import build_matrix, matrix_from_rows

from corpus import (
    SHIPPED_CONFIG,
    all_connected_graphs,
    complete,
    cycle,
    desk_corpus,
    exists_good_forest_bruteforce,
    mat_scale,
    nu_f_bruteforce,
    path,
    random_connected_graph,
    random_graph,
    remainder_feasible,
    small_cut_scan,
    star,
    tau_partition_bruteforce,
    trace,
)


def _report(cid: int, ok: bool, detail: str = ""):
    line = f"acceptance {cid}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def packing_corpus():
    graphs = []
    for n in range(2, 6):
        graphs.extend(all_connected_graphs(n))
    rng = random.Random(424242)
    for _ in range(500):
        graphs.append(random_connected_graph(rng, 2, 7))
    return graphs


@pytest.fixture(scope="module")
def default_report(tmp_path_factory):
    """The shipped corpus report as the CLI writes it with --out."""
    out = tmp_path_factory.mktemp("shipped") / "report.jsonl"
    assert cli.main(["experiment", "--config", str(SHIPPED_CONFIG), "--out", str(out)]) == 0
    return out.read_bytes()


def test_criterion_1_oracle_equivalence(packing_corpus):
    t0 = time.time()
    checks = 0
    ok = True
    for g in packing_corpus:
        tau = tau_partition_bruteforce(g)
        for k in range(1, tau + 2):
            agree = (pack_spanning_trees(g, k) is not None) == (tau >= k)
            ok = ok and agree
            checks += 1
    elapsed = time.time() - t0
    _report(1, ok and elapsed < 60, f"{checks} checks in {elapsed:.1f}s")


def _tau_certified(g) -> bool:
    """tau trees pack (primal), and the nu_f partition P has
    |E(P)| < (tau+1)(|P|-1), so tau+1 trees do not (dual)."""
    tau = tau_packing(g)
    trees = pack_spanning_trees(g, tau)
    primal = (
        trees is not None
        and len(trees) == tau
        and all(_is_spanning_tree(t, g.n) for t in trees)
        and len(frozenset().union(*trees)) == tau * (g.n - 1)
    )
    part = nu_f_exact(g).partition
    crossing = sum(1 for u, v in g.edges if not any(u in b and v in b for b in part))
    return primal and crossing < (tau + 1) * (len(part) - 1)


def test_criterion_2_tau_equals_floor_nu_f(packing_corpus):
    ok = all(
        tau_packing(g) == tau_partition_bruteforce(g)
        and nu_f_exact(g).value == nu_f_bruteforce(g).value
        and _tau_certified(g)
        for g in packing_corpus
    )
    _report(2, ok, f"{len(packing_corpus)} graphs, tau certified by trees and partition")


def test_criterion_3_sufficient_condition_for_the_packing_property():
    t0 = time.time()
    searches = 0
    failures = []
    for g in desk_corpus(9):
        value = nu_f_exact(g).value
        delta = g.min_degree
        for k in range(1, 4):
            for d in range(1, delta + 1):
                if value > k + Fraction(d - 1, d):
                    res = search_pkd_witness(g, k, d)
                    searches += 1
                    if res.status != "FOUND":
                        failures.append((g, k, d, res.status))
    elapsed = time.time() - t0
    _report(
        3,
        not failures and elapsed < 300,
        f"{searches} searches, {len(failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_4_soundness_suite(default_report):
    *rows, summary = map(json.loads, default_report.splitlines())
    ok = summary["trials"] >= 2000
    ok = ok and summary["counterexamples"] == 0
    ok = ok and summary["errors"] == 0

    # the two flagship certificates, reproduced exactly
    k7 = certify(complete(7), CertificateRequest("thm1.2", k=2))
    ok = ok and k7.outcome == "CERTIFIED"
    ok = ok and abs(k7.measured - 7) < 1e-9
    ok = ok and k7.threshold == Fraction(136, 63)
    k10 = certify(complete(10), CertificateRequest("thm1.3", k=2))
    ok = ok and k10.outcome == "CERTIFIED"
    ok = ok and abs(k10.measured - 10) < 1e-9
    ok = ok and k10.threshold == Fraction(13, 5)

    # within the report, the third-smallest-eigenvalue condition fires on
    # the complete graphs from K7 up, and the fourth-smallest one on K10
    fires_12 = {
        row["graph"]["n"]
        for row in rows
        if row["family"] == "complete"
        for cert in row["certificates"]
        if cert["theorem_id"] == "thm1.2" and cert["outcome"] == "CERTIFIED"
    }
    fires_13 = {
        row["graph"]["n"]
        for row in rows
        if row["family"] == "complete"
        for cert in row["certificates"]
        if cert["theorem_id"] == "thm1.3" and cert["outcome"] == "CERTIFIED"
    }
    ok = ok and fires_12 == {7, 8, 9, 10} and fires_13 == {10}
    _report(
        4,
        ok,
        f"{summary['trials']} trials, "
        f"{summary['counterexamples']} counterexamples",
    )


def test_criterion_5_interlacing_suite():
    rng = random.Random(5150)
    failures = 0
    for _ in range(1000):
        g = random_connected_graph(rng, 3, 12)
        p = rng.randint(2, min(6, g.n - 1))
        while True:
            assign = [rng.randrange(p) for _ in range(g.n)]
            blocks = [[v for v in range(g.n) if assign[v] == b] for b in range(p)]
            if all(blocks):
                break
        small = quotient_laplacian(g, blocks).eigenvalues()
        big = spectral_profile(g, 1, -1).eigenvalues
        if check_interlacing(big, small, 1e-8) is not None:
            failures += 1
    _report(5, failures == 0, f"1000 pairs, {failures} failures")


def test_criterion_6_eigenvalue_sum_inequalities():
    rng = random.Random(6321)
    bad = 0
    for _ in range(500):
        n = rng.randint(2, 8)

        def rand_sym():
            rows = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.uniform(-4, 4)
            return matrix_from_rows(rows)

        bad += len(check_weyl(rand_sym(), rand_sym(), 1e-8))
    for g in desk_corpus(10, include_random=False):
        d_mat = build_matrix(g, 1, 0)
        neg_l = mat_scale(build_matrix(g, 1, -1), -1.0)
        bad += len(check_weyl(d_mat, neg_l, 1e-8))
    _report(6, bad == 0, f"{bad} violations")


def test_criterion_7_eigensolver_accuracy():
    ok = True
    for n in range(2, 13):
        eigs = sym_eigenvalues(build_matrix(complete(n), 1, -1))
        expected = [float(n)] * (n - 1) + [0.0]
        ok = ok and all(abs(a - b) <= 1e-9 for a, b in zip(eigs, expected))
    rng = random.Random(777)
    worst = 0.0
    for _ in range(500):
        g = random_graph(rng, 2, 12, p=rng.choice([0.2, 0.5, 0.8]))
        m = build_matrix(g, 1, -1)
        worst = max(worst, abs(sum(sym_eigenvalues(m)) - trace(m)))
    ok = ok and worst <= 1e-8
    _report(7, ok, f"worst trace deviation {worst:.2e}")


def test_criterion_8_exact_fractional_packing_values():
    ok = nu_f_exact(complete(4)).value == Fraction(2)
    ok = ok and nu_f_exact(complete(5)).value == Fraction(5, 2)
    for n in range(3, 9):
        ok = ok and nu_f_exact(cycle(n)).value == Fraction(n, n - 1)
    trees = [path(n) for n in range(2, 10)] + [star(k) for k in range(2, 9)]
    rng = random.Random(88)
    for _ in range(20):
        n = rng.randint(2, 9)
        order = list(range(n))
        rng.shuffle(order)
        edges = [
            (order[rng.randrange(i)], order[i]) for i in range(1, n)
        ]
        trees.append(build_graph(n, edges))
    ok = ok and all(nu_f_exact(t).value == Fraction(1) for t in trees)
    _report(8, ok)


def test_criterion_9_small_cut_order_bound():
    corpus = desk_corpus(12)
    scanned = [small_cut_scan(g) for g in corpus]
    bad = [s for s in scanned if s not in ("NO_VIOLATION", "VACUOUS")]
    mismatches = sum(check_lemma_small_cut(g).status != s for g, s in zip(corpus, scanned))
    _report(
        9,
        not bad and not mismatches,
        f"{len(corpus)} graphs scanned, {len(bad)} violations, {mismatches} mismatches",
    )


def test_criterion_10_four_component_decomposition():
    fx = lemma41_gadget_fixture(2)
    rng = random.Random(1010)
    ok = True
    for trial in range(5):
        if trial == 0:
            g, cut, witness = fx.graph, fx.cut, fx.witness
        else:
            perm = list(range(fx.graph.n))
            rng.shuffle(perm)
            g = build_graph(fx.graph.n, [(perm[u], perm[v]) for u, v in fx.graph.edges])
            cut = frozenset(
                (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in fx.cut
            )
            witness = type(fx.witness)(
                t=2, subsets=tuple(frozenset(perm[v] for v in s) for s in fx.witness.subsets)
            )
        ok = ok and validate_gt_witness(g, witness) == []
        kappa = edge_connectivity(g)[0]
        x_prime, comps = lemma41_decompose(g, witness, cut, 2)
        ok = ok and len(comps) == 4
        ok = ok and len(x_prime) <= kappa
        ok = ok and all(len(c) >= g.min_degree + 1 for c in comps)
        ok = ok and not (x_prime & cut)
    _report(10, ok, "5 relabeled gadget instances")


def test_criterion_11_remainder_reduction_soundness():
    rng = random.Random(1111)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(3, 9)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pool)
        edges = pool[: rng.randint(0, min(len(pool), 16))]
        d = rng.randint(1, 5)
        if remainder_feasible(n, edges, d) != exists_good_forest_bruteforce(n, edges, d):
            mismatches += 1
    _report(11, mismatches == 0, f"200 remainders, {mismatches} mismatches")


# sha256 of the shipped corpus report; a change that alters the report's
# semantics updates this pin and records why in CHANGES.md
SHIPPED_REPORT_SHA256 = "1e2a48c9b05dbcf44034a39df3bfeaa64d9409141f9e0ca9c19188dba2d00991"


def test_criterion_12_determinism(default_report, capsys, tmp_path):
    digest = hashlib.sha256(default_report).hexdigest()
    out = tmp_path / "par.jsonl"
    ok = digest == SHIPPED_REPORT_SHA256
    # the same bytes at two workers, through stdout and through --out
    argv = ["experiment", "--config", str(SHIPPED_CONFIG), "--jobs", "2"]
    capsys.readouterr()
    ok = ok and cli.main(argv) == 0 and capsys.readouterr().out.encode() == default_report
    ok = ok and cli.main(argv + ["--out", str(out)]) == 0 and out.read_bytes() == default_report
    _report(12, ok, f"{len(default_report)} bytes per report, sha256 {digest[:12]}")
