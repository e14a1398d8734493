import importlib
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from treecert import (
    CertificateRequest,
    CrossCheck,
    ExperimentConfig,
    FamilySpec,
    ToolError,
    build_graph,
    certify,
    check_cut_lower_bound,
    check_lemma_small_cut,
    edge_connectivity,
    generate,
    harness,
    run_experiment,
    spectra,
)
from treecert.certify import MAX_DIGITS
from treecert.cli import main

from treecert.graphs import boundary_size_mask

from corpus import (
    complete,
    connected_cut_scan,
    cycle,
    desk_corpus,
    graphs,
    induces_connected,
    random_connected_graph,
    shipped_config,
    small_cut_scan,
    two_blocks_bridge,
)

# the package exports the function `certify` under the module's name
certify_module = importlib.import_module("treecert.certify")


def k8_minus_matching():
    """7-regular minus a perfect matching: n=8, delta=6, in the class."""
    edges = [
        (u, v)
        for u in range(8)
        for v in range(u + 1, 8)
        if not (v - u == 4)
    ]
    return build_graph(8, edges)


# ---------------------------------------------------------------------------
# spec'd example certificates


def test_thm11_k5():
    rep = certify(complete(5), CertificateRequest("thm1.1", k=1, d=2))
    assert rep.outcome == "CERTIFIED"
    assert rep.measured == 2.5
    assert rep.threshold == Fraction(3, 2)
    assert rep.cross_check.status == "FOUND" and rep.cross_check.consistent


def test_thm12_c4_hypothesis_failed():
    rep = certify(cycle(4), CertificateRequest("thm1.2", k=2))
    assert rep.outcome == "HYPOTHESIS_FAILED"
    assert rep.hypothesis_checks["min_degree"] is False


def test_thm12_k7_certified_exact():
    rep = certify(complete(7), CertificateRequest("thm1.2", k=2))
    assert rep.outcome == "CERTIFIED"
    assert abs(rep.measured - 7) < 1e-9
    assert rep.threshold == Fraction(136, 63)
    assert rep.hypothesis_checks == {
        "parameter_constraints": True,
        "min_degree": True,
        "class_membership": True,
    }
    assert rep.cross_check.status == "FOUND"
    assert rep.conclusion == "P(2,6) holds"


def test_thm13_k10_certified_exact():
    rep = certify(complete(10), CertificateRequest("thm1.3", k=2))
    assert rep.outcome == "CERTIFIED"
    assert abs(rep.measured - 10) < 1e-9
    assert rep.threshold == Fraction(13, 5)
    assert rep.cross_check.status == "FOUND"


def test_cor53i_k7():
    rep = certify(complete(7), CertificateRequest("cor5.3i", k=2))
    assert rep.outcome == "CERTIFIED"
    assert abs(rep.measured - 5) < 1e-9  # q2(K7) = n - 2
    assert rep.threshold == 12 - Fraction(17, 21)


def test_thm51_k7():
    rep = certify(complete(7), CertificateRequest("thm5.1", k=2))
    assert rep.outcome == "CERTIFIED"
    assert abs(rep.measured - (-1)) < 1e-9  # lambda2 of a complete graph
    assert rep.threshold == 6 - Fraction(17, 21)


def test_report_json_schema():
    rep = certify(complete(7), CertificateRequest("thm1.2", k=2))
    data = rep.to_json_dict()
    assert set(data) == {
        "theorem_id", "k", "d", "a", "b", "hypothesis_checks", "measured",
        "threshold_num", "threshold_den", "threshold_decimal", "outcome",
        "conclusion", "cross_check",
    }
    assert data["threshold_num"] == 136 and data["threshold_den"] == 63
    assert set(data["cross_check"]) == {"status", "consistent"}


def test_eigenvalue_at_its_threshold_fails(monkeypatch):
    # cor5.3ii asks for lambda_{n-1}(L) > threshold; on K7 that eigenvalue
    # is exactly 7 (six times). Within 1e-12 of it the float spectrum cannot
    # tell the sides apart; the exact decision can, and a tie fails.
    req = CertificateRequest("cor5.3ii", k=2, cross_verify=False)
    eps = Fraction(1, 10**12)
    for theta, outcome in [
        (7 - eps, "CERTIFIED"), (Fraction(7), "CONDITION_FAILS"), (7 + eps, "CONDITION_FAILS"),
    ]:
        monkeypatch.setattr(certify_module, "_threshold", lambda *_, t=theta: t)
        rep = certify(complete(7), req)
        assert abs(rep.measured - 7) < 1e-9
        assert rep.threshold == theta
        assert rep.outcome == outcome, theta
        assert (rep.conclusion is not None) == (outcome == "CERTIFIED")


def test_cross_verify_defaults(monkeypatch):
    # the search runs by default at every n, with no size cap
    for n in (7, 11, 13):
        rep = certify(complete(n), CertificateRequest("thm5.1", k=2))
        assert rep.cross_check == CrossCheck("FOUND", consistent=True), n
    for tid, d in (("thm5.1", None), ("thm1.2", None), ("thm1.1", 2)):
        rep = certify(complete(13), CertificateRequest(tid, k=2, d=d))
        assert rep.outcome == "CERTIFIED", tid
        assert rep.cross_check == CrossCheck("FOUND", consistent=True), tid

    # cross_verify=False is the off switch: no search runs
    def boom(*_, **__):
        raise AssertionError("the search ran with cross_verify=False")

    monkeypatch.setattr(certify_module, "search_pkd_witness", boom)
    for n in (7, 13):
        rep = certify(complete(n), CertificateRequest("thm5.1", k=2, cross_verify=False))
        assert rep.outcome == "CERTIFIED" and rep.cross_check is None, n


def _counting(monkeypatch, module, name):
    """Replace module.name with a wrapper; return the list of its calls' args."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_the_graph_memo_answers_each_graph_and_budget_for_itself(monkeypatch):
    # thm1.1 asks P(1, 2) of both graphs: FOUND on K5, REFUTED on C5
    req = CertificateRequest("thm1.1", k=1, d=2)
    alone = {g: certify(g, req).cross_check for g in (complete(5), cycle(5))}
    assert {c.status for c in alone.values()} == {"FOUND", "REFUTED"}
    searches = _counting(monkeypatch, certify_module, "search_pkd_witness")
    for order in (list(alone), list(alone)[::-1]):
        fresh = [build_graph(g.n, g.sorted_edges()) for g in order]
        for g in fresh + fresh:
            assert certify(g, req).cross_check == alone[g]
    assert len(searches) == 4  # once per graph object, in either order
    # a search cut short by a small budget does not answer for a larger one
    chain = generate(FamilySpec("clique_chain", {"blocks": 2, "q": 4}))
    req = CertificateRequest("thm1.1", k=1, d=4)
    assert certify(chain, req, budget=1).cross_check.status == "INCONCLUSIVE"
    assert certify(chain, req).cross_check.status == "REFUTED"
    assert certify(chain, req, budget=1).cross_check.status == "INCONCLUSIVE"
    assert len(searches) == 6


def test_the_graph_memo_shares_one_search_and_one_solve_per_graph(monkeypatch):
    requests = [req for _, req in harness._validate_config(shipped_config())]
    assert len(requests) == 18 and {(r.k, r.a, r.b) for r in requests} == {
        (2, None, None), (2, 1, None), (2, 1, 2), (2, 1, -2)
    }
    searches = _counting(monkeypatch, certify_module, "search_pkd_witness")
    solves = _counting(monkeypatch, spectra, "sym_eigenvalues")
    profiles = _counting(monkeypatch, certify_module, "spectral_profile")
    # on a regular graph every (a, b) reads the one adjacency solve
    g = generate(FamilySpec("random_regular", {"n": 10, "r": 6}, seed=0))
    for req in requests:
        certify(g, req)
    assert len(searches) == 1 and len(solves) == 1 and len(profiles) > 1
    # an irregular graph gets one solve per distinct (a, b)
    g = generate(FamilySpec("gnp", {"n": 12, "p": 0.8}, seed=1))
    assert g.min_degree >= 6 and g.min_degree != g.max_degree
    del profiles[:], solves[:]
    for req in requests:
        certify(g, req)
    distinct = {(a, b) for _, a, b in profiles}
    assert len(searches) == 2 and len(solves) == len(distinct) < len(profiles)
    # an equal graph built separately starts with an empty memo
    twin = build_graph(g.n, g.sorted_edges())
    assert twin == g and hash(twin) == hash(g) and g.memo and twin.memo == {}
    certify(twin, requests[0])
    assert len(searches) == 3


def test_a_or_b_past_the_float_range_is_refused_when_the_request_is_built(monkeypatch):
    for tid, params in (
        ("cor5.2i", {"a": "1e400"}),
        ("cor5.2i", {"a": Fraction(10**400)}),
        ("cor5.2i", {"a": 10**400}),
        ("cor5.2ii", {"a": 1, "b": "1e400"}),
        ("cor5.2iii", {"a": 1, "b": "-1e400"}),
    ):
        with pytest.raises(ToolError) as err:
            CertificateRequest(tid, k=1, **params)
        assert err.value.code == "NON_FINITE", (tid, params)
    # tiny values round to a float and stay accepted
    assert CertificateRequest("cor5.2i", k=1, a="1e-400").a == Fraction(1, 10**400)
    # a huge exponent is refused from the text, before 10^exponent is built
    start = time.perf_counter()
    with pytest.raises(ToolError) as err:
        CertificateRequest("cor5.2i", k=1, a="1e10000000")
    assert err.value.code == "NON_FINITE" and time.perf_counter() - start < 1
    # a value whose exact numerator or denominator is too long to count with
    for params in (
        {"a": "1e-4400"}, {"a": "1e-1000000"}, {"a": "0." + "7" * 5000},
        {"a": "1/" + "9" * 5000}, {"a": Fraction(1, 10**5000)}, {"a": 1, "b": "1e-1000000"},
    ):
        start = time.perf_counter()
        with pytest.raises(ToolError) as err:
            CertificateRequest("cor5.2ii" if "b" in params else "cor5.2i", k=1, **params)
        assert err.value.code == "PARAMETER_ERROR", params
        assert time.perf_counter() - start < 1, params
    # the bound is MAX_DIGITS digits, above and below the line alike
    long_a, long_b = Fraction(1, 10**(MAX_DIGITS - 1)), Fraction(3, int("7" * MAX_DIGITS))
    req = CertificateRequest("cor5.2ii", k=1, a=f"1e-{MAX_DIGITS - 1}", b=long_b)
    assert (req.a, req.b) == (long_a, long_b)
    json.dumps(certify(complete(8), req).to_json_dict())  # the report prints its threshold
    for a in (f"1e-{MAX_DIGITS}", Fraction(1, 10**MAX_DIGITS),
              Fraction(10**MAX_DIGITS + 1, 10**(MAX_DIGITS - 1))):
        with pytest.raises(ToolError) as err:
            CertificateRequest("cor5.2i", k=1, a=a)
        assert err.value.code == "PARAMETER_ERROR", a

    # a config grid holding such a value stops before any trial
    def never(_):
        raise AssertionError("a trial ran before the grid was checked")

    monkeypatch.setattr(harness, "_run_trial", never)
    cfg = ExperimentConfig(
        families=[{"family": "complete", "params": {"n": 8}}],
        theorems=["cor5.2i"], k_grid=[1], a_grid=[1, "1e400"],
    )
    with pytest.raises(ToolError) as err:
        run_experiment(cfg)
    assert err.value.code == "NON_FINITE"
    cfg = ExperimentConfig(
        families=[{"family": "complete", "params": {"n": 8}}],
        theorems=["cor5.2i"], k_grid=[1], a_grid=[1, "1e-1000000"],
    )
    with pytest.raises(ToolError) as err:
        run_experiment(cfg)
    assert err.value.code == "CONFIG_ERROR"


def test_certify_disconnected():
    with pytest.raises(ToolError) as err:
        certify(build_graph(4, [(0, 1), (2, 3)]), CertificateRequest("thm5.1", k=1))
    assert err.value.code == "DISCONNECTED"


# ---------------------------------------------------------------------------
# parameter validation


@pytest.mark.parametrize(
    "req",
    [
        dict(theorem_id="thm1.2", k=1),  # k >= 2 there
        dict(theorem_id="thm1.3", k=1),
        dict(theorem_id="cor3.1i", k=2),  # a missing
        dict(theorem_id="cor3.1i", k=2, a=-2),  # a < -1
        dict(theorem_id="cor3.1ii", k=2, a=1, b=-1),  # needs b > 0
        dict(theorem_id="cor3.1iii", k=2, a=1, b=1),  # needs b < 0
        dict(theorem_id="cor3.1iii", k=2, a=1, b=Fraction(-1, 2)),  # a/b < -1
        dict(theorem_id="cor5.2i", k=1, a=Fraction(-1, 2)),  # a >= 0 there
        dict(theorem_id="cor5.2ii", k=1, a=0, b=0),  # b nonzero
        dict(theorem_id="thm1.1", k=1),  # d missing
        dict(theorem_id="thm1.2", k=2, d=3),  # d fixed to delta
        dict(theorem_id="thm5.1", k=1, a=1),  # no matrix parameters
        dict(theorem_id="nope", k=1),
        dict(theorem_id="thm5.1", k=0),
        dict(theorem_id="thm1.1", k=0, d=2),
        dict(theorem_id="thm1.1", k=1, d=0),
        dict(theorem_id="thm1.1", k=1, d=2, a=1),  # no matrix parameters
        dict(theorem_id="cor3.1i", k=2, a="one"),  # not a rational
        dict(theorem_id="cor5.2ii", k=1, a=1),  # b missing
        dict(theorem_id="cor5.3i", k=1, b=1),  # no b parameter
        dict(theorem_id="thm5.1", k=2.5),  # k and d are integers, not bools
        dict(theorem_id="thm5.1", k="2"),
        dict(theorem_id="thm5.1", k=True),
        dict(theorem_id="thm1.1", k=1, d=2.5),
        dict(theorem_id="thm1.1", k=1, d=True),
        dict(theorem_id="cor5.2i", k=1, a=True),  # a bool is not a rational
        dict(theorem_id="cor5.2i", k=1, a=float("nan")),
        dict(theorem_id="cor5.2i", k=1, a="1/0"),
        dict(theorem_id="thm5.1", k=1, cross_verify="yes"),  # True or False
        dict(theorem_id="thm5.1", k=1, cross_verify=1),
        dict(theorem_id="thm5.1", k=1, cross_verify=None),
    ],
)
def test_parameter_errors(req):
    # an invalid request fails when it is built, before any graph is read
    with pytest.raises(ToolError) as err:
        CertificateRequest(**req)
    assert err.value.code == "PARAMETER_ERROR"


def test_a_and_b_are_read_by_one_rule_at_every_entry_point(tmp_path, capsys):
    # 0.1 is its decimal 1/10 whichever way it arrives, not the binary float
    k8, want = complete(8), Fraction(1013, 140)
    for a in (0.1, "0.1", "1/10", Fraction(1, 10)):
        req = CertificateRequest("cor5.2i", k=1, a=a)
        assert req.a == Fraction(1, 10)
        assert certify(k8, req).threshold == want
    cfg = ExperimentConfig(
        families=[{"family": "complete", "params": {"n": 8}}],
        theorems=["cor5.2i"], k_grid=[1], a_grid=[0.1],
    )
    [(fields, req)] = harness._validate_config(cfg)
    assert fields["a"] == 0.1 and certify(k8, req).threshold == want
    path = tmp_path / "k8.txt"
    path.write_text("8 28\n" + "\n".join(f"{u} {v}" for u, v in sorted(k8.edges)))
    argv = ["certify", "--input", str(path), "--theorem", "cor5.2i", "--k", "1", "--a", "0.1"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert Fraction(data["threshold_num"], data["threshold_den"]) == want


def test_the_rule_is_checked_once_when_a_request_is_built(monkeypatch):
    def boom(*_):
        raise AssertionError("a parameter rule was checked after the request was built")

    cfg = ExperimentConfig(
        families=[{"family": "complete", "params": {"n": 8}}],
        theorems=list(certify_module.THEOREM_IDS),
        k_grid=[2], d_grid=[3], a_grid=[1], b_grid=[2, -2],
    )
    requests = [req for _, req in harness._validate_config(cfg)]
    assert {req.theorem_id for req in requests} == set(certify_module.THEOREM_IDS)
    with monkeypatch.context() as patch:
        patch.setattr(certify_module, "param_error", boom)
        outcomes = {certify(complete(8), req).outcome for req in requests}
    assert outcomes == {"CERTIFIED", "HYPOTHESIS_FAILED"}
    # the run builds its requests, then the trap is armed before any trial
    build = harness._validate_config

    def build_then_trap(cfg):
        built = build(cfg)
        monkeypatch.setattr(certify_module, "param_error", boom)
        return built

    monkeypatch.setattr(harness, "_validate_config", build_then_trap)
    row, _ = run_experiment(cfg, jobs=1)
    certs = row["certificates"]
    assert len(certs) == len(requests) and not any("error" in c for c in certs)


def test_thm11_exact_boundary_is_not_certified():
    # nu_f of any tree is exactly 1 = k + (d-1)/d at k=1, d=1: the strict
    # inequality must not certify on exact equality
    from corpus import path

    rep = certify(path(4), CertificateRequest("thm1.1", k=1, d=1))
    assert rep.measured == pytest.approx(1.0)
    assert rep.threshold == Fraction(1)
    assert rep.outcome == "CONDITION_FAILS"


# ---------------------------------------------------------------------------
# the rules derived from (t, a, b) against the paper's statements


def _base(k, d):
    return k + Fraction(d - 1, d)


# id -> (side, index, minimum degree, class, threshold), each written as the
# paper states it; a and b are the request's parameters (None when fixed)
PAPER = {
    "thm1.2": ("smallest", 3, lambda k: 2 * k + 2, 1,
               lambda k, d, D, a, b: 16 * _base(k, d) / (3 * (d + 1))),
    "thm1.3": ("smallest", 4, lambda k: 3 * k + 3, 2,
               lambda k, d, D, a, b: 9 * _base(k, d) / (d + 1)),
    "thm5.1": ("largest", 2, lambda k: 2 * k + 2, 0,
               lambda k, d, D, a, b: d - 2 * _base(k, d) / (d + 1)),
    "cor3.1i": ("largest", 3, lambda k: 2 * k + 2, 1,
                lambda k, d, D, a, b: (a + 1) * d - 16 * _base(k, d) / (3 * (d + 1))),
    "cor3.1ii": ("largest", 3, lambda k: 2 * k + 2, 1,
                 lambda k, d, D, a, b: (a + b) * d - 16 * b * _base(k, d) / (3 * (d + 1))),
    "cor3.1iii": ("smallest", 3, lambda k: 2 * k + 2, 1,
                  lambda k, d, D, a, b: (a + b) * d - 16 * b * _base(k, d) / (3 * (d + 1))),
    "cor3.2i": ("largest", 3, lambda k: 2 * k + 2, 1,
                lambda k, d, D, a, b: d - 16 * _base(k, d) / (3 * (d + 1))),
    "cor3.2ii": ("largest", 3, lambda k: 2 * k + 2, 1,
                 lambda k, d, D, a, b: 2 * d - 16 * _base(k, d) / (3 * (d + 1))),
    "cor4.2i": ("largest", 4, lambda k: 3 * k + 3, 2,
                lambda k, d, D, a, b: (a + 1) * d - 9 * _base(k, d) / (d + 1)),
    "cor4.2ii": ("largest", 4, lambda k: 3 * k + 3, 2,
                 lambda k, d, D, a, b: (a + b) * d - 9 * b * _base(k, d) / (d + 1)),
    "cor4.2iii": ("smallest", 4, lambda k: 3 * k + 3, 2,
                  lambda k, d, D, a, b: (a + b) * d - 9 * b * _base(k, d) / (d + 1)),
    "cor4.3i": ("largest", 4, lambda k: 3 * k + 3, 2,
                lambda k, d, D, a, b: d - 9 * _base(k, d) / (d + 1)),
    "cor4.3ii": ("largest", 4, lambda k: 3 * k + 3, 2,
                 lambda k, d, D, a, b: 2 * d - 9 * _base(k, d) / (d + 1)),
    "cor5.2i": ("largest", 2, lambda k: 2 * k + 2, 0,
                lambda k, d, D, a, b: (a + 1) * d - 2 * _base(k, d) / (d + 1)),
    "cor5.2ii": ("largest", 2, lambda k: 2 * k + 2, 0,
                 lambda k, d, D, a, b: (a + b) * d - 2 * b * _base(k, d) / (d + 1)),
    "cor5.2iii": ("smallest", 2, lambda k: 2 * k + 2, 0,
                  lambda k, d, D, a, b: a * D + b * d - 2 * b * _base(k, d) / (d + 1)),
    "cor5.3i": ("largest", 2, lambda k: 2 * k + 2, 0,
                lambda k, d, D, a, b: 2 * d - 2 * _base(k, d) / (d + 1)),
    "cor5.3ii": ("smallest", 2, lambda k: 2 * k + 2, 0,
                 lambda k, d, D, a, b: D - d + 2 * _base(k, d) / (d + 1)),
}

# id -> (least k, least a or None when a is fixed, sign of a free b or 0
# when b is fixed, whether a/b >= -1 is required)
PAPER_PARAMS = {
    "thm1.2": (2, None, 0, False), "thm1.3": (2, None, 0, False),
    "thm5.1": (1, None, 0, False),
    "cor3.1i": (2, -1, 0, False), "cor3.1ii": (2, -1, 1, True),
    "cor3.1iii": (2, -1, -1, True),
    "cor3.2i": (2, None, 0, False), "cor3.2ii": (2, None, 0, False),
    "cor4.2i": (2, -1, 0, False), "cor4.2ii": (2, -1, 1, True),
    "cor4.2iii": (2, -1, -1, True),
    "cor4.3i": (2, None, 0, False), "cor4.3ii": (2, None, 0, False),
    "cor5.2i": (1, 0, 0, False), "cor5.2ii": (1, 0, 1, False),
    "cor5.2iii": (1, 0, -1, False),
    "cor5.3i": (1, None, 0, False), "cor5.3ii": (1, None, 0, False),
}


def _paper_accepts(tid, k, a, b):
    k_min, a_min, b_sign, ratio = PAPER_PARAMS[tid]
    if k < k_min or (a is None) != (a_min is None) or (b is None) != (b_sign == 0):
        return False
    if a is not None and a < a_min:
        return False
    if b is not None and (b == 0 or (b > 0) != (b_sign > 0) or (ratio and a / b < -1)):
        return False
    return True


def test_derived_rules_match_the_paper():
    assert set(PAPER) == set(PAPER_PARAMS) == set(certify_module.THEOREM_IDS) - {"thm1.1"}
    rng = random.Random(13)

    def rational():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 4))

    for tid, (side, index, min_delta, t, threshold) in PAPER.items():
        accepted = 0
        for _ in range(300):
            k = rng.randint(0, 5)
            delta = rng.randint(1, 30)
            Delta = delta + rng.randint(0, 10)
            for a, b in [(None, None), (rational(), None), (None, rational()),
                         (rational(), rational())]:
                accepts = _paper_accepts(tid, k, a, b)
                assert (certify_module.param_error(tid, k, None, a, b) is None) == accepts
                if not accepts:
                    continue
                accepted += 1
                t_rule, a_used, b_used, side_rule, index_rule, bound = certify_module._rule(
                    tid, k, a, b
                )
                assert (side_rule, index_rule, bound, t_rule) == (side, index, min_delta(k), t)
                assert certify_module._threshold(
                    t, k, delta, Delta, a_used, b_used
                ) == threshold(k, delta, Delta, a, b)
        assert accepted >= 30, tid


# ---------------------------------------------------------------------------
# corollary consistency and specialization identities


def _outcomes_match(r1, r2):
    assert r1.outcome == r2.outcome
    return True


def test_scaling_consistency_positive_b():
    graphs = [complete(7), complete(8), k8_minus_matching()]
    for g in graphs:
        for a in (Fraction(-1), Fraction(0), Fraction(1), Fraction(2)):
            for b in (Fraction(1, 2), Fraction(1), Fraction(3)):
                if a / b < -1:
                    continue
                scaled = certify(g, CertificateRequest("cor3.1ii", k=2, a=a, b=b))
                base = certify(g, CertificateRequest("cor3.1i", k=2, a=a / b))
                _outcomes_match(scaled, base)
                if scaled.measured is not None:
                    assert scaled.measured == pytest.approx(
                        float(b) * base.measured, abs=1e-7
                    )
                    assert scaled.threshold == b * base.threshold


def test_scaling_consistency_negative_b():
    graphs = [complete(7), complete(8), k8_minus_matching()]
    for g in graphs:
        for a in (Fraction(0), Fraction(1), Fraction(2)):
            for b in (Fraction(-1), Fraction(-2)):
                if a / b < -1:
                    continue
                flipped = certify(g, CertificateRequest("cor3.1iii", k=2, a=a, b=b))
                base = certify(g, CertificateRequest("cor3.1i", k=2, a=a / b))
                _outcomes_match(flipped, base)


def test_specialization_identities():
    pairs = [
        ("cor3.2i", "cor3.1i", 0, 2),
        ("cor3.2ii", "cor3.1i", 1, 2),
        ("cor5.3i", "cor5.2i", 1, 2),
    ]
    graphs = [complete(7), complete(9), k8_minus_matching()]
    for g in graphs:
        for fixed_id, general_id, a, k in pairs:
            fixed = certify(g, CertificateRequest(fixed_id, k=k))
            general = certify(g, CertificateRequest(general_id, k=k, a=a))
            assert fixed.outcome == general.outcome
            if fixed.measured is not None:
                assert fixed.measured == pytest.approx(general.measured, abs=1e-8)
                assert fixed.threshold == general.threshold
    for g in [complete(10), complete(12)]:
        for fixed_id, general_id, a in [("cor4.3i", "cor4.2i", 0), ("cor4.3ii", "cor4.2i", 1)]:
            fixed = certify(g, CertificateRequest(fixed_id, k=2))
            general = certify(g, CertificateRequest(general_id, k=2, a=a))
            assert fixed.outcome == general.outcome


def test_raising_k_never_certifies_a_hypothesis_failure():
    rng = random.Random(12)
    graphs = [random_connected_graph(rng, 4, 9) for _ in range(20)]
    for g in graphs:
        for tid in ("thm5.1", "cor5.3i"):
            prev = certify(g, CertificateRequest(tid, k=1, cross_verify=False))
            for k in (2, 3):
                cur = certify(g, CertificateRequest(tid, k=k, cross_verify=False))
                if prev.outcome == "HYPOTHESIS_FAILED":
                    assert cur.outcome == "HYPOTHESIS_FAILED"
                prev = cur


# ---------------------------------------------------------------------------
# lemma checkers


def test_small_cut_two_blocks_bridge():
    res = check_lemma_small_cut(two_blocks_bridge(5))
    assert res.status == "NO_VIOLATION"


def test_small_cut_vacuous_cases():
    assert check_lemma_small_cut(complete(5)).status == "VACUOUS"
    assert check_lemma_small_cut(cycle(5)).status == "VACUOUS"
    assert check_lemma_small_cut(complete(1)).status == "VACUOUS"


def _decided_fast(check, g):
    t0 = time.perf_counter()
    res = check(g)
    assert time.perf_counter() - t0 < 1.0
    return res


def test_small_cut_decided_on_large_graphs():
    # no size cap: K17 and a 200-vertex chain of K20s are decided
    assert _decided_fast(check_lemma_small_cut, complete(17)).status == "VACUOUS"
    chain = generate(FamilySpec("clique_chain", {"blocks": 10, "q": 20}))
    assert _decided_fast(check_lemma_small_cut, chain).status == "NO_VIOLATION"


@settings(max_examples=150, deadline=None)
@given(graphs(n_min=1, n_max=12, connected=True))
def test_small_cut_matches_scan_property(g):
    assert check_lemma_small_cut(g).status == small_cut_scan(g)


def test_cut_lower_bound_k7():
    res = check_cut_lower_bound(complete(7), 2, "lemma2.4")
    assert res.status == "NO_VIOLATION"
    assert res.measured == pytest.approx(7)
    assert res.threshold == Fraction(8, 7)


def test_cut_lower_bound_not_applicable():
    assert check_cut_lower_bound(cycle(5), 2, "lemma2.4").status == "NOT_APPLICABLE"
    assert check_cut_lower_bound(complete(5), 2, "lemma2.5").status == "NOT_APPLICABLE"


def test_cut_lower_bound_vacuous_on_weakly_coupled_blocks():
    g = generate(FamilySpec("clique_chain", {"blocks": 3, "q": 6, "links": 1}))
    res = check_cut_lower_bound(g, 2, "lemma2.4")
    assert res.status == "VACUOUS"
    assert res.measured < float(res.threshold)


def test_cut_lower_bound_lemma25_k10():
    res = check_cut_lower_bound(complete(10), 2, "lemma2.5")
    assert res.status == "NO_VIOLATION"


def test_cut_lower_bound_variant_validation():
    with pytest.raises(ToolError):
        check_cut_lower_bound(complete(7), 2, "lemma9.9")


def test_cut_lower_bound_decided_on_large_graphs():
    # no size cap: K17 passes every hypothesis and is decided by kappa'
    k17 = _decided_fast(lambda g: check_cut_lower_bound(g, 2, "lemma2.4"), complete(17))
    assert k17.status == "NO_VIOLATION"
    chain = generate(FamilySpec("clique_chain", {"blocks": 10, "q": 20}))
    res = _decided_fast(lambda g: check_cut_lower_bound(g, 2, "lemma2.5"), chain)
    assert res.status == "NOT_APPLICABLE"
    # lemma2.4 applies, so the n = 200 spectrum behind `measured` and one
    # exact inertia count (at sigma = 1/3, between 0.019 and theta = 2/5)
    # both run: 1.05-1.34 s over three fresh runs on 2 cores, about half
    # each; the bound leaves 3x room
    t0 = time.perf_counter()
    res = check_cut_lower_bound(chain, 2, "lemma2.4")
    assert time.perf_counter() - t0 < 4.5
    assert res.status == "VACUOUS"


def _cut_bound_matches_scan(g):
    for k in (1, 2, 3):
        scan = connected_cut_scan(g, k)
        # a connected proper set with boundary <= k exists iff kappa' <= k
        assert bool(scan) == (edge_connectivity(g)[0] <= k)
        for variant in ("lemma2.4", "lemma2.5"):
            res = check_cut_lower_bound(g, k, variant)
            if res.status in ("NOT_APPLICABLE", "VACUOUS"):
                continue
            assert res.status == ("VIOLATIONS" if scan else "NO_VIOLATION")
            assert set(res.violations) <= set(scan)


def test_cut_lower_bound_matches_scan_on_desk_corpus():
    for g in desk_corpus(12):
        if g.n > 1:
            _cut_bound_matches_scan(g)


@settings(max_examples=150, deadline=None)
@given(graphs(n_min=2, n_max=12, connected=True))
def test_cut_lower_bound_matches_scan_property(g):
    _cut_bound_matches_scan(g)


def test_cut_lower_bound_violation_branch(monkeypatch):
    # K6 blocks joined by single edges: kappa' = 1 <= k. The real third
    # eigenvalue sits below the threshold (VACUOUS above), so decide it as
    # above, as if every eigenvalue were, to reach the decision by kappa'.
    g = generate(FamilySpec("clique_chain", {"blocks": 3, "q": 6, "links": 1}))
    monkeypatch.setattr(certify_module, "eigenvalue_clears", lambda *args: True)
    res = check_cut_lower_bound(g, 2, "lemma2.4")
    assert res.status == "VIOLATIONS"
    assert connected_cut_scan(g, 2)
    (side, cut), = res.violations
    mask = sum(1 << v for v in side)
    assert 0 < len(side) < g.n
    assert induces_connected(g, mask)
    assert cut == boundary_size_mask(g, mask) <= 2
