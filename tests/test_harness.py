import hashlib
import importlib
import json
import random
import time
from collections import Counter
from dataclasses import asdict

import pytest

from treecert import (
    THEOREM_IDS,
    ExperimentConfig,
    FamilySpec,
    PkdSearchResult,
    ToolError,
    edge_connectivity,
    generate,
    gt_membership,
    harness,
    lemma41_gadget_fixture,
    run_experiment,
    validate_gt_witness,
)
from treecert.cli import main

from corpus import complete, random_regular_reference, shipped_config

# the package exports the function `certify` under the module's name
certify_module = importlib.import_module("treecert.certify")


def test_generate_complete():
    assert generate(FamilySpec("complete", {"n": 7})) == complete(7)


def test_generate_cycle_path():
    c = generate(FamilySpec("cycle", {"n": 5}))
    assert c.n == 5 and c.m == 5 and c.min_degree == 2
    p = generate(FamilySpec("path", {"n": 5}))
    assert p.m == 4 and p.min_degree == 1


def test_gnp_determinism():
    a = generate(FamilySpec("gnp", {"n": 8, "p": 0.5}, seed=42))
    b = generate(FamilySpec("gnp", {"n": 8, "p": 0.5}, seed=42))
    assert a == b
    c = generate(FamilySpec("gnp", {"n": 8, "p": 0.5}, seed=43))
    assert a != c  # overwhelmingly likely for this seed pair


def test_random_regular():
    g = generate(FamilySpec("random_regular", {"n": 8, "r": 4}, seed=3))
    assert all(d == 4 for d in g.degrees)
    with pytest.raises(ToolError) as err:
        generate(FamilySpec("random_regular", {"n": 7, "r": 3}))  # odd product
    assert err.value.code == "SPEC_ERROR"


# (n, r) of every random-regular draw in the large-graphs benchmark, the
# shipped corpus's (8, 4) and (10, 6), odd r, r = n - 1 and the smallest case.
REGULAR_GRID = (
    [(n, r) for n in (14, 16, 18, 20) for r in (6, 8)]
    + [(n, r) for n in (24, 32, 40, 48) for r in (8, 12)]
    + [(64, 8), (64, 12), (80, 8), (10, 6), (10, 8), (11, 6), (11, 8)]
    + [(8, 4), (10, 3), (12, 5), (16, 7), (30, 9)]
    + [(5, 4), (8, 7), (12, 11)]
    + [(2, 1)]
)


def test_random_regular_matches_reference_loop():
    seeds = (0, 1, 44, 2**61 + 12345)
    for n, r in REGULAR_GRID:
        for seed in seeds:
            got = generate(FamilySpec("random_regular", {"n": n, "r": r}, seed=seed))
            assert got == random_regular_reference(n, r, seed), (n, r, seed)
    # the shipped corpus's 120 random-regular trials, seeded spec seed ^ trial
    for n, r, spec_seed in ((8, 4, 11), (10, 6, 12)):
        for local in range(60):
            seed = spec_seed ^ local
            got = generate(FamilySpec("random_regular", {"n": n, "r": r}, seed=seed))
            assert got == random_regular_reference(n, r, seed), (n, r, seed)


def test_random_regular_draws_without_randrange(monkeypatch):
    """The generator draws its swaps from getrandbits and random() alone, and
    still gives the graphs of the randrange reference loop."""
    seeds = (1, 2**61 + 12345)
    expected = {
        (n, r, seed): random_regular_reference(n, r, seed)
        for n, r in REGULAR_GRID
        for seed in seeds
    }

    def no_randrange(*args, **kwargs):
        raise AssertionError("randrange was called")

    monkeypatch.setattr(random.Random, "randrange", no_randrange)
    for (n, r, seed), graph in expected.items():
        got = generate(FamilySpec("random_regular", {"n": n, "r": r}, seed=seed))
        assert got == graph, (n, r, seed)


def test_random_regular_pinned_digests():
    """sha256 of the sorted edge list, fixed when the swap loop was first
    written; a drift in random.Random's getrandbits or random() stream
    shows up here. (64, 8) and (66, 8) have m = 256 and 264 edges, where
    about half of the 9-bit index draws are rejected and drawn again."""
    pinned = {
        (8, 4, 11): "e059b6910cc759cd89039f5be25f63322e0b5ee010ad730a20b77a4ccba687d3",
        (10, 6, 12): "ce430ba51669d1d34162474b796a028d5a9100d89ffbe56bb7cef3c4199244cd",
        (16, 7, 5): "6b295cb1921c8452738146d58db69fee2f9db69dc91c3de1193862aa2ee31283",
        (80, 8, 2**61 + 12345): "f0617da1a1af8872b2815003b49023c271ef1e86381441020f9f001d138cbf8b",
        (64, 8, 7): "037be48e196e6978457eb280fde6af96c2bd4a983591148b0a6aedef8ad00c05",
        (66, 8, 3): "eca244277b4b823f4bf3310f4c25e39ec678b27efc64b428c1335c172c8014a1",
    }
    for (n, r, seed), digest in pinned.items():
        g = generate(FamilySpec("random_regular", {"n": n, "r": r}, seed=seed))
        assert hashlib.sha256(json.dumps(sorted(g.edges)).encode()).hexdigest() == digest


def test_random_regular_complete_degree_skips_the_swaps():
    """r = n - 1 is K_n, where no swap can succeed; the 30*m attempts took
    tens of seconds at n = 1000."""
    t0 = time.perf_counter()
    g = generate(FamilySpec("random_regular", {"n": 1000, "r": 999}, seed=3))
    elapsed = time.perf_counter() - t0
    assert g == generate(FamilySpec("complete", {"n": 1000}))
    assert elapsed < 10.0, elapsed


def test_clique_chain_class_guarantee():
    g = generate(FamilySpec("clique_chain", {"blocks": 3, "q": 3, "links": 1}))
    assert edge_connectivity(g)[0] == 1
    assert gt_membership(g, 1) is not None


def test_clique_star_class_guarantee():
    g = generate(FamilySpec("clique_star", {"pendants": 3, "q": 5, "links": 1}))
    assert edge_connectivity(g)[0] == 1
    w = gt_membership(g, 2)
    assert w is not None and validate_gt_witness(g, w) == []


def test_gadget_guarantees_reverified():
    for k in (2, 3):
        fx = lemma41_gadget_fixture(k)
        g = fx.graph
        assert g.min_degree == 3 * k + 3
        assert validate_gt_witness(g, fx.witness) == []
        assert edge_connectivity(g)[0] == k + 1
        # the designated cut satisfies the decomposition hypotheses
        from treecert.graphs import _components_from_edges

        comps = _components_from_edges(g.n, g.edges - fx.cut)
        assert len(comps) == 3
        rs = []
        for comp in comps:
            mask = 0
            for v in comp:
                mask |= 1 << v
            from treecert.graphs import boundary_size_mask

            rs.append(boundary_size_mask(g, mask))
        assert sum(rs) <= 4 * k + 3
        assert all(k + 1 <= r <= 2 * k + 1 for r in rs)


def test_generate_spec_errors():
    for fam, params in [
        ("complete", {}),
        ("cycle", {"n": 2}),
        ("gnp", {"n": 5, "p": 1.5}),
        ("clique_chain", {"blocks": 1, "q": 3}),
        ("clique_star", {"pendants": 1, "q": 3}),
        ("mystery", {"n": 3}),
        ("clique_chain", {"blocks": 2, "q": 4, "link": 3}),  # a misspelt `links`
    ]:
        with pytest.raises(ToolError) as err:
            generate(FamilySpec(fam, params))
        assert err.value.code == "SPEC_ERROR"
    assert "'link'" in err.value.message


def test_generate_refuses_more_than_max_vertices():
    from treecert.graphs import MAX_VERTICES

    over = MAX_VERTICES + 1  # 1001 = 7 * 143
    for fam, params in [
        ("complete", {"n": over}),
        ("complete", {"n": 10**6}),
        ("cycle", {"n": over}),
        ("path", {"n": over}),
        ("gnp", {"n": over, "p": 0.5}),
        ("random_regular", {"n": over, "r": 2}),
        ("clique_chain", {"blocks": 7, "q": 143}),
        ("clique_star", {"pendants": 6, "q": 143}),
        ("clique_gadget_lemma41", {"k": 66}),  # 5 cliques of 3k + 4 = 202
    ]:
        with pytest.raises(ToolError) as err:
            generate(FamilySpec(fam, params))
        assert err.value.code == "TOO_LARGE", fam
    assert generate(FamilySpec("path", {"n": MAX_VERTICES})).n == MAX_VERTICES
    assert generate(FamilySpec("clique_chain", {"blocks": 500, "q": 2})).n == MAX_VERTICES


# ---------------------------------------------------------------------------
# experiment runner


def _tiny_config(**overrides):
    base = dict(
        families=[
            {"family": "complete", "params": {"n": 7}, "seed": 0, "trials": 1},
            {"family": "gnp", "params": {"n": 7, "p": 0.6}, "seed": 5, "trials": 6},
        ],
        theorems=["thm1.2", "thm5.1", "cor5.3i"],
        k_grid=[2],
        d_grid=[],
        a_grid=[1],
        b_grid=[2, -2],
        packing_budget=5000,
        jobs=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_zero_trials_empty_report():
    cfg = _tiny_config(
        families=[{"family": "complete", "params": {"n": 7}, "seed": 0, "trials": 0}]
    )
    report = run_experiment(cfg)
    assert report.rows == []
    assert report.summary["trials"] == 0
    assert report.summary["counterexamples"] == 0


def test_same_config_same_bytes():
    cfg = _tiny_config()
    a = run_experiment(cfg).to_jsonl()
    b = run_experiment(cfg).to_jsonl()
    assert a == b


def test_jobs_do_not_change_bytes():
    cfg = _tiny_config()
    serial = run_experiment(cfg, jobs=1).to_jsonl()
    parallel = run_experiment(cfg, jobs=2).to_jsonl()
    assert serial == parallel


def test_small_soundness_run_fires_where_expected():
    cfg = _tiny_config(
        families=[
            {"family": "complete", "params": {"n": n}, "seed": 0, "trials": 1}
            for n in range(5, 11)
        ],
        theorems=["thm1.2", "thm1.3"],
    )
    report = run_experiment(cfg)
    assert report.summary["counterexamples"] == 0
    fired_12 = {
        row["graph"]["n"]: cert["outcome"]
        for row in report.rows
        for cert in row["certificates"]
        if cert["theorem_id"] == "thm1.2"
    }
    assert [n for n, out in sorted(fired_12.items()) if out == "CERTIFIED"] == [7, 8, 9, 10]
    fired_13 = {
        row["graph"]["n"]: cert["outcome"]
        for row in report.rows
        for cert in row["certificates"]
        if cert["theorem_id"] == "thm1.3"
    }
    assert [n for n, out in sorted(fired_13.items()) if out == "CERTIFIED"] == [10]


def test_gnp_skipped_rows():
    cfg = _tiny_config(
        families=[{"family": "gnp", "params": {"n": 6, "p": 0.0}, "seed": 1, "trials": 2}],
        theorems=["thm5.1"],
        k_grid=[1],
    )
    report = run_experiment(cfg)
    assert all(row.get("status") == "SKIPPED" for row in report.rows)
    assert report.summary["skipped"] == 2


def test_one_vertex_graphs_are_too_small_rows_beside_a_normal_family():
    # a one-vertex graph has no partition into two blocks for the quotient check
    normal = {"family": "complete", "params": {"n": 7}, "seed": 0, "trials": 1}
    tiny = [
        {"family": "complete", "params": {"n": 1}, "seed": 0, "trials": 1},
        {"family": "path", "params": {"n": 1}, "seed": 0, "trials": 1},
        {"family": "gnp", "params": {"n": 1, "p": 0.5}, "seed": 3, "trials": 2},
    ]
    report = run_experiment(_tiny_config(families=tiny + [normal]))
    *small, row = report.rows
    assert [r["error"] for r in small] == ["TOO_SMALL"] * 4
    assert all("certificates" not in r and r["graph"]["n"] == 1 for r in small)
    assert report.summary["errors"] == 4
    (alone,) = run_experiment(_tiny_config(families=[normal])).rows
    assert {**row, "trial": 0} == alone


def test_each_trial_runs_one_search_per_distinct_k_and_d(monkeypatch):
    # thm1.1 asks d = 1 and 2, the eigenvalue conditions d = delta: 5 on K6,
    # 2 on C5, where it meets thm1.1's d = 2
    cfg = ExperimentConfig(
        families=[
            {"family": "complete", "params": {"n": 6}, "trials": 2},
            {"family": "cycle", "params": {"n": 5}, "trials": 2},
        ],
        theorems=["thm1.1", "thm5.1", "cor5.3i"], k_grid=[1, 2], d_grid=[1, 2],
    )
    plain = run_experiment(cfg, jobs=1).rows
    search, calls = certify_module.search_pkd_witness, []

    def counted(g, k, d, budget):
        calls.append((g.n, k, d))
        return search(g, k, d, budget=budget)

    monkeypatch.setattr(certify_module, "search_pkd_witness", counted)
    assert run_experiment(cfg, jobs=1).rows == plain
    per_trial = {6: {1, 2, 5}, 5: {1, 2}}
    want = {(n, k, d): 2 for n, ds in per_trial.items() for k in (1, 2) for d in ds}
    assert Counter(calls) == want and len(calls) == 2 * 2 * 3 + 2 * 2 * 2


def test_a_certified_row_the_search_refutes_is_a_counterexample(monkeypatch):
    monkeypatch.setattr(
        certify_module, "search_pkd_witness", lambda *_, **__: PkdSearchResult("REFUTED", None, 0)
    )
    report = run_experiment(_tiny_config())
    certs = [c for row in report.rows for c in row.get("certificates", ())]
    certified = sum(c.get("outcome") == "CERTIFIED" for c in certs)
    assert certified > 0
    assert sum(c.get("consistent") is False for c in certs) == certified
    assert report.summary["counterexamples"] == certified


def test_interlacing_recorded_per_trial():
    report = run_experiment(_tiny_config())
    inter = report.summary["interlacing"]
    assert inter["total"] == len(report.rows)
    assert inter["pass"] == inter["total"]


def test_csv_export():
    report = run_experiment(_tiny_config())
    csv = report.aggregates_csv()
    lines = csv.strip().splitlines()
    assert lines[0].startswith("theorem_id,evaluated")
    assert lines[-1].startswith("TOTAL,")
    assert any(line.startswith("thm1.2,") for line in lines)


def test_config_validation():
    with pytest.raises(ToolError):
        run_experiment(_tiny_config(families=[]))
    with pytest.raises(ToolError):
        run_experiment(_tiny_config(theorems=["thmX"]))
    with pytest.raises(ToolError):
        run_experiment(_tiny_config(k_grid=[]))
    with pytest.raises(ToolError):
        run_experiment(_tiny_config(theorems=["thm1.1"], d_grid=[]))
    with pytest.raises(ToolError):
        run_experiment(_tiny_config(theorems=["cor3.1iii"], b_grid=[2]))
    with pytest.raises(ToolError):
        ExperimentConfig.from_dict({"families": [], "theorems": [], "k_grid": [], "bogus": 1})
    # decisions are exact, so a decision tolerance is an unknown key
    with pytest.raises(ToolError) as err:
        ExperimentConfig.from_dict({"families": [], "theorems": [], "k_grid": [], "decision_tol": 1e-8})
    assert err.value.code == "CONFIG_ERROR" and "decision_tol" in err.value.message
    k7 = {"family": "complete", "params": {"n": 7}}
    for bad in [
        dict(families=[{**k7, "trials": "2"}]),
        dict(families=[{**k7, "seed": 1.5}]),
        dict(families=[{**k7, "params": {"n": "5"}}]),
        dict(families=[{**k7, "params": {"n": 5.0}}]),
        dict(families=[{**k7, "params": [7]}]),
        dict(families=[{"family": "gnp", "params": {"n": 6, "p": "0.5"}}]),
        dict(families=[5]),
        dict(families={"family": "complete"}),
        dict(theorems="thm5.1"),
        dict(k_grid=["1"]),
        dict(k_grid=2),
        dict(theorems=["thm1.1"], d_grid=[True]),
        dict(a_grid=1),
        dict(b_grid=None),
        dict(packing_budget="5"),
        dict(jobs="2"),
        dict(theorems=["cor5.2i"], a_grid=[-1]),  # every a below a_min = 0
        dict(theorems=["cor3.1ii"], a_grid=[-1], b_grid=[0.5]),  # a/b < -1
        dict(theorems=["cor3.1ii"], b_grid=["two"]),
        dict(theorems=["cor5.3i"], a_grid=[None]),
        dict(jobs=0),
    ]:
        with pytest.raises(ToolError) as err:
            run_experiment(_tiny_config(**bad))
        assert err.value.code == "CONFIG_ERROR", bad
    with pytest.raises(ToolError) as err:
        run_experiment(_tiny_config(), jobs=0)
    assert err.value.code == "CONFIG_ERROR"


def test_trial_count_cap_is_checked_before_any_trial(monkeypatch):
    def no_trial(_):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_run_trial", no_trial)
    over = [
        {"family": "complete", "params": {"n": 7}, "trials": harness.MAX_TRIALS},
        {"family": "cycle", "params": {"n": 5}},  # trials defaults to 1
    ]
    for jobs in (1, 2):
        with pytest.raises(ToolError) as err:
            run_experiment(_tiny_config(families=over), jobs=jobs)
        assert err.value.code == "CONFIG_ERROR"
        assert str(harness.MAX_TRIALS) in err.value.message
    with pytest.raises(ToolError) as err:
        run_experiment(_tiny_config(families=[{**over[0], "trials": 10**9}]))
    assert err.value.code == "CONFIG_ERROR"


def test_grid_caps_are_checked_before_any_point_or_trial(monkeypatch, capsys, tmp_path):
    def never(*_):
        raise AssertionError("work ran past a cap")

    monkeypatch.setattr(harness, "_run_trial", never)
    wide = list(range(1, 101))
    grids = dict(theorems=list(THEOREM_IDS), k_grid=wide, d_grid=wide, a_grid=wide, b_grid=wide)
    t0 = time.perf_counter()
    with monkeypatch.context() as patch:
        patch.setattr(harness, "param_error", never)  # no grid point is built
        with pytest.raises(ToolError) as err:
            run_experiment(_tiny_config(**grids))
        assert err.value.code == "CONFIG_ERROR"
        assert str(harness.MAX_GRID_POINTS) in err.value.message
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({**asdict(_tiny_config()), **grids}))
        assert main(["experiment", "--config", str(path)]) == 2
        assert "CONFIG_ERROR" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 1.0
    # 10^5 trials of 36 accepted requests: the points are built, no trial runs
    many = [{"family": "complete", "params": {"n": 7}, "trials": harness.MAX_TRIALS}]
    cfg = _tiny_config(families=many, theorems=list(THEOREM_IDS[1:]), k_grid=[2, 3])
    with pytest.raises(ToolError) as err:
        run_experiment(cfg)
    assert err.value.code == "CONFIG_ERROR"
    assert str(harness.MAX_CERTIFY_CALLS) in err.value.message
    assert time.perf_counter() - t0 < 1.0


def test_grid_points_outside_a_rule_are_skipped():
    cfg = _tiny_config(
        families=[{"family": "complete", "params": {"n": 7}, "seed": 0, "trials": 1}],
        theorems=["cor3.1i", "cor3.1ii", "cor5.2i"],
        a_grid=[-2, 1],
    )
    certs = run_experiment(cfg).rows[0]["certificates"]
    assert [(c["theorem_id"], c["a"], c["b"]) for c in certs] == [
        ("cor3.1i", 1, None),
        ("cor3.1ii", 1, 2),
        ("cor5.2i", 1, None),
    ]
    assert not any("error" in c for c in certs)


def test_thm11_grid_points_outside_its_rule_are_skipped():
    k7 = [{"family": "complete", "params": {"n": 7}, "seed": 0, "trials": 1}]
    cfg = _tiny_config(families=k7, theorems=["thm1.1"], k_grid=[0, 1], d_grid=[0, 2])
    certs = run_experiment(cfg).rows[0]["certificates"]
    assert [(c["theorem_id"], c["k"], c["d"]) for c in certs] == [("thm1.1", 1, 2)]
    assert certs[0]["outcome"] == "CERTIFIED"
    with pytest.raises(ToolError) as err:
        run_experiment(_tiny_config(families=k7, theorems=["thm1.1"], k_grid=[0], d_grid=[2]))
    assert err.value.code == "CONFIG_ERROR"


def test_jobs_width_is_clamped(monkeypatch):
    widths = []

    class SerialPool:
        """Records the requested width and maps in-process."""

        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    cfg = _tiny_config(
        families=[{"family": "cycle", "params": {"n": 5}, "seed": 0, "trials": 3}],
        theorems=["thm5.1"],
        k_grid=[1],
    )
    serial = run_experiment(cfg, jobs=1).to_jsonl()
    monkeypatch.setattr(harness, "_process_pool", SerialPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    assert run_experiment(cfg, jobs=64).to_jsonl() == serial  # clamped to 3 tasks
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert run_experiment(cfg, jobs=64).to_jsonl() == serial  # clamped to 2 cores
    assert widths == [3, 2]


def test_default_config_matches_shipped_file():
    cfg = shipped_config()
    assert sum(e.get("trials", 1) for e in cfg.families) >= 2000
