import pytest

from treecert import (
    ExperimentConfig,
    FamilySpec,
    ToolError,
    edge_connectivity,
    generate,
    gt_membership,
    harness,
    lemma41_gadget_fixture,
    run_experiment,
    validate_gt_witness,
)

from corpus import complete, shipped_config


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
        from treecert.packing import _components_from_edges

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
    ]:
        with pytest.raises(ToolError) as err:
            generate(FamilySpec(fam, params))
        assert err.value.code == "SPEC_ERROR"


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
    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    assert run_experiment(cfg, jobs=64).to_jsonl() == serial  # clamped to 3 tasks
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert run_experiment(cfg, jobs=64).to_jsonl() == serial  # clamped to 2 cores
    assert widths == [3, 2]


def test_default_config_matches_shipped_file():
    cfg = shipped_config()
    assert sum(e.get("trials", 1) for e in cfg.families) >= 2000
