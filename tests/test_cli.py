import json
import time

import pytest

from treecert import ToolError, harness
from treecert.cli import main


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="g.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
K5 = "5 10\n" + "\n".join(
    f"{u} {v}" for u in range(5) for v in range(u + 1, 5)
) + "\n"
C4 = "4 4\n0 1\n1 2\n2 3\n0 3\n"
C5 = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"
P3 = "3 2\n0 1\n1 2\n"
# two K4s joined by the edge 0-4
CLIQUE_CHAIN = "8 13\n" + "\n".join(
    f"{u} {v}" for b in (0, 4) for u in range(b, b + 4) for v in range(u + 1, b + 4)
) + "\n0 4\n"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_default_laplacian(capsys, graph_file):
    code, out, _ = run(capsys, ["spectrum", "--input", graph_file(P3)])
    assert code == 0
    data = json.loads(out)
    assert data["a"] == 1.0 and data["b"] == -1.0
    assert data["eigenvalues"] == pytest.approx([3, 1, 0], abs=1e-9)


def test_spectrum_adjacency_and_rational_flags(capsys, graph_file):
    code, out, _ = run(
        capsys, ["spectrum", "--input", graph_file(C4), "--a", "0", "--b", "1"]
    )
    data = json.loads(out)
    assert data["eigenvalues"] == pytest.approx([2, 0, 0, -2], abs=1e-9)
    code, out, _ = run(
        capsys, ["spectrum", "--input", graph_file(K4), "--a", "1/2", "--b", "1/2"]
    )
    assert code == 0


def test_spectrum_graph6_autodetect(capsys, graph_file):
    code, out, _ = run(capsys, ["spectrum", "--input", graph_file("C~\n", "g.g6")])
    data = json.loads(out)
    assert data["eigenvalues"] == pytest.approx([4, 4, 4, 0], abs=1e-9)


def test_nu_f(capsys, graph_file):
    code, out, _ = run(capsys, ["nu-f", "--input", graph_file(K5)])
    assert code == 0
    data = json.loads(out)
    assert data["numerator"] == 5 and data["denominator"] == 2
    assert data["p"] == 5
    assert len(data["partition"]) == 5


def test_tau_with_extraction(capsys, graph_file):
    code, out, _ = run(capsys, ["tau", "--input", graph_file(K4), "--extract", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["tau"] == 2 and data["feasible"] and len(data["trees"]) == 2


def test_tau_extraction_infeasible(capsys, graph_file):
    code, out, _ = run(capsys, ["tau", "--input", graph_file(C4), "--extract", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["tau"] == 1 and data["feasible"] is False and data["trees"] is None


def test_gt(capsys, graph_file):
    code, out, _ = run(capsys, ["gt", "--input", graph_file(K4), "--t", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["member"] is True
    assert data["subsets"] == [[0], [1]]


def test_gt_c300_has_no_side_cap(capsys, graph_file):
    # C300 has 89 700 minimum-cut sides, past the listing cap of
    # `min_cut_sides`; `gt` reads only the 300 minimal ones (singletons)
    c300 = "300 300\n" + "\n".join(f"{v} {(v + 1) % 300}" for v in range(300))
    t0 = time.perf_counter()
    code, out, _ = run(capsys, ["gt", "--input", graph_file(c300), "--t", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["member"] is True and data["subsets"] == [[0], [1]]
    assert time.perf_counter() - t0 < 30


def test_verify_pkd_found(capsys, graph_file):
    code, out, _ = run(
        capsys, ["verify-pkd", "--input", graph_file(K5), "--k", "1", "--d", "2"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "FOUND"
    w = data["witness"]
    assert w["conditions"] == {"a": True, "b": True, "c": True}
    assert len(w["trees"]) == 1 and len(w["trees"][0]) == 4
    assert len(w["forest"]) == 4


def test_verify_pkd_refuted(capsys, graph_file):
    code, out, _ = run(
        capsys, ["verify-pkd", "--input", graph_file(C4), "--k", "1", "--d", "2"]
    )
    assert code == 0
    assert json.loads(out)["status"] == "REFUTED"


def test_verify_pkd_inconclusive_exit_code(capsys, graph_file):
    # the seeded stages do not settle d = 4, and the search is REFUTED only
    # after 20 connected 5-vertex sets, so a budget of one set stops it
    code, out, _ = run(
        capsys,
        ["verify-pkd", "--input", graph_file(CLIQUE_CHAIN), "--k", "1", "--d", "4",
         "--budget", "1"],
    )
    assert code == 3
    data = json.loads(out)
    assert data["status"] == "INCONCLUSIVE"
    assert data["nodes"] > 0


def test_certify(capsys, graph_file):
    k7 = "7 21\n" + "\n".join(
        f"{u} {v}" for u in range(7) for v in range(u + 1, 7)
    )
    code, out, _ = run(
        capsys,
        ["certify", "--input", graph_file(k7), "--theorem", "thm1.2", "--k", "2"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "CERTIFIED"
    assert (data["threshold_num"], data["threshold_den"]) == (136, 63)
    assert data["cross_check"]["status"] == "FOUND"
    # the cross-check runs at every n: K13 is searched, not refused
    k13 = "13 78\n" + "\n".join(f"{u} {v}" for u in range(13) for v in range(u + 1, 13))
    code, out, _ = run(
        capsys,
        ["certify", "--input", graph_file(k13, "k13.txt"), "--theorem", "thm5.1", "--k", "2"],
    )
    assert code == 0
    assert json.loads(out)["cross_check"] == {"consistent": True, "status": "FOUND"}


def test_certify_with_matrix_params(capsys, graph_file):
    k7 = "7 21\n" + "\n".join(
        f"{u} {v}" for u in range(7) for v in range(u + 1, 7)
    )
    code, out, _ = run(
        capsys,
        [
            "certify", "--input", graph_file(k7), "--theorem", "cor3.1ii",
            "--k", "2", "--a", "1", "--b", "1/2",
        ],
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "CERTIFIED"


def test_parse_error_exit_2(capsys, graph_file):
    code, out, err = run(capsys, ["nu-f", "--input", graph_file("2 1\n0 0\n")])
    assert code == 2
    assert "SELF_LOOP" in err


def test_parameter_error_exit_2(capsys, graph_file):
    code, _, err = run(
        capsys,
        ["certify", "--input", graph_file(K4), "--theorem", "thm1.2", "--k", "1"],
    )
    assert code == 2
    assert "PARAMETER_ERROR" in err


def test_certify_one_vertex_graph_is_too_small(capsys, graph_file):
    # the default cross-check searches at d = min degree = 0; the graph is
    # too small before d is out of range
    code, _, err = run(
        capsys,
        ["certify", "--input", graph_file("1 0\n"), "--theorem", "thm5.1", "--k", "1"],
    )
    assert code == 2
    assert "TOO_SMALL" in err and "PARAMETER_ERROR" not in err


def test_experiment_refuses_an_unwritable_out_before_any_trial(capsys, tmp_path, monkeypatch):
    def never(_):
        raise AssertionError("a trial ran before --out was checked")

    monkeypatch.setattr(harness, "_run_trial", never)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"families": [{"family": "complete", "params": {"n": 6}}], "theorems": ["thm5.1"],
         "k_grid": [1]}
    ))
    experiment = ["experiment", "--config", str(cfg_path), "--out"]
    code, out, err = run(capsys, experiment + [str(tmp_path / "missing" / "r.jsonl")])
    assert code == 2 and out == "" and "error IO" in err
    # the .csv beside an existing report cannot be written: the report stays as it was
    report = tmp_path / "r.jsonl"
    report.write_text("old report\n")
    (tmp_path / "r.jsonl.csv").mkdir()
    code, out, err = run(capsys, experiment + [str(report)])
    assert code == 2 and out == "" and "error IO" in err
    assert report.read_text() == "old report\n"
    # a fresh report beside an unwritable .csv is removed again
    fresh = tmp_path / "fresh.jsonl"
    (tmp_path / "fresh.jsonl.csv").mkdir()
    code, out, err = run(capsys, experiment + [str(fresh)])
    assert code == 2 and "error IO" in err and not fresh.exists()
    # a config refused by its check leaves no file behind and changes none
    cfg_path.write_text(json.dumps(
        {"families": [{"family": "complete", "params": {"n": 6}}], "theorems": ["cor5.2i"],
         "k_grid": [1], "a_grid": ["1e400"]}
    ))
    (tmp_path / "r.jsonl.csv").rmdir()
    for name in ("new.jsonl", "r.jsonl"):
        code, out, err = run(capsys, experiment + [str(tmp_path / name)])
        assert code == 2 and out == "" and "NON_FINITE" in err
    assert not (tmp_path / "new.jsonl").exists() and not (tmp_path / "new.jsonl.csv").exists()
    assert report.read_text() == "old report\n" and not (tmp_path / "r.jsonl.csv").exists()
    (tmp_path / "r.jsonl.csv").write_text("old table\n")
    code, _, err = run(capsys, experiment + [str(report)])
    assert code == 2 and "NON_FINITE" in err
    assert report.read_text() == "old report\n"
    assert (tmp_path / "r.jsonl.csv").read_text() == "old table\n"


def test_experiment_that_fails_part_way_leaves_the_out_files_as_they_were(
    capsys, tmp_path, monkeypatch
):
    run_trial, ran = harness._run_trial, []

    def third_fails(task):
        ran.append(task[3])
        if len(ran) == 3:
            raise ToolError("SPEC_ERROR", "the third trial fails")
        return run_trial(task)

    monkeypatch.setattr(harness, "_run_trial", third_fails)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"families": [{"family": "complete", "params": {"n": 6}, "trials": 5}],
         "theorems": ["thm5.1"], "k_grid": [1]}
    ))
    report, table = tmp_path / "r.jsonl", tmp_path / "r.jsonl.csv"
    report.write_bytes(b"old report\n")
    table.write_bytes(b"old table\n")
    files = sorted(tmp_path.iterdir())
    for out in (report, tmp_path / "new.jsonl"):
        ran.clear()
        code, printed, err = run(capsys, ["experiment", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2 and printed == "" and "SPEC_ERROR" in err
        assert ran == [0, 1, 2]
        # no temporary file is left, and no fresh report or table
        assert sorted(tmp_path.iterdir()) == files
        assert report.read_bytes() == b"old report\n" and table.read_bytes() == b"old table\n"
    # a temporary file already there is not ours: the run is refused before any trial
    stale = tmp_path / "r.jsonl.tmp"
    stale.write_bytes(b"stale\n")
    ran.clear()
    code, printed, err = run(capsys, ["experiment", "--config", str(cfg_path), "--out", str(report)])
    assert code == 2 and printed == "" and "error IO" in err and ran == []
    assert stale.read_bytes() == b"stale\n" and report.read_bytes() == b"old report\n"


def test_hostile_flags_exit_2(capsys, graph_file, tmp_path):
    k7 = "7 21\n" + "\n".join(f"{u} {v}" for u in range(7) for v in range(u + 1, 7))
    cfg_path = tmp_path / "cfg.json"
    cfg = {
        "families": [{"family": "complete", "params": {"n": 6}}],
        "theorems": ["thm5.1"],
        "k_grid": [1],
    }
    cfg_path.write_text(json.dumps(cfg))
    typo_path = tmp_path / "typo.json"
    typo_path.write_text(json.dumps({**cfg, "families": [{**cfg["families"][0], "trials": "2"}]}))
    param_path = tmp_path / "param.json"
    param_path.write_text(json.dumps({**cfg, "families": [{"family": "complete", "params": {"n": "5"}}]}))
    # configs that are not a JSON object, or that lack a required key
    shapeless = []
    no_k_grid = {key: v for key, v in cfg.items() if key != "k_grid"}
    for i, data in enumerate(([{"a": 1}], 5, None, {}, "x", no_k_grid)):
        path = tmp_path / f"shapeless{i}.json"
        path.write_text(json.dumps(data))
        shapeless.append(str(path))
    k4 = graph_file(K4, "k4.txt")
    cases = [
        # a*deg overflows to inf; 1e400 overflows the float conversion itself
        (["spectrum", "--input", k4, "--a", "1e308"], "NON_FINITE"),
        (["spectrum", "--input", k4, "--a", "1e400"], "NON_FINITE"),
        # C5 fails the degree hypothesis; its report used to overflow on float(a)
        (["certify", "--input", graph_file(C5, "c5.txt"), "--theorem", "cor5.2i", "--k", "1",
          "--a", "1e400"], "NON_FINITE"),
        (["experiment", "--config", str(cfg_path), "--jobs", "0"], "CONFIG_ERROR"),
        (["verify-pkd", "--input", k4, "--k", "1", "--d", "2", "--budget", "0"], "PARAMETER_ERROR"),
        (["verify-pkd", "--input", k4, "--k", "1", "--d", "2", "--budget", "-5"], "PARAMETER_ERROR"),
        (["experiment", "--config", str(typo_path)], "CONFIG_ERROR"),
        (["experiment", "--config", str(param_path)], "CONFIG_ERROR"),
        (["gt", "--input", k4, "--t", "0"], "PARAMETER_ERROR"),
        *((["experiment", "--config", path], "CONFIG_ERROR") for path in shapeless),
    ]
    # numerals whose exact value is too long to count with, refused from their text
    k6e = graph_file("6 14\n" + "\n".join(
        f"{u} {v}" for u in range(6) for v in range(u + 1, 6) if (u, v) != (0, 1)), "k6e.txt")
    for a in ("1e-4400", "1e-1000000", "0." + "7" * 5000, "1/" + "9" * 5000):
        cases.append((["certify", "--input", k6e, "--theorem", "cor5.2i", "--k", "1", "--a", a],
                      "PARAMETER_ERROR"))
    cases.append((["certify", "--input", k6e, "--theorem", "cor5.2i", "--k", "1",
                   "--a", "1e10000000"], "NON_FINITE"))
    for argv, code_name in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", argv
        assert code_name in err, argv
        assert time.perf_counter() - start < 1, argv
    # decisions are exact and the eigensolver has no convergence tolerance,
    # and certify always cross-checks: no such flag exists, so argparse exits 2
    for argv in (
        ["certify", "--input", graph_file(k7), "--theorem", "thm5.1", "--k", "2",
         "--decision-tol", "1e-8"],
        ["certify", "--input", graph_file(k7), "--theorem", "thm5.1", "--k", "2",
         "--cross-verify"],
        ["spectrum", "--input", graph_file(K4), "--tol", "1e-8"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, ["nu-f", "--input", "/nonexistent/g.txt"])
    assert code == 2


def test_experiment_roundtrip(capsys, tmp_path, graph_file):
    cfg = {
        "families": [
            {"family": "complete", "params": {"n": 6}, "seed": 0, "trials": 1},
            {"family": "gnp", "params": {"n": 6, "p": 0.7}, "seed": 9, "trials": 3},
        ],
        "theorems": ["thm5.1"],
        "k_grid": [1],
        "packing_budget": 2000,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "report.jsonl"
    code, _, _ = run(
        capsys, ["experiment", "--config", str(cfg_path), "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["type"] == "summary"
    assert summary["counterexamples"] == 0
    assert (tmp_path / "report.jsonl.csv").read_text().startswith("theorem_id,")
    # byte-identical at another worker count
    out2 = tmp_path / "report2.jsonl"
    run(capsys, ["experiment", "--config", str(cfg_path), "--jobs", "2", "--out", str(out2)])
    assert out_path.read_text() == out2.read_text()


def test_experiment_bad_config(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"families": [], "theorems": [], "k_grid": []}))
    code, _, err = run(capsys, ["experiment", "--config", str(cfg_path)])
    assert code == 2
    assert "CONFIG_ERROR" in err
