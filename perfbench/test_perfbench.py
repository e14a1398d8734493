"""Short checks of the benchmark's own code: seeded inputs, span
accounting, loud failure on a lost span, and report determinism across
worker counts with the benchmark's wrappers installed."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def test_seed_zero_is_the_shipped_corpus():
    shipped = json.loads((ROOT / inputs.SHIPPED_CONFIG).read_text())
    assert inputs.corpus_config(ROOT, 0) == shipped
    seeded = inputs.corpus_config(ROOT, 5)
    assert [f["seed"] for f in seeded["families"]] == [
        f["seed"] ^ (5 << inputs.SEED_SHIFT) for f in shipped["families"]
    ]


def test_conditions_cover_every_spectral_condition():
    from treecert import THEOREM_IDS

    assert {c[0] for c in inputs.CONDITIONS} | {"thm1.1"} == set(THEOREM_IDS)


def test_large_graphs_are_seeded_distinct_and_decided():
    assert inputs.large_graph_specs(3) == inputs.large_graph_specs(3)
    assert inputs.large_graph_specs(3) != inputs.large_graph_specs(4)
    items = inputs.large_graph_requests(3)
    assert len({g for _, g, _ in items}) == len(items)
    for label, g, reqs in items:
        assert reqs, label
        for req in reqs:
            assert req.cross_verify is False
            if req.theorem_id == "thm1.1":
                assert (g.n, g.min_degree) in inputs.NU_F_SIZES
        if g.n > inputs.CLASS_CAP_N:
            assert {r.theorem_id for r in reqs} <= {
                c[0] for c in inputs.CONDITIONS if c[1] == 0
            }


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_excludes_child_spans():
    tr = spans.Tracer()
    inner = tr.wrap("spectra.eigensolve", lambda: _spin(0.02))

    def body():
        _spin(0.01)
        inner()
        inner()

    outer = tr.wrap("spectra.profile", body)
    outer()
    assert tr.calls("spectra.profile") == 1 and tr.calls("spectra.eigensolve") == 2
    assert tr.total("spectra.profile") >= tr.total("spectra.eigensolve") >= 0.04
    own = tr.own("spectra.profile")
    assert 0.01 <= own < 0.04
    assert tr.top_s == tr.total("spectra.profile")


def test_every_target_exists_and_a_missing_one_fails_loudly(monkeypatch):
    import importlib

    for mod, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(mod), attr, None)), (mod, attr)
    monkeypatch.setattr(spans, "TARGETS", (("treecert.harness", "no_such_name", "x.y"),))
    with pytest.raises(spans.MissingTarget):
        spans.Tracer().install(Path("."))


_DETERMINISM = r"""
import hashlib, json, sys
from pathlib import Path
import child, spans
from treecert import cli

tmp, config = Path(sys.argv[1]), sys.argv[2]

def digest(jobs, name):
    out = tmp / name
    assert cli.main(["experiment", "--config", config, "--jobs", str(jobs), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()

plain = digest(1, "plain.jsonl")
clock = child.TrialClock(tmp)
clock.install()
tracer = spans.Tracer()
tracer.install(tmp)
par = digest(2, "par.jsonl")
workers = spans.read_worker_files(tmp, "spans")
for w in workers:
    tracer.merge(w)
print(json.dumps({"plain": plain, "par": par, "trials": len(clock.collect()),
                  "workers": len(workers), "searches": tracer.calls("packing.search")}))
"""


def test_reports_match_across_jobs_with_wrappers_in_forked_workers(tmp_path):
    data = inputs.corpus_config(ROOT, 7)
    data["families"] = [
        {**f, "trials": min(f.get("trials", 1), 8)} for f in data["families"][:26]
    ]
    trials = sum(f["trials"] for f in data["families"])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = subprocess.run(
        [sys.executable, "-c", _DETERMINISM, str(tmp_path), str(config)],
        env=_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["plain"] == got["par"]
    assert got["workers"] >= 1
    assert got["trials"] == got["searches"] == trials


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
