"""One fresh interpreter: set up a workload's inputs, then run one timed unit.

`run.py` starts this file once per set-up sample and once per timed unit,
so the program's Graph-keyed memo caches start empty every time, as they
do for a user of the command line. Usage:

    PYTHONPATH=src python3 perfbench/child.py '<json spec>'

The spec holds workload, seed, jobs, mode ("setup" or "unit"), trace and
tmp (a scratch directory). The last line printed is one JSON object.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path

import inputs
import spans


class TrialClock:
    """Per-trial latency around the experiment runner's trial function,
    collected from forked pool workers too."""

    def __init__(self, dump_dir: Path) -> None:
        self.latencies: list[float] = []
        self.dump_dir = dump_dir

    def install(self) -> None:
        harness = importlib.import_module("treecert.harness")
        run_trial = getattr(harness, "_run_trial", None)
        if not callable(run_trial):
            raise spans.MissingTarget("treecert.harness._run_trial is missing")
        latencies = self.latencies

        # Same name and module as the original, so the pool pickles it by
        # reference and forked workers resolve it to this wrapper.
        @functools.wraps(run_trial)
        def timed(args):
            t0 = time.perf_counter()
            row = run_trial(args)
            latencies.append(time.perf_counter() - t0)
            return row

        harness._run_trial = timed
        spans.forward_from_workers(
            self, self.dump_dir, "trials", latencies.clear, lambda: latencies
        )

    def collect(self) -> list[float]:
        for worker in spans.read_worker_files(self.dump_dir, "trials"):
            self.latencies.extend(worker)
        return self.latencies


def _corpus_report_facts(text: bytes) -> dict:
    rows = [json.loads(line) for line in text.splitlines()]
    summary = rows.pop()
    errored = inconclusive = 0
    for row in rows:
        certs = row.get("certificates", ())
        if "error" in row or any("error" in c for c in certs):
            errored += 1
        elif any(c.get("cross_status") == "INCONCLUSIVE" for c in certs):
            inconclusive += 1
    inter = summary["interlacing"]
    return {
        "items": len(rows),
        "errors": errored,
        "unsettled": errored + inconclusive,
        "digest": hashlib.sha256(text).hexdigest(),
        "gates": {
            "no_counterexamples": summary["counterexamples"] == 0,
            "interlacing_every_trial": inter["pass"] == inter["total"]
            == summary["trials"] - summary["skipped"],
            "no_errored_rows": errored == 0 and summary["errors"] == 0,
        },
    }


def setup_corpus(spec: dict, root: Path, tmp: Path):
    from treecert import cli

    data = inputs.corpus_config(root, spec["seed"])
    config = tmp / "config.json"
    config.write_text(json.dumps(data))
    report = tmp / "report.jsonl"
    clock = TrialClock(tmp)
    clock.install()
    argv = ["experiment", "--config", str(config), "--jobs", str(spec["jobs"]), "--out", str(report)]

    def unit() -> dict:
        code = cli.main(argv)
        facts = _corpus_report_facts(report.read_bytes())
        facts["gates"]["exit_zero"] = code == 0
        facts["latencies"] = clock.collect()
        return facts

    return unit


OUTCOMES = {"CERTIFIED", "CONDITION_FAILS", "MARGINAL", "HYPOTHESIS_FAILED"}


def setup_large_graphs(spec: dict, root: Path, tmp: Path):
    from treecert import ToolError

    items = inputs.large_graph_requests(spec["seed"])
    certify_mod = importlib.import_module("treecert.certify")
    packing_mod = importlib.import_module("treecert.packing")

    def unit() -> dict:
        latencies, verdicts, failed, unsound = [], [], 0, []
        for label, g, reqs in items:
            t0 = time.perf_counter()
            outcomes, tau = [], None
            for req in reqs:
                try:
                    outcomes.append(certify_mod.certify(g, req).outcome)
                except ToolError as err:
                    outcomes.append(err.code)
            try:
                tau = packing_mod.tau_packing(g)
            except ToolError:
                pass
            latencies.append(time.perf_counter() - t0)
            verdicts.append((label, outcomes, tau))
            failed += tau is None or any(o not in OUTCOMES for o in outcomes)
            if "CERTIFIED" in outcomes and (tau is None or tau < inputs.K):
                unsound.append(label)
        return {
            "items": len(items),
            "errors": failed,
            "unsettled": failed,
            "digest": hashlib.sha256(json.dumps(verdicts).encode()).hexdigest(),
            "latencies": latencies,
            "gates": {"no_certified_without_k_trees": not unsound},
        }

    return unit


SETUPS = {"corpus": setup_corpus, "large-graphs": setup_large_graphs}


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    spec = json.loads(sys.argv[1])
    root = Path(__file__).resolve().parent.parent
    tmp = Path(spec["tmp"])
    tracer = spans.Tracer() if spec["trace"] else None
    unit = SETUPS[spec["kind"]](spec, root, tmp)
    if tracer is not None:
        tracer.install(tmp)
    t_ready = time.monotonic()
    if spec["mode"] == "setup":
        print(json.dumps({"t_ready": t_ready}))
        return

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    out = unit()
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    own_cpu = _cpu(self1) - _cpu(self0)
    kids_cpu = _cpu(kids1) - _cpu(kids0)
    jobs = spec["jobs"]
    out.update(
        t_ready=t_ready,
        wall_s=wall,
        cpu_s=own_cpu + kids_cpu,
        # ru_maxrss is in KiB on Linux; children's is the largest worker's.
        peak_rss_mb=(self1.ru_maxrss + kids1.ru_maxrss) / 1024,
        # Trials run in workers when jobs > 1, in this process otherwise.
        worker_utilisation=(kids_cpu if jobs > 1 else own_cpu) / (jobs * wall),
    )
    if tracer is not None:
        for worker in spans.read_worker_files(tmp, "spans"):
            tracer.merge(worker)
        out["layers"] = spans.layer_metrics(
            tracer, jobs * wall, per_call_s=spans.wrapper_cost_s())
    print(json.dumps(out))


if __name__ == "__main__":
    main()
