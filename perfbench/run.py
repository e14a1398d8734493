"""treecert benchmark: one command, standard library only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads (why each exists is recorded in
BENCHMARK.json):

* corpus        the shipped soundness sweep through `treecert experiment`
                at --jobs 1, with the seed XORed into every family seed
                (seed 0 is the shipped config);
* corpus-par    the same inputs at --jobs = usable cores;
* large-graphs  a seeded list of distinct graphs beyond the corpus sizes,
                each certified against every condition decided on it,
                then checked against tau_packing.

Every timed unit and every set-up sample runs in a fresh interpreter
(`child.py`). Units repeat while the next one is expected to finish within
--seconds; at least one runs. With --trace 0 the last line reports the
end-to-end metrics; with --trace 1 the same units run with layer spans
installed, then one untraced unit whose report must match theirs, and the
last line reports the per-layer metrics. Metric units come from
BENCHMARK.json. Lines before the last start with "#" and record the
environment, each unit and the correctness gates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from inputs import SHIPPED_CONFIG

NPROC = len(os.sched_getaffinity(0))
WORKLOADS = {  # name -> (input kind, jobs)
    "corpus": ("corpus", 1),
    "corpus-par": ("corpus", NPROC),
    "large-graphs": ("large-graphs", 1),
}
# Set-up samples are taken for this long before the timed units and again
# after them: the host's speed drifts over seconds, so one block of samples
# would give the median of a single moment.
SETUP_PHASE_S = 3.0
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def _loadavg() -> str:
    return " ".join(Path("/proc/loadavg").read_text().split()[:3])


def _spawn(spec: dict, deadline: float) -> tuple[float, dict]:
    """Run child.py in a fresh interpreter; returns (spawn time, its JSON)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as err:  # timed out or interrupted: leave nothing running
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(err, subprocess.TimeoutExpired):
            raise ChildFailed(f"{spec['mode']} child timed out") from err
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"{spec['mode']} child exited with {proc.returncode}")
    return t_spawn, json.loads(out.decode().strip().splitlines()[-1])


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _measure(kind: str, jobs: int, seed: int, seconds: float, trace: bool, tmp: Path):
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    base = {"kind": kind, "jobs": jobs, "seed": seed}

    def spawn(mode: str, traced: bool) -> tuple[float, dict]:
        unit_tmp = Path(tempfile.mkdtemp(dir=tmp))
        return _spawn({**base, "mode": mode, "trace": traced, "tmp": str(unit_tmp)}, deadline)

    setups = []

    def sample_setups() -> None:
        end = time.monotonic() + SETUP_PHASE_S
        while True:
            t_spawn, res = spawn("setup", False)
            setups.append(res["t_ready"] - t_spawn)
            if time.monotonic() >= end:
                break

    sample_setups()
    units = []
    start = time.monotonic()
    while True:
        t_spawn, res = spawn("unit", trace)
        setups.append(res["t_ready"] - t_spawn)
        units.append(res)
        print(f"# unit {len(units)}: wall_s={res['wall_s']:.3f} items={res['items']} "
              f"unsettled={res['unsettled']} errors={res['errors']} digest={res['digest']}")
        per_unit = (time.monotonic() - start) / len(units)
        if time.monotonic() - start + per_unit > seconds:
            break
    sample_setups()
    untraced = None
    if trace:
        untraced = spawn("unit", False)[1]
        print(f"# untraced unit: wall_s={untraced['wall_s']:.3f} digest={untraced['digest']}")
    return setups, units, untraced


def _gates(units: list[dict], untraced: dict | None) -> dict:
    every = units + ([untraced] if untraced else [])
    gates: dict = {}
    for res in every:
        for name, ok in res["gates"].items():
            gates[name] = gates.get(name, True) and ok
    # Bites only when a run has more than one unit: every --trace 1 run,
    # and --trace 0 runs whose units are short enough to repeat.
    gates["same_report_every_unit"] = len({res["digest"] for res in every}) == 1
    return gates


def _end_to_end(setups: list[float], units: list[dict]) -> dict:
    latencies = [x for res in units for x in res["latencies"]]
    attempted = sum(res["items"] for res in units)
    unsettled = sum(res["unsettled"] for res in units)
    print(f"# request latency samples={len(latencies)} setup samples={len(setups)} "
          f"failed_share={unsettled}/{attempted}")
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in units),
        "request_p50_s": statistics.median(latencies),
        "request_p90_s": _p90(latencies),
        "settled_share": 1 - unsettled / attempted,
        "cpu_s": statistics.median(r["cpu_s"] for r in units),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in units),
    }


def _per_layer(units: list[dict]) -> dict:
    out = {name: statistics.median(r["layers"][name] for r in units)
           for name in units[0]["layers"]}
    out["harness.worker_utilisation"] = statistics.median(
        r["worker_utilisation"] for r in units)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "treecert" / "__init__.py", ROOT / SHIPPED_CONFIG,
              ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a treecert checkout",
              file=sys.stderr)
        return 2

    kind, jobs = WORKLOADS[args.workload]
    print(f"# env python={platform.python_version()} nproc={NPROC} jobs={jobs} "
          f"loadavg={_loadavg()}")
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        setups, units, untraced = _measure(
            kind, jobs, args.seed, args.seconds, bool(args.trace), tmp)
    except ChildFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(f"# after loadavg={_loadavg()}")

    gates = _gates(units, untraced)
    print("# gates " + " ".join(f"{k}={v}" for k, v in sorted(gates.items())))
    metrics = _per_layer(units) if args.trace else _end_to_end(setups, units)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    unit_of = {m["name"]: m["unit"] for m in declared}
    if metrics.keys() != unit_of.keys():
        print(f"perfbench: metrics {sorted(metrics.keys() ^ unit_of.keys())} are "
              "measured or declared in BENCHMARK.json, not both", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(gates.values()),
        "attempted": sum(r["items"] for r in units),
        "failed": sum(r["errors"] for r in units),
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
