"""Steadiness check of the end-to-end metrics: two sets of ten seeds.

    python3 perfbench/steady.py [--first-seed 1] [--out results.json]

Runs `run.py` once per (seed, workload) for seeds first .. first+9, then
again for seeds first+10 .. first+19, interleaving every workload of
BENCHMARK.json within each set so a slow spell of a shared host spreads
over all of them instead of one. For each set and metric it prints the
median and the spread (q3 - q1) / median from
`statistics.quantiles(values, n=4)`; between the sets it prints the drift,
the share by which the second median is worse than the first. Exits 1 if
a run is incorrect or any spread or drift, setup_s included, passes its
bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def _run_set(spec: dict, seeds: range) -> dict | None:
    """{workload: {metric: [value per seed]}}, or None if a run is incorrect."""
    values: dict = {w["name"]: {} for w in spec["workloads"]}
    for seed in seeds:
        for w in values:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(out.stdout, file=sys.stderr)
                return None
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"seed {seed} {w}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    return values


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    first = args.first_seed
    sets = []
    for seeds in (range(first, first + SEEDS), range(first + SEEDS, first + 2 * SEEDS)):
        values = _run_set(spec, seeds)
        if values is None:
            return 1
        sets.append(values)
    if args.out:
        Path(args.out).write_text(json.dumps(sets, indent=1))

    worst = 0.0
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        for w in sets[0]:
            medians = []
            for i, values in enumerate(sets, 1):
                q1, med, q3 = statistics.quantiles(values[w][name], n=4)
                spread = (q3 - q1) / med
                worst = max(worst, spread / bound)
                medians.append(med)
                print(f"set {i} {w:14s} {name:15s} median={med:.5g} spread={spread:.4f} "
                      f"bound={bound} spread/bound={spread / bound:.2f}")
            change = (medians[1] - medians[0]) / medians[0]
            drift = change if m["better"] == "lower" else -change
            worst = max(worst, drift / bound)
            print(f"drift {w:14s} {name:15s} worse_by={drift:+.4f} "
                  f"drift/bound={drift / bound:+.2f}")
    print(f"largest spread or drift over its bound: {worst:.2f} (aim: below 0.33)")
    return 0 if worst <= 1 else 1


if __name__ == "__main__":
    sys.exit(main())
