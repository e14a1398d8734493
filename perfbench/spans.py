"""Layer spans recorded from outside the program.

`Tracer.install` replaces the module-level names through which one
treecert layer calls another with timing wrappers. Each span keeps a
parent stack, so a span's self time excludes the spans it caused. Worker
processes forked by the experiment pool inherit the wrappers; each writes
its spans to a file when it exits, to be folded in with `Tracer.merge`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

# (module, attribute, span name). The span name is "<layer>.<operation>".
TARGETS = (
    ("treecert.harness", "generate", "harness.generate"),
    ("treecert.harness", "certify", "certify.certify"),
    ("treecert.harness", "search_pkd_witness", "packing.search"),
    ("treecert.harness", "quotient_laplacian", "quotient.laplacian"),
    ("treecert.harness", "spectral_profile", "spectra.profile"),
    ("treecert.harness", "is_connected", "graphs.is_connected"),
    ("treecert.certify", "certify", "certify.certify"),
    ("treecert.certify", "spectral_profile", "spectra.profile"),
    ("treecert.certify", "gt_membership", "connectivity.membership"),
    ("treecert.certify", "nu_f_exact", "packing.nu_f"),
    ("treecert.certify", "search_pkd_witness", "packing.search"),
    ("treecert.certify", "is_connected", "graphs.is_connected"),
    ("treecert.spectra", "sym_eigenvalues", "spectra.eigensolve"),
    ("treecert.quotient", "sym_eigenvalues", "quotient.eigensolve"),
    ("treecert.connectivity", "min_cut_sides", "connectivity.min_cut_sides"),
    ("treecert.packing", "pack_spanning_trees", "packing.pack_trees"),
    ("treecert.packing", "tau_packing", "packing.tau"),
)


def forward_from_workers(owner, dump_dir: Path, prefix: str, reset, payload) -> None:
    """In every pool worker forked after this call, run `reset` at start
    and write `payload()` to `dump_dir/<prefix>-<pid>.json` at exit."""

    def start(_owner) -> None:
        reset()
        path = dump_dir / f"{prefix}-{os.getpid()}.json"
        mp_util.Finalize(owner, lambda: path.write_text(json.dumps(payload())), exitpriority=10)

    mp_util.register_after_fork(owner, start)


def read_worker_files(dump_dir: Path, prefix: str) -> list:
    """Payloads the exited workers wrote, removing their files."""
    out = []
    for path in sorted(dump_dir.glob(f"{prefix}-*.json")):
        out.append(json.loads(path.read_text()))
        path.unlink()
    return out


class MissingTarget(RuntimeError):
    """A wrapped name no longer exists, so its span would silently vanish."""


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.top_s = 0.0  # time inside spans that have no parent span
        self._stack: list[float] = []  # child time accumulated per open span

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def wrap(self, name: str, fn):
        stack = self._stack
        self.spans.setdefault(name, [0, 0.0, 0.0])
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if observe is not None:
                    observe(self, None, err)
                raise
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                rec = self.spans[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    self.top_s += dt
            if observe is not None:
                observe(self, result, None)
            return result

        return traced

    def install(self, dump_dir: Path) -> None:
        """Wrap every target; raise MissingTarget if one is gone."""
        for mod_name, attr, span in TARGETS:
            mod = importlib.import_module(mod_name)
            if not callable(getattr(mod, attr, None)):
                raise MissingTarget(f"{mod_name}.{attr} is missing; span {span} would be lost")
            setattr(mod, attr, self.wrap(span, getattr(mod, attr)))
        forward_from_workers(self, dump_dir, "spans", self._reset, self._payload)

    def _reset(self) -> None:
        for rec in self.spans.values():
            rec[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self._stack.clear()
        self.top_s = 0.0

    def _payload(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "top_s": self.top_s}

    def merge(self, data: dict) -> None:
        for name, (calls, total, own) in data["spans"].items():
            rec = self.spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        for key, value in data["counts"].items():
            self.count(key, value)
        self.top_s += data["top_s"]

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def own(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]


def _observe_search(tracer: Tracer, result, err) -> None:
    if err is not None:
        tracer.count("search.errors")
        return
    tracer.count("search.nodes", result.nodes)
    tracer.count("search.fast_path", result.nodes == 0)
    tracer.count("search." + result.status.lower())


def _observe_certify(tracer: Tracer, result, err) -> None:
    tracer.count("certify.errors" if err is not None else "certify." + result.outcome.lower())


_OBSERVERS = {"packing.search": _observe_search, "certify.certify": _observe_certify}


def wrapper_cost_s() -> float:
    """Time one span wrapper adds to a call: a no-op wrapped by a throwaway
    Tracer timed against the bare no-op, median of five rounds."""

    def noop() -> None:
        pass

    wrapped = Tracer().wrap("calibrate", noop)
    calls, costs = 20000, []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        costs.append((t2 - t1 - (t1 - t0)) / calls)
    return statistics.median(costs)


def layer_metrics(tr: Tracer, capacity_s: float, per_call_s: float) -> dict[str, float]:
    """Per-layer figures from one traced unit. `capacity_s` is jobs x the
    unit's wall time: the process time the run had available. `per_call_s`
    is `wrapper_cost_s()`; times every wrapped call, it estimates the
    process time the tracing itself added, summed over processes. (A
    traced-minus-untraced wall time would be mostly host noise.)"""
    c = tr.counts.get
    profiles = tr.calls("spectra.profile")
    solves = tr.calls("spectra.eigensolve")
    outcomes = sum(
        c("certify." + o, 0)
        for o in ("certified", "hypothesis_failed", "condition_fails", "marginal")
    )
    reached = outcomes - c("certify.hypothesis_failed", 0)
    return {
        "packing.search_s": tr.total("packing.search"),
        "packing.search_nodes": c("search.nodes", 0),
        "packing.search_calls": tr.calls("packing.search"),
        "packing.search_fast_path": c("search.fast_path", 0),
        "packing.search_found": c("search.found", 0),
        "packing.search_refuted": c("search.refuted", 0),
        "packing.search_inconclusive": c("search.inconclusive", 0),
        "spectra.profile_calls": profiles,
        "spectra.eigensolve_calls": solves,
        "spectra.eigensolve_s": tr.total("spectra.eigensolve"),
        "spectra.profile_hit_ratio": 1 - solves / profiles if profiles else 0.0,
        "connectivity.membership_calls": tr.calls("connectivity.membership"),
        "connectivity.membership_s": tr.total("connectivity.membership"),
        "connectivity.min_cut_sides_s": tr.total("connectivity.min_cut_sides"),
        "packing.nu_f_calls": tr.calls("packing.nu_f"),
        "packing.nu_f_s": tr.total("packing.nu_f"),
        "packing.pack_trees_calls": tr.calls("packing.pack_trees"),
        "packing.pack_trees_s": tr.total("packing.pack_trees"),
        "packing.tau_s": tr.total("packing.tau"),
        "quotient.s": tr.total("quotient.laplacian") + tr.total("quotient.eigensolve"),
        "certify.self_s": tr.own("certify.certify"),
        "certify.calls": tr.calls("certify.certify"),
        "certify.certified": c("certify.certified", 0),
        "certify.hypothesis_failed": c("certify.hypothesis_failed", 0),
        "certify.condition_fails": c("certify.condition_fails", 0),
        "certify.marginal": c("certify.marginal", 0),
        "certify.errors": c("certify.errors", 0),
        "certify.spectrum_reached_share": reached / outcomes if outcomes else 0.0,
        "harness.self_s": capacity_s - tr.top_s,
        "harness.generate_s": tr.total("harness.generate"),
        "graphs.is_connected_s": tr.total("graphs.is_connected"),
        "trace.coverage": tr.top_s / capacity_s,
        "trace.overhead_s": per_call_s * sum(rec[0] for rec in tr.spans.values()),
    }
