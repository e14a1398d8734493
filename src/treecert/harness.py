"""Graph family generators, the seeded experiment runner, and the
report's aggregate table.

The runner is the counterexample hunter: it sweeps families of graphs,
evaluates the selected certification conditions, cross-checks each
against the packing ground truth, and counts any CERTIFIED row whose
ground truth is REFUTED. Per-trial randomness is counter-based
(per-trial seed = spec seed xor trial index), so reports are byte-stable
at any parallelism width.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from contextlib import closing, nullcontext
from dataclasses import asdict, dataclass, field

from .certify import THEOREM_IDS, CertificateRequest, certify, param_error, rational
from .connectivity import GtWitness
from .errors import ToolError
from .graphs import MAX_VERTICES, Edge, Graph, build_graph, is_connected, is_int
from .packing import DEFAULT_BUDGET
from .packing import search_pkd_witness  # unused here: perfbench/spans.py wraps this name
from .quotient import check_interlacing, quotient_laplacian
from .spectra import spectral_profile

_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 63) - 1

INTERLACING_TOL = 1e-8
# Total trials over all families, checked before any trial task is built:
# about 50 times the shipped corpus's 2029.
MAX_TRIALS = 10**5
# (theorem, k, d, a, b) points the parameter rules are checked on: the
# product of the grid lengths, with d, a and b each also "not given".
# Checked before any point is built; the shipped corpus has 108.
MAX_GRID_POINTS = 10**5
# Certify calls of a run, trials x accepted requests: about 50 times the
# shipped corpus's 36 522.
MAX_CERTIFY_CALLS = 2 * 10**6


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0


def _block(i: int, q: int) -> range:
    return range(i * q, (i + 1) * q)


def _clique_edges(vs) -> list[Edge]:
    vs = list(vs)
    return [(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))]


def _need(params: dict, key: str) -> int:
    if key not in params:
        raise ToolError("SPEC_ERROR", f"missing parameter {key!r}")
    return params[key]


def _order(n: int) -> int:
    """n, once it is known not to exceed MAX_VERTICES; checked before any
    edge is built."""
    if n > MAX_VERTICES:
        raise ToolError("TOO_LARGE", f"n={n} exceeds the cap of {MAX_VERTICES}")
    return n


def _param_ok(key: str, value) -> bool:
    """The rule for a family parameter value: an int that is not a bool,
    or for gnp's p also a float."""
    return is_int(value) or (key == "p" and isinstance(value, float))


# The parameters each family takes; any other key is a SPEC_ERROR.
_FAMILY_KEYS = {
    "complete": {"n"}, "cycle": {"n"}, "path": {"n"}, "gnp": {"n", "p"},
    "random_regular": {"n", "r"}, "clique_chain": {"blocks", "q", "links"},
    "clique_star": {"pendants", "q", "links"}, "clique_gadget_lemma41": {"k"},
}


def generate(spec: FamilySpec) -> Graph:
    """Deterministic graph for (spec, seed)."""
    fam, p = spec.family, spec.params
    if fam not in _FAMILY_KEYS:
        raise ToolError("SPEC_ERROR", f"unknown family {fam!r}")
    extra = sorted(set(p) - _FAMILY_KEYS[fam])
    if extra:
        raise ToolError("SPEC_ERROR", f"{fam} does not take parameter {extra[0]!r}")
    for key, value in p.items():
        if not _param_ok(key, value):
            kind = "a number" if key == "p" else "an integer"
            raise ToolError("SPEC_ERROR", f"{fam} parameter {key!r} must be {kind}: {value!r}")
    if fam == "complete":
        n = _order(_need(p, "n"))
        if n < 1:
            raise ToolError("SPEC_ERROR", "complete needs n >= 1")
        return build_graph(n, _clique_edges(range(n)))
    if fam == "cycle":
        n = _order(_need(p, "n"))
        if n < 3:
            raise ToolError("SPEC_ERROR", "cycle needs n >= 3")
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if fam == "path":
        n = _order(_need(p, "n"))
        if n < 1:
            raise ToolError("SPEC_ERROR", "path needs n >= 1")
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if fam == "gnp":
        n = _order(_need(p, "n"))
        prob = _need(p, "p")
        if n < 1 or not (0 <= prob <= 1):
            raise ToolError("SPEC_ERROR", "gnp needs n >= 1 and p in [0, 1]")
        rng = random.Random(spec.seed)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < prob
        ]
        return build_graph(n, edges)
    if fam == "random_regular":
        return _random_regular(p, spec.seed)
    if fam == "clique_chain":
        c, q, l = _need(p, "blocks"), _need(p, "q"), p.get("links", 1)
        if c < 2 or q < 2 or not (1 <= l <= q):
            raise ToolError("SPEC_ERROR", "clique_chain needs blocks>=2, q>=2, 1<=links<=q")
        n = _order(c * q)
        edges = []
        for b in range(c):
            edges.extend(_clique_edges(_block(b, q)))
        for b in range(c - 1):
            for j in range(l):
                edges.append((b * q + j, (b + 1) * q + j))
        return build_graph(n, edges)
    if fam == "clique_star":
        pend, q, l = _need(p, "pendants"), _need(p, "q"), p.get("links", 1)
        if pend < 2 or q < 2 or not (1 <= l <= q):
            raise ToolError("SPEC_ERROR", "clique_star needs pendants>=2, q>=2, 1<=links<=q")
        n = _order((pend + 1) * q)
        edges = []
        for b in range(pend + 1):
            edges.extend(_clique_edges(_block(b, q)))
        for i in range(1, pend + 1):
            for j in range(l):
                edges.append((j, i * q + j))
        return build_graph(n, edges)
    return lemma41_gadget_fixture(_need(p, "k")).graph


def _random_regular(p: dict, seed: int) -> Graph:
    """r-regular graph: a circulant scrambled by degree-preserving edge
    swaps. Always succeeds, unlike stub pairing, which rejects too often
    at dense r. The graph is fixed by (n, r, seed), and it is drawn from
    getrandbits and random() alone: the tests pin it against a reference
    loop that calls randrange and by literal digests."""
    n, r = _order(_need(p, "n")), _need(p, "r")
    if n < 2 or r < 1 or r >= n or (n * r) % 2:
        raise ToolError("SPEC_ERROR", "random_regular needs 1 <= r < n with n*r even")
    edges = set()
    for v in range(n):
        for j in range(1, r // 2 + 1):
            w = (v + j) % n
            edges.add((v, w) if v < w else (w, v))
    if r % 2:  # n is even here since n*r is
        for v in range(n // 2):
            edges.add((v, v + n // 2))
    if r == n - 1:  # the circulant is K_n, where no swap can succeed
        return build_graph(n, edges)
    rng = random.Random(seed)
    getrandbits, rand = rng.getrandbits, rng.random
    edge_list = sorted(edges)
    m = len(edge_list)
    k = m.bit_length()
    for _ in range(30 * m):
        # Draw order i, j, then random() only when i != j: the stream, and
        # so the graph, must not change. Each index is drawn the way
        # randrange(m) draws it: k bits, again while the value is >= m.
        i = getrandbits(k)
        while i >= m:
            i = getrandbits(k)
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        if i == j:
            continue
        a, b = edge_list[i]
        c, d = edge_list[j]
        if rand() < 0.5:
            b, a = a, b
        if a == c or a == d or b == c or b == d:
            continue
        e1 = (a, c) if a < c else (c, a)
        e2 = (b, d) if b < d else (d, b)
        if e1 in edges or e2 in edges:
            continue
        edges.discard(edge_list[i])
        edges.discard(edge_list[j])
        edges.add(e1)
        edges.add(e2)
        edge_list[i], edge_list[j] = e1, e2
    return build_graph(n, edges)


@dataclass(frozen=True)
class Lemma41Fixture:
    """A gadget graph with its designated 3-component cut and a class
    witness, sized so the 4-component decomposition hypotheses hold."""

    graph: Graph
    cut: frozenset[Edge]
    witness: GtWitness
    k: int


def lemma41_gadget_fixture(k: int) -> Lemma41Fixture:
    """Five cliques of order 3k+4 (A, B, C, D, E): a triangle of links
    between A, B, C sized to hit the boundary bounds, plus pendant links
    C-D and A-E of exactly the connectivity k+1 to supply the witness."""
    if not is_int(k) or k < 2:
        raise ToolError("SPEC_ERROR", f"the gadget needs an integer k >= 2, got {k!r}")
    q = 3 * k + 4
    n = _order(5 * q)
    a_links = (k + 2) // 2
    c_links = (k + 1) - a_links
    A, B, C, D, E = (_block(i, q) for i in range(5))
    edges: list[Edge] = []
    for blk in (A, B, C, D, E):
        edges.extend(_clique_edges(blk))
    cut = []
    for j in range(a_links):
        cut.append((A[j], B[j]))
        cut.append((A[j], C[j]))
    for j in range(c_links):
        cut.append((B[j], C[j]))
    edges.extend(cut)
    for j in range(k + 1):
        edges.append((C[j], D[j]))
        edges.append((A[j], E[j]))
    graph = build_graph(n, edges)
    witness = GtWitness(
        t=2, subsets=(frozenset(B), frozenset(D), frozenset(E))
    )
    return Lemma41Fixture(graph=graph, cut=frozenset(cut), witness=witness, k=k)


# ---------------------------------------------------------------------------
# experiment runner


@dataclass
class ExperimentConfig:
    families: list  # entries: {"family", "params", "seed", "trials"}
    theorems: list
    k_grid: list
    d_grid: list = field(default_factory=list)
    a_grid: list = field(default_factory=list)
    b_grid: list = field(default_factory=list)
    packing_budget: int = DEFAULT_BUDGET

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ToolError("CONFIG_ERROR", "config must be a JSON object")
        bad = set(data) - set(cls.__dataclass_fields__)
        if bad:
            raise ToolError("CONFIG_ERROR", f"unknown config keys {sorted(bad)}")
        missing = [f for f in ("families", "theorems", "k_grid") if f not in data]
        if missing:
            raise ToolError("CONFIG_ERROR", f"missing config keys {missing}")
        return cls(**data)


def _validate_config(cfg: ExperimentConfig) -> list:
    """Check the config and return its requests: (report fields with the
    raw grid values, request) for every grid point that a selected
    condition's rule accepts. Each cap is checked before the work it
    bounds."""
    for name in ("families", "theorems", "k_grid", "d_grid", "a_grid", "b_grid"):
        if not isinstance(getattr(cfg, name), list):
            raise ToolError("CONFIG_ERROR", f"{name} must be a list")
    if not is_int(cfg.packing_budget):
        raise ToolError("CONFIG_ERROR", "packing_budget must be an integer")
    if not all(is_int(v) for v in cfg.k_grid + cfg.d_grid):
        raise ToolError("CONFIG_ERROR", "k_grid and d_grid entries must be integers")
    if not cfg.families:
        raise ToolError("CONFIG_ERROR", "no families configured")
    for entry in cfg.families:
        if not isinstance(entry, dict) or "family" not in entry:
            raise ToolError("CONFIG_ERROR", f"family entry without name: {entry}")
        if not (is_int(entry.get("trials", 1)) and is_int(entry.get("seed", 0))):
            raise ToolError("CONFIG_ERROR", f"trials and seed must be integers: {entry}")
        if entry.get("trials", 1) < 0:
            raise ToolError("CONFIG_ERROR", "trials must be >= 0")
        params = entry.get("params", {})
        if not isinstance(params, dict) or not all(_param_ok(*item) for item in params.items()):
            raise ToolError(
                "CONFIG_ERROR", f"family params must be integers (gnp's p a number): {entry}"
            )
    total = sum(entry.get("trials", 1) for entry in cfg.families)
    if total > MAX_TRIALS:
        raise ToolError("CONFIG_ERROR", f"{total} trials exceed the cap of {MAX_TRIALS}")
    for tid in cfg.theorems:
        if tid not in THEOREM_IDS:
            raise ToolError("CONFIG_ERROR", f"unknown theorem id {tid!r}")
    points = len(cfg.theorems) * len(cfg.k_grid)
    for grid in (cfg.d_grid, cfg.a_grid, cfg.b_grid):
        points *= len(grid) + 1
    if points > MAX_GRID_POINTS:
        raise ToolError(
            "CONFIG_ERROR", f"{points} grid points exceed the cap of {MAX_GRID_POINTS}"
        )
    a_vals, b_vals = _exact(cfg.a_grid), _exact(cfg.b_grid)
    requests = []
    for tid in cfg.theorems:
        accepted = [  # None stands for a parameter the condition does not take
            ({"theorem_id": tid, "k": k, "d": d, "a": a, "b": b},
             CertificateRequest(theorem_id=tid, k=k, d=d, a=qa, b=qb))
            for k in cfg.k_grid
            for d in [None, *cfg.d_grid]
            for a, qa in a_vals
            for b, qb in b_vals
            if param_error(tid, k, d, qa, qb) is None
        ]
        if not accepted:
            raise ToolError("CONFIG_ERROR", f"{tid} selected but no grid point meets its rules")
        requests.extend(accepted)
    calls = total * len(requests)
    if calls > MAX_CERTIFY_CALLS:
        raise ToolError(
            "CONFIG_ERROR",
            f"{total} trials x {len(requests)} requests exceed the cap of "
            f"{MAX_CERTIFY_CALLS} certify calls",
        )
    if cfg.packing_budget < 1:
        raise ToolError("CONFIG_ERROR", "packing_budget must be >= 1")
    return requests


def _exact(values: list) -> list:
    """(raw value, exact Fraction) for None ("not given") and each grid
    value, read by the rule of `CertificateRequest`."""
    return [(None, None)] + [(v, rational(v, "grid value", "CONFIG_ERROR")) for v in values]


def _trial_graph(entry: dict, trial_seed: int):
    """Generate the trial's graph; gnp resamples toward connectivity."""
    fam = entry["family"]
    params = entry.get("params", {})
    if fam == "gnp":
        for attempt in range(100):
            seed = (trial_seed * _MIX + attempt) & _MASK
            g = generate(FamilySpec(family=fam, params=params, seed=seed))
            if is_connected(g):
                return g, seed
        return None, trial_seed
    g = generate(FamilySpec(family=fam, params=params, seed=trial_seed))
    return g, trial_seed


def _random_partition(n: int, rng: random.Random) -> list[list[int]]:
    p = rng.randint(2, min(n, 4))
    for _ in range(50):
        assign = [rng.randrange(p) for _ in range(n)]
        blocks = [[v for v in range(n) if assign[v] == b] for b in range(p)]
        if all(blocks):
            return blocks
    return [[0], list(range(1, n))]


def _run_trial(args) -> dict:
    requests, budget, entry, index, local_index = args
    trial_seed = (entry.get("seed", 0) ^ local_index) & _MASK
    row: dict = {
        "trial": index,
        "family": entry["family"],
        "params": entry.get("params", {}),
        "seed": trial_seed,
    }
    try:
        g, used_seed = _trial_graph(entry, trial_seed)
    except ToolError as err:
        row["error"] = err.code
        return row
    if g is None:
        row["status"] = "SKIPPED"
        return row
    row["seed"] = used_seed
    row["graph"] = {
        "n": g.n,
        "m": g.m,
        "min_degree": g.min_degree,
        "max_degree": g.max_degree,
    }
    if g.n < 2:
        row["error"] = "TOO_SMALL"
        return row
    if not is_connected(g):
        row["status"] = "SKIPPED"
        return row

    certs = []
    for fields, req in requests:
        digest = dict(fields)
        try:
            rep = certify(g, req, budget=budget)
            digest["outcome"] = rep.outcome
            digest["measured"] = rep.measured
            digest["threshold_decimal"] = (
                None if rep.threshold is None else float(rep.threshold)
            )
            digest["cross_status"] = rep.cross_check.status
            digest["consistent"] = rep.cross_check.consistent
        except ToolError as err:
            digest["error"] = err.code
        certs.append(digest)
    row["certificates"] = certs

    rng = random.Random((trial_seed * _MIX + 0xA5A5) & _MASK)
    blocks = _random_partition(g.n, rng)
    quotient_eigs = quotient_laplacian(g, blocks).eigenvalues()
    lap_eigs = spectral_profile(g, 1, -1).eigenvalues
    if len(quotient_eigs) < len(lap_eigs):
        row["interlacing_pass"] = (
            check_interlacing(lap_eigs, quotient_eigs, INTERLACING_TOL) is None
        )
    else:
        row["interlacing_pass"] = True  # singleton-blocks partition: same spectrum
    return row


_AGG_COLS = (
    "evaluated", "hypothesis_failed", "condition_fails", "certified",
    "cross_found", "cross_refuted", "cross_inconclusive", "counterexamples",
)


def aggregates_csv(summary: dict) -> str:
    """The per-theorem table of a report's summary line, with a TOTAL row."""
    per = summary["per_theorem"]
    out = [",".join(("theorem_id",) + _AGG_COLS)]
    for tid in sorted(per):
        out.append(",".join([tid] + [str(per[tid][c]) for c in _AGG_COLS]))
    totals = [sum(row[c] for row in per.values()) for c in _AGG_COLS]
    out.append(",".join(["TOTAL"] + [str(t) for t in totals]))
    return "\n".join(out) + "\n"


def run_experiment(cfg: ExperimentConfig, jobs: int = 1):
    """Check the config, then return the report's JSON lines as an iterator:
    each trial's row in trial order, then {"type": "summary", ...}. Trials
    run as the lines are taken, and closing the iterator stops the pending
    ones. The lines do not depend on `jobs`."""
    requests = _validate_config(cfg)
    if jobs < 1:
        raise ToolError("CONFIG_ERROR", f"jobs must be >= 1, got {jobs}")
    total = sum(entry.get("trials", 1) for entry in cfg.families)
    # made as they are taken, so a serial run's memory does not grow with its trials
    trials = ((entry, local) for entry in cfg.families for local in range(entry.get("trials", 1)))
    tasks = (
        (requests, cfg.packing_budget, entry, index, local)
        for index, (entry, local) in enumerate(trials)
    )
    return _report_lines(cfg, tasks, min(jobs, total, os.cpu_count() or 1))


def _process_pool(width: int):
    """A pool of `width` worker processes. The import is here because it
    costs a serial run (and `certify`, which imports this module) a
    noticeable share of interpreter start-up."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=width)


def _report_lines(cfg: ExperimentConfig, tasks, width: int):
    """Each trial's row in trial order, then the summary folded from them."""
    per: dict = {}
    trials = skipped = errors = counterexamples = inter_pass = inter_total = 0
    with _process_pool(width) if width > 1 else nullcontext() as pool:
        rows = pool.map(_run_trial, tasks, chunksize=32) if pool else (_run_trial(t) for t in tasks)
        with closing(rows):  # closing the report cancels the trials not yet started
            for row in rows:
                yield row
                trials += 1
                if row.get("status") == "SKIPPED":
                    skipped += 1
                    continue
                if "error" in row:
                    errors += 1
                    continue
                if "interlacing_pass" in row:
                    inter_total += 1
                    inter_pass += bool(row["interlacing_pass"])
                for cert in row.get("certificates", ()):
                    tid = cert["theorem_id"]
                    agg = per.setdefault(tid, dict.fromkeys(_AGG_COLS + ("errors",), 0))
                    if "error" in cert:
                        agg["errors"] += 1
                        continue
                    agg["evaluated"] += 1
                    agg[cert["outcome"].lower()] += 1
                    agg["cross_" + cert["cross_status"].lower()] += 1
                    if not cert["consistent"]:
                        agg["counterexamples"] += 1
                        counterexamples += 1
    config_digest = hashlib.sha256(json.dumps(asdict(cfg), sort_keys=True).encode()).hexdigest()
    yield {
        "type": "summary",
        "trials": trials,
        "skipped": skipped,
        "errors": errors,
        "interlacing": {"pass": inter_pass, "total": inter_total},
        "counterexamples": counterexamples,
        "per_theorem": per,
        "config_digest": config_digest,
    }
