"""Command-line surface.

Every subcommand reads a graph from --input (edge-list "n m" header format
or graph6, auto-detected) and prints JSON. Exit codes: 0 on success, 2 on
parse/precondition/parameter errors, 3 when a requested decision came back
INCONCLUSIVE.

`verify-pkd` settles P(k, d) by a seeded matroid-union decision: the union
rank refutes, the complement of the seeded trees finds a witness, and only
the left-over case tries the connected (d+1)-vertex sets the extra forest
can span, exponential only in min(d, n-d) and at most `--budget` of them,
the one source of INCONCLUSIVE.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import closing
from pathlib import Path

from .certify import CertificateRequest, certify, rational
from .connectivity import gt_membership
from .errors import ToolError
from .graphs import Graph, parse_graph
from .harness import ExperimentConfig, aggregates_csv, run_experiment
from .packing import (
    DEFAULT_BUDGET,
    nu_f_exact,
    pack_spanning_trees,
    search_pkd_witness,
    tau_packing,
    verify_pkd_witness,
)
from .spectra import spectral_profile


def _load_graph(path: str) -> Graph:
    return parse_graph(Path(path).read_text())


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _edge_array(edges) -> list[list[int]]:
    return [[u, v] for u, v in sorted(edges)]


def _cmd_spectrum(args) -> int:
    g = _load_graph(args.input)
    a = rational(args.a, "a")
    b = rational(args.b, "b")
    profile = spectral_profile(g, a, b)
    _emit({"a": float(a), "b": float(b), "eigenvalues": list(profile.eigenvalues)})
    return 0


def _cmd_nu_f(args) -> int:
    g = _load_graph(args.input)
    res = nu_f_exact(g)
    _emit(
        {
            "value": f"{res.value.numerator}/{res.value.denominator}",
            "numerator": res.value.numerator,
            "denominator": res.value.denominator,
            "decimal": float(res.value),
            "p": res.p,
            "partition": [sorted(b) for b in res.partition],
        }
    )
    return 0


def _cmd_tau(args) -> int:
    g = _load_graph(args.input)
    tau = tau_packing(g)
    out: dict = {"tau": tau}
    if args.extract is not None:
        if args.extract < 1:
            raise ToolError("PARAMETER_ERROR", "--extract must be >= 1")
        trees = pack_spanning_trees(g, args.extract)
        out["extract"] = args.extract
        out["feasible"] = trees is not None
        out["trees"] = None if trees is None else [_edge_array(t) for t in trees]
    _emit(out)
    return 0


def _cmd_gt(args) -> int:
    g = _load_graph(args.input)
    witness = gt_membership(g, args.t)
    if witness is None:
        _emit({"status": "NOT_MEMBER", "member": False, "t": args.t, "subsets": None})
    else:
        _emit(
            {
                "status": "MEMBER",
                "member": True,
                "t": args.t,
                "subsets": [sorted(s) for s in witness.subsets],
            }
        )
    return 0


def _cmd_verify_pkd(args) -> int:
    g = _load_graph(args.input)
    res = search_pkd_witness(g, args.k, args.d, budget=args.budget)
    out: dict = {"status": res.status, "k": args.k, "d": args.d, "nodes": res.nodes}
    if res.witness is not None:
        w = res.witness
        bad = verify_pkd_witness(g, w)
        out["witness"] = {
            "k": w.k,
            "d": w.d,
            "trees": [_edge_array(t) for t in w.trees],
            "forest": _edge_array(w.forest),
            "conditions": {
                "a": not any(v.startswith("TREE") for v in bad),
                "b": "CONDITION_B" not in bad,
                "c": "CONDITION_C" not in bad,
            },
        }
    _emit(out)
    return 3 if res.status == "INCONCLUSIVE" else 0


def _cmd_certify(args) -> int:
    g = _load_graph(args.input)
    req = CertificateRequest(theorem_id=args.theorem, k=args.k, d=args.d, a=args.a, b=args.b)
    report = certify(g, req)
    _emit(report.to_json_dict())
    return 0


def _write_lines(lines, stream) -> dict:
    """Write each report line as it comes; return the last, the summary."""
    with closing(lines):
        for line in lines:
            stream.write(json.dumps(line, sort_keys=True) + "\n")
    return line


def _cmd_experiment(args) -> int:
    try:
        data = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as err:
        raise ToolError("CONFIG_ERROR", f"bad config JSON: {err}")
    lines = run_experiment(ExperimentConfig.from_dict(data), jobs=args.jobs)
    if not args.out:
        _write_lines(lines, sys.stdout)
        return 0
    out, csv, tmp = Path(args.out), Path(args.out + ".csv"), Path(args.out + ".tmp")
    created = []
    try:  # refuse an unwritable report path before any trial, truncating nothing
        for path in (out, csv):
            try:
                path.open("x").close()
                created.append(path)
            except FileExistsError:
                path.open("a").close()
        with tmp.open("x") as stream:  # the rows go here until the run is done
            created.append(tmp)
            summary = _write_lines(lines, stream)
        csv.write_text(aggregates_csv(summary))
        tmp.replace(out)
    except BaseException:  # a failed run leaves no file it made
        for path in created:
            path.unlink(missing_ok=True)
        raise
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecert",
        description="Spectral certificates for spanning-tree packing plus a "
        "constrained extra forest, with exact combinatorial cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues of a*D + b*A")
    p.add_argument("--input", required=True)
    p.add_argument("--a", default="1", help="rational, default 1 (Laplacian)")
    p.add_argument("--b", default="-1", help="rational, default -1 (Laplacian)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("nu-f", help="exact fractional packing number")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_nu_f)

    p = sub.add_parser("tau", help="spanning-tree packing number")
    p.add_argument("--input", required=True)
    p.add_argument("--extract", type=int, default=None, metavar="K")
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("gt", help="disjoint minimum-cut side class membership")
    p.add_argument("--input", required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_gt)

    p = sub.add_parser("verify-pkd", help="search/decide the packing property")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help=f"most connected (d+1)-vertex sets to try (>= 1, default {DEFAULT_BUDGET})",
    )
    p.set_defaults(func=_cmd_verify_pkd)

    p = sub.add_parser("certify", help="evaluate one sufficient condition")
    p.add_argument("--input", required=True)
    p.add_argument("--theorem", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--a", default=None)
    p.add_argument("--b", default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("experiment", help="run a seeded experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolError as err:
        print(f"error {err.code}: {err.message}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error IO: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
