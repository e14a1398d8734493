"""Evaluation of every sufficient spectral condition for the packing
property, with exact-rational thresholds and optional ground-truth
cross-verification.

Each condition is a row in a registry: which eigenvalue (or the exact
fractional packing number) is measured, the exact threshold built from
k, the degree bounds, and the matrix parameters, and which hypotheses
(minimum degree, class membership, parameter constraints) must hold
first. The side of the spectrum fixes the inequality direction: a
smallest-side eigenvalue must exceed its threshold, a largest-side one
must stay below it.

Decision semantics: every condition is a strict inequality against an
exact rational threshold and is decided exactly; eigenvalues are counted
by Sylvester's law of inertia (`spectra.eigenvalue_clears`), so one equal
to its threshold fails. The float eigenvalue is reported as `measured` and
picks the rational point, strictly between it and the threshold, at which
the exact count runs; it never decides a verdict.

The lemma checkers (the small-cut order bound and the Lemma 2.4/2.5 cut
lower bound) are decided by edge connectivity, with no size cap; the
subset scans they replaced are test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .connectivity import edge_connectivity, gt_membership
from .errors import ToolError
from .graphs import Graph, is_connected
from .packing import (
    DEFAULT_BUDGET,
    PkdSearchResult,
    nu_f_exact,
    search_pkd_witness,
)
from .spectra import eigenvalue_clears, spectral_profile

CROSS_DEFAULT_ON_MAX_N = 10
CROSS_VERIFY_CAP = 12

Q = Fraction


def _base(k: int, delta: int) -> Fraction:
    return k + Q(delta - 1, delta)


@dataclass(frozen=True)
class _Rule:
    k_min: int
    min_delta: Callable[[int], int]
    gt_class: int  # 0 none, 1 or 2
    b_sign: int  # 0: no b parameter; +1 / -1: required sign
    a_min: Fraction | None  # None: no a parameter
    matrix: Callable  # (a, b) -> (a_used, b_used)
    side: str  # "largest" | "smallest"
    index: int
    threshold: Callable  # (k, delta, Delta, a, b) -> Fraction

    def param_error(self, k: int, a: Fraction | None, b: Fraction | None) -> str | None:
        """Why (k, a, b) lies outside this condition's parameter range, or
        None when the condition accepts it."""
        if k < self.k_min:
            return f"needs k >= {self.k_min}, got {k}"
        if (a is None) != (self.a_min is None):
            return "requires parameter a" if a is None else "does not take parameter a"
        if a is not None and a < self.a_min:
            return f"needs a >= {self.a_min}, got a = {a}"
        if (b is None) != (self.b_sign == 0):
            return "requires parameter b" if b is None else "does not take parameter b"
        if b is None:
            return None
        if b == 0:
            return "needs b nonzero"
        if (b > 0) != (self.b_sign > 0):
            return f"needs b {'>' if self.b_sign > 0 else '<'} 0, got {b}"
        if self.a_min == -1 and a / b < -1:
            return f"needs a/b >= -1, got {a}/{b}"
        return None


def _fixed(a: int, b: int) -> Callable:
    return lambda _a, _b: (Q(a), Q(b))


_REGISTRY: dict[str, _Rule] = {
    "thm1.2": _Rule(
        2, lambda k: 2 * k + 2, 1, 0, None, _fixed(1, -1), "smallest", 3,
        lambda k, d, D, a, b: 16 * _base(k, d) / (3 * (d + 1)),
    ),
    "thm1.3": _Rule(
        2, lambda k: 3 * k + 3, 2, 0, None, _fixed(1, -1), "smallest", 4,
        lambda k, d, D, a, b: 9 * _base(k, d) / (d + 1),
    ),
    "thm5.1": _Rule(
        1, lambda k: 2 * k + 2, 0, 0, None, _fixed(0, 1), "largest", 2,
        lambda k, d, D, a, b: d - 2 * _base(k, d) / (d + 1),
    ),
    "cor3.1i": _Rule(
        2, lambda k: 2 * k + 2, 1, 0, Q(-1), lambda a, b: (a, Q(1)),
        "largest", 3,
        lambda k, d, D, a, b: (a + 1) * d - 16 * _base(k, d) / (3 * (d + 1)),
    ),
    "cor3.1ii": _Rule(
        2, lambda k: 2 * k + 2, 1, +1, Q(-1), lambda a, b: (a, b),
        "largest", 3,
        lambda k, d, D, a, b: (a + b) * d - 16 * b * _base(k, d) / (3 * (d + 1)),
    ),
    "cor3.1iii": _Rule(
        2, lambda k: 2 * k + 2, 1, -1, Q(-1), lambda a, b: (a, b),
        "smallest", 3,
        lambda k, d, D, a, b: (a + b) * d - 16 * b * _base(k, d) / (3 * (d + 1)),
    ),
    "cor3.2i": _Rule(
        2, lambda k: 2 * k + 2, 1, 0, None, _fixed(0, 1), "largest", 3,
        lambda k, d, D, a, b: d - 16 * _base(k, d) / (3 * (d + 1)),
    ),
    "cor3.2ii": _Rule(
        2, lambda k: 2 * k + 2, 1, 0, None, _fixed(1, 1), "largest", 3,
        lambda k, d, D, a, b: 2 * d - 16 * _base(k, d) / (3 * (d + 1)),
    ),
    "cor4.2i": _Rule(
        2, lambda k: 3 * k + 3, 2, 0, Q(-1), lambda a, b: (a, Q(1)),
        "largest", 4,
        lambda k, d, D, a, b: (a + 1) * d - 9 * _base(k, d) / (d + 1),
    ),
    "cor4.2ii": _Rule(
        2, lambda k: 3 * k + 3, 2, +1, Q(-1), lambda a, b: (a, b),
        "largest", 4,
        lambda k, d, D, a, b: (a + b) * d - 9 * b * _base(k, d) / (d + 1),
    ),
    "cor4.2iii": _Rule(
        2, lambda k: 3 * k + 3, 2, -1, Q(-1), lambda a, b: (a, b),
        "smallest", 4,
        lambda k, d, D, a, b: (a + b) * d - 9 * b * _base(k, d) / (d + 1),
    ),
    "cor4.3i": _Rule(
        2, lambda k: 3 * k + 3, 2, 0, None, _fixed(0, 1), "largest", 4,
        lambda k, d, D, a, b: d - 9 * _base(k, d) / (d + 1),
    ),
    "cor4.3ii": _Rule(
        2, lambda k: 3 * k + 3, 2, 0, None, _fixed(1, 1), "largest", 4,
        lambda k, d, D, a, b: 2 * d - 9 * _base(k, d) / (d + 1),
    ),
    "cor5.2i": _Rule(
        1, lambda k: 2 * k + 2, 0, 0, Q(0), lambda a, b: (a, Q(1)),
        "largest", 2,
        lambda k, d, D, a, b: (a + 1) * d - 2 * _base(k, d) / (d + 1),
    ),
    "cor5.2ii": _Rule(
        1, lambda k: 2 * k + 2, 0, +1, Q(0), lambda a, b: (a, b),
        "largest", 2,
        lambda k, d, D, a, b: (a + b) * d - 2 * b * _base(k, d) / (d + 1),
    ),
    "cor5.2iii": _Rule(
        1, lambda k: 2 * k + 2, 0, -1, Q(0), lambda a, b: (a, b),
        "smallest", 2,
        lambda k, d, D, a, b: a * D + b * d - 2 * b * _base(k, d) / (d + 1),
    ),
    "cor5.3i": _Rule(
        1, lambda k: 2 * k + 2, 0, 0, None, _fixed(1, 1), "largest", 2,
        lambda k, d, D, a, b: 2 * d - 2 * _base(k, d) / (d + 1),
    ),
    "cor5.3ii": _Rule(
        1, lambda k: 2 * k + 2, 0, 0, None, _fixed(1, -1), "smallest", 2,
        lambda k, d, D, a, b: D - d + 2 * _base(k, d) / (d + 1),
    ),
}

THEOREM_IDS = ("thm1.1",) + tuple(_REGISTRY)


@dataclass(frozen=True)
class CertificateRequest:
    theorem_id: str
    k: int
    d: int | None = None  # free parameter for thm1.1 only; elsewhere d = delta
    a: object = None  # int | float | str | Fraction
    b: object = None
    cross_verify: bool | None = None  # None: on for n <= 10


@dataclass(frozen=True)
class CrossCheck:
    status: str  # FOUND | REFUTED | INCONCLUSIVE
    consistent: bool


@dataclass(frozen=True)
class CertificateReport:
    theorem_id: str
    k: int
    d: int
    a: Fraction | None
    b: Fraction | None
    hypothesis_checks: dict = field(default_factory=dict)
    measured: float | None = None
    threshold: Fraction | None = None
    outcome: str = "HYPOTHESIS_FAILED"
    conclusion: str | None = None
    cross_check: CrossCheck | None = None

    def to_json_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "k": self.k,
            "d": self.d,
            "a": None if self.a is None else float(self.a),
            "b": None if self.b is None else float(self.b),
            "hypothesis_checks": dict(self.hypothesis_checks),
            "measured": self.measured,
            "threshold_num": None if self.threshold is None else self.threshold.numerator,
            "threshold_den": None if self.threshold is None else self.threshold.denominator,
            "threshold_decimal": None if self.threshold is None else float(self.threshold),
            "outcome": self.outcome,
            "conclusion": self.conclusion,
            "cross_check": None
            if self.cross_check is None
            else {"status": self.cross_check.status, "consistent": self.cross_check.consistent},
        }


def _to_fraction(value, name: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise ToolError("PARAMETER_ERROR", f"{name} is not a rational number: {value!r}")


def _validate_params(rule: _Rule, req: CertificateRequest) -> tuple[Fraction | None, Fraction | None]:
    if req.d is not None:
        raise ToolError("PARAMETER_ERROR", f"{req.theorem_id} fixes d to the minimum degree")
    a = None if req.a is None else _to_fraction(req.a, "a")
    b = None if req.b is None else _to_fraction(req.b, "b")
    problem = rule.param_error(req.k, a, b)
    if problem is not None:
        raise ToolError("PARAMETER_ERROR", f"{req.theorem_id} {problem}")
    return a, b


def cross_verify_on(n: int, requested: bool | None = None) -> bool:
    """Whether a graph of order n gets the ground-truth cross-check: by
    default up to CROSS_DEFAULT_ON_MAX_N vertices; an explicit request
    above CROSS_VERIFY_CAP is an error, not a silent skip."""
    if requested is None:
        return n <= CROSS_DEFAULT_ON_MAX_N
    if requested and n > CROSS_VERIFY_CAP:
        raise ToolError("TOO_LARGE", f"cross-verification is capped at n={CROSS_VERIFY_CAP}")
    return requested


def _cross_check(
    g: Graph,
    req: CertificateRequest,
    outcome: str,
    d_used: int,
    budget: int,
    precomputed: PkdSearchResult | None,
) -> CrossCheck | None:
    if not cross_verify_on(g.n, req.cross_verify):
        return None
    res = precomputed
    if res is None:
        res = search_pkd_witness(g, req.k, d_used, budget=budget)
    consistent = not (outcome == "CERTIFIED" and res.status == "REFUTED")
    return CrossCheck(status=res.status, consistent=consistent)


def certify(
    g: Graph,
    req: CertificateRequest,
    budget: int = DEFAULT_BUDGET,
    cross_result: PkdSearchResult | None = None,
) -> CertificateReport:
    """Evaluate one sufficient condition on a connected graph.

    Returns a report with the hypothesis checks, the measured quantity,
    the exact threshold and one of HYPOTHESIS_FAILED / CONDITION_FAILS /
    CERTIFIED. `cross_result` lets batch runners share one
    ground-truth search across many conditions with the same (k, d).
    """
    if not is_connected(g):
        raise ToolError("DISCONNECTED", "certification needs a connected graph")
    checks = {"parameter_constraints": True, "min_degree": True, "class_membership": True}
    if req.theorem_id == "thm1.1":
        if req.k < 1:
            raise ToolError("PARAMETER_ERROR", "thm1.1 needs k >= 1")
        if req.d is None or req.d < 1:
            raise ToolError("PARAMETER_ERROR", "thm1.1 needs d >= 1")
        if req.a is not None or req.b is not None:
            raise ToolError("PARAMETER_ERROR", "thm1.1 does not take matrix parameters")
        d, a, b = req.d, None, None
        value = nu_f_exact(g).value
        threshold = req.k + Q(d - 1, d)
        measured, passes = float(value), value > threshold
    else:
        rule = _REGISTRY.get(req.theorem_id)
        if rule is None:
            raise ToolError("PARAMETER_ERROR", f"unknown theorem id {req.theorem_id!r}")
        a, b = _validate_params(rule, req)
        d = g.min_degree
        checks["min_degree"] = d >= rule.min_delta(req.k)
        if rule.gt_class:
            checks["class_membership"] = (
                g.n >= rule.gt_class + 2 and gt_membership(g, rule.gt_class) is not None
            ) if checks["min_degree"] else None  # None: not evaluated
        measured = threshold = passes = None
        if all(v is not False for v in checks.values()):
            a_used, b_used = rule.matrix(a, b)
            profile = spectral_profile(g, a_used, b_used)
            threshold = rule.threshold(req.k, d, g.max_degree, a, b)
            if rule.side == "largest":
                measured = profile.kth_largest(rule.index)
            else:
                measured = profile.kth_smallest(rule.index)
            passes = eigenvalue_clears(
                g, a_used, b_used, rule.side, rule.index, threshold, measured
            )
    outcome = "HYPOTHESIS_FAILED" if passes is None else "CERTIFIED" if passes else "CONDITION_FAILS"
    conclusion = f"P({req.k},{d}) holds" if passes else None
    cross = _cross_check(g, req, outcome, d, budget, cross_result)
    return CertificateReport(
        theorem_id=req.theorem_id, k=req.k, d=d, a=a, b=b,
        hypothesis_checks=checks, measured=measured, threshold=threshold,
        outcome=outcome, conclusion=conclusion, cross_check=cross,
    )


# ---------------------------------------------------------------------------
# lemma checkers, decided by edge connectivity


@dataclass(frozen=True)
class SmallCutCheck:
    status: str  # NO_VIOLATION | VACUOUS


def check_lemma_small_cut(g: Graph) -> SmallCutCheck:
    """Check that every vertex set with boundary at most min_degree - 1 has
    at least min_degree + 1 vertices.

    No set can violate this: each vertex of S has at least delta + 1 - |S|
    neighbours outside S, so 1 <= |S| <= delta gives a boundary of at least
    |S|(delta + 1 - |S|) >= delta. What is left is whether such a set exists
    at all: NO_VIOLATION when kappa' <= delta - 1, VACUOUS otherwise.
    """
    if not is_connected(g):
        raise ToolError("DISCONNECTED", "the check needs a connected graph")
    if g.n == 1:
        return SmallCutCheck("VACUOUS")
    kappa, _ = edge_connectivity(g)
    return SmallCutCheck("NO_VIOLATION" if kappa <= g.min_degree - 1 else "VACUOUS")


@dataclass(frozen=True)
class CutLowerBoundCheck:
    status: str  # NOT_APPLICABLE | VACUOUS | NO_VIOLATION | VIOLATIONS
    measured: float | None
    threshold: Fraction | None
    violations: tuple  # at most one (sorted side, boundary)


def check_cut_lower_bound(g: Graph, k: int, variant: str) -> CutLowerBoundCheck:
    """Check that, under the eigenvalue hypothesis, every connected
    component cut off by any edge set keeps boundary >= k+1.

    Degree or class failures give NOT_APPLICABLE; a failed eigenvalue
    hypothesis (decided exactly, like `certify`) gives VACUOUS. Otherwise a
    connected proper set with boundary <= k exists exactly when
    kappa' <= k, because both sides of a minimum cut of a connected graph
    induce connected subgraphs; VIOLATIONS carries that side as witness.
    """
    if variant not in ("lemma2.4", "lemma2.5"):
        raise ToolError("PARAMETER_ERROR", f"unknown variant {variant!r}")
    if k < 1:
        raise ToolError("PARAMETER_ERROR", f"k must be >= 1, got {k}")
    if not is_connected(g):
        raise ToolError("DISCONNECTED", "the check needs a connected graph")
    delta = g.min_degree
    if variant == "lemma2.4":
        degree_ok = delta >= 2 * k + 1 and 2 * k + 1 >= 5
        t_class, small_idx = 1, 3
        threshold = Q(4 * k, delta + 1)
    else:
        degree_ok = delta >= 3 * k + 1 and 3 * k + 1 >= 7
        t_class, small_idx = 2, 4
        threshold = Q(6 * k, delta + 1)
    if not degree_ok or g.n < t_class + 2 or gt_membership(g, t_class) is None:
        return CutLowerBoundCheck("NOT_APPLICABLE", None, None, ())
    measured = spectral_profile(g, 1, -1).kth_smallest(small_idx)
    if not eigenvalue_clears(g, 1, -1, "smallest", small_idx, threshold, measured):
        return CutLowerBoundCheck("VACUOUS", measured, threshold, ())
    kappa, side = edge_connectivity(g)
    if kappa > k:
        return CutLowerBoundCheck("NO_VIOLATION", measured, threshold, ())
    return CutLowerBoundCheck("VIOLATIONS", measured, threshold, ((tuple(sorted(side)), kappa),))
