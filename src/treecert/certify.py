"""Evaluation of every sufficient spectral condition for the packing
property, with exact-rational thresholds and a ground-truth
cross-check.

Each eigenvalue condition is one row (t, a, b): the class G_t it assumes
(t = 0: none) and the matrix a*D + b*A it reads, each of a and b a fixed
value or a free parameter. Everything else follows from the row in one
place: the eigenvalue is the (t+2)-th from the largest side when b > 0 and
from the smallest when b < 0, with the minimum-degree bound, the parameter
rule and the exact threshold of the theorem for class t carried over to
a*D + b*A. The side fixes the inequality direction: a smallest-side
eigenvalue must exceed its threshold, a largest-side one must stay below
it.

Decision semantics: every condition is a strict inequality against an
exact rational threshold and is decided exactly; eigenvalues are counted
by Sylvester's law of inertia (`spectra.eigenvalue_clears`), so one equal
to its threshold fails. The float eigenvalue is reported as `measured` and
picks the rational point, strictly between it and the threshold, at which
the exact count runs; it never decides a verdict.

A CertificateRequest is checked against the rule of its row when it is
built, with a and b read by `rational`, the one conversion every entry
point uses; an invalid one raises PARAMETER_ERROR there, not in `certify`.

The lemma checkers (the small-cut order bound and the Lemma 2.4/2.5 cut
lower bound) are decided by edge connectivity, with no size cap; the
subset scans they replaced are test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from .connectivity import edge_connectivity, gt_membership
from .errors import ToolError
from .graphs import Graph, check_ints, is_connected, is_int
from .packing import DEFAULT_BUDGET, nu_f_exact, search_pkd_witness
from .spectra import eigenvalue_clears, spectral_profile

Q = Fraction

# Free parameters in a row: a, and b with the sign it must have.
_FREE_A, _B_POS, _B_NEG = "a", "b > 0", "b < 0"

# id -> (t, a, b). Theorems 1.2 and 1.3 and Theorem 5.1 are the class-1,
# class-2 and class-free conditions; their corollaries move them to a*D + b*A.
_CONDITIONS: dict[str, tuple[int, object, object]] = {
    "thm1.2": (1, 1, -1),
    "thm1.3": (2, 1, -1),
    "thm5.1": (0, 0, 1),
    "cor3.1i": (1, _FREE_A, 1),
    "cor3.1ii": (1, _FREE_A, _B_POS),
    "cor3.1iii": (1, _FREE_A, _B_NEG),
    "cor3.2i": (1, 0, 1),
    "cor3.2ii": (1, 1, 1),
    "cor4.2i": (2, _FREE_A, 1),
    "cor4.2ii": (2, _FREE_A, _B_POS),
    "cor4.2iii": (2, _FREE_A, _B_NEG),
    "cor4.3i": (2, 0, 1),
    "cor4.3ii": (2, 1, 1),
    "cor5.2i": (0, _FREE_A, 1),
    "cor5.2ii": (0, _FREE_A, _B_POS),
    "cor5.2iii": (0, _FREE_A, _B_NEG),
    "cor5.3i": (0, 1, 1),
    "cor5.3ii": (0, 1, -1),
}

THEOREM_IDS = ("thm1.1",) + tuple(_CONDITIONS)

# The fixed a and b values of the rows, made once: certify reads them on
# every request, most of which stop at a hypothesis.
_FIXED = {v: Q(v) for v in (-1, 0, 1)}

# c_t = p/q: the constant of the class-t theorem's threshold, as (p, q).
_CLASS_CONSTANT = ((2, 1), (16, 3), (9, 1))


def param_error(
    tid: str, k: int, d: int | None, a: Fraction | None, b: Fraction | None
) -> str | None:
    """Why (k, d, a, b) lies outside the parameter rule of condition `tid`,
    or None when the condition accepts it. None stands for a parameter not
    given."""
    if tid == "thm1.1":
        if k < 1:
            return "needs k >= 1"
        if d is None or d < 1:
            return "needs d >= 1"
        if a is not None or b is not None:
            return "does not take matrix parameters"
        return None
    if d is not None:
        return "fixes d to the minimum degree"
    t, a_row, b_row = _CONDITIONS[tid]
    k_min, a_min = (2, -1) if t else (1, 0)
    if k < k_min:
        return f"needs k >= {k_min}, got {k}"
    if (a is None) == (a_row == _FREE_A):
        return "requires parameter a" if a is None else "does not take parameter a"
    if a is not None and a < a_min:
        return f"needs a >= {a_min}, got a = {a}"
    if (b is None) == (b_row in (_B_POS, _B_NEG)):
        return "requires parameter b" if b is None else "does not take parameter b"
    if b is None:
        return None
    if b == 0:
        return "needs b nonzero"
    if (b < 0) != (b_row == _B_NEG):
        return f"needs {b_row}, got {b}"
    if t and (a < -b if b > 0 else a > -b):  # a/b < -1, without dividing
        return f"needs a/b >= -1, got {a}/{b}"
    return None


def _rule(tid: str, k: int, a: Fraction | None, b: Fraction | None) -> tuple:
    """(t, the a and b of the matrix, side, index, minimum-degree bound) of
    eigenvalue condition `tid` at accepted parameters (k, a, b)."""
    t, a_row, b_row = _CONDITIONS[tid]
    a_used = a if a_row == _FREE_A else _FIXED[a_row]
    b_used = b if b is not None else _FIXED[b_row]
    side = "largest" if b_used.numerator > 0 else "smallest"
    return t, a_used, b_used, side, t + 2, 3 * k + 3 if t == 2 else 2 * k + 2


def _threshold(t: int, k: int, delta: int, Delta: int, a: Fraction, b: Fraction) -> Fraction:
    """The exact threshold of the class-t condition on a*D + b*A:
    a*D' + b*delta - b*c_t*(k + (delta-1)/delta)/(delta+1), where D' is the
    maximum degree Delta for t = 0 with b < 0 and delta otherwise. The
    factor of b is summed over one integer denominator, so the value costs
    one gcd-normalised Fraction instead of one per term."""
    degree = Delta if t == 0 and b < 0 else delta
    p, q = _CLASS_CONSTANT[t]
    # delta - c_t*(k + (delta-1)/delta)/(delta+1)
    gap = Q(q * delta * delta * (delta + 1) - p * (k * delta + delta - 1), q * delta * (delta + 1))
    return a * degree + b * gap


# Digits allowed in the numerator and in the denominator of a or b. The
# inertia counts run on integers that long, and a report prints thresholds
# built from them (Python prints no int past 4300 digits).
MAX_DIGITS = 500


def rational(value, name: str, code: str = "PARAMETER_ERROR") -> Fraction:
    """`value` as an exact Fraction: a Fraction or an int as it is, anything
    else read from its text by `_read`, so a float is its decimal
    (0.1 -> 1/10); a bool fails. A value past the float range is
    NON_FINITE, since reports carry floats, and one whose numerator or
    denominator has more than MAX_DIGITS digits fails with `code`."""
    if is_int(value):
        value = Fraction(value)
    elif type(value) is not Fraction:
        value = _read(value, name, code)
    try:
        float(value)
    except OverflowError:
        raise ToolError("NON_FINITE", f"{name} exceeds the float range") from None
    if max(abs(value.numerator), value.denominator) >= 10**MAX_DIGITS:
        raise _too_long(name, code)
    return value


def _too_long(name: str, code: str) -> ToolError:
    return ToolError(code, f"{name} needs more than {MAX_DIGITS} digits above or below the line")


def _read(value, name: str, code: str) -> Fraction:
    """Fraction(str(value)), refused by the digits and the exponent of each
    side of the text, as `Decimal` reads them, before any integer is built:
    a huge exponent would cost a huge power of ten."""
    text = str(value)
    try:
        sides = [Decimal(s) for s in text.split("/", 1)]
    except ArithmeticError:
        sides = []
    if sides and all(s.is_finite() for s in sides):
        top, bottom = sides[0], sides[1] if len(sides) == 2 else Decimal(1)
        if top and bottom and top.adjusted() - bottom.adjusted() > 309:  # |value| >= 10^309
            raise ToolError("NON_FINITE", f"{name} exceeds the float range")
        for s in sides:
            _, digits, exp = s.as_tuple()
            if max(len(digits) + max(exp, 0), 1 - min(exp, 0)) > MAX_DIGITS:
                raise _too_long(name, code)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise ToolError(code, f"{name} is not a rational number: {value!r}")


@dataclass(frozen=True)
class CertificateRequest:
    """One condition to evaluate, checked and converted when it is built."""

    theorem_id: str
    k: int
    d: int | None = None  # free parameter for thm1.1 only; elsewhere d = delta
    # Free a and b, given as an int, Fraction, "p/q" or decimal string, or a
    # float read as its decimal, and stored as the Fraction `rational` makes.
    a: Fraction | None = None
    b: Fraction | None = None
    cross_verify: bool = True  # search P(k, d) as ground truth; False skips it

    def __post_init__(self):
        tid, k, d, cross = self.theorem_id, self.k, self.d, self.cross_verify
        if tid not in THEOREM_IDS:
            raise ToolError("PARAMETER_ERROR", f"unknown theorem id {tid!r}")
        if not (is_int(k) and (d is None or is_int(d))):
            raise ToolError("PARAMETER_ERROR", f"k and d must be integers, got {k!r} and {d!r}")
        if type(cross) is not bool:
            raise ToolError("PARAMETER_ERROR", f"cross_verify must be True or False: {cross!r}")
        a = None if self.a is None else rational(self.a, "a")
        b = None if self.b is None else rational(self.b, "b")
        problem = param_error(tid, k, d, a, b)
        if problem is not None:
            raise ToolError("PARAMETER_ERROR", f"{tid} {problem}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


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


def certify(
    g: Graph, req: CertificateRequest, budget: int = DEFAULT_BUDGET
) -> CertificateReport:
    """Evaluate one sufficient condition on a connected graph.

    Returns a report with the hypothesis checks, the measured quantity,
    the exact threshold and one of HYPOTHESIS_FAILED / CONDITION_FAILS /
    CERTIFIED. Unless `req.cross_verify` is False, the ground-truth
    cross-check searches P(k, d) at the d of the conclusion, at every n,
    once per graph and (k, d, budget): the graph's memo keeps the search.
    """
    if not is_connected(g):
        raise ToolError("DISCONNECTED", "certification needs a connected graph")
    checks = {"parameter_constraints": True, "min_degree": True, "class_membership": True}
    if req.theorem_id == "thm1.1":
        d = req.d
        value = nu_f_exact(g).value
        threshold = req.k + Q(d - 1, d)
        measured, passes = float(value), value > threshold
    else:
        t, a_used, b_used, side, index, min_delta = _rule(req.theorem_id, req.k, req.a, req.b)
        d = g.min_degree
        checks["min_degree"] = d >= min_delta
        if t:
            checks["class_membership"] = (
                g.n >= t + 2 and gt_membership(g, t) is not None
            ) if checks["min_degree"] else None  # None: not evaluated
        measured = threshold = passes = None
        if all(v is not False for v in checks.values()):
            profile = spectral_profile(g, a_used, b_used)
            threshold = _threshold(t, req.k, d, g.max_degree, a_used, b_used)
            if side == "largest":
                measured = profile.kth_largest(index)
            else:
                measured = profile.kth_smallest(index)
            passes = eigenvalue_clears(g, a_used, b_used, side, index, threshold, measured)
    outcome = "HYPOTHESIS_FAILED" if passes is None else "CERTIFIED" if passes else "CONDITION_FAILS"
    conclusion = f"P({req.k},{d}) holds" if passes else None
    cross = None
    if req.cross_verify:
        key = ("search_pkd_witness", req.k, d, budget)
        if key not in g.memo:
            g.memo[key] = search_pkd_witness(g, req.k, d, budget=budget)
        status = g.memo[key].status
        cross = CrossCheck(status, consistent=not (passes and status == "REFUTED"))
    return CertificateReport(
        theorem_id=req.theorem_id, k=req.k, d=d, a=req.a, b=req.b,
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
    t = {"lemma2.4": 1, "lemma2.5": 2}.get(variant)  # the class G_t assumed
    if t is None:
        raise ToolError("PARAMETER_ERROR", f"unknown variant {variant!r}")
    check_ints(k=k)
    if k < 1:
        raise ToolError("PARAMETER_ERROR", f"k must be >= 1, got {k}")
    if not is_connected(g):
        raise ToolError("DISCONNECTED", "the check needs a connected graph")
    delta = g.min_degree
    if k < 2 or delta < (t + 1) * k + 1 or g.n < t + 2 or gt_membership(g, t) is None:
        return CutLowerBoundCheck("NOT_APPLICABLE", None, None, ())
    threshold = Q(2 * (t + 1) * k, delta + 1)
    measured = spectral_profile(g, 1, -1).kth_smallest(t + 2)
    if not eigenvalue_clears(g, 1, -1, "smallest", t + 2, threshold, measured):
        return CutLowerBoundCheck("VACUOUS", measured, threshold, ())
    kappa, side = edge_connectivity(g)
    if kappa > k:
        return CutLowerBoundCheck("NO_VIOLATION", measured, threshold, ())
    return CutLowerBoundCheck("VIOLATIONS", measured, threshold, ((tuple(sorted(side)), kappa),))
