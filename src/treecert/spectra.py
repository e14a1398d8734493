"""Dense symmetric matrices a*D(G) + b*A(G) and their full spectra.

The eigensolver is self-contained, with no external numerical dependency:
Householder reduction to tridiagonal form, then implicit-shift QL
(eigenvalues only, O(n^3) with a small constant). The spectrum fills
reported `measured` values and the interlacing check, and it picks the
point at which `eigenvalue_clears` counts exactly: the simplest rational
strictly between the float eigenvalue and the threshold. The float value
never decides a verdict; every spectral condition is decided by an exact
`inertia` count, at that point or at the threshold itself.
(a, b) = (0, 1) gives the adjacency matrix, (1, -1) the Laplacian and
(1, 1) the signless Laplacian.

On an r-regular graph D = rI, so a*D + b*A = a*r*I + b*A (b != 0) has the
eigenvalues a*r + b*mu over the adjacency spectrum mu. There the profile
is mapped from the one adjacency solve, and every decision is counted on
A against tau = (theta - a*r)/b: each (a, b) shares one solve and one
memoised set of counts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul

from .errors import ToolError
from .graphs import Graph, per_graph

MAX_QL_ITERATIONS = 30
EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class SymmetricMatrix:
    order: int
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        n = self.order
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ToolError("SHAPE_ERROR", f"expected {n}x{n} rows")
        if not all(map(math.isfinite, chain.from_iterable(self.rows))):
            raise ToolError("NON_FINITE", "matrix entries must be finite")
        for i in range(n):
            for j in range(i):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ToolError(
                        "SHAPE_ERROR", f"asymmetric entries at ({i},{j})"
                    )


def matrix_from_rows(rows) -> SymmetricMatrix:
    tup = tuple(tuple(float(x) for x in r) for r in rows)
    return SymmetricMatrix(order=len(tup), rows=tup)


def mat_add(a: SymmetricMatrix, b: SymmetricMatrix) -> SymmetricMatrix:
    if a.order != b.order:
        raise ToolError("SHAPE_ERROR", f"orders {a.order} and {b.order} differ")
    n = a.order
    return matrix_from_rows(
        [[a.rows[i][j] + b.rows[i][j] for j in range(n)] for i in range(n)]
    )


def build_matrix(g: Graph, a: float, b: float) -> SymmetricMatrix:
    """a*deg(i) on the diagonal, b on adjacent off-diagonal positions."""
    n = g.n
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = a * g.degrees[i]
    for u, v in g.edges:
        rows[u][v] = b
        rows[v][u] = b
    return matrix_from_rows(rows)


@per_graph
def inertia(g: Graph, a, b, theta) -> tuple[int, int, int]:
    """(above, at, below): how many eigenvalues of a*D(G) + b*A(G) lie
    above, at and below theta, counted exactly (a, b, theta read as Fractions).

    By Sylvester's law of inertia these are the pivot signs of M - theta*I
    scaled to integers, reduced by fraction-free symmetric elimination
    (Bareiss) on the upper triangle: pivot k is a leading minor, so the
    k-th LDL^T pivot has the sign of pivot k times pivot k-1. A zero pivot
    whose row's first nonzero is m at column j gets s times row and column
    j added: 2*s*m + M[j][j] is nonzero for s = 1 or -1. A zero pivot in
    an all-zero row is a zero eigenvalue."""
    scale = math.lcm(a.denominator, b.denominator, theta.denominator)
    n = g.n  # u[i][j - i] holds entry (i, j) for j >= i
    u = [[int((a * g.degrees[i] - theta) * scale)] + [0] * (n - 1 - i) for i in range(n)]
    for i, j in g.edges:
        u[i][j - i] = int(b * scale)
    counts = [0, 0, 0]
    prev = 1
    for k in range(n):
        row = u[k]
        if row[0] == 0:
            j = next((k + c for c, x in enumerate(row) if x), None)
            if j is None:
                counts[1] += 1
                continue
            col = [u[r][j - r] for r in range(k, j)] + u[j]  # entries (r, j), r >= k
            m, s = row[j - k], 1 if 2 * row[j - k] + col[j - k] else -1
            row = [2 * s * m + col[j - k]] + [x + s * y for x, y in zip(row[1:], col[1:])]
        p = row[0]
        counts[0 if (p > 0) == (prev > 0) else 2] += 1
        for i, m in enumerate(row[1:], k + 1):
            u[i] = [(p * x - m * y) // prev for x, y in zip(u[i], row[i - k:])]
        prev = p
    return tuple(counts)


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The simplest rational strictly between lo < hi: the smallest
    denominator and, among those, the smallest absolute value (0 when the
    interval holds it).

    Continued-fraction descent on 0 <= lo: the smallest integer above lo
    when it lies below hi, otherwise x = f + 1/y with f = floor(lo) and y
    the simplest rational in (1/(hi - f), 1/(lo - f)), whose upper end is
    unbounded when lo = f. Simplest means the smallest numerator as well
    there, so the denominators stay minimal through each step."""
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -simplest_between(-hi, -lo)
    terms = []
    while True:
        f = math.floor(lo)
        if hi is None or f + 1 < hi:
            terms.append(f + 1)
            break
        terms.append(f)
        lo, hi = 1 / (hi - f), None if lo == f else 1 / (lo - f)
    x = Fraction(terms.pop())
    for f in reversed(terms):
        x = f + 1 / x
    return x


def _on_adjacency(g: Graph, a: Fraction, b: Fraction) -> bool:
    """Whether a*D(G) + b*A(G) = a*r*I + b*A(G) is read off the adjacency
    spectrum: G is r-regular, b is nonzero and (a, b) is not (0, 1)."""
    return g.min_degree == g.max_degree and b != 0 and (a, b) != (0, 1)


def eigenvalue_clears(g: Graph, a, b, side: str, index: int, theta, estimate: float) -> bool:
    """Whether the index-th eigenvalue of a*D(G) + b*A(G) from `side` lies
    strictly past theta in the passing direction: the index-th largest
    below theta (side "largest") or the index-th smallest above it
    ("smallest"). Decided exactly; a value equal to theta does not clear.

    On an r-regular graph the decision moves to the adjacency spectrum:
    the eigenvalues are a*r + b*mu, so it becomes mu against
    tau = (theta - a*r)/b, with the side flipped when b < 0, and
    decisions from every (a, b) share one memoised matrix.

    `estimate` is the float value of that eigenvalue. One `inertia` count
    at sigma, the simplest rational strictly between it and theta, usually
    proves the verdict: on the largest side, sigma < theta with fewer than
    index eigenvalues above sigma puts the index-th largest at or below
    sigma; sigma > theta with at least index eigenvalues at or above sigma
    puts it at or above sigma. The smallest side mirrors this. When that
    count proves nothing (the estimate was wrong, or equals theta) the
    count at theta decides. Small denominators keep the integer pivots
    short, and nearby decisions land on the same memoised sigma."""
    a, b, est = Fraction(a), Fraction(b), Fraction(estimate)
    if _on_adjacency(g, a, b):
        shift = a * g.max_degree
        theta, est = (theta - shift) / b, (est - shift) / b
        if b < 0:
            side = "smallest" if side == "largest" else "largest"
        a, b = Fraction(0), Fraction(1)
    largest = side == "largest"
    if est != theta:
        sigma = simplest_between(min(est, theta), max(est, theta))
        above, at, below = inertia(g, a, b, sigma)
        ahead = above if largest else below
        if (sigma < theta) == largest:  # sigma on the passing side of theta
            if ahead < index:
                return True
        elif ahead + at >= index:
            return False
    above, at, below = inertia(g, a, b, theta)
    # index-th largest < theta iff fewer than index eigenvalues are >= theta; mirrored
    return (above if largest else below) + at < index


def _tridiagonalize(a: list[list[float]]) -> tuple[list[float], list[float]]:
    """Householder reduction of the symmetric matrix `a` (rows, consumed)
    to tridiagonal form; returns the diagonal d and the sub-diagonal e,
    with e[i] coupling d[i] and d[i + 1] and e[n - 1] = 0.

    Step i annihilates row i left of the sub-diagonal with the reflector
    P = I - u u^T / h built from that row (scaled by its 1-norm against
    overflow), then updates the leading i x i block as
    A - u q^T - q u^T, where p = A u / h and q = p - (u.p / 2h) u
    (tred2 without vectors, Bowdler, Martin, Reinsch & Wilkinson 1968).
    Rows shrink to the block, which is all later steps read; row i keeps
    its diagonal entry from step i on.
    """
    n = len(a)
    e = [0.0] * n
    for i in range(n - 1, 0, -1):
        row = a[i][:i]
        scale = sum(map(abs, row))
        if i == 1 or scale == 0.0:
            e[i - 1] = row[-1]
            continue
        u = [x / scale for x in row]
        h = sum(map(mul, u, u))
        f = u[-1]
        g = -math.copysign(math.sqrt(h), f)
        e[i - 1] = scale * g
        h -= f * g
        u[-1] = f - g
        p = [sum(map(mul, a[j], u)) / h for j in range(i)]
        hh = sum(map(mul, p, u)) / (h + h)
        q = [pj - hh * uj for pj, uj in zip(p, u)]
        for j in range(i):
            uj, qj = u[j], q[j]
            a[j] = [x - (uj * qk + qj * uk) for x, qk, uk in zip(a[j], q, u)]
    return [a[i][i] for i in range(n)], e


def _tql1(d: list[float], e: list[float]) -> None:
    """Eigenvalues of the symmetric tridiagonal matrix (d, e), left in d.

    Implicit-shift QL (tql1, Bowdler, Martin, Reinsch & Wilkinson 1968):
    e[m] deflates once |e[m]| <= eps * (|d[m]| + |d[m + 1]|). Raises
    NO_CONVERGENCE when one eigenvalue needs more than MAX_QL_ITERATIONS
    iterations; a NaN never passes the deflation test, so it ends there too.
    """
    n = len(d)
    for l in range(n):
        it = 0
        while True:
            m = l
            while m < n - 1 and not abs(e[m]) <= EPS * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if it == MAX_QL_ITERATIONS:
                raise ToolError(
                    "NO_CONVERGENCE",
                    f"eigenvalue {l} not converged after {MAX_QL_ITERATIONS} QL iterations",
                )
            it += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # underflow: split the matrix here
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0


def sym_eigenvalues(m: SymmetricMatrix) -> tuple[float, ...]:
    """All eigenvalues of a symmetric matrix, sorted non-increasing:
    Householder tridiagonalisation, then implicit-shift QL.

    The matrix is scaled by 2^-e, with 2^e just above its largest |entry|,
    and the eigenvalues are scaled back: a power of two changes no digit,
    and QL's intermediate sums stay finite when the entries are near the
    float limit. Raises NON_FINITE when an eigenvalue exceeds that limit."""
    e = math.frexp(max(map(abs, chain.from_iterable(m.rows)), default=0.0))[1]
    d, sub = _tridiagonalize([[math.ldexp(x, -e) for x in r] for r in m.rows])
    _tql1(d, sub)
    try:
        return tuple(sorted((math.ldexp(x, e) for x in d), reverse=True))
    except OverflowError:
        raise ToolError("NON_FINITE", "an eigenvalue exceeds the float range")


@dataclass(frozen=True)
class SpectralProfile:
    """Ordered spectrum of a*D(G) + b*A(G).

    eigenvalues is non-increasing; kth_largest(1) is the largest value and
    kth_smallest(1) the smallest, so e.g. the third-smallest Laplacian
    eigenvalue is kth_smallest(3).
    """

    a: Fraction
    b: Fraction
    eigenvalues: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def kth_largest(self, i: int) -> float:
        if not (1 <= i <= self.n):
            raise ToolError("PARAMETER_ERROR", f"index {i} outside 1..{self.n}")
        return self.eigenvalues[i - 1]

    def kth_smallest(self, j: int) -> float:
        if not (1 <= j <= self.n):
            raise ToolError("PARAMETER_ERROR", f"index {j} outside 1..{self.n}")
        return self.eigenvalues[self.n - j]


@per_graph
def spectral_profile(g: Graph, a: Fraction, b: Fraction) -> SpectralProfile:
    """Spectrum of a*D(G) + b*A(G), with rank-from-either-end accessors."""
    try:
        fa, fb = float(a), float(b)
    except OverflowError:
        raise ToolError("NON_FINITE", "a or b is too large for a float")
    if _on_adjacency(g, a, b):  # a*r + b*mu over the adjacency spectrum mu
        shift = fa * g.max_degree
        mu = spectral_profile(g, 0, 1).eigenvalues
        eigs = tuple(sorted((shift + fb * x for x in mu), reverse=True))
        if not all(map(math.isfinite, eigs)):  # also catches an infinite a*r
            raise ToolError("NON_FINITE", "a*r + b*mu exceeds the float range")
    else:
        eigs = sym_eigenvalues(build_matrix(g, fa, fb))
    return SpectralProfile(a=a, b=b, eigenvalues=eigs)
