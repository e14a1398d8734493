"""Dense symmetric matrices a*D(G) + b*A(G) and their full spectra.

The eigensolver is a self-contained cyclic Jacobi iteration: no external
numerical dependency, robust for the desk-scale orders this package targets.
(a, b) = (0, 1) gives the adjacency matrix, (1, -1) the Laplacian and
(1, 1) the signless Laplacian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ToolError
from .graphs import Graph

MAX_SWEEPS = 100
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class SymmetricMatrix:
    order: int
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        n = self.order
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ToolError("SHAPE_ERROR", f"expected {n}x{n} rows")
        for i in range(n):
            for j in range(i):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ToolError(
                        "SHAPE_ERROR", f"asymmetric entries at ({i},{j})"
                    )

    def trace(self) -> float:
        return sum(self.rows[i][i] for i in range(self.order))

    def frobenius_norm(self) -> float:
        return math.sqrt(sum(x * x for r in self.rows for x in r))


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


def mat_scale(a: SymmetricMatrix, c: float) -> SymmetricMatrix:
    return matrix_from_rows([[c * x for x in r] for r in a.rows])


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


def inertia(g: Graph, a, b, theta) -> tuple[int, int, int]:
    """(above, at, below): how many eigenvalues of a*D(G) + b*A(G) lie
    above, at and below theta, counted exactly (a, b, theta int or Fraction).

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


def check_tol(tol: float) -> None:
    """Reject a Jacobi convergence tolerance that is not finite and
    positive: with inf the iteration stops before its first rotation,
    with NaN it never converges."""
    if not 0 < tol < math.inf:  # false for NaN too
        raise ToolError("PARAMETER_ERROR", f"tol must be finite and > 0, got {tol}")


def sym_eigenvalues(m: SymmetricMatrix, tol: float = DEFAULT_TOL) -> tuple[float, ...]:
    """All eigenvalues of a symmetric matrix, sorted non-increasing.

    Cyclic Jacobi rotations; converged when the off-diagonal Frobenius norm
    drops below tol times the Frobenius norm of the input. Raises
    NO_CONVERGENCE if that has not happened after MAX_SWEEPS sweeps.
    """
    check_tol(tol)
    n = m.order
    a = [list(r) for r in m.rows]
    frob = m.frobenius_norm()

    def off_norm() -> float:
        s = 0.0
        for i in range(n):
            ai = a[i]
            for j in range(i + 1, n):
                s += ai[j] * ai[j]
        return math.sqrt(2.0 * s)

    threshold = tol * frob
    converged = off_norm() <= threshold
    for _ in range(MAX_SWEEPS):
        if converged:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                app, aqq = a[p][p], a[q][q]
                a[p][p] = app - t * apq
                a[q][q] = aqq + t * apq
                a[p][q] = 0.0
                a[q][p] = 0.0
                for r in range(n):
                    if r == p or r == q:
                        continue
                    arp, arq = a[r][p], a[r][q]
                    a[r][p] = c * arp - s * arq
                    a[p][r] = a[r][p]
                    a[r][q] = s * arp + c * arq
                    a[q][r] = a[r][q]
        converged = off_norm() <= threshold
    if not converged:
        raise ToolError("NO_CONVERGENCE", f"not converged after {MAX_SWEEPS} sweeps")
    return tuple(sorted((a[i][i] for i in range(n)), reverse=True))


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


@lru_cache(maxsize=512)
def _profile_cached(g: Graph, a: Fraction, b: Fraction, tol: float) -> SpectralProfile:
    eigs = sym_eigenvalues(build_matrix(g, float(a), float(b)), tol)
    return SpectralProfile(a=a, b=b, eigenvalues=eigs)


def spectral_profile(g: Graph, a, b, tol: float = DEFAULT_TOL) -> SpectralProfile:
    """Spectrum of a*D(G) + b*A(G), with rank-from-either-end accessors."""
    return _profile_cached(g, Fraction(a), Fraction(b), tol)
