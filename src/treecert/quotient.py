"""Laplacian quotient matrices over vertex partitions, with the two
eigenvalue comparison checkers the certification layer leans on.

Quotient entries are kept as exact rationals; floats only appear when a
spectrum is requested, via an exact diagonal similarity that makes the
matrix symmetric so the one validated eigensolver can be reused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ToolError
from .graphs import Graph, VertexSet, validate_partition
from .spectra import SymmetricMatrix, mat_add, matrix_from_rows, sym_eigenvalues


@dataclass(frozen=True)
class CutProfile:
    """Boundary bookkeeping for a partition: per-block boundary sizes r and
    pairwise crossing counts r_pair (r[i] == sum over j != i of r_pair[i][j])."""

    partition: tuple[VertexSet, ...]
    r: tuple[int, ...]
    r_pair: tuple[tuple[int, ...], ...]


def cut_profile(g: Graph, partition) -> CutProfile:
    blocks = validate_partition(g, partition)
    t = len(blocks)
    block_of = {}
    for i, b in enumerate(blocks):
        for v in b:
            block_of[v] = i
    pair = [[0] * t for _ in range(t)]
    for u, v in g.edges:
        bu, bv = block_of[u], block_of[v]
        if bu != bv:
            pair[bu][bv] += 1
            pair[bv][bu] += 1
    r = tuple(sum(row) for row in pair)
    return CutProfile(
        partition=blocks, r=r, r_pair=tuple(tuple(row) for row in pair)
    )


@dataclass(frozen=True)
class QuotientMatrix:
    """Block-averaged Laplacian: diagonal entry i is (boundary of block i)
    divided by its size, off-diagonal (i, j) is -crossing(i, j)/|block i|.
    Row sums are exactly zero; the matrix is similar to a symmetric one."""

    t: int
    entries: tuple[tuple[Fraction, ...], ...]
    partition: tuple[VertexSet, ...]

    def symmetrized(self) -> SymmetricMatrix:
        """Exact similarity by sqrt(block size): entry (i, j) becomes
        -crossing/sqrt(|Vi| |Vj|), which is symmetric by construction."""
        sizes = [len(b) for b in self.partition]
        rows = []
        for i in range(self.t):
            row = []
            for j in range(self.t):
                if i == j:
                    row.append(float(self.entries[i][i]))
                else:
                    num = self.entries[i][j] * sizes[i]  # = -crossing(i, j)
                    row.append(float(num) / math.sqrt(sizes[i] * sizes[j]))
            rows.append(row)
        return matrix_from_rows(rows)

    def eigenvalues(self) -> tuple[float, ...]:
        return sym_eigenvalues(self.symmetrized())


def quotient_laplacian(g: Graph, partition) -> QuotientMatrix:
    """Quotient of the Laplacian with respect to the partition, in exact
    rational arithmetic."""
    prof = cut_profile(g, partition)
    blocks = prof.partition
    t = len(blocks)
    entries = []
    for i in range(t):
        size = len(blocks[i])
        row = []
        for j in range(t):
            if i == j:
                row.append(Fraction(prof.r[i], size))
            else:
                row.append(Fraction(-prof.r_pair[i][j], size))
        entries.append(tuple(row))
    return QuotientMatrix(t=t, entries=tuple(entries), partition=blocks)


def check_interlacing(big, small, tol: float) -> int | None:
    """None when the small spectrum interlaces the big one within tol,
    else the 1-based index of the first violated inequality.

    Both inputs must be non-increasing; interlacing means
    big[i] >= small[i] >= big[n-m+i] for i = 1..m.
    """
    big = list(big)
    small = list(small)
    n, m = len(big), len(small)
    if m >= n:
        raise ToolError("LENGTH_ERROR", f"need len(small) < len(big), got {m} >= {n}")
    for i in range(1, m + 1):
        if not (big[i - 1] + tol >= small[i - 1]):
            return i
        if not (small[i - 1] + tol >= big[n - m + i - 1]):
            return i
    return None


def check_weyl(
    a: SymmetricMatrix, b: SymmetricMatrix, tol: float
) -> list[tuple[int, int, str]]:
    """All violated eigenvalue-sum inequalities for the pair (a, b), as
    (i, j, which) triples; an empty list is a pass.

    For the sum s = a + b: lambda_{i+j-1}(s) <= lambda_i(a) + lambda_j(b)
    whenever i+j-1 <= n ("upper"), and lambda_i(a) + lambda_j(b) <=
    lambda_{i+j-n}(s) whenever i+j-n >= 1 ("lower").
    """
    es = sym_eigenvalues(mat_add(a, b))
    ea = sym_eigenvalues(a)
    eb = sym_eigenvalues(b)
    n = a.order
    bad = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i + j - 1 <= n:
                if not (es[i + j - 2] <= ea[i - 1] + eb[j - 1] + tol):
                    bad.append((i, j, "upper"))
            if i + j - n >= 1:
                if not (ea[i - 1] + eb[j - 1] <= es[i + j - n - 1] + tol):
                    bad.append((i, j, "lower"))
    return bad
