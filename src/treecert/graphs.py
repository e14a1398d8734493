"""Immutable simple-graph representation plus ingestion and basic queries.

Vertices are dense integer labels 0..n-1 so they double as matrix indices.
Graphs are frozen after construction; the neighbours of v are the bitmask
adj_bits[v], degree data is derived at build time and the value is
hashable. What is computed about a graph is kept in its `memo` (see
`per_graph`). Vertex sets, boundaries and components each have one route
here; the union-find also serves the forests of `packing`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError, ToolError

Edge = tuple[int, int]
VertexSet = frozenset[int]

# Parsers and the family generators reject larger vertex counts before any
# per-vertex or per-edge allocation.
MAX_VERTICES = 1000


def is_int(value) -> bool:
    """The rule for every integer parameter: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_ints(**values) -> None:
    """PARAMETER_ERROR unless every value passes `is_int`."""
    for name, value in values.items():
        if not is_int(value):
            raise ToolError("PARAMETER_ERROR", f"{name} must be an integer, got {value!r}")


def edge(u: int, v: int) -> Edge:
    """Normalized undirected edge: (min, max)."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[Edge]
    adj_bits: tuple[int, ...] = field(compare=False)
    degrees: tuple[int, ...] = field(compare=False)
    min_degree: int = field(compare=False)
    max_degree: int = field(compare=False)
    # Facts about this object, keyed by the function that asks (`per_graph`).
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __repr__(self) -> str:  # keep error messages short
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edge_list) -> Graph:
    """Validate and freeze a graph from an iterable of vertex pairs."""
    if n < 1:
        raise ToolError("PARAMETER_ERROR", f"vertex count must be >= 1, got {n}")
    seen: set[Edge] = set()
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise ToolError("VERTEX_OUT_OF_RANGE", f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise ToolError("SELF_LOOP", f"self-loop at vertex {u}")
        e = edge(u, v)
        if e in seen:
            raise ToolError("DUPLICATE_EDGE", f"edge ({e[0]},{e[1]}) repeated")
        seen.add(e)
    bits = [0] * n
    for u, v in seen:
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    degs = tuple(b.bit_count() for b in bits)
    return Graph(
        n=n,
        edges=frozenset(seen),
        adj_bits=tuple(bits),
        degrees=degs,
        min_degree=min(degs),
        max_degree=max(degs),
    )


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" header plus m "u v" lines into a Graph.

    Raises ParseError with a distinct code and the offending line number for:
    malformed lines, a vertex count above MAX_VERTICES, self-loops,
    duplicate edges, out-of-range vertices, and a declared edge count that
    does not match the body.
    """
    lines = text.splitlines()
    rows: list[tuple[int, str]] = [
        (i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()
    ]
    if not rows:
        raise ParseError("MALFORMED_LINE", 1, "empty input")
    head_no, head = rows[0]
    parts = head.split()
    if len(parts) != 2:
        raise ParseError("MALFORMED_LINE", head_no, f"expected 'n m', got {head!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("MALFORMED_LINE", head_no, f"expected 'n m', got {head!r}")
    if n < 1 or m < 0:
        raise ParseError("MALFORMED_LINE", head_no, f"invalid header n={n} m={m}")
    if n > MAX_VERTICES:
        raise ParseError("TOO_LARGE", head_no, f"n={n} exceeds the cap of {MAX_VERTICES}")

    body = rows[1:]
    if len(body) > m:
        extra_no = body[m][0]
        raise ParseError(
            "EDGE_COUNT_MISMATCH", extra_no, f"more than the declared {m} edges"
        )
    if len(body) < m:
        last_no = body[-1][0] if body else head_no
        raise ParseError(
            "EDGE_COUNT_MISMATCH",
            last_no + 1,
            f"declared {m} edges but only {len(body)} given",
        )

    seen: set[Edge] = set()
    ordered: list[Edge] = []
    for line_no, ln in body:
        ps = ln.split()
        if len(ps) != 2:
            raise ParseError("MALFORMED_LINE", line_no, f"expected 'u v', got {ln!r}")
        try:
            u, v = int(ps[0]), int(ps[1])
        except ValueError:
            raise ParseError("MALFORMED_LINE", line_no, f"expected 'u v', got {ln!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(
                "VERTEX_OUT_OF_RANGE", line_no, f"vertex outside 0..{n - 1}"
            )
        if u == v:
            raise ParseError("SELF_LOOP", line_no, f"self-loop at vertex {u}")
        e = edge(u, v)
        if e in seen:
            raise ParseError("DUPLICATE_EDGE", line_no, f"edge ({e[0]},{e[1]}) repeated")
        seen.add(e)
        ordered.append(e)
    return build_graph(n, ordered)


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list; edges emitted in sorted order."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(out) + "\n"


def parse_graph6(text: str) -> Graph:
    """Read the one-line graph6 ASCII encoding (offset-63 bytes, packed
    upper triangle in column order). Accepts the optional '>>graph6<<'
    header; only graphs up to the 8-byte size encoding are supported.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):].strip()
    if not s:
        raise ParseError("MALFORMED_LINE", 1, "empty graph6 input")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise ParseError("MALFORMED_LINE", 1, "byte outside graph6 range")
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    elif len(data) >= 8:
        n = 0
        for b in data[2:8]:
            n = (n << 6) | b
        body = data[8:]
    else:
        raise ParseError("MALFORMED_LINE", 1, "truncated graph6 size field")
    if n < 1:
        raise ParseError("MALFORMED_LINE", 1, "graph6 with no vertices")
    if n > MAX_VERTICES:
        raise ParseError("TOO_LARGE", 1, f"n={n} exceeds the cap of {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ParseError(
            "EDGE_COUNT_MISMATCH", 1, f"graph6 body has {len(body)} bytes, need {need}"
        )
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            byte = body[idx // 6]
            if (byte >> (5 - idx % 6)) & 1:
                edges.append((i, j))
            idx += 1
    return build_graph(n, edges)


def parse_graph(text: str) -> Graph:
    """Auto-detect edge-list vs graph6 input by the first non-blank line."""
    first = ""
    for ln in text.splitlines():
        if ln.strip():
            first = ln.strip()
            break
    parts = first.split()
    if len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts):
        return parse_edge_list(text)
    return parse_graph6(text)


def _check_vertex_set(g: Graph, s, name: str) -> VertexSet:
    fs = frozenset(s)
    for v in fs:
        if not (0 <= v < g.n):
            raise ToolError("VERTEX_OUT_OF_RANGE", f"{name} contains {v}")
    return fs


def _set_to_mask(s) -> int:
    return sum(1 << v for v in s)  # s has no repeats


def _mask_to_set(mask: int) -> VertexSet:
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        out.append(v)
        mask &= mask - 1
    return frozenset(out)


def cut_size(g: Graph, x, y) -> int:
    """Number of edges with one endpoint in x and the other in y.

    x and y must be disjoint subsets of the vertex set.
    """
    xs = _check_vertex_set(g, x, "x")
    ys = _check_vertex_set(g, y, "y")
    if xs & ys:
        raise ToolError("DISJOINTNESS_VIOLATION", "x and y overlap")
    ymask = _set_to_mask(ys)
    return sum((g.adj_bits[u] & ymask).bit_count() for u in xs)


def boundary_size(g: Graph, s) -> int:
    """Edges leaving s, i.e. cut_size(g, s, V \\ s)."""
    return boundary_size_mask(g, _set_to_mask(_check_vertex_set(g, s, "s")))


def boundary_size_mask(g: Graph, mask: int) -> int:
    rest = ~mask
    return sum((g.adj_bits[v] & rest).bit_count() for v in _mask_to_set(mask))


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]  # path halving
        x = parent[x]
    return x


def _union_edges(n: int, edges) -> tuple[list[int], list[Edge]]:
    """One union-find pass over the edges in the given order: the final
    parent array and the edges that joined two components, which form a
    maximal forest of the edge set."""
    parent = list(range(n))
    joined = []
    for e in edges:
        ru, rv = _find(parent, e[0]), _find(parent, e[1])
        if ru != rv:
            parent[ru] = rv
            joined.append(e)
    return parent, joined


def _components_from_edges(n: int, edges) -> list[VertexSet]:
    """The vertex sets of the components of ({0..n-1}, edges), ordered by
    smallest member."""
    parent, _ = _union_edges(n, edges)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(_find(parent, v), []).append(v)
    return [frozenset(vs) for vs in groups.values()]


def components(g: Graph) -> list[VertexSet]:
    """Maximal connected vertex sets, ordered by smallest member."""
    return _components_from_edges(g.n, g.edges)


def per_graph(fn):
    """fn(g, *args), computed once per Graph object and kept in g.memo under
    (fn's name, *args) with args read by `Fraction`: 1, 1.0 and Fraction(1)
    are one key, and a value it cannot read is a PARAMETER_ERROR."""
    def once(g: Graph, *args):
        try:
            key = (fn.__name__, *map(Fraction, args))
        except (TypeError, ValueError, ArithmeticError):
            raise ToolError("PARAMETER_ERROR", f"{fn.__name__} needs numbers: {args!r}") from None
        if key not in g.memo:
            g.memo[key] = fn(g, *key[1:])
        return g.memo[key]
    once.__name__, once.__qualname__, once.__doc__ = fn.__name__, fn.__qualname__, fn.__doc__
    return once


@per_graph
def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


def validate_partition(g: Graph, blocks) -> tuple[VertexSet, ...]:
    """Check that blocks are non-empty, pairwise disjoint and cover V."""
    bl = tuple(frozenset(b) for b in blocks)
    if not bl:
        raise ToolError("PARTITION_INVALID", "no blocks")
    seen: set[int] = set()
    for b in bl:
        if not b:
            raise ToolError("PARTITION_INVALID", "empty block")
        for v in b:
            if not (0 <= v < g.n):
                raise ToolError("PARTITION_INVALID", f"vertex {v} out of range")
            if v in seen:
                raise ToolError("PARTITION_INVALID", f"vertex {v} in two blocks")
            seen.add(v)
    if len(seen) != g.n:
        raise ToolError("PARTITION_INVALID", "blocks do not cover the vertex set")
    return bl
