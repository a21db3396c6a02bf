"""Graph data model, validation, DIMACS I/O and synthetic generators.

Vertices are 0-based and contiguous internally; all text formats (DIMACS
.gr and everything the CLI prints) are 1-based.  Weights are positive
integers, the minimal distance in any graph being 1.  Graphs are undirected
and simple: ingest collapses duplicate arcs to the minimum weight and merges
(u,v)/(v,u) pairs.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Iterable, TextIO

from .util import FormatError, opened


class GraphError(ValueError):
    pass


class GraphFormatError(GraphError, FormatError):
    """Malformed DIMACS input; carries the 1-based line number when known."""


class Graph:
    """Immutable-by-convention weighted undirected graph.

    `edges` is a sorted list of (u, v, w) with u < v; `adj` holds, per
    vertex, a list of (neighbor, weight) pairs consistent with `edges`.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: list[tuple[int, int, int]]):
        self.n = n
        self.edges = edges
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for u, v, w in edges:
            self.adj[u].append((v, w))
            self.adj[v].append((u, w))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, int]]) -> "Graph":
        """Build a validated graph, deduplicating parallel edges (keep min)."""
        if n < 1:
            raise GraphError("vertex count must be >= 1")
        best: dict[tuple[int, int], int] = {}
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"vertex id out of range: ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not isinstance(w, int) or w < 1:
                raise GraphError(f"edge ({u}, {v}) has non-positive-integer weight {w}")
            key = (u, v) if u < v else (v, u)
            prev = best.get(key)
            if prev is None or w < prev:
                best[key] = w
        edge_list = sorted((u, v, w) for (u, v), w in best.items())
        return cls(n, edge_list)

    def weight(self, u: int, v: int) -> int | None:
        for x, w in self.adj[u]:
            if x == v:
                return w
        return None

    @property
    def m(self) -> int:
        return len(self.edges)

    def digest(self) -> str:
        """Content hash over (n, canonical edge list)."""
        lines = "".join([f"{u} {v} {w}\n" for u, v, w in self.edges])
        return hashlib.sha256(f"gr {self.n}\n{lines}".encode()).hexdigest()[:16]

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def validate(graph: Graph) -> list[str]:
    """Check all graph invariants in one pass over the edges; returns violations."""
    n = graph.n
    violations = []
    seen = set()
    mirror: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w in graph.edges:
        if not (0 <= u < n and 0 <= v < n):
            violations.append(f"vertex-range: edge ({u},{v}) outside [0,{n})")
            continue
        if u == v:
            violations.append(f"self-loop: vertex {u}")
        if not isinstance(w, int) or w < 1:
            violations.append(f"weight-positivity: edge ({u},{v}) has weight {w}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            violations.append(f"duplicate-edge: pair {key}")
        seen.add(key)
        mirror[u].append((v, w))
        mirror[v].append((u, w))
    for v, arcs in enumerate(mirror):
        if arcs != graph.adj[v] and sorted(arcs) != sorted(graph.adj[v]):
            violations.append(f"adjacency-consistency: vertex {v}")
    return violations


# ---------------------------------------------------------------------------
# DIMACS shortest-path format (.gr): `c` comments, `p sp n m`, `a u v w`.


def load_dimacs(source) -> Graph:
    """Parse a DIMACS .gr file (a path or a text stream).

    Duplicate arcs and (u,v)/(v,u) pairs collapse to the minimum weight.
    The m of `p sp n m` counts the `a` lines.  Raises GraphFormatError with
    a line number on malformed input.  Each line is checked once, here: the
    arcs that pass are the edges `Graph.from_edges` would accept, so the
    loader collapses and sorts them itself and builds the `Graph` directly.
    """
    with opened(source) as fh:
        n = None
        arcs = 0
        best: dict[tuple[int, int], int] = {}  # (u, v), u < v, 0-based -> min weight
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                raise GraphFormatError("non-ASCII byte", lineno)
            parts = raw.split()
            if not parts:
                continue
            tag = parts[0]
            if tag == "a":
                if n is None:
                    raise GraphFormatError("arc before problem line", lineno)
                try:
                    _, u, v, w = parts
                    u, v, w = int(u), int(v), int(w)
                except ValueError:
                    raise GraphFormatError(f"malformed arc line {raw.strip()!r}", lineno) from None
                if not (1 <= u <= n and 1 <= v <= n):
                    raise GraphFormatError(
                        f"vertex id out of range [1,{n}] in {raw.strip()!r}", lineno
                    )
                if w < 1:
                    raise GraphFormatError(f"weight {w} < 1", lineno)
                if u == v:
                    raise GraphFormatError(f"self-loop at vertex {u}", lineno)
                arcs += 1
                key = (u - 1, v - 1) if u < v else (v - 1, u - 1)
                if w < best.get(key, w + 1):
                    best[key] = w
            elif tag[0] == "c":
                continue
            elif tag == "p":
                line = raw.strip()
                if n is not None:
                    raise GraphFormatError("duplicate problem line", lineno)
                if len(parts) != 4 or parts[1] != "sp":
                    raise GraphFormatError(f"malformed problem line {line!r}", lineno)
                try:
                    n, m = int(parts[2]), int(parts[3])
                except ValueError:
                    raise GraphFormatError(f"malformed problem line {line!r}", lineno)
                if n < 1:
                    raise GraphFormatError(f"vertex count {n} < 1", lineno)
                p_lineno = lineno
            else:
                raise GraphFormatError(f"unknown record {tag!r}", lineno)
        if n is None:
            raise GraphFormatError("missing problem line", None)
        if arcs != m:
            raise GraphFormatError(f"p line declares {m} arcs, found {arcs}", p_lineno)
        return Graph(n, sorted((u, v, w) for (u, v), w in best.items()))


def dump_dimacs(graph: Graph, out: TextIO, comments: dict | None = None) -> None:
    """Write a graph as DIMACS .gr; one `a` line per edge with u < v."""
    if comments:
        for key in sorted(comments):
            out.write(f"c {key} {comments[key]}\n")
    out.write(f"p sp {graph.n} {graph.m}\n")
    for u, v, w in graph.edges:
        out.write(f"a {u + 1} {v + 1} {w}\n")


# ---------------------------------------------------------------------------
# Generators.  All are pure functions of (model parameters, seed).  Each
# emits its edges unique, sorted, with u < v and integer weights >= 1, the
# canonical list `Graph` takes as it is.


def er_graph(n: int, p: float, wmin: int, wmax: int, seed: int) -> Graph:
    """Erdős–Rényi G(n, p) with uniform integer weights in [wmin, wmax]."""
    if n < 2:
        raise GraphError("er: n must be >= 2")
    if not (0 < p <= 1):
        raise GraphError("er: p must be in (0, 1]")
    if not (1 <= wmin <= wmax):
        raise GraphError("er: need 1 <= wmin <= wmax")
    rng = random.Random(seed)
    draw, weight = rng.random, rng.randint
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw() < p:
                edges.append((u, v, weight(wmin, wmax)))
    return Graph(n, edges)


def path_graph(n: int, base: float) -> Graph:
    """Path on n vertices; edge i gets weight floor(base**i), clamped to >= 1.

    An integral base gives exact integer powers; any other base is raised
    as a float, so it must be finite and base**(n-2) must fit a float.

    A base > 1 produces geometrically growing weights, the large-aspect-ratio
    regime the scale reduction is built for.  Deterministic: it takes no seed.
    """
    if n < 2:
        raise GraphError("path: n must be >= 2")
    if isinstance(base, float) and not math.isfinite(base):
        raise GraphError("path: base must be finite")
    if base < 1:
        raise GraphError("path: base must be >= 1")
    integral = base == int(base)
    if not integral:
        try:
            base ** (n - 2)
        except OverflowError:
            raise GraphError(f"path: base**{n - 2} overflows a float") from None
    edges = []
    for i in range(n - 1):
        w = int(base) ** i if integral else math.floor(base**i)
        edges.append((i, i + 1, max(1, w)))
    return Graph(n, edges)


def grid_graph(rows: int, cols: int, wmin: int, wmax: int, seed: int) -> Graph:
    """rows x cols grid with 4-neighbor edges and uniform integer weights."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise GraphError("grid: need at least 2 vertices")
    if not (1 <= wmin <= wmax):
        raise GraphError("grid: need 1 <= wmin <= wmax")
    weight = random.Random(seed).randint
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, weight(wmin, wmax)))
            if r + 1 < rows:
                edges.append((v, v + cols, weight(wmin, wmax)))
    return Graph(rows * cols, edges)

