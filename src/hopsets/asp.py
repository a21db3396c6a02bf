"""S x V approximate shortest distances and paths through a hopset.

Each source runs one hop-limited Bellman-Ford with the hopset's hop budget
over the tagged union graph G u H of a hopset `check_hopset` admits (`verify`
checks these rows below n - 1); estimates inherit the (1 + eps) contract.
Sources are answered one at a time: `asp_estimates` yields one row per
source, and `write_estimates_csv` writes a row's CSV lines, and its path
lines if asked, before it computes the next.  With a path-reporting hopset,
predecessor chains expand into concrete graph paths whose weight never
exceeds the estimate (in reduced mode, where edge weights carry padding, it
is usually below it).  `extract_path` answers one vertex; the path lines of
a source come from one walk of its predecessor forest.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import TextIO

# hop_limited_bellman_ford is not called here: perfbench's tracer wraps this binding
from .explore import hop_limited_bellman_ford, hop_limited_rows
from .graph import Graph
from .hopset import Hopset, HopsetError


@dataclass
class AspResult:
    """One source's estimates as scaled integers over `den`, and its predecessors."""

    source: int
    den: int
    dist: list[int | None]
    pred: list[tuple[int, int] | None]

    def estimate(self, v: int) -> Fraction | None:
        d = self.dist[v]
        return None if d is None else Fraction(d, self.den)


def asp_estimates(graph: Graph, hopset: Hopset, sources) -> Iterator[AspResult]:
    """One row per source, in ascending source order, each computed when drawn.

    The graph, the hopset and the sources are checked before this returns.
    """
    check_hopset(graph, hopset)
    sources = sorted(set(sources))
    check_sources(graph.n, sources)
    rows = hop_limited_rows(_union_adjacency(graph, hopset), sources, hopset.effective_beta)
    return (AspResult(s, hopset.den, dist, pred) for s, dist, pred in rows)


def _union_adjacency(graph: Graph, hopset: Hopset):
    """Undirected (neighbor, weight over the hopset's den, tag) lists of G u H.

    Graph edge i is tagged ~i < 0 and hopset edge i is tagged i, so predecessor
    ties take graph arcs first, then hopset arcs by index; `check_hopset` has run.
    """
    den = hopset.den
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(graph.n)]
    for i, (u, v, w) in enumerate(graph.edges):
        adj[u].append((v, w * den, ~i))
        adj[v].append((u, w * den, ~i))
    for i, e in enumerate(hopset.edges):
        adj[e.u].append((e.v, e.w, i))
        adj[e.v].append((e.u, e.w, i))
    return adj


def check_hopset(graph: Graph, hopset: Hopset) -> None:
    """Reject a hopset G u H cannot hold: another n, an end outside 0..n-1, a weight < 0."""
    if hopset.n != graph.n:
        raise HopsetError(f"hopset is for n={hopset.n}, graph has n={graph.n}")
    n = graph.n
    for i, e in enumerate(hopset.edges):
        if not (0 <= e.u < n and 0 <= e.v < n):
            raise HopsetError(f"hopset edge {i} ({e.u + 1}, {e.v + 1}) leaves vertices 1..{n}")
        if e.w < 0:
            raise HopsetError(f"negative weight {e.w} on edge ({e.u}, {e.v})")


def check_sources(n: int, sources) -> None:
    """Reject an empty source set, or a source outside 0..n-1, by its 1-based id."""
    if not sources:
        raise HopsetError("no sources given")
    for s in sources:
        if not 0 <= s < n:
            raise HopsetError(f"source {s + 1} out of range: vertices are 1..{n}")


def extract_path(graph: Graph, hopset: Hopset, result: AspResult, v: int) -> tuple[list[int], int]:
    """Concrete graph path realizing the estimate for (result.source, v).

    Follows Bellman-Ford predecessors and expands every hopset edge to its
    witness.  Returns (vertex sequence, total weight); the weight is at most
    the estimate, while the hop count may exceed the hop budget (witness
    expansions are longer than the hopset edges they replace).
    """
    s = result.source
    if result.dist[v] is None:
        raise HopsetError(f"vertex {v + 1} unreachable from {s + 1}")
    steps = []
    cur = v
    while cur != s:
        entry = result.pred[cur]
        if entry is None:
            raise HopsetError(f"broken predecessor chain at {cur + 1}")
        steps.append((entry[0], cur, entry[1]))
        cur = entry[0]
    steps.reverse()
    path = [s]
    for u, x, idx in steps:
        if idx < 0:
            path.append(x)
        else:
            if hopset.witnesses is None:
                raise HopsetError("hopset is not path-reporting; rebuild with witnesses")
            e = hopset.edges[idx]
            wit = hopset.witnesses[idx]
            segment = list(wit) if (e.u, e.v) == (u, x) else list(reversed(wit))
            if segment[0] != u or segment[-1] != x:
                raise HopsetError(f"witness for edge {idx} does not join {u + 1} and {x + 1}")
            path.extend(segment[1:])
    total = 0
    for a, b in zip(path, path[1:]):
        w = graph.weight(a, b)
        if w is None:
            raise HopsetError(f"extracted step ({a + 1},{b + 1}) is not a graph edge")
        total += w
    return path, total


def _path_lines(graph: Graph, hopset: Hopset, result: AspResult, segments: dict) -> list[str]:
    """One `format_path` line per vertex v != s that `result` reaches, in vertex order.

    Lines and errors are `extract_path`'s, vertex by vertex; a graph step is
    checked by its tag ~i against `graph.edges[i]`.  The predecessor
    forest is walked once: a vertex's line is its predecessor's line plus
    the last step's segment.  `segments` memoises each hopset edge's checked
    witness text per orientation, (hopset edge, forward) -> text.
    """
    edges, m, n = graph.edges, graph.m, graph.n

    def orientation(u, x, idx):
        if hopset.witnesses is None:
            raise HopsetError("hopset is not path-reporting; rebuild with witnesses")
        e = hopset.edges[idx]
        forward = (e.u, e.v) == (u, x)
        wit = hopset.witnesses[idx]
        if (wit[0], wit[-1]) != ((u, x) if forward else (x, u)):
            raise HopsetError(f"witness for edge {idx} does not join {u + 1} and {x + 1}")
        return idx, forward

    def segment(key):
        """' v2 v3 ...': 1-based text of an oriented witness after its first vertex."""
        text = segments.get(key)
        if text is None:
            wit = hopset.witnesses[key[0]]
            if not key[1]:
                wit = wit[::-1]
            for a, b in zip(wit, wit[1:]):
                if graph.weight(a, b) is None:
                    raise HopsetError(f"extracted step ({a + 1},{b + 1}) is not a graph edge")
            text = segments[key] = "".join(f" {x + 1}" for x in wit[1:])
        return text

    s, dist, pred = result.source, result.dist, result.pred
    line: list[str | None] = [None] * n
    line[s] = str(s + 1)
    for v in range(n):
        if line[v] is not None or dist[v] is None:
            continue
        steps = []  # back from v to the nearest vertex with a line
        cur = v
        while line[cur] is None:
            entry = pred[cur]
            if entry is None:
                raise HopsetError(f"broken predecessor chain at {cur + 1}")
            steps.append((entry[0], cur, entry[1]))
            cur = entry[0]
        steps.reverse()
        # as in extract_path: expand every hopset step, then check each edge
        for u, x, i in steps:
            if i >= 0:
                orientation(u, x, i)
        for u, x, i in steps:
            if i >= 0:
                line[x] = line[u] + segment(orientation(u, x, i))
            elif ~i < m and edges[~i][:2] in ((u, x), (x, u)):
                line[x] = f"{line[u]} {x + 1}"
            else:
                raise HopsetError(f"extracted step ({u + 1},{x + 1}) is not a graph edge")
    return [line[v] + "\n" for v in range(n) if v != s and dist[v] is not None]


def write_estimates_csv(
    graph: Graph, hopset: Hopset, sources, out: TextIO, header: dict | None = None, paths=None
) -> None:
    """CSV emission: source,vertex,estimate_num,estimate_den (1-based ids).

    Unreachable vertices get estimate inf/1.  Given a text file `paths`,
    each source's rows are followed by its `_path_lines` there, so a path
    fault at a source raises `HopsetError` after its rows, before its lines.
    """
    rows = asp_estimates(graph, hopset, sources)
    if header:
        for key in sorted(header):
            out.write(f"# {key} {header[key]}\n")
    out.write("source,vertex,estimate_num,estimate_den\n")
    segments: dict[tuple[int, bool], str] = {}
    for result in rows:
        s, den = result.source + 1, result.den
        for v, d in enumerate(result.dist, 1):
            if d is None:
                out.write(f"{s},{v},inf,1\n")
            else:
                g = gcd(d, den)  # d / den in lowest terms, as Fraction would print it
                out.write(f"{s},{v},{d // g},{den // g}\n")
        if paths is not None:
            paths.writelines(_path_lines(graph, hopset, result, segments))


def format_path(path: list[int]) -> str:
    """One whitespace-separated 1-based vertex sequence."""
    return " ".join(str(v + 1) for v in path)
