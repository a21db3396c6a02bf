"""S x V approximate shortest distances and paths through a hopset.

Each source runs one hop-limited Bellman-Ford over the union graph with the
hopset's hop budget; estimates inherit the (1 + eps) contract.  With a
path-reporting hopset, predecessor chains expand into concrete graph paths
whose weight never exceeds the estimate (it is usually below it in reduced
mode, where edge weights carry padding).  `write_paths` emits every path of
a source in one walk of its predecessor forest: a vertex's path is its
predecessor's path plus one step, and each hopset edge's witness is checked
and formatted once per orientation.  `extract_path` answers a single pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import TextIO

from .explore import hop_limited_bellman_ford
from .graph import Graph
from .hopset import Hopset, HopsetError
from .verify import _union_edges


@dataclass
class AspResult:
    """Per-(source, vertex) estimates as scaled integers over `den`."""

    sources: list[int]
    n: int
    den: int
    dist: dict[int, list[int | None]]
    pred: dict[int, list[tuple[int, object] | None]]

    def estimate(self, s: int, v: int) -> Fraction | None:
        d = self.dist[s][v]
        return None if d is None else Fraction(d, self.den)


def asp_estimates(graph: Graph, hopset: Hopset, sources) -> AspResult:
    """Estimates for all given sources: one |S| x n table, held in memory."""
    sources = sorted(set(sources))
    _check(graph, hopset, sources)
    den = hopset.weight_scale().den
    rel = _union_edges(graph, hopset, den)
    table = hop_limited_bellman_ford(graph.n, rel, sources, hopset.effective_beta)
    return AspResult(
        sources=sources,
        n=graph.n,
        den=den,
        dist=table.dist,
        pred=table.pred,
    )


def _check(graph: Graph, hopset: Hopset, sources):
    if hopset.n != graph.n:
        raise HopsetError(f"hopset is for n={hopset.n}, graph has n={graph.n}")
    if not sources:
        raise HopsetError("no sources given")
    for s in sources:
        if not (0 <= s < graph.n):
            raise HopsetError(f"source {s} out of range")


def extract_path(
    graph: Graph, hopset: Hopset, result: AspResult, s: int, v: int
) -> tuple[list[int], int]:
    """Concrete graph path realizing the estimate for (s, v).

    Follows Bellman-Ford predecessors and expands every hopset edge to its
    witness.  Returns (vertex sequence, total weight); the weight is at most
    the estimate, while the hop count may exceed the hop budget (witness
    expansions are longer than the hopset edges they replace).
    """
    if result.dist[s][v] is None:
        raise HopsetError(f"vertex {v + 1} unreachable from {s + 1}")
    steps = []
    cur = v
    while cur != s:
        entry = result.pred[s][cur]
        if entry is None:
            raise HopsetError(f"broken predecessor chain at {cur + 1}")
        u, tag = entry
        steps.append((u, cur, tag))
        cur = u
    steps.reverse()
    path = [s]
    for u, x, (kind, idx) in steps:
        if kind == "g":
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


def write_paths(graph: Graph, hopset: Hopset, result: AspResult, out: TextIO) -> None:
    """Write one `format_path` line per source and reachable vertex v != s.

    Lines come in `extract_path` order (sources ascending, then vertices)
    and equal its output.  The checks are the same, so the first that fails
    raises the `HopsetError` `extract_path` would raise for the same pair;
    a graph step is checked by its ("g", i) tag against `graph.edges[i]`.
    Each source's predecessor forest is walked once: the line of a vertex is
    its predecessor's line plus the last step's segment, memoised for the
    source.  Each hopset edge's witness is checked and formatted once per
    orientation.
    """
    edges, m = graph.edges, graph.m
    segments: dict[tuple[int, bool], str] = {}  # (hopset edge, forward) -> text

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

    for s in result.sources:
        dist, pred = result.dist[s], result.pred[s]
        line: list[str | None] = [None] * result.n
        line[s] = str(s + 1)
        for v in range(result.n):
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
            for u, x, (kind, i) in steps:
                if kind != "g":
                    orientation(u, x, i)
            for u, x, (kind, i) in steps:
                if kind != "g":
                    line[x] = line[u] + segment(orientation(u, x, i))
                elif 0 <= i < m and edges[i][:2] in ((u, x), (x, u)):
                    line[x] = f"{line[u]} {x + 1}"
                else:
                    raise HopsetError(f"extracted step ({u + 1},{x + 1}) is not a graph edge")
        out.writelines(
            line[v] + "\n" for v in range(result.n) if v != s and dist[v] is not None
        )


def write_estimates_csv(
    graph: Graph, hopset: Hopset, sources, out: TextIO, header: dict | None = None
) -> AspResult:
    """CSV emission: source,vertex,estimate_num,estimate_den (1-based ids).

    Unreachable vertices get estimate inf/1.  Returns the `asp_estimates`
    result the rows came from, so paths can be extracted without a second
    Bellman-Ford run.
    """
    result = asp_estimates(graph, hopset, sources)
    if header:
        for key in sorted(header):
            out.write(f"# {key} {header[key]}\n")
    out.write("source,vertex,estimate_num,estimate_den\n")
    den = result.den
    for s in result.sources:
        dist = result.dist[s]
        for v in range(result.n):
            d = dist[v]
            if d is None:
                out.write(f"{s + 1},{v + 1},inf,1\n")
            else:
                g = gcd(d, den)  # d / den in lowest terms, as Fraction would print it
                out.write(f"{s + 1},{v + 1},{d // g},{den // g}\n")
    return result


def format_path(path: list[int]) -> str:
    """One whitespace-separated 1-based vertex sequence."""
    return " ".join(str(v + 1) for v in path)
