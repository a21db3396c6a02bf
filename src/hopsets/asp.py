"""S x V approximate shortest distances and paths through a hopset.

Each source runs one hop-limited Bellman-Ford over the union graph with the
hopset's hop budget; estimates inherit the (1 + eps) contract.  With a
path-reporting hopset, predecessor chains expand into concrete graph paths
whose weight never exceeds the estimate (it is usually below it in reduced
mode, where edge weights carry padding).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    beta: int
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
        beta=hopset.effective_beta,
        dist=table.dist,
        pred=table.pred,
    )


def _check(graph: Graph, hopset: Hopset, sources):
    if hopset.n != graph.n:
        raise HopsetError(f"hopset is for n={hopset.n}, graph has n={graph.n}")
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
        raise HopsetError(f"vertex {v} unreachable from {s}")
    steps = []
    cur = v
    while cur != s:
        entry = result.pred[s][cur]
        if entry is None:
            raise HopsetError(f"broken predecessor chain at {cur}")
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
                raise HopsetError(f"witness for edge {idx} does not join {u} and {x}")
            path.extend(segment[1:])
    total = 0
    for a, b in zip(path, path[1:]):
        w = graph.weight(a, b)
        if w is None:
            raise HopsetError(f"extracted step ({a},{b}) is not a graph edge")
        total += w
    return path, total


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
    for s in result.sources:
        dist = result.dist[s]
        for v in range(result.n):
            d = dist[v]
            if d is None:
                out.write(f"{s + 1},{v + 1},inf,1\n")
            else:
                f = Fraction(d, result.den)
                out.write(f"{s + 1},{v + 1},{f.numerator},{f.denominator}\n")
    return result


def format_path(path: list[int]) -> str:
    """One whitespace-separated 1-based vertex sequence."""
    return " ".join(str(v + 1) for v in path)
