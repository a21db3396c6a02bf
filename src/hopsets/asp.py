"""S x V approximate shortest distances and paths through a hopset.

Each source runs one hop-limited Bellman-Ford with the hopset's hop budget
over the tagged union graph G u H of a hopset `check_hopset` admits (`verify`
checks these rows below n - 1); estimates inherit the (1 + eps) contract.
Sources are answered one at a time: `asp_estimates` yields one row per
source, and `write_estimates_csv` writes a row's CSV lines in one call, and
its path lines if asked in another, before it computes the next.  With a
path-reporting hopset, predecessor chains expand into concrete graph paths
whose weight never exceeds the estimate (in reduced mode, where edge
weights carry padding, it is usually below it).  `extract_path` answers one
vertex and names every path fault; the path lines of a source come from one
forward pass over the order in which its row's kernel fixed the vertices,
each line its predecessor's line plus one step, and a vertex left without a
line has its fault named by `extract_path`.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import gcd
from typing import NamedTuple, TextIO

# hop_limited_bellman_ford is not called here: perfbench's tracer wraps this binding
from .explore import hop_limited_bellman_ford, hop_limited_rows
from .graph import Graph
from .hopset import Hopset, HopsetError


class AspResult(NamedTuple):
    """One source's estimates as scaled integers over `den`, and its predecessors.

    `order` lists the vertices the source reaches in the order the kernel
    fixed them: the source first, and every other vertex after its
    predecessor.
    """

    source: int
    den: int
    dist: list[int | None]
    pred: list[tuple[int, int] | None]
    order: list[int]

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
    return (
        AspResult(s, hopset.den, dist, pred, order) for s, dist, pred, order in rows
    )


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
    for i, (u, v, w, _, _) in enumerate(hopset.edges):
        adj[u].append((v, w, i))
        adj[v].append((u, w, i))
    return adj


def check_hopset(graph: Graph, hopset: Hopset) -> None:
    """Reject a hopset G u H cannot hold: another n, an end outside 0..n-1, a weight <= 0.

    Weights must be positive, as `load_hopset` requires: an edge of weight 0
    would put its two ends at distance 0, below any graph distance.
    """
    if hopset.n != graph.n:
        raise HopsetError(f"hopset is for n={hopset.n}, graph has n={graph.n}")
    n = graph.n
    for i, e in enumerate(hopset.edges):
        if not (0 <= e.u < n and 0 <= e.v < n):
            raise HopsetError(f"hopset edge {i} ({e.u + 1}, {e.v + 1}) leaves vertices 1..{n}")
        if e.w <= 0:
            kind = "negative" if e.w else "zero"
            w = Fraction(e.w, hopset.den)
            raise HopsetError(f"hopset edge {i} ({e.u + 1}, {e.v + 1}) has {kind} weight {w}")


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

    Every path fault is named here: a broken chain nearest v, then (hopset
    steps expanded in path order) a missing witness, a tag past the hopset's
    edges, an empty witness or a mis-joined witness, then (steps in path
    order) one that is no graph edge; a step tagged ~i must be edge i.
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
    tags = []  # beside path[1:]: a graph step's edge index, None for a witness step
    for u, x, idx in steps:
        if idx < 0:
            path.append(x)
            tags.append(~idx)
        else:
            if hopset.witnesses is None:
                raise HopsetError("hopset is not path-reporting; rebuild with witnesses")
            m = len(hopset.edges)
            if idx >= m:
                raise HopsetError(
                    f"step ({u + 1},{x + 1}) names hopset edge {idx}; the hopset has {m}"
                )
            e = hopset.edges[idx]
            wit = hopset.witnesses[idx]
            if not wit:
                raise HopsetError(f"edge {idx}: empty witness")
            segment = list(wit) if (e.u, e.v) == (u, x) else list(reversed(wit))
            if segment[0] != u or segment[-1] != x:
                raise HopsetError(f"witness for edge {idx} does not join {u + 1} and {x + 1}")
            path.extend(segment[1:])
            tags += [None] * (len(segment) - 1)
    edges = graph.edges
    total = 0
    for a, b, j in zip(path, path[1:], tags):
        if j is None:
            w = graph.weight(a, b)
        else:
            w = edges[j][2] if j < len(edges) and edges[j][:2] in ((a, b), (b, a)) else None
        if w is None:
            raise HopsetError(f"extracted step ({a + 1},{b + 1}) is not a graph edge")
        total += w
    return path, total


def _path_lines(graph: Graph, hopset: Hopset, result: AspResult, segments: dict) -> str:
    """The `format_path` lines, as one text, of each vertex v != s `result` reaches.

    Lines come in vertex order and are `extract_path`'s.  One forward pass
    over `result.order` makes each vertex's line from its predecessor's line
    and the last step: a graph step is checked by its tag ~i against
    `graph.edges[i]`, and a hopset step adds its witness after the first
    vertex.  `segments` memoises each hopset edge's checked witness text per
    orientation, (hopset edge, forward) -> text.

    The pass only finds where a fault is: a vertex gets no line when its
    predecessor is missing or has none, or when its own step fails a check.
    If a reached vertex has no line, `extract_path` on the lowest-numbered
    one raises its fault, the one a vertex-by-vertex walk meets first.
    """
    edges, m, n = graph.edges, graph.m, graph.n
    witnesses = hopset.witnesses

    def witness_text(u, x, i):
        """Step u -> x's witness text past u on hopset edge i, or None on a fault."""
        if witnesses is None or i >= len(hopset.edges):
            return None
        e = hopset.edges[i]
        forward = (e.u, e.v) == (u, x)
        try:
            wit = witnesses[i]
        except HopsetError:  # anchors the forest does not join
            return None
        if not wit or (wit[0], wit[-1]) != ((u, x) if forward else (x, u)):
            return None
        text = segments.get((i, forward))
        if text is None:
            if not forward:
                wit = wit[::-1]
            if any(graph.weight(a, b) is None for a, b in zip(wit, wit[1:])):
                return None
            text = segments[i, forward] = "".join(f" {y + 1}" for y in wit[1:])
        return text

    s, pred = result.source, result.pred
    line: list[str | None] = [None] * n
    line[s] = str(s + 1)
    for v in result.order[1:]:
        entry = pred[v]
        if entry is None:
            continue
        u, i = entry
        text = line[u]
        if text is None:  # u has no line, so v has none
            continue
        if i >= 0:
            seg = witness_text(u, v, i)
            if seg is not None:
                line[v] = text + seg
        else:
            a, b, _ = edges[~i] if ~i < m else (-1, -1, 0)  # a tag past the edges joins nothing
            if (a == u and b == v) or (a == v and b == u):
                line[v] = f"{text} {v + 1}"
    line[s] = None
    lines = [x for x in line if x is not None]
    if len(lines) < len(result.order) - 1:
        v = min(x for x in result.order[1:] if line[x] is None)
        extract_path(graph, hopset, result, v)
        raise AssertionError(f"extract_path finds no fault at vertex {v + 1}")
    lines.append("")  # so the last line ends in a newline too
    return "\n".join(lines)


def write_estimates_csv(
    graph: Graph, hopset: Hopset, sources, out: TextIO, header: dict | None = None, paths=None
) -> None:
    """CSV emission: source,vertex,estimate_num,estimate_den (1-based ids).

    Unreachable vertices get estimate inf/1.  A source's n rows are written
    with one format call, each estimate d / den in lowest terms through one
    gcd.  Given a text file `paths`, each source's rows are followed by its
    `_path_lines` there, written in one call, so a path fault at a source
    raises `HopsetError` after its rows, before its lines.
    """
    rows = asp_estimates(graph, hopset, sources)
    if header:
        for key in sorted(header):
            out.write(f"# {key} {header[key]}\n")
    out.write("source,vertex,estimate_num,estimate_den\n")
    row_format = "%d,%d,%s,%d\n" * graph.n
    segments: dict[tuple[int, bool], str] = {}
    for result in rows:
        s, den = result.source + 1, result.den
        cells = []
        for v, d in enumerate(result.dist, 1):
            if d is None:
                cells += (s, v, "inf", 1)
            else:
                g = gcd(d, den)  # d / den in lowest terms, as Fraction would print it
                cells += (s, v, d // g, den // g)
        out.write(row_format % tuple(cells))
        if paths is not None:
            paths.write(_path_lines(graph, hopset, result, segments))


def format_path(path: list[int]) -> str:
    """One whitespace-separated 1-based vertex sequence."""
    return " ".join(str(v + 1) for v in path)
