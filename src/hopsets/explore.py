"""Exploration primitives: depth-bounded Dijkstra and hop-limited Bellman-Ford.

Everything here works on adjacency lists of (neighbor, weight) with plain
integer weights (already scaled by the build's one denominator when weights
are fractional).  All distances returned are exact.  Bounded explorations
run to a finite depth in one loop, `multi_source_bounded_dijkstra`
(`bounded_dijkstra` is its one-root case), and return its
`ExplorationForest`; full sweeps are `dijkstra_all`, which can stop once a
given target set has settled.  Hop-limited distances d^(t) come from a
(distance, hops) Dijkstra when t >= n - 1, where d^(t) is the plain
shortest distance, and from frontier Bellman-Ford rounds below that.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush


@dataclass
class ExplorationForest:
    """Result of a multi-source bounded Dijkstra.

    Only reached vertices appear in the maps.  For every reached v,
    `root[v]` is the source whose tree v joined, and following `parent`
    pointers from v ends at that root with edge weights summing to dist[v].
    """

    dist: dict[int, int]
    root: dict[int, int]
    parent: dict[int, int | None]

    def path_from_root(self, v: int) -> list[int]:
        path = [v]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        path.reverse()
        return path


def multi_source_bounded_dijkstra(
    adj: list[list[tuple[int, int]]],
    roots,
    depth: int,
) -> ExplorationForest:
    """Dijkstra from a set of roots, exploring to distance <= depth (inclusive).

    Equidistant vertices join the tree of the lowest-id root: the heap is
    keyed by (distance, root), so label propagation is lexicographic and the
    resulting forest is deterministic regardless of container order.
    """
    roots = sorted(set(roots))
    if not roots:
        raise ValueError("roots must be non-empty")
    dist: dict[int, int] = {}
    rootof: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    best: dict[int, tuple[int, int]] = {}
    heap = []
    for r in roots:
        best[r] = (0, r)
        heappush(heap, (0, r, r, None))
    while heap:
        d, r, v, par = heappop(heap)
        if v in dist:  # stale: a push strictly lowers best[v], so v's first pop is best
            continue
        dist[v] = d
        rootof[v] = r
        parent[v] = par
        for u, w in adj[v]:
            if u in dist:
                continue
            nd = d + w
            if nd > depth:
                continue
            cand = (nd, r)
            if u not in best or cand < best[u]:
                best[u] = cand
                heappush(heap, (nd, r, u, v))
    return ExplorationForest(dist, rootof, parent)


def bounded_dijkstra(
    adj: list[list[tuple[int, int]]],
    source: int,
    depth: int,
) -> ExplorationForest:
    """Single-source Dijkstra to distance <= depth (inclusive).

    The one-root case of `multi_source_bounded_dijkstra`, whose forest it
    returns: every reached vertex has root `source`.
    """
    return multi_source_bounded_dijkstra(adj, (source,), depth)


def dijkstra_all(
    adj: list[list[tuple[int, int]]], source: int, targets=None
) -> list[int | None]:
    """Exact single-source distances as a dense array.

    Without `targets` the sweep settles every reachable vertex, and None
    means unreachable.  With `targets` it stops as soon as every target has
    settled (Dijkstra settles vertices in final order, so the values it has
    are exact), and None means not settled: every other entry may be None,
    and a target left at None is unreachable from `source`.
    """
    n = len(adj)
    dist: list[int | None] = [None] * n  # settled
    best: list[int | None] = [None] * n  # tentative
    left = 0
    if targets is not None:
        wanted = bytearray(n)
        for v in targets:
            if not wanted[v]:
                wanted[v] = 1
                left += 1
        if not left:
            return dist
    best[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heappop(heap)
        if dist[u] is not None:
            continue
        dist[u] = d
        if left and wanted[u]:
            left -= 1
            if not left:
                break
        for v, w in adj[u]:
            nd = d + w
            b = best[v]
            if b is None or nd < b:
                best[v] = nd
                heappush(heap, (nd, v))
    return dist


@dataclass
class HopLimitedTable:
    """Exact t-limited distances d^(t) from a set of sources.

    dist[s][v] is the minimum length of a path from s to v with at most t
    edges (None if no such path).  pred[s][v] is (u, tag) for the winning
    last edge: with h the fewest edges any such minimum path needs, it is the
    lexicographically smallest (u, tag) over arcs u->v with
    d^(h-1)[u] + w == dist[s][v], i.e. the tie a Bellman-Ford round settles
    when v first reaches its final value.
    """

    t: int
    sources: list[int]
    dist: dict[int, list[int | None]]
    pred: dict[int, list[tuple[int, object] | None]]


def hop_limited_bellman_ford(
    n: int,
    edges,
    sources,
    t: int,
) -> HopLimitedTable:
    """Exact at-most-t-edges distances from each source.

    `edges` is an iterable of (u, v, w, tag) treated as undirected, with
    weights w >= 0 (a negative weight raises ValueError); `tag` is opaque
    and comes back in predecessor entries (the hopset machinery passes
    ("g", i) / ("h", i) tags for path extraction).  The adjacency is built
    once per call and shared by every source.

    The method follows from t and n alone; both are exact:
    - t >= n - 1 (n > 1): a minimum path never needs more than n - 1 edges,
      so d^(t) is the plain shortest distance.  One Dijkstra per source,
      keyed on (distance, hops), yields it together with the fewest edges h
      each vertex needs; the predecessor tie is settled among arcs out of
      vertices at h - 1 hops, which all leave the heap first.
    - t < n - 1: t Bellman-Ford rounds.  Round j relaxes only arcs out of
      vertices lowered in round j - 1 (no other arc can lower or tie a
      value), reading their values as they stood at the start of the
      round, so the result is d^(t) exactly rather than something between
      d^(t) and d.  Rounds stop once one lowers nothing.

    Ties on equal distance are broken toward the lexicographically smallest
    (neighbor id, tag) so predecessor trees are deterministic.
    """
    if t < 0:
        raise ValueError("hop budget must be >= 0")
    adj: list[list[tuple[int, int, object]]] = [[] for _ in range(n)]
    for u, v, w, tag in edges:
        if w < 0:
            raise ValueError(f"negative weight {w} on edge ({u}, {v})")
        adj[u].append((v, w, tag))
        adj[v].append((u, w, tag))
    table_dist: dict[int, list[int | None]] = {}
    table_pred: dict[int, list[tuple[int, object] | None]] = {}
    src_list = sorted(set(sources))
    for s in src_list:
        if n > 1 and t >= n - 1:
            dist, pred = _fewest_hops_dijkstra(adj, s)
        else:
            dist, pred = _frontier_rounds(adj, s, min(t, max(0, n - 1)))
        table_dist[s] = dist
        table_pred[s] = pred
    return HopLimitedTable(t, src_list, table_dist, table_pred)


def _fewest_hops_dijkstra(adj, s):
    """Shortest distances from s; pred settles ties among fewest-hop arcs."""
    n = len(adj)
    dist: list[int | None] = [None] * n
    hops = [0] * n
    pred: list[tuple[int, object] | None] = [None] * n
    done = [False] * n
    dist[s] = 0
    heap = [(0, 0, s)]
    while heap:
        d, h, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        h += 1
        for v, w, tag in adj[u]:
            if done[v]:
                continue
            cand = d + w
            dv = dist[v]
            if dv is None or cand < dv or (cand == dv and h < hops[v]):
                dist[v] = cand
                hops[v] = h
                pred[v] = (u, tag)
                heappush(heap, (cand, h, v))
            elif cand == dv and h == hops[v] and (u, tag) < pred[v]:
                pred[v] = (u, tag)
    return dist, pred


def _frontier_rounds(adj, s, rounds):
    """`rounds` Bellman-Ford rounds from s, each relaxing only the last frontier."""
    n = len(adj)
    dist: list[int | None] = [None] * n
    pred: list[tuple[int, object] | None] = [None] * n
    stamp = [-1] * n  # round in which dist[v] was last lowered
    dist[s] = 0
    frontier = [s]
    for rnd in range(rounds):
        lowered = []
        # read the frontier as it stood at the start of the round
        for u, du in [(u, dist[u]) for u in frontier]:
            for v, w, tag in adj[u]:
                cand = du + w
                dv = dist[v]
                if dv is None or cand < dv:
                    dist[v] = cand
                    pred[v] = (u, tag)
                    if stamp[v] != rnd:
                        stamp[v] = rnd
                        lowered.append(v)
                elif cand == dv and stamp[v] == rnd and (u, tag) < pred[v]:
                    pred[v] = (u, tag)
        if not lowered:
            break
        frontier = lowered
    return dist, pred
