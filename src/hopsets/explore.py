"""Exploration primitives: depth-bounded Dijkstra and hop-limited Bellman-Ford.

Everything here works on adjacency lists of (neighbor, weight) with plain
integer weights (already scaled by the build's one denominator when weights
are fractional), or (neighbor, weight, opaque tag) for hop limits.  All
distances returned are exact.  Bounded explorations run to a finite depth
in one loop, `multi_source_bounded_dijkstra` (`bounded_dijkstra` is its
one-root case), and return its `ExplorationForest`; full sweeps are
`dijkstra_all`, which can stop once a given target set has settled or past
a distance limit.  One s-t distance comes from `pair_distance`, a Dijkstra
from both ends that meets in the middle.  Hop-limited distances d^(t) come
from a (distance, hops) Dijkstra when t >= n - 1, where d^(t) is the plain
shortest distance, and from frontier Bellman-Ford rounds below that, one
source at a time (`hop_limited_bellman_ford` collects the rows in a table).
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from math import inf
from typing import NamedTuple


class ExplorationForest(NamedTuple):
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
    adj: list[list[tuple[int, int]]], source: int, targets=None, limit=None
) -> list[int | None]:
    """Exact single-source distances as a dense array.

    Without `targets` the sweep settles every reachable vertex, and None
    means unreachable.  With `targets` it stops as soon as every target has
    settled (Dijkstra settles vertices in final order, so the values it has
    are exact), and None means not settled: every other entry may be None,
    and a target left at None is unreachable from `source`.  With `limit`
    it also stops before settling a vertex farther than `limit`, so a
    target left at None is then unreachable or farther than `limit`.
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
        if limit is not None and d > limit:
            break
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


def pair_distance(adj: list[list[tuple[int, int]]], s: int, t: int) -> int | None:
    """Exact s-t distance (None if unreachable) by Dijkstra from both ends.

    `adj` is undirected with weights >= 0, so the backward search from t
    runs on it unchanged.  mu, the least dist_f[v] + dist_b[v] over the
    tentative values of both sides, is updated whenever either drops; once
    the two heap tops sum to at least mu, no shorter path is left.  An
    emptied heap means its side has settled its whole component, so mu is
    exact then too, and still infinite if the sides never met.

    Each step settles one vertex on the side whose heap top has grown most
    per vertex it has settled, a side that has settled nothing first.  Both
    tops count alike toward the stop, so this expands whichever side closes
    the gap faster.  Expanding the smaller top instead stalls on geometric
    weights, where the light side crawls through every light edge.
    """
    if s == t:
        return 0
    n = len(adj)
    dist_f: list[int | None] = [None] * n  # tentative, final once popped
    dist_b: list[int | None] = [None] * n
    dist_f[s] = 0
    dist_b[t] = 0
    heap_f = [(0, s)]
    heap_b = [(0, t)]
    settled_f = settled_b = 0
    mu = inf
    while heap_f and heap_b:
        top_f = heap_f[0][0]
        top_b = heap_b[0][0]
        if top_f + top_b >= mu:
            break
        if not settled_f or (settled_b and top_f * settled_b >= top_b * settled_f):
            heap, dist, other = heap_f, dist_f, dist_b
        else:
            heap, dist, other = heap_b, dist_b, dist_f
        d, u = heappop(heap)
        if d > dist[u]:  # stale: each push strictly lowers dist[u]
            continue
        if heap is heap_f:
            settled_f += 1
        else:
            settled_b += 1
        for v, w in adj[u]:
            nd = d + w
            b = dist[v]
            if b is None or nd < b:
                dist[v] = nd
                heappush(heap, (nd, v))
                o = other[v]
                if o is not None and nd + o < mu:
                    mu = nd + o
    return None if mu == inf else mu


class HopLimitedTable(NamedTuple):
    """Exact t-limited distances d^(t) from a set of sources.

    dist[s][v] is the minimum length of a path from s to v with at most t
    edges (None if no such path).  pred[s][v] is (u, tag) for the winning
    last arc u->v: with h the fewest edges any such minimum path needs, the
    lexicographically smallest (u, tag) over arcs u->v with
    d^(h-1)[u] + w == dist[s][v], the tie a Bellman-Ford round settles
    when v first reaches its final value.
    """

    t: int
    sources: list[int]
    dist: dict[int, list[int | None]]
    pred: dict[int, list[tuple[int, object] | None]]


def hop_limited_rows(adj, sources, t: int):
    """Exact at-most-t-edges distances, one source at a time.

    `adj` holds undirected (neighbor, weight >= 0, tag) lists; `tag` comes
    back in predecessor entries.  t < 0 raises ValueError before this returns
    an iterator of (s, dist, pred, order), one per source s in ascending
    order: dist and pred are the rows `HopLimitedTable` describes, and order
    lists the vertices s reaches, s first and every other vertex after its
    predecessor, so one forward pass over it can extend each vertex's path
    from its predecessor's.

    The method follows from t and n = len(adj) alone; both are exact:
    - t >= n - 1 (n > 1): a minimum path never needs more than n - 1 edges,
      so d^(t) is the plain shortest distance.  One Dijkstra per source,
      keyed on (distance, hops), yields it together with the fewest edges h
      each vertex needs; the predecessor tie is settled among arcs out of
      vertices at h - 1 hops, which all leave the heap first.  The order is
      the heap's settle order: a predecessor is always settled first.
    - t < n - 1: t Bellman-Ford rounds.  Round j relaxes only arcs out of
      vertices lowered in round j - 1 (no other arc can lower or tie a
      value), reading their values as they stood at the start of the
      round, so the result is d^(t) exactly rather than something between
      d^(t) and d.  Rounds stop once one lowers nothing.  The order is by
      ascending distance, ties by the round that last lowered the vertex: a
      predecessor's final distance is below its successor's, or equal and
      final a round earlier (possible only across a weight-0 arc).

    Ties on equal distance are broken toward the lexicographically smallest
    (neighbor id, tag) so predecessor trees are deterministic.
    """
    if t < 0:
        raise ValueError("hop budget must be >= 0")
    n = len(adj)
    if n > 1 and t >= n - 1:
        row = _fewest_hops_dijkstra
    else:
        row = partial(_frontier_rounds, rounds=min(t, max(0, n - 1)))
    return ((s, *row(adj, s)) for s in sorted(set(sources)))


def hop_limited_bellman_ford(adj, sources, t: int) -> HopLimitedTable:
    """`hop_limited_rows` collected into one table of every source's rows."""
    table = HopLimitedTable(t, [], {}, {})
    for s, dist, pred, _ in hop_limited_rows(adj, sources, t):
        table.sources.append(s)
        table.dist[s] = dist
        table.pred[s] = pred
    return table


def _fewest_hops_dijkstra(adj, s):
    """Shortest distances from s; pred settles ties among fewest-hop arcs."""
    n = len(adj)
    dist: list[int | None] = [None] * n
    hops = [0] * n
    pred: list[tuple[int, object] | None] = [None] * n
    done = [False] * n
    order = []
    dist[s] = 0
    heap = [(0, 0, s)]
    while heap:
        d, h, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        order.append(u)
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
    return dist, pred, order


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
    order = [v for v in range(n) if dist[v] is not None]
    order.sort(key=lambda v: (dist[v], stamp[v]))
    return dist, pred, order
