"""Aspect-ratio elimination: contracted per-scale graphs and the star set.

For scale k, the contracted graph keeps original edges of weight at most
2**(k+2) and contracts every edge of weight strictly below (eps/n) * 2**k.
Contractions across all scales form a laminar family of "nodes"; every merge
of a smaller node into a larger one adds star edges from the surviving
center to the absorbed vertices, padded so they can never undershoot true
distances.  Contracted-graph edge weights carry the same padding:

    W(X, Y) = w(x, y) + (eps/n) * 2**k * (|X| + |Y|)

with (x, y) the minimum-weight original edge between the two nodes.

Scale graphs come from one ascending sweep.  The laminar family keeps a
cursor: vertex labels with every merge event up to the current scale
applied in place, and a window of live edge ids of one graph.  An edge
enters the window at the first scale with w <= 2**(k+2) and leaves it for
good once its endpoints share a node, since nodes only ever merge; so in
ascending order each edge is looked at in O(log(n/eps)) scales, not in all
of them.  The sweep only moves forward: a query for a scale below the
cursor's is an error, since a build asks for its scales in ascending order.
A scale graph keeps each node pair's minimum edge with the side it leaves
from, so it needs no labels once built and outlives the cursor's moves.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph
from .util import as_fraction, find


def relevant_scales(graph: Graph) -> list[int]:
    """Scales k >= 1 with some edge weight in [2**k / n, 2**(k+1)].

    Only these scales can contain a vertex pair at distance in
    (2**k, 2**(k+1)], so only they need a hopset.
    """
    n = graph.n
    ks: set[int] = set()
    for _, _, w in graph.edges:
        low = max(1, (w - 1).bit_length() - 1)  # smallest k with 2**(k+1) >= w
        high = (n * w).bit_length() - 1  # largest k with 2**k <= n*w
        ks.update(range(low, high + 1))
    return sorted(ks)


@dataclass(frozen=True)
class MergeEvent:
    """One contraction: node Y (smaller) absorbed into X at a scale.

    `members_absorbed` snapshots Y's vertices at merge time; `edge` is the
    contracted original edge, which joins the merged node's spanning tree.
    """

    scale: int
    survivor_center: int
    absorbed_center: int
    members_absorbed: tuple[int, ...]
    size_after: int
    edge: tuple[int, int, int]


@dataclass
class NodesView:
    """Node structure at one scale: per-vertex center label plus node sizes."""

    label: list[int]  # vertex -> center of its containing node
    sizes: dict[int, int]  # center -> member count


class LaminarFamily:
    """Merge history of the contracted nodes across all scales.

    Query `nodes_at(k)` for the node structure of the scale-k graph and
    `tree_adjacency_at(k)` for the union of node spanning trees (contracted
    edges only).  Every event joins two different nodes, so the spanning
    trees at every scale are subtrees of one forest, used to splice witness
    paths.

    `nodes_at` and `live_edges` share one forward-only cursor: k must not
    decrease from call to call, and a lower k raises `ValueError`.  Each
    call applies only the events with scale in (previous k, k] and admits
    only the edges that became light enough since.  Returned views and
    lists are the cursor's own, valid until the next call with a higher k.
    `events` must be sorted by scale, and be the contractions of `graph`.
    """

    def __init__(self, graph: Graph, eps: Fraction, events: list[MergeEvent]):
        n = graph.n
        self.graph = graph
        self.n = n
        self.eps = eps
        self.events = events
        self._scale = -math.inf  # every event with scale <= _scale is applied
        self._next = 0  # first event not applied yet
        self._label = list(range(n))
        self._sizes = {v: 1 for v in range(n)}
        bits = [(w - 1).bit_length() for _, _, w in graph.edges]
        self._entry_order = sorted(range(len(bits)), key=bits.__getitem__)
        self._entry_bits = [bits[i] for i in self._entry_order]
        self._entered = 0  # prefix of _entry_order admitted to the window
        self._window: list[int] = []

    def _advance(self, k: int) -> None:
        if k < self._scale:
            msg = f"laminar cursor is at scale {self._scale}, cannot go back to scale {k}"
            raise ValueError(msg + ": scales must be ascending")
        events, i = self.events, self._next
        label, sizes = self._label, self._sizes
        while i < len(events) and events[i].scale <= k:
            ev = events[i]
            absorbed = ev.absorbed_center
            survivor = ev.survivor_center
            for y in ev.members_absorbed:
                label[y] = survivor
            sizes[survivor] += sizes.pop(absorbed)
            i += 1
        self._next = i
        self._scale = k

    def nodes_at(self, k: int) -> NodesView:
        """The cursor's own scale-k labels and node sizes (no copies).

        Scales must be ascending; the next call with a higher k updates the
        view in place.  members_absorbed snapshots keep labels chain-free.
        """
        self._advance(k)
        return NodesView(self._label, self._sizes)

    def live_edges(self, k: int) -> list[int]:
        """Ids into `graph.edges` of the scale-k graph's inter-node edges.

        These are the edges of weight <= 2**(k+2) whose endpoints lie in
        different nodes at scale k, in an unspecified order.
        """
        self._advance(k)
        # w <= 2**(k+2) iff (w-1).bit_length() <= k+2
        j = bisect_right(self._entry_bits, k + 2)
        window = self._window
        if j > self._entered:
            window = window + self._entry_order[self._entered : j]
            self._entered = j
        edges, label = self.graph.edges, self._label
        self._window = [
            i for i in window if label[edges[i][0]] != label[edges[i][1]]
        ]
        return self._window

    def tree_adjacency_at(self, k: int) -> dict[int, list[tuple[int, int]]]:
        return forest_adjacency(ev.edge for ev in self.events if ev.scale <= k)


def forest_adjacency(edges) -> dict[int, list[tuple[int, int]]]:
    """Both orientations of each (u, v, w), keyed by vertex in first-seen order."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for u, v, w in edges:
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    return adj


def contraction_scale(w: int, n: int, eps: Fraction) -> int:
    """Smallest scale k at which an edge of weight w is contracted.

    Contraction is strict: w < (eps/n) * 2**k, i.e. 2**k > w*n/eps.  As
    w*n/eps > 2 (eps < 1/2), k is positive, and a power 2**k with k >= 0
    exceeds w*n/eps exactly when it exceeds its floor: k is the floor's
    bit length.
    """
    return (w * n * eps.denominator // eps.numerator).bit_length()


def build_laminar(graph: Graph, eps) -> LaminarFamily:
    """Sweep edges by ascending weight, contracting each at its scale.

    Union by size; equal sizes keep the lower-center-id node as survivor.
    Edges whose endpoints already share a node contract silently (no event).
    """
    eps = as_fraction(eps)
    if not (0 < eps < Fraction(1, 2)):
        raise ValueError("contraction eps must satisfy 0 < eps < 1/2")
    n = graph.n
    parent = list(range(n))
    size = [1] * n
    members: list[list[int]] = [[v] for v in range(n)]
    events: list[MergeEvent] = []
    for u, v, w in sorted(graph.edges, key=lambda e: (e[2], e[0], e[1])):
        ru, rv = find(parent, u), find(parent, v)
        if ru == rv:
            continue
        k = contraction_scale(w, n, eps)
        if size[ru] < size[rv] or (size[ru] == size[rv] and rv < ru):
            ru, rv = rv, ru
        # ru survives, rv absorbed
        absorbed = tuple(members[rv])
        parent[rv] = ru
        size[ru] += size[rv]
        members[ru].extend(members[rv])
        members[rv] = []
        events.append(
            MergeEvent(
                scale=k,
                survivor_center=ru,
                absorbed_center=rv,
                members_absorbed=absorbed,
                size_after=size[ru],
                edge=(u, v, w),
            )
        )
    events.sort(key=lambda ev: ev.scale)
    return LaminarFamily(graph, eps, events)


@dataclass(frozen=True)
class StarEdge:
    """Hopset edge from a node center to an absorbed vertex."""

    u: int  # surviving center
    v: int  # absorbed vertex
    scale: int
    weight: Fraction


def star_edges(laminar: LaminarFamily) -> list[StarEdge]:
    """One padded edge per (merge event, absorbed vertex).

    Weight (eps/n) * 2**k * |U| dominates the true center-to-vertex distance
    because the node's spanning tree connects them with at most |U|-1 edges,
    each below (eps/n) * 2**k.  The total count is at most n*log2(n); that
    bound is structural, so it is asserted here rather than reported.
    """
    n, eps = laminar.n, laminar.eps
    num, den = eps.numerator, eps.denominator * n
    out: list[StarEdge] = []
    for ev in laminar.events:
        w = Fraction(num * ev.size_after << ev.scale, den)
        for z in ev.members_absorbed:
            out.append(StarEdge(ev.survivor_center, z, ev.scale, w))
    assert len(out) <= n * math.log2(n) + 1e-9, "star set exceeded n*log2(n)"
    return out


@dataclass
class ScaleGraph:
    """The contracted graph of one scale, ready for a single-scale build.

    Only `active_centers` (nodes of degree >= 1) participate in hopset
    construction, indexed 0..active_count-1 in `adj`, whose arcs carry
    exact padded weights as scaled integers.  `best` maps each node pair
    cu < cv, keyed cu * n + cv, to one int: the id in `graph_edges` (the
    input graph's edge list) of the pair's minimum original edge, or its
    complement ~id when that edge leaves from cv's node.  So the graph
    answers `base_edge` on its own, whatever the laminar cursor does later,
    and derives its `edges` list from `adj` and `best` on each read.
    """

    n: int
    active_centers: list[int]
    adj: list[list[tuple[int, int]]]
    best: dict[int, int]
    graph_edges: list[tuple[int, int, int]]

    @property
    def active_count(self) -> int:
        return len(self.active_centers)

    @property
    def edges(self) -> list[tuple[int, int, int, tuple[int, int, int]]]:
        """(cu, cv, W, base edge) per node pair cu < cv, in (cu, cv) order.

        The base edge is the original edge as stored in the graph.
        """
        n, centers, best = self.n, self.active_centers, self.best
        graph_edges = self.graph_edges
        out = []
        for iu, arcs in enumerate(self.adj):
            cu = centers[iu]
            for iv, big_w in arcs:
                if iv > iu:
                    cv = centers[iv]
                    tag = best[cu * n + cv]
                    out.append((cu, cv, big_w, graph_edges[tag if tag >= 0 else ~tag]))
        return out

    def base_edge(self, cu: int, cv: int) -> tuple[int, int, int]:
        """Original (x, y, w) for node pair, oriented so x lies in cu's node."""
        n = self.n
        tag = self.best[cu * n + cv if cu < cv else cv * n + cu]
        x, y, w = self.graph_edges[tag if tag >= 0 else ~tag]
        return (x, y, w) if (tag >= 0) == (cu < cv) else (y, x, w)


def materialize_scale_graph(
    graph: Graph,
    laminar: LaminarFamily,
    k: int,
    den: int,
    pad: int,
) -> ScaleGraph:
    """Build the scale-k contracted graph from the laminar family.

    Keeps original edges of weight <= 2**(k+2) whose endpoints lie in
    different nodes, deduplicated per node pair by minimum original weight
    (ties by (weight, u, v) for determinism); weights are scaled integers
    over `den`.  `pad` is the laminar family's eps / n times `den`: a node
    of size s pads each of its edges by s * eps * 2**k / n, which is
    s * (pad << k).  Advances the laminar family's cursor to k, so
    calls must come in ascending k; each costs the events and window edges
    it touches (see LaminarFamily).

    One pass over the window fills `best` with an edge id per node pair
    (see ScaleGraph), comparing (w, u, v) only when two edges meet on one
    pair; one pass over the sorted pair keys writes `adj`.
    """
    n = graph.n
    view = laminar.nodes_at(k)
    label, sizes = view.label, view.sizes
    edges = graph.edges
    best: dict[int, int] = {}
    claim = best.setdefault
    for i in laminar.live_edges(k):
        u, v, w = edges[i]
        cu, cv = label[u], label[v]
        if cu < cv:
            key, tag = cu * n + cv, i
        else:
            key, tag = cv * n + cu, ~i
        old = claim(key, tag)
        if old != tag:
            x, y, wx = edges[old if old >= 0 else ~old]
            if w < wx or (w == wx and (u, v) < (x, y)):
                best[key] = tag
    keys = sorted(best)
    active_centers = sorted({key // n for key in keys} | {key % n for key in keys})
    index = {c: i for i, c in enumerate(active_centers)}
    adj: list[list[tuple[int, int]]] = [[] for _ in active_centers]
    pad_unit = pad << k
    for key in keys:
        cu, cv = divmod(key, n)
        tag = best[key]
        big_w = edges[tag if tag >= 0 else ~tag][2] * den + pad_unit * (sizes[cu] + sizes[cv])
        iu, iv = index[cu], index[cv]
        adj[iu].append((iv, big_w))
        adj[iv].append((iu, big_w))
    return ScaleGraph(
        n=n, active_centers=active_centers, adj=adj, best=best, graph_edges=edges
    )


def activity_stats(laminar: LaminarFamily, scales) -> dict:
    """Active-node accounting across scales.

    A node is active at scale k if it has degree >= 1 in the scale-k graph,
    i.e. is an endpoint of one of its `live_edges`.  Those and `nodes_at`
    read the laminar cursor, so `scales` must be ascending (repeats are
    fine) and make one sweep.
    Nodes are identified by (center, birth scale) since the same center can
    head successively larger nodes; a birth is the scale of the last event
    the center survived (0 if none), read off `laminar.events` as the sweep
    goes (an absorbed center heads no node again).  Returns per-scale active
    counts, the per-node activity spans, and the claimed per-node bound
    log2(n/eps) + 2 (reported, not asserted: see the verification module's
    outlier policy).
    """
    graph, eps, events = laminar.graph, laminar.eps, laminar.events
    birth: dict[int, int] = {}
    j = 0  # first event not yet read into birth
    per_node: dict[tuple[int, int], int] = {}
    n_k: dict[int, int] = {}
    for k in scales:
        label = laminar.nodes_at(k).label
        while j < len(events) and events[j].scale <= k:
            birth[events[j].survivor_center] = events[j].scale
            j += 1
        active: set[int] = set()
        for i in laminar.live_edges(k):
            u, v, _ = graph.edges[i]
            active.add(label[u])
            active.add(label[v])
        n_k[k] = len(active)
        for c in active:
            key = (c, birth.get(c, 0))
            per_node[key] = per_node.get(key, 0) + 1
    bound = math.log2(graph.n / eps) + 2
    max_span = max(per_node.values(), default=0)
    return {
        "n_k": n_k,
        "total_active": sum(n_k.values()),
        "per_node_scales": per_node,
        "max_activity": max_span,
        "activity_bound": bound,
        "nodes_over_bound": sorted(
            key for key, cnt in per_node.items() if cnt > bound
        ),
    }
