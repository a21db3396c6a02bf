from fractions import Fraction
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopsets import (
    Graph,
    Hopset,
    HopsetEdge,
    asp_estimates,
    bounded_dijkstra,
    dijkstra_all,
    er_graph,
    hop_limited_bellman_ford,
    hop_limited_rows,
    interconnect_phase,
    multi_source_bounded_dijkstra,
    pair_distance,
    path_graph,
)
from hopsets.explore import ExplorationForest
from hopsets.single_scale import ScaleEdge


# ---------------------------------------------------------------------------
# References: the two bounded Dijkstra loops and `interconnect_phase` as they
# were before `bounded_dijkstra` became the one-root case of
# `multi_source_bounded_dijkstra` and interconnection skipped centers whose
# every arc is longer than `half`.  Kept verbatim but for their names, and
# for the interconnection reference taking center ids, as partitions now are.


def reference_multi_source_bounded_dijkstra(
    adj: list[list[tuple[int, int]]],
    roots,
    depth: int | None,
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
        if v in dist or best.get(v) != (d, r):
            continue
        dist[v] = d
        rootof[v] = r
        parent[v] = par
        for u, w in adj[v]:
            if u in dist:
                continue
            nd = d + w
            if depth is not None and nd > depth:
                continue
            cand = (nd, r)
            if u not in best or cand < best[u]:
                best[u] = cand
                heappush(heap, (nd, r, u, v))
    return ExplorationForest(dist, rootof, parent)


def reference_bounded_dijkstra(
    adj: list[list[tuple[int, int]]],
    source: int,
    depth: int | None,
) -> tuple[dict[int, int], dict[int, int | None]]:
    """Single-source Dijkstra to distance <= depth (inclusive).

    Returns exact distances and parent pointers over the reached set.
    """
    dist: dict[int, int] = {}
    parent: dict[int, int | None] = {source: None}
    seen: dict[int, int] = {source: 0}
    heap = [(0, source)]
    while heap:
        d, v = heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        for u, w in adj[v]:
            if u in dist:
                continue
            nd = d + w
            if depth is not None and nd > depth:
                continue
            if u not in seen or nd < seen[u]:
                seen[u] = nd
                parent[u] = v
                heappush(heap, (nd, u))
    return dist, parent


def reference_interconnect_phase(
    adj, unclustered: list[int], half: int
) -> tuple[list[ScaleEdge], int]:
    """Link every pair of unclustered centers within `half` (inclusive).

    `half` is the phase's delta_i / 2 as a scaled integer.  Each center runs
    its own bounded exploration; a pair is emitted once, from its lower-id
    endpoint (distance symmetry makes both sides agree).  Returns the edges
    and the interconnection load: the vertices reached, summed over the
    explorations.
    """
    centers = sorted(unclustered)
    center_set = set(centers)
    edges: list[ScaleEdge] = []
    visits = 0
    for c in centers:
        dist, parent = reference_bounded_dijkstra(adj, c, half)
        visits += len(dist)
        for v, d in sorted(dist.items()):
            if v in center_set and v > c:
                path = [v]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                edges.append(ScaleEdge(u=c, v=v, w=d, kind="interconnect", path=tuple(path)))
    return edges, visits


@st.composite
def bounded_queries(draw):
    """A multigraph adjacency of 1-12 vertices and a finite depth.

    Weights are 0-5.  The depth is either 0-7, with weights often exactly
    the depth, or at least the total arc weight, so that the exploration
    reaches every vertex its source can; self-loops, parallel arcs and each
    vertex's arc order are drawn at random."""
    n = draw(st.integers(1, 12))
    reach_all = draw(st.booleans())
    depth = None if reach_all else draw(st.integers(0, 7))
    weight = st.integers(0, 5)
    if not reach_all:
        weight = st.one_of(weight, st.just(depth))
    vertex = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=3 * n))
    arcs += arcs[: draw(st.integers(0, 3))]  # repeats: parallel arcs
    if reach_all:
        depth = sum(w for _, _, w in arcs) + draw(st.integers(0, 2))
    adj = [[] for _ in range(n)]
    for u, v, w in arcs:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return [draw(st.permutations(nbrs)) for nbrs in adj], depth


class TestAgainstReferences:
    @given(bounded_queries())
    @settings(deadline=None, max_examples=300)
    def test_bounded_dijkstra_matches_reference(self, query):
        adj, depth = query
        for source in range(len(adj)):
            got = bounded_dijkstra(adj, source, depth)
            assert (got.dist, got.parent) == reference_bounded_dijkstra(adj, source, depth)

    @given(bounded_queries(), st.data())
    @settings(deadline=None, max_examples=300)
    def test_multi_source_matches_reference(self, query, data):
        adj, depth = query
        roots = data.draw(st.lists(st.integers(0, len(adj) - 1), min_size=1, max_size=5))
        got = multi_source_bounded_dijkstra(adj, roots, depth)
        ref = reference_multi_source_bounded_dijkstra(adj, roots, depth)
        assert (got.dist, got.root, got.parent) == (ref.dist, ref.root, ref.parent)

    @given(bounded_queries(), st.data())
    @settings(deadline=None, max_examples=300)
    def test_interconnect_matches_reference(self, query, data):
        adj, half = query
        centers = data.draw(st.lists(st.integers(0, len(adj) - 1), unique=True))
        got = interconnect_phase(adj, centers, half)
        assert got == reference_interconnect_phase(adj, centers, half)


def tiny_path():
    # a - b - c with unit weights
    return Graph.from_edges(3, [(0, 1, 1), (1, 2, 1)])


class TestMultiSource:
    def test_depth_bound_excludes_far_vertices(self):
        g = tiny_path()
        f = multi_source_bounded_dijkstra(g.adj, [0], 1)
        assert f.dist == {0: 0, 1: 1}
        assert 2 not in f.dist

    def test_tie_goes_to_lowest_root(self):
        g = tiny_path()
        f = multi_source_bounded_dijkstra(g.adj, [0, 2], 1)
        assert f.dist[1] == 1
        assert f.root[1] == 0

    def test_matches_per_root_minimum_oracle(self):
        # oracle: n independent full Dijkstra runs, take the minimum
        g = er_graph(50, 0.2, 1, 10, seed=3)
        roots = [4, 11, 23, 37, 42]
        depth = 20
        f = multi_source_bounded_dijkstra(g.adj, roots, depth)
        per_root = {r: dijkstra_all(g.adj, r) for r in roots}
        for v in range(g.n):
            best = min(
                (per_root[r][v], r)
                for r in roots
                if per_root[r][v] is not None
            )
            if best[0] <= depth:
                assert f.dist[v] == best[0]
                assert f.root[v] == best[1]
            else:
                assert v not in f.dist

    def test_singleton_equals_single_source(self):
        g = er_graph(40, 0.15, 1, 8, seed=6)
        for depth in (0, 5, 17):
            f = multi_source_bounded_dijkstra(g.adj, [7], depth)
            assert (f.dist, f.parent) == reference_bounded_dijkstra(g.adj, 7, depth)

    def test_parent_chain_weights_sum_to_dist(self):
        g = er_graph(60, 0.1, 1, 12, seed=9)
        f = multi_source_bounded_dijkstra(g.adj, [0, 1, 2], 40)
        for v in f.dist:
            path = f.path_from_root(v)
            assert path[0] == f.root[v]
            total = sum(g.weight(a, b) for a, b in zip(path, path[1:]))
            assert total == f.dist[v]

    def test_empty_roots_rejected(self):
        with pytest.raises(ValueError):
            multi_source_bounded_dijkstra(tiny_path().adj, [], 1)


class TestSingleSource:
    def test_boundary_exclusive_below(self):
        g = Graph.from_edges(2, [(0, 1, 5)])
        dist = bounded_dijkstra(g.adj, 0, 4).dist
        assert dist == {0: 0}

    def test_boundary_inclusive_at_depth(self):
        g = Graph.from_edges(2, [(0, 1, 5)])
        dist = bounded_dijkstra(g.adj, 0, 5).dist
        assert dist == {0: 0, 1: 5}

    def test_two_hop_beats_heavy_edge(self):
        # triangle 0-1 (1), 1-2 (1), 0-2 (3): source 0, depth 2
        g = Graph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 3)])
        dist = bounded_dijkstra(g.adj, 0, 2).dist
        assert dist[2] == 2

    def test_monotone_depth(self):
        g = er_graph(40, 0.2, 1, 9, seed=4)
        shallow = bounded_dijkstra(g.adj, 3, 8).dist
        deep = bounded_dijkstra(g.adj, 3, 25).dist
        for v, d in shallow.items():
            assert deep[v] == d


class TestHopLimitedBellmanFord:
    def test_insufficient_hops_is_infinite(self):
        g = tiny_path()
        t = hop_limited_bellman_ford(_tag(g), [0], 1)
        assert t.dist[0][2] is None

    def test_two_hops_reach(self):
        g = tiny_path()
        t = hop_limited_bellman_ford(_tag(g), [0], 2)
        assert t.dist[0][2] == 2

    def test_equals_dijkstra_at_n_minus_one(self):
        g = er_graph(30, 0.3, 1, 5, seed=1)
        t = hop_limited_bellman_ford(_tag(g), list(range(g.n)), 29)
        for s in range(g.n):
            assert t.dist[s] == dijkstra_all(g.adj, s)

    def test_never_fewer_hop_contamination(self):
        # in-place relaxation would report d=3 for the 3-hop endpoint at t=2
        g = path_graph(4, 1)
        t = hop_limited_bellman_ford(_tag(g), [0], 2)
        assert t.dist[0][2] == 2
        assert t.dist[0][3] is None

    def test_monotone_nonincreasing_in_t(self):
        g = er_graph(25, 0.25, 1, 7, seed=8)
        prev = None
        for t in range(0, g.n):
            table = hop_limited_bellman_ford(_tag(g), [0], t)
            row = table.dist[0]
            if prev is not None:
                for a, b in zip(row, prev):
                    if b is not None:
                        assert a is not None and a <= b
            prev = row

    def test_huge_budget_equals_exact(self):
        g = path_graph(12, 2)
        t = hop_limited_bellman_ford(_tag(g), [0], 10**9)
        assert t.dist[0] == dijkstra_all(g.adj, 0)

    def test_extra_edges_participate(self):
        g = tiny_path()
        extra = [(0, 2, 1, ("h", 0))]
        t = hop_limited_bellman_ford(_tag(g, extra), [0], 1)
        assert t.dist[0][2] == 1
        assert t.pred[0][2] == (0, ("h", 0))

    def test_predecessor_ties_prefer_lower_neighbor(self):
        # two equal-length 2-hop routes to vertex 3: via 1 and via 2
        g = Graph.from_edges(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
        t = hop_limited_bellman_ford(_tag(g), [0], 5)
        assert t.pred[0][3][0] == 1

    def test_zero_budget(self):
        g = tiny_path()
        t = hop_limited_bellman_ford(_tag(g), [1], 0)
        assert t.dist[1] == [None, 0, None]

    def test_rows_reject_bad_input_before_the_first_row(self):
        with pytest.raises(ValueError, match="hop budget"):
            hop_limited_rows([[], [], []], [0], -1)


def tagged_adjacency(n, edges):
    """(neighbor, weight, tag) lists of undirected (u, v, w, tag) edges, in edge order."""
    adj = [[] for _ in range(n)]
    for u, v, w, tag in edges:
        adj[u].append((v, w, tag))
        adj[v].append((u, w, tag))
    return adj


def _tag(g, extra=()):
    """g's adjacency with ("g", i) tags, then the (u, v, w, tag) edges `extra`."""
    edges = [(u, v, w, ("g", i)) for i, (u, v, w) in enumerate(g.edges)]
    return tagged_adjacency(g.n, edges + list(extra))


@given(st.integers(0, 2**32), st.integers(2, 24), st.integers(0, 6))
@settings(deadline=None, max_examples=25)
def test_hop_budget_and_depth_properties(seed, n, t):
    g = er_graph(n, 0.4, 1, 6, seed=seed)
    table = hop_limited_bellman_ford(_tag(g), [0], t)
    bigger = hop_limited_bellman_ford(_tag(g), [0], t + 1)
    exact = dijkstra_all(g.adj, 0)
    for v in range(n):
        d_t, d_t1 = table.dist[0][v], bigger.dist[0][v]
        if d_t is not None:
            assert d_t1 is not None and d_t1 <= d_t
            assert d_t >= exact[v]
        if exact[v] is not None and t >= n - 1:
            assert d_t == exact[v]


def dense_bellman_ford(n, edges, sources, t):
    """Reference: every round relaxes all arcs into a copy of the last round."""
    rel = []
    for u, v, w, tag in edges:
        rel.append((u, v, w, tag))
        rel.append((v, u, w, tag))
    table_dist = {}
    table_pred = {}
    src_list = sorted(set(sources))
    rounds_cap = min(t, max(0, n - 1))
    for s in src_list:
        cur = [None] * n
        cur[s] = 0
        pred = [None] * n
        stamp = [-1] * n  # round in which nxt[v] was last written
        for rnd in range(rounds_cap):
            nxt = cur[:]
            changed = False
            for u, v, w, tag in rel:
                du = cur[u]
                if du is None:
                    continue
                cand = du + w
                dv = nxt[v]
                if dv is None or cand < dv:
                    nxt[v] = cand
                    pred[v] = (u, tag)
                    stamp[v] = rnd
                    changed = True
                elif cand == dv and stamp[v] == rnd and (u, tag) < pred[v]:
                    pred[v] = (u, tag)
            if not changed:
                break
            cur = nxt
        table_dist[s] = cur
        table_pred[s] = pred
    return src_list, table_dist, table_pred


@st.composite
def multigraph_queries(draw):
    """Random multigraph with self-loops and tagged parallel edges, sources and t."""
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    wmax = draw(st.sampled_from([3, 10**9]))
    arcs = draw(
        st.lists(
            st.tuples(vertex, vertex, st.integers(0, wmax), st.sampled_from("gh")),
            min_size=n,
            max_size=3 * n,
        )
    )
    edges = [(u, v, w, (kind, i)) for i, (u, v, w, kind) in enumerate(arcs)]
    sources = draw(st.lists(vertex, min_size=1, max_size=4))
    t = draw(st.sampled_from([0, 1, 2, max(0, n - 2), n - 1, n, 10**8]))
    return n, edges, sources, t


@given(multigraph_queries())
@settings(deadline=None, max_examples=150)
def test_matches_dense_reference(query):
    # t >= n - 1 takes the (distance, hops) Dijkstra, smaller t frontier rounds
    n, edges, sources, t = query
    table = hop_limited_bellman_ford(tagged_adjacency(n, edges), sources, t)
    assert (table.sources, table.dist, table.pred) == dense_bellman_ford(*query)


@st.composite
def union_queries(draw):
    """A graph, a hopset over den > 1 with parallel edges on one pair and weights
    that tie graph paths, sources and a hop budget for either kernel."""
    n = draw(st.integers(2, 24))
    seed = draw(st.integers(0, 10**6))
    g = draw(st.sampled_from([er_graph(n, 0.3, 1, 4, seed=seed), path_graph(n, 1)]))
    den = draw(st.sampled_from([2, 3, 12]))
    vertex = st.integers(0, n - 1)
    # whole multiples of den tie graph distances, others fall between them
    weight = st.one_of(st.integers(1, 6).map(lambda k: k * den), st.integers(1, 6 * den))
    ends = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    edges = [HopsetEdge(u, v, draw(weight), 0, "interconnect") for u, v in ends if u != v]
    u, v = draw(st.permutations(range(n)))[:2]
    w = draw(weight)
    twins = [HopsetEdge(u, v, w, 0, "star"), HopsetEdge(v, u, w, 1, "star")]
    twins.append(HopsetEdge(u, v, draw(weight), 2, "interconnect"))
    at = draw(st.integers(0, len(edges)))
    edges[at:at] = twins
    t = draw(st.sampled_from([0, 1, n - 2, n - 1, 10**8]))
    hopset = Hopset(n=n, edges=edges, den=den, effective_beta=t,
                    effective_eps=Fraction(1, 10), provenance={})
    sources = draw(st.lists(vertex, min_size=1, max_size=4))
    return g, hopset, sources


@given(union_queries())
@settings(deadline=None, max_examples=150)
def test_union_rows_match_dense_reference_on_tuple_tags(query):
    # asp tags graph edge i as ~i and hopset edge i as i; the reference runs on
    # the former ("g", i) / ("h", i) tags, which order ties the same way
    g, hopset, sources = query
    den = hopset.den
    edges = [(u, v, w * den, ("g", i)) for i, (u, v, w) in enumerate(g.edges)]
    edges += [(e.u, e.v, e.w, ("h", i)) for i, e in enumerate(hopset.edges)]
    order, dist, pred = dense_bellman_ford(g.n, edges, sources, hopset.effective_beta)

    def retag(entry):
        if entry is None:
            return None
        u, (kind, i) = entry
        return u, ~i if kind == "g" else i

    expected = [(s, den, dist[s], [retag(p) for p in pred[s]]) for s in order]
    rows = asp_estimates(g, hopset, sources)
    assert [(r.source, r.den, r.dist, r.pred) for r in rows] == expected


def assert_settle_order(s, dist, pred, order):
    """`order` holds each reached vertex once, s first, each after its predecessor."""
    assert sorted(order) == [v for v, d in enumerate(dist) if d is not None]
    assert order[0] == s
    place = {v: k for k, v in enumerate(order)}
    for v in order[1:]:
        assert place[pred[v][0]] < place[v]


@given(union_queries())
@settings(deadline=None, max_examples=150)
def test_union_rows_list_each_vertex_after_its_predecessor(query):
    g, hopset, sources = query
    for row in asp_estimates(g, hopset, sources):
        assert_settle_order(row.source, row.dist, row.pred, row.order)


@given(multigraph_queries())
@settings(deadline=None, max_examples=150)
def test_rows_list_each_vertex_after_its_predecessor_across_weight_0_arcs(query):
    # across a weight-0 arc a vertex ties its predecessor's distance, so the
    # frontier rounds order ties by the round that fixed them
    n, edges, sources, t = query
    for s, dist, pred, order in hop_limited_rows(tagged_adjacency(n, edges), sources, t):
        assert_settle_order(s, dist, pred, order)


def full_sweep(adj, source):
    """Reference: the former dijkstra_all, a full sweep through reference_bounded_dijkstra."""
    dist, _ = reference_bounded_dijkstra(adj, source, None)
    out = [None] * len(adj)
    for v, d in dist.items():
        out[v] = d
    return out


@st.composite
def sweep_queries(draw):
    """Multigraph over 1-4 components plus one isolated vertex, a source and targets.

    Each component is a random spanning path plus random extra arcs (self-loops
    and parallel edges included); most targets share the source's component."""
    n = draw(st.integers(1, 40))
    comp = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    members = {}
    for v, c in enumerate(comp):
        members.setdefault(c, []).append(v)
    weight = st.one_of(st.sampled_from([0, 10**9]), st.integers(0, 5))
    adj = [[] for _ in range(n + 1)]  # vertex n is isolated: always unreachable
    for vs in members.values():
        order = draw(st.permutations(vs))
        vertex = st.sampled_from(vs)
        arcs = [(u, v, draw(weight)) for u, v in zip(order, order[1:])]
        arcs += draw(st.lists(st.tuples(vertex, vertex, weight), max_size=2 * len(vs)))
        for u, v, w in arcs + arcs[: draw(st.integers(0, 3))]:  # repeats: parallel edges
            adj[u].append((v, w))
            adj[v].append((u, w))
    source = draw(st.integers(0, n - 1))
    near = st.sampled_from(members[comp[source]])
    targets = draw(st.lists(near, min_size=1, max_size=10))
    targets += draw(st.lists(st.integers(0, n), max_size=2))
    if draw(st.booleans()):
        targets.append(source)
    if draw(st.booleans()):
        targets.append(n)
    return adj, source, draw(st.permutations(targets))


class TestDijkstraAll:
    @pytest.mark.parametrize("targets", [[2], [2, 2], [1, 2, 0]])
    def test_stops_once_targets_settle(self, targets):
        g = path_graph(10, 1)
        d = dijkstra_all(g.adj, 0, targets)
        assert d[:3] == [0, 1, 2] and d[9] is None

    @pytest.mark.parametrize("targets", [None, [9], [2]])
    def test_stops_past_the_limit(self, targets):
        # a vertex at exactly the limit settles, the next one does not
        d = dijkstra_all(path_graph(10, 1).adj, 0, targets, limit=2)
        assert d == [0, 1, 2] + [None] * 7

    def test_unreachable_target_is_none(self):
        g = Graph.from_edges(4, [(0, 1, 3), (2, 3, 1)])
        assert dijkstra_all(g.adj, 0, [3, 1]) == [0, 3, None, None]

    def test_empty_targets_settle_nothing(self):
        assert dijkstra_all(tiny_path().adj, 1, []) == [None, None, None]


@given(sweep_queries())
@settings(deadline=None, max_examples=200)
def test_early_exit_matches_full_sweep(query):
    adj, source, targets = query
    ref = full_sweep(adj, source)
    assert dijkstra_all(adj, source) == ref
    early = dijkstra_all(adj, source, targets)
    for v in targets:
        assert early[v] == ref[v]
    # whatever else settled before the stop is exact too
    assert all(d is None or d == ref[v] for v, d in enumerate(early))


@given(sweep_queries(), st.sampled_from([0, 1, 4, 10**9, 2 * 10**9 + 3]))
@settings(deadline=None, max_examples=150)
def test_limited_sweep_matches_full_sweep(query, limit):
    adj, source, targets = query
    ref = full_sweep(adj, source)
    for wanted in (None, targets):
        early = dijkstra_all(adj, source, wanted, limit)
        # exact where settled, and nothing settled beyond the limit
        assert all(d is None or (d == ref[v] and d <= limit) for v, d in enumerate(early))
        for v in range(len(adj)) if wanted is None else wanted:
            if ref[v] is not None and ref[v] <= limit:
                assert early[v] == ref[v]


@st.composite
def pair_queries(draw):
    """Random undirected multigraph over 1-3 components and an (s, t) pair.

    Weights run 0..wmax with wmax up to 10**9 * n, the size of verify's keyed
    weights; arcs repeat (parallel edges), and s == t occurs."""
    n = draw(st.integers(1, 40))
    comp = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    wmax = draw(st.sampled_from([0, 1, 5, 10**9, 10**9 * n]))
    weight = st.one_of(st.integers(0, wmax), st.sampled_from([0, wmax]))
    adj = [[] for _ in range(n)]
    for c in set(comp):
        vs = [v for v in range(n) if comp[v] == c]
        order = draw(st.permutations(vs))
        vertex = st.sampled_from(vs)
        arcs = [(u, v, draw(weight)) for u, v in zip(order, order[1:])]
        arcs += draw(st.lists(st.tuples(vertex, vertex, weight), max_size=2 * len(vs)))
        for u, v, w in arcs + arcs[: draw(st.integers(0, 3))]:  # repeats: parallel arcs
            adj[u].append((v, w))
            adj[v].append((u, w))
    s = draw(st.integers(0, n - 1))
    t = draw(st.one_of(st.just(s), st.integers(0, n - 1)))
    return adj, s, t


@given(pair_queries())
@settings(deadline=None, max_examples=300)
def test_pair_distance_matches_one_sided_sweep(query):
    adj, s, t = query
    assert pair_distance(adj, s, t) == dijkstra_all(adj, s, [t])[t]


class TestPairDistance:
    @pytest.mark.parametrize("s,t", [(59, 40), (40, 59), (0, 59), (59, 0), (30, 31), (7, 7)])
    def test_geometric_path(self, s, t):
        # weights 2**i: the side toward the heavy end must do most of the work
        adj = path_graph(60, 2).adj
        assert pair_distance(adj, s, t) == dijkstra_all(adj, s)[t]

    def test_zero_weight_edge_between_the_tops(self):
        # the heap tops sum to the distance before either side scans the
        # 0-weight middle edge, so only a stop at top_f + top_b >= mu is exact
        adj = [[] for _ in range(4)]
        for u, v, w in [(0, 1, 5), (1, 2, 0), (2, 3, 5), (0, 3, 11)]:
            adj[u].append((v, w))
            adj[v].append((u, w))
        assert pair_distance(adj, 0, 3) == pair_distance(adj, 3, 0) == 10

    def test_other_component_is_none(self):
        g = Graph.from_edges(4, [(0, 1, 3), (2, 3, 1)])
        assert pair_distance(g.adj, 0, 3) is None
        assert pair_distance(g.adj, 1, 0) == 3
