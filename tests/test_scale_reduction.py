import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopsets import (
    Graph,
    HopsetParams,
    LaminarFamily,
    activity_stats,
    build_laminar,
    dijkstra_all,
    er_graph,
    exact_apsp,
    grid_graph,
    materialize_scale_graph,
    path_graph,
    plan,
    relevant_scales,
    star_edges,
)
from hopsets.scale_reduction import MergeEvent, NodesView, contraction_scale
from hopsets.util import to_scaled


class TestRelevantScales:
    def test_two_vertices_weight_five(self):
        g = Graph.from_edges(2, [(0, 1, 5)])
        assert relevant_scales(g) == [2, 3]

    def test_unit_weights(self):
        for n in (4, 10, 33, 64):
            g = path_graph(n, 1)
            expected = [k for k in range(1, n.bit_length()) if 2**k <= n]
            assert relevant_scales(g) == expected

    def test_no_edges(self):
        g = Graph.from_edges(3, [])
        assert relevant_scales(g) == []

    def test_definition_exhaustively(self):
        g = er_graph(30, 0.2, 1, 50, seed=3)
        ks = set(relevant_scales(g))
        for k in range(1, 40):
            member = any(
                F(2**k, g.n) <= w <= 2 ** (k + 1) for _, _, w in g.edges
            )
            assert (k in ks) == member


class TestBuildLaminar:
    def test_two_vertices_merge_scale(self):
        # weight 1, eps = 1/4, n = 2: smallest k with (eps/n) * 2**k > 1 is 4
        assert contraction_scale(1, 2, F(1, 4)) == 4
        g = Graph.from_edges(2, [(0, 1, 1)])
        lam = build_laminar(g, F(1, 4))
        assert len(lam.events) == 1
        assert lam.events[0].scale == 4
        assert lam.nodes_at(3).label == [0, 1]
        assert lam.nodes_at(4).label == [0, 0]

    def test_unit_triangle_single_node_two_tree_edges(self):
        g = Graph.from_edges(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        lam = build_laminar(g, F(1, 4))
        assert len(lam.events) == 2  # third edge joins an existing node
        k = lam.events[-1].scale
        view = lam.nodes_at(k)
        assert len(view.sizes) == 1
        tree = lam.tree_adjacency_at(k)
        assert sum(len(v) for v in tree.values()) == 2 * 2

    def test_equal_size_merge_lower_center_survives(self):
        g = Graph.from_edges(2, [(0, 1, 3)])
        lam = build_laminar(g, F(1, 4))
        assert lam.events[0].survivor_center == 0
        # two 2-nodes merging: again the lower center survives
        g2 = Graph.from_edges(4, [(0, 1, 1), (2, 3, 1), (1, 2, 5)])
        lam2 = build_laminar(g2, F(1, 4))
        last = lam2.events[-1]
        assert last.survivor_center == 0
        assert last.size_after == 4

    def test_merge_lists_strictly_increasing_and_bounded(self):
        # a vertex's merge list is the scales of the events that absorb it
        g = er_graph(64, 0.15, 1, 32, seed=2)
        lam = build_laminar(g, F(1, 5))
        scales = [ev.scale for ev in lam.events]
        assert scales == sorted(scales)
        absorbed_at: dict[int, set[int]] = {v: set() for v in range(g.n)}
        for ev in lam.events:
            for y in ev.members_absorbed:
                absorbed_at[y].add(ev.scale)
        for v in range(g.n):
            assert len(absorbed_at[v]) <= math.ceil(math.log2(g.n)) + 1

    def test_eps_range_rejected(self):
        g = Graph.from_edges(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            build_laminar(g, F(1, 2))
        with pytest.raises(ValueError):
            build_laminar(g, 0)


class TestStarEdges:
    def test_no_merges_no_stars(self):
        g = Graph.from_edges(3, [])
        lam = build_laminar(g, F(1, 4))
        assert star_edges(lam) == []

    def test_single_merge_weight(self):
        g = Graph.from_edges(2, [(0, 1, 1)])
        lam = build_laminar(g, F(1, 4))
        (s,) = star_edges(lam)
        k = lam.events[0].scale
        assert (s.u, s.v, s.scale) == (0, 1, k)
        assert s.weight == F(1, 4) * 2**k * 2 / 2

    def test_unit_path_eight(self):
        g = path_graph(8, 1)
        lam = build_laminar(g, F(1, 4))
        stars = star_edges(lam)
        assert len(stars) <= 8 * 3  # n log2 n
        # each merge absorbs one singleton on this instance
        assert len(stars) == 7

    @pytest.mark.parametrize("seed", range(5))
    def test_count_bound_random(self, seed):
        g = er_graph(128, 0.08, 1, 100, seed=seed)
        stars = star_edges(build_laminar(g, F(1, 20)))
        assert len(stars) <= 128 * math.log2(128)

    def test_star_weight_dominates_distance(self):
        g = er_graph(40, 0.2, 1, 30, seed=4)
        lam = build_laminar(g, F(1, 4))
        for s in star_edges(lam):
            dist = dijkstra_all(g.adj, s.u)
            assert F(dist[s.v]) <= s.weight


class TestMaterialize:
    def test_two_singletons_padding(self):
        # W = 5 + (eps/2) * 4 * 2 = 5 + 4*eps at k=2
        eps = F(1, 4)
        g = Graph.from_edges(2, [(0, 1, 5)])
        lam = build_laminar(g, eps)
        den = g.n * eps.denominator
        sg = materialize_scale_graph(g, lam, 2, den, to_scaled(eps / g.n, den))
        (edge,) = sg.edges
        assert F(edge[2], den) == 5 + 4 * eps

    def test_fabricated_sizes_example(self):
        # node sizes 2 and 3, min inter-edge 7, k=4, eps=1/4, n=10 -> W = 9
        eps = F(1, 4)
        events = [
            MergeEvent(1, 0, 1, (1,), 2, (0, 1, 1)),
            MergeEvent(1, 2, 3, (3,), 2, (2, 3, 1)),
            MergeEvent(2, 2, 4, (4,), 3, (3, 4, 1)),
        ]
        edges = [(0, 1, 1), (2, 3, 1), (3, 4, 1), (1, 2, 7), (1, 4, 8)]
        g = Graph.from_edges(10, edges)
        lam = LaminarFamily(g, eps, events)
        den = g.n * eps.denominator
        sg = materialize_scale_graph(g, lam, 4, den, to_scaled(eps / g.n, den))
        pair = [e for e in sg.edges if {e[0], e[1]} == {0, 2}]
        assert F(pair[0][2], den) == 9
        assert pair[0][3] == (1, 2, 7)  # minimum-weight connecting edge kept

    def test_heavy_edge_excluded(self):
        g = Graph.from_edges(2, [(0, 1, 2**6)])
        lam = build_laminar(g, F(1, 4))
        k = 3  # cutoff 2**5 = 32 < 64
        sg = materialize_scale_graph(g, lam, k, g.n * 4, 1)  # pad: (1/4) / n over n * 4
        assert sg.edges == [] and sg.active_count == 0

    def test_cutoff_inclusive(self):
        g = Graph.from_edges(2, [(0, 1, 2**5)])
        lam = build_laminar(g, F(1, 4))
        sg = materialize_scale_graph(g, lam, 3, g.n * 4, 1)  # pad: (1/4) / n over n * 4
        assert len(sg.edges) == 1

    def test_nodes_include_isolated_remainder(self):
        g = Graph.from_edges(4, [(0, 1, 2), (2, 3, 2**9)])
        lam = build_laminar(g, F(1, 4))
        sg = materialize_scale_graph(g, lam, 1, g.n * 4, 1)  # pad: (1/4) / n over n * 4
        assert len(lam.nodes_at(1).sizes) == 4
        assert sg.active_centers == [0, 1]

    @pytest.mark.parametrize("seed", range(3))
    def test_sandwich_claim(self, seed):
        # d_G(x,y) <= d_Gk(X,Y) <= (1+2*eps)*d_G(x,y) on every band pair,
        # verified by full Dijkstra on both graphs
        eps = F(1, 4)
        g = er_graph(40, 0.2, 1, 16, seed=seed)
        lam = build_laminar(g, eps)
        apsp = exact_apsp(g)
        den = g.n * eps.denominator
        for k in relevant_scales(g):
            sg = materialize_scale_graph(g, lam, k, den, to_scaled(eps / g.n, den))
            view = lam.nodes_at(k)
            index = {c: i for i, c in enumerate(sg.active_centers)}
            dist_cache = {}
            for x in range(g.n):
                for y in range(x + 1, g.n):
                    d = apsp[x][y]
                    if d is None or not (2**k < d <= 2 ** (k + 1)):
                        continue
                    cx, cy = view.label[x], view.label[y]
                    # node diameters stay below eps * 2**k, so band pairs
                    # always straddle two nodes
                    assert cx != cy
                    ix = index.get(cx)
                    iy = index.get(cy)
                    assert ix is not None and iy is not None
                    if ix not in dist_cache:
                        dist_cache[ix] = dijkstra_all(sg.adj, ix)
                    dk = dist_cache[ix][iy]
                    assert dk is not None
                    dk_frac = F(dk, den)
                    assert F(d) <= dk_frac <= (1 + 2 * eps) * d


FLOOR_GRAPHS = {
    "er": lambda n, seed: er_graph(n, 0.3, 1, 10**9, seed),
    "grid": lambda n, seed: grid_graph(2, n // 2, 1, 2**20, seed),
    "unit path": lambda n, seed: path_graph(n, 1),
    "power-of-two path": lambda n, seed: path_graph(n, 2),
}


def lightest_arcs(graph, eps_target):
    """(lightest arc, 3 * (pad << k)) of each nonempty reduced scale-k graph.

    The sweep runs from scale 0 until every edge is contracted.
    """
    bp = plan(HopsetParams.make(eps_target=eps_target), graph.n)
    eps = bp.eps_reduction
    lam = build_laminar(graph, eps)
    top = max((contraction_scale(w, graph.n, eps) for _, _, w in graph.edges), default=-1)
    out = []
    for k in range(top + 1):
        sg = materialize_scale_graph(graph, lam, k, bp.den, bp.pad)
        if sg.adj:
            out.append((min(w for arcs in sg.adj for _, w in arcs), 3 * (bp.pad << k)))
    return out


@given(
    st.sampled_from(sorted(FLOOR_GRAPHS)),
    st.integers(2, 40),
    st.integers(0, 10**6),
    st.sampled_from(["3/10", "3/8", "1/10", "0.45"]),
)
@settings(deadline=None, max_examples=80)
def test_scale_graph_arcs_are_at_least_the_build_floor(family, n, seed, eps_target):
    # build_hopset idles every phase whose radius is below this floor
    graph = FLOOR_GRAPHS[family](max(n, 4), seed)
    for lightest, floor in lightest_arcs(graph, eps_target):
        assert lightest >= floor


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_power_of_two_path_meets_the_floor(n):
    # at eps_reduction = 1/16 and n a power of two, the weight-1 edge equals
    # eps / n * 2**k at one scale: uncontracted there, between two singletons
    assert any(a == f for a, f in lightest_arcs(path_graph(n, 2), "3/8"))


class TestActivity:
    def test_counts_and_spans(self):
        g = er_graph(64, 0.15, 1, 32, seed=1)
        lam = build_laminar(g, F(1, 20))
        stats = activity_stats(lam, relevant_scales(g))
        assert stats["total_active"] == sum(stats["n_k"].values())
        assert stats["max_activity"] >= 1
        # activity spans are contiguous scale runs by construction
        assert all(cnt >= 1 for cnt in stats["per_node_scales"].values())

    def test_geometric_path_boundary_case(self):
        # power-of-two weights sit exactly on the inclusion boundary
        # w = 2**(k+2), which stretches activity spans to their maximum of
        # floor(log2(n/eps)) + 3 scales
        g = path_graph(64, 2)
        lam = build_laminar(g, F(1, 20))
        stats = activity_stats(lam, relevant_scales(g))
        bound = math.floor(math.log2(64 * 20)) + 3
        assert stats["max_activity"] == bound
        assert stats["max_activity"] > stats["activity_bound"]


# ---------------------------------------------------------------------------
# Differential test: the laminar cursor against a per-scale scan and replay.


def replay_nodes_at(lam, k):
    """Reference: replay every merge event up to k from the start.

    Returns the view and, beside it, each center's birth: the scale of the
    event that formed its node (0 initial).
    """
    label = list(range(lam.n))
    sizes = {v: 1 for v in range(lam.n)}
    birth = {v: 0 for v in range(lam.n)}
    for ev in lam.events:
        if ev.scale > k:
            break
        absorbed = ev.absorbed_center
        survivor = ev.survivor_center
        for y in ev.members_absorbed:
            label[y] = survivor
        sizes[survivor] += sizes.pop(absorbed)
        birth.pop(absorbed)
        birth[survivor] = ev.scale
    return NodesView(label, sizes), birth


def scan_scale_graph(graph, lam, k):
    """Reference: scan all m edges at scale k.

    Returns (edges, adj, active_centers, base) with base[(cu, cv)] the
    original edge oriented so its first vertex lies in cu's node.
    """
    eps = lam.eps
    n = graph.n
    den = n * eps.denominator
    view, _ = replay_nodes_at(lam, k)
    label = view.label
    cutoff = 2 ** (k + 2)
    best = {}
    for u, v, w in graph.edges:
        if w > cutoff:
            continue
        cu, cv = label[u], label[v]
        if cu == cv:
            continue
        key = (cu, cv) if cu < cv else (cv, cu)
        cand = (w, u, v)
        if key not in best or cand < best[key]:
            best[key] = cand
    pad_unit = to_scaled(eps * 2**k / n, den)
    edges = []
    active = set()
    for (cu, cv), (w, u, v) in sorted(best.items()):
        big_w = w * den + pad_unit * (view.sizes[cu] + view.sizes[cv])
        edges.append((cu, cv, big_w, (u, v, w)))
        active.add(cu)
        active.add(cv)
    active_centers = sorted(active)
    index = {c: i for i, c in enumerate(active_centers)}
    adj = [[] for _ in active_centers]
    for cu, cv, big_w, _ in edges:
        iu, iv = index[cu], index[cv]
        adj[iu].append((iv, big_w))
        adj[iv].append((iu, big_w))
    base = {}
    for cu, cv, _, (x, y, w) in edges:
        base[(cu, cv)] = (x, y, w) if label[x] == cu else (y, x, w)
        base[(cv, cu)] = (x, y, w) if label[x] == cv else (y, x, w)
    return edges, adj, active_centers, base


def scan_activity_stats(graph, lam, scales):
    """Reference: the active nodes of every scale by a scan of all m edges."""
    per_node = {}
    n_k = {}
    for k in scales:
        view, birth = replay_nodes_at(lam, k)
        label = view.label
        cutoff = 2 ** (k + 2)
        active = set()
        for u, v, w in graph.edges:
            if w > cutoff:
                continue
            cu, cv = label[u], label[v]
            if cu != cv:
                active.add(cu)
                active.add(cv)
        n_k[k] = len(active)
        for c in active:
            key = (c, birth[c])
            per_node[key] = per_node.get(key, 0) + 1
    return n_k, per_node


@st.composite
def laminar_sweeps(draw):
    """A multigraph, its laminar family, and ascending orders of scale queries.

    Vertices fall into up to four groups with edges only inside a group, so
    graphs have several components.  Edges may be parallel and either
    orientation; weights favour powers of two and their neighbours, which
    sit on the inclusive w <= 2**(k+2) window boundary.  The orders are
    every scale once, and an ascending draw with repeats.
    """
    n = draw(st.integers(1, 24))
    group = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pairs = [
        (u, v) for u in range(n) for v in range(n) if u != v and group[u] == group[v]
    ]
    pow2 = st.integers(0, 16).map(lambda j: 2**j)
    weight = st.one_of(
        pow2,
        st.tuples(pow2, st.sampled_from([-1, 1])).map(lambda t: max(1, t[0] + t[1])),
        st.integers(1, 3000),
    )
    edges = []
    if pairs:
        for (u, v), w, copies in draw(
            st.lists(
                st.tuples(st.sampled_from(pairs), weight, st.integers(1, 3)),
                max_size=3 * n,
            )
        ):
            for c in range(copies):  # parallel edges, some of equal weight
                edges.append((u, v, w) if c % 2 == 0 else (v, u, w + c // 2))
    graph = Graph(n, edges)
    eps = draw(st.sampled_from([F(1, 3), F(1, 4), F(2, 7), F(1, 20)]))
    lam = build_laminar(graph, eps)
    scales = sorted(
        set(relevant_scales(graph)) | {ev.scale for ev in lam.events} | {0, 1}
    )
    drawn = draw(st.lists(st.sampled_from(scales), min_size=1, max_size=12))
    return graph, lam, (scales, sorted(drawn + drawn))


def fresh(lam):
    """A laminar family with the same events and its cursor at the start."""
    return LaminarFamily(lam.graph, lam.eps, lam.events)


def bench_scale_sweep():
    """A wide-weight ER graph at bench scale, swept over every scale once.

    The drawn graphs stay small (n <= 24, weights <= 2**16); this one has
    n = 300 and weights up to 1e9.  Parallel, reversed and equal-weight
    copies of a few edges come first, so a pair's first edge often loses
    to a later one on the (w, u, v) tie-break.
    """
    base = er_graph(300, 0.03, 1, 10**9, 1)
    edges = []
    for u, v, w in base.edges[::200]:
        edges += [(v, u, w), (u, v, w + 1), (v, u, w)]
    for u, v, w in base.edges[100::200]:
        edges += [(u, v, w + 1), (v, u, max(1, w - 1))]
    graph = Graph(base.n, edges + base.edges)
    lam = build_laminar(graph, F(1, 4))
    scales = sorted(
        set(relevant_scales(graph)) | {ev.scale for ev in lam.events} | {0, 1}
    )
    return graph, lam, (scales,)


@given(laminar_sweeps())
@example(bench_scale_sweep())
@settings(deadline=None, max_examples=150)
def test_cursor_matches_scan_and_replay(case):
    # each order runs on a fresh family: ascending, with repeats
    graph, lam, orders = case
    den = graph.n * lam.eps.denominator
    pad = to_scaled(lam.eps / graph.n, den)
    for order in orders:
        cursor = fresh(lam)
        held = []
        for k in order:
            sg = materialize_scale_graph(graph, cursor, k, den, pad)
            edges, adj, active_centers, base = scan_scale_graph(graph, cursor, k)
            assert sg.edges == edges
            assert sg.adj == adj
            assert sg.active_centers == active_centers
            for (cu, cv), want in base.items():
                assert sg.base_edge(cu, cv) == want
            view = cursor.nodes_at(k)
            want, _ = replay_nodes_at(cursor, k)
            assert (view.label, view.sizes) == (want.label, want.sizes)
            held.append((sg, edges, base, view))
        # scale graphs answer on their own after the sweep has passed them;
        # views are the cursor's live state, so each now shows the last scale
        last, _ = replay_nodes_at(cursor, order[-1])
        for sg, edges, base, view in held:
            assert sg.edges == edges
            for (cu, cv), want in base.items():
                assert sg.base_edge(cu, cv) == want
            assert (view.label, view.sizes) == (last.label, last.sizes)
        if order[0] < order[-1]:  # a lower scale names both scales
            named = f"at scale {order[-1]}, cannot go back to scale {order[0]}:"
            with pytest.raises(ValueError, match=named):
                cursor.nodes_at(order[0])
            with pytest.raises(ValueError, match=named):
                cursor.live_edges(order[0])
        stats = activity_stats(fresh(lam), order)
        n_k, per_node = scan_activity_stats(graph, lam, order)
        assert (stats["n_k"], stats["per_node_scales"]) == (n_k, per_node)
