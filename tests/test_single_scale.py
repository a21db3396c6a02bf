import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hopsets.hopset
import hopsets.single_scale
from hopsets import (
    Graph,
    HopsetParams,
    bounded_dijkstra,
    build_hopset,
    compute_schedule,
    dijkstra_all,
    er_graph,
    hop_limited_bellman_ford,
    hopset_from_single_scale,
    build_single_scale,
    interconnect_phase,
    path_graph,
    supercluster_phase,
    verify_stretch,
)
from hopsets.single_scale import ScalePhases
from hopsets.util import to_scaled


def scaled_adj(graph, den):
    return [[(v, w * den) for v, w in nbrs] for nbrs in graph.adj]


def arc_floor(adj):
    """The lightest arc of `adj`: the tightest floor a build can be given."""
    return min((w for arcs in adj for _, w in arcs), default=0)


def scaled_phases(sched, den):
    """The schedule's thresholds as the phases read them, over `den`."""
    return ScalePhases(
        deg=sched.deg,
        depth=tuple(to_scaled(d, den) for d in sched.delta),
        half=tuple(to_scaled(d / 2, den) for d in sched.delta),
    )


def fold_stars(members, star):
    """Fold each star edge's absorbed center into its root's members.

    `members` maps a center to the vertices of its cluster; the build keeps
    centers only, and star edges are all that membership needs.
    """
    for e in star:
        members[e.u].extend(members.pop(e.v))


class ScriptedRng:
    """Feeds a fixed sequence to random(); sampling hooks for phase tests."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


@pytest.fixture
def sched_16():
    # alpha = eps**2 * Rhat = 16, so delta_0 = 16 and delta_0/2 = 8
    return compute_schedule(64, 2, F(1, 2), F(1, 10), 1600)


class TestSuperclusterPhase:
    def test_probability_zero_leaves_all_unclustered(self, sched_16):
        g = path_graph(5, 1)
        den = 100
        nxt, star, unclustered = supercluster_phase(
            scaled_adj(g, den),
            list(range(5)),
            0.0,
            to_scaled(sched_16.delta[0], den),
            random.Random(1),
        )
        assert nxt == [] and star == []
        assert len(unclustered) == 5

    def test_probability_one_samples_everything(self, sched_16):
        g = path_graph(5, 1)
        den = 100
        nxt, star, unclustered = supercluster_phase(
            scaled_adj(g, den),
            list(range(5)),
            1.0,
            to_scaled(sched_16.delta[0], den),
            random.Random(1),
        )
        assert unclustered == [] and star == []
        assert len(nxt) == 5

    def test_collinear_singletons_middle_sampled(self, sched_16):
        # three vertices spaced delta_0/2 = 8 apart; only the middle sampled
        g = Graph.from_edges(3, [(0, 1, 8), (1, 2, 8)])
        den = 100
        rng = ScriptedRng([0.99, 0.0, 0.99])  # ascending center order: 0, 1, 2
        nxt, star, unclustered = supercluster_phase(
            scaled_adj(g, den), list(range(3)), 0.5, to_scaled(sched_16.delta[0], den), rng
        )
        assert unclustered == []
        assert nxt == [1]
        assert sorted((e.u, e.v, e.w) for e in star) == [
            (1, 0, 8 * den),
            (1, 2, 8 * den),
        ]

    def test_star_edge_weight_is_exact_distance(self, sched_16):
        g = er_graph(40, 0.2, 1, 3, seed=5)
        den = 100
        adj = scaled_adj(g, den)
        phases = scaled_phases(sched_16, den)
        nxt, star, _ = supercluster_phase(
            adj,
            list(range(40)),
            phases.sample_probability(1),
            phases.depth[1],
            random.Random(7),
        )
        for e in star:
            dist = dijkstra_all(adj, e.u)
            assert dist[e.v] == e.w


class TestInterconnectPhase:
    def test_single_cluster_no_edges(self, sched_16):
        g = path_graph(3, 1)
        den = 100
        edges, visits = interconnect_phase(
            scaled_adj(g, den), [0], to_scaled(sched_16.delta[0] / 2, den)
        )
        assert edges == []
        assert visits == 3  # delta_0/2 = 8 reaches the whole unit path

    def test_boundary_distance_inclusive(self, sched_16):
        # two centers at distance exactly delta_0/2 = 8
        g = Graph.from_edges(2, [(0, 1, 8)])
        den = 100
        edges, _ = interconnect_phase(
            scaled_adj(g, den), list(range(2)), to_scaled(sched_16.delta[0] / 2, den)
        )
        assert [(e.u, e.v, e.w) for e in edges] == [(0, 1, 8 * den)]

    def test_unit_path_radius_three(self, sched_16):
        # ten singletons on a unit path with delta_0/2 = 8 -> scale to radius 3:
        # use weights of 8/3 impossible, so use delta via different Rhat
        sched = compute_schedule(64, 2, F(1, 2), F(1, 10), 600)  # alpha=6, half=3
        g = path_graph(10, 1)
        den = 100
        edges, _ = interconnect_phase(
            scaled_adj(g, den), list(range(10)), to_scaled(sched.delta[0] / 2, den)
        )
        expected = {(i, j) for i in range(10) for j in range(i + 1, 10) if j - i <= 3}
        assert {(e.u, e.v) for e in edges} == expected
        for e in edges:
            assert e.w == (e.v - e.u) * den

    def test_dedup_and_visit_accounting(self, sched_16):
        g = er_graph(30, 0.3, 1, 4, seed=9)
        den = 100
        adj = scaled_adj(g, den)
        centers = list(range(30))
        half = to_scaled(sched_16.delta[2] / 2, den)
        edges, visits = interconnect_phase(adj, centers, half)
        pairs = [(e.u, e.v) for e in edges]
        assert len(pairs) == len(set(pairs))
        assert all(u < v for u, v in pairs)
        # the load is the vertices each center's exploration reached, and
        # every exploration reaches at least its own source
        reached = [len(bounded_dijkstra(adj, c, half).dist) for c in centers]
        assert visits == sum(reached)
        assert visits >= len(centers)


class TestStarGraphExample:
    def test_all_pairs_interconnected_at_exact_distance(self):
        # K_{1,5}, unit weights, phase 0 forced unsampled (deg inf) with delta_0/2 >= 2
        g = Graph.from_edges(6, [(0, i, 1) for i in range(1, 6)])
        sched = compute_schedule(64, 2, F(1, 2), F(1, 10), 400)  # delta_0/2 = 2
        den = 100
        adj = scaled_adj(g, den)
        phases = scaled_phases(sched, den)._replace(deg=(math.inf, *sched.deg[1:]))
        ss = build_single_scale(adj, phases, 1, arc_floor(adj))
        inter0 = [e for e in ss.edges if e.kind == "interconnect"]
        assert len(inter0) == 15  # all pairs of the 6 vertices
        for e in inter0:
            expected = 1 if 0 in (e.u, e.v) else 2
            assert e.w == expected * den


class TestBuildInvariants:
    def build(self, seed=11, n=100):
        g = er_graph(n, 0.1, 1, 8, seed=5)
        sched = compute_schedule(n, 2, F(1, 2), F(1, 10), 64)
        den = 2 * 100
        adj = scaled_adj(g, den)
        ss = build_single_scale(adj, scaled_phases(sched, den), seed, arc_floor(adj))
        return g, sched, den, ss

    def test_deterministic_for_fixed_seed(self):
        _, _, _, a = self.build(seed=3)
        _, _, _, b = self.build(seed=3)
        assert [(e.u, e.v, e.w, e.kind) for e in a.edges] == [
            (e.u, e.v, e.w, e.kind) for e in b.edges
        ]

    def test_star_edges_form_forest(self):
        _, _, _, ss = self.build()
        parent = list(range(200))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for e in ss.edges:
            if e.kind != "supercluster":
                continue
            ru, rv = find(e.u), find(e.v)
            assert ru != rv, "cycle among supercluster edges"
            parent[ru] = rv

    def test_edge_weights_are_exact_distances(self):
        g, _, den, ss = self.build()
        adj = scaled_adj(g, den)
        for e in ss.edges:
            dist = dijkstra_all(adj, e.u)
            assert dist[e.v] == e.w

    def test_cluster_radius_claim(self):
        # entering phase i, every member sits within i star-edges of its
        # center, total length at most radius[i]
        _, sched, den, ss = self.build()
        stars = [e for e in ss.edges if e.kind == "supercluster"]
        nverts = len(ss.partitions[0])
        members = {v: [v] for v in range(nverts)}
        accumulated = []
        for i, centers in enumerate(ss.partitions):
            limit = to_scaled(sched.radius[i], den)
            if i > 0:
                seen = len(accumulated)
                phase_stars = stars[seen : seen + ss.stats[i - 1].star_edges]
                fold_stars(members, phase_stars)
                accumulated.extend(phase_stars)
            if not accumulated:
                for c in centers:
                    assert members[c] == [c]
                continue
            adj = [[] for _ in range(nverts)]
            for j, e in enumerate(accumulated):
                adj[e.u].append((e.v, e.w, j))
                adj[e.v].append((e.u, e.w, j))
            for c in centers:
                table = hop_limited_bellman_ford(adj, [c], i)
                for m in members[c]:
                    d = table.dist[c][m]
                    assert d is not None and d <= limit

    def test_partitions_and_retired_sets_cover_all_vertices(self):
        # at every phase, live clusters plus retired unclustered sets form a
        # disjoint cover of the vertex set
        g = er_graph(80, 0.1, 1, 8, seed=17)
        sched = compute_schedule(80, 2, F(1, 2), F(1, 10), 64)
        den = 200
        adj = scaled_adj(g, den)
        phases = scaled_phases(sched, den)
        partition = list(range(80))
        members = {v: [v] for v in range(80)}
        retired = []
        for i in range(sched.ell):
            rng = random.Random(i * 7 + 1)
            nxt, star, unclustered = supercluster_phase(
                adj, partition, phases.sample_probability(i), phases.depth[i], rng
            )
            fold_stars(members, star)
            retired.extend(unclustered)
            covered = sorted(m for c in nxt + retired for m in members[c])
            assert covered == list(range(80))
            partition = nxt

    def test_partition_size_bound_mostly_holds(self):
        # |P_1| <= 2 * n**(1 - 1/kappa) in >= 90% of seeded runs
        n = 256
        g = er_graph(n, 0.05, 1, 8, seed=13)
        sched = compute_schedule(n, 2, F(1, 2), F(1, 10), 32)
        den = 200
        adj = scaled_adj(g, den)
        phases = scaled_phases(sched, den)
        ok = 0
        seeds = range(20)
        for s in seeds:
            ss = build_single_scale(adj, phases, s, arc_floor(adj))
            if len(ss.partitions[1]) <= 2 * n ** (1 - 1 / 2):
                ok += 1
        assert ok >= 0.9 * len(seeds)


class TestBandContract:
    def test_er100_band_guarantee(self):
        # oracle: hop-limited Bellman-Ford + Dijkstra via the verifier, on
        # pairs with distance in (Rhat/2, Rhat]
        g = er_graph(100, 0.1, 1, 8, seed=5)
        den = 200
        adj = scaled_adj(g, den)
        for k in (2, 3, 4):
            sched = compute_schedule(100, 2, F(1, 2), F(1, 10), 2 ** (k + 1))
            ss = build_single_scale(adj, scaled_phases(sched, den), 7, arc_floor(adj))
            hs = hopset_from_single_scale(g, k, ss, sched, den)
            assert hs.effective_beta == 735
            assert hs.effective_eps == F(96, 10)
            report = verify_stretch(g, hs, pair_mode="band", band=k)
            assert report.ok, report.violations[:3]

    def test_wrapped_weights_keep_their_least_denominator(self):
        # the same build over 200 or 1400 wraps to the same integer weights and den
        g = er_graph(100, 0.1, 1, 8, seed=5)
        wrapped = []
        for den in (200, 1400):
            adj = scaled_adj(g, den)
            for k in (2, 3, 4):
                sched = compute_schedule(100, 2, F(1, 2), F(1, 10), 2 ** (k + 1))
                ss = build_single_scale(adj, scaled_phases(sched, den), 7, arc_floor(adj))
                hs = hopset_from_single_scale(g, k, ss, sched, den)
                assert hs.den == math.lcm(*(F(e.w, hs.den).denominator for e in hs.edges))
                wrapped.append((hs.den, [(e.u, e.v, e.w) for e in hs.edges]))
        assert wrapped[:3] == wrapped[3:]


@st.composite
def floor_cases(draw):
    """A small simple graph, a band whose first phases may be idle, degrees, a seed.

    The degrees are None, for the schedule's own, or a deg tuple for phases
    0 and 1 that forces some of their sampling probabilities 1/deg: inf
    samples no cluster, 1.0 every one and 2.0 half.
    """
    n = draw(st.integers(2, 24))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    low = draw(st.sampled_from([1, 3, 40, 1000]))
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True))
    weights = st.integers(low, low * draw(st.sampled_from([1, 2, 50])))
    g = Graph.from_edges(n, [(u, v, draw(weights)) for u, v in chosen])
    rhat = draw(st.sampled_from([2**j for j in range(1, 17)] + [3, 600, 1600]))
    own = compute_schedule(n, 2, F(1, 2), F(1, 10), 1).deg  # deg does not depend on Rhat
    inf = math.inf
    deg = draw(st.sampled_from([None, (inf, own[1]), (1.0, own[1]), (own[0], inf), (2.0, 1.0)]))
    return g, rhat, deg, draw(st.integers(0, 2**32))


# Rhat = 1600 puts delta_0 at 16 and delta_0 / 2 at 8: arcs of exactly those
# weights keep phase 0 active
@given(floor_cases())
@example((Graph.from_edges(3, [(0, 1, 8), (1, 2, 9)]), 1600, (math.inf, 3.0**0.5), 1))
@example((Graph.from_edges(3, [(0, 1, 16), (1, 2, 16)]), 1600, (2.0, 3.0**0.5), 3))
@settings(deadline=None, max_examples=200)
def test_idle_phases_match_a_build_without_floor(case):
    # floor 0 idles no phase: every exploration runs, as before idle phases
    g, rhat, deg, seed = case
    den = 200
    adj = scaled_adj(g, den)
    phases = scaled_phases(compute_schedule(g.n, 2, F(1, 2), F(1, 10), rhat), den)
    if deg is not None:
        phases = phases._replace(deg=deg)
    slow, fast = (build_single_scale(adj, phases, seed, floor) for floor in (0, arc_floor(adj)))
    assert fast.edges == slow.edges
    assert fast.stats == slow.stats
    assert fast.partitions == slow.partitions
    # every cluster entering a phase is sampled, absorbed or unclustered,
    # and the sampled ones are the next phase's partition
    for ph in fast.stats:
        assert ph.clusters_in == ph.sampled + ph.star_edges + ph.unclustered
    assert fast.stats[-1].sampled == 0
    assert [len(p) for p in fast.partitions] == [ph.clusters_in for ph in fast.stats]
    assert [ph.sampled for ph in fast.stats[:-1]] == [len(p) for p in fast.partitions[1:]]


def test_reduced_build_explores_nothing_in_phase_zero(monkeypatch):
    # every reduced scale-k arc weighs >= 3 * (pad << k), more than delta_0
    builds = []  # each build's phases
    explored = []  # (function, phase index read off its radius)

    def traced(fn, radii, at):
        def call(*args):
            explored.append((fn.__name__, getattr(builds[-1], radii).index(args[at])))
            return fn(*args)

        return call

    def traced_build(adj, phases, seed, floor):
        builds.append(phases)
        return build_single_scale(adj, phases, seed, floor)

    ss = hopsets.single_scale
    monkeypatch.setattr(hopsets.hopset, "build_single_scale", traced_build)
    monkeypatch.setattr(ss, "supercluster_phase", traced(ss.supercluster_phase, "depth", 3))
    monkeypatch.setattr(ss, "interconnect_phase", traced(ss.interconnect_phase, "half", 2))
    build_hopset(er_graph(200, 0.03, 1, 10**9, seed=3), HopsetParams(seed=1))
    assert len(builds) > 3
    assert {name for name, _ in explored} == {"supercluster_phase", "interconnect_phase"}
    assert all(i > 0 for _, i in explored), explored
