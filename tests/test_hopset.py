import io
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopsets.hopset
import hopsets.witness
from hopsets import (
    Graph,
    Hopset,
    HopsetEdge,
    HopsetError,
    HopsetFormatError,
    HopsetParams,
    build_hopset,
    build_laminar,
    compute_schedule,
    dijkstra_all,
    dump_hopset,
    er_graph,
    exact_apsp,
    load_dimacs,
    load_hopset,
    path_graph,
    plan,
    relevant_scales,
    validate_witnesses,
    verify_stretch,
)
from hopsets.cli import main
from hopsets.scale_reduction import forest_adjacency
from hopsets.util import to_scaled
from hopsets.witness import SpanningForest, Witnesses


class ReferenceSpanningForest:
    """The parent-pointer forest that `SpanningForest` replaced, kept verbatim."""

    def __init__(self, tree: dict[int, list[tuple[int, int]]]):
        self.parent: dict[int, int | None] = {}
        self.depth: dict[int, int] = {}
        for root in tree:
            if root in self.parent:
                continue
            self.parent[root] = None
            self.depth[root] = 0
            stack = [root]
            while stack:
                x = stack.pop()
                for y, _ in tree[x]:
                    if y not in self.parent:
                        self.parent[y] = x
                        self.depth[y] = self.depth[x] + 1
                        stack.append(y)

    def path(self, a: int, b: int) -> list[int]:
        """The unique forest path from a to b."""
        up_a, up_b = [a], [b]
        while a != b:
            da, db = self.depth.get(a), self.depth.get(b)
            if da is None or db is None or (da == db == 0):
                raise HopsetError(f"vertices {up_a[0]} and {up_b[0]} not tree-connected")
            if da >= db:
                a = self.parent[a]
                up_a.append(a)
            else:
                b = self.parent[b]
                up_b.append(b)
        return up_a + up_b[-2::-1]


@st.composite
def forests(draw):
    """A forest of 1-4 trees as shuffled adjacency, and vertex pairs to join.

    Each vertex hangs off the one before it with probability `chainy`, else
    off any earlier vertex of its tree, so trees range from paths to bushes.
    Pairs draw from the forest's ids and from 3 ids outside it, and include
    every drawn id paired with itself.
    """
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    chainy = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    ids = list(range(sum(sizes) + 3))
    rnd.shuffle(ids)
    adj: dict[int, list[tuple[int, int]]] = {}
    start = 0
    for size in sizes:
        verts = ids[start : start + size]
        start += size
        adj[verts[0]] = []
        for j in range(1, size):
            p = verts[j - 1] if rnd.random() < chainy else verts[rnd.randrange(j)]
            w = rnd.randint(1, 9)
            adj[verts[j]] = [(p, w)]
            adj[p].append((verts[j], w))
    keys = list(adj)
    rnd.shuffle(keys)
    for ys in adj.values():
        rnd.shuffle(ys)
    tree = {v: adj[v] for v in keys}
    pairs = [(rnd.choice(ids), rnd.choice(ids)) for _ in range(draw(st.integers(1, 30)))]
    return tree, pairs + [(a, a) for a, _ in pairs]


def _path_or_error(forest, a, b):
    try:
        return forest.path(a, b)
    except HopsetError as exc:
        return f"HopsetError: {exc}"


def reduced_params(**kw):
    base = dict(kappa=2, rho="0.5", eps_target="0.3", seed=1, mode="reduced")
    base.update(kw)
    return HopsetParams(**base)


@st.composite
def plan_cases(draw):
    """Valid build parameters, a graph size, a band and a scale-graph size."""
    kappa = draw(st.integers(2, 6))
    rho = draw(st.fractions(F(1, kappa), F(1, 2), max_denominator=12))
    mode = draw(st.sampled_from(["reduced", "direct"]))
    top = F(1, 2) if mode == "reduced" else F(1)
    eps = draw(
        st.fractions(0, top, max_denominator=10**4).filter(
            lambda e: 0 < e and (e < top or mode == "direct")
        )
    )
    params = HopsetParams(
        kappa=kappa,
        rho=rho,
        eps_target=eps,
        mode=mode,
        degree_mode=draw(st.sampled_from(["basic", "refined"])),
    )
    n = draw(st.integers(1, 10**5))
    k = draw(st.integers(1, 90))
    return params, n, k, draw(st.integers(2, 10**5))


class TestPlan:
    @given(plan_cases())
    @settings(deadline=None, max_examples=200)
    def test_schedule_for_matches_compute_schedule(self, case):
        params, n, k, n_scale = case
        bp = plan(params, n)
        expected = compute_schedule(
            n_scale, params.kappa, params.rho, bp.eps_int, 2 ** (k + 1), params.degree_mode
        )
        assert bp.schedule_for(k, n_scale) == expected

    @given(plan_cases())
    @settings(deadline=None, max_examples=200)
    def test_phases_for_are_schedule_for_scaled(self, case):
        params, n, k, n_scale = case
        bp = plan(params, n)
        sched, den = bp.schedule_for(k, n_scale), bp.den
        phases = bp.phases_for(k, n_scale)
        assert phases.depth == tuple(to_scaled(d, den) for d in sched.delta)
        assert phases.half == tuple(to_scaled(d / 2, den) for d in sched.delta)
        assert phases.deg == sched.deg
        if params.mode == "reduced":
            # materialize_scale_graph pads scale k by `pad << k`
            assert bp.pad << k == to_scaled(bp.eps_reduction * 2**k / n, den)
        else:
            assert bp.pad is None

    @pytest.mark.parametrize("mode", ["reduced", "direct"])
    def test_one_schedule_evaluation_per_build(self, monkeypatch, mode):
        calls = []
        real = hopsets.hopset.compute_schedule
        monkeypatch.setattr(
            hopsets.hopset, "compute_schedule", lambda *a: calls.append(a) or real(*a)
        )
        hs = build_hopset(path_graph(64, 2), reduced_params(mode=mode, eps_target="0.4"))
        assert hs.build_stats["scales"] and len(calls) == 1

    def test_direct_rescaling(self):
        p = plan(HopsetParams(mode="direct", eps_target="0.96"), 1024)
        assert p.ell == 2
        assert p.eps_int == F(1, 100)
        # recurrence at eps=1/100: h = (1, 209, 21427), beta = 2*21427 + 1
        assert p.beta_single == 42855
        assert p.effective_beta == p.beta_single
        assert p.effective_eps == F("0.96")

    def test_reduced_rescaling(self):
        p = plan(reduced_params(eps_target="0.3"), 200)
        assert p.eps_reduction == F(1, 20)
        assert p.eps_int == F(1, 20) / 96
        assert p.effective_beta == 6 * p.beta_single + 5
        assert p.effective_eps == F(3, 10)

    def test_trivial_scale_rule(self):
        p = plan(reduced_params(), 64)
        kmax_trivial = p.beta_single.bit_length() - 2
        assert p.is_trivial_scale(kmax_trivial)
        assert not p.is_trivial_scale(kmax_trivial + 1)

    def test_denominator_covers_all_derived_terms(self):
        p = plan(reduced_params(eps_target="0.45"), 64)
        # contraction padding and schedule thresholds must be representable
        to_scaled(p.eps_reduction * 2**7 * 5 / 64, p.den)
        sched = p.schedule_for(7, 64)
        for d in sched.delta:
            to_scaled(d, p.den)
            to_scaled(d / 2, p.den)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(mode="reduced", eps_target="0.6"),
            dict(mode="direct", eps_target="1.5"),
            dict(mode="direct", eps_target=0),
            dict(kappa=1),
            dict(kappa=2, rho="0.25"),
            dict(rho="0.75"),
            dict(mode="mystery"),
            dict(degree_mode="mystery"),
        ],
    )
    def test_parameter_rejection(self, kw):
        with pytest.raises(HopsetError):
            plan(reduced_params(**kw), 64)


class TestBuildReduced:
    def test_two_vertex_graph(self):
        g = Graph.from_edges(2, [(0, 1, 1)])
        hs = build_hopset(g, reduced_params())
        assert all(e.kind == "star" for e in hs.edges)
        report = verify_stretch(g, hs, pair_mode="all")
        assert report.ok and report.max_stretch == 1

    def test_star_set_and_scale_tags(self):
        g = er_graph(64, 0.1, 1, 8, seed=3)
        hs = build_hopset(g, reduced_params())
        lam = build_laminar(g, F(1, 20))
        assert hs.star_count() == sum(len(e.members_absorbed) for e in lam.events)

    def test_geometric_path_uses_nontrivial_scales(self):
        g = path_graph(64, 2)
        hs = build_hopset(g, reduced_params(seed=4))
        kinds = {e.kind for e in hs.edges}
        assert "interconnect" in kinds or "supercluster" in kinds
        assert verify_stretch(g, hs, pair_mode="all").ok

    def test_lower_bound_safety_full_check(self):
        # no hopset edge undercuts the true distance between its endpoints
        g = er_graph(48, 0.15, 1, 9, seed=6)
        hs = build_hopset(g, reduced_params(seed=2))
        assert hs.edges
        for e in hs.edges:
            d = dijkstra_all(g.adj, e.u)[e.v]
            assert d is not None and e.w >= d * hs.den, (e.u, e.v, F(e.w, hs.den), d)

    def test_disconnected_graph(self):
        edges = [(0, 1, 2), (1, 2, 3), (4, 5, 7)]
        g = Graph.from_edges(6, edges)
        hs = build_hopset(g, reduced_params())
        report = verify_stretch(g, hs, pair_mode="all")
        assert report.ok
        assert report.pairs_checked == 4  # unreachable pairs excluded

    def test_edgeless_graph(self):
        g = Graph.from_edges(5, [])
        hs = build_hopset(g, reduced_params())
        assert hs.size == 0
        report = verify_stretch(g, hs, pair_mode="all")
        assert report.ok and report.pairs_checked == 0
        assert report.max_stretch is None

    def test_invalid_graph_rejected(self):
        g = Graph.from_edges(2, [(0, 1, 1)])
        g.edges[0] = (0, 1, 0)
        g.adj[0][0] = (1, 0)
        g.adj[1][0] = (0, 0)
        with pytest.raises(HopsetError, match="invalid graph"):
            build_hopset(g, reduced_params())


def reference_star_edges(lam):
    """(u, v, scale, weight) of each star, by the rule of the former `star_edges`.

    One per (merge event, absorbed vertex): (eps/n) * 2**k * |U| from the
    surviving center, for U the merged node."""
    n, eps = lam.n, lam.eps
    num, den = eps.numerator, eps.denominator * n
    out = []
    for ev in lam.events:
        w = F(num * ev.size_after << ev.scale, den)
        out += [(ev.survivor_center, z, ev.scale, w) for z in ev.members_absorbed]
    return out


class TestStarEdges:
    """The `kind == "star"` edges of reduced builds, written from the merge events."""

    @staticmethod
    def stars(g, **kw):
        hs = build_hopset(g, reduced_params(**kw))
        return [(e.u, e.v, e.scale, F(e.w, hs.den)) for e in hs.edges if e.kind == "star"]

    def test_no_merges_no_stars(self):
        assert self.stars(Graph.from_edges(3, [])) == []

    def test_single_merge_weight(self):
        g = Graph.from_edges(2, [(0, 1, 1)])
        ((u, v, k, w),) = self.stars(g)
        assert (u, v, k) == (0, 1, build_laminar(g, F(1, 20)).events[0].scale)
        assert w == F(1, 20) * 2**k * 2 / 2

    def test_unit_path_eight(self):
        stars = self.stars(path_graph(8, 1))
        assert len(stars) <= 8 * 3  # n log2 n
        # each merge absorbs one singleton on this instance
        assert len(stars) == 7

    @pytest.mark.parametrize("seed", range(5))
    def test_count_bound_random(self, seed):
        g = er_graph(128, 0.08, 1, 100, seed=seed)
        stars = self.stars(g)
        assert len(stars) <= 128 * math.log2(128)
        assert sorted(stars) == sorted(reference_star_edges(build_laminar(g, F(1, 20))))

    def test_star_weight_dominates_distance(self):
        g = er_graph(40, 0.2, 1, 30, seed=4)
        for u, v, _, w in self.stars(g):
            assert dijkstra_all(g.adj, u)[v] <= w


def least_den(hs):
    """The lcm of the edge weights' denominators in lowest terms."""
    return math.lcm(*(F(e.w, hs.den).denominator for e in hs.edges))


class TestDenominator:
    @pytest.mark.parametrize(
        "params",
        [
            reduced_params(seed=3),
            reduced_params(eps_target="0.45", kappa=3, rho="0.4", path_reporting=True),
            HopsetParams(mode="direct", eps_target="0.3", seed=2),
            HopsetParams(mode="direct", eps_target="1", seed=5, path_reporting=True),
        ],
    )
    @pytest.mark.parametrize(
        "graph",
        [er_graph(80, 0.08, 1, 10**9, seed=1), path_graph(48, 2), Graph.from_edges(4, [])],
        ids=["er-wide", "geo-path", "edgeless"],
    )
    def test_built_and_loaded_den_is_the_least(self, graph, params):
        hs = build_hopset(graph, params)
        assert hs.den == least_den(hs)
        assert plan(params, graph.n).den % hs.den == 0  # the build's den, reduced once
        loaded = load_hopset(io.StringIO(_dumps(hs)))
        assert loaded.den == hs.den
        assert [e.w for e in loaded.edges] == [e.w for e in hs.edges]

    @pytest.mark.parametrize(
        "weights,den,ws",
        [
            ([], 1, []),
            (["5/1"], 1, [5]),
            (["1/6", "3/4", "5/1"], 12, [2, 9, 60]),
            (["2/4", "6/4"], 2, [1, 3]),  # each line in lowest terms
            (["-1/-2", "-3/-1"], 2, [1, 6]),  # the signs cancel
        ],
    )
    def test_loaded_den_is_the_lcm_of_lowest_denominators(self, weights, den, ws):
        text = "h 1 3 5 1/10\n" + "".join(f"e 1 2 {w} 1 star\n" for w in weights)
        loaded = load_hopset(io.StringIO(text))
        assert (loaded.den, [e.w for e in loaded.edges]) == (den, ws)


    @pytest.mark.parametrize("mode", ["reduced", "direct"])
    def test_built_and_loaded_edges_are_in_lowest_terms(self, mode):
        g = er_graph(80, 0.08, 1, 10**9, seed=1)
        hs = build_hopset(g, HopsetParams(mode=mode, eps_target="0.3", seed=2))
        text = "h 1 3 5 1/10\ne 1 2 1/6 4 star\ne 2 3 14/24 5 supercluster\n"
        text += "e 3 1 5/1 6 interconnect\n"  # the lcm 12 remakes every edge but the second
        loaded = load_hopset(io.StringIO(text))
        assert loaded.den == 12
        assert loaded.edges == [
            HopsetEdge(0, 1, 2, 4, "star"),
            HopsetEdge(1, 2, 7, 5, "supercluster"),
            HopsetEdge(2, 0, 60, 6, "interconnect"),
        ]
        for h in (hs, load_hopset(io.StringIO(_dumps(hs))), loaded):
            assert h.edges and all(type(e) is HopsetEdge for e in h.edges)
            assert math.gcd(h.den, *(e.w for e in h.edges)) == 1


class TestBuildDirect:
    def test_small_er(self):
        g = er_graph(40, 0.15, 1, 6, seed=7)
        hs = build_hopset(g, HopsetParams(mode="direct", eps_target="0.9", seed=5))
        assert verify_stretch(g, hs, pair_mode="all").ok

    def test_both_modes_verify_on_geometric_path(self):
        g = path_graph(64, 2)
        direct = build_hopset(g, HopsetParams(mode="direct", eps_target="1", seed=2))
        reduced = build_hopset(g, reduced_params(seed=2))
        assert verify_stretch(g, direct, pair_mode="all").ok
        assert verify_stretch(g, reduced, pair_mode="all").ok


class TestArcFloor:
    """The floors `build_hopset` passes idle phases without changing the hopset."""

    # at eps_target 3/4 a direct build scales by 2**15 and phase 0 of scale k
    # explores to 2**(k+2), half of that when interconnecting; so arcs of
    # weight 8 sit exactly at phase 0's radius on scale 16 and at its half on
    # scale 17, and the heavy edge lets the build reach those scales
    BOUNDARY = Graph.from_edges(
        24, [(v, v + 1, 8) for v in range(23)] + [(0, 12, 8), (5, 20, 8), (0, 23, 2**18)]
    )

    @pytest.mark.parametrize(
        "mode,graph,eps",
        [
            ("direct", BOUNDARY, "3/4"),
            ("direct", er_graph(60, 0.1, 1, 10**9, seed=2), "0.9"),
            ("reduced", er_graph(200, 0.03, 1, 10**9, seed=3), "0.3"),
            ("reduced", path_graph(64, 2), "0.3"),
        ],
    )
    def test_matches_a_build_without_floor(self, monkeypatch, mode, graph, eps):
        params = HopsetParams(mode=mode, eps_target=eps, seed=4, path_reporting=True)
        fast = build_hopset(graph, params)
        build = hopsets.hopset.build_single_scale

        def without_floor(adj, phases, seed, floor):
            return build(adj, phases, seed, 0)

        monkeypatch.setattr(hopsets.hopset, "build_single_scale", without_floor)
        slow = build_hopset(graph, params)
        assert _dumps(fast) == _dumps(slow)
        assert fast.build_stats == slow.build_stats
        assert fast.build_stats["scales"]


class TestVariants:
    def test_refined_degree_mode_builds_and_verifies(self):
        g = path_graph(64, 2)
        params = reduced_params(degree_mode="refined", seed=6)
        hs = build_hopset(g, params)
        bp = plan(params, g.n)
        assert bp.ell == 3  # one phase more than basic
        assert verify_stretch(g, hs, pair_mode="all").ok


class TestWitnesses:
    def test_reduced_witnesses_validate(self):
        g = er_graph(60, 0.12, 1, 16, seed=9)
        hs = build_hopset(g, reduced_params(path_reporting=True, seed=3))
        assert hs.witnesses is not None and len(hs.witnesses) == hs.size
        assert validate_witnesses(g, hs) == []

    def test_direct_witness_weight_equality(self):
        g = path_graph(64, 2)
        hs = build_hopset(
            g, HopsetParams(mode="direct", eps_target="1", seed=2, path_reporting=True)
        )
        assert validate_witnesses(g, hs) == []
        for e, path in zip(hs.edges, hs.witnesses):
            total = sum(g.weight(a, b) for a, b in zip(path, path[1:]))
            assert total * hs.den == e.w  # exact equality in direct mode

    def test_star_witness_bounded_by_tree_budget(self):
        g = er_graph(40, 0.2, 1, 4, seed=5)
        hs = build_hopset(g, reduced_params(path_reporting=True))
        lam = build_laminar(g, F(1, 20))
        for e, path in zip(hs.edges, hs.witnesses):
            if e.kind != "star":
                continue
            total = sum(g.weight(a, b) for a, b in zip(path, path[1:]))
            assert total * hs.den <= e.w

    @pytest.mark.parametrize("laminar", [False, True])
    def test_attaching_witnesses_leaves_the_hopset_as_it_is(self, laminar):
        g = path_graph(4, 2)
        hs = Hopset(4, [HopsetEdge(0, 2, 3, 1, "star")], 1, 1, F(1, 10), {})
        lam = build_laminar(g, F(1, 5)) if laminar else None
        records = [(0, 2) if laminar else (0, 1, 2)]  # anchors, or the path itself
        with_paths = hopsets.hopset.attach_witness_paths(lam, hs, records)
        assert hs.witnesses is None
        assert with_paths._replace(witnesses=None) == hs
        assert list(with_paths.witnesses) == [(0, 1, 2)]

    def test_empty_witness_is_a_problem(self):
        g = path_graph(4, 2)
        edge = HopsetEdge(0, 3, 7, 1, "star")
        hs = Hopset(4, [edge], 1, 1, F(1, 10), {}, witnesses=[()])
        assert validate_witnesses(g, hs) == ["edge 0: empty witness"]

    @pytest.mark.parametrize(
        "w,problems", [(5, ["edge 0: witness weight 3 > edge weight 5/2"]), (6, [])]
    )
    def test_witness_heavier_than_its_edge_is_a_problem(self, w, problems):
        g = path_graph(4, 2)  # weights 1, 2, 4: the path 1, 2, 3 weighs 3
        hs = Hopset(4, [HopsetEdge(0, 2, w, 1, "star")], 2, 1, F(1, 10), {}, witnesses=[(0, 1, 2)])
        assert validate_witnesses(g, hs) == problems

    @staticmethod
    def _unjoined():
        """path(12, 1) with forest trees 1..6 and 7..12; edge 1's anchors 3 and 10 lie in both."""
        forest = [(x, x + 1, 1) for x in range(11) if x != 5]
        witnesses = Witnesses(forest, [(0, 5), (2, 9)])
        edges = [HopsetEdge(0, 5, 5, 1, "star"), HopsetEdge(2, 9, 7, 1, "star")]
        return path_graph(12, 1), Hopset(12, edges, 1, 1, F(1, 10), {}, witnesses=witnesses)

    def test_unjoined_anchors_name_their_edge_as_the_loader_does(self):
        _, hs = self._unjoined()
        assert hs.witnesses[0] == (0, 1, 2, 3, 4, 5)
        with pytest.raises(HopsetError) as exc:
            hs.witnesses[1]
        assert str(exc.value) == "edge 1: anchors 3 and 10 are not joined by the forest"
        text = io.StringIO()
        dump_hopset(hs, text)
        with pytest.raises(HopsetFormatError) as exc:
            load_hopset(io.StringIO(text.getvalue()))
        assert str(exc.value).endswith("anchors 3 and 10 are not joined by the forest")

    def test_unjoined_anchors_are_a_problem(self):
        g, hs = self._unjoined()
        problems = ["edge 1: anchors 3 and 10 are not joined by the forest"]
        assert validate_witnesses(g, hs) == problems

    def test_forest_step_off_the_graph_is_a_problem(self):
        g = path_graph(4, 2)
        witnesses = Witnesses([(0, 2, 1)], [(0, 2)])
        hs = Hopset(4, [HopsetEdge(0, 2, 3, 1, "star")], 1, 1, F(1, 10), {}, witnesses=witnesses)
        assert validate_witnesses(g, hs) == ["edge 0: (1,3) is not a graph edge"]

    def test_build_verify_and_stats_expand_no_witness(self, tmp_path, monkeypatch):
        counts = {"forests": 0, "reads": 0}

        class CountedForest(SpanningForest):
            def __init__(self, tree):
                counts["forests"] += 1
                super().__init__(tree)

        read = Witnesses.__getitem__

        def counted_read(self, i):
            counts["reads"] += 1
            return read(self, i)

        monkeypatch.setattr(hopsets.witness, "SpanningForest", CountedForest)
        monkeypatch.setattr(Witnesses, "__getitem__", counted_read)
        graph, hopset = tmp_path / "g.gr", tmp_path / "h.hs"
        gen = ["--model", "path", "--n", "64", "--base", "2", "--seed", "1"]
        assert main(["gen", *gen, "--out", str(graph)]) == 0
        io_args = ["--graph", str(graph), "--hopset", str(hopset)]
        build = ["build", "--graph", str(graph), "--out", str(hopset), "--path-reporting"]
        assert main(build) == 0
        assert main(["verify", *io_args, "--pairs", "all"]) == 0
        assert main(["stats", "--hopset", str(hopset)]) == 0
        # padded reduced edges are strictly longer than the distances they
        # span, so no shortest union path takes one and a query reads none
        query = ["query", *io_args, "--sources", "1,32,64"]
        paths = ["--out", str(tmp_path / "q.csv"), "--paths", str(tmp_path / "q.paths")]
        assert main([*query, *paths]) == 0
        assert counts == {"forests": 0, "reads": 0}
        # the counters do see expansion: checking every witness roots the forest once
        hs = load_hopset(str(hopset))
        assert validate_witnesses(load_dimacs(str(graph)), hs) == []
        assert counts == {"forests": 1, "reads": hs.size}

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_forest_paths_are_node_tree_paths(self, seed):
        # a forest has one simple path per vertex pair, so these checks pin
        # the splice to the path inside each node's own spanning tree
        g = er_graph(40, 0.06, 1, 64, seed=seed)  # sparse: several components
        lam = build_laminar(g, F(1, 5))
        forest = SpanningForest(forest_adjacency(ev.edge for ev in lam.events))
        for k in sorted({ev.scale for ev in lam.events}):
            tree = {x: {y for y, _ in ys} for x, ys in lam.tree_adjacency_at(k).items()}
            nodes: dict[int, list[int]] = {}
            for v, c in enumerate(lam.nodes_at(k).label):
                nodes.setdefault(c, []).append(v)
            for members in nodes.values():
                for a in members:
                    for b in members:
                        path = forest.path(a, b)
                        assert path[0] == a and path[-1] == b
                        assert len(set(path)) == len(path)
                        assert all(y in tree[x] for x, y in zip(path, path[1:]))

    def test_forest_path_across_trees_errors(self):
        forest = SpanningForest({0: [(1, 5)], 1: [(0, 5)], 2: [(3, 1)], 3: [(2, 1)]})
        assert forest.path(1, 0) == [1, 0]
        with pytest.raises(HopsetError, match="not tree-connected"):
            forest.path(0, 3)
        with pytest.raises(HopsetError, match="not tree-connected"):
            forest.path(0, 4)

    @given(forests())
    @settings(deadline=None, max_examples=300)
    def test_forest_path_matches_parent_walk(self, case):
        tree, pairs = case
        forest, reference = SpanningForest(tree), ReferenceSpanningForest(tree)
        for a, b in pairs:
            assert _path_or_error(forest, a, b) == _path_or_error(reference, a, b)

    def test_deep_forest_path_climbs_both_sides(self):
        # a 5000-vertex path listed middle vertex first, so it is rooted
        # there and the walk between the ends climbs about 2500 steps per side
        n, mid = 5000, 2500
        adj = {v: [(u, 1) for u in (v - 1, v + 1) if 0 <= u < n] for v in range(n)}
        tree = {mid: adj[mid], **adj}
        forest, reference = SpanningForest(tree), ReferenceSpanningForest(tree)
        assert forest.depth[0] == mid and forest.depth[n - 1] == n - 1 - mid
        path = forest.path(0, n - 1)
        assert path == list(range(n))
        assert forest.path(n - 1, 0) == path[::-1]
        assert path == reference.path(0, n - 1)


class TestDeterminismAndFiles:
    def test_identical_builds_byte_identical_files(self):
        g = er_graph(60, 0.1, 1, 12, seed=11)
        a = build_hopset(g, reduced_params(seed=21))
        b = build_hopset(g, reduced_params(seed=21))
        assert _dumps(a) == _dumps(b)

    def test_different_seed_changes_file(self):
        g = path_graph(64, 2)  # nontrivial scales so sampling matters
        a = build_hopset(g, reduced_params(seed=1))
        b = build_hopset(g, reduced_params(seed=2))
        assert _dumps(a) != _dumps(b)

    @pytest.mark.parametrize(
        "kw", [dict(path_reporting=True), dict(mode="direct")], ids=["reduced-w", "direct"]
    )
    def test_float_params_are_exact(self, kw):
        # 0.3 and 0.5 are stored as 3/10 and 1/2, not as the binary floats near them
        floats = HopsetParams(eps_target=0.3, rho=0.5, **kw)
        exact = HopsetParams(eps_target="3/10", rho="1/2", **kw)
        assert floats == exact
        assert (floats.eps_target, floats.rho) == (F(3, 10), F(1, 2))
        g = path_graph(64, 2)
        assert _dumps(build_hopset(g, floats)) == _dumps(build_hopset(g, exact))

    def test_roundtrip_bit_exact(self):
        g = er_graph(50, 0.15, 1, 20, seed=4)
        hs = build_hopset(g, reduced_params(path_reporting=True, seed=9))
        text = _dumps(hs)
        loaded = load_hopset(io.StringIO(text))
        assert _dumps(loaded) == text
        assert loaded.effective_beta == hs.effective_beta
        assert loaded.effective_eps == hs.effective_eps
        assert loaded.witnesses == hs.witnesses
        assert loaded.den == hs.den
        assert [(e.u, e.v, e.w, e.scale, e.kind) for e in loaded.edges] == [
            (e.u, e.v, e.w, e.scale, e.kind) for e in hs.edges
        ]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--seed", "13"],
            ["--kappa", "3", "--rho", "0.4", "--eps", "0.25", "--degree-mode", "refined",
             "--path-reporting", "--seed", "5"],
            ["--mode", "direct", "--eps", "0.9", "--path-reporting", "--seed", "2"],
        ],
    )
    def test_rebuild_from_provenance(self, tmp_path, flags):
        # a file's `c` lines, passed back as `hopset build` flags, rebuild it
        # bit for bit
        graph, first, again = tmp_path / "g.gr", tmp_path / "a.hs", tmp_path / "b.hs"
        gen = ["--model", "er", "--n", "50", "--p", "0.15", "--wmax", "20", "--seed", "4"]
        assert main(["gen", *gen, "--out", str(graph)]) == 0
        assert main(["build", "--graph", str(graph), "--out", str(first), *flags]) == 0
        prov = dict(
            line.split(" ", 2)[1:]
            for line in first.read_text().splitlines()
            if line.startswith("c ")
        )
        assert prov["graph"] == load_dimacs(str(graph)).digest()
        rebuild = [
            "--kappa", prov["kappa"], "--rho", prov["rho"], "--eps", prov["eps"],
            "--mode", prov["mode"], "--degree-mode", prov["degree_mode"],
            "--seed", prov["seed"],
        ] + (["--path-reporting"] if prov["path_reporting"] == "true" else [])
        assert main(["build", "--graph", str(graph), "--out", str(again), *rebuild]) == 0
        assert again.read_bytes() == first.read_bytes()

    def test_bad_file_rejected(self):
        with pytest.raises(HopsetError):
            load_hopset(io.StringIO("e 1 2 3/1 0 star\n"))
        with pytest.raises(HopsetError):
            load_hopset(io.StringIO("h 99 2 1 1/10\n"))


class TestScalePartition:
    def test_every_finite_pair_in_exactly_one_band(self):
        g = er_graph(40, 0.2, 1, 30, seed=2)
        apsp = exact_apsp(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                d = apsp[u][v]
                if d is None or d <= 1:
                    continue
                bands = [k for k in range(0, 64) if 2**k < d <= 2 ** (k + 1)]
                assert len(bands) == 1

    def test_trivial_bands_need_no_hopset_edges(self):
        # restricting to scales above k keeps the contract on pairs with
        # 2**(k+1) <= beta, because short distances need few hops anyway
        g = er_graph(50, 0.2, 1, 6, seed=8)
        hs = build_hopset(g, reduced_params())
        bp = plan(reduced_params(), g.n)
        for k in relevant_scales(g):
            if not bp.is_trivial_scale(k):
                continue
            restricted = Hopset(
                n=hs.n,
                edges=[e for e in hs.edges if e.scale > k],
                den=hs.den,
                effective_beta=hs.effective_beta,
                effective_eps=hs.effective_eps,
                provenance=hs.provenance,
            )
            report = verify_stretch(g, restricted, pair_mode="band", band=k)
            assert report.ok


def _dumps(hs) -> str:
    buf = io.StringIO()
    dump_hopset(hs, buf)
    return buf.getvalue()
