import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopsets import (
    Graph,
    Hopset,
    HopsetError,
    HopsetParams,
    build_hopset,
    er_graph,
    dijkstra_all,
    exact_apsp,
    hop_limited_bellman_ford,
    path_graph,
    size_stats,
    verify_stretch,
)
from hopsets import verify as verify_module
from hopsets.hopset import HopsetEdge
from hopsets.verify import (
    VerificationReport,
    _frac,
    _load_summary,
    _sample_pairs,
    _union_edges,
)


def empty_hopset(n, beta, eps=F(1, 10)):
    return Hopset(n=n, edges=[], effective_beta=beta, effective_eps=eps, provenance={})


class TestExactApsp:
    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1, 5)])
        assert exact_apsp(g) == [[0, 5], [5, 0]]

    def test_disconnected_pair_is_none(self):
        g = Graph.from_edges(3, [(0, 1, 2)])
        d = exact_apsp(g)
        assert d[0][2] is None and d[2][0] is None

    def test_unit_cycle_six(self):
        edges = [(i, (i + 1) % 6, 1) for i in range(6)]
        g = Graph.from_edges(6, edges)
        d = exact_apsp(g)
        assert max(d[i][j] for i in range(6) for j in range(6)) == 3

    def test_size_guard(self):
        g = path_graph(501, 1)  # one above N_MAX_ALLPAIRS = 500
        with pytest.raises(HopsetError, match="too large"):
            exact_apsp(g)


class TestVerifyStretch:
    def test_complete_unit_graph_empty_hopset(self):
        n = 12
        g = Graph.from_edges(n, [(i, j, 1) for i in range(n) for j in range(i + 1, n)])
        report = verify_stretch(g, empty_hopset(n, beta=1))
        assert report.ok
        assert report.max_stretch == 1
        assert report.pairs_checked == n * (n - 1) // 2

    def test_hop_starved_unit_path(self):
        g = path_graph(100, 1)
        report = verify_stretch(g, empty_hopset(100, beta=10))
        # every pair at distance in (10, 99] lacks a 10-hop path entirely
        expected = sum(100 - d for d in range(11, 100))
        assert report.violation_total == expected
        assert not report.ok
        assert report.violations[0]["d_limited"] is None

    def test_built_hopset_no_violations(self):
        g = er_graph(100, 0.1, 1, 8, seed=5)
        hs = build_hopset(g, HopsetParams.make(eps_target="0.3", seed=5))
        report = verify_stretch(g, hs, pair_mode="all")
        assert report.ok

    def test_undercut_edge_is_flagged(self):
        # a hopset edge below the true distance breaks the lower bound
        g = path_graph(6, 1)
        bogus = Hopset(
            n=6,
            edges=[HopsetEdge(0, 5, F(2), 2, "interconnect")],
            effective_beta=10,
            effective_eps=F(1, 2),
            provenance={},
        )
        report = verify_stretch(g, bogus)
        assert not report.ok
        assert any(v["u"] == 0 and v["v"] == 5 for v in report.violations)

    def test_band_mode_filters_pairs(self):
        g = path_graph(20, 1)
        report = verify_stretch(g, empty_hopset(20, beta=30), pair_mode="band", band=2)
        expected = sum(20 - d for d in range(5, 9))  # d in (4, 8]
        assert report.pairs_checked == expected

    def test_all_mode_ignores_band_and_says_all(self):
        g = path_graph(20, 1)
        report = verify_stretch(g, empty_hopset(20, beta=30), pair_mode="all", band=3)
        assert report.pair_mode == "all"
        assert report.pairs_checked == 20 * 19 // 2

    def test_band_union_covers_all_pairs_beyond_one(self):
        g = er_graph(30, 0.2, 1, 9, seed=3)
        hs = empty_hopset(30, beta=29)
        total = sum(
            verify_stretch(g, hs, pair_mode="band", band=k).pairs_checked
            for k in range(0, 12)
        )
        apsp = exact_apsp(g)
        expected = sum(
            1
            for u in range(30)
            for v in range(u + 1, 30)
            if apsp[u][v] is not None and apsp[u][v] > 1
        )
        assert total == expected

    def test_sample_mode_deterministic_and_finite(self):
        g = Graph.from_edges(7, [(0, 1, 2), (1, 2, 3), (3, 4, 1), (4, 5, 9)])
        hs = empty_hopset(7, beta=6)
        a = verify_stretch(g, hs, pair_mode="sample", sample_size=50, sample_seed=3)
        b = verify_stretch(g, hs, pair_mode="sample", sample_size=50, sample_seed=3)
        da, db = a.to_dict(), b.to_dict()
        da.pop("wall_time"), db.pop("wall_time")
        assert da == db
        assert a.pairs_checked == 50  # vertex 6 isolated, never drawn

    def test_all_mode_size_guard(self):
        g = path_graph(501, 1)  # one above N_MAX_ALLPAIRS = 500
        for mode, kw in (("all", {}), ("band", {"band": 3})):
            with pytest.raises(HopsetError, match="limited to n <= 500"):
                verify_stretch(g, empty_hopset(501, beta=5), pair_mode=mode, **kw)

    @pytest.mark.parametrize(
        "kw,match",
        [
            ({"pair_mode": "sample", "sample_size": 0}, "selects no pair"),
            ({"pair_mode": "sample", "sample_size": -5}, "selects no pair"),
            ({"pair_mode": "band", "band": -3}, "k >= -1"),
            ({"pair_mode": "band"}, "k >= -1"),
        ],
    )
    def test_spec_that_selects_no_pair_is_rejected(self, kw, match):
        g = path_graph(8, 2)
        with pytest.raises(HopsetError, match=match):
            verify_stretch(g, empty_hopset(8, beta=7), **kw)

    @pytest.mark.parametrize(
        "kw", [{"pair_mode": "sample", "sample_size": 1}, {"pair_mode": "band", "band": -1}]
    )
    def test_smallest_selecting_spec_is_accepted(self, kw):
        g = path_graph(8, 2)
        assert verify_stretch(g, empty_hopset(8, beta=7), **kw).ok

    def test_n_mismatch(self):
        g = path_graph(5, 1)
        with pytest.raises(HopsetError, match="n="):
            verify_stretch(g, empty_hopset(6, beta=5))

    def test_verification_is_read_only(self):
        g = er_graph(40, 0.2, 1, 7, seed=2)
        hs = build_hopset(g, HopsetParams.make(eps_target="0.3", seed=1))
        digest = g.digest()
        edges_before = [(e.u, e.v, e.weight) for e in hs.edges]
        verify_stretch(g, hs, pair_mode="all")
        assert g.digest() == digest
        assert [(e.u, e.v, e.weight) for e in hs.edges] == edges_before

class TestReport:
    def test_json_stable_key_order(self):
        g = path_graph(5, 1)
        report = verify_stretch(g, empty_hopset(5, beta=4))
        # to_dict holds only JSON values: exact rationals come out as "num/den"
        parsed = json.loads(json.dumps(report.to_dict(), sort_keys=True, indent=2))
        assert list(parsed) == sorted(parsed)
        assert (parsed["effective_eps"], parsed["max_stretch"]) == ("1/10", "1/1")

    def test_max_stretch_at_least_one(self):
        g = er_graph(25, 0.3, 1, 5, seed=6)
        report = verify_stretch(g, empty_hopset(25, beta=24))
        assert report.pairs_checked > 0
        assert report.max_stretch >= 1


class TestSizeStats:
    def test_empty(self):
        stats = size_stats(empty_hopset(16, beta=3), 16, 2)
        assert stats["total_edges"] == 0
        assert stats["per_scale"] == {}
        assert stats["normalized_ratio"] == 0

    def test_per_scale_counts(self):
        edges = [HopsetEdge(0, 1, F(3), 4, "interconnect") for _ in range(3)]
        hs = Hopset(n=8, edges=edges, effective_beta=9, effective_eps=F(1, 5), provenance={})
        stats = size_stats(hs, 8, 2)
        assert stats["per_scale"] == {4: 3}

    def test_star_bound_reported(self):
        g = er_graph(64, 0.1, 1, 8, seed=1)
        hs = build_hopset(g, HopsetParams.make(eps_target="0.3", seed=1))
        stats = size_stats(hs, 64, 2)
        assert stats["star_within_bound"]
        assert stats["star_edges"] <= 64 * 6


def reference_verify(graph, hopset, pair_mode="all", sample_size=1000, sample_seed=0, band=None):
    """Reference: the former stretch check, a full hop-limited Bellman-Ford table for all
    sources plus a full oracle sweep per source.  Report dict without wall_time."""
    den = hopset.weight_den()
    rel = _union_edges(graph, hopset, den)
    eps = hopset.effective_eps
    beta = hopset.effective_beta
    n = graph.n

    if pair_mode in ("all", "band"):
        wanted = {s: None for s in range(n)}
        mode_desc = "all" if pair_mode == "all" else f"band({band})"
    else:
        pairs = _sample_pairs(graph, sample_size, sample_seed)
        wanted = {}
        for s, v in pairs:
            wanted.setdefault(s, []).append(v)
        mode_desc = f"sample({sample_size},{sample_seed})"

    lo = hi = None
    if pair_mode == "band":
        lo, hi = 2**band, 2 ** (band + 1)

    pairs_checked = 0
    max_stretch = None
    violations = []
    total_violations = 0
    sources = sorted(wanted)
    limited = hop_limited_bellman_ford(n, rel, sources, beta).dist
    for s in sources:
        d_true = dijkstra_all(graph.adj, s)
        lim = limited[s]
        targets = wanted[s] if wanted[s] is not None else range(s + 1, n)
        for v in targets:
            dg = d_true[v]
            if v == s or dg is None:
                continue
            if lo is not None and not (lo < dg <= hi):
                continue
            pairs_checked += 1
            dl = lim[v]
            stretch = None
            if dl is not None:
                stretch = F(dl, dg * den)
                if max_stretch is None or stretch > max_stretch:
                    max_stretch = stretch
            if dl is None or dl < dg * den or dl * eps.denominator > dg * den * (
                eps.numerator + eps.denominator
            ):
                total_violations += 1
                if len(violations) < 100:
                    violations.append(
                        {
                            "u": s,
                            "v": v,
                            "d_true": dg,
                            "d_limited": _frac(F(dl, den)) if dl is not None else None,
                            "stretch": _frac(stretch),
                        }
                    )
    load = None
    if hopset.build_stats:
        load = _load_summary(hopset.build_stats, n)
    report = VerificationReport(
        n=n,
        pair_mode=mode_desc,
        effective_beta=beta,
        effective_eps=eps,
        pairs_checked=pairs_checked,
        max_stretch=max_stretch,
        violations=violations,
        violation_total=total_violations,
        per_scale_sizes=hopset.per_scale_sizes(),
        star_edges=hopset.star_count(),
        hopset_edges=hopset.size,
        exploration_load=load,
    ).to_dict()
    del report["wall_time"]
    return report


# hopset weights as multiples of the true distance: undercutting, exact, overlong
FACTORS = [F(1, 2), F(9, 10), F(1), F(11, 10), F(13, 10), F(3, 2), F(3)]


@st.composite
def verify_cases(draw):
    """A random graph (up to three components), a hopset mixing undercutting and
    overlong edges, a hop budget on either side of n - 1 and a pair spec."""
    n = draw(st.integers(2, 24))
    comp = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    wmax = draw(st.sampled_from([1, 20, 10**9]))
    weight = st.integers(1, wmax)
    raw = []
    for c in set(comp):  # a spanning path per component, so n - 1 hops can be needed
        order = draw(st.permutations([v for v in range(n) if comp[v] == c]))
        raw += [(u, v, draw(weight)) for u, v in zip(order, order[1:])]
    vertex = st.integers(0, n - 1)
    raw += draw(st.lists(st.tuples(vertex, vertex, weight), max_size=2 * n))
    g = Graph.from_edges(n, [(u, v, w) for u, v, w in raw if u != v and comp[u] == comp[v]])
    edges = []
    for _ in range(draw(st.integers(0, n))):
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        d = dijkstra_all(g.adj, u)[v]
        if d is None:  # across components: any positive weight
            weight = F(draw(st.integers(1, 50)), draw(st.integers(1, 4)))
        else:
            weight = d * draw(st.sampled_from(FACTORS))
        edges.append(HopsetEdge(u, v, weight, draw(st.integers(0, 5)), "interconnect"))
    beta = draw(st.sampled_from([0, 1, 2, max(0, n - 2), n - 1, n, 10**8]))
    eps = draw(st.sampled_from([F(0), F(1, 10), F(3, 10), F(1)]))
    hopset = Hopset(n=n, edges=edges, effective_beta=beta, effective_eps=eps, provenance={})
    mode = draw(st.sampled_from(["all", "band", "sample"]))
    kw = {}
    if mode == "band":
        kw["band"] = draw(st.integers(-1, 32))
    elif mode == "sample":
        kw = {"sample_size": draw(st.integers(1, 40)), "sample_seed": draw(st.integers(0, 99))}
    return g, hopset, mode, kw


@given(verify_cases())
@settings(deadline=None, max_examples=200)
def test_matches_full_table_reference(case):
    # beta >= n - 1 takes the early-exit Dijkstras, smaller beta the Bellman-Ford table
    g, hopset, mode, kw = case
    report = verify_stretch(g, hopset, pair_mode=mode, **kw).to_dict()
    del report["wall_time"]
    assert report == reference_verify(g, hopset, pair_mode=mode, **kw)


@pytest.mark.parametrize("mode,kw", [("all", {}), ("band", {"band": 3}),
                                     ("sample", {"sample_size": 80, "sample_seed": 2})])
@pytest.mark.parametrize("seed", [1, 2])
def test_built_hopset_matches_full_table_reference(mode, kw, seed):
    g = er_graph(60, 0.08, 1, 12, seed=seed)
    hs = build_hopset(g, HopsetParams.make(eps_target="0.3", seed=seed, mode="direct"))
    for beta in (hs.effective_beta, 2):  # as built, and far below n - 1
        hs.effective_beta = beta
        report = verify_stretch(g, hs, pair_mode=mode, **kw).to_dict()
        del report["wall_time"]
        assert report == reference_verify(g, hs, pair_mode=mode, **kw)


@pytest.fixture
def sweeps(monkeypatch):
    """Record (adjacency, source) of every `dijkstra_all` call verify makes."""
    calls = []
    real = verify_module.dijkstra_all

    def counted(adj, source, targets=None):
        calls.append((adj, source))
        return real(adj, source, targets)

    monkeypatch.setattr(verify_module, "dijkstra_all", counted)
    return calls


def checked_report(g, hopset, mode="all", **kw):
    report = verify_stretch(g, hopset, pair_mode=mode, **kw).to_dict()
    del report["wall_time"]
    assert report == reference_verify(g, hopset, pair_mode=mode, **kw)
    return report


@pytest.mark.parametrize("build_mode,eps", [("reduced", "0.3"), ("direct", "1")])
def test_one_union_sweep_per_source(sweeps, build_mode, eps):
    # three isolated vertices: targets the union sweep leaves without a key
    g = Graph.from_edges(63, er_graph(60, 0.15, 1, 1000, seed=2).edges)
    hs = build_hopset(g, HopsetParams.make(eps_target=eps, seed=2, mode=build_mode))
    assert hs.size > 0 and hs.effective_beta >= g.n - 1
    sample = {"sample_size": 80, "sample_seed": 3}
    for mode, kw, sources in (
        ("all", {}, list(range(g.n))),
        ("sample", sample, sorted({s for s, _ in _sample_pairs(g, 80, 3)})),
    ):
        sweeps.clear()
        assert checked_report(g, hs, mode, **kw)["violation_count"] == 0
        assert [s for _, s in sweeps] == sources
        assert all(adj is not g.adj for adj, _ in sweeps)

    # one hopset edge at half its true distance: an undercut the oracle must price
    e = hs.edges[0]
    hs.edges[0] = HopsetEdge(e.u, e.v, dijkstra_all(g.adj, e.u)[e.v] * F(1, 2), e.scale, e.kind)
    sweeps.clear()
    report = checked_report(g, hs)
    assert report["violation_count"] > 0
    assert any(adj is g.adj for adj, _ in sweeps)


def test_hopset_edge_count_carries_no_digit():
    # a hopset twin under every path edge: the shortest 0 -> n-1 union path takes
    # all n - 1 twins, the largest count a key must hold below its distance digit
    n = 9
    g = path_graph(n, 3)  # odd weights 3**i, so the halved twins need den = 2
    half = [HopsetEdge(u, v, F(w, 2), 0, "interconnect") for u, v, w in g.edges]
    hs = Hopset(n=n, edges=half, effective_beta=n - 1, effective_eps=F(1, 10), provenance={})
    report = checked_report(g, hs)
    assert report["violation_count"] == n * (n - 1) // 2
    far = next(v for v in report["violations"] if (v["u"], v["v"]) == (0, n - 1))
    assert far["d_limited"] == _frac(F(3**(n - 1) - 1, 4))  # sum of 3**i / 2, exact


def test_hopset_twin_at_graph_weight_is_a_tie(sweeps):
    n = 9
    g = path_graph(n, 3)
    twins = [HopsetEdge(u, v, F(w), 0, "interconnect") for u, v, w in g.edges]
    hs = Hopset(n=n, edges=twins, effective_beta=n - 1, effective_eps=F(0), provenance={})
    report = checked_report(g, hs)
    assert (report["violation_count"], report["max_stretch"]) == (0, "1/1")
    assert len(sweeps) == n and all(adj is not g.adj for adj, _ in sweeps)
