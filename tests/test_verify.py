import json
from fractions import Fraction as F

import pytest

from hopsets import (
    Graph,
    Hopset,
    HopsetError,
    HopsetParams,
    build_hopset,
    er_graph,
    exact_apsp,
    path_graph,
    size_stats,
    verify_stretch,
)
from hopsets.hopset import HopsetEdge


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
        g = er_graph(30, 0.2, 1, 3, seed=1)
        with pytest.raises(HopsetError, match="too large"):
            exact_apsp(g, n_max=20)


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
        g = er_graph(30, 0.2, 1, 3, seed=1)
        with pytest.raises(HopsetError, match="limited to"):
            verify_stretch(g, empty_hopset(30, beta=5), n_max_allpairs=10)

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
        parsed = json.loads(report.to_json())
        assert list(parsed) == sorted(parsed)

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
