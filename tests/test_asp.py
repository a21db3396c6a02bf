import io
from fractions import Fraction as F

import pytest

from hopsets import (
    Graph,
    Hopset,
    HopsetError,
    HopsetParams,
    asp_estimates,
    build_hopset,
    er_graph,
    exact_apsp,
    extract_path,
    path_graph,
)
from hopsets.asp import format_path, write_estimates_csv


def empty_hopset(n, beta):
    return Hopset(n=n, edges=[], effective_beta=beta, effective_eps=F(1, 10), provenance={})


class TestEstimates:
    def test_isolated_source(self):
        g = Graph.from_edges(4, [(0, 1, 2)])  # vertices 2, 3 isolated
        res = asp_estimates(g, empty_hopset(4, beta=3), [3])
        assert res.estimate(3, 3) == 0
        assert all(res.estimate(3, v) is None for v in (0, 1, 2))

    def test_exact_when_budget_covers_path(self):
        g = path_graph(12, 1)
        res = asp_estimates(g, empty_hopset(12, beta=11), [0])
        for v in range(12):
            assert res.estimate(0, v) == v

    def test_contract_against_apsp_rows(self):
        g = er_graph(200, 0.05, 1, 100, seed=9)
        hs = build_hopset(g, HopsetParams.make(eps_target="0.3", seed=9))
        sources = [3, 57, 101, 150, 199]
        res = asp_estimates(g, hs, sources)
        apsp = exact_apsp(g)
        bound = 1 + hs.effective_eps
        for s in sources:
            for v in range(g.n):
                est, d = res.estimate(s, v), apsp[s][v]
                if d is None:
                    assert est is None
                else:
                    assert F(d) <= est <= bound * d

    def test_estimate_monotone_in_budget(self):
        g = er_graph(40, 0.15, 1, 9, seed=3)
        small = asp_estimates(g, empty_hopset(40, beta=2), [0])
        big = asp_estimates(g, empty_hopset(40, beta=6), [0])
        for v in range(40):
            a, b = small.estimate(0, v), big.estimate(0, v)
            if a is not None:
                assert b is not None and b <= a

    def test_source_out_of_range(self):
        g = path_graph(4, 1)
        with pytest.raises(HopsetError, match="out of range"):
            asp_estimates(g, empty_hopset(4, beta=3), [4])


class TestExtractPath:
    def test_graph_only_path_weight_equals_estimate(self):
        g = path_graph(10, 1)
        res = asp_estimates(g, empty_hopset(10, beta=9), [0])
        path, w = extract_path(g, empty_hopset(10, beta=9), res, 0, 7)
        assert path == list(range(8))
        assert F(w) == res.estimate(0, 7)

    def test_direct_mode_expansion(self):
        g = path_graph(64, 2)
        hs = build_hopset(
            g, HopsetParams.make(mode="direct", eps_target="1", seed=2, path_reporting=True)
        )
        res = asp_estimates(g, hs, [0])
        for v in (20, 45, 63):
            path, w = extract_path(g, hs, res, 0, v)
            assert path[0] == 0 and path[-1] == v
            for a, b in zip(path, path[1:]):
                assert g.weight(a, b) is not None
            assert F(w) <= res.estimate(0, v)

    def test_reduced_mode_weight_at_most_estimate(self):
        g = er_graph(80, 0.08, 1, 40, seed=12)
        hs = build_hopset(
            g, HopsetParams.make(eps_target="0.3", seed=12, path_reporting=True)
        )
        res = asp_estimates(g, hs, [0, 11])
        apsp = exact_apsp(g)
        for s in (0, 11):
            for v in range(g.n):
                if v == s or res.estimate(s, v) is None:
                    continue
                path, w = extract_path(g, hs, res, s, v)
                assert path[0] == s and path[-1] == v
                assert F(w) <= res.estimate(s, v)
                assert w >= apsp[s][v]

    def test_non_path_reporting_hopset_errors(self):
        g = er_graph(80, 0.08, 1, 40, seed=12)
        hs = build_hopset(g, HopsetParams.make(eps_target="0.3", seed=12))
        res = asp_estimates(g, hs, [0])
        used_hopset = [
            v
            for v in range(g.n)
            if res.dist[0][v] is not None and _uses_hopset(res, 0, v)
        ]
        if used_hopset:
            with pytest.raises(HopsetError, match="not path-reporting"):
                extract_path(g, hs, res, 0, used_hopset[0])

    def test_unreachable_target_errors(self):
        g = Graph.from_edges(3, [(0, 1, 1)])
        res = asp_estimates(g, empty_hopset(3, beta=2), [0])
        with pytest.raises(HopsetError, match="unreachable"):
            extract_path(g, empty_hopset(3, beta=2), res, 0, 2)


class TestCsvEmission:
    def test_format(self):
        g = Graph.from_edges(3, [(0, 1, 2), (1, 2, 3)])
        hs = empty_hopset(3, beta=2)
        buf = io.StringIO()
        res = write_estimates_csv(g, hs, [0], buf, header={"note": "x"})
        assert res.sources == [0] and res.estimate(0, 2) == 5  # the rows' own table
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# note x"
        assert lines[1] == "source,vertex,estimate_num,estimate_den"
        assert lines[2] == "1,1,0,1"
        assert lines[3] == "1,2,2,1"
        assert lines[4] == "1,3,5,1"

    def test_unreachable_rows(self):
        g = Graph.from_edges(2, [])
        buf = io.StringIO()
        write_estimates_csv(g, empty_hopset(2, beta=1), [0], buf)
        assert buf.getvalue().splitlines()[-1] == "1,2,inf,1"

    def test_format_path_one_based(self):
        assert format_path([0, 4, 2]) == "1 5 3"


def _uses_hopset(res, s, v):
    cur = v
    while cur != s:
        u, (kind, _) = res.pred[s][cur]
        if kind == "h":
            return True
        cur = u
    return False
