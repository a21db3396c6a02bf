import dataclasses
import io
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    grid_graph,
    path_graph,
)
from hopsets.asp import format_path, write_estimates_csv, write_paths
from hopsets.hopset import HopsetEdge


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

    def test_empty_source_set(self):
        g = path_graph(4, 1)
        with pytest.raises(HopsetError, match="no sources given"):
            asp_estimates(g, empty_hopset(4, beta=3), [])


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


def reference_paths(graph, hopset, result):
    """Reference: one extract_path + format_path line per source and reachable vertex."""
    out = io.StringIO()
    for s in result.sources:
        for v in range(graph.n):
            if v == s or result.dist[s][v] is None:
                continue
            path, _ = extract_path(graph, hopset, result, s, v)
            out.write(format_path(path) + "\n")
    return out.getvalue()


def walked_paths(graph, hopset, result):
    out = io.StringIO()
    write_paths(graph, hopset, result, out)
    return out.getvalue()


def outcome(fn, *args):
    """The text written, or the message of the HopsetError raised."""
    try:
        return fn(*args)
    except HopsetError as exc:
        return f"HopsetError: {exc}"


def hopset_steps(res):
    """(s, v, hopset edge index) for every hopset step in the predecessor forests."""
    return [
        (s, v, pred[1][1])
        for s in res.sources
        for v, pred in enumerate(res.pred[s])
        if pred is not None and pred[1][0] == "h"
    ]


GRAPHS = {
    "er": lambda n, seed: er_graph(n, 0.3, 1, 10**6, seed=seed),
    "path": lambda n, seed: path_graph(n, 2, seed=seed),
    "grid": lambda n, seed: grid_graph(4, n // 4, 1, 30, seed=seed),
}


@st.composite
def path_reporting_queries(draw):
    graph = GRAPHS[draw(st.sampled_from(sorted(GRAPHS)))](
        draw(st.integers(8, 40)), draw(st.integers(0, 10**6))
    )
    params = HopsetParams.make(
        eps_target=draw(st.sampled_from(["0.3", "0.45"])),
        seed=draw(st.integers(0, 10**6)),
        mode=draw(st.sampled_from(["reduced", "direct"])),
        path_reporting=True,
    )
    hs = build_hopset(graph, params)
    # a budget below n - 1 makes paths take hopset edges even in reduced mode
    hs.effective_beta = draw(st.sampled_from([hs.effective_beta, 1, 2, 3, 4, 8]))
    sources = draw(st.lists(st.integers(0, graph.n - 1), min_size=1, max_size=4))
    return graph, hs, asp_estimates(graph, hs, sources)


class TestWritePaths:
    @given(path_reporting_queries())
    @settings(deadline=None, max_examples=60)
    def test_matches_extract_path(self, query):
        graph, hs, res = query
        assert walked_paths(graph, hs, res) == reference_paths(graph, hs, res)
        # without witnesses: the same error wherever a hopset step is taken
        bare = dataclasses.replace(hs, witnesses=None)
        assert outcome(walked_paths, graph, bare, res) == outcome(reference_paths, graph, bare, res)

    @staticmethod
    def _built(n=64):
        g = path_graph(n, 2)
        params = HopsetParams.make(eps_target="0.3", seed=2, mode="direct", path_reporting=True)
        hs = build_hopset(g, params)
        res = asp_estimates(g, hs, [0, n // 2, n - 1])
        assert hopset_steps(res)  # the paths expand witnesses
        return g, hs, res

    def test_matches_extract_path_on_witness_heavy_build(self):
        g, hs, res = self._built()
        text = walked_paths(g, hs, res)
        assert text == reference_paths(g, hs, res)
        assert len(text.splitlines()) == 3 * (g.n - 1)

    def test_hopset_without_witnesses_raises(self):
        g, hs, res = self._built()
        bare = dataclasses.replace(hs, witnesses=None)
        expected = outcome(reference_paths, g, bare, res)
        assert expected == "HopsetError: hopset is not path-reporting; rebuild with witnesses"
        assert outcome(walked_paths, g, bare, res) == expected

    @pytest.mark.parametrize("corrupt", ["reverse", "drop_last", "detour", "swap_inner"])
    def test_corrupted_witness_raises_as_extract_path(self, corrupt):
        g, hs, res = self._built()
        witnesses = list(hs.witnesses)
        for _, _, idx in hopset_steps(res):
            wit = list(witnesses[idx])
            if len(wit) >= 4:
                break
        if corrupt == "reverse":
            wit.reverse()
        elif corrupt == "drop_last":
            wit.pop()
        elif corrupt == "detour":  # ends kept, one step that is no graph edge
            wit.insert(1, wit[-1])
        else:
            wit[1], wit[2] = wit[2], wit[1]
        witnesses[idx] = tuple(wit)
        bad = dataclasses.replace(hs, witnesses=witnesses)
        expected = outcome(reference_paths, g, bad, res)
        assert expected.startswith("HopsetError: ")
        assert outcome(walked_paths, g, bad, res) == expected

    def test_every_witness_corrupted_raises_as_extract_path(self):
        # extract_path expands every step before checking edges, so a witness
        # whose ends are wrong wins over an earlier witness with a bad edge
        g, hs, res = self._built()
        witnesses = []
        for i, wit in enumerate(hs.witnesses):
            wit = list(wit)
            if i % 2 and len(wit) > 1:
                wit.reverse()
            elif len(wit) > 1:
                wit.insert(1, wit[-1])
            witnesses.append(tuple(wit))
        bad = dataclasses.replace(hs, witnesses=witnesses)
        expected = outcome(reference_paths, g, bad, res)
        assert expected.startswith("HopsetError: ")
        assert outcome(walked_paths, g, bad, res) == expected

    def test_end_errors_come_before_edge_errors(self):
        # path 0-2-4-3-1 and two hopset edges 0-4, 4-1: with beta = 2 the path
        # to vertex 1 takes both; the first witness has a step that is no graph
        # edge, the second is stored the wrong way round
        g = Graph.from_edges(5, [(0, 2, 1), (2, 4, 1), (4, 3, 1), (3, 1, 1)])
        hs = Hopset(
            n=5,
            edges=[HopsetEdge(0, 4, F(2), 1, "star"), HopsetEdge(1, 4, F(2), 1, "star")],
            effective_beta=2,
            effective_eps=F(1, 10),
            provenance={},
            witnesses=[(0, 3, 4), (4, 3, 1)],
        )
        res = asp_estimates(g, hs, [0])
        expected = "HopsetError: witness for edge 1 does not join 5 and 2"
        assert outcome(reference_paths, g, hs, res) == expected
        assert outcome(walked_paths, g, hs, res) == expected

    def test_broken_predecessor_chain_raises_as_extract_path(self):
        g, hs, res = self._built()
        s = res.sources[-1]  # the chains of vertices 0, 1, ... pass through s - 3
        res.pred[s][s - 3] = None
        expected = outcome(reference_paths, g, hs, res)
        # errors name 1-based vertex ids, as files and the CLI do
        assert expected == f"HopsetError: broken predecessor chain at {s - 3 + 1}"
        assert outcome(walked_paths, g, hs, res) == expected

    def test_graph_step_checked_by_its_tag(self):
        g = path_graph(6, 1)
        res = asp_estimates(g, empty_hopset(6, beta=5), [0])
        u, (kind, i) = res.pred[0][4]
        res.pred[0][4] = (u, (kind, i + 1))  # tag names the edge (4, 5)
        with pytest.raises(HopsetError, match=r"extracted step \(4,5\) is not a graph edge"):
            walked_paths(g, empty_hopset(6, beta=5), res)
