import io
import tracemalloc
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
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
import hopsets.asp
from hopsets.asp import format_path, write_estimates_csv
from hopsets.hopset import HopsetEdge, HopsetFormatError, dump_hopset, load_hopset
from hopsets.verify import verify_stretch
from hopsets.witness import Witnesses


def empty_hopset(n, beta):
    return Hopset(n=n, edges=[], den=1, effective_beta=beta, effective_eps=F(1, 10), provenance={})


def with_witnesses(hs, witnesses):
    """A copy of `hs` that holds `witnesses`; `hs` itself is left as it is."""
    return hs._replace(witnesses=witnesses)


def two_edge_hopset():
    """Hopset edges 0-2 and 2-4 of path(5, 1), with their witnesses."""
    edges = [HopsetEdge(0, 2, 2, 1, "star"), HopsetEdge(2, 4, 2, 1, "star")]
    return Hopset(5, edges, 1, 4, F(1, 10), {}, witnesses=[(0, 1, 2), (2, 3, 4)])


def rows(graph, hopset, sources):
    """Every row of `asp_estimates`, by source."""
    return {row.source: row for row in asp_estimates(graph, hopset, sources)}


class TestEstimates:
    def test_isolated_source(self):
        g = Graph.from_edges(4, [(0, 1, 2)])  # vertices 2, 3 isolated
        (res,) = asp_estimates(g, empty_hopset(4, beta=3), [3])
        assert res.source == 3 and res.estimate(3) == 0
        assert all(res.estimate(v) is None for v in (0, 1, 2))

    def test_exact_when_budget_covers_path(self):
        g = path_graph(12, 1)
        (res,) = asp_estimates(g, empty_hopset(12, beta=11), [0])
        for v in range(12):
            assert res.estimate(v) == v

    def test_contract_against_apsp_rows(self):
        g = er_graph(200, 0.05, 1, 100, seed=9)
        hs = build_hopset(g, HopsetParams(eps_target="0.3", seed=9))
        sources = [3, 57, 101, 150, 199]
        res = rows(g, hs, sources)
        assert list(res) == sources  # ascending, one row each
        apsp = exact_apsp(g)
        bound = 1 + hs.effective_eps
        for s in sources:
            for v in range(g.n):
                est, d = res[s].estimate(v), apsp[s][v]
                if d is None:
                    assert est is None
                else:
                    assert F(d) <= est <= bound * d

    def test_estimate_monotone_in_budget(self):
        g = er_graph(40, 0.15, 1, 9, seed=3)
        (small,) = asp_estimates(g, empty_hopset(40, beta=2), [0])
        (big,) = asp_estimates(g, empty_hopset(40, beta=6), [0])
        for v in range(40):
            a, b = small.estimate(v), big.estimate(v)
            if a is not None:
                assert b is not None and b <= a

    def test_source_out_of_range(self):
        g = path_graph(4, 1)
        with pytest.raises(HopsetError, match="source 5 out of range: vertices are 1..4"):
            asp_estimates(g, empty_hopset(4, beta=3), [4])

    def test_negative_source_out_of_range(self):
        g = path_graph(4, 1)
        with pytest.raises(HopsetError, match="source 0 out of range: vertices are 1..4"):
            asp_estimates(g, empty_hopset(4, beta=3), [-1])

    def test_empty_source_set(self):
        g = path_graph(4, 1)
        with pytest.raises(HopsetError, match="no sources given"):
            asp_estimates(g, empty_hopset(4, beta=3), [])

    @pytest.mark.parametrize("beta", [1, 10**8])
    def test_negative_weight_rejected(self, beta):
        # by the union graph's builder, before the first row, for either kernel
        g = path_graph(3, 1)
        hs = Hopset(n=3, edges=[HopsetEdge(1, 2, -1, 0, "star")], den=1, effective_beta=beta,
                    effective_eps=F(1, 10), provenance={})
        with pytest.raises(ValueError, match=r"hopset edge 0 \(2, 3\) has negative weight -1$"):
            asp_estimates(g, hs, [0])

    @pytest.mark.parametrize("beta", [1, 10**8])
    def test_zero_weight_rejected_as_load_hopset_rejects_it(self, beta):
        # path 0-1-2 of weights 5, 5: an edge (0, 2) of weight 0 would give vertex 2
        # the estimate 0, where the true distance is 10
        g = Graph.from_edges(3, [(0, 1, 5), (1, 2, 5)])
        hs = Hopset(n=3, edges=[HopsetEdge(0, 2, 0, 1, "star")], den=1, effective_beta=beta,
                    effective_eps=F(1, 10), provenance={})
        with pytest.raises(HopsetError, match=r"hopset edge 0 \(1, 3\) has zero weight 0$"):
            asp_estimates(g, hs, [0])
        with pytest.raises(HopsetError, match=r"hopset edge 0 \(1, 3\) has zero weight 0$"):
            verify_stretch(g, hs)
        buf = io.StringIO()
        dump_hopset(hs, buf)
        assert buf.getvalue().splitlines()[1] == "e 1 3 0/1 1 star"
        with pytest.raises(HopsetFormatError, match="line 2: edge weight 0 is not positive"):
            load_hopset(io.StringIO(buf.getvalue()))
        # weight 10 passes all three, and round-trips
        hs.edges[0] = HopsetEdge(0, 2, 10, 1, "star")
        buf = io.StringIO()
        dump_hopset(hs, buf)
        assert load_hopset(io.StringIO(buf.getvalue())) == hs
        (res,) = asp_estimates(g, hs, [0])
        assert res.estimate(2) == 10
        assert verify_stretch(g, hs).ok

    @pytest.mark.parametrize("beta", [10, 1])
    @pytest.mark.parametrize("u,v,named", [(-1, 1, r"\(0, 2\)"), (0, 4, r"\(1, 5\)")])
    def test_hopset_edge_off_the_vertex_set_rejected(self, beta, u, v, named):
        # (-1, 1) must not be read as (3, 1), nor (0, 4) end in an IndexError
        g = Graph.from_edges(4, [(0, 1, 5), (1, 2, 5), (2, 3, 5)])
        hs = Hopset(n=4, edges=[HopsetEdge(u, v, 1, 0, "star")], den=1, effective_beta=beta,
                    effective_eps=F(1, 10), provenance={})
        with pytest.raises(HopsetError, match=rf"hopset edge 0 {named} leaves vertices 1..4"):
            asp_estimates(g, hs, [0])


class TestExtractPath:
    def test_graph_only_path_weight_equals_estimate(self):
        g = path_graph(10, 1)
        (res,) = asp_estimates(g, empty_hopset(10, beta=9), [0])
        path, w = extract_path(g, empty_hopset(10, beta=9), res, 7)
        assert path == list(range(8))
        assert F(w) == res.estimate(7)

    def test_direct_mode_expansion(self):
        g = path_graph(64, 2)
        hs = build_hopset(
            g, HopsetParams(mode="direct", eps_target="1", seed=2, path_reporting=True)
        )
        (res,) = asp_estimates(g, hs, [0])
        for v in (20, 45, 63):
            path, w = extract_path(g, hs, res, v)
            assert path[0] == 0 and path[-1] == v
            for a, b in zip(path, path[1:]):
                assert g.weight(a, b) is not None
            assert F(w) <= res.estimate(v)

    def test_reduced_mode_weight_at_most_estimate(self):
        g = er_graph(80, 0.08, 1, 40, seed=12)
        hs = build_hopset(
            g, HopsetParams(eps_target="0.3", seed=12, path_reporting=True)
        )
        apsp = exact_apsp(g)
        for res in asp_estimates(g, hs, [0, 11]):
            s = res.source
            for v in range(g.n):
                if v == s or res.estimate(v) is None:
                    continue
                path, w = extract_path(g, hs, res, v)
                assert path[0] == s and path[-1] == v
                assert F(w) <= res.estimate(v)
                assert w >= apsp[s][v]

    def test_non_path_reporting_hopset_errors(self):
        g = er_graph(80, 0.08, 1, 40, seed=12)
        hs = build_hopset(g, HopsetParams(eps_target="0.3", seed=12))
        (res,) = asp_estimates(g, hs, [0])
        used_hopset = [v for v in range(g.n) if res.dist[v] is not None and _uses_hopset(res, v)]
        if used_hopset:
            with pytest.raises(HopsetError, match="not path-reporting"):
                extract_path(g, hs, res, used_hopset[0])

    def test_graph_step_checked_by_its_tag(self):
        # path 0-1-...-5 from 0: vertex 4's step (3, 4) on edge 3, tagged ~3,
        # re-tagged ~4 names the edge (4, 5)
        g, hs = path_graph(6, 1), empty_hopset(6, beta=5)
        (res,) = asp_estimates(g, hs, [0])
        res.pred[4] = (3, ~4)
        assert extract_path(g, hs, res, 3) == ([0, 1, 2, 3], 3)
        for v in (4, 5):
            with pytest.raises(HopsetError, match=r"extracted step \(4,5\) is not a graph edge"):
                extract_path(g, hs, res, v)

    def test_hopset_tag_past_the_edges(self):
        # path 0-1-2-3-4, hopset edges 0-2 and 2-4, beta 4: vertex 4's step 2 -> 4
        # on hopset edge 1, re-tagged 7, names no hopset edge
        g, hs = path_graph(5, 1), two_edge_hopset()
        (res,) = asp_estimates(g, hs, [0])
        assert res.pred[4] == (2, 1)
        res.pred[4] = (2, 7)
        assert extract_path(g, hs, res, 3) == ([0, 1, 2, 3], 3)
        named = r"step \(3,5\) names hopset edge 7; the hopset has 2$"
        with pytest.raises(HopsetError, match=named):
            extract_path(g, hs, res, 4)

    def test_unreachable_target_errors(self):
        g = Graph.from_edges(3, [(0, 1, 1)])
        (res,) = asp_estimates(g, empty_hopset(3, beta=2), [0])
        with pytest.raises(HopsetError, match="unreachable"):
            extract_path(g, empty_hopset(3, beta=2), res, 2)


def reference_csv(graph, hopset, sources, header):
    """Reference: `write_estimates_csv`'s rows as one f-string and one write per row."""
    out = io.StringIO()
    if header:
        for key in sorted(header):
            out.write(f"# {key} {header[key]}\n")
    out.write("source,vertex,estimate_num,estimate_den\n")
    for result in asp_estimates(graph, hopset, sources):
        s, den = result.source + 1, result.den
        for v, d in enumerate(result.dist, 1):
            if d is None:
                out.write(f"{s},{v},inf,1\n")
            else:
                g = gcd(d, den)
                out.write(f"{s},{v},{d // g},{den // g}\n")
    return out.getvalue()


@st.composite
def csv_queries(draw):
    """Two components (so `inf,1` rows), a hopset over den 1, 12 or 625 inside
    them, a hop budget for either kernel, sources and an optional header."""
    parts = [draw(st.integers(2, 12)), draw(st.integers(2, 12))]
    edges, base = [], 0
    for k in parts:
        part = er_graph(k, 0.4, 1, 10**6, seed=draw(st.integers(0, 10**6)))
        edges += [(u + base, v + base, w) for u, v, w in part.edges]
        base += k
    n = base
    graph = Graph.from_edges(n, edges)
    den = draw(st.sampled_from([1, 12, 625]))
    weight = st.integers(1, 10**6 * den)
    hop = []
    for lo, hi in ((0, parts[0]), (parts[0], n)):
        vertex = st.integers(lo, hi - 1)
        for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=hi - lo)):
            if u != v:
                hop.append(HopsetEdge(u, v, draw(weight), 0, "star"))
    beta = draw(st.sampled_from([0, 1, max(0, n - 2), n - 1, 10**8]))
    hs = Hopset(n=n, edges=hop, den=den, effective_beta=beta, effective_eps=F(1, 10),
                provenance={})
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    header = draw(st.sampled_from([None, {}, {"graph": "g.gr", "beta": beta}]))
    return graph, hs, sources, header


class TestCsvEmission:
    def test_format(self):
        g = Graph.from_edges(3, [(0, 1, 2), (1, 2, 3)])
        hs = empty_hopset(3, beta=2)
        buf = io.StringIO()
        assert write_estimates_csv(g, hs, [0], buf, header={"note": "x"}) is None
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

    @given(csv_queries())
    @settings(deadline=None, max_examples=80)
    def test_rows_match_the_per_row_loop(self, query):
        graph, hs, sources, header = query
        buf = io.StringIO()
        write_estimates_csv(graph, hs, sources, buf, header=header)
        assert buf.getvalue() == reference_csv(graph, hs, sources, header)


def _uses_hopset(res, v):
    cur = v
    while cur != res.source:
        u, tag = res.pred[cur]
        if tag >= 0:  # a hopset edge's index; graph edge i is ~i
            return True
        cur = u
    return False


def reference_paths(graph, hopset, sources):
    """Reference: one extract_path + format_path line per source and reachable vertex.

    Rows come from `hopsets.asp.asp_estimates` as bound when called, so a test
    that alters the rows `write_estimates_csv` draws alters these too.
    """
    out = io.StringIO()
    for res in hopsets.asp.asp_estimates(graph, hopset, sources):
        for v in range(graph.n):
            if v == res.source or res.dist[v] is None:
                continue
            path, _ = extract_path(graph, hopset, res, v)
            out.write(format_path(path) + "\n")
    return out.getvalue()


def walked_paths(graph, hopset, sources):
    out = io.StringIO()
    write_estimates_csv(graph, hopset, sources, io.StringIO(), paths=out)
    return out.getvalue()


def outcome(fn, *args):
    """The text written, or the message of the HopsetError raised."""
    try:
        return fn(*args)
    except HopsetError as exc:
        return f"HopsetError: {exc}"


def hopset_steps(graph, hopset, sources):
    """(s, v, hopset edge index) for every hopset step in the predecessor forests."""
    return [
        (res.source, v, pred[1])
        for res in asp_estimates(graph, hopset, sources)
        for v, pred in enumerate(res.pred)
        if pred is not None and pred[1] >= 0
    ]


def alter_rows(monkeypatch, alter):
    """Make `hopsets.asp.asp_estimates` yield its rows after `alter(row)` changed them."""
    real = hopsets.asp.asp_estimates

    def altered(*args):
        for row in real(*args):
            alter(row)
            yield row

    monkeypatch.setattr(hopsets.asp, "asp_estimates", altered)


GRAPHS = {
    "er": lambda n, seed: er_graph(n, 0.3, 1, 10**6, seed=seed),
    "path": lambda n, seed: path_graph(n, 2),
    "grid": lambda n, seed: grid_graph(4, n // 4, 1, 30, seed=seed),
}


@st.composite
def path_reporting_queries(draw):
    graph = GRAPHS[draw(st.sampled_from(sorted(GRAPHS)))](
        draw(st.integers(8, 40)), draw(st.integers(0, 10**6))
    )
    params = HopsetParams(
        eps_target=draw(st.sampled_from(["0.3", "0.45"])),
        seed=draw(st.integers(0, 10**6)),
        mode=draw(st.sampled_from(["reduced", "direct"])),
        path_reporting=True,
    )
    hs = build_hopset(graph, params)
    # a budget below n - 1 makes paths take hopset edges even in reduced mode
    hs = hs._replace(effective_beta=draw(st.sampled_from([hs.effective_beta, 1, 2, 3, 4, 8])))
    sources = draw(st.lists(st.integers(0, graph.n - 1), min_size=1, max_size=4))
    return graph, hs, sources


ROW_FAULTS = ("cut", "retag_graph", "retag_hopset", "retag_past")
# one to three (fault, pick) pairs; `pick` chooses the step or witness it hits
INJECTED_FAULTS = st.lists(
    st.tuples(st.sampled_from(ROW_FAULTS + ("reverse", "truncate", "detour")),
              st.integers(0, 10**6)),
    min_size=1, max_size=3,
)


def corrupt_witness(wit, kind):
    """`wit` reversed, without its last vertex (if any), or with a step that is no graph edge."""
    wit = list(wit)
    if kind == "reverse":
        wit.reverse()
    elif kind == "truncate":
        if wit:  # three truncations can empty a two-vertex witness
            wit.pop()
    else:  # ends kept, a step from the last vertex to itself
        wit.insert(1, wit[-1])
    return tuple(wit)


def inject_fault(row, kind, pick, m):
    """Cut a predecessor, re-tag a graph step by -1, -2 or -100, re-tag a
    hopset step to another of the m hopset edges, or to m, m + 1 or m + 100,
    past them; `pick` chooses which."""
    graph_step = {"cut": None, "retag_graph": True}.get(kind, False)
    steps = [v for v, e in enumerate(row.pred) if e is not None and graph_step in (None, e[1] < 0)]
    if not steps or (kind == "retag_hopset" and m < 2):
        return
    v = steps[pick % len(steps)]
    u, tag = row.pred[v]
    if kind == "cut":
        row.pred[v] = None
    elif kind == "retag_graph":
        row.pred[v] = (u, tag - (1, 2, 100)[pick % 3])
    elif kind == "retag_past":
        row.pred[v] = (u, m + (0, 1, 100)[pick % 3])
    else:
        row.pred[v] = (u, (tag + 1 + pick % (m - 1)) % m)


class TestWritePaths:
    @given(path_reporting_queries())
    @settings(deadline=None, max_examples=60)
    def test_matches_extract_path(self, query):
        graph, hs, sources = query
        assert walked_paths(graph, hs, sources) == reference_paths(graph, hs, sources)
        # without witnesses: the same error wherever a hopset step is taken
        bare = with_witnesses(hs, None)
        assert outcome(walked_paths, graph, bare, sources) == outcome(
            reference_paths, graph, bare, sources
        )

    @staticmethod
    def _built(n=64):
        g = path_graph(n, 2)
        params = HopsetParams(eps_target="0.3", seed=2, mode="direct", path_reporting=True)
        hs = build_hopset(g, params)
        sources = [0, n // 2, n - 1]
        assert hopset_steps(g, hs, sources)  # the paths expand witnesses
        return g, hs, sources

    def test_matches_extract_path_on_witness_heavy_build(self):
        g, hs, sources = self._built()
        text = walked_paths(g, hs, sources)
        assert text == reference_paths(g, hs, sources)
        assert len(text.splitlines()) == 3 * (g.n - 1)

    def test_hopset_without_witnesses_raises(self):
        g, hs, sources = self._built()
        bare = with_witnesses(hs, None)
        expected = outcome(reference_paths, g, bare, sources)
        assert expected == "HopsetError: hopset is not path-reporting; rebuild with witnesses"
        assert outcome(walked_paths, g, bare, sources) == expected

    @pytest.mark.parametrize("corrupt", ["reverse", "drop_last", "detour", "swap_inner", "empty"])
    def test_corrupted_witness_raises_as_extract_path(self, corrupt):
        g, hs, sources = self._built()
        witnesses = list(hs.witnesses)
        for _, _, idx in hopset_steps(g, hs, sources):
            wit = list(witnesses[idx])
            if len(wit) >= 4:
                break
        if corrupt == "reverse":
            wit.reverse()
        elif corrupt == "drop_last":
            wit.pop()
        elif corrupt == "detour":  # ends kept, one step that is no graph edge
            wit.insert(1, wit[-1])
        elif corrupt == "swap_inner":
            wit[1], wit[2] = wit[2], wit[1]
        else:
            wit = []
        witnesses[idx] = tuple(wit)
        bad = with_witnesses(hs, witnesses)
        expected = outcome(reference_paths, g, bad, sources)
        assert expected.startswith("HopsetError: ")
        if corrupt == "empty":  # as `validate_witnesses` words it
            assert expected == f"HopsetError: edge {idx}: empty witness"
        assert outcome(walked_paths, g, bad, sources) == expected

    def test_every_witness_corrupted_raises_as_extract_path(self):
        # extract_path expands every step before checking edges, so a witness
        # whose ends are wrong wins over an earlier witness with a bad edge
        g, hs, sources = self._built()
        witnesses = []
        for i, wit in enumerate(hs.witnesses):
            wit = list(wit)
            if i % 2 and len(wit) > 1:
                wit.reverse()
            elif len(wit) > 1:
                wit.insert(1, wit[-1])
            witnesses.append(tuple(wit))
        bad = with_witnesses(hs, witnesses)
        expected = outcome(reference_paths, g, bad, sources)
        assert expected.startswith("HopsetError: ")
        assert outcome(walked_paths, g, bad, sources) == expected

    def test_end_errors_come_before_edge_errors(self):
        # path 0-2-4-3-1 and two hopset edges 0-4, 4-1: with beta = 2 the path
        # to vertex 1 takes both; the first witness has a step that is no graph
        # edge, the second is stored the wrong way round
        g = Graph.from_edges(5, [(0, 2, 1), (2, 4, 1), (4, 3, 1), (3, 1, 1)])
        hs = Hopset(
            n=5,
            edges=[HopsetEdge(0, 4, 2, 1, "star"), HopsetEdge(1, 4, 2, 1, "star")],
            den=1,
            effective_beta=2,
            effective_eps=F(1, 10),
            provenance={},
            witnesses=[(0, 3, 4), (4, 3, 1)],
        )
        expected = "HopsetError: witness for edge 1 does not join 5 and 2"
        assert outcome(reference_paths, g, hs, [0]) == expected
        assert outcome(walked_paths, g, hs, [0]) == expected

    @pytest.mark.parametrize("beta", [10, 2])
    def test_lowest_numbered_fault_wins_over_the_first_settled(self, beta):
        # graph 0-2-4 (weights 1) and 0-3-5-1 (weights 2); hopset edges 0-4 and 3-1
        # take vertices 4 and 1 in fewer hops, and both witnesses are stored the
        # wrong way round.  Vertex 4 settles fourth and vertex 1 last, for both
        # kernels, yet vertex 1's fault is the one a vertex-by-vertex walk meets
        g = Graph.from_edges(6, [(0, 2, 1), (2, 4, 1), (0, 3, 2), (3, 5, 2), (5, 1, 2)])
        hs = Hopset(
            n=6,
            edges=[HopsetEdge(0, 4, 2, 1, "star"), HopsetEdge(1, 3, 4, 1, "star")],
            den=1,
            effective_beta=beta,
            effective_eps=F(1, 10),
            provenance={},
            witnesses=[(4, 2, 0), (3, 5, 1)],
        )
        (res,) = asp_estimates(g, hs, [0])
        assert res.order == [0, 2, 3, 4, 5, 1]
        assert (res.pred[4], res.pred[1]) == ((0, 0), (3, 1))
        expected = "HopsetError: witness for edge 1 does not join 4 and 2"
        assert outcome(reference_paths, g, hs, [0]) == expected
        assert outcome(walked_paths, g, hs, [0]) == expected

    def test_broken_predecessor_chain_raises_as_extract_path(self, monkeypatch):
        g, hs, sources = self._built()
        s = sources[-1]  # the chains of vertices 0, 1, ... pass through s - 3

        def cut(row):
            if row.source == s:
                row.pred[s - 3] = None

        alter_rows(monkeypatch, cut)
        expected = outcome(reference_paths, g, hs, sources)
        # errors name 1-based vertex ids, as files and the CLI do
        assert expected == f"HopsetError: broken predecessor chain at {s - 3 + 1}"
        assert outcome(walked_paths, g, hs, sources) == expected

    @pytest.mark.parametrize("shift", [1, 2, 100])
    def test_graph_step_checked_by_its_tag(self, monkeypatch, shift):
        def retag(row):
            u, tag = row.pred[4]
            # ~3 - 1 == ~4 names the edge (4, 5); ~5 and ~103 name no edge
            row.pred[4] = (u, tag - shift)

        alter_rows(monkeypatch, retag)
        g, hs = path_graph(6, 1), empty_hopset(6, beta=5)
        with pytest.raises(HopsetError, match=r"extracted step \(4,5\) is not a graph edge"):
            walked_paths(g, hs, [0])
        assert outcome(walked_paths, g, hs, [0]) == outcome(reference_paths, g, hs, [0])

    def test_hopset_tag_past_the_edges_raises_as_extract_path(self, monkeypatch):
        def retag(row):
            row.pred[4] = (2, 7)

        alter_rows(monkeypatch, retag)
        g, hs = path_graph(5, 1), two_edge_hopset()
        expected = "HopsetError: step (3,5) names hopset edge 7; the hopset has 2"
        assert outcome(reference_paths, g, hs, [0]) == expected
        assert outcome(walked_paths, g, hs, [0]) == expected

    def test_witness_ends_checked_before_the_memo(self, monkeypatch):
        # path 0-1-2-3-4, hopset edges 2-0 and 2-4, beta 2: vertex 2 takes edge 0
        # against its stored direction, which memoises its witness reversed;
        # vertex 4's step 2 -> 4, re-tagged to edge 0, must not read that text
        g = path_graph(5, 1)
        hs = Hopset(
            n=5,
            edges=[HopsetEdge(2, 0, 2, 1, "star"), HopsetEdge(2, 4, 2, 1, "star")],
            den=1,
            effective_beta=2,
            effective_eps=F(1, 10),
            provenance={},
            witnesses=[(2, 1, 0), (2, 3, 4)],
        )
        (res,) = asp_estimates(g, hs, [0])
        assert (res.pred[2], res.pred[4]) == ((0, 0), (2, 1))

        def retag(row):
            row.pred[4] = (2, 0)

        alter_rows(monkeypatch, retag)
        expected = "HopsetError: witness for edge 0 does not join 3 and 5"
        assert outcome(reference_paths, g, hs, [0]) == expected
        assert outcome(walked_paths, g, hs, [0]) == expected

    def test_unjoined_anchors_are_a_faulty_step(self, monkeypatch):
        # trees 1..6 and 7..12 of path(12, 1); hopset edge 1 (3, 10) has anchors
        # in both, and with beta 1 vertex 10 is reached from 3 only through it:
        # its witness cannot be read, so 10 gets no line and extract_path names why
        g = path_graph(12, 1)
        forest = [(x, x + 1, 1) for x in range(11) if x != 5]
        edges = [HopsetEdge(0, 5, 5, 1, "star"), HopsetEdge(2, 9, 7, 1, "star")]
        witnesses = Witnesses(forest, [(0, 5), (2, 9)])
        hs = Hopset(12, edges, 1, 1, F(1, 10), {}, witnesses=witnesses)
        calls = []
        real = hopsets.asp.extract_path

        def counted(*args):
            calls.append(args[3])
            return real(*args)

        monkeypatch.setattr(hopsets.asp, "extract_path", counted)
        expected = "HopsetError: edge 1: anchors 3 and 10 are not joined by the forest"
        assert outcome(walked_paths, g, hs, [2]) == expected
        assert calls == [9]

    @given(path_reporting_queries(), INJECTED_FAULTS)
    # three truncations empty the witness of the first hopset step the paths take
    @example(
        query=(path_graph(5, 1), two_edge_hopset()._replace(effective_beta=2), [0]),
        faults=[("truncate", 0)] * 3,
    )
    @settings(deadline=None, max_examples=100)
    def test_injected_faults_raise_as_extract_path(self, query, faults):
        graph, hs, sources = query
        witnesses = list(hs.witnesses)
        used = sorted({idx for _, _, idx in hopset_steps(graph, hs, sources)})
        targets = used or range(len(witnesses))  # witnesses the paths expand, if any
        row_faults = []
        for kind, pick in faults:
            if kind in ROW_FAULTS:
                row_faults.append((kind, pick))
            elif targets:
                idx = targets[pick % len(targets)]
                witnesses[idx] = corrupt_witness(witnesses[idx], kind)
        bad = with_witnesses(hs, witnesses)

        def alter(row):
            for kind, pick in row_faults:
                inject_fault(row, kind, pick, len(hs.edges))

        with pytest.MonkeyPatch.context() as mp:
            alter_rows(mp, alter)
            assert outcome(walked_paths, graph, bad, sources) == outcome(
                reference_paths, graph, bad, sources
            )

    def test_extract_path_runs_only_on_a_fault(self, monkeypatch):
        g, hs, sources = self._built()
        calls = []
        real = hopsets.asp.extract_path

        def counted(*args):
            calls.append(args[3])
            return real(*args)

        monkeypatch.setattr(hopsets.asp, "extract_path", counted)
        walked_paths(g, hs, sources)
        assert calls == []
        s = sources[-1]

        def cut(row):
            if row.source == s:
                row.pred[s - 3] = None

        alter_rows(monkeypatch, cut)
        with pytest.raises(HopsetError, match=f"broken predecessor chain at {s - 3 + 1}"):
            walked_paths(g, hs, sources)
        assert calls == [0]  # the lowest-numbered vertex whose chain passes s - 3

    def test_fault_at_a_source_stops_after_its_rows(self, monkeypatch):
        # each source's CSV rows are written before its paths are walked, and
        # a source's path lines only once all of them are checked
        g, hs, sources = self._built()
        j = sources[1]

        def cut(row):
            if row.source == j:
                row.pred[j + 3] = None

        alter_rows(monkeypatch, cut)
        csv, paths = io.StringIO(), io.StringIO()
        with pytest.raises(HopsetError, match=f"broken predecessor chain at {j + 3 + 1}"):
            write_estimates_csv(g, hs, sources, csv, paths=paths)
        rows_written = csv.getvalue().splitlines()[1:]
        assert {line.split(",")[0] for line in rows_written} == {"1", str(j + 1)}
        assert len(rows_written) == 2 * g.n
        assert len(paths.getvalue().splitlines()) == g.n - 1
        assert all(line.startswith("1 ") for line in paths.getvalue().splitlines())


class NullSink:
    def write(self, text):
        pass

    def writelines(self, lines):
        pass


def test_query_memory_does_not_grow_with_the_source_count():
    g = er_graph(300, 0.03, 1, 10**6, seed=5)
    hs = build_hopset(g, HopsetParams(eps_target="0.3", seed=5, path_reporting=True))

    def peak(sources):
        tracemalloc.start()
        try:
            write_estimates_csv(g, hs, sources, NullSink(), paths=NullSink())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, every = peak([0]), peak(range(g.n))
    assert every <= 2 * one, (one, every)
