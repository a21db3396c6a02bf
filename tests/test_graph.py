import io
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hopsets import (
    Graph,
    GraphError,
    GraphFormatError,
    dijkstra_all,
    dump_dimacs,
    er_graph,
    grid_graph,
    load_dimacs,
    path_graph,
    validate,
)


def parse(text: str) -> Graph:
    return load_dimacs(io.StringIO(text))


class TestDimacsLoad:
    def test_single_edge_file(self):
        g = parse("p sp 2 1\na 1 2 5\n")
        assert g.n == 2
        assert g.edges == [(0, 1, 5)]

    def test_duplicate_arcs_keep_minimum(self):
        g = parse("p sp 2 2\na 1 2 3\na 2 1 7\n")
        assert g.edges == [(0, 1, 3)]

    def test_weight_zero_rejected_with_line(self):
        with pytest.raises(GraphFormatError) as exc:
            parse("p sp 2 1\na 1 2 0\n")
        assert exc.value.line == 2

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            parse("p sp 2 1\na 1 3 4\n")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse("p sp 2 1\na 1 1 4\n")

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="problem line"):
            parse("a 1 2 3\n")

    def test_comments_and_blank_lines_ignored(self):
        g = parse("c hello\n\np sp 3 2\nc mid\na 1 2 4\na 2 3 6\n")
        assert g.m == 2

    def test_garbage_line(self):
        with pytest.raises(GraphFormatError):
            parse("p sp 2 1\nz 1 2 3\n")

    @pytest.mark.parametrize(
        "text,declared,found",
        [
            ("p sp 3 3\na 1 2 4\na 2 3 6\n", 3, 2),  # arcs cut from the end
            ("p sp 3 1\na 1 2 4\na 2 3 6\n", 1, 2),  # arcs added
            ("p sp 3 -1\na 1 2 4\n", -1, 1),
            ("p sp 3 1\n", 1, 0),
        ],
    )
    def test_arc_count_must_match_problem_line(self, text, declared, found):
        with pytest.raises(GraphFormatError) as exc:
            parse("c graph\n" + text)
        assert exc.value.line == 2  # the problem line
        assert f"p line declares {declared} arcs, found {found}" in str(exc.value)


class TestRoundTrip:
    def test_dump_load_identity(self):
        g = er_graph(30, 0.2, 1, 9, seed=5)
        buf = io.StringIO()
        dump_dimacs(g, buf)
        g2 = parse(buf.getvalue())
        assert g2 == g

    def test_writer_emits_u_less_than_v(self):
        g = er_graph(10, 0.5, 1, 3, seed=1)
        buf = io.StringIO()
        dump_dimacs(g, buf)
        for line in buf.getvalue().splitlines():
            if line.startswith("a"):
                _, u, v, _ = line.split()
                assert int(u) < int(v)

    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 50)
                    ),
                    max_size=20,
                ),
            )
        )
    )
    @settings(deadline=None, max_examples=50)
    def test_roundtrip_random_edge_lists(self, case):
        n, raw = case
        edges = [(u, v, w) for u, v, w in raw if u != v]
        g = Graph.from_edges(n, edges)
        buf = io.StringIO()
        dump_dimacs(g, buf)
        assert parse(buf.getvalue()) == g


class TestGenerators:
    def test_path_base_one_unit_weights(self):
        g = path_graph(3, 1)
        assert [w for _, _, w in g.edges] == [1, 1]

    def test_path_base_two_weights(self):
        g = path_graph(4, 2)
        assert [w for _, _, w in g.edges] == [1, 2, 4]

    def test_er_deterministic(self):
        a = er_graph(100, 0.1, 1, 1000, seed=7)
        b = er_graph(100, 0.1, 1, 1000, seed=7)
        assert a == b

    def test_er_seed_changes_graph(self):
        a = er_graph(100, 0.1, 1, 1000, seed=7)
        b = er_graph(100, 0.1, 1, 1000, seed=8)
        assert a != b

    def test_grid_shape(self):
        g = grid_graph(3, 4, 1, 1, seed=0)
        assert g.n == 12
        assert g.m == 3 * 3 + 2 * 4  # horizontal + vertical

    @pytest.mark.parametrize(
        "generator,args",
        [
            (er_graph, (1, 0.5, 1, 1, 0)),
            (er_graph, (5, 0.0, 1, 1, 0)),
            (er_graph, (5, 0.5, 0, 3, 0)),
            (er_graph, (5, 0.5, 4, 3, 0)),
            (path_graph, (1, 1)),
            (path_graph, (4, 0.5)),
            (path_graph, (4, float("nan"))),
            (path_graph, (4, float("inf"))),
            (path_graph, (2000, 1.5)),  # 1.5**1998 overflows a float
            (grid_graph, (1, 1, 1, 1, 0)),
            (grid_graph, (2, 2, 0, 3, 0)),
            (grid_graph, (2, 2, 4, 3, 0)),
        ],
    )
    def test_parameter_rejection(self, generator, args):
        with pytest.raises(GraphError):
            generator(*args)

    @pytest.mark.parametrize("n,base", [(1700, 1.5), (2000, 1.25), (1025, 2.0)])
    def test_path_weights_up_to_the_float_limit(self, n, base):
        # the last weights, 1.5**1698, 1.25**1998 and 2.0**1023, fit a float
        g = path_graph(n, base)
        assert [w for _, _, w in g.edges] == [max(1, math.floor(base**i)) for i in range(n - 1)]

    def test_integral_base_is_not_a_float_power(self):
        assert path_graph(3000, 2.0).edges[-1][2] == 2**2998
        assert path_graph(3, 10**400).edges[-1][2] == 10**400

    def test_path_aspect_ratio_closed_form(self):
        # max distance of path(n, b) is the sum of all edge weights
        for base in (1, 2, 3):
            g = path_graph(10, base)
            expected = sum(math.floor(base**i) for i in range(9))
            dist = dijkstra_all(g.adj, 0)
            assert dist[9] == expected


class TestValidate:
    def test_valid_graph_empty_report(self):
        g = Graph.from_edges(2, [(0, 1, 3)])
        assert validate(g) == []

    def test_injected_zero_weight(self):
        g = Graph.from_edges(2, [(0, 1, 3)])
        g.edges[0] = (0, 1, 0)
        g.adj[0][0] = (1, 0)
        g.adj[1][0] = (0, 0)
        assert any(v.startswith("weight-positivity") for v in validate(g))

    def test_injected_asymmetric_adjacency(self):
        g = Graph.from_edges(3, [(0, 1, 3), (1, 2, 2)])
        g.adj[2].append((0, 9))
        assert any(v.startswith("adjacency-consistency") for v in validate(g))

    def test_injected_duplicate_edge(self):
        g = Graph.from_edges(2, [(0, 1, 3)])
        g.edges.append((0, 1, 5))
        assert any(v.startswith("duplicate-edge") for v in validate(g))

    def test_reordered_adjacency_is_consistent(self):
        # the same arcs in another order: the lists differ until sorted
        g = Graph.from_edges(4, [(0, 1, 3), (0, 2, 2), (0, 3, 2)])
        g.adj[0].reverse()
        assert validate(g) == []

    @given(st.data())
    @settings(deadline=None, max_examples=200)
    def test_matches_two_pass_reference(self, data):
        n = data.draw(st.integers(1, 8))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = [(u, v, w) for (u, v), w in data.draw(st.dictionaries(pairs, st.integers(1, 9)))
                 .items() if u != v]
        g = Graph.from_edges(n, edges)
        for _ in range(data.draw(st.integers(0, 4))):
            fault = data.draw(st.sampled_from(
                ["range", "weight", "duplicate", "self-loop", "extra", "missing", "reorder"]))
            vertex = st.integers(0, n - 1)
            if fault == "range":
                x, end = data.draw(vertex), data.draw(st.sampled_from([-1, n, n + 3]))
                g.edges.append(data.draw(st.sampled_from([(x, end, 1), (end, x, 1)])))
            elif fault == "weight" and g.edges:
                i = data.draw(st.integers(0, len(g.edges) - 1))
                u, v, _ = g.edges[i]
                w = data.draw(st.sampled_from([0, -2, 2.5]))
                g.edges[i] = (u, v, w)
                if data.draw(st.booleans()) and 0 <= u < n and 0 <= v < n:  # in adj too
                    g.adj[u] = [(x, w if x == v else y) for x, y in g.adj[u]]
                    g.adj[v] = [(x, w if x == u else y) for x, y in g.adj[v]]
            elif fault == "duplicate" and g.edges:
                u, v, w = data.draw(st.sampled_from(g.edges))
                g.edges.append(data.draw(st.sampled_from([(u, v, w), (v, u, w + 1)])))
            elif fault == "self-loop":
                x = data.draw(vertex)
                g.edges.append((x, x, 1))
            elif fault == "extra":
                g.adj[data.draw(vertex)].append((data.draw(vertex), data.draw(st.integers(1, 9))))
            elif fault in ("missing", "reorder"):
                x = data.draw(vertex)
                if g.adj[x]:
                    if fault == "missing":
                        g.adj[x].pop(data.draw(st.integers(0, len(g.adj[x]) - 1)))
                    else:
                        g.adj[x] = data.draw(st.permutations(g.adj[x]))
        assert validate(g) == reference_validate(g)

    def test_from_edges_rejects_bad_input(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 0, 1)])
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 2, 1)])
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 1, -2)])


def reference_validate(graph: Graph) -> list[str]:
    """`validate` as it was: a loop of edge checks, then one more loop to mirror them."""
    violations = []
    seen = set()
    for u, v, w in graph.edges:
        if not (0 <= u < graph.n and 0 <= v < graph.n):
            violations.append(f"vertex-range: edge ({u},{v}) outside [0,{graph.n})")
            continue
        if u == v:
            violations.append(f"self-loop: vertex {u}")
        if not isinstance(w, int) or w < 1:
            violations.append(f"weight-positivity: edge ({u},{v}) has weight {w}")
        key = (min(u, v), max(u, v))
        if key in seen:
            violations.append(f"duplicate-edge: pair {key}")
        seen.add(key)
    mirror: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for u, v, w in graph.edges:
        if 0 <= u < graph.n and 0 <= v < graph.n:
            mirror[u].append((v, w))
            mirror[v].append((u, w))
    for v in range(graph.n):
        if sorted(mirror[v]) != sorted(graph.adj[v]):
            violations.append(f"adjacency-consistency: vertex {v}")
    return violations


def test_digest_stable_and_content_sensitive():
    a = er_graph(20, 0.3, 1, 5, seed=1)
    b = er_graph(20, 0.3, 1, 5, seed=1)
    c = er_graph(20, 0.3, 1, 5, seed=2)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def reference_er(n, p, wmin, wmax, seed):
    """`er_graph` as it was: `rng.random` and `rng.randint` looked up per call."""
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, rng.randint(wmin, wmax)))
    return Graph.from_edges(n, edges)


def reference_grid(rows, cols, wmin, wmax, seed):
    """`grid_graph` as it was: `rng.randint` looked up per call."""
    rng = random.Random(seed)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, rng.randint(wmin, wmax)))
            if r + 1 < rows:
                edges.append((v, v + cols, rng.randint(wmin, wmax)))
    return Graph.from_edges(rows * cols, edges)


# weights from 1 to past 2**64, so randint draws more than one 32-bit word
WEIGHT_RANGES = st.integers(1, 2**40).flatmap(
    lambda wmin: st.tuples(st.just(wmin), st.integers(wmin, wmin + 2**64))
)
SEEDS = st.integers(0, 2**64)


@given(st.integers(2, 40), st.floats(0, 1, exclude_min=True), WEIGHT_RANGES, SEEDS)
@example(12, 1.0, (1, 2**33), 3)
@settings(deadline=None, max_examples=200)
def test_er_matches_the_reference_loop(n, p, weights, seed):
    wmin, wmax = weights
    g, ref = er_graph(n, p, wmin, wmax, seed), reference_er(n, p, wmin, wmax, seed)
    assert (g.n, g.edges, g.adj) == (ref.n, ref.edges, ref.adj)
    assert g.digest() == ref.digest()


@given(st.integers(1, 12), st.integers(1, 12), WEIGHT_RANGES, SEEDS)
@settings(deadline=None, max_examples=200)
def test_grid_matches_the_reference_loop(rows, cols, weights, seed):
    assume(rows * cols >= 2)
    wmin, wmax = weights
    g, ref = grid_graph(rows, cols, wmin, wmax, seed), reference_grid(rows, cols, wmin, wmax, seed)
    assert (g.n, g.edges, g.adj) == (ref.n, ref.edges, ref.adj)
    assert g.digest() == ref.digest()


@given(st.integers(2, 60), st.one_of(st.integers(1, 2**70), st.floats(1, 3)))
@example(2, 1)
@example(40, 1.5)
@settings(deadline=None, max_examples=200)
def test_path_is_its_checked_edge_list(n, base):
    # path_graph hands its edges to `Graph` as they are: they must be canonical
    g = path_graph(n, base)
    ref = Graph.from_edges(n, g.edges)
    assert (g.n, g.edges, g.adj) == (ref.n, ref.edges, ref.adj)
    assert g.digest() == ref.digest()
