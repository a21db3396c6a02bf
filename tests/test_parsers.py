"""Fuzzing of the two text parsers, `load_dimacs` and `load_hopset`.

A dump -> load round trip is the identity, and a file with mutated,
truncated, duplicated or reordered lines either loads into something valid
or raises the parser's format error (`GraphFormatError`,
`HopsetFormatError`), which the CLI reports with exit code 3.  Any other
exception is a traceback for the user and fails these tests.  Each loader
must also agree with its reference, kept from before its fast paths: the
same graph or hopset, or the same message with the same line number.
"""

import io
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopsets import (
    Graph,
    GraphFormatError,
    Hopset,
    HopsetEdge,
    HopsetFormatError,
    HopsetParams,
    build_hopset,
    dump_dimacs,
    dump_hopset,
    load_dimacs,
    load_hopset,
    path_graph,
    validate,
)
from hopsets.hopset import FILE_VERSION, _check_vertices, _fraction
from hopsets.util import opened
from hopsets.witness import Witnesses

# Replacement tokens stay small, and inserted characters are never digits, so
# a mutated header cannot ask for a huge vertex count.
TOKENS = [
    "", "a", "c", "e", "f", "h", "p", "sp", "x", "star", "0", "1", "2", "7", "12", "99",
    "-1", "+3", "1_0", "0x1", "1.5", "1/2", "-3/2", "0/1", "3/0", "1/2/3", "/",
]
CHARS = " \t-+/._xe"
EDITS = [
    "drop", "dup", "swap", "cut-line", "token", "add-token", "drop-token",
    "add-char", "drop-char", "new-line",
]
WORD = st.text("abcdefghijklmnopqrstuvwxyz0123456789_-.", min_size=1, max_size=8)


@st.composite
def graphs(draw, wmax=10**12):
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, wmax)), max_size=2 * n))
    return Graph.from_edges(n, [(u, v, w) for u, v, w in arcs if u != v])


@st.composite
def hopsets(draw):
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    weight = st.builds(Fraction, st.integers(1, 10**15), st.integers(1, 10**6))
    kind = st.sampled_from(["star", "supercluster", "interconnect"])
    rows = draw(
        st.lists(st.tuples(vertex, vertex, weight, st.integers(-2, 60), kind), max_size=6)
    )
    # integer weights over the least common denominator, as builds and loads keep them
    den = math.lcm(*(w.denominator for _, _, w, _, _ in rows))
    edges = [HopsetEdge(u, v, int(w * den), scale, k) for u, v, w, scale, k in rows]
    witnesses = None
    if edges and draw(st.booleans()):
        path = st.lists(vertex, min_size=1, max_size=4).map(tuple)
        witnesses = draw(st.lists(path, min_size=len(edges), max_size=len(edges)))
        if n > 1 and draw(st.booleans()):
            witnesses = draw(anchored_witnesses(n, len(edges)))
    provenance = draw(
        st.dictionaries(WORD, st.lists(WORD, min_size=1, max_size=3).map(" ".join), max_size=3)
    )
    return Hopset(
        n=n,
        edges=edges,
        den=den,
        effective_beta=draw(st.integers(0, 10**12)),
        effective_eps=draw(weight),
        provenance=provenance,
        witnesses=witnesses,
    )


@st.composite
def anchored_witnesses(draw, n, size):
    """`Witnesses` of `size` anchor tuples over a random forest on 0..n-1.

    Vertex 1 hangs below vertex 0, and each x > 1 below a lower vertex or
    nowhere; edges come in a drawn order and orientation.  Anchor pairs lie
    in one tree.
    """
    forest, tree = [], list(range(n))
    for x in range(1, n):
        if x == 1 or draw(st.booleans()):
            y = draw(st.integers(0, x - 1))
            tree[x] = tree[y]
            edge = (x, y) if draw(st.booleans()) else (y, x)
            forest.append((*edge, draw(st.integers(1, 10**9))))
    forest = draw(st.permutations(forest))
    members = {}
    for x, t in enumerate(tree):
        members.setdefault(t, []).append(x)
    pair = st.sampled_from(sorted(members.values())).flatmap(
        lambda ms: st.tuples(st.sampled_from(ms), st.sampled_from(ms))
    )
    anchors = st.lists(pair, min_size=1, max_size=3).map(lambda ps: sum(ps, ()))
    return Witnesses(forest, draw(st.lists(anchors, min_size=size, max_size=size)))


def reference_load_dimacs(source) -> Graph:
    """`load_dimacs` as it was before it collapsed and sorted its own arcs.

    Kept verbatim: it checks each line, then hands the arcs to
    `Graph.from_edges`, which checks them again and deduplicates them."""
    with opened(source) as fh:
        n = None
        raw_edges: list[tuple[int, int, int]] = []
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                raise GraphFormatError("non-ASCII byte", lineno)
            if isinstance(raw, bytes):
                raw = raw.decode("ascii")
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if n is not None:
                    raise GraphFormatError("duplicate problem line", lineno)
                if len(parts) != 4 or parts[1] != "sp":
                    raise GraphFormatError(f"malformed problem line {line!r}", lineno)
                try:
                    n, m = int(parts[2]), int(parts[3])
                except ValueError:
                    raise GraphFormatError(f"malformed problem line {line!r}", lineno)
                if n < 1:
                    raise GraphFormatError(f"vertex count {n} < 1", lineno)
                p_lineno = lineno
            elif parts[0] == "a":
                if n is None:
                    raise GraphFormatError("arc before problem line", lineno)
                if len(parts) != 4:
                    raise GraphFormatError(f"malformed arc line {line!r}", lineno)
                try:
                    u, v, w = int(parts[1]), int(parts[2]), int(parts[3])
                except ValueError:
                    raise GraphFormatError(f"malformed arc line {line!r}", lineno)
                if not (1 <= u <= n and 1 <= v <= n):
                    raise GraphFormatError(
                        f"vertex id out of range [1,{n}] in {line!r}", lineno
                    )
                if w < 1:
                    raise GraphFormatError(f"weight {w} < 1", lineno)
                if u == v:
                    raise GraphFormatError(f"self-loop at vertex {u}", lineno)
                raw_edges.append((u - 1, v - 1, w))
            else:
                raise GraphFormatError(f"unknown record {parts[0]!r}", lineno)
        if n is None:
            raise GraphFormatError("missing problem line", None)
        if len(raw_edges) != m:
            raise GraphFormatError(f"p line declares {m} arcs, found {len(raw_edges)}", p_lineno)
        return Graph.from_edges(n, raw_edges)


def reference_load_hopset(source) -> Hopset:
    """`load_hopset` as it was before its `p` branch converted with `map`.

    Kept verbatim, but for the two later checks that the header epsilon is
    positive and the edge kind is one a build writes, for the `f` and `a`
    lines of forest-anchored witnesses (with the check that no `p` line
    follows an `f` line), whose forest is checked here by relabelling each
    merged tree instead of by union-find, and for the edge weights: each is
    read as a `Fraction`, and all are put over their least common
    denominator at the end.  Three rules of the file's record order are
    later too: an `e` line after an `f`, `p` or `a` line is a fault at its
    line, so is a witness index outside the edges' 0..m-1, and a missing
    header names the last line read."""
    close = False
    if isinstance(source, (str, bytes)):
        fh = open(source, "r", encoding="ascii")
        close = True
    else:
        fh = source
    try:
        provenance: dict = {}
        header = None
        edges: list[HopsetEdge] = []
        witnesses: dict[int, tuple[int, ...]] = {}
        forest: list[tuple[int, int, int]] = []
        tree: list[int] = []  # vertex -> label of its forest tree
        lineno = None
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts:
                continue
            tag, fields = parts[0], parts[1:]
            if tag == "c":
                if len(fields) < 2:
                    raise HopsetFormatError("provenance needs a key and a value", lineno)
                if fields[0] in provenance:
                    raise HopsetFormatError(f"duplicate provenance key {fields[0]!r}", lineno)
                provenance[fields[0]] = " ".join(fields[1:])
            elif tag == "h":
                if header is not None:
                    raise HopsetFormatError("duplicate header", lineno)
                version, n, beta, eps = _fields(lineno, fields, int, int, int, _fraction)
                if version != FILE_VERSION:
                    raise HopsetFormatError(f"unsupported hopset file version {version}", lineno)
                if n < 1 or beta < 0 or eps <= 0:
                    raise HopsetFormatError(f"bad header n={n} beta={beta} eps={eps}", lineno)
                header = (n, beta, eps)
            elif tag == "e":
                if header is None:
                    raise HopsetFormatError("edge before header", lineno)
                if witnesses or forest:
                    raise HopsetFormatError("edge after a forest or witness line", lineno)
                u, v, w, scale, kind = _fields(lineno, fields, int, int, _fraction, int, str)
                _check_vertices(lineno, header[0], (u, v))
                if w <= 0:
                    raise HopsetFormatError(f"edge weight {w} is not positive", lineno)
                if kind not in ("star", "supercluster", "interconnect"):
                    raise HopsetFormatError(f"unknown edge kind {kind!r}", lineno)
                edges.append((u - 1, v - 1, w, scale, kind))
            elif tag == "p":
                if header is None:
                    raise HopsetFormatError("witness before header", lineno)
                if len(fields) < 2:
                    raise HopsetFormatError("witness needs an index and a vertex", lineno)
                idx, *path = _fields(lineno, fields, *[int] * len(fields))
                _check_vertices(lineno, header[0], path)
                if forest:
                    raise HopsetFormatError("path witness after a forest edge", lineno)
                _check_index(lineno, idx, len(edges))
                if idx in witnesses:
                    raise HopsetFormatError(f"duplicate witness for edge {idx}", lineno)
                witnesses[idx] = tuple(x - 1 for x in path)
            elif tag == "f":
                if header is None:
                    raise HopsetFormatError("forest edge before header", lineno)
                u, v, w = _fields(lineno, fields, int, int, int)
                _check_vertices(lineno, header[0], (u, v))
                if w <= 0:
                    raise HopsetFormatError(f"forest edge weight {w} is not positive", lineno)
                if witnesses:
                    raise HopsetFormatError("forest edge after a witness line", lineno)
                tree = tree or list(range(header[0]))
                old, new = tree[u - 1], tree[v - 1]
                if old == new:
                    raise HopsetFormatError(f"forest edge {u} {v} closes a cycle", lineno)
                tree = [new if t == old else t for t in tree]
                forest.append((u - 1, v - 1, w))
            elif tag == "a":
                if header is None:
                    raise HopsetFormatError("witness before header", lineno)
                if len(fields) < 3 or len(fields) % 2 == 0:
                    raise HopsetFormatError("anchors need an index and vertex pairs", lineno)
                idx, *path = _fields(lineno, fields, *[int] * len(fields))
                _check_vertices(lineno, header[0], path)
                if not forest:
                    raise HopsetFormatError("anchors before any forest edge", lineno)
                _check_index(lineno, idx, len(edges))
                if idx in witnesses:
                    raise HopsetFormatError(f"duplicate witness for edge {idx}", lineno)
                for x, y in zip(path[::2], path[1::2]):
                    if tree[x - 1] != tree[y - 1]:
                        raise HopsetFormatError(
                            f"anchors {x} and {y} are not joined by the forest", lineno
                        )
                witnesses[idx] = tuple(x - 1 for x in path)
            else:
                raise HopsetFormatError(f"unknown record {tag!r}", lineno)
        if header is None:
            raise HopsetFormatError("missing header line", lineno)
        n, beta, eps = header
        den = math.lcm(*(w.denominator for _, _, w, _, _ in edges))
        edges = [HopsetEdge(u, v, int(w * den), scale, kind) for u, v, w, scale, kind in edges]
        wit = None
        if witnesses or forest:
            missing = [i for i in range(len(edges)) if i not in witnesses]
            if missing:
                raise HopsetFormatError(f"witness lines do not cover edge {missing[0]}")
            wit = [witnesses[i] for i in range(len(edges))]
            if forest:
                wit = Witnesses(forest, wit)
        return Hopset(
            n=n,
            edges=edges,
            den=den,
            effective_beta=beta,
            effective_eps=eps,
            provenance=provenance,
            witnesses=wit,
        )
    finally:
        if close:
            fh.close()


def _fields(lineno: int, fields: list[str], *kinds) -> list:
    """The reference loader's field conversion, kept verbatim."""
    if len(fields) != len(kinds):
        raise HopsetFormatError(f"expected {len(kinds)} fields, got {len(fields)}", lineno)
    try:
        return [kind(f) for kind, f in zip(kinds, fields)]
    except (ValueError, ZeroDivisionError):
        raise HopsetFormatError(f"malformed record {' '.join(fields)!r}", lineno) from None


def _check_index(lineno: int, idx: int, m: int) -> None:
    """The reference loader's witness index check, at the index's line."""
    if idx not in range(m):
        raise HopsetFormatError(f"witness for edge {idx}; the hopset has {m} edges", lineno)


def _load_or_error(load, text):
    """The loaded graph or hopset, or the message of the format error raised."""
    try:
        return load(io.StringIO(text))
    except (GraphFormatError, HopsetFormatError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _dimacs_text(graph):
    buf = io.StringIO()
    dump_dimacs(graph, buf, comments={"generator": "fuzz", "seed": 1})
    return buf.getvalue()


def _hopset_text(hopset):
    buf = io.StringIO()
    dump_hopset(hopset, buf)
    return buf.getvalue()


def _mutate(draw, text):
    """Apply one to four random line edits to `text`, then maybe cut it short."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(EDITS))
        if not lines or op == "new-line":
            tokens = draw(st.lists(st.sampled_from(TOKENS), max_size=6))
            lines.insert(draw(st.integers(0, len(lines))), " ".join(tokens))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        line, toks = lines[i], lines[i].split(" ")
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, line)
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], line
        elif op == "cut-line":
            lines[i] = line[: draw(st.integers(0, len(line)))]
        elif op in ("token", "add-token", "drop-token"):
            j = draw(st.integers(0, len(toks) - 1))
            if op == "drop-token":
                del toks[j]
            else:
                toks[j : j + (op == "token")] = [draw(st.sampled_from(TOKENS))]
            lines[i] = " ".join(toks)
        elif op == "add-char":
            k = draw(st.integers(0, len(line)))
            lines[i] = line[:k] + draw(st.sampled_from(CHARS)) + line[k:]
        elif line:  # drop-char
            k = draw(st.integers(0, len(line) - 1))
            lines[i] = line[:k] + line[k + 1 :]
    out = "\n".join(lines) + "\n"
    if draw(st.booleans()):
        out = out[: draw(st.integers(0, len(out)))]
    return out


@given(graphs())
@settings(deadline=None, max_examples=100)
def test_dimacs_round_trip_is_identity(graph):
    text = _dimacs_text(graph)
    loaded = load_dimacs(io.StringIO(text))
    assert (loaded.n, loaded.edges) == (graph.n, graph.edges)
    assert _dimacs_text(loaded) == text


@given(hopsets())
@settings(deadline=None, max_examples=100)
def test_hopset_round_trip_is_identity(hopset):
    text = _hopset_text(hopset)
    loaded = load_hopset(io.StringIO(text))
    assert loaded == hopset
    assert _hopset_text(loaded) == text


@given(graphs(wmax=999), st.data())
@settings(deadline=None, max_examples=200)
def test_mutated_dimacs_loads_or_raises_format_error(graph, data):
    # both loaders load equal graphs or raise the same message, line included
    text = _mutate(data.draw, _dimacs_text(graph))
    loaded = _load_or_error(load_dimacs, text)
    expected = _load_or_error(reference_load_dimacs, text)
    assert loaded == expected
    if isinstance(loaded, str):
        return
    assert loaded.adj == expected.adj
    assert validate(loaded) == []


@st.composite
def arc_files(draw):
    """DIMACS text whose arcs repeat pairs in both orientations with other
    weights, and may name a vertex past n, loop, or weigh 0."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(1, n + 1)
    arcs = draw(st.lists(st.tuples(vertex, vertex, st.integers(0, 9)), max_size=12))
    lines = [f"a {u} {v} {w}" for u, v, w in arcs]
    m = len(lines) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    return "\n".join([f"p sp {n} {m}", *lines]) + "\n"


@given(arc_files())
@example("p sp 3 4\na 1 2 5\na 2 1 3\na 1 2 9\na 3 2 1\n")  # the minimum of each pair
@example("p sp 2 1\na 2 1 4\n")  # an arc given high end first
@settings(deadline=None, max_examples=300)
def test_arc_lines_load_as_reference(text):
    loaded = _load_or_error(load_dimacs, text)
    expected = _load_or_error(reference_load_dimacs, text)
    assert loaded == expected
    if not isinstance(loaded, str):
        assert loaded.adj == expected.adj


@st.composite
def mutated_hopset_texts(draw):
    return _mutate(draw, _hopset_text(draw(hopsets())))


# every fault names its line, but for witness lines that miss an edge and
# for an empty file, whose faults are found after the last line
LINE_OR_FILE_FAULT = re.compile(
    r"HopsetFormatError: (line [1-9][0-9]*: |witness lines do not cover edge [0-9]+$)"
)


@given(mutated_hopset_texts())
@example("h 1 3 5 1/10\ne 1 2 4/1 1 star\nf 1 2 7\na 0 1 2\ne 2 3 1/1 1 star\n")  # `e` after `a`
@example("h 1 3 5 1/10\ne 1 2 4/1 1 star\nf 1 2 7\na 0 1 2\na 1 2 1\n")  # index past the edges
@settings(deadline=None, max_examples=200)
def test_mutated_hopset_loads_or_raises_format_error(text):
    # both loaders load equal hopsets or raise the same message, line included
    loaded = _load_or_error(load_hopset, text)
    assert loaded == _load_or_error(reference_load_hopset, text)
    if isinstance(loaded, str):
        if text:
            assert LINE_OR_FILE_FAULT.match(loaded), loaded
        else:
            assert loaded == "HopsetFormatError: missing header line"
        return
    for e in loaded.edges:
        assert 0 <= e.u < loaded.n and 0 <= e.v < loaded.n and e.w > 0
    for path in loaded.witnesses or ():
        assert all(0 <= x < loaded.n for x in path)


WITNESS_HEAD = "h 1 3 5 1/10\ne 1 2 4/1 1 star\ne 2 3 4/1 1 star\n"


@pytest.mark.parametrize(
    "line,message",
    [
        ("p 0 1 0", "line 4: vertex id 0 out of range [1,3]"),
        ("p 0 1 4 2", "line 4: vertex id 4 out of range [1,3]"),
        ("p 0 1 x 2", "line 4: malformed record '0 1 x 2'"),
        ("p 1.0 2 3", "line 4: malformed record '1.0 2 3'"),
        ("p 0 1 2\np 0 2 3", "line 5: duplicate witness for edge 0"),
        ("p 0 1 2\np 1 2 3", None),
        ("p 1 2 3", "witness lines do not cover edge 0"),
        ("p 0 1 2\np -1 2 3", "line 5: witness for edge -1; the hopset has 2 edges"),
        ("p 0 1 2\np 1 2 3\np 2 3", "line 6: witness for edge 2; the hopset has 2 edges"),
        ("p 0 1 2\ne 1 3 4/1 1 star", "line 5: edge after a forest or witness line"),
    ],
)
def test_witness_line_matches_reference(line, message):
    text = WITNESS_HEAD + line + "\n"
    loaded = _load_or_error(load_hopset, text)
    assert loaded == _load_or_error(reference_load_hopset, text)
    if message is None:
        assert loaded.witnesses == [(0, 1), (1, 2)]
    else:
        assert loaded == f"HopsetFormatError: {message}"


FOREST_HEAD = "h 1 4 5 1/10\ne 1 2 4/1 1 star\ne 2 3 4/1 1 star\n"


@pytest.mark.parametrize(
    "lines,message",
    [
        ("f 1 2 7\nf 3 2 1\na 0 1 2\na 1 2 3", None),
        ("f 1 2 7\nf 3 2 1\na 0 1 2\na 1 2 2 3 3", None),
        ("f 1 2", "line 4: expected 3 fields, got 2"),
        ("f 1 2 x", "line 4: malformed record '1 2 x'"),
        ("f 1 5 7", "line 4: vertex id 5 out of range [1,4]"),
        ("f 1 2 0", "line 4: forest edge weight 0 is not positive"),
        ("f 1 2 7\nf 2 3 1\nf 3 1 1", "line 6: forest edge 3 1 closes a cycle"),
        ("f 2 2 7", "line 4: forest edge 2 2 closes a cycle"),
        ("f 1 2 7\na 0 1 2\nf 2 3 1", "line 6: forest edge after a witness line"),
        ("p 0 1 2\nf 1 2 7", "line 5: forest edge after a witness line"),
        ("a 0 1 2", "line 4: anchors before any forest edge"),
        ("f 1 2 7\na 0", "line 5: anchors need an index and vertex pairs"),
        ("f 1 2 7\na 0 1 2 3", "line 5: anchors need an index and vertex pairs"),
        ("f 1 2 7\na 0 1 x", "line 5: malformed record '0 1 x'"),
        ("f 1 2 7\na 0 1 9", "line 5: vertex id 9 out of range [1,4]"),
        ("f 1 2 7\na 0 2 3", "line 5: anchors 2 and 3 are not joined by the forest"),
        ("f 1 2 7\na 0 1 2\na 1 3 4", "line 6: anchors 3 and 4 are not joined by the forest"),
        ("f 1 2 7\na 0 1 2\na 0 2 1", "line 6: duplicate witness for edge 0"),
        ("f 1 2 7\na 0 1 2\na x 2 1", "line 6: malformed record 'x 2 1'"),
        ("f 1 2 7\na 0 1 2\na 1 2 5", "line 6: vertex id 5 out of range [1,4]"),
        ("f 1 2 7\na 0 1 2\na 1 0 2", "line 6: vertex id 0 out of range [1,4]"),
        ("f 1 2 7\np 0 1 2", "line 5: path witness after a forest edge"),
        ("f 1 2 7\na 0 1 2\np 1 2 3", "line 6: path witness after a forest edge"),
        ("f 1 2 7\na 0 1 2", "witness lines do not cover edge 1"),
        ("f 1 2 7\na 1 2 1", "witness lines do not cover edge 0"),
        ("f 1 2 7\na 0 1 2\na 9 2 1", "line 6: witness for edge 9; the hopset has 2 edges"),
        ("f 1 2 7\na 0 1 2\na -1 2 1", "line 6: witness for edge -1; the hopset has 2 edges"),
        (
            "f 1 2 7\na 9 2 1\na 0 1 2\na -1 1 1",
            "line 5: witness for edge 9; the hopset has 2 edges",
        ),
        ("f 1 2 7\ne 1 3 4/1 1 star", "line 5: edge after a forest or witness line"),
        ("f 1 2 7\na 0 1 2\ne 1 3 4/1 1 star", "line 6: edge after a forest or witness line"),
        ("e 1 x 4/1 1 star", "line 4: malformed record '1 x 4/1 1 star'"),
        ("e 1 2 3/1/2 1 star", "line 4: malformed record '1 2 3/1/2 1 star'"),
        ("e 1 2 4 1 star", "line 4: malformed record '1 2 4 1 star'"),
        ("e 1 2 3/0 1 star", "line 4: malformed record '1 2 3/0 1 star'"),
        ("e 1 2 4/1 s star", "line 4: malformed record '1 2 4/1 s star'"),
        ("e 1 2 4/1 1 star x", "line 4: expected 5 fields, got 6"),
        ("e 1 2 4/1 1", "line 4: expected 5 fields, got 4"),
        ("e 1 2 0/1 1 star", "line 4: edge weight 0 is not positive"),
        ("e 1 2 0/-3 1 star", "line 4: edge weight 0 is not positive"),
        ("e 1 2 3/-2 1 star", "line 4: edge weight -3/2 is not positive"),
        ("e 1 2 -3/2 1 star", "line 4: edge weight -3/2 is not positive"),
        ("e 1 2 -3/-2 1 bogus", "line 4: unknown edge kind 'bogus'"),
        ("e 1 5 0/1 1 star", "line 4: vertex id 5 out of range [1,4]"),
        ("e 1 2 0/0 1 star", "line 4: malformed record '1 2 0/0 1 star'"),
    ],
)
def test_forest_and_anchor_lines_match_reference(lines, message):
    text = FOREST_HEAD + lines + "\n"
    loaded = _load_or_error(load_hopset, text)
    assert loaded == _load_or_error(reference_load_hopset, text)
    if message is None:
        assert list(loaded.witnesses) == [(0, 1), (1, 2)]
        assert _hopset_text(loaded) == text
    else:
        assert loaded == f"HopsetFormatError: {message}"


# a forest joining 1, 2 and 3 (vertex 4 is its own tree), and the first
# anchor line, which labels the trees: the next two-anchor line takes the
# loader's fast branch, or falls through to the general one on any fault
LABELLED_HEAD = FOREST_HEAD + "f 1 2 7\nf 3 2 1\na 0 1 2\n"


@given(st.lists(st.sampled_from(TOKENS + ["3", "4", "5"]), max_size=4).map(" ".join))
@example("1 2 3")  # loads
@example("1 4 4")  # loads: an anchor outside the forest joins itself
@example("x 2 3")  # an index that is not an integer
@example("1 2 x")  # an anchor that is not an integer
@example("1 2 5")  # an out-of-range vertex
@example("1 0 2")  # an out-of-range vertex, below 1
@example("1 0 0")  # two out-of-range vertices that would share a label
@example("1 5 5")
@example("0 2 3")  # a duplicate index
@example("1 3 4")  # anchors the forest does not join
@settings(deadline=None, max_examples=200)
def test_anchor_line_after_labelling_matches_reference(fields):
    text = f"{LABELLED_HEAD}a {fields}\n"
    assert _load_or_error(load_hopset, text) == _load_or_error(reference_load_hopset, text)


# n >= 2**63: a table over every vertex of the header cannot even be sized
HUGE_N = 2**64
HUGE_FOREST_TEXT = f"h 1 {HUGE_N} 5 1/10\ne 1 2 4/1 1 star\nf 1 2 7\na 0 1 2\n"
# a forest that also names vertex 2**64, and anchors that walk to it
HUGE_TAIL_TEXT = (
    f"h 1 {HUGE_N} 5 1/10\ne 1 {HUGE_N} 11/1 1 star\nf 1 2 7\nf 2 {HUGE_N} 3\na 0 1 {HUGE_N}\n"
)


def test_forest_of_a_huge_header_loads():
    for text, witness in ((HUGE_FOREST_TEXT, (0, 1)), (HUGE_TAIL_TEXT, (0, 1, HUGE_N - 1))):
        loaded = load_hopset(io.StringIO(text))
        assert loaded.n == HUGE_N
        assert list(loaded.witnesses) == [witness]
        out = io.StringIO()
        dump_hopset(loaded, out)  # ids come from the vertices the lines name, not from n
        assert out.getvalue() == text
        assert load_hopset(io.StringIO(out.getvalue())) == loaded
    broken = HUGE_FOREST_TEXT.replace("a 0 1 2", "a 0 1 3")
    message = "HopsetFormatError: line 4: anchors 1 and 3 are not joined by the forest"
    assert _load_or_error(load_hopset, broken) == message


def test_forest_line_before_header_is_rejected():
    text = "f 1 2 7\n" + FOREST_HEAD
    expected = "HopsetFormatError: line 1: forest edge before header"
    assert _load_or_error(load_hopset, text) == _load_or_error(reference_load_hopset, text)
    assert _load_or_error(load_hopset, text) == expected


def test_loaders_open_path_objects(tmp_path):
    # an os.PathLike is opened as a file, as a str path is, not read as a stream
    graph = path_graph(16, 2)
    hopset = build_hopset(graph, HopsetParams(seed=1, path_reporting=True))
    graph_file, hopset_file = tmp_path / "g.gr", tmp_path / "h.hopset"
    graph_file.write_text(_dimacs_text(graph), encoding="ascii")
    hopset_file.write_text(_hopset_text(hopset), encoding="ascii")
    assert load_dimacs(graph_file) == graph
    assert _hopset_text(load_hopset(hopset_file)) == hopset_file.read_text(encoding="ascii")


@pytest.mark.parametrize(
    "load, error, text",
    [
        (load_dimacs, GraphFormatError, _dimacs_text(Graph.from_edges(2, [(0, 1, 3)]))),
        (load_hopset, HopsetFormatError, HUGE_FOREST_TEXT),
        (load_hopset, HopsetFormatError, "h 1 2 5 1/10\n"),
    ],
    ids=["dimacs", "hopset-forest", "hopset-header"],
)
def test_binary_stream_is_a_format_error_on_line_one(load, error, text):
    # a byte stream's lines are bytes, whose tags match no record
    with pytest.raises(error) as exc:
        load(io.BytesIO(text.encode("ascii")))
    assert exc.value.line == 1
    assert str(exc.value).startswith("line 1: unknown record b")
