"""Golden artifacts: sha256 of hopset files, verify reports and query output.

Hopset files, verify reports and query output must stay byte-identical
across refactors; any change to these digests has to be deliberate.  Each
graph is built in reduced mode with and without witnesses (`-w`) and in
direct mode with witnesses.  A reduced `-w` file writes its witnesses as
merge-forest `f` lines and per-edge `a` anchor lines; it is pinned as
written and, in `GOLDEN`, as rendered to one `p` line per expanded
witness, so expansion must give back the pinned `p`-line bytes.  Verify
reports are digested without `wall_time`; query output is the CSV and
`--paths` file of `hopset query`.  Band reports pin the per-pair distance
filter, and the two-component graph pins pairs whose target is
unreachable from the source.
"""

import functools
import hashlib
import io
import json

import pytest

from hopsets import (
    Graph,
    HopsetParams,
    build_hopset,
    dump_dimacs,
    dump_hopset,
    er_graph,
    grid_graph,
    load_hopset,
    path_graph,
    verify_stretch,
)
from hopsets.cli import EXIT_OK, main


def _two_components():
    """er(30) on vertices 0..29, a geometric path on 30..49, vertex 50 isolated."""
    er = er_graph(30, 0.2, 1, 50, seed=3)
    path = path_graph(20, 2)
    edges = er.edges + [(u + 30, v + 30, w) for u, v, w in path.edges]
    return Graph.from_edges(51, edges)


GRAPHS = {
    "path": lambda: path_graph(64, 2),
    "er": lambda: er_graph(120, 0.05, 1, 10**12, seed=1),
    "grid": lambda: grid_graph(10, 12, 1, 50, seed=1),
    "split": _two_components,
}

GOLDEN = {
    "path-reduced": "d8bab19cccc28c34b026d49717a2773446657dc3374430169fd5dfce1ab1348e",
    "path-reduced-w": "5e3c4ef1cd9bb8ce448531b905f37dcd64945a852f0e14d839a842b87ac20878",
    "path-direct-w": "00d400c4686c88102814580b9bff512cfe2392e1d33a7983eafa87ad67d2e849",
    "er-reduced": "1c23486832c4f74d95509c2903bcb76f19fcc8d67e3a0f67c68cf61b9a274cf8",
    "er-reduced-w": "2827ec494047881d2a01a9b6ac5dfcd6dc57d10989266bdc08574d7a286b1d81",
    "er-direct-w": "abf88ea1ef1728b6a4b104bcfebf7dabbb758cc241eadf0997d5867c0e5c107c",
    "grid-reduced": "046ddff210d8cab68e713f7851b4cfef44a719d531c9f98c442d65d316c5bfe9",
    "grid-reduced-w": "a1c48f4a90de9e497c19bf83cc5f1e37d719bed1b07d2de71247ad49aa422a56",
    "grid-direct-w": "5012efc67d4655f0b9e97bac883f69cf1aaaf4fdbee53a3ee53c00cce362e802",
}

# reduced `-w` case -> sha256 of the file as dumped, with `f` and `a` lines;
# GOLDEN holds the digest of its `p`-line rendering (`_as_path_lines`)
GOLDEN_COMPACT = {
    "path-reduced-w": "cdc29e89a387d202ccc04e87ef1b1c1084173225a5e87a702c4b87f93f0f1f21",
    "er-reduced-w": "55dce098a33773d3d823a4c14125f1906859fe2918e6331513bb0991b5b1d9b7",
    "grid-reduced-w": "d8a723b207d7e82561da240855acfb20756767ee3e9e4f04642b787b3b458f21",
}

# (case, pair spec) -> sha256 of the verify report without wall_time
GOLDEN_VERIFY = {
    ("path-reduced-w", "all"): "16dbd8dcf18d95999a03b18b908901fe2fc8f71062f039b68b0cb6f69864d4a9",
    ("path-reduced-w", "sample"): "0305dbb99cca300ac14e93cbae3b2180d6fe551bcfa9f86664b007937e0be42a",
    ("er-reduced-w", "all"): "06296d7857cdaecd1a544c2b5f773e267f2db66488a8964de0c9431c6a9c36e4",
    ("er-reduced-w", "sample"): "bd40b5dd0504a1e5fc2234351d1faee8a27a9f279603c84a055ceb0356e3288d",
    ("grid-direct-w", "all"): "757d01f11b99df76186e2325c679bd932cbe890ed9bb62709e7c8c0e85bd9870",
    ("grid-direct-w", "sample"): "5c6322243f65c9675dfbb7f47c8815005aaf354e85ec8b2383fc7bf84bebc62c",
}

# graph -> the scale index k of its band:k report, chosen so the band holds pairs
BAND = {"path": 40, "er": 38, "grid": 5}

# case -> sha256 of the band:k report without wall_time, k = BAND[graph]
GOLDEN_BAND = {
    "path-reduced": "7905a599cfffedaec8e9c4ab5954c5cb7901fbea124a6b4c2c69cd44f3d83d41",
    "path-reduced-w": "7905a599cfffedaec8e9c4ab5954c5cb7901fbea124a6b4c2c69cd44f3d83d41",
    "path-direct-w": "a3fc3290acd8dfbb63b757e65520c3846d4c6dfeb6fc6f819ada11f7278e35e1",
    "er-reduced": "ab516c4bdf06b61c245fd41adf0149d17ccf4f0fad790ee2e154177215996c0b",
    "er-reduced-w": "ab516c4bdf06b61c245fd41adf0149d17ccf4f0fad790ee2e154177215996c0b",
    "er-direct-w": "11d4e450c25a2956b7ecec0eb2aca957963bf3620166426520da6c2598ca9e29",
    "grid-reduced": "87504226cc16f9b94a85b4c9a9e3af0caf52abf438de2ae8e2ade566a1e6627d",
    "grid-reduced-w": "87504226cc16f9b94a85b4c9a9e3af0caf52abf438de2ae8e2ade566a1e6627d",
    "grid-direct-w": "301531d9d858e232cd14965b75838d94224d8dbc59dbc6f0373c9ee2d515ae4f",
}

# case -> sha256 of the all-pairs report without wall_time on two components
GOLDEN_SPLIT = {
    "split-reduced-w": "d0dd055989d9b7f8e193f53c74e231fecfd3ba596a158c506b3f3b68ed4afbb4",
    "split-direct-w": "76d0b73cf62048ad44125034fd8f38252410f0ad57bafbdec39669e557a3f37a",
}

# case -> sha256 of (estimates CSV, paths file) of `hopset query --sources 1,6,<n>`
GOLDEN_QUERY = {
    "path-reduced-w": (
        "a1c3753dac4661ccab79cf11381f96894c3c000cff70ce792826581c009476be",
        "e12a982702bb5a6cacef0d615e59d9276480922cfeea273989d190e1d8e1b7aa",
    ),
    "er-reduced-w": (
        "201bfe498a6d6a69841eecf44784a4dd1522f3e6f1627a3e3c9e6a76d8f24030",
        "131717b69f578a9a0bbcae0d1d393312ebe2131063ebf59cb29b53cd4ab51aaf",
    ),
    "grid-direct-w": (
        "d997d9df24f2ae2c7cdf7db960bd6912c591ce2e042c5fcd5522a732e8a6df37",
        "803cd434273ee34d09c752214ba78e0c813e02c320bcd97a41d69afed475f420",
    ),
}


@functools.cache
def _built(case):
    graph, mode, *witnesses = case.split("-")
    params = HopsetParams(
        eps_target="0.3", seed=1, mode=mode, path_reporting=bool(witnesses)
    )
    g = GRAPHS[graph]()
    return g, build_hopset(g, params)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _as_path_lines(text):
    """The file's `c`, `h` and `e` lines, then `p <i> <witness i>` per edge.

    The witnesses are the loaded file's, expanded from its anchors, and
    written in the `p`-line form that direct-mode files use.
    """
    hopset = load_hopset(io.StringIO(text))
    lines = [line for line in text.splitlines(keepends=True) if line[0] in "che"]
    for i, path in enumerate(hopset.witnesses):
        lines.append(f"p {i} {' '.join(str(x + 1) for x in path)}\n")
    return "".join(lines)


def _witness_ids(text):
    """Vertex ids on witness lines: two per `f` line, those after the index on `a` and `p`."""
    count = 0
    for line in text.splitlines():
        tag, *fields = line.split()
        if tag == "f":
            count += 2
        elif tag in ("a", "p"):
            count += len(fields) - 1
    return count


def test_witness_ids_grow_linearly_on_the_path_family():
    # doubling n takes the forest and anchors from 1,866 to 4,114 ids, while
    # the expanded witnesses of the same builds grow fourfold (35,678 to 141,860)
    compact, expanded = [], []
    for n in (256, 512):
        params = HopsetParams(eps_target="0.3", seed=1, path_reporting=True)
        buf = io.StringIO()
        dump_hopset(build_hopset(path_graph(n, 2), params), buf)
        compact.append(_witness_ids(buf.getvalue()))
        expanded.append(_witness_ids(_as_path_lines(buf.getvalue())))
    assert compact[1] <= 2.5 * compact[0]
    assert expanded[1] > 2.5 * expanded[0]  # the bound tells the two forms apart


@pytest.mark.parametrize("case", GOLDEN)
def test_golden_file_digests(case):
    buf = io.StringIO()
    dump_hopset(_built(case)[1], buf)
    text = buf.getvalue()
    if case in GOLDEN_COMPACT:
        assert _sha(text) == GOLDEN_COMPACT[case]
        text = _as_path_lines(text)
    assert _sha(text) == GOLDEN[case]


@pytest.mark.parametrize("case,pairs", GOLDEN_VERIFY)
def test_golden_verify_report_digests(case, pairs):
    graph, hopset = _built(case)
    kw = {"sample_size": 200, "sample_seed": 1} if pairs == "sample" else {}
    report = verify_stretch(graph, hopset, pair_mode=pairs, **kw).to_dict()
    del report["wall_time"]
    assert _sha(json.dumps(report, sort_keys=True, indent=2)) == GOLDEN_VERIFY[case, pairs]


def _report_sha(graph, hopset, **kw):
    report = verify_stretch(graph, hopset, **kw).to_dict()
    del report["wall_time"]
    return _sha(json.dumps(report, sort_keys=True, indent=2))


@pytest.mark.parametrize("case", GOLDEN_BAND)
def test_golden_band_report_digests(case):
    graph, hopset = _built(case)
    band = BAND[case.split("-")[0]]
    assert _report_sha(graph, hopset, pair_mode="band", band=band) == GOLDEN_BAND[case]


@pytest.mark.parametrize("case", GOLDEN_SPLIT)
def test_golden_unreachable_pairs_report_digests(case):
    graph, hopset = _built(case)
    assert _report_sha(graph, hopset, pair_mode="all") == GOLDEN_SPLIT[case]


@pytest.mark.parametrize("case", GOLDEN_QUERY)
def test_golden_query_digests(case, tmp_path):
    graph, hopset = _built(case)
    gr, hs = tmp_path / "g.gr", tmp_path / "h.hs"
    with open(gr, "w", encoding="ascii") as fh:
        dump_dimacs(graph, fh)
    with open(hs, "w", encoding="ascii") as fh:
        dump_hopset(hopset, fh)
    csv, paths = tmp_path / "est.csv", tmp_path / "paths.txt"
    sources = f"1,6,{graph.n}"
    argv = ["query", "--graph", str(gr), "--hopset", str(hs), "--sources", sources]
    assert main(argv + ["--out", str(csv), "--paths", str(paths)]) == EXIT_OK
    assert (_sha(csv.read_text()), _sha(paths.read_text())) == GOLDEN_QUERY[case]
