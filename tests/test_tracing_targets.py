"""The benchmark's tracer must find every binding it wraps.

perfbench/tracing.py replaces functions by `getattr(owner, attr)`; a binding
renamed or removed here would surface only as failed benchmark operations.
The first test reads the target list without installing any wrapper; the
second wraps every binding for one test and runs the CLI through them.  The
third feeds a counter the value its binding returns, so a return type the
tracer miscounts fails here.
"""

import importlib.util
from pathlib import Path

import hopsets.single_scale
from hopsets import Graph
from hopsets.cli import EXIT_OK, main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves_to_a_callable():
    targets = load_tracing()._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_settled_count_reads_a_bounded_exploration():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    adj = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 5)]).adj
    args = (adj, 0, 2)
    result = hopsets.single_scale.bounded_dijkstra(*args)
    tracing._count_settled(tracer, args, result)
    assert tracer.counts["explore.dijkstra_settled"] == len(result.dist) == 3


# (gen flags, build flags) of perfbench's geo-path and grid-direct workloads
# at their smoke sizes; as there, paths are queried from path-reporting builds
TRACED_RUNS = [
    (["--model", "path", "--n", "64", "--base", "2"], ["--path-reporting"]),
    (
        ["--model", "grid", "--rows", "6", "--cols", "6", "--wmin", "1", "--wmax", "1000000000"],
        ["--mode", "direct"],
    ),
]


def test_traced_cli_commands_succeed_and_count_work(tmp_path, monkeypatch):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    for owner, attr, name, count in tracing._targets():
        monkeypatch.setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, count))
    for i, (gen, build) in enumerate(TRACED_RUNS):
        graph, hopset = tmp_path / f"g{i}.gr", tmp_path / f"h{i}.hs"
        io = ["--graph", str(graph), "--hopset", str(hopset)]
        query = ["query", *io, "--sources", "1,5", "--out", str(tmp_path / "e.csv")]
        if "--path-reporting" in build:
            query += ["--paths", str(tmp_path / "p.txt")]
        commands = [
            ["gen", *gen, "--seed", "3", "--out", str(graph)],
            ["build", "--graph", str(graph), "--out", str(hopset), "--seed", "3", *build],
            ["verify", *io, "--pairs", "sample:20:1", "--report", str(tmp_path / "r.json")],
            query,
        ]
        for argv in commands:
            assert main(argv) == EXIT_OK, argv
    metrics = tracer.layer_metrics()
    # asp.path_vertices is left out: it counts extract_path, which query does not call
    for key in (
        "scale_reduction.materialize_scale_graph_calls",
        "single_scale.build_single_scale_calls",
        "single_scale.supercluster_phase_calls",
        "single_scale.interconnect_phase_calls",
        "explore.bounded_dijkstra_calls",
        "explore.multi_source_bounded_dijkstra_calls",
        "single_scale.interconnect_visits",
        "hopset.witness_vertices",
        "verify.pairs_checked",
    ):
        assert metrics.get(key, 0) > 0, key
