"""Smoke tests of the benchmark harness on tiny graphs.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
from hopsets.graph import path_graph  # noqa: E402
from tracing import Tracer, _forest_depth  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as _fh:
    SPEC = json.load(_fh)


def bench(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    res = result(bench(ROOT, workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
    assert [m["name"] for m in SPEC["end_to_end"]] == list(res["metrics"])
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_run_reports_every_layer_metric():
    res = result(bench(ROOT, "geo-path", 1))
    assert res["correct"] and res["failed"] == 0
    assert [m["name"] for m in SPEC["per_layer"]] == list(res["metrics"])
    values = {k: v["value"] for k, v in res["metrics"].items()}
    # geo-path is reduced-mode, path-reporting and runs all three commands
    for key in ("scale_reduction.materialize_scale_graph_calls", "scale_reduction.label_cells",
                "hopset.witness_vertices", "explore.bf_rounds", "verify.pairs_checked",
                "asp.path_vertices", "cli.build_s", "trace.spans"):
        assert values[key] > 0, key
    assert values["scale_reduction.edges_scanned"] == (
        values["scale_reduction.materialize_scale_graph_calls"] * 63
    )


def test_grid_direct_bypasses_scale_reduction():
    values = {k: v["value"] for k, v in result(bench(ROOT, "grid-direct", 1))["metrics"].items()}
    assert values["scale_reduction.materialize_scale_graph_calls"] == 0
    assert values["hopset.attach_witness_paths_s"] == 0
    assert values["single_scale.build_single_scale_calls"] > 0


def test_without_package_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench(str(tmp_path), "geo-path", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_path_check_rejects_non_edges_and_overweight_paths(tmp_path):
    graph = path_graph(4, 2)  # weights 1, 2, 4
    estimates = {(0, v): w for v, w in enumerate([0, 1, 3, 7])}
    paths = tmp_path / "paths.txt"
    paths.write_text("1 2\n1 2 3\n1 2 3 4\n")
    assert checks.check_paths(graph, str(paths), estimates) == []
    paths.write_text("1 2\n1 3\n1 2 3 4\n")
    assert "not a graph edge" in checks.check_paths(graph, str(paths), estimates)[0]
    estimates[(0, 3)] = 6
    paths.write_text("1 2\n1 2 3\n1 2 3 4\n")
    assert "exceeds estimate" in checks.check_paths(graph, str(paths), estimates)[0]


def test_self_time_excludes_children_and_forest_depth():
    tr = Tracer()
    outer = tr.open("outer")
    inner = tr.open("inner")
    tr.close(inner)
    tr.close(outer)
    m = tr.layer_metrics()
    child = tr.spans[1][2] - tr.spans[1][1]
    total = tr.spans[0][2] - tr.spans[0][1]
    assert m["outer_s"] == pytest.approx(total - child)
    assert m["inner_calls"] == 1 and m["trace.spans"] == 2
    # 0 <- 1 <- 2 and 0 <- 3: longest chain has two edges
    assert _forest_depth([None, (0, "g"), (1, "g"), (0, "h")]) == 2
