import functools
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hopsets.asp
import hopsets.cli
from hopsets import dump_dimacs, load_dimacs, load_hopset, path_graph
from hopsets.cli import EXIT_IO, EXIT_OK, EXIT_PARAM, EXIT_USAGE, EXIT_VIOLATION, main


def run(*argv):
    return main(list(argv))


@pytest.fixture
def workspace(tmp_path):
    return tmp_path


def gen_graph(ws, name="g.gr", model=("--model", "path", "--n", "8", "--base", "1")):
    path = ws / name
    assert run("gen", *model, "--seed", "1", "--out", str(path)) == EXIT_OK
    return path


class TestPipeline:
    def test_gen_build_verify_roundtrip(self, workspace, capsys):
        graph = gen_graph(workspace)
        hopset = workspace / "h.hs"
        assert (
            run(
                "build",
                "--graph", str(graph),
                "--out", str(hopset),
                "--eps", "0.3",
                "--kappa", "2",
                "--rho", "0.5",
                "--mode", "reduced",
                "--seed", "7",
            )
            == EXIT_OK
        )
        report = workspace / "report.json"
        code = run(
            "verify",
            "--graph", str(graph),
            "--hopset", str(hopset),
            "--pairs", "all",
            "--report", str(report),
        )
        assert code == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload["violation_count"] == 0
        assert payload["provenance"]["seed"] == "7"

    def test_verify_detects_corrupted_weight(self, workspace):
        graph = gen_graph(workspace, model=("--model", "er", "--n", "24", "--p", "0.3", "--wmin", "1", "--wmax", "9"))
        hopset = workspace / "h.hs"
        run("build", "--graph", str(graph), "--out", str(hopset), "--seed", "3")
        # lower one hopset edge weight below the true distance
        lines = hopset.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("e "):
                parts = line.split()
                parts[3] = "1/1000000"
                lines[i] = " ".join(parts)
                break
        else:
            pytest.skip("build produced no edges to corrupt")
        hopset.write_text("\n".join(lines) + "\n")
        code = run("verify", "--graph", str(graph), "--hopset", str(hopset), "--pairs", "all")
        assert code == EXIT_VIOLATION

    def test_parameter_rejection_exit_code(self, workspace):
        graph = gen_graph(workspace)
        code = run(
            "build",
            "--graph", str(graph),
            "--out", str(workspace / "h.hs"),
            "--rho", "0.25",
            "--kappa", "2",
        )
        assert code == EXIT_PARAM

    @pytest.mark.parametrize(
        "text,line",
        [
            ("p sp 2 1\na 1 2 0\n", 2),  # zero weight
            ("p sp 8 7\n" + "".join(f"a {i} {i + 1} 1\n" for i in range(1, 6)), 1),  # arcs cut
        ],
    )
    def test_malformed_graph_is_io_error(self, workspace, capsys, text, line):
        bad = workspace / "bad.gr"
        bad.write_text(text)
        code = run("build", "--graph", str(bad), "--out", str(workspace / "h.hs"))
        assert code == EXIT_IO
        assert f"line {line}:" in capsys.readouterr().err

    def test_query_writes_csv_and_paths(self, workspace):
        graph = gen_graph(workspace)
        hopset = workspace / "h.hs"
        run(
            "build",
            "--graph", str(graph),
            "--out", str(hopset),
            "--seed", "2",
            "--path-reporting",
        )
        csv = workspace / "est.csv"
        paths = workspace / "paths.txt"
        code = run(
            "query",
            "--graph", str(graph),
            "--hopset", str(hopset),
            "--sources", "1,3",
            "--out", str(csv),
            "--paths", str(paths),
        )
        assert code == EXIT_OK
        lines = csv.read_text().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "source,vertex,estimate_num,estimate_den"
        assert len([l for l in lines if not l.startswith("#")]) == 1 + 2 * 8
        assert paths.read_text().strip()

    def test_stats_runs(self, workspace, capsys):
        graph = gen_graph(workspace)
        hopset = workspace / "h.hs"
        run("build", "--graph", str(graph), "--out", str(hopset))
        assert run("stats", "--hopset", str(hopset), "--format", "json") == EXIT_OK
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert "total_edges" in payload


class TestOtherModels:
    def test_grid_gen_and_direct_build(self, workspace):
        graph = workspace / "grid.gr"
        assert (
            run(
                "gen",
                "--model", "grid",
                "--rows", "4",
                "--cols", "5",
                "--wmin", "1",
                "--wmax", "4",
                "--seed", "3",
                "--out", str(graph),
            )
            == EXIT_OK
        )
        hopset = workspace / "h.hs"
        assert (
            run(
                "build",
                "--graph", str(graph),
                "--out", str(hopset),
                "--mode", "direct",
                "--eps", "0.9",
            )
            == EXIT_OK
        )
        assert run("verify", "--graph", str(graph), "--hopset", str(hopset)) == EXIT_OK

    def test_verify_json_format(self, workspace, capsys):
        graph = gen_graph(workspace)
        hopset = workspace / "h.hs"
        run("build", "--graph", str(graph), "--out", str(hopset))
        assert (
            run(
                "verify",
                "--graph", str(graph),
                "--hopset", str(hopset),
                "--format", "json",
            )
            == EXIT_OK
        )
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["violation_count"] == 0

    def test_verify_band_pairs_flag(self, workspace):
        graph = gen_graph(workspace)
        hopset = workspace / "h.hs"
        run("build", "--graph", str(graph), "--out", str(hopset))
        assert (
            run(
                "verify",
                "--graph", str(graph),
                "--hopset", str(hopset),
                "--pairs", "band:1",
            )
            == EXIT_OK
        )


class TestReproducibility:
    def test_identical_invocations_identical_artifacts(self, workspace):
        graph = gen_graph(workspace, model=("--model", "er", "--n", "30", "--p", "0.2", "--wmax", "8"))
        h1, h2 = workspace / "a.hs", workspace / "b.hs"
        args = ["--graph", str(graph), "--eps", "0.3", "--seed", "11"]
        run("build", *args, "--out", str(h1))
        run("build", *args, "--out", str(h2))
        assert h1.read_bytes() == h2.read_bytes()

    def test_gen_embeds_provenance(self, workspace):
        graph = gen_graph(workspace)
        text = graph.read_text()
        assert "c generator path" in text
        assert "c seed 1" in text


class TestMalformedHopset:
    HEADER = "h 1 8 5 1/10\n"

    @pytest.mark.parametrize("command", ["verify", "query"])
    @pytest.mark.parametrize(
        "text,line",
        [
            ("h 1 3 5\ne 1\n", 1),  # truncated header
            (HEADER + "e 1\n", 2),  # truncated edge
            (HEADER + "e 1 x 3/1 0 star\n", 2),  # non-numeric vertex
            (HEADER + "e 1 2 3/0 0 star\n", 2),  # zero denominator
            (HEADER + "e 1 2 3 0 star\n", 2),  # weight not num/den
            (HEADER + "e 1 2 3/1 0 star\np 0\n", 3),  # witness without vertices
            (HEADER + "e 1 2 3/1 0 star\np zero 1 2\n", 3),  # non-numeric index
            (HEADER + "e 1 9 3/1 0 star\n", 2),  # vertex above n
            (HEADER + "e 0 2 3/1 0 star\n", 2),  # vertex below 1
            (HEADER + "e 1 2 3/1 0 star\np 0 1 99 2\n", 3),  # witness vertex above n
            (HEADER + "e 1 2 -3/2 0 star\n", 2),  # negative weight
            (HEADER + "e 1 2 0/1 0 star\n", 2),  # zero weight
            (HEADER + "e 1 2 3/1 0 star\np 0 1 2\np 0 1 3 2\n", 4),  # duplicate witness
            (HEADER + "e 1 2 3/1 0 star\np 0 1 2\ne 2 3 3/1 0 star\n", 4),  # `e` after `p`
            (HEADER + "e 1 2 3/1 0 star\np 0 1 2\np 1 2 3\n", 4),  # index past the edges
            ("c graph aaaa\nc graph bbbb\nc seed\n" + HEADER, 2),  # duplicate provenance key
            ("c mode reduced\nc seed\n" + HEADER, 2),  # provenance key without a value
            ("h 1 8 88796495 -3/10\n", 1),  # negative epsilon
            ("h 1 8 5 0/1\n", 1),  # zero epsilon
            (HEADER + "e 1 2 3/1 0 star\ne 2 3 3/1 0 bogus\n", 3),  # unknown edge kind
            (HEADER + "e 1 2 3/1 0 star\nf 1 2\n", 3),  # truncated forest edge
            (HEADER + "e 1 2 3/1 0 star\nf 1 2 x\n", 3),  # non-numeric forest weight
            (HEADER + "e 1 2 3/1 0 star\nf 1 9 1\n", 3),  # forest vertex above n
            (HEADER + "e 1 2 3/1 0 star\nf 0 2 1\n", 3),  # forest vertex below 1
            (HEADER + "e 1 2 3/1 0 star\nf 1 2 1\nf 2 3 1\nf 3 1 1\n", 5),  # forest cycle
            (HEADER + "e 1 2 3/1 0 star\nf 1 2 1\na 0\n", 4),  # anchors without vertices
            (HEADER + "e 1 2 3/1 0 star\nf 1 2 1\na 0 1\n", 4),  # odd anchor count
            (HEADER + "e 1 2 3/1 0 star\nf 1 2 1\na 0 1 x\n", 4),  # non-numeric anchor
            (HEADER + "e 1 2 3/1 0 star\nf 1 2 1\na 0 1 3\n", 4),  # anchors in two trees
            (HEADER + "e 1 2 3/1 0 star\nf 1 2 1\na 0 1 2\na 0 1 2\n", 5),  # duplicate
            (HEADER + "e 1 2 3/1 0 star\nf 1 2 1\na 0 1 2\np 0 1 2\n", 5),  # `a` and `p`
            (HEADER + "e 1 2 3/1 0 star\np 0 1 2\nf 1 2 1\na 0 1 2\n", 4),  # `p`, then `a`
            (HEADER + "e 1 2 3/1 0 star\na 0 1 2\n", 3),  # anchors without a forest
            (HEADER + "e 1 2 3/1 0 star\nf 1 2 1\na 0 1 2\nf 2 3 1\n", 5),  # forest after
        ],
    )
    def test_malformed_file_is_io_error_with_line(self, workspace, capsys, command, text, line):
        graph = gen_graph(workspace)
        hopset = workspace / "bad.hs"
        hopset.write_text(text)
        args = ["--graph", str(graph), "--hopset", str(hopset)]
        if command == "query":
            args += ["--sources", "1", "--out", str(workspace / "est.csv")]
        assert run(command, *args) == EXIT_IO
        assert f"line {line}:" in capsys.readouterr().err

    def test_forest_step_off_the_graph_is_a_witness_error(self, workspace, capsys):
        # the forest edge 1-3 is no edge of the path 1-2-...-8: the file loads,
        # and the expanded witness fails the path check as a `p` line would
        graph = gen_graph(workspace)
        hopset = workspace / "h.hs"
        hopset.write_text("h 1 8 1 1/10\ne 1 3 2/1 1 star\nf 1 3 1\na 0 1 3\n")
        args = ["--graph", str(graph), "--hopset", str(hopset), "--sources", "1"]
        args += ["--out", str(workspace / "est.csv"), "--paths", str(workspace / "p.txt")]
        assert run("query", *args) == EXIT_PARAM
        assert "extracted step (1,3) is not a graph edge" in capsys.readouterr().err

    def test_path_fault_keeps_the_rows_and_paths_before_it(self, workspace, monkeypatch):
        # a fault at source j leaves the CSV rows of every source up to j, and
        # the path lines of the sources before j
        graph = gen_graph(workspace)  # the path 1-2-...-8
        hopset = workspace / "h.hs"
        build = ["build", "--graph", str(graph), "--out", str(hopset), "--path-reporting"]
        assert run(*build) == EXIT_OK
        real = hopsets.asp.asp_estimates

        def cut_source_3_chain(*args):
            for row in real(*args):
                if row.source == 2:
                    row.pred[0] = None
                yield row

        monkeypatch.setattr(hopsets.asp, "asp_estimates", cut_source_3_chain)
        csv, paths = workspace / "est.csv", workspace / "p.txt"
        code = run(
            "query", "--graph", str(graph), "--hopset", str(hopset),
            "--sources", "1,3,5", "--out", str(csv), "--paths", str(paths),
        )
        assert code == EXIT_PARAM
        rows = [line for line in csv.read_text().splitlines() if not line.startswith("#")]
        assert rows[0] == "source,vertex,estimate_num,estimate_den"
        assert [row.split(",")[0] for row in rows[1:]] == ["1"] * 8 + ["3"] * 8
        assert [line.split()[0] for line in paths.read_text().splitlines()] == ["1"] * 7

    @pytest.mark.parametrize("same", ["est.csv", "./est.csv", "link.csv"])
    def test_paths_naming_the_csv_is_usage_error(self, workspace, capsys, monkeypatch, same):
        monkeypatch.chdir(workspace)
        (workspace / "est.csv").write_text("kept\n")
        (workspace / "link.csv").symlink_to(workspace / "est.csv")
        args = ["--graph", "missing.gr", "--hopset", "missing.hs", "--sources", "1"]
        assert run("query", *args, "--out", "est.csv", "--paths", same) == EXIT_USAGE
        assert "--paths and --out" in capsys.readouterr().err
        assert (workspace / "est.csv").read_text() == "kept\n"  # nothing read or written

    def test_negative_weight_in_built_hopset_is_io_error(self, workspace, capsys):
        graph = gen_graph(
            workspace,
            model=("--model", "er", "--n", "40", "--p", "0.2", "--wmin", "1", "--wmax", "50"),
        )
        hopset = workspace / "h.hs"
        assert run("build", "--graph", str(graph), "--out", str(hopset), "--seed", "1") == EXIT_OK
        lines = hopset.read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("e "))
        fields = lines[at].split()
        fields[3] = "-3/2"
        lines[at] = " ".join(fields) + "\n"
        hopset.write_text("".join(lines))
        capsys.readouterr()
        assert run("verify", "--graph", str(graph), "--hopset", str(hopset)) == EXIT_IO
        assert f"line {at + 1}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "query"])
    def test_hopset_for_another_graph_is_rejected(self, workspace, capsys, command):
        built_for = gen_graph(workspace, "a.gr")
        other = gen_graph(workspace, "b.gr", model=("--model", "path", "--n", "8", "--base", "2"))
        hopset = workspace / "h.hs"
        run("build", "--graph", str(built_for), "--out", str(hopset))
        capsys.readouterr()
        args = ["--graph", str(other), "--hopset", str(hopset)]
        if command == "query":
            args += ["--sources", "1", "--out", str(workspace / "est.csv")]
        assert run(command, *args) == EXIT_PARAM
        err = capsys.readouterr().err
        for path in (built_for, other):
            assert load_dimacs(str(path)).digest() in err

    def test_hopset_for_another_n_leaves_the_outputs_untouched(self, workspace, capsys):
        # with no `c graph` line (as `hopset_from_single_scale` writes none),
        # only the n check rejects the hopset; it runs before any output opens
        path = ("--model", "path", "--base", "2", "--n")
        graph = gen_graph(workspace, "g.gr", model=(*path, "10"))
        bigger = gen_graph(workspace, "b.gr", model=(*path, "12"))
        hopset = workspace / "h.hs"
        build = ["build", "--graph", str(bigger), "--out", str(hopset), "--path-reporting"]
        assert run(*build) == EXIT_OK
        lines = hopset.read_text().splitlines(keepends=True)
        hopset.write_text("".join(line for line in lines if not line.startswith("c graph ")))
        csv, paths = workspace / "est.csv", workspace / "p.txt"
        csv.write_text("kept csv\n")
        paths.write_text("kept paths\n")
        capsys.readouterr()
        code = run(
            "query", "--graph", str(graph), "--hopset", str(hopset),
            "--sources", "1", "--out", str(csv), "--paths", str(paths),
        )
        assert code == EXIT_PARAM
        assert "hopset is for n=12, graph has n=10" in capsys.readouterr().err
        assert (csv.read_text(), paths.read_text()) == ("kept csv\n", "kept paths\n")


class TestNonAsciiInput:
    """A byte >= 0x80 in a graph or hopset file is an input error naming its line."""

    # UTF-8 lines; the blank padding after them keeps the bad line inside the
    # first chunk the text layer decodes, so only a per-line check names it
    BAD = {"record": "{} \u00e9\n", "comment": "c caf\u00e9\n"}
    PADDING = "\n" * 10_000

    def _run(self, workspace, command, graph, hopset):
        if command == "build":
            return run("build", "--graph", str(graph), "--out", str(workspace / "x.hs"))
        if command == "stats":
            return run("stats", "--hopset", str(hopset))
        args = ["--graph", str(graph), "--hopset", str(hopset)]
        if command == "query":
            args += ["--sources", "1", "--out", str(workspace / "est.csv")]
        return run(command, *args)

    def _check(self, workspace, capsys, command, target, record, kind):
        graph = gen_graph(workspace)
        hopset = workspace / "h.hs"
        assert run("build", "--graph", str(graph), "--out", str(hopset)) == EXIT_OK
        path = graph if target == "graph" else hopset
        lines = path.read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith(record[0]))
        bad = self.BAD[kind].format(record)
        path.write_bytes(("".join(lines[:at]) + bad + "".join(lines[at:]) + self.PADDING).encode())
        capsys.readouterr()
        assert self._run(workspace, command, graph, hopset) == EXIT_IO
        assert f"line {at + 1}: non-ASCII byte" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["build", "verify", "query"])
    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_graph_file(self, workspace, capsys, command, kind):
        self._check(workspace, capsys, command, "graph", "a 1 2 1", kind)

    @pytest.mark.parametrize("command", ["verify", "query", "stats"])
    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_hopset_file(self, workspace, capsys, command, kind):
        self._check(workspace, capsys, command, "hopset", "e 1 2 1/1 1 star", kind)


class TestPathBase:
    @pytest.mark.parametrize(
        "n,base", [("5", "nan"), ("5", "inf"), ("5", "-inf"), ("2000", "1.5")]
    )
    def test_unusable_base_is_parameter_error(self, workspace, capsys, n, base):
        out = workspace / "g.gr"
        code = run("gen", "--model", "path", "--n", n, f"--base={base}", "--out", str(out))
        assert code == EXIT_PARAM
        assert "path: base" in capsys.readouterr().err
        assert not out.exists()


class TestStatsProvenance:
    """`stats` takes n from the header and rejects a provenance kappa it cannot use."""

    def _stats(self, workspace, capsys, edit=None):
        graph = gen_graph(workspace, model=("--model", "path", "--n", "8", "--base", "2"))
        hopset = workspace / "h.hs"
        assert run("build", "--graph", str(graph), "--out", str(hopset)) == EXIT_OK
        if edit is not None:
            key, value = edit
            lines = [
                f"c {key} {value}" if line.startswith(f"c {key} ") else line
                for line in hopset.read_text().splitlines()
            ]
            hopset.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run("stats", "--hopset", str(hopset))
        out, err = capsys.readouterr()
        return code, out, err

    def test_well_formed_output(self, workspace, capsys):
        code, out, _ = self._stats(workspace, capsys)
        assert code == EXIT_OK
        assert out.splitlines()[:3] == [
            "edges           7",
            "stars           7 (bound 24.0)",
            "normalized size 0.1488  (|H| / n^(1+1/k) ln n)",
        ]

    def test_provenance_n_is_not_read(self, workspace, capsys):
        plain, edited = workspace / "plain", workspace / "edited"
        plain.mkdir()
        edited.mkdir()
        want = self._stats(plain, capsys)
        assert self._stats(edited, capsys, ("n", "0")) == want

    @pytest.mark.parametrize("kappa", ["x", "0", "1", "-3", "2.5"])
    def test_bad_kappa_is_io_error(self, workspace, capsys, kappa):
        code, _, err = self._stats(workspace, capsys, ("kappa", kappa))
        assert code == EXIT_IO
        assert "kappa" in err and "Traceback" not in err
        lines = (workspace / "h.hs").read_text().splitlines()
        at = lines.index(f"c kappa {kappa}") + 1
        assert err.startswith(f"input error: line {at}: provenance kappa {kappa!r}")

    def test_forest_of_a_huge_header_is_read(self, workspace, capsys):
        # n >= 2**63: nothing is sized by the header's n
        hopset = workspace / "h.hs"
        hopset.write_text(f"h 1 {2**64} 5 1/10\ne 1 2 4/1 1 star\nf 1 2 7\na 0 1 2\n")
        assert run("stats", "--hopset", str(hopset)) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "edges           1"


class TestMalformedArguments:
    """Values argparse cannot convert are usage errors (exit 2), not tracebacks."""

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("build", "--eps", "abc"),
            ("build", "--rho", "1/0"),
            ("query", "--sources", "1,x"),
            ("verify", "--pairs", "sample:x"),
            ("verify", "--pairs", "band:"),
            # specs that select no pair
            ("verify", "--pairs", "sample:0"),
            ("verify", "--pairs", "sample:-5"),
            ("verify", "--pairs", "sample:0:3"),
            ("verify", "--pairs", "band:-2"),
            ("verify", "--pairs", "band:-3"),
            # extra fields
            ("verify", "--pairs", "band:3:junk"),
            ("verify", "--pairs", "sample:5:1:x"),
        ],
    )
    def test_bad_value_is_usage_error(self, workspace, capsys, command, flag, value):
        graph = gen_graph(workspace)
        hopset = workspace / "h.hs"
        assert run("build", "--graph", str(graph), "--out", str(hopset)) == EXIT_OK
        args = {
            "build": ["--graph", str(graph), "--out", str(workspace / "o.hs")],
            "verify": ["--graph", str(graph), "--hopset", str(hopset)],
            "query": [
                "--graph", str(graph), "--hopset", str(hopset),
                "--out", str(workspace / "est.csv"),
            ],
        }[command]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(command, *args, flag, value)
        assert exc.value.code == EXIT_USAGE
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["sample:1", "band:-1"])
    def test_smallest_selecting_spec_is_accepted(self, workspace, spec):
        graph = gen_graph(workspace)
        hopset = workspace / "h.hs"
        assert run("build", "--graph", str(graph), "--out", str(hopset)) == EXIT_OK
        code = run("verify", "--graph", str(graph), "--hopset", str(hopset), "--pairs", spec)
        assert code == EXIT_OK

    def test_band_above_every_distance_checks_no_pair(self, workspace):
        # band 10**12 starts far above the total weight.  The command runs under
        # a 1 GiB address-space cap, so building 2**k (about 125 GB) would fail
        graph = gen_graph(workspace)
        hopset, report = workspace / "h.hs", workspace / "r.json"
        assert run("build", "--graph", str(graph), "--out", str(hopset)) == EXIT_OK
        src = Path(hopsets.cli.__file__).resolve().parents[1]
        cap = 1 << 30
        done = subprocess.run(
            [sys.executable, "-m", "hopsets.cli", "verify", "--graph", str(graph),
             "--hopset", str(hopset), "--pairs", f"band:{10**12}", "--report", str(report)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [str(src), os.environ.get("PYTHONPATH")]))},
            capture_output=True,
            text=True,
            timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert done.returncode == EXIT_OK, done.stderr
        payload = json.loads(report.read_text())
        assert (payload["pair_mode"], payload["pairs_checked"]) == (f"band({10**12})", 0)


class TestQuerySources:
    """Source ids are 1-based; one outside 1..n is rejected before any work, by that id."""

    @pytest.mark.parametrize("sources,bad", [("0", "0"), ("9", "9"), ("2,9", "9"), ("0,3", "0")])
    def test_out_of_range_source_names_the_typed_id(self, workspace, capsys, sources, bad):
        graph = gen_graph(workspace)  # 8 vertices
        hopset = workspace / "h.hs"
        assert run("build", "--graph", str(graph), "--out", str(hopset)) == EXIT_OK
        capsys.readouterr()
        csv = workspace / "est.csv"
        code = run(
            "query", "--graph", str(graph), "--hopset", str(hopset),
            "--sources", sources, "--out", str(csv),
        )
        assert code == EXIT_PARAM
        assert f"source {bad} out of range" in capsys.readouterr().err
        assert not csv.exists()

    @pytest.mark.parametrize("sources", [",", ""])
    def test_empty_source_list_is_usage_error(self, workspace, capsys, sources):
        graph = gen_graph(workspace)
        hopset = workspace / "h.hs"
        assert run("build", "--graph", str(graph), "--out", str(hopset)) == EXIT_OK
        capsys.readouterr()
        csv, paths = workspace / "est.csv", workspace / "paths.txt"
        with pytest.raises(SystemExit) as exc:
            run(
                "query", "--graph", str(graph), "--hopset", str(hopset),
                "--sources", sources, "--out", str(csv), "--paths", str(paths),
            )
        assert exc.value.code == EXIT_USAGE
        assert "--sources" in capsys.readouterr().err
        assert not csv.exists() and not paths.exists()


class TestCollectorPause:
    """`main` runs a command with the cyclic collector paused and hands the
    caller's collector state back on every exit."""

    @pytest.fixture(params=[True, False], ids=["caller-collects", "caller-paused"])
    def collecting(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_state_survives_every_exit_code(self, workspace, capsys, monkeypatch, collecting):
        graph = gen_graph(workspace)
        hopset = workspace / "h.hs"
        undercut = workspace / "undercut.hs"  # 1 -> 8 is 7 on the unit path
        undercut.write_text("h 1 8 100 1/10\ne 1 8 1/1 0 star\n")
        bad = workspace / "bad.gr"
        bad.write_text("p sp 2 1\na 1 2 0\n")
        io = ["--graph", str(graph)]
        seen = []
        real_verify = hopsets.cli.verify_stretch

        def verify_stretch(*args, **kw):
            seen.append(gc.isenabled())
            return real_verify(*args, **kw)

        monkeypatch.setattr(hopsets.cli, "verify_stretch", verify_stretch)
        cases = [
            (["build", *io, "--out", str(hopset)], EXIT_OK),
            (["verify", *io, "--hopset", str(hopset)], EXIT_OK),
            (["query", *io, "--hopset", str(hopset), "--sources", "1", "--out", "x.csv",
              "--paths", "x.csv"], EXIT_USAGE),
            (["build", "--graph", str(bad), "--out", str(hopset)], EXIT_IO),
            (["build", *io, "--out", str(hopset), "--rho", "0.25"], EXIT_PARAM),
            (["verify", *io, "--hopset", str(undercut)], EXIT_VIOLATION),
        ]
        for argv, code in cases:
            assert run(*argv) == code
            assert gc.isenabled() is collecting
        with pytest.raises(SystemExit) as exc:  # argparse's own exit 2, before the pause
            run("verify", *io)
        assert exc.value.code == EXIT_USAGE
        assert gc.isenabled() is collecting
        assert seen == [False, False]  # paused while the command ran

    def test_state_survives_an_uncaught_exception(self, workspace, monkeypatch, collecting):
        graph = gen_graph(workspace)

        def broken(path):
            raise RuntimeError("boom")

        monkeypatch.setattr(hopsets.cli, "load_dimacs", broken)
        with pytest.raises(RuntimeError, match="boom"):
            run("build", "--graph", str(graph), "--out", str(workspace / "h.hs"))
        assert gc.isenabled() is collecting


def is_prime(x):
    """Miller-Rabin, deterministic for odd x < 3.4e14 (bases 2..17)."""
    d, r = x - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17):
        y = pow(a, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(r - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


# the verify report of `hostile_hopset`, as the Fraction-weighted loader gave it
HOSTILE_REPORT = "25fd8e26e637644a"


@functools.cache
def hostile_hopset():
    """(text, denominators) of a hopset file for the unit path(50) whose 2,000 `e`
    lines have the 2,000 primes above 2**40 as denominators: their lcm has some
    80,000 bits.  The weights alternate just under and just over the distance v - u."""
    primes, x = [], 2**40 + 1
    while len(primes) < 2000:
        if is_prime(x):
            primes.append(x)
        x += 2
    rng = random.Random(1)
    lines = ["h 1 50 50 1/10\n"]
    for i, q in enumerate(primes):
        u, v = sorted(rng.sample(range(1, 51), 2))
        num = (v - u) * q + (1 if i % 2 else -1) * rng.randrange(1, q)
        lines.append(f"e {u} {v} {num}/{q} 1 star\n")
    return "".join(lines), primes


class TestHostileDenominators:
    """Distinct large prime denominators: the loader scales each weight once to
    their lcm, and verify keeps its exact report."""

    BOUND_S = 2.0  # each took about 0.13 s on 2 cores

    def test_load_and_stats_finish_within_the_bound(self, workspace, capsys):
        text, primes = hostile_hopset()
        t0 = time.perf_counter()
        hs = load_hopset(io.StringIO(text))
        assert time.perf_counter() - t0 < self.BOUND_S
        assert hs.den == math.lcm(*primes)
        hopset = workspace / "h.hs"
        hopset.write_text(text)
        t0 = time.perf_counter()
        assert run("stats", "--hopset", str(hopset)) == EXIT_OK
        assert time.perf_counter() - t0 < self.BOUND_S
        assert capsys.readouterr().out.splitlines()[0] == "edges           2000"

    def test_verify_report_is_unchanged(self, workspace):
        hopset, graph, report = workspace / "h.hs", workspace / "g.gr", workspace / "r.json"
        hopset.write_text(hostile_hopset()[0])
        with open(graph, "w") as fh:
            dump_dimacs(path_graph(50, 1), fh)
        code = run("verify", "--graph", str(graph), "--hopset", str(hopset),
                   "--pairs", "sample:40:1", "--report", str(report))
        assert code == EXIT_VIOLATION
        payload = json.loads(report.read_text())
        del payload["wall_time"]
        assert payload["violation_count"] == 39  # pairs where an undercutting line wins
        text = json.dumps(payload, sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == HOSTILE_REPORT
