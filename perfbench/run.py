"""Benchmark of the hopset CLI: build, verify and query on three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload er-wide --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload grid-direct --seed 1 --seconds 5 --trace 1 --size smoke

Each repetition runs in a fresh interpreter (perfbench/worker.py) with
``src`` on the path and HOPSET_JOBS=1: it generates the workload's graph with
``hopset gen`` (set-up), then times ``build``, ``verify`` and ``query``
through ``hopsets.cli.main``.  Repetitions repeat while the next one is
predicted to end within ``--seconds``; a few set-up-only processes add
samples to ``setup_s``.  Timings are medians over repetitions.

After every repetition the artifacts are digested (sha256) and checked.  A
digest that differs from the run's first repetition, or from an earlier run
of the same source tree with the same workload and seed, is a failure; so is
a nonzero exit code or a failed output check.  One op is one CLI command.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see tracing.py), the tracing overhead
(traced minus untraced op time) and writes the spans of the last traced
repetition to ``.perfbench_out/traces/``.  The metric names and units are read
from BENCHMARK.json.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

DEADLINE_S = 165.0  # every run must end within 180 s
SETUP_PROBES = 4  # set-up-only processes per untraced run, for the setup_s median
PARAM_FLAGS = ["--eps", "0.3", "--kappa", "2", "--rho", "1/2"]


@dataclass(frozen=True)
class Workload:
    """One fixed instance family.  `graphs` maps a size to `hopset gen` flags."""

    graphs: dict
    mode: str
    path_reporting: bool
    verify_pairs: int
    query_sources: int  # 0: vertex 1 only; k > 0: k distinct vertices drawn from the seed

    def gen_flags(self, size: str) -> list[str]:
        return [a for k, v in self.graphs[size].items() for a in (f"--{k}", str(v))]

    def n(self, size: str) -> int:
        g = self.graphs[size]
        return g["n"] if "n" in g else g["rows"] * g["cols"]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "geo-path": Workload(
        graphs={
            "full": {"model": "path", "n": 500, "base": 2},
            "smoke": {"model": "path", "n": 64, "base": 2},
        },
        mode="reduced",
        path_reporting=True,
        verify_pairs=16,
        query_sources=0,
    ),
    "er-wide": Workload(
        graphs={
            "full": {"model": "er", "n": 1000, "p": 0.01, "wmin": 1, "wmax": 10**9},
            "smoke": {"model": "er", "n": 100, "p": 0.05, "wmin": 1, "wmax": 10**9},
        },
        mode="reduced",
        path_reporting=True,
        verify_pairs=60,
        query_sources=20,
    ),
    "grid-direct": Workload(
        graphs={
            "full": {"model": "grid", "rows": 40, "cols": 40, "wmin": 1, "wmax": 10**9},
            "smoke": {"model": "grid", "rows": 6, "cols": 6, "wmin": 1, "wmax": 10**9},
        },
        mode="direct",
        path_reporting=False,
        verify_pairs=40,
        query_sources=8,
    ),
}


class Run:
    """Plans repetitions of one workload and checks what they write."""

    def __init__(self, name: str, size: str, seed: int, work: str, reference: dict):
        import checks

        self.checks = checks
        self.wl = WORKLOADS[name]
        self.size, self.seed, self.work = size, seed, work
        n = self.wl.n(size)
        k = self.wl.query_sources
        self.sources = [0] if k == 0 else sorted(random.Random(seed).sample(range(n), k))
        self.files = {
            "graph": os.path.join(work, "graph.gr"),
            "hopset": os.path.join(work, "hopset.txt"),
            "report": os.path.join(work, "verify.json"),
            "estimates": os.path.join(work, "estimates.csv"),
            "paths": os.path.join(work, "paths.txt"),
        }
        self.reference = reference  # artifact -> digest from an earlier run of this code
        self.digests: dict[str, str] = {}  # artifact -> digest of this run's first repetition
        self.checked: dict[str, list[str]] = {}  # op -> problems found on first sight
        self.graph = None
        self.hopset_edges = 0

    def plan(self, ops: bool, trace: bool, spans_out: str | None = None) -> dict:
        f = self.files
        seed = str(self.seed)
        gen = ["gen", *self.wl.gen_flags(self.size), "--seed", seed, "--out", f["graph"]]
        io = ["--graph", f["graph"], "--hopset", f["hopset"]]
        build = ["build", "--graph", f["graph"], "--out", f["hopset"], *PARAM_FLAGS]
        build += ["--mode", self.wl.mode, "--seed", seed]
        if self.wl.path_reporting:
            build.append("--path-reporting")
        pairs = f"sample:{self.wl.verify_pairs}:{seed}"
        verify = ["verify", *io, "--pairs", pairs, "--report", f["report"]]
        query = ["query", *io, "--sources", ",".join(str(s + 1) for s in self.sources)]
        query += ["--out", f["estimates"]]
        if self.wl.path_reporting:
            query += ["--paths", f["paths"]]
        return {
            "src": SRC,
            "gen": gen,
            "ops": [("build", build), ("verify", verify), ("query", query)] if ops else [],
            "trace": trace,
            "spans_out": spans_out,
        }

    def _same(self, artifact: str) -> list[str]:
        """Digest the artifact; a digest differing from the reference is a failure."""
        path = self.files[artifact]
        c = self.checks
        d = c.report_digest(path) if artifact == "report" else c.file_digest(path)
        first = self.digests.setdefault(artifact, self.reference.get(artifact, d))
        return [] if d == first else [f"{artifact} digest {d[:16]} != {first[:16]}"]

    def check(self, op: str) -> list[str]:
        """Problems with the artifacts `op` wrote (its exit code was 0)."""
        problems = []
        artifacts = {
            "build": ["graph", "hopset"],
            "verify": ["report"],
            "query": ["estimates"] + (["paths"] if self.wl.path_reporting else []),
        }[op]
        try:
            for artifact in artifacts:
                problems += self._same(artifact)
            if op not in self.checked:
                self.checked[op] = self._check_content(op)
        except (OSError, ValueError, KeyError, IndexError) as exc:  # unreadable artifact
            return problems + [f"{type(exc).__name__}: {exc}"]
        return problems + self.checked[op]

    def _check_content(self, op: str) -> list[str]:
        c = self.checks
        if self.graph is None:
            from hopsets.graph import load_dimacs

            self.graph = load_dimacs(self.files["graph"])
        if op == "build":
            self.hopset_edges, problems = c.check_hopset(
                self.graph, self.files["hopset"], self.wl.path_reporting
            )
            return problems
        if op == "verify":
            return c.check_report(self.files["report"], self.wl.verify_pairs)
        estimates = c.read_estimates(self.files["estimates"])
        problems = c.check_estimates(estimates, self.sources, self.graph.n)
        if not problems and self.wl.path_reporting:
            problems = c.check_paths(self.graph, self.files["paths"], estimates)
        return problems


def run_worker(plan: dict, plan_path: str, deadline: float):
    """(worker result or None, monotonic start instant)."""
    with open(plan_path, "w", encoding="ascii") as fh:
        json.dump(plan, fh)
    env = dict(os.environ, HOPSET_JOBS="1")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, plan_path],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        print("worker timed out", file=sys.stderr)
        return None, started
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return None, started
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def code_digest() -> str:
    """Digest of the package sources, so stored artifact digests are per code version."""
    h = hashlib.sha256()
    for base, dirs, names in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def load_store(path: str) -> dict:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def save_store(path: str, store: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def bench(args, run: Run, start: float) -> tuple[dict, int, int, list[str]]:
    """Run repetitions; return (metric values, ops attempted, ops failed, notes)."""
    deadline = start + DEADLINE_S
    plan_path = os.path.join(run.work, "plan.json")
    spans_out = os.path.join(OUT, "traces", f"{args.size}-{args.workload}-seed{args.seed}.jsonl")
    setups: list[float] = []
    reps: list[dict] = []  # {"traced", "ops": {name: seconds}, "total", "rss_kb", "layers"}
    attempted = failed = 0
    notes: list[str] = []

    if not args.trace:
        for _ in range(SETUP_PROBES):
            res, started = run_worker(run.plan(False, False), plan_path, deadline)
            if res is not None and res["gen_rc"] == 0:
                setups.append(res["setup_done"] - started)

    need = 2 if args.trace else 1  # a traced run needs one repetition of each kind
    while True:
        est = median(r["wall"] for r in reps)
        if len(reps) >= need and time.monotonic() - start + est > args.seconds:
            break
        if reps and time.monotonic() + est > deadline:
            notes.append("stopped early: the next repetition would pass the deadline")
            break
        traced = bool(args.trace) and len(reps) % 2 == 1
        res, started = run_worker(run.plan(True, traced, spans_out), plan_path, deadline)
        wall = time.monotonic() - started
        attempted += 3
        if res is None or res["gen_rc"] != 0 or len(res["ops"]) != 3:
            failed += 3
            notes.append(f"repetition {len(reps)} did not run its ops")
            break
        setups.append(res["setup_done"] - started)
        for op in res["ops"]:
            problems = [f"exit code {op['rc']}"] if op["rc"] != 0 else run.check(op["name"])
            if problems:
                failed += 1
                label = "traced " if traced else ""
                notes.append(f"{label}repetition {len(reps)} {op['name']}: " + "; ".join(problems))
        reps.append(
            {
                "traced": traced,
                "ops": {op["name"]: op["seconds"] for op in res["ops"]},
                "total": sum(op["seconds"] for op in res["ops"]),
                "rss_kb": res["rss_kb"],
                "layers": res["layers"],
                "wall": wall,
            }
        )

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    values = {
        "setup_s": median(setups),
        "build_s": median(r["ops"]["build"] for r in plain),
        "verify_s": median(r["ops"]["verify"] for r in plain),
        "query_s": median(r["ops"]["query"] for r in plain),
        "peak_rss_mb": median(r["rss_kb"] / 1024 for r in plain),
        "hopset.edges": run.hopset_edges,
    }
    if traced_reps:
        names = set().union(*(r["layers"] for r in traced_reps))
        for key in names:
            values[key] = median(r["layers"].get(key, 0) for r in traced_reps)
        base = median(r["total"] for r in plain)
        overhead = median(r["total"] for r in traced_reps) - base
        values["trace.overhead_s"] = overhead
        values["trace.overhead_ratio"] = overhead / base if base else 0.0
    notes.append(
        f"repetitions: {len(plain)} untraced, {len(traced_reps)} traced; "
        f"set-up samples: {len(setups)}"
    )
    return values, attempted, failed, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full")
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "hopsets", "cli.py")) or not os.path.isfile(spec_path):
        print("perfbench: run from a checkout holding src/hopsets and BENCHMARK.json",
              file=sys.stderr)
        return 2
    with open(spec_path, "r", encoding="ascii") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    start = time.monotonic()

    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    store_path = os.path.join(OUT, "digests.json")
    store = load_store(store_path)
    wl_digest = hashlib.sha256(repr(WORKLOADS[args.workload]).encode()).hexdigest()[:16]
    key = f"{args.size}/{args.workload}/{wl_digest}/{args.seed}/{code_digest()}"
    work = os.path.join(OUT, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        run = Run(args.workload, args.size, args.seed, work, store.get(key, {}))
        values, attempted, failed, notes = bench(args, run, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if failed == 0:
        store[key] = run.digests
        save_store(store_path, store)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted
    }
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    for note in notes:
        print(f"  {note}")
    for artifact, digest in sorted(run.digests.items()):
        print(f"  digest {artifact:<9} sha256:{digest}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"  hopset edges {values['hopset.edges']}; ops attempted {attempted}, failed {failed}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
