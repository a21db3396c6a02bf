"""Output checks and artifact digests.

Each check reads an artifact back and tests what it must mean, not what its
bytes are: witnesses are real paths, verification found no violation among
the pairs asked for, the CSV holds one row per (source, vertex), and every
reported path is a graph path no heavier than its estimate.  A check returns
a list of problems; an empty list means the artifact passed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from hopsets.graph import Graph
from hopsets.hopset import load_hopset, validate_witnesses


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def report_digest(path: str) -> str:
    """Digest of a verify report without its `wall_time`, the one timed field."""
    with open(path, "r", encoding="ascii") as fh:
        report = json.load(fh)
    report.pop("wall_time", None)
    text = json.dumps(report, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def check_hopset(graph: Graph, path: str, path_reporting: bool) -> tuple[int, list[str]]:
    """(edge count, problems) for a hopset file built from `graph`."""
    hs = load_hopset(path)
    problems = []
    if hs.n != graph.n:
        problems.append(f"hopset n={hs.n} but graph n={graph.n}")
    if hs.size == 0:
        problems.append("hopset has no edges")
    if path_reporting:
        problems.extend(validate_witnesses(graph, hs)[:5])
    elif hs.witnesses is not None:
        problems.append("non-path-reporting build wrote witnesses")
    return hs.size, problems


def check_report(path: str, pairs_requested: int) -> list[str]:
    with open(path, "r", encoding="ascii") as fh:
        report = json.load(fh)
    problems = []
    if report["violation_count"] != 0:
        problems.append(f"{report['violation_count']} stretch violations")
    if report["pairs_checked"] != pairs_requested:
        problems.append(f"checked {report['pairs_checked']} pairs, asked for {pairs_requested}")
    return problems


def read_estimates(path: str) -> dict[tuple[int, int], Fraction | None]:
    """(source, vertex) -> estimate (None = unreachable), 0-based ids."""
    out: dict[tuple[int, int], Fraction | None] = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("source,"):
                continue
            s, v, num, den = line.rstrip("\n").split(",")
            key = (int(s) - 1, int(v) - 1)
            if key in out:
                raise ValueError(f"duplicate CSV row {line.strip()!r}")
            out[key] = None if num == "inf" else Fraction(int(num), int(den))
    return out


def check_estimates(
    estimates: dict[tuple[int, int], Fraction | None], sources: list[int], n: int
) -> list[str]:
    want = {(s, v) for s in sources for v in range(n)}
    if set(estimates) != want:
        return [f"CSV has {len(estimates)} rows, want |S|*n = {len(want)}"]
    if any(estimates[(s, s)] != 0 for s in sources):
        return ["a source's estimate to itself is not 0"]
    return []


def check_paths(
    graph: Graph, path: str, estimates: dict[tuple[int, int], Fraction | None]
) -> list[str]:
    """Every line is a graph path s..v weighing at most its estimate; one per reachable pair."""
    sources = {s for s, _ in estimates}
    want = {key for key, est in estimates.items() if est is not None and key[0] != key[1]}
    seen = set()
    problems = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            vs = [int(x) - 1 for x in line.split()]
            key = (vs[0], vs[-1]) if vs else None
            if key is None or key[0] not in sources or key in seen:
                problems.append(f"line {lineno}: unexpected or repeated path")
                break
            seen.add(key)
            total = 0
            for a, b in zip(vs, vs[1:]):
                w = graph.weight(a, b)
                if w is None:
                    problems.append(f"line {lineno}: ({a + 1},{b + 1}) is not a graph edge")
                    break
                total += w
            else:
                est = estimates.get(key)
                if est is None or total > est:
                    problems.append(f"line {lineno}: weight {total} exceeds estimate {est}")
            if problems:
                break
    if not problems and seen != want:
        problems.append(f"{len(seen)} paths written, want {len(want)}")
    return problems
