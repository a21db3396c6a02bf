"""Hopset assembly: multi-scale union, scale reduction, witnesses, file I/O.

Two modes.  `direct` builds one single-scale hopset per distance band of the
input graph itself, enumerating bands up to an aspect-ratio bound.
`reduced` contracts the graph per scale first, builds single-scale hopsets
on the contracted graphs, and adds the star set; this touches only scales
holding an edge weight and yields the (6*beta+5, eps) guarantee
independently of the aspect ratio.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TextIO

from .graph import Graph, validate
from .scale_reduction import (
    LaminarFamily,
    ScaleGraph,
    build_laminar,
    materialize_scale_graph,
    relevant_scales,
    star_edges,
)
from .single_scale import (
    PhaseSchedule,
    ScalePhases,
    build_single_scale,
    compute_schedule,
    phase_counts,
    phase_degrees,
)
from .util import HopsetError, as_fraction, child_seed, find, opened, to_scaled
from .witness import Witnesses


class HopsetFormatError(HopsetError):
    """Malformed hopset file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


KIND_ORDER = {"star": 0, "supercluster": 1, "interconnect": 2}


@dataclass(frozen=True)
class HopsetParams:
    """User-facing build parameters.

    eps_target is the stretch slack of the final guarantee; rescaling to the
    internal per-phase eps happens in `plan`.  Builds are deterministic for
    fixed (graph, params): every scale and phase derives its own RNG stream
    from `seed`.
    """

    kappa: int = 2
    rho: Fraction = Fraction(1, 2)
    eps_target: Fraction = Fraction(3, 10)
    seed: int = 0
    mode: str = "reduced"  # "reduced" | "direct"
    degree_mode: str = "basic"  # "basic" | "refined"
    path_reporting: bool = False

    @staticmethod
    def make(**kw) -> "HopsetParams":
        if "rho" in kw:
            kw["rho"] = as_fraction(kw["rho"])
        if "eps_target" in kw:
            kw["eps_target"] = as_fraction(kw["eps_target"])
        return HopsetParams(**kw)

    def validated(self) -> "HopsetParams":
        """Check mode and eps_target; `phase_counts` checks the rest."""
        if self.mode not in ("reduced", "direct"):
            raise HopsetError(f"unknown mode {self.mode!r}")
        if self.mode == "reduced" and not (0 < self.eps_target < Fraction(1, 2)):
            raise HopsetError("reduced mode needs 0 < eps_target < 1/2")
        if self.mode == "direct" and not (0 < self.eps_target <= 1):
            raise HopsetError("direct mode needs 0 < eps_target <= 1")
        return self


@dataclass
class BuildPlan:
    """Derived quantities shared by every scale of one build."""

    ell: int
    eps_int: Fraction  # per-phase eps after rescaling by 32*(ell+1)
    eps_reduction: Fraction | None  # contraction eps (reduced mode)
    beta_single: int  # hop budget of one single-scale hopset
    effective_beta: int
    effective_eps: Fraction
    den: int  # D: every weight of the build is an integer over it
    schedule: PhaseSchedule  # the build's one schedule, at Rhat = 1
    depth: tuple[int, ...]  # delta_i at Rhat = 1, times D
    half: tuple[int, ...]  # delta_i / 2 at Rhat = 1, times D
    pad: int | None  # eps_reduction / n times D (reduced mode)

    def phases_for(self, k: int, n_scale: int) -> ScalePhases:
        """What the phases of scale k on an n_scale-vertex graph read.

        The thresholds are `schedule_for(k, n_scale)`'s, converted by
        `to_scaled` over D: both are linear in Rhat = 2**(k+1), so they are
        the plan's Rhat = 1 integers shifted left by k + 1.
        """
        s = self.schedule
        return ScalePhases(
            deg=phase_degrees(n_scale, s.kappa, s.rho, s.degree_mode, s.i0, s.i1),
            depth=tuple(d << (k + 1) for d in self.depth),
            half=tuple(h << (k + 1) for h in self.half),
        )

    def schedule_for(self, k: int, n_scale: int) -> PhaseSchedule:
        """`compute_schedule(n_scale, kappa, rho, eps_int, 2**(k+1), degree_mode)`.

        alpha, delta and radius are linear in Rhat, so they are the plan's
        schedule times 2**(k+1), exactly; only the degrees depend on n_scale.
        The build reads `phases_for`; this is its exact rational reference.
        """
        s = self.schedule
        rhat = 2 ** (k + 1)
        return replace(
            s,
            n=n_scale,
            Rhat=rhat,
            alpha=s.alpha * rhat,
            delta=tuple(d * rhat for d in s.delta),
            radius=tuple(r * rhat for r in s.radius),
            deg=phase_degrees(n_scale, s.kappa, s.rho, s.degree_mode, s.i0, s.i1),
        )

    def is_trivial_scale(self, k: int) -> bool:
        """Bands with 2**(k+1) <= beta need no hopset edges.

        Distances up to beta are realized by at-most-beta-edge paths already
        (weights are >= 1), so those schedules are marked empty.  The
        comparison uses the single-scale beta in both modes; in reduced mode
        the composed budget 6*beta+5 is consumed by the star detours.
        """
        return 2 ** (k + 1) <= self.beta_single


def plan(params: HopsetParams, n: int) -> BuildPlan:
    """Fix eps rescaling, the effective (beta, eps) contract and the schedule.

    ell comes from `phase_counts`, which also rejects bad (kappa, rho,
    degree_mode) with a `ScheduleError` (a `HopsetError`).  The one
    `compute_schedule` call of the build evaluates the recurrences at the
    internal eps and Rhat = 1.  Its thresholds and the contraction pad are
    converted to scaled integers here, once: D carries 2 * eps_int.den**ell
    and n * eps_reduction.den, so each conversion is exact (`to_scaled`
    raises otherwise), and every scale's values are these shifted left.
    """
    params = params.validated()
    _, _, ell = phase_counts(params.kappa, params.rho, params.degree_mode)
    eps_red = params.eps_target / 6 if params.mode == "reduced" else None
    eps_fed = eps_red or params.eps_target  # band stretch asked of each scale
    eps_int = eps_fed / (32 * (ell + 1))
    schedule = compute_schedule(
        max(n, 2), params.kappa, params.rho, eps_int, 1, params.degree_mode
    )
    beta_single = schedule.beta
    den = 2 * eps_int.denominator**ell
    if eps_red is not None:
        den = math.lcm(den, n * eps_red.denominator)
        effective_beta = 6 * beta_single + 5
    else:
        effective_beta = beta_single
    return BuildPlan(
        ell=ell,
        eps_int=eps_int,
        eps_reduction=eps_red,
        beta_single=beta_single,
        effective_beta=effective_beta,
        effective_eps=params.eps_target,
        den=den,
        schedule=schedule,
        depth=tuple(to_scaled(d, den) for d in schedule.delta),
        half=tuple(to_scaled(d / 2, den) for d in schedule.delta),
        pad=None if eps_red is None else to_scaled(eps_red / n, den),
    )


@dataclass
class HopsetEdge:
    u: int
    v: int
    weight: Fraction
    scale: int
    kind: str


@dataclass
class Hopset:
    """A built hopset with its guarantee and provenance.

    Every edge weight dominates the true distance between its endpoints, so
    adding the hopset never shortens any distance; the contract is that
    (effective_beta)-limited distances in the union graph stay within
    (1 + effective_eps) of true distances.  `witnesses` is None unless the
    build recorded paths; then it holds one graph path per edge, as a list
    (direct mode) or as a `Witnesses` that keeps reduced-mode paths as
    merge-forest anchors and expands each when it is first read.
    """

    n: int
    edges: list[HopsetEdge]
    effective_beta: int
    effective_eps: Fraction
    provenance: dict
    witnesses: Sequence[tuple[int, ...]] | None = None
    build_stats: dict | None = None

    @property
    def size(self) -> int:
        return len(self.edges)

    def per_scale_sizes(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.edges:
            out[e.scale] = out.get(e.scale, 0) + 1
        return dict(sorted(out.items()))

    def star_count(self) -> int:
        return sum(1 for e in self.edges if e.kind == "star")

    def weight_den(self) -> int:
        """The least common denominator of the edge weights."""
        return math.lcm(*(e.weight.denominator for e in self.edges))


def _edge_key(e: HopsetEdge) -> tuple:
    """The canonical edge order of built hopsets and their files."""
    return (e.scale, e.u, e.v, KIND_ORDER[e.kind], e.weight)


def build_hopset(graph: Graph, params: HopsetParams) -> Hopset:
    """Construct a hopset for `graph` per `params`.

    Reduced mode: star set plus single-scale hopsets on the contracted
    graphs of the relevant scales.  Direct mode: single-scale hopsets on the
    graph itself for every band k = 1..floor(log2(Lambda - 1)), where the
    aspect-ratio bound Lambda is the sum of the n-1 largest weights.  Both
    skip trivial scales (`BuildPlan.is_trivial_scale`), and tell each build
    a floor under its arc weights, so it idles the phases below it (see
    `build_single_scale`): the lightest edge in direct mode, and
    3 * (pad << k) at reduced scale k.  Unreachable regions stay
    unexplored, so components need no special casing.  Scales build
    independently and merge in a fixed (scale, u, v) order, so results are
    byte-stable per seed.
    """
    problems = validate(graph)
    if problems:
        raise HopsetError(f"invalid graph: {problems[0]}")
    bp = plan(params, graph.n)
    record = params.path_reporting
    edges: list[HopsetEdge] = []
    records: list[tuple] = []  # each edge's recorded path or tree anchors
    stats: dict = {"scales": {}}
    laminar: LaminarFamily | None = None

    if params.mode == "reduced":
        laminar = build_laminar(graph, bp.eps_reduction)
        for s in star_edges(laminar):
            edges.append(HopsetEdge(s.u, s.v, s.weight, s.scale, "star"))
            records.append((s.u, s.v))
        scales = relevant_scales(graph)
    else:
        weights = sorted((w for _, _, w in graph.edges), reverse=True)
        lam = sum(weights[: graph.n - 1])
        scales = range(1, (lam - 1).bit_length())
        adj = [[(v, w * bp.den) for v, w in nbrs] for nbrs in graph.adj]
        centers = range(graph.n)
        floor = weights[-1] * bp.den if weights else 0
    for k in scales:
        if bp.is_trivial_scale(k):
            continue
        if laminar is not None:
            sg = materialize_scale_graph(graph, laminar, k, bp.den, bp.pad)
            if sg.active_count < 2:
                continue
            # an uncontracted edge weighs >= pad << k, and each end pads it as much
            adj, centers, floor = sg.adj, sg.active_centers, 3 * (bp.pad << k)
        ss = build_single_scale(
            adj, bp.phases_for(k, len(centers)), child_seed(params.seed, "scale", k), floor
        )
        stats["scales"][k] = {"edges": len(ss.edges), "phases": [dict(vars(p)) for p in ss.stats]}
        for e in ss.edges:
            edges.append(
                HopsetEdge(centers[e.u], centers[e.v], Fraction(e.w, bp.den), k, e.kind)
            )
            if not record:
                records.append(())
            elif laminar is None:
                records.append(e.path)
            else:
                records.append(_tree_anchors(sg, [centers[i] for i in e.path]))

    order = sorted(range(len(edges)), key=lambda i: _edge_key(edges[i]))
    edges = [edges[i] for i in order]
    provenance = {
        "format": "hopset-provenance-1",
        "graph": graph.digest(),
        "n": str(graph.n),
        "m": str(graph.m),
        "mode": params.mode,
        "kappa": str(params.kappa),
        "rho": str(params.rho),
        "eps": str(params.eps_target),
        "degree_mode": params.degree_mode,
        "path_reporting": str(params.path_reporting).lower(),
        "seed": str(params.seed),
        "ell": str(bp.ell),
        "beta_single": str(bp.beta_single),
    }
    hs = Hopset(
        n=graph.n,
        edges=edges,
        effective_beta=bp.effective_beta,
        effective_eps=bp.effective_eps,
        provenance=provenance,
        build_stats=stats,
    )
    if record:
        attach_witness_paths(laminar, hs, [records[i] for i in order])
    return hs


# ---------------------------------------------------------------------------
# Witness paths


def _tree_anchors(sg: ScaleGraph, node_path: list[int]) -> tuple[int, ...]:
    """Endpoints of the tree walks that realize a contracted-graph path.

    Pairs (anchors[2i], anchors[2i+1]) lie in one node and are joined by a
    spanning-tree walk; anchors[2i+1] and anchors[2i+2] are the endpoints
    of the minimum original edge behind one contracted hop, so the walks
    concatenate into one graph path.
    """
    anchors = [node_path[0]]
    for cu, cv in zip(node_path, node_path[1:]):
        a, b, _ = sg.base_edge(cu, cv)
        anchors += (a, b)
    anchors.append(node_path[-1])
    return tuple(anchors)


def attach_witness_paths(
    laminar: LaminarFamily | None, hopset: Hopset, records: list[tuple]
) -> Hopset:
    """Attach the build's recorded paths, one per edge in edge order, as witnesses.

    Without a laminar family (direct mode), each record is the edge's
    Dijkstra tree path in the graph, used as it is (its weight equals the
    edge weight exactly).  With one (reduced mode), each record is a tuple
    of tree anchors (see `_tree_anchors`); star edges are the two-anchor
    case.  Every node's spanning tree is a subtree of the laminar family's
    one merge forest, so each walk is the unique forest path between its
    anchors: the witnesses are `Witnesses` over the merge forest's edges,
    which expand when read.  Spliced paths weigh at most the edge weight
    (the padding terms absorb the detours), never necessarily equal.
    """
    if laminar is None:
        hopset.witnesses = records
    else:
        hopset.witnesses = Witnesses([ev.edge for ev in laminar.events], records)
    return hopset


def validate_witnesses(graph: Graph, hopset: Hopset) -> list[str]:
    """Check every witness is a real path u..v of weight <= the edge weight.

    Problems name vertices by their 1-based ids, as files and the CLI do.
    """
    if hopset.witnesses is None:
        return ["hopset has no witnesses"]
    problems = []
    for i, (edge, path) in enumerate(zip(hopset.edges, hopset.witnesses)):
        if not path:
            problems.append(f"edge {i}: empty witness")
            continue
        if path[0] != edge.u or path[-1] != edge.v:
            ends = f"{path[0] + 1},{path[-1] + 1} != {edge.u + 1},{edge.v + 1}"
            problems.append(f"edge {i}: endpoints {ends}")
            continue
        total = 0
        ok = True
        for a, b in zip(path, path[1:]):
            w = graph.weight(a, b)
            if w is None:
                problems.append(f"edge {i}: ({a + 1},{b + 1}) is not a graph edge")
                ok = False
                break
            total += w
        if ok and Fraction(total) > edge.weight:
            problems.append(f"edge {i}: witness weight {total} > edge weight {edge.weight}")
    return problems


# ---------------------------------------------------------------------------
# Single-scale wrapper and file format


def hopset_from_single_scale(
    graph: Graph, scale_index: int, ss, sched: PhaseSchedule, den: int
) -> Hopset:
    """Wrap one single-scale result, built from `sched`, as a standalone hopset.

    Its edge weights are scaled integers over `den`.

    The contract carried over is the band guarantee: hop budget 2*h_ell + 1
    with stretch slack zeta = 32*(ell+1)*eps on pairs at distance in
    (2**k, 2**(k+1)].
    """
    edges = [
        HopsetEdge(e.u, e.v, Fraction(e.w, den), scale_index, e.kind)
        for e in ss.edges
    ]
    return Hopset(
        n=graph.n,
        edges=sorted(edges, key=_edge_key),
        effective_beta=sched.beta,
        effective_eps=sched.zeta,
        provenance={"mode": "single-scale", "scale": str(scale_index)},
    )


FILE_VERSION = 1


def dump_hopset(hopset: Hopset, out: TextIO) -> None:
    """Serialize; exact rationals as num/den, vertices 1-based.

    Output is byte-deterministic for a given hopset: provenance keys sorted,
    edges in stored (already canonical) order, witnesses by edge index.  A
    `Witnesses` is written as stored, never expanded: its forest as `f`
    lines, then each edge's anchors as an `a` line; other witnesses are
    paths, written as `p` lines.  Vertex ids are written from one table of
    id strings, made on first use for the vertices the lines name, so
    nothing is sized by n.
    """
    for key in sorted(hopset.provenance):
        out.write(f"c {key} {hopset.provenance[key]}\n")
    eps = hopset.effective_eps
    out.write(
        f"h {FILE_VERSION} {hopset.n} {hopset.effective_beta} "
        f"{eps.numerator}/{eps.denominator}\n"
    )
    ids = _IdStrings()
    out.write(
        "".join(
            [
                f"e {ids[e.u]} {ids[e.v]} {e.weight.numerator}/{e.weight.denominator} "
                f"{e.scale} {e.kind}\n"
                for e in hopset.edges
            ]
        )
    )
    wit = hopset.witnesses
    if wit is None:
        return
    tag, records = "p", wit
    if isinstance(wit, Witnesses):
        for u, v, w in wit.forest:
            out.write(f"f {ids[u]} {ids[v]} {w}\n")
        tag, records = "a", wit.anchors
    for i, record in enumerate(records):
        out.write(f"{tag} {i} {' '.join(map(ids.__getitem__, record))}\n")


class _IdStrings(dict):
    """1-based id strings of 0-based vertices, each made on first use."""

    def __missing__(self, v: int) -> str:
        text = self[v] = str(v + 1)
        return text


def load_hopset(source) -> Hopset:
    """Parse a hopset file (path or text stream); inverse of dump_hopset.

    A file's witnesses are `p` lines (paths), or `f` lines (a forest)
    followed by `a` lines (anchors), each of whose pairs the forest must
    join.  A file with `f` lines loads them as a `Witnesses`, unexpanded.
    """
    with opened(source) as fh:
        provenance: dict = {}
        header = None
        edges: list[HopsetEdge] = []
        witnesses: dict[int, tuple[int, ...]] = {}
        forest: list[tuple[int, int, int]] = []
        root: dict[int, int] = {}  # union-find over the vertices `f` lines name, 0-based
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                raise HopsetFormatError("non-ASCII byte", lineno)
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
                try:
                    u, v, w, scale, kind = fields
                    num, den = w.split("/")
                    u, v, w, scale = int(u), int(v), Fraction(int(num), int(den)), int(scale)
                except (ValueError, ZeroDivisionError):
                    if len(fields) != 5:
                        raise HopsetFormatError(
                            f"expected 5 fields, got {len(fields)}", lineno
                        ) from None
                    raise _malformed(lineno, fields) from None
                _check_vertices(lineno, header[0], (u, v))
                if w <= 0:
                    raise HopsetFormatError(f"edge weight {w} is not positive", lineno)
                if kind not in KIND_ORDER:
                    raise HopsetFormatError(f"unknown edge kind {kind!r}", lineno)
                edges.append(HopsetEdge(u - 1, v - 1, w, scale, kind))
            elif tag == "f":
                if header is None:
                    raise HopsetFormatError("forest edge before header", lineno)
                try:
                    u, v, w = map(int, fields)
                except ValueError:
                    _fields(lineno, fields, int, int, int)  # raises, naming the fault
                    raise
                _check_vertices(lineno, header[0], (u, v))
                if w <= 0:
                    raise HopsetFormatError(f"forest edge weight {w} is not positive", lineno)
                if witnesses:
                    raise HopsetFormatError("forest edge after a witness line", lineno)
                x, y = u - 1, v - 1  # a vertex first named here is its own root
                ru = find(root, x) if x in root else root.setdefault(x, x)
                rv = find(root, y) if y in root else root.setdefault(y, y)
                if ru == rv:
                    raise HopsetFormatError(f"forest edge {u} {v} closes a cycle", lineno)
                root[ru] = rv
                forest.append((x, y, w))
            elif tag in ("p", "a"):
                if header is None:
                    raise HopsetFormatError("witness before header", lineno)
                if tag == "p" and len(fields) < 2:
                    raise HopsetFormatError("witness needs an index and a vertex", lineno)
                if tag == "a" and (len(fields) < 3 or len(fields) % 2 == 0):
                    raise HopsetFormatError("anchors need an index and vertex pairs", lineno)
                try:
                    idx, *path = map(int, fields)
                except ValueError:
                    raise _malformed(lineno, fields) from None
                if min(path) < 1 or max(path) > header[0]:
                    _check_vertices(lineno, header[0], path)
                if tag == "p" and forest:
                    raise HopsetFormatError("path witness after a forest edge", lineno)
                if tag == "a" and not forest:
                    raise HopsetFormatError("anchors before any forest edge", lineno)
                if idx in witnesses:
                    raise HopsetFormatError(f"duplicate witness for edge {idx}", lineno)
                path = tuple(map((-1).__add__, path))  # 0-based
                if tag == "a":
                    if not witnesses:  # the forest is complete: label its vertices by tree
                        for x in root:
                            root[x] = find(root, x)
                    tree = root.get  # a vertex outside the forest is its own tree
                    for x, y in zip(path[::2], path[1::2]):
                        if tree(x, x) != tree(y, y):
                            raise HopsetFormatError(
                                f"anchors {x + 1} and {y + 1} are not joined by the forest", lineno
                            )
                witnesses[idx] = path
            else:
                raise HopsetFormatError(f"unknown record {tag!r}", lineno)
        if header is None:
            raise HopsetFormatError("missing header line")
        n, beta, eps = header
        wit = None
        if witnesses or forest:
            if sorted(witnesses) != list(range(len(edges))):
                raise HopsetFormatError("witness lines do not cover all edges")
            wit = [witnesses[i] for i in range(len(edges))]
            if forest:
                wit = Witnesses(forest, wit)
        return Hopset(
            n=n,
            edges=edges,
            effective_beta=beta,
            effective_eps=eps,
            provenance=provenance,
            witnesses=wit,
        )


def _fraction(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _fields(lineno: int, fields: list[str], *kinds) -> list:
    """Convert a record's fields by `kinds`, or name the line that fails."""
    if len(fields) != len(kinds):
        raise HopsetFormatError(f"expected {len(kinds)} fields, got {len(fields)}", lineno)
    try:
        return [kind(f) for kind, f in zip(kinds, fields)]
    except (ValueError, ZeroDivisionError):
        raise _malformed(lineno, fields) from None


def _malformed(lineno: int, fields: list[str]) -> HopsetFormatError:
    return HopsetFormatError(f"malformed record {' '.join(fields)!r}", lineno)


def _check_vertices(lineno: int, n: int, vertices) -> None:
    for x in vertices:
        if not 1 <= x <= n:
            raise HopsetFormatError(f"vertex id {x} out of range [1,{n}]", lineno)
