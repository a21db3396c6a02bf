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
from fractions import Fraction
from typing import NamedTuple, TextIO

from .graph import Graph, validate
from .scale_reduction import (
    LaminarFamily,
    ScaleGraph,
    build_laminar,
    materialize_scale_graph,
    relevant_scales,
)
from .single_scale import (
    PhaseSchedule,
    ScalePhases,
    build_single_scale,
    compute_schedule,
    phase_counts,
    phase_degrees,
)
from .util import FormatError, HopsetError, as_fraction, child_seed, find, opened, to_scaled
from .witness import Witnesses


class HopsetFormatError(HopsetError, FormatError):
    """Malformed hopset file; carries the 1-based line number when known."""


KIND_ORDER = {"star": 0, "supercluster": 1, "interconnect": 2}


class _HopsetParamFields(NamedTuple):
    kappa: int = 2
    rho: Fraction = Fraction(1, 2)
    eps_target: Fraction = Fraction(3, 10)
    seed: int = 0
    mode: str = "reduced"  # "reduced" | "direct"
    degree_mode: str = "basic"  # "basic" | "refined"
    path_reporting: bool = False


class HopsetParams(_HopsetParamFields):
    """User-facing build parameters.

    eps_target is the stretch slack of the final guarantee; rescaling to the
    internal per-phase eps happens in `plan`.  rho and eps_target are stored
    as `as_fraction` reads them, so 0.3, "0.3" and "3/10" are one value.
    Builds are deterministic for fixed (graph, params): every scale and
    phase derives its own RNG stream from `seed`.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        p = super().__new__(cls, *args, **kwargs)
        return tuple.__new__(cls, (p.kappa, as_fraction(p.rho), as_fraction(p.eps_target), *p[3:]))

    @classmethod
    def _make(cls, iterable) -> "HopsetParams":
        """So `_replace` converts rho and eps_target too."""
        return cls(*iterable)


class BuildPlan(NamedTuple):
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
        return s._replace(
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

    Mode and eps_target are checked first.  ell comes from `phase_counts`,
    which rejects bad (kappa, rho, degree_mode) with a `ScheduleError` (a
    `HopsetError`).  The one `compute_schedule` call of the build evaluates
    the recurrences at the internal eps and Rhat = 1.  Its thresholds and
    the contraction pad are converted to scaled integers here, once: D
    carries 2 * eps_int.den**ell and n * eps_reduction.den, so each
    conversion is exact (`to_scaled` raises otherwise), and every scale's
    values are these shifted left.
    """
    if params.mode not in ("reduced", "direct"):
        raise HopsetError(f"unknown mode {params.mode!r}")
    if params.mode == "reduced" and not (0 < params.eps_target < Fraction(1, 2)):
        raise HopsetError("reduced mode needs 0 < eps_target < 1/2")
    if params.mode == "direct" and not (0 < params.eps_target <= 1):
        raise HopsetError("direct mode needs 0 < eps_target <= 1")
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


class HopsetEdge(NamedTuple):
    """An edge of weight w / den, `den` being its hopset's denominator."""

    u: int
    v: int
    w: int
    scale: int
    kind: str


class Hopset(NamedTuple):
    """A built hopset with its guarantee and provenance.

    Edge weights are integers over one denominator `den`; built and loaded
    hopsets carry the least one, and rationals appear only where a file or
    report is written or read.  Every edge weight dominates the true
    distance between its endpoints, so adding the hopset never shortens any
    distance; the contract is that (effective_beta)-limited distances in the
    union graph stay within (1 + effective_eps) of true distances.
    `witnesses` is None unless the build recorded paths; then it holds one
    graph path per edge, as a list (direct mode) or as a `Witnesses` that
    keeps reduced-mode paths as merge-forest anchors and expands each when
    it is read.  Copy one with other fields by `_replace`.
    """

    n: int
    edges: list[HopsetEdge]
    den: int
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


def _canonical_edges(raw: list[tuple], den: int) -> tuple[list[int], list[HopsetEdge], int]:
    """(sort order, hopset edges, den / g) of (u, v, w over den, scale, kind) tuples.

    Edges are sorted by (scale, u, v, kind, w), the canonical order of built
    hopsets and their files.  g = gcd(den, weights) comes first, so each
    edge is made once, over den / g.
    """
    key = [(k, u, v, KIND_ORDER[kind], w) for u, v, w, k, kind in raw]
    order = sorted(range(len(raw)), key=key.__getitem__)
    g = math.gcd(den, *(r[2] for r in raw))
    edges = [HopsetEdge(u, v, w // g, k, kind) for u, v, w, k, kind in map(raw.__getitem__, order)]
    return order, edges, den // g


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
    raw: list[tuple] = []  # (u, v, w over bp.den, scale, kind) of each edge
    records: list[tuple] = []  # each edge's recorded path or tree anchors
    stats: dict = {"scales": {}}
    laminar: LaminarFamily | None = None

    if params.mode == "reduced":
        laminar = build_laminar(graph, bp.eps_reduction)
        # One star per (merge event, absorbed vertex), from the surviving center,
        # weighing (eps/n) * 2**k * |U| for the merged node U.  It dominates the
        # distance: U's spanning tree joins center and vertex in at most |U| - 1
        # edges, each below (eps/n) * 2**k.
        for ev in laminar.events:
            w = ev.size_after * (bp.pad << ev.scale)
            for z in ev.members_absorbed:
                raw.append((ev.survivor_center, z, w, ev.scale, "star"))
                records.append((ev.survivor_center, z))
        # at most n*log2(n) stars: the bound is structural, so asserted, not reported
        assert len(raw) <= graph.n * math.log2(graph.n) + 1e-9, "star set exceeded n*log2(n)"
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
        stats["scales"][k] = {"edges": len(ss.edges), "phases": [p._asdict() for p in ss.stats]}
        for e in ss.edges:
            raw.append((centers[e.u], centers[e.v], e.w, k, e.kind))
            if not record:
                records.append(())
            elif laminar is None:
                records.append(e.path)
            else:
                records.append(_tree_anchors(sg, [centers[i] for i in e.path]))

    order, edges, den = _canonical_edges(raw, bp.den)
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
        den=den,
        effective_beta=bp.effective_beta,
        effective_eps=bp.effective_eps,
        provenance=provenance,
        build_stats=stats,
    )
    return attach_witness_paths(laminar, hs, [records[i] for i in order]) if record else hs


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
    """A copy of `hopset` carrying the build's recorded paths, one per edge in edge order.

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
    if laminar is not None:
        records = Witnesses([ev.edge for ev in laminar.events], records)
    return hopset._replace(witnesses=records)


def validate_witnesses(graph: Graph, hopset: Hopset) -> list[str]:
    """Check every witness is a real path u..v of weight <= the edge weight.

    Problems name vertices by their 1-based ids, as files and the CLI do;
    a reduced witness whose anchors the forest does not join is one.
    """
    if hopset.witnesses is None:
        return ["hopset has no witnesses"]
    problems = []
    for i, edge in enumerate(hopset.edges[: len(hopset.witnesses)]):
        try:
            path = hopset.witnesses[i]
        except HopsetError as exc:
            problems.append(str(exc))
            continue
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
        if ok and total * hopset.den > edge.w:
            weight = Fraction(edge.w, hopset.den)
            problems.append(f"edge {i}: witness weight {total} > edge weight {weight}")
    return problems


# ---------------------------------------------------------------------------
# Single-scale wrapper and file format


def hopset_from_single_scale(
    graph: Graph, scale_index: int, ss, sched: PhaseSchedule, den: int
) -> Hopset:
    """Wrap one single-scale result, built from `sched`, as a standalone hopset.

    `ss`'s edge weights are integers over `den`; the hopset keeps them over
    the least denominator.  The contract carried over is the band
    guarantee: hop budget 2*h_ell + 1 with stretch slack
    zeta = 32*(ell+1)*eps on pairs at distance in (2**k, 2**(k+1)].
    """
    raw = [(e.u, e.v, e.w, scale_index, e.kind) for e in ss.edges]
    _, edges, den = _canonical_edges(raw, den)
    return Hopset(
        n=graph.n,
        edges=edges,
        den=den,
        effective_beta=sched.beta,
        effective_eps=sched.zeta,
        provenance={"mode": "single-scale", "scale": str(scale_index)},
    )


FILE_VERSION = 1
# the records after the header, by the name their faults give them
_BODY = {"e": "edge", "f": "forest edge", "p": "witness", "a": "witness"}


def dump_hopset(hopset: Hopset, out: TextIO) -> None:
    """Serialize; exact rationals as num/den in lowest terms, vertices 1-based.

    Output is byte-deterministic, in the record order `load_hopset` reads:
    `c` lines by sorted key, the header, the edges in stored (canonical)
    order, each weight w over `den` as w/den divided by their gcd, then the
    witnesses by edge index.  A `Witnesses` is written as stored, never
    expanded: its forest as `f` lines, then each edge's anchors as an `a`
    line; other witnesses are paths, written as `p` lines.
    """
    for key in sorted(hopset.provenance):
        out.write(f"c {key} {hopset.provenance[key]}\n")
    eps = hopset.effective_eps
    out.write(
        f"h {FILE_VERSION} {hopset.n} {hopset.effective_beta} "
        f"{eps.numerator}/{eps.denominator}\n"
    )
    den, lines = hopset.den, []
    for u, v, w, scale, kind in hopset.edges:
        g = math.gcd(w, den)
        lines.append(f"e {u + 1} {v + 1} {w // g}/{den // g} {scale} {kind}\n")
    wit = hopset.witnesses
    tag, records = "p", () if wit is None else wit
    if isinstance(wit, Witnesses):
        lines += [f"f {u + 1} {v + 1} {w}\n" for u, v, w in wit.forest]
        tag, records = "a", wit.anchors
    for i, record in enumerate(records):
        lines.append(f"{tag} {i} {' '.join([str(x + 1) for x in record])}\n")
    out.write("".join(lines))


def load_hopset(source) -> Hopset:
    """Parse a hopset file (path or text stream); inverse of dump_hopset.

    Records come in the order `dump_hopset` writes: `c` lines anywhere, the
    `h` header, every `e` line, then the witnesses: `p` lines (paths), or
    `f` lines (a forest, loaded as a `Witnesses`, unexpanded) then `a`
    lines (anchors), each of whose pairs the forest must join.  Each record
    is checked once, in the order of its checks' messages, and a fault
    names its line, a witness index outside 0..m-1 too.  The frequent
    records go first: an `e` line's weight sign is checked on its parsed
    integers, then put in lowest terms, and once the first `a` line has
    labelled the forest's trees, a two-anchor `a` line that passes every
    check is read straight from the labels; any other line takes the
    general branch, which names its fault.  After the last line, weights
    are scaled once to the lcm of the denominators, the hopset's `den`; an
    edge no witness line covers is named by its index, and a missing
    header by the last line read, if any.
    """
    with opened(source) as fh:
        provenance: dict = {}
        n = lineno = None  # n is the header's, once it is read
        m = 0
        edges: list[HopsetEdge] = []
        dens: list[int] = []  # each edge's weight is edges[i].w / dens[i], in lowest terms
        wit: list | None = None  # a witness slot per edge, made once the edges are read
        filled = 0
        forest: list[tuple[int, int, int]] = []
        root: dict[int, int] = {}  # union-find over the vertices `f` lines name, 0-based
        tree = None  # vertex -> its tree's label, once the forest is complete
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                raise HopsetFormatError("non-ASCII byte", lineno)
            parts = raw.split()
            if not parts:
                continue
            tag = parts[0]
            # most `a` lines: two anchors, read once the forest's trees are labelled
            if tag == "a" and tree is not None and len(parts) == 4:
                try:
                    idx, x, y = int(parts[1]), int(parts[2]) - 1, int(parts[3]) - 1
                except ValueError:
                    pass
                else:
                    if (
                        0 <= x < n
                        and 0 <= y < n
                        and 0 <= idx < m
                        and wit[idx] is None
                        and tree(x, x) == tree(y, y)
                    ):
                        wit[idx] = (x, y)
                        filled += 1
                        continue
            fields = parts[1:]
            if n is None and tag in _BODY:
                raise HopsetFormatError(f"{_BODY[tag]} before header", lineno)
            if tag == "e":
                if wit is not None:
                    raise HopsetFormatError("edge after a forest or witness line", lineno)
                try:
                    u, v, w, scale, kind = fields
                    num, den = w.split("/")
                    u, v, num, den, scale = int(u), int(v), int(num), int(den), int(scale)
                except ValueError:
                    _fields(lineno, fields, int, int, _fraction, int, str)  # raises
                    raise
                if not den:
                    raise _malformed(lineno, fields)
                if not (1 <= u <= n and 1 <= v <= n):
                    _check_vertices(lineno, n, (u, v))
                if num * den <= 0:
                    raise HopsetFormatError(
                        f"edge weight {Fraction(num, den)} is not positive", lineno
                    )
                if kind not in KIND_ORDER:
                    raise HopsetFormatError(f"unknown edge kind {kind!r}", lineno)
                g = math.gcd(num, den)  # num and den share a sign: keep |num| / |den|
                edges.append(HopsetEdge(u - 1, v - 1, abs(num) // g, scale, kind))
                dens.append(abs(den) // g)
                continue
            if wit is None and tag in _BODY:  # the first line past the edges
                wit = [None] * (m := len(edges))
            if tag == "f":
                try:
                    u, v, w = map(int, fields)
                except ValueError:
                    _fields(lineno, fields, int, int, int)  # raises, naming the fault
                    raise
                _check_vertices(lineno, n, (u, v))
                if w <= 0:
                    raise HopsetFormatError(f"forest edge weight {w} is not positive", lineno)
                if filled:
                    raise HopsetFormatError("forest edge after a witness line", lineno)
                x, y = u - 1, v - 1  # a vertex first named here is its own root
                ru = find(root, x) if x in root else root.setdefault(x, x)
                rv = find(root, y) if y in root else root.setdefault(y, y)
                if ru == rv:
                    raise HopsetFormatError(f"forest edge {u} {v} closes a cycle", lineno)
                root[ru] = rv
                forest.append((x, y, w))
            elif tag in ("p", "a"):
                if tag == "p" and len(fields) < 2:
                    raise HopsetFormatError("witness needs an index and a vertex", lineno)
                if tag == "a" and (len(fields) < 3 or len(fields) % 2 == 0):
                    raise HopsetFormatError("anchors need an index and vertex pairs", lineno)
                try:
                    idx, *path = map(int, fields)
                except ValueError:
                    raise _malformed(lineno, fields) from None
                if min(path) < 1 or max(path) > n:
                    _check_vertices(lineno, n, path)
                if tag == "p" and forest:
                    raise HopsetFormatError("path witness after a forest edge", lineno)
                if tag == "a" and not forest:
                    raise HopsetFormatError("anchors before any forest edge", lineno)
                if not 0 <= idx < m:
                    raise HopsetFormatError(
                        f"witness for edge {idx}; the hopset has {m} edges", lineno
                    )
                if wit[idx] is not None:
                    raise HopsetFormatError(f"duplicate witness for edge {idx}", lineno)
                path = tuple(map((-1).__add__, path))  # 0-based
                if tag == "a":
                    if tree is None:  # the forest is complete: label its vertices by tree
                        for x in root:
                            root[x] = find(root, x)
                        tree = root.get  # a vertex outside the forest is its own tree
                    for x, y in zip(path[::2], path[1::2]):
                        if tree(x, x) != tree(y, y):
                            raise HopsetFormatError(
                                f"anchors {x + 1} and {y + 1} are not joined by the forest", lineno
                            )
                wit[idx] = path
                filled += 1
            elif tag == "c":
                if len(fields) < 2:
                    raise HopsetFormatError("provenance needs a key and a value", lineno)
                if fields[0] in provenance:
                    raise HopsetFormatError(f"duplicate provenance key {fields[0]!r}", lineno)
                provenance[fields[0]] = " ".join(fields[1:])
            elif tag == "h":
                if n is not None:
                    raise HopsetFormatError("duplicate header", lineno)
                version, n, beta, eps = _fields(lineno, fields, int, int, int, _fraction)
                if version != FILE_VERSION:
                    raise HopsetFormatError(f"unsupported hopset file version {version}", lineno)
                if n < 1 or beta < 0 or eps <= 0:
                    raise HopsetFormatError(f"bad header n={n} beta={beta} eps={eps}", lineno)
            else:
                raise HopsetFormatError(f"unknown record {tag!r}", lineno)
        if n is None:
            raise HopsetFormatError("missing header line", lineno)
        common = math.lcm(*dens)
        for i, d in enumerate(dens):
            if d != common:  # rebuilt once, over the lcm
                u, v, w, scale, kind = edges[i]
                edges[i] = HopsetEdge(u, v, w * (common // d), scale, kind)
        if filled < m:
            raise HopsetFormatError(f"witness lines do not cover edge {wit.index(None)}")
        return Hopset(
            n=n,
            edges=edges,
            den=common,
            effective_beta=beta,
            effective_eps=eps,
            provenance=provenance,
            witnesses=Witnesses(forest, wit) if forest else wit,
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
