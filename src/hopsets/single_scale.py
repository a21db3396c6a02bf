"""Single-scale hopset construction.

One build covers a distance band (2**k, 2**(k+1)] of its input graph.  It
runs ell phases of {supercluster, interconnect} plus a concluding phase of
interconnection only.  Superclustering samples clusters, explores from the
sampled centers to distance delta_i, and absorbs every unsampled cluster
whose center was reached, adding one exact-distance star edge per
absorption.  Interconnection links every pair of surviving cluster centers
within delta_i / 2, again at exact distance.

A build is told a floor: a lower bound on every arc weight of its graph.
A phase whose radius is below the floor is idle, since an exploration to it
reaches no vertex but its roots: it runs none, and yields what one would.
In reduced mode that is phase 0 of every scale (see `hopset.build_hopset`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .explore import ExplorationForest, bounded_dijkstra, multi_source_bounded_dijkstra
from .util import HopsetError, as_fraction, child_seed


class ScheduleError(HopsetError):
    pass


@dataclass(frozen=True)
class PhaseSchedule:
    """All derived per-scale parameters.

    Thresholds are exact rationals: delta[i] is the superclustering
    exploration depth of phase i (interconnection uses delta[i]/2), radius[i]
    bounds cluster radii entering phase i, h[i] the hop counts of the
    stretch recurrence, and beta = 2*h[ell] + 1 the hop budget the band
    guarantee is stated for.  deg[i] drives sampling (see `ScalePhases`).
    """

    n: int
    kappa: int
    rho: Fraction
    eps: Fraction
    Rhat: int
    degree_mode: str
    i0: int
    i1: int
    ell: int
    alpha: Fraction
    delta: tuple[Fraction, ...]
    radius: tuple[Fraction, ...]
    deg: tuple[float, ...]
    h: tuple[Fraction, ...]
    beta: int

    @property
    def zeta(self) -> Fraction:
        """Stretch slack guaranteed on the band at hop budget beta (c = 2)."""
        return 32 * (self.ell + 1) * self.eps


@dataclass(frozen=True)
class ScalePhases:
    """What the phases of one single-scale build read, in the units they use.

    depth[i] is phase i's superclustering depth delta_i and half[i] its
    interconnection radius delta_i / 2, both scaled integers over the
    build's one denominator (`BuildPlan.den`); the concluding phase is
    i = len(depth) - 1.  deg[i] drives sampling: probability 1/deg[i], used
    directly without rounding.
    """

    deg: tuple[float, ...]
    depth: tuple[int, ...]
    half: tuple[int, ...]

    def sample_probability(self, i: int) -> float:
        return min(1.0, 1.0 / self.deg[i])


def phase_counts(kappa: int, rho, degree_mode: str) -> tuple[int, int, int]:
    """(i0, i1, ell), after checking the rules on (kappa, rho, degree_mode).

    Stage 1 covers phases 0..i0, stage 2 phases i0+1..i1, and phase
    ell = i1 + 1 is interconnect-only; the refined mode adds one phase.
    """
    rho = as_fraction(rho)
    if not isinstance(kappa, int) or kappa < 2:
        raise ScheduleError("kappa must be an integer >= 2")
    if degree_mode not in ("basic", "refined"):
        raise ScheduleError(f"unknown degree_mode {degree_mode!r}")
    if kappa * rho < 1:
        raise ScheduleError(
            f"kappa*rho = {kappa * rho} < 1: the first-stage phase count "
            "floor(log2(kappa*rho)) would be negative; choose rho >= 1/kappa"
        )
    if rho > Fraction(1, 2):
        raise ScheduleError("rho must satisfy 1/kappa <= rho <= 1/2")
    i0 = (kappa * rho.numerator // rho.denominator).bit_length() - 1  # floor(log2(kappa*rho))
    steps = math.ceil(Fraction(kappa + 1) / (kappa * rho))
    i1 = i0 + steps - (2 if degree_mode == "basic" else 1)
    return i0, i1, i1 + 1


def phase_degrees(
    n: int, kappa: int, rho: Fraction, degree_mode: str, i0: int, i1: int
) -> tuple[float, ...]:
    """Sampling degrees of phases 0..i1 on an n-vertex graph.

    The refined mode divides stage-1 degrees by 2**(2**i - 1), trimming the
    hopset size at the cost of a larger beta, and runs phase i0+1 at
    n**(rho/2).
    """
    nf = float(n)
    deg: list[float] = []
    for i in range(i1 + 1):
        if degree_mode == "basic":
            deg.append(nf ** (2**i / kappa) if i <= i0 else nf ** float(rho))
        else:
            if i <= i0:
                deg.append(nf ** (2**i / kappa) / 2 ** (2**i - 1))
            elif i == i0 + 1:
                deg.append(nf ** (float(rho) / 2))
            else:
                deg.append(nf ** float(rho))
    return tuple(deg)


def compute_schedule(
    n: int,
    kappa: int,
    rho,
    eps,
    Rhat: int,
    degree_mode: str = "basic",
) -> PhaseSchedule:
    """Evaluate the phase-count, threshold, degree and hop recurrences.

    A build runs this once (`hopset.plan`), at Rhat = 1: only `deg`
    depends on n, and alpha, delta and radius are linear in Rhat, so
    `BuildPlan.phases_for` derives every scale's thresholds from it.
    """
    rho = as_fraction(rho)
    eps = as_fraction(eps)
    if n < 2:
        raise ScheduleError("schedule needs n >= 2")
    if Rhat < 1:
        raise ScheduleError("Rhat must be >= 1")
    i0, i1, ell = phase_counts(kappa, rho, degree_mode)
    if not (0 < eps <= Fraction(1, 10)):
        raise ScheduleError(
            f"internal eps {eps} outside (0, 1/10]: the hop recurrence bound "
            "h_i <= 3*(1/eps+2)**i needs a small eps"
        )

    alpha = eps**ell * Rhat
    inv = 1 / eps
    radius = [Fraction(0)]
    delta = []
    for i in range(ell + 1):
        d = alpha * inv**i + 4 * radius[i]
        delta.append(d)
        radius.append(d + radius[i])
    radius = radius[: ell + 1]

    h = [Fraction(1)]
    for i in range(ell):
        h.append((h[i] + 1) * (inv + 2) + 2 * i + 5)
    beta = int(2 * h[ell] + 1)

    return PhaseSchedule(
        n=n,
        kappa=kappa,
        rho=rho,
        eps=eps,
        Rhat=Rhat,
        degree_mode=degree_mode,
        i0=i0,
        i1=i1,
        ell=ell,
        alpha=alpha,
        delta=tuple(delta),
        radius=tuple(radius),
        deg=phase_degrees(n, kappa, rho, degree_mode, i0, i1),
        h=tuple(h),
        beta=beta,
    )


# ---------------------------------------------------------------------------
# Build state: a partition is the ascending list of its clusters' center
# ids.  Edges join centers only, so cluster membership is never kept.


@dataclass
class ScaleEdge:
    """A hopset edge in the coordinates of the graph the build ran on.

    `w` is a scaled integer (exact distance measured by the construction's
    Dijkstra); `path` is the realizing vertex path u..v.
    """

    u: int
    v: int
    w: int
    kind: str  # "supercluster" | "interconnect"
    path: tuple[int, ...]


@dataclass
class PhaseStats:
    index: int
    clusters_in: int
    sampled: int
    unclustered: int
    star_edges: int
    interconnect_edges: int
    interconnect_visits: int


@dataclass
class SingleScaleHopset:
    edges: list[ScaleEdge]
    stats: list[PhaseStats] = field(default_factory=list)
    partitions: list[list[int]] = field(default_factory=list)


def _scale_edge(forest: ExplorationForest, v: int, kind: str) -> ScaleEdge:
    """The edge from reached vertex v's root to v: exact distance, tree path."""
    path = tuple(forest.path_from_root(v))
    return ScaleEdge(forest.root[v], v, forest.dist[v], kind, path)


def _sample(partition: list[int], p: float, rng: random.Random) -> tuple[list[int], list[int]]:
    """(sampled, rest): one `rng.random()` per center, in the partition's order."""
    sampled: list[int] = []
    rest: list[int] = []
    for c in partition:
        (sampled if rng.random() < p else rest).append(c)
    return sampled, rest


def supercluster_phase(
    adj,
    partition: list[int],
    p: float,
    depth: int,
    rng: random.Random,
) -> tuple[list[int], list[ScaleEdge], list[int]]:
    """One superclustering step; returns (next partition, star edges, U_i).

    Each center of `partition` (ascending) is sampled with probability p,
    drawing in that order; the sampled centers are the next partition.
    Every unsampled center that the exploration to `depth` (a scaled
    integer) reached joins the supercluster of its forest root and
    contributes one star edge at exact distance; the rest are U_i.
    """
    sampled, rest = _sample(partition, p, rng)
    if not sampled:
        return [], [], rest

    forest = multi_source_bounded_dijkstra(adj, sampled, depth)
    star: list[ScaleEdge] = []
    unclustered: list[int] = []
    for c in rest:
        if c in forest.dist:
            star.append(_scale_edge(forest, c, "supercluster"))
        else:
            unclustered.append(c)
    return sampled, star, unclustered


def interconnect_phase(
    adj, unclustered: list[int], half: int
) -> tuple[list[ScaleEdge], int]:
    """Link every pair of unclustered centers within `half` (inclusive).

    `half` is the phase's delta_i / 2 as a scaled integer.  Each center runs
    its own bounded exploration; a pair is emitted once, from its lower-id
    endpoint (distance symmetry makes both sides agree).  Returns the edges
    and the interconnection load: the vertices reached, summed over the
    explorations.

    A center whose every arc is longer than `half` reaches only itself
    (weights are nonnegative), so it counts that one visit and skips the
    exploration; an arc of weight exactly `half` still runs it.
    """
    centers = sorted(unclustered)
    center_set = set(centers)
    edges: list[ScaleEdge] = []
    visits = 0
    for c in centers:
        if all(w > half for _, w in adj[c]):
            visits += 1
            continue
        forest = bounded_dijkstra(adj, c, half)
        visits += len(forest.dist)
        linked = sorted(v for v in forest.dist if v > c and v in center_set)
        edges.extend(_scale_edge(forest, v, "interconnect") for v in linked)
    return edges, visits


def build_single_scale(
    adj,
    phases: ScalePhases,
    seed: int,
    floor: int,
    sample_overrides: dict[int, float] | None = None,
    keep_partitions: bool = False,
) -> SingleScaleHopset:
    """Run all phases over `adj` (any graph in scaled-integer weights).

    Deterministic for fixed (adj, phases, seed).  `floor` must be a lower
    bound on every arc weight of `adj` (0 is always one).  `sample_overrides`
    maps a phase index to a forced sampling probability, and
    `keep_partitions` records each phase's entering partition (test hooks).
    Every vertex of `adj` starts as the center of its own cluster; emitted
    edges live in the same vertex space as `adj`, each with the path that
    realizes it.

    A phase whose radius is below `floor` is idle: no arc is that short, so
    an exploration to it would reach its own roots only.  Idle
    superclustering still samples, drawing as `supercluster_phase` does;
    the sampled centers go on and the rest are unclustered, with no star
    edge.  Idle interconnection emits nothing and counts one visit per
    unclustered center.  Edges, stats and partitions equal those of
    `floor` = 0.
    """
    partition = list(range(len(adj)))
    edges: list[ScaleEdge] = []
    stats: list[PhaseStats] = []
    partitions: list[list[int]] = []
    ell = len(phases.depth) - 1
    for i in range(ell + 1):
        if keep_partitions:
            partitions.append(partition)
        nxt: list[int] = []
        star: list[ScaleEdge] = []
        unclustered = partition  # the concluding phase only interconnects
        if i < ell:
            p = (sample_overrides or {}).get(i, phases.sample_probability(i))
            rng = random.Random(child_seed(seed, "phase", i))
            if phases.depth[i] >= floor:
                nxt, star, unclustered = supercluster_phase(adj, partition, p, phases.depth[i], rng)
            else:
                nxt, unclustered = _sample(partition, p, rng)
        if phases.half[i] >= floor:
            inter, visits = interconnect_phase(adj, unclustered, phases.half[i])
        else:
            inter, visits = [], len(unclustered)
        stats.append(
            PhaseStats(
                index=i,
                clusters_in=len(partition),
                sampled=len(nxt),
                unclustered=len(unclustered),
                star_edges=len(star),
                interconnect_edges=len(inter),
                interconnect_visits=visits,
            )
        )
        edges.extend(star)
        edges.extend(inter)
        partition = nxt
    return SingleScaleHopset(edges, stats, partitions)
