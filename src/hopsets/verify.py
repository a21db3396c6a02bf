"""Oracle-based verification of the (beta, eps) contract plus size accounting.

The stretch check is exact end to end and computes only the distances it
reads.  When beta >= n - 1, d^(beta) is the plain union distance d_U, and
since G is a subgraph of G u H, d_U <= d_G: only an undercut can violate.
Each source then runs distance-only searches over G u H, whose adjacency
is built once from the graph's and the hopset's own lists.  Its arcs weigh
w * n plus 1 for a hopset arc, so a target's key n * d_U + c also gives c,
the fewest hopset edges on any shortest union path.  A source with one or
two wanted targets meets each halfway, by a Dijkstra from both ends; any
other runs one Dijkstra that stops once its targets have settled, or, in
band mode, once keys pass the band's top.  c = 0 proves d_G = d_U; only
targets with c > 0 (undercut in, or unreachable from, G) go to one oracle
sweep over G.  Below n - 1, d^(beta) comes from `asp_estimates`, the rows
`query` writes, one source at a time, and the oracle sweeps G per source.
Distances are integers over the hopset's `den`, and stretches are compared
as integer pairs; only the reported maximum and the listed violations
become rationals.  There is no tolerance; a violation is either a bug or
a genuinely failed probabilistic event (the report carries the seed
material to replay it).  Size and load bounds exceeded are reported as
outliers, not contract violations.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from typing import NamedTuple

# hop_limited_bellman_ford is not called here: perfbench's tracer wraps this binding
from .asp import asp_estimates, check_hopset
from .explore import dijkstra_all, hop_limited_bellman_ford, pair_distance
from .graph import Graph
from .hopset import Hopset, HopsetError
from .util import find

# Largest n for which the all-pairs oracle runs: it holds n x n distances.
N_MAX_ALLPAIRS = 500
# Violations listed in a report; `violation_count` still counts them all.
MAX_LISTED_VIOLATIONS = 100


class VerificationReport(NamedTuple):
    n: int
    pair_mode: str
    effective_beta: int
    effective_eps: Fraction
    pairs_checked: int
    max_stretch: Fraction | None
    violations: list[dict]
    per_scale_sizes: dict[int, int]
    star_edges: int
    hopset_edges: int
    violation_total: int = 0
    exploration_load: dict | None = None
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.violation_total == 0

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "pair_mode": self.pair_mode,
            "effective_beta": self.effective_beta,
            "effective_eps": _frac(self.effective_eps),
            "pairs_checked": self.pairs_checked,
            "max_stretch": _frac(self.max_stretch),
            "max_stretch_float": (
                float(self.max_stretch) if self.max_stretch is not None else None
            ),
            "violations": self.violations,
            "violation_count": self.violation_total,
            "hopset_edges": self.hopset_edges,
            "star_edges": self.star_edges,
            "per_scale_sizes": {str(k): v for k, v in self.per_scale_sizes.items()},
            "exploration_load": self.exploration_load,
            "wall_time": round(self.wall_time, 6),
        }


def _frac(f: Fraction | None) -> str | None:
    if f is None:
        return None
    return f"{f.numerator}/{f.denominator}"


def exact_apsp(graph: Graph) -> list[list[int | None]]:
    """All-pairs exact distances by n Dijkstra sweeps (None = unreachable)."""
    if graph.n > N_MAX_ALLPAIRS:
        raise HopsetError(
            f"graph too large for all-pairs oracle (n={graph.n} > {N_MAX_ALLPAIRS})"
        )
    return [dijkstra_all(graph.adj, s) for s in range(graph.n)]


def _keyed_adjacency(graph: Graph, hopset: Hopset):
    """Undirected (neighbor, key weight) lists of G u H, from `graph.adj`.

    An arc of weight w over the hopset's den weighs w * n, plus 1 if it is a
    hopset arc.  A minimum-key path is simple, so it has at most n - 1
    hopset arcs, and a shortest-path key K splits as divmod(K, n) =
    (d_U, c): the union distance and the fewest hopset edges on any
    shortest union path.  The hopset must have passed `check_hopset`.
    """
    n = graph.n
    unit = hopset.den * n
    adj = [[(v, w * unit) for v, w in nbrs] for nbrs in graph.adj]
    for u, v, w, _, _ in hopset.edges:
        k = w * n + 1
        adj[u].append((v, k))
        adj[v].append((u, k))
    return adj


def _union_sweep(graph: Graph, keyed, s: int, targets, den: int, hi=None):
    """(d_G, scaled d_U) for `targets` from keyed searches over G u H.

    Up to two targets take their keys from one `pair_distance` each; more
    take one `dijkstra_all` sweep.  c = 0 means a pure-G path has length
    d_U, so d_G = d_U.  c > 0 means d_G > d_U or no G path: only those
    targets take the oracle sweep.  A target unreachable in G u H is
    unreachable in G, and stays None in both.  Given a band top `hi`, the
    sweep stops once d_U > hi, and a target it leaves without a key stays
    None in both, to be skipped as out of band, which it is:
    d_G >= d_U > hi.  A pair search has no such stop; its target gets its
    key, and the band filter on d_G skips it as before.
    """
    n = graph.n
    if len(targets) <= 2:
        key = [None] * n
        for t in targets:
            key[t] = pair_distance(keyed, s, t)
    else:
        limit = None if hi is None else hi * den * n + n - 1
        key = dijkstra_all(keyed, s, targets, limit)
    d_true: list[int | None] = [None] * n
    lim: list[int | None] = [None] * n
    flagged = []
    for v in targets:
        k = key[v]
        if k is None:
            continue
        dl, c = divmod(k, n)
        lim[v] = dl
        if c:
            flagged.append(v)
        else:
            d_true[v] = dl // den
    if flagged:
        oracle = dijkstra_all(graph.adj, s, flagged)
        for v in flagged:
            d_true[v] = oracle[v]
    return d_true, lim


def check_pair_spec(
    pair_mode: str, sample_size: int | None = None, band: int | None = None
) -> None:
    """Reject a pair spec that can select no pair.

    A sample needs a size of at least 1 (None stands for `verify_stretch`'s
    default).  Band k holds distances in (2**k, 2**(k+1)], and below k = -1
    no integer distance falls in it, so band mode needs a given k >= -1.
    `HopsetError` is a `ValueError`, so as an argparse converter's check
    this is a usage error.
    """
    if pair_mode == "sample" and sample_size is not None and sample_size < 1:
        raise HopsetError(f"sample size {sample_size} selects no pair; it must be >= 1")
    if pair_mode == "band" and (band is None or band < -1):
        raise HopsetError(f"band mode needs a scale index k >= -1, got {band}")


def verify_stretch(
    graph: Graph,
    hopset: Hopset,
    pair_mode: str = "all",
    sample_size: int = 1000,
    sample_seed: int = 0,
    band: int | None = None,
) -> VerificationReport:
    """Check hop-limited stretch of the union graph against exact distances.

    pair_mode "all": every unordered pair with finite distance, at any n;
    "band": pairs with distance in (2**band, 2**(band+1)], none once 2**band
    reaches the total weight; "sample": sample_size ordered pairs drawn
    uniformly over finite-distance pairs, deterministically per sample_seed.
    A spec that can select no pair is rejected (`check_pair_spec`).  A pair
    violates if its beta-limited distance is infinite, falls below the true
    distance (an undercut: hopset edges must never shorten a distance), or
    exceeds (1 + eps) times it; pairs unreachable in G are excluded.
    """
    check_pair_spec(pair_mode, sample_size, band)
    check_hopset(graph, hopset)
    t0 = time.perf_counter()
    den = hopset.den
    eps = hopset.effective_eps
    beta = hopset.effective_beta
    n = graph.n

    if pair_mode in ("all", "band"):
        wanted = {s: None for s in range(n)}  # all targets above s
        mode_desc = "all" if pair_mode == "all" else f"band({band})"
    elif pair_mode == "sample":
        pairs = _sample_pairs(graph, sample_size, sample_seed)
        wanted = {}
        for s, v in pairs:
            wanted.setdefault(s, []).append(v)
        mode_desc = f"sample({sample_size},{sample_seed})"
    else:
        raise HopsetError(f"unknown pair mode {pair_mode!r}")

    lo = hi = None
    if pair_mode == "band" and band >= sum(w for _, _, w in graph.edges).bit_length():
        wanted = {}  # no distance exceeds the total weight W < 2**W.bit_length()
    elif pair_mode == "band":
        lo, hi = 2**band, 2 ** (band + 1)

    pairs_checked = 0
    top = None  # the largest stretch so far, as a pair (d_limited, d_true), both over den
    violations: list[dict] = []
    total_violations = 0
    sources = sorted(wanted)
    # beta >= n - 1: d^(beta) is the plain distance; below, query's rows give it
    keyed = _keyed_adjacency(graph, hopset) if sources and n > 1 and beta >= n - 1 else None
    rows = asp_estimates(graph, hopset, sources) if keyed is None and sources else None
    for s in sources:
        targets = wanted[s] if wanted[s] is not None else range(s + 1, n)
        if keyed is None:
            d_true = dijkstra_all(graph.adj, s, targets)
            lim = next(rows).dist
        else:
            d_true, lim = _union_sweep(graph, keyed, s, targets, den, hi)
        for v in targets:
            dg = d_true[v]
            if v == s or dg is None:
                continue
            if lo is not None and not (lo < dg <= hi):
                continue
            pairs_checked += 1
            dl, dt = lim[v], dg * den
            if dl is not None and (top is None or dl * top[1] > top[0] * dt):
                top = (dl, dt)
            # both sides of the contract: no undercut below the true
            # distance, no overshoot beyond (1 + eps) times it
            if dl is None or dl < dt or dl * eps.denominator > dt * (
                eps.numerator + eps.denominator
            ):
                total_violations += 1
                if len(violations) < MAX_LISTED_VIOLATIONS:
                    violations.append(
                        {
                            "u": s,
                            "v": v,
                            "d_true": dg,
                            "d_limited": _frac(Fraction(dl, den)) if dl is not None else None,
                            "stretch": _frac(Fraction(dl, dt)) if dl is not None else None,
                        }
                    )
    load = None
    if hopset.build_stats:
        load = _load_summary(hopset.build_stats, n)
    return VerificationReport(
        n=n,
        pair_mode=mode_desc,
        effective_beta=beta,
        effective_eps=eps,
        pairs_checked=pairs_checked,
        max_stretch=None if top is None else Fraction(*top),
        violations=violations,
        violation_total=total_violations,
        per_scale_sizes=hopset.per_scale_sizes(),
        star_edges=hopset.star_count(),
        hopset_edges=hopset.size,
        exploration_load=load,
        wall_time=time.perf_counter() - t0,
    )


def _sample_pairs(graph: Graph, m: int, seed: int) -> list[tuple[int, int]]:
    """Uniform over ordered pairs with finite distance: pairs sharing a component."""
    parent = list(range(graph.n))
    for u, v, _ in graph.edges:
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[ru] = rv
    comps: dict[int, list[int]] = {}
    for v in range(graph.n):
        comps.setdefault(find(parent, v), []).append(v)
    weighted = [vs for vs in comps.values() if len(vs) > 1]
    total = sum(len(vs) * (len(vs) - 1) for vs in weighted)
    if total == 0:
        return []
    rng = random.Random(seed)
    pairs = []
    for _ in range(m):
        r = rng.randrange(total)
        for vs in weighted:
            block = len(vs) * (len(vs) - 1)
            if r < block:
                i, j = divmod(r, len(vs) - 1)
                u = vs[i]
                v = vs[j if j < i else j + 1]
                pairs.append((u, v))
                break
            r -= block
    return pairs


def _load_summary(stats: dict, n: int) -> dict:
    scales = {}
    for k, s in stats.get("scales", {}).items():
        scales[str(k)] = [
            {
                "phase": p["index"],
                "mean_visits": round(p["interconnect_visits"] / max(1, n), 4),
                "interconnect_edges": p["interconnect_edges"],
            }
            for p in s["phases"]
        ]
    return scales


def size_stats(hopset: Hopset, n: int, kappa: int) -> dict:
    """Pure accounting: per-scale counts and the normalized size ratio."""
    total = hopset.size
    stars = hopset.star_count()
    norm = n ** (1 + 1 / kappa) * math.log(n) if n > 1 else 1.0
    s_bound = n * math.log2(n) if n > 1 else 0.0
    return {
        "total_edges": total,
        "per_scale": hopset.per_scale_sizes(),
        "star_edges": stars,
        "star_bound": s_bound,
        "star_within_bound": stars <= s_bound + 1e-9,
        "normalized_ratio": total / norm,
        "effective_beta": hopset.effective_beta,
        "effective_eps": _frac(hopset.effective_eps),
    }
