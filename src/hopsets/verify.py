"""Oracle-based verification of the (beta, eps) contract plus size accounting.

The stretch check is exact end to end and computes only the distances it
reads.  When beta >= n - 1, d^(beta) is the plain union distance d_U, and
since G is a subgraph of G u H, d_U <= d_G: only an undercut can violate.
Each source then runs one distance-only Dijkstra over G u H that stops once
its wanted targets have settled.  Its arcs weigh w * n plus 1 for a hopset
arc, so a target's key n * d_U + c also gives c, the fewest hopset edges on
any shortest union path.  c = 0 proves d_G = d_U; only targets with c > 0
(undercut in, or unreachable from, G) go to one oracle sweep over G.  Below
n - 1, one hop-limited Bellman-Ford call over the union graph gives d^(beta)
for all sources (the |S| x n table is held for the whole check) and the
oracle sweeps G per source.  The comparison runs in scaled integers.  There
is no tolerance; a violation is either a bug or a genuinely failed
probabilistic event (the report carries the seed material to replay it).
Size and load bounds exceeded are reported as outliers, not contract
violations.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .explore import dijkstra_all, hop_limited_bellman_ford
from .graph import Graph
from .hopset import Hopset, HopsetError
from .util import find

# Largest n for which the all-pairs oracle and the "all" and "band" pair
# modes run: each sweeps every source, and the oracle holds n x n distances.
N_MAX_ALLPAIRS = 500
# Violations listed in a report; `violation_count` still counts them all.
MAX_LISTED_VIOLATIONS = 100


@dataclass
class VerificationReport:
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


def _union_edges(graph: Graph, hopset: Hopset, den: int):
    rel = [(u, v, w * den, ("g", i)) for i, (u, v, w) in enumerate(graph.edges)]
    for i, e in enumerate(hopset.edges):
        w = e.weight.numerator * den // e.weight.denominator
        rel.append((e.u, e.v, w, ("h", i)))
    return rel


def _keyed_adjacency(n: int, rel):
    """Undirected (neighbor, key weight) lists of tagged union edges.

    An arc of weight w weighs w * n, plus 1 if it is a hopset arc.  A
    minimum-key path is simple, so it has at most n - 1 hopset arcs, and a
    shortest-path key K splits as divmod(K, n) = (d_U, c): the union
    distance and the fewest hopset edges on any shortest union path.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w, tag in rel:
        if w < 0:
            raise ValueError(f"negative weight {w} on edge ({u}, {v})")
        k = w * n + (tag[0] == "h")
        adj[u].append((v, k))
        adj[v].append((u, k))
    return adj


def _union_sweep(graph: Graph, keyed, s: int, targets, den: int):
    """(d_G, scaled d_U) for `targets` from one keyed sweep over G u H.

    c = 0 means a pure-G path has length d_U, so d_G = d_U.  c > 0 means
    d_G > d_U or no G path: only those targets take the oracle sweep.  A
    target unreachable in G u H is unreachable in G, and stays None in both.
    """
    n = graph.n
    key = dijkstra_all(keyed, s, targets)
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

    pair_mode "all": every unordered pair with finite distance (n capped by
    N_MAX_ALLPAIRS); "band": pairs with distance in (2**band, 2**(band+1)];
    "sample": sample_size ordered pairs drawn uniformly over finite-distance
    pairs, deterministically per sample_seed.  A spec that can select no
    pair is rejected (`check_pair_spec`).  A pair violates if its
    beta-limited distance is infinite, falls below the true distance (an
    undercut: hopset edges must never shorten a distance), or exceeds
    (1 + eps) times it; pairs unreachable in G are excluded.
    """
    check_pair_spec(pair_mode, sample_size, band)
    if hopset.n != graph.n:
        raise HopsetError(f"hopset is for n={hopset.n}, graph has n={graph.n}")
    t0 = time.perf_counter()
    den = hopset.weight_den()
    rel = _union_edges(graph, hopset, den)
    eps = hopset.effective_eps
    beta = hopset.effective_beta
    n = graph.n

    if pair_mode in ("all", "band"):
        if n > N_MAX_ALLPAIRS:
            raise HopsetError(
                f"pair mode {pair_mode!r} limited to n <= {N_MAX_ALLPAIRS}"
            )
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
    if pair_mode == "band":
        lo, hi = 2**band, 2 ** (band + 1)

    pairs_checked = 0
    max_stretch: Fraction | None = None
    violations: list[dict] = []
    total_violations = 0
    sources = sorted(wanted)
    keyed = limited = None
    if n > 1 and beta >= n - 1:
        keyed = _keyed_adjacency(n, rel)  # d^(beta) is the plain distance
    else:
        limited = hop_limited_bellman_ford(n, rel, sources, beta).dist
    for s in sources:
        targets = wanted[s] if wanted[s] is not None else range(s + 1, n)
        if keyed is None:
            d_true = dijkstra_all(graph.adj, s, targets)
            lim = limited[s]
        else:
            d_true, lim = _union_sweep(graph, keyed, s, targets, den)
        for v in targets:
            dg = d_true[v]
            if v == s or dg is None:
                continue
            if lo is not None and not (lo < dg <= hi):
                continue
            pairs_checked += 1
            dl = lim[v]
            stretch = None
            if dl is not None:
                stretch = Fraction(dl, dg * den)
                if max_stretch is None or stretch > max_stretch:
                    max_stretch = stretch
            # both sides of the contract: no undercut below the true
            # distance, no overshoot beyond (1 + eps) times it
            if dl is None or dl < dg * den or dl * eps.denominator > dg * den * (
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
                            "stretch": _frac(stretch),
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
        max_stretch=max_stretch,
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
