"""Acceptance suite: every contract checked at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s to see them live).
All stretch checks are exact rational arithmetic with zero tolerance.
"""

import io
import math
from fractions import Fraction as F

import pytest

from hopsets import (
    HopsetParams,
    activity_stats,
    asp_estimates,
    build_hopset,
    build_laminar,
    build_single_scale,
    compute_schedule,
    dijkstra_all,
    dump_hopset,
    er_graph,
    exact_apsp,
    extract_path,
    hop_limited_bellman_ford,
    hopset_from_single_scale,
    materialize_scale_graph,
    multi_source_bounded_dijkstra,
    path_graph,
    relevant_scales,
    verify_stretch,
)
from hopsets.single_scale import ScalePhases
from hopsets.util import to_scaled

SEEDS5 = [101, 102, 103, 104, 105]
KAPPA, RHO = 2, F(1, 2)


def announce(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:>2} {name}: {status}{suffix}")
    return ok


def scaled_phases(sched, den):
    """The schedule's thresholds as the phases read them, over `den`."""
    return ScalePhases(
        deg=sched.deg,
        depth=tuple(to_scaled(d, den) for d in sched.delta),
        half=tuple(to_scaled(d / 2, den) for d in sched.delta),
    )


def instances():
    return [
        ("er(100,0.1,1,8)", lambda seed: er_graph(100, 0.1, 1, 8, seed=seed)),
        ("er(200,0.05,1,100)", lambda seed: er_graph(200, 0.05, 1, 100, seed=seed)),
        ("path(64,2)", lambda seed: path_graph(64, 2)),
    ]


@pytest.fixture(scope="module")
def contract_runs():
    """Reduced-mode builds for criterion 1, reused by criteria 3 and 10."""
    runs = []
    for eps in ("0.3", "0.45"):
        for name, make in instances():
            for seed in SEEDS5:
                graph = make(seed)
                params = HopsetParams.make(
                    kappa=KAPPA, rho=RHO, eps_target=eps, seed=seed, mode="reduced"
                )
                hopset = build_hopset(graph, params)
                runs.append((name, eps, seed, graph, params, hopset))
    return runs


@pytest.fixture(scope="module")
def trend_runs():
    """Reduced-mode builds for criterion 4, reused by criterion 3."""
    runs = []
    for n in (128, 256, 512):
        for seed in range(10):
            graph = er_graph(n, 0.1, 1, 8, seed=seed)
            params = HopsetParams.make(
                kappa=KAPPA, rho=RHO, eps_target="0.3", seed=seed, mode="reduced"
            )
            runs.append((n, seed, graph, params, build_hopset(graph, params)))
    return runs


def test_criterion_01_stretch_hopbound_contract(contract_runs):
    failures = []
    for name, eps, seed, graph, params, hopset in contract_runs:
        report = verify_stretch(graph, hopset, pair_mode="all")
        if not report.ok:
            failures.append((name, eps, seed, report.violation_total))
    ok = announce(1, "stretch/hopbound contract (30 reduced runs, all pairs)", not failures, f"{len(contract_runs)} runs")
    assert ok, failures


def test_criterion_02_single_scale_band_contract():
    eps_int = F(1, 10)
    failures = []
    checked = 0
    for seed in SEEDS5:
        graph = er_graph(128, 0.1, 1, 16, seed=seed)
        den = 2 * eps_int.denominator**2
        adj = [[(v, w * den) for v, w in nbrs] for nbrs in graph.adj]
        floor = min(w for _, _, w in graph.edges) * den
        for k in relevant_scales(graph):
            sched = compute_schedule(graph.n, KAPPA, RHO, eps_int, 2 ** (k + 1))
            ss = build_single_scale(adj, scaled_phases(sched, den), seed, floor)
            hs = hopset_from_single_scale(graph, k, ss, sched, den)
            assert hs.effective_beta == 2 * sched.h[sched.ell] + 1
            report = verify_stretch(graph, hs, pair_mode="band", band=k)
            checked += report.pairs_checked
            if not report.ok:
                failures.append((seed, k, report.violation_total))
    ok = announce(2, "single-scale band contract at (2h_ell+1, zeta)", not failures, f"{checked} band pairs")
    assert ok, failures


def test_criterion_03a_star_set_hard_bound(contract_runs, trend_runs):
    over = []
    for name, eps, seed, graph, params, hopset in contract_runs:
        if hopset.star_count() > graph.n * math.log2(graph.n):
            over.append((name, eps, seed))
    for n, seed, graph, params, hopset in trend_runs:
        if hopset.star_count() > n * math.log2(n):
            over.append((n, "0.3", seed))
    ok = announce(3, "hard size bound |S| <= n*log2(n) in every run", not over)
    assert ok, over


def test_criterion_03b_activity_hard_bound(contract_runs, trend_runs):
    # claimed bound log2(n/eps) + 2 per node, eps the contraction slack
    over = []
    all_runs = [(r[3], r[4]) for r in contract_runs] + [
        (r[2], r[3]) for r in trend_runs
    ]
    for graph, params in all_runs:
        eps_red = params.eps_target / 6
        lam = build_laminar(graph, eps_red)
        stats = activity_stats(lam, relevant_scales(graph))
        if stats["max_activity"] > stats["activity_bound"]:
            over.append(
                (
                    graph.n,
                    str(params.eps_target),
                    stats["max_activity"],
                    round(stats["activity_bound"], 3),
                )
            )
    ok = announce(
        3,
        "hard activity bound <= log2(n/eps)+2 scales per node in every run",
        not over,
        f"{len(over)} runs exceed the claimed bound" if over else "",
    )
    assert ok, (
        "power-of-two edge weights sit exactly on the weight <= 2**(k+2) "
        "inclusion boundary, stretching activity spans to floor(log2(n/eps))+3 "
        f"scales; offending (n, eps, span, bound): {sorted(set(over))}"
    )


def test_criterion_04_statistical_size_trend(trend_runs):
    ratios = {}
    for n, seed, graph, params, hopset in trend_runs:
        norm = n ** (1 + 1 / KAPPA) * math.log(n)
        ratios.setdefault(n, []).append(hopset.size / norm)
    means = {n: sum(v) / len(v) for n, v in ratios.items()}
    ok = means[512] <= 1.25 * means[128]
    announce(
        4,
        "normalized size trend n=128 -> 512 grows <= 25%",
        ok,
        f"means {means[128]:.4f} -> {means[256]:.4f} -> {means[512]:.4f}",
    )
    assert ok, means


def test_criterion_05_exploration_load():
    eps_int = F(1, 10)
    n = 256
    totals: dict[tuple[int, int], list[float]] = {}
    degs: dict[tuple[int, int], float] = {}
    for seed in range(20):
        graph = er_graph(n, 0.05, 1, 8, seed=seed)
        den = 2 * eps_int.denominator**2
        adj = [[(v, w * den) for v, w in nbrs] for nbrs in graph.adj]
        floor = min(w for _, _, w in graph.edges) * den
        for k in relevant_scales(graph):
            sched = compute_schedule(n, KAPPA, RHO, eps_int, 2 ** (k + 1))
            ss = build_single_scale(adj, scaled_phases(sched, den), seed, floor)
            for p in ss.stats:
                if p.index > sched.i1:
                    continue  # the concluding phase has no degree parameter
                totals.setdefault((k, p.index), []).append(p.interconnect_visits / n)
                degs[(k, p.index)] = sched.deg[p.index]
    failures = {
        key: (sum(v) / len(v), degs[key])
        for key, v in totals.items()
        if sum(v) / len(v) > 3 * degs[key]
    }
    worst = max((sum(v) / len(v)) / degs[k] for k, v in totals.items())
    ok = announce(
        5,
        "mean interconnection visits per vertex <= 3*deg_i per phase",
        not failures,
        f"worst mean/deg ratio {worst:.3f}",
    )
    assert ok, failures


def test_criterion_06_sandwich_property():
    eps = F(1, 4)
    checked = 0
    failures = []
    for seed in (11, 12, 13):
        graph = er_graph(64, 0.15, 1, 32, seed=seed)
        lam = build_laminar(graph, eps)
        apsp = exact_apsp(graph)
        den = graph.n * eps.denominator
        for k in relevant_scales(graph):
            sg = materialize_scale_graph(graph, lam, k, den, to_scaled(eps / graph.n, den))
            view = lam.nodes_at(k)
            index = {c: i for i, c in enumerate(sg.active_centers)}
            rows = {}
            for x in range(graph.n):
                for y in range(x + 1, graph.n):
                    d = apsp[x][y]
                    if d is None or not (2**k < d <= 2 ** (k + 1)):
                        continue
                    checked += 1
                    ix, iy = index[view.label[x]], index[view.label[y]]
                    if ix not in rows:
                        rows[ix] = dijkstra_all(sg.adj, ix)
                    dk = rows[ix][iy]
                    if dk is None:
                        failures.append((seed, k, x, y, "unreachable"))
                        continue
                    dk = F(dk, den)
                    if not (F(d) <= dk <= (1 + 2 * eps) * d):
                        failures.append((seed, k, x, y, float(dk / d)))
    ok = announce(6, "contracted-graph distance sandwich", not failures, f"{checked} band pairs")
    assert ok, failures[:5]


def test_criterion_07_oracle_equivalences():
    bad = []
    for seed in range(10):
        n = 24 + 4 * seed  # 24..60
        graph = er_graph(n, 0.2, 1, 12, seed=seed)
        rel = [(u, v, w, i) for i, (u, v, w) in enumerate(graph.edges)]
        table = hop_limited_bellman_ford(n, rel, range(n), n - 1)
        exact = [dijkstra_all(graph.adj, s) for s in range(n)]
        if any(table.dist[s] != exact[s] for s in range(n)):
            bad.append(("bellman-ford", seed))
        roots = sorted({(seed * 7 + j * 13) % n for j in range(5)})
        total = sum(w for _, _, w in graph.edges)  # no distance exceeds it
        forest = multi_source_bounded_dijkstra(graph.adj, roots, total)
        for v in range(n):
            best = min(
                (exact[r][v], r) for r in roots if exact[r][v] is not None
            ) if any(exact[r][v] is not None for r in roots) else None
            got = (forest.dist.get(v), forest.root.get(v))
            if best is None:
                if got[0] is not None:
                    bad.append(("multi-source-extra", seed, v))
            elif got != best:
                bad.append(("multi-source", seed, v, best, got))
    ok = announce(7, "oracle equivalences (BF@n-1 == Dijkstra; multi == min single)", not bad)
    assert ok, bad[:5]


def test_criterion_08_schedule_calculator():
    s = compute_schedule(1024, 2, F(1, 2), F(1, 10), 1024)
    expected = dict(
        ell=2,
        alpha=F("10.24"),
        delta=(F("10.24"), F("143.36"), F("1638.4")),
        h=(1, 29, 367),
        beta=735,
    )
    got = dict(ell=s.ell, alpha=s.alpha, delta=s.delta, h=s.h, beta=s.beta)
    ok = announce(8, "schedule calculator reference point", got == expected)
    assert ok, got


def test_criterion_09_asp_contract():
    graph = er_graph(200, 0.05, 1, 100, seed=77)
    params = HopsetParams.make(
        kappa=KAPPA, rho=RHO, eps_target="0.3", seed=77, mode="reduced", path_reporting=True
    )
    hopset = build_hopset(graph, params)
    sources = [0, 40, 80, 120, 160]
    result = asp_estimates(graph, hopset, sources)
    apsp = exact_apsp(graph)
    bound = 1 + hopset.effective_eps
    bad = []
    extracted = 0
    for s in sources:
        for v in range(graph.n):
            est, d = result.estimate(s, v), apsp[s][v]
            if d is None:
                if est is not None:
                    bad.append(("phantom", s, v))
                continue
            if not (F(d) <= est <= bound * d):
                bad.append(("stretch", s, v, d, est))
                continue
            if v != s:
                path, w = extract_path(graph, hopset, result, s, v)
                extracted += 1
                if path[0] != s or path[-1] != v or F(w) > est:
                    bad.append(("path", s, v))
    ok = announce(9, "ASP estimates within (1+eps); extracted paths valid", not bad, f"{extracted} paths")
    assert ok, bad[:5]


def test_criterion_10_determinism(contract_runs):
    mismatched = []
    for name, eps, seed, graph, params, hopset in contract_runs[:6]:
        again = build_hopset(graph, params)
        if _dumps(hopset) != _dumps(again):
            mismatched.append((name, eps, seed))
    ok = announce(10, "identical (graph, params, seed) gives byte-identical files", not mismatched)
    assert ok, mismatched


def _dumps(hs):
    buf = io.StringIO()
    dump_hopset(hs, buf)
    return buf.getvalue()
