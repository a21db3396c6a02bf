import json
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hopsets
from hopsets import (
    Graph,
    Hopset,
    HopsetError,
    HopsetParams,
    build_hopset,
    er_graph,
    dijkstra_all,
    exact_apsp,
    hop_limited_bellman_ford,
    path_graph,
    size_stats,
    verify_stretch,
)
from hopsets import verify as verify_module
from hopsets.hopset import HopsetEdge
from hopsets.verify import (
    VerificationReport,
    _frac,
    _load_summary,
    _sample_pairs,
)


def run_capped(*argv):
    """`python *argv` with the package importable, in a fresh interpreter whose
    address space is capped at 1 GiB: runaway allocations fail with MemoryError."""
    src = Path(hopsets.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    cap = 1 << 30
    return subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


def empty_hopset(n, beta, eps=F(1, 10)):
    return Hopset(n=n, edges=[], den=1, effective_beta=beta, effective_eps=eps, provenance={})


def rational_hopset(n, rows, beta, eps=F(1, 10), **kw):
    """A hopset of (u, v, rational weight, scale, kind) rows, over their least denominator."""
    den = math.lcm(*(F(w).denominator for _, _, w, _, _ in rows))
    edges = [HopsetEdge(u, v, int(w * den), scale, kind) for u, v, w, scale, kind in rows]
    return Hopset(n=n, edges=edges, den=den, effective_beta=beta, effective_eps=eps,
                  provenance={}, **kw)


def rational_rows(hopset):
    """The (u, v, rational weight, scale, kind) rows of `hopset`'s edges."""
    return [(e.u, e.v, F(e.w, hopset.den), e.scale, e.kind) for e in hopset.edges]


class TestExactApsp:
    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1, 5)])
        assert exact_apsp(g) == [[0, 5], [5, 0]]

    def test_disconnected_pair_is_none(self):
        g = Graph.from_edges(3, [(0, 1, 2)])
        d = exact_apsp(g)
        assert d[0][2] is None and d[2][0] is None

    def test_unit_cycle_six(self):
        edges = [(i, (i + 1) % 6, 1) for i in range(6)]
        g = Graph.from_edges(6, edges)
        d = exact_apsp(g)
        assert max(d[i][j] for i in range(6) for j in range(6)) == 3

    def test_size_guard(self):
        g = path_graph(501, 1)  # one above N_MAX_ALLPAIRS = 500
        with pytest.raises(HopsetError, match="too large"):
            exact_apsp(g)


class TestVerifyStretch:
    def test_complete_unit_graph_empty_hopset(self):
        n = 12
        g = Graph.from_edges(n, [(i, j, 1) for i in range(n) for j in range(i + 1, n)])
        report = verify_stretch(g, empty_hopset(n, beta=1))
        assert report.ok
        assert report.max_stretch == 1
        assert report.pairs_checked == n * (n - 1) // 2

    def test_hop_starved_unit_path(self):
        g = path_graph(100, 1)
        report = verify_stretch(g, empty_hopset(100, beta=10))
        # every pair at distance in (10, 99] lacks a 10-hop path entirely
        expected = sum(100 - d for d in range(11, 100))
        assert report.violation_total == expected
        assert not report.ok
        assert report.violations[0]["d_limited"] is None

    def test_built_hopset_no_violations(self):
        g = er_graph(100, 0.1, 1, 8, seed=5)
        hs = build_hopset(g, HopsetParams(eps_target="0.3", seed=5))
        report = verify_stretch(g, hs, pair_mode="all")
        assert report.ok

    def test_undercut_edge_is_flagged(self):
        # a hopset edge below the true distance breaks the lower bound
        g = path_graph(6, 1)
        bogus = Hopset(
            n=6,
            edges=[HopsetEdge(0, 5, 2, 2, "interconnect")],
            den=1,
            effective_beta=10,
            effective_eps=F(1, 2),
            provenance={},
        )
        report = verify_stretch(g, bogus)
        assert not report.ok
        assert any(v["u"] == 0 and v["v"] == 5 for v in report.violations)

    def test_band_mode_filters_pairs(self):
        g = path_graph(20, 1)
        report = verify_stretch(g, empty_hopset(20, beta=30), pair_mode="band", band=2)
        expected = sum(20 - d for d in range(5, 9))  # d in (4, 8]
        assert report.pairs_checked == expected

    def test_all_mode_ignores_band_and_says_all(self):
        g = path_graph(20, 1)
        report = verify_stretch(g, empty_hopset(20, beta=30), pair_mode="all", band=3)
        assert report.pair_mode == "all"
        assert report.pairs_checked == 20 * 19 // 2

    def test_band_union_covers_all_pairs_beyond_one(self):
        g = er_graph(30, 0.2, 1, 9, seed=3)
        hs = empty_hopset(30, beta=29)
        total = sum(
            verify_stretch(g, hs, pair_mode="band", band=k).pairs_checked
            for k in range(0, 12)
        )
        apsp = exact_apsp(g)
        expected = sum(
            1
            for u in range(30)
            for v in range(u + 1, 30)
            if apsp[u][v] is not None and apsp[u][v] > 1
        )
        assert total == expected

    def test_sample_mode_deterministic_and_finite(self):
        g = Graph.from_edges(7, [(0, 1, 2), (1, 2, 3), (3, 4, 1), (4, 5, 9)])
        hs = empty_hopset(7, beta=6)
        a = verify_stretch(g, hs, pair_mode="sample", sample_size=50, sample_seed=3)
        b = verify_stretch(g, hs, pair_mode="sample", sample_size=50, sample_seed=3)
        da, db = a.to_dict(), b.to_dict()
        da.pop("wall_time"), db.pop("wall_time")
        assert da == db
        assert a.pairs_checked == 50  # vertex 6 isolated, never drawn

    @pytest.mark.parametrize("beta", [5, 10**8])
    def test_all_and_band_modes_run_above_the_oracle_cap(self, beta):
        g = path_graph(501, 1)  # one above exact_apsp's N_MAX_ALLPAIRS = 500
        hs = empty_hopset(501, beta=beta)
        for mode, kw in (("all", {}), ("band", {"band": 3})):
            report = verify_stretch(g, hs, pair_mode=mode, **kw).to_dict()
            del report["wall_time"]
            assert report == reference_verify(g, hs, pair_mode=mode, **kw)

    @pytest.mark.parametrize("beta", [5, 10**8])
    def test_band_above_every_distance_selects_no_pair(self, beta):
        g = path_graph(40, 2)  # weights 2**i: total weight 2**39 - 1, 39 bits
        hs = empty_hopset(40, beta=beta)
        for band, checked in ((38, 38), (39, 0)):  # (2**38, 2**39] holds 38 pairs
            report = verify_stretch(g, hs, pair_mode="band", band=band).to_dict()
            del report["wall_time"]
            assert report == reference_verify(g, hs, pair_mode="band", band=band)
            assert report["pairs_checked"] == checked
        # 2**(10**12) would take about 125 GB; under a 1 GiB cap, building it fails
        code = (
            "from fractions import Fraction\n"
            "from hopsets import Hopset, path_graph, verify_stretch\n"
            f"hs = Hopset(40, [], 1, {beta}, Fraction(1, 10), {{}})\n"
            "r = verify_stretch(path_graph(40, 2), hs, pair_mode='band', band=10**12)\n"
            "print(r.pair_mode, r.pairs_checked, r.max_stretch, r.ok)\n"
        )
        done = run_capped("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [f"band({10**12})", "0", "None", "True"]

    @pytest.mark.parametrize(
        "kw,match",
        [
            ({"pair_mode": "sample", "sample_size": 0}, "selects no pair"),
            ({"pair_mode": "sample", "sample_size": -5}, "selects no pair"),
            ({"pair_mode": "band", "band": -3}, "k >= -1"),
            ({"pair_mode": "band"}, "k >= -1"),
        ],
    )
    def test_spec_that_selects_no_pair_is_rejected(self, kw, match):
        g = path_graph(8, 2)
        with pytest.raises(HopsetError, match=match):
            verify_stretch(g, empty_hopset(8, beta=7), **kw)

    @pytest.mark.parametrize(
        "kw", [{"pair_mode": "sample", "sample_size": 1}, {"pair_mode": "band", "band": -1}]
    )
    def test_smallest_selecting_spec_is_accepted(self, kw):
        g = path_graph(8, 2)
        assert verify_stretch(g, empty_hopset(8, beta=7), **kw).ok

    def test_n_mismatch(self):
        g = path_graph(5, 1)
        with pytest.raises(HopsetError, match="n="):
            verify_stretch(g, empty_hopset(6, beta=5))

    def test_verification_is_read_only(self):
        g = er_graph(40, 0.2, 1, 7, seed=2)
        hs = build_hopset(g, HopsetParams(eps_target="0.3", seed=1))
        digest = g.digest()
        edges_before = [(e.u, e.v, e.w) for e in hs.edges]
        den = hs.den
        verify_stretch(g, hs, pair_mode="all")
        assert g.digest() == digest
        assert [(e.u, e.v, e.w) for e in hs.edges] == edges_before and hs.den == den

class TestReport:
    def test_json_stable_key_order(self):
        g = path_graph(5, 1)
        report = verify_stretch(g, empty_hopset(5, beta=4))
        # to_dict holds only JSON values: exact rationals come out as "num/den"
        parsed = json.loads(json.dumps(report.to_dict(), sort_keys=True, indent=2))
        assert list(parsed) == sorted(parsed)
        assert (parsed["effective_eps"], parsed["max_stretch"]) == ("1/10", "1/1")

    def test_max_stretch_at_least_one(self):
        g = er_graph(25, 0.3, 1, 5, seed=6)
        report = verify_stretch(g, empty_hopset(25, beta=24))
        assert report.pairs_checked > 0
        assert report.max_stretch >= 1


class TestSizeStats:
    def test_empty(self):
        stats = size_stats(empty_hopset(16, beta=3), 16, 2)
        assert stats["total_edges"] == 0
        assert stats["per_scale"] == {}
        assert stats["normalized_ratio"] == 0

    def test_per_scale_counts(self):
        edges = [HopsetEdge(0, 1, 3, 4, "interconnect") for _ in range(3)]
        hs = Hopset(n=8, edges=edges, den=1, effective_beta=9, effective_eps=F(1, 5), provenance={})
        stats = size_stats(hs, 8, 2)
        assert stats["per_scale"] == {4: 3}

    def test_star_bound_reported(self):
        g = er_graph(64, 0.1, 1, 8, seed=1)
        hs = build_hopset(g, HopsetParams(eps_target="0.3", seed=1))
        stats = size_stats(hs, 64, 2)
        assert stats["star_within_bound"]
        assert stats["star_edges"] <= 64 * 6


def union_adjacency(graph, hopset):
    """Reference: G u H as (neighbor, weight, tag) lists, with the former ("g", i) /
    ("h", i) tags and weights over the hopset's den."""
    adj = [[] for _ in range(graph.n)]
    edges = [(u, v, w * hopset.den, ("g", i)) for i, (u, v, w) in enumerate(graph.edges)]
    edges += [(e.u, e.v, e.w, ("h", i)) for i, e in enumerate(hopset.edges)]
    for u, v, w, tag in edges:
        adj[u].append((v, w, tag))
        adj[v].append((u, w, tag))
    return adj


def reference_verify(graph, hopset, pair_mode="all", sample_size=1000, sample_seed=0, band=None):
    """Reference: the former stretch check, a full hop-limited Bellman-Ford table for all
    sources plus a full oracle sweep per source, each stretch a `Fraction`.  Report dict
    without wall_time."""
    den = hopset.den
    eps = hopset.effective_eps
    beta = hopset.effective_beta
    n = graph.n

    if pair_mode in ("all", "band"):
        wanted = {s: None for s in range(n)}
        mode_desc = "all" if pair_mode == "all" else f"band({band})"
    else:
        pairs = _sample_pairs(graph, sample_size, sample_seed)
        wanted = {}
        for s, v in pairs:
            wanted.setdefault(s, []).append(v)
        mode_desc = f"sample({sample_size},{sample_seed})"

    lo = hi = None
    if pair_mode == "band":
        lo, hi = 2**band, 2 ** (band + 1)

    pairs_checked = 0
    max_stretch = None
    violations = []
    total_violations = 0
    sources = sorted(wanted)
    limited = hop_limited_bellman_ford(union_adjacency(graph, hopset), sources, beta).dist
    for s in sources:
        d_true = dijkstra_all(graph.adj, s)
        lim = limited[s]
        targets = wanted[s] if wanted[s] is not None else range(s + 1, n)
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
                stretch = F(dl, dg * den)
                if max_stretch is None or stretch > max_stretch:
                    max_stretch = stretch
            if dl is None or dl < dg * den or dl * eps.denominator > dg * den * (
                eps.numerator + eps.denominator
            ):
                total_violations += 1
                if len(violations) < 100:
                    violations.append(
                        {
                            "u": s,
                            "v": v,
                            "d_true": dg,
                            "d_limited": _frac(F(dl, den)) if dl is not None else None,
                            "stretch": _frac(stretch),
                        }
                    )
    load = None
    if hopset.build_stats:
        load = _load_summary(hopset.build_stats, n)
    report = VerificationReport(
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
    ).to_dict()
    del report["wall_time"]
    return report


# hopset weights as multiples of the true distance: undercutting, exact, overlong
FACTORS = [F(1, 2), F(9, 10), F(1), F(11, 10), F(13, 10), F(3, 2), F(3)]


@st.composite
def verify_cases(draw):
    """A random graph (up to three components), a hopset mixing undercutting and
    overlong edges, a hop budget on either side of n - 1 and a pair spec."""
    n = draw(st.integers(2, 24))
    comp = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    wmax = draw(st.sampled_from([1, 20, 10**9]))
    weight = st.integers(1, wmax)
    raw = []
    for c in set(comp):  # a spanning path per component, so n - 1 hops can be needed
        order = draw(st.permutations([v for v in range(n) if comp[v] == c]))
        raw += [(u, v, draw(weight)) for u, v in zip(order, order[1:])]
    vertex = st.integers(0, n - 1)
    raw += draw(st.lists(st.tuples(vertex, vertex, weight), max_size=2 * n))
    g = Graph.from_edges(n, [(u, v, w) for u, v, w in raw if u != v and comp[u] == comp[v]])
    rows = []
    for _ in range(draw(st.integers(0, n))):
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        d = dijkstra_all(g.adj, u)[v]
        if d is None:  # across components: any positive weight
            weight = F(draw(st.integers(1, 50)), draw(st.integers(1, 4)))
        else:
            weight = d * draw(st.sampled_from(FACTORS))
        rows.append((u, v, weight, draw(st.integers(0, 5)), "interconnect"))
    beta = draw(st.sampled_from([0, 1, 2, max(0, n - 2), n - 1, n, 10**8]))
    eps = draw(st.sampled_from([F(0), F(1, 10), F(3, 10), F(1)]))
    hopset = rational_hopset(n, rows, beta, eps)
    mode = draw(st.sampled_from(["all", "band", "sample"]))
    kw = {}
    if mode == "band":
        kw["band"] = draw(st.integers(-1, 32))
    elif mode == "sample":
        kw = {"sample_size": draw(st.integers(1, 40)), "sample_seed": draw(st.integers(0, 99))}
    return g, hopset, mode, kw


def many_violations(beta):
    """A unit path(20) with a hopset edge over each of its 171 pairs two or more
    apart, undercutting (9/10 of the distance d) or overlong (d + 1/(v + 1)), and
    eps = 0: 171 violations at beta = 1 and 159 at beta >= n - 1, more than the
    MAX_LISTED_VIOLATIONS = 100 a report lists."""
    n = 20
    g = Graph.from_edges(n, [(i, i + 1, 1) for i in range(n - 1)])
    rows = [
        (u, v, (v - u) * F(9, 10) if (u + v) % 3 == 0 else v - u + F(1, v + 1), 0, "interconnect")
        for u in range(n)
        for v in range(u + 2, n)
    ]
    return g, rational_hopset(n, rows, beta, F(0)), "all", {}


@given(verify_cases())
@example(many_violations(1))  # Bellman-Ford rows: each pair takes its own hopset edge
@example(many_violations(10**8))  # keyed union sweeps
@settings(deadline=None, max_examples=200)
def test_matches_full_table_reference(case):
    # beta >= n - 1 takes the early-exit Dijkstras, smaller beta the Bellman-Ford table
    g, hopset, mode, kw = case
    report = verify_stretch(g, hopset, pair_mode=mode, **kw).to_dict()
    del report["wall_time"]
    assert report == reference_verify(g, hopset, pair_mode=mode, **kw)


@pytest.mark.parametrize("mode,kw", [("all", {}), ("band", {"band": 3}),
                                     ("sample", {"sample_size": 80, "sample_seed": 2})])
@pytest.mark.parametrize("seed", [1, 2])
def test_built_hopset_matches_full_table_reference(mode, kw, seed):
    g = er_graph(60, 0.08, 1, 12, seed=seed)
    hs = build_hopset(g, HopsetParams(eps_target="0.3", seed=seed, mode="direct"))
    for beta in (hs.effective_beta, 2):  # as built, and far below n - 1
        hs = hs._replace(effective_beta=beta)
        report = verify_stretch(g, hs, pair_mode=mode, **kw).to_dict()
        del report["wall_time"]
        assert report == reference_verify(g, hs, pair_mode=mode, **kw)


@pytest.fixture
def sweeps(monkeypatch):
    """Record (search, adjacency, source) of every `dijkstra_all` ("sweep") and
    `pair_distance` ("pair") call verify makes."""
    calls = []

    def record(kind, real):
        def counted(adj, source, *rest, **kw):
            calls.append((kind, adj, source))
            return real(adj, source, *rest, **kw)

        monkeypatch.setattr(verify_module, real.__name__, counted)

    record("sweep", verify_module.dijkstra_all)
    record("pair", verify_module.pair_distance)
    return calls


def checked_report(g, hopset, mode="all", **kw):
    report = verify_stretch(g, hopset, pair_mode=mode, **kw).to_dict()
    del report["wall_time"]
    assert report == reference_verify(g, hopset, pair_mode=mode, **kw)
    return report


def targets_by_source(pairs):
    wanted = {}
    for s, v in pairs:
        wanted.setdefault(s, []).append(v)
    return wanted


@pytest.mark.parametrize("build_mode,eps", [("reduced", "0.3"), ("direct", "1")])
def test_one_union_sweep_per_source(sweeps, build_mode, eps):
    # three isolated vertices: targets the union search leaves without a key
    g = Graph.from_edges(63, er_graph(60, 0.15, 1, 1000, seed=2).edges)
    hs = build_hopset(g, HopsetParams(eps_target=eps, seed=2, mode=build_mode))
    assert hs.size > 0 and hs.effective_beta >= g.n - 1
    sample = {"sample_size": 80, "sample_seed": 3}
    for mode, kw, wanted in (
        ("all", {}, {s: range(s + 1, g.n) for s in range(g.n)}),
        ("sample", sample, targets_by_source(_sample_pairs(g, 80, 3))),
    ):
        sweeps.clear()
        assert checked_report(g, hs, mode, **kw)["violation_count"] == 0
        # a source with at most two targets takes one pair search per target,
        # any other one union sweep
        expected = []
        for s in sorted(wanted):
            n_targets = len(wanted[s])
            expected += [("pair", s)] * n_targets if n_targets <= 2 else [("sweep", s)]
        assert [(kind, s) for kind, _, s in sweeps] == expected
        assert all(adj is not g.adj for _, adj, _ in sweeps)
        # both kinds, and a source that takes two pair searches
        assert {kind for kind, _ in expected} == {"pair", "sweep"}
        assert any(len(wanted[s]) == 2 for s in wanted)

    # one hopset edge at half its true distance: an undercut the oracle must price
    rows = rational_rows(hs)
    u, v, _, scale, kind = rows[0]
    rows[0] = (u, v, dijkstra_all(g.adj, u)[v] * F(1, 2), scale, kind)
    hs = rational_hopset(g.n, rows, hs.effective_beta, hs.effective_eps, build_stats=hs.build_stats)
    sweeps.clear()
    report = checked_report(g, hs)
    assert report["violation_count"] > 0
    assert any(adj is g.adj for _, adj, _ in sweeps)


def test_sampled_undercut_reaches_the_oracle(sweeps):
    # a pair search that takes an undercutting hopset edge still goes to the G oracle
    g = er_graph(60, 0.15, 1, 1000, seed=2)
    hs = build_hopset(g, HopsetParams(eps_target="0.3", seed=2))
    wanted = targets_by_source(_sample_pairs(g, 80, 3))
    s, (t,) = next((s, vs) for s, vs in sorted(wanted.items()) if len(vs) == 1)
    half = dijkstra_all(g.adj, s)[t] * F(1, 2)
    rows = rational_rows(hs) + [(min(s, t), max(s, t), half, 0, "interconnect")]
    hs = rational_hopset(g.n, rows, hs.effective_beta, hs.effective_eps, build_stats=hs.build_stats)
    sweeps.clear()
    report = checked_report(g, hs, "sample", sample_size=80, sample_seed=3)
    assert report["violation_count"] > 0
    assert any((v["u"], v["v"]) == (s, t) for v in report["violations"])
    assert ("pair", s) in [(kind, u) for kind, adj, u in sweeps if adj is not g.adj]
    assert ("sweep", s) in [(kind, u) for kind, adj, u in sweeps if adj is g.adj]


@given(verify_cases(), st.sampled_from([-1, 0, 3, 20]))
@settings(deadline=None, max_examples=100)
def test_band_stop_matches_full_table_reference(case, band):
    # band mode stops each union sweep once keys pass the band's top
    g, hopset, _, _ = case
    checked_report(g, hopset, "band", band=band)


def test_hopset_edge_count_carries_no_digit():
    # a hopset twin under every path edge: the shortest 0 -> n-1 union path takes
    # all n - 1 twins, the largest count a key must hold below its distance digit
    n = 9
    g = path_graph(n, 3)  # odd weights 3**i, so the halved twins need den = 2
    hs = rational_hopset(n, [(u, v, F(w, 2), 0, "interconnect") for u, v, w in g.edges], n - 1)
    report = checked_report(g, hs)
    assert report["violation_count"] == n * (n - 1) // 2
    far = next(v for v in report["violations"] if (v["u"], v["v"]) == (0, n - 1))
    assert far["d_limited"] == _frac(F(3**(n - 1) - 1, 4))  # sum of 3**i / 2, exact


def test_hopset_twin_at_graph_weight_is_a_tie(sweeps):
    n = 9
    g = path_graph(n, 3)
    twins = [HopsetEdge(u, v, w, 0, "interconnect") for u, v, w in g.edges]
    hs = Hopset(n=n, edges=twins, den=1, effective_beta=n - 1, effective_eps=F(0), provenance={})
    report = checked_report(g, hs)
    assert (report["violation_count"], report["max_stretch"]) == (0, "1/1")
    # no oracle sweep; source s has n - 1 - s targets, so one union search each
    # but for the last three sources, which take 2, 1 and 0 pair searches
    searches = sum(k if k <= 2 else 1 for k in range(n))
    assert len(sweeps) == searches and all(adj is not g.adj for _, adj, _ in sweeps)


@pytest.mark.parametrize("beta", [10, 1])
def test_negative_hopset_weight_is_rejected(beta):
    # both the keyed union graph (beta >= n - 1) and the Bellman-Ford rows refuse it
    g = path_graph(4, 1)
    hs = rational_hopset(4, [(0, 3, F(-1, 2), 0, "star")], beta)
    with pytest.raises(ValueError, match=r"hopset edge 0 \(1, 4\) has negative weight -1/2$"):
        verify_stretch(g, hs)


@pytest.mark.parametrize("beta", [10, 1])
def test_negative_hopset_weight_is_rejected_when_no_pair_is_selected(beta):
    # band 10 lies above the total weight 3, so no pair is selected: the hopset is still checked
    g = path_graph(4, 1)
    hs = rational_hopset(4, [(0, 3, -1, 0, "star")], beta)
    with pytest.raises(HopsetError, match=r"hopset edge 0 \(1, 4\) has negative weight -1$"):
        verify_stretch(g, hs, pair_mode="band", band=10)


@pytest.mark.parametrize("beta", [10, 1])
@pytest.mark.parametrize("u,v,named", [(-1, 1, r"\(0, 2\)"), (0, 4, r"\(1, 5\)")])
def test_hopset_edge_off_the_vertex_set_is_rejected(beta, u, v, named):
    # (-1, 1) must not be read as (3, 1), nor (0, 4) end in an IndexError
    g = Graph.from_edges(4, [(0, 1, 5), (1, 2, 5), (2, 3, 5)])
    hs = rational_hopset(4, [(u, v, 1, 0, "star")], beta)
    with pytest.raises(HopsetError, match=rf"hopset edge 0 {named} leaves vertices 1..4"):
        verify_stretch(g, hs)
