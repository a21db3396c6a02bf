"""Parameter and result records are NamedTuples, `Hopset` and `HopsetEdge` included.

Field order, defaults and repr are the ones these records had as
dataclasses.  Callers read records by name, and a few by position: an
exploration's first field is its distance map.  A record is copied with
other fields by `_replace`, never changed in place.
"""

import hashlib
from fractions import Fraction as F

import pytest

from hopsets import (
    AspResult,
    BuildPlan,
    ExplorationForest,
    HopLimitedTable,
    Hopset,
    HopsetEdge,
    HopsetParams,
    PhaseSchedule,
    ScaleGraph,
    ScalePhases,
    SingleScaleHopset,
    VerificationReport,
    build_hopset,
    path_graph,
    plan,
)
from hopsets.scale_reduction import MergeEvent, NodesView
from hopsets.single_scale import PhaseStats, ScaleEdge

FIELDS = {
    ExplorationForest: ("dist", "root", "parent"),
    HopsetEdge: ("u", "v", "w", "scale", "kind"),
    Hopset: (
        "n", "edges", "den", "effective_beta", "effective_eps", "provenance", "witnesses",
        "build_stats",
    ),
    HopLimitedTable: ("t", "sources", "dist", "pred"),
    AspResult: ("source", "den", "dist", "pred", "order"),
    BuildPlan: (
        "ell", "eps_int", "eps_reduction", "beta_single", "effective_beta", "effective_eps",
        "den", "schedule", "depth", "half", "pad",
    ),
    MergeEvent: (
        "scale", "survivor_center", "absorbed_center", "members_absorbed", "size_after", "edge"
    ),
    NodesView: ("label", "sizes"),
    ScaleGraph: ("n", "active_centers", "adj", "best", "graph_edges"),
    PhaseSchedule: (
        "n", "kappa", "rho", "eps", "Rhat", "degree_mode", "i0", "i1", "ell", "alpha", "delta",
        "radius", "deg", "h", "beta",
    ),
    ScalePhases: ("deg", "depth", "half"),
    ScaleEdge: ("u", "v", "w", "kind", "path"),
    PhaseStats: (
        "index", "clusters_in", "sampled", "unclustered", "star_edges", "interconnect_edges",
        "interconnect_visits",
    ),
    SingleScaleHopset: ("edges", "stats", "partitions"),
    VerificationReport: (
        "n", "pair_mode", "effective_beta", "effective_eps", "pairs_checked", "max_stretch",
        "violations", "per_scale_sizes", "star_edges", "hopset_edges", "violation_total",
        "exploration_load", "wall_time",
    ),
}
DEFAULTS = {
    Hopset: {"witnesses": None, "build_stats": None},
    VerificationReport: {"violation_total": 0, "exploration_load": None, "wall_time": 0.0},
}


@pytest.mark.parametrize("record", FIELDS, ids=lambda c: c.__name__)
def test_named_tuple_fields_in_order(record):
    assert issubclass(record, tuple)
    assert record._fields == FIELDS[record]
    assert record._field_defaults == DEFAULTS.get(record, {})


@pytest.mark.parametrize("record", FIELDS, ids=lambda c: c.__name__)
def test_built_by_position_or_by_keyword(record):
    names = FIELDS[record]
    values = [f"value of {name}" for name in names]
    by_position = record(*values)
    assert by_position == record(**dict(zip(names, values)))
    assert [getattr(by_position, name) for name in names] == values
    assert list(by_position._asdict()) == list(names)


def test_defaults_of_a_report():
    report = VerificationReport(*range(10))
    assert (report.violation_total, report.exploration_load, report.wall_time) == (0, None, 0.0)
    assert report.ok


def test_phase_stats_index_is_a_field():
    assert PhaseStats(*range(3, 10)).index == 3


class TestHopsetParams:
    def test_defaults(self):
        p = HopsetParams()
        assert p == HopsetParams(2, F(1, 2), F(3, 10), 0, "reduced", "basic", False)
        assert p._fields == (
            "kappa", "rho", "eps_target", "seed", "mode", "degree_mode", "path_reporting"
        )

    @pytest.mark.parametrize("rho,eps", [(0.5, 0.3), ("1/2", "3/10"), ("0.5", F(3, 10))])
    def test_rho_and_eps_read_as_fractions(self, rho, eps):
        for p in (HopsetParams(2, rho, eps), HopsetParams(rho=rho, eps_target=eps)):
            assert (p.rho, p.eps_target) == (F(1, 2), F(3, 10))
            assert type(p.rho) is F and type(p.eps_target) is F

    def test_replace_converts_too(self):
        p = HopsetParams(mode="direct")._replace(eps_target="0.25", seed=4)
        assert type(p) is HopsetParams and p.eps_target == F(1, 4) and type(p.eps_target) is F
        assert (p.mode, p.seed) == ("direct", 4)
        assert p == HopsetParams(mode="direct", eps_target=F(1, 4), seed=4)

    def test_hashable_as_before(self):
        assert hash(HopsetParams(rho=0.5)) == hash(HopsetParams())


def a_hopset():
    return Hopset(
        4,
        [HopsetEdge(0, 2, 6, 1, "star"), HopsetEdge(1, 3, 9, 2, "interconnect")],
        3,
        7,
        F(1, 10),
        {"mode": "direct"},
        [(0, 1, 2), (1, 2, 3)],
        {"scales": {}},
    )


class TestHopsetRecords:
    @pytest.mark.parametrize("field", HopsetEdge._fields)
    def test_edge_equality_covers_every_field(self, field):
        e = HopsetEdge(0, 2, 6, 1, "star")
        assert e == HopsetEdge(0, 2, 6, 1, "star")
        assert e != e._replace(**{field: "changed"})

    @pytest.mark.parametrize("field", Hopset._fields)
    def test_hopset_equality_covers_every_field(self, field):
        hs = a_hopset()
        assert hs == a_hopset()
        assert hs != hs._replace(**{field: "changed"})

    def test_a_replaced_edge_breaks_equality(self):
        hs, other = a_hopset(), a_hopset()
        other.edges[1] = other.edges[1]._replace(w=12)
        assert hs != other

    def test_edge_equals_its_tuple_and_is_hashable(self):
        e = HopsetEdge(0, 2, 6, 1, "star")
        assert e == (0, 2, 6, 1, "star")
        assert hash(e) == hash((0, 2, 6, 1, "star")) and len({e, HopsetEdge(*e)}) == 1
        with pytest.raises(TypeError):
            hash(a_hopset())  # its edges are a list

    def test_repr_names_every_field(self):
        assert repr(HopsetEdge(0, 2, 6, 1, "star")) == (
            "HopsetEdge(u=0, v=2, w=6, scale=1, kind='star')"
        )
        assert repr(Hopset(2, [], 1, 3, F(1, 10), {})) == (
            "Hopset(n=2, edges=[], den=1, effective_beta=3, effective_eps=Fraction(1, 10), "
            "provenance={}, witnesses=None, build_stats=None)"
        )

    def test_no_assignment(self):
        e, hs = HopsetEdge(0, 2, 6, 1, "star"), a_hopset()
        for record, attr in ((e, "w"), (e, "weight"), (hs, "witnesses"), (hs, "effective_beta")):
            with pytest.raises(AttributeError):
                setattr(record, attr, 6)


class TestReplace:
    def test_schedule(self):
        s = plan(HopsetParams(), 100).schedule
        t = s._replace(n=7, eps=s.eps * 2)
        assert type(t) is PhaseSchedule and (t.n, t.eps) == (7, s.eps * 2)
        assert t.zeta == 2 * s.zeta
        assert t._replace(n=s.n, eps=s.eps) == s

    def test_scale_phases(self):
        phases = plan(HopsetParams(), 100).phases_for(3, 50)
        idle = phases._replace(deg=(float("inf"),) * len(phases.deg))
        assert type(idle) is ScalePhases and (idle.depth, idle.half) == (phases.depth, phases.half)
        assert idle.sample_probability(0) == 0.0


# path(34, 2), reduced, eps 3/10, seed 1: a build whose non-trivial scales are 23..37
BUILD_STATS_SHA256 = "195524abc185a26ebfe6486175ee63c2a90ad7e084db95d862d465f60184f138"


def test_build_stats_as_before():
    stats = build_hopset(path_graph(34, 2), HopsetParams(eps_target="0.3", seed=1)).build_stats
    assert list(stats["scales"]) == list(range(23, 38))
    assert stats["scales"][29] == {
        "edges": 3,
        "phases": [
            {"index": 0, "clusters_in": 13, "sampled": 5, "unclustered": 8, "star_edges": 0,
             "interconnect_edges": 0, "interconnect_visits": 8},
            {"index": 1, "clusters_in": 5, "sampled": 3, "unclustered": 2, "star_edges": 0,
             "interconnect_edges": 0, "interconnect_visits": 2},
            {"index": 2, "clusters_in": 3, "sampled": 0, "unclustered": 3, "star_edges": 0,
             "interconnect_edges": 3, "interconnect_visits": 30},
        ],
    }
    for scale in stats["scales"].values():
        assert list(scale) == ["edges", "phases"]
        for phase in scale["phases"]:
            assert type(phase) is dict and tuple(phase) == PhaseStats._fields
    # the whole dict, keys and their order included, as the dataclass build wrote it
    assert hashlib.sha256(repr(stats).encode()).hexdigest() == BUILD_STATS_SHA256
