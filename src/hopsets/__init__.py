"""Hopsets for weighted undirected graphs.

A (beta, eps)-hopset is an extra edge set H such that, in G union H, every
vertex pair has a path of at most beta edges whose length is within (1+eps)
of the true distance.  This package builds them by superclustering and
interconnection per distance scale, removes the aspect-ratio dependence via
per-scale graph contraction, verifies the contract against exact oracles,
and answers S x V approximate shortest-path queries through the result.
"""

from .asp import AspResult, asp_estimates, extract_path
from .explore import (
    ExplorationForest,
    HopLimitedTable,
    bounded_dijkstra,
    dijkstra_all,
    hop_limited_bellman_ford,
    multi_source_bounded_dijkstra,
)
from .graph import (
    Graph,
    GraphError,
    GraphFormatError,
    dump_dimacs,
    er_graph,
    generate,
    grid_graph,
    load_dimacs,
    path_graph,
    validate,
)
from .hopset import (
    BuildPlan,
    Hopset,
    HopsetEdge,
    HopsetError,
    HopsetFormatError,
    HopsetParams,
    attach_witness_paths,
    build_hopset,
    dump_hopset,
    hopset_from_single_scale,
    load_hopset,
    plan,
    validate_witnesses,
)
from .scale_reduction import (
    LaminarFamily,
    ScaleGraph,
    StarEdge,
    activity_stats,
    build_laminar,
    materialize_scale_graph,
    relevant_scales,
    star_edges,
)
from .single_scale import (
    PhaseSchedule,
    ScalePhases,
    ScheduleError,
    SingleScaleHopset,
    build_single_scale,
    compute_schedule,
    interconnect_phase,
    supercluster_phase,
)
from .verify import VerificationReport, exact_apsp, size_stats, verify_stretch

__version__ = "0.1.0"
