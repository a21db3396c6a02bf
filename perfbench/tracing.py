"""In-memory span tracer for the benchmark's traced run.

The hopsets package is not instrumented itself: `install` replaces each
public function at the place its caller binds it (for example
``hopsets.single_scale.bounded_dijkstra`` or ``hopsets.cli.build_hopset``)
with a wrapper that records a span and work counts derived from the call's
arguments and return value.  Spans are kept in memory and written out once,
at the end of the run; self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import time

import hopsets.asp
import hopsets.cli
import hopsets.hopset
import hopsets.scale_reduction
import hopsets.single_scale
import hopsets.verify

# Span of the tracer's own counting work; it is reported as overhead, so a
# count that walks a returned structure never inflates its caller's self time.
COUNT_SPAN = "trace.count"


class Tracer:
    """Spans as [name, start, end, parent index, run id] plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.label_views: set[tuple[int, int]] = set()
        self.run_id = 0

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self, args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced binding for the rest of the process."""
        for owner, attr, name, count in _targets():
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def layer_metrics(self) -> dict[str, float]:
        """`<name>_s` (summed self time) and `<name>_calls` per span name, plus counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + (end - start) - child[i]
            out[f"{name}_calls"] = out.get(f"{name}_calls", 0) + 1
        out.update(self.counts)
        scanned = self.counts.get("scale_reduction.edges_scanned", 0)
        useful = self.counts.get("scale_reduction.scale_graph_edges", 0)
        out["scale_reduction.useful_edge_ratio"] = useful / scanned if scanned else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "run": run}
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# Computed counts.  Each takes (tracer, call arguments, return value).


def _count_scale_graph(tr: Tracer, args, sg) -> None:
    graph = args[0]
    tr.add("scale_reduction.edges_scanned", graph.m)
    tr.add("scale_reduction.scale_graph_edges", len(sg.edges))
    tr.add("scale_reduction.active_nodes", sg.active_count)


def _count_nodes_at(tr: Tracer, args, view) -> None:
    laminar, k = args[0], args[1]
    key = (id(laminar), k)
    if key not in tr.label_views:
        tr.label_views.add(key)
        tr.add("scale_reduction.label_cells", laminar.n)


def _count_single_scale(tr: Tracer, args, ss) -> None:
    tr.add("single_scale.edges_emitted", len(ss.edges))
    tr.add("single_scale.interconnect_visits", sum(p.interconnect_visits for p in ss.stats))


def _count_settled(tr: Tracer, args, out) -> None:
    dist = out[0] if isinstance(out, tuple) else out.dist
    tr.add("explore.dijkstra_settled", len(dist))


def _count_bellman_ford(tr: Tracer, args, table) -> None:
    """bf_rounds = min(cap, predecessor-forest depth + 1) per source."""
    n, edges, _, t = args[:4]
    if tr.parent_name() == "verify.verify_stretch":
        tr.add("verify.sources", len(table.sources))
    idx = tr.open(COUNT_SPAN)
    cap = min(t, max(0, n - 1))
    rounds = 0
    for s in table.sources:
        rounds += min(cap, _forest_depth(table.pred[s]) + 1)
    tr.close(idx)
    tr.add("explore.bf_rounds", rounds)
    tr.add("explore.bf_arc_relaxations", rounds * 2 * len(edges))


def _forest_depth(pred) -> int:
    """Longest predecessor chain, in edges; distances strictly decrease along it."""
    depth: list[int | None] = [None] * len(pred)
    best = 0
    for v in range(len(pred)):
        chain = []
        x = v
        while depth[x] is None and pred[x] is not None:
            chain.append(x)
            x = pred[x][0]
        d = depth[x] if depth[x] is not None else 0
        depth[x] = d
        for y in reversed(chain):
            d += 1
            depth[y] = d
        best = max(best, depth[v])
    return best


def _count_witnesses(tr: Tracer, args, hopset) -> None:
    idx = tr.open(COUNT_SPAN)
    total = sum(len(w) for w in hopset.witnesses or ())
    tr.close(idx)
    tr.add("hopset.witness_vertices", total)


def _count_verify(tr: Tracer, args, report) -> None:
    tr.add("verify.pairs_checked", report.pairs_checked)


def _count_rows(tr: Tracer, args, _) -> None:
    graph, _, sources = args[:3]
    tr.add("asp.rows_written", graph.n * len(set(sources)))


def _count_path(tr: Tracer, args, out) -> None:
    tr.add("asp.path_vertices", len(out[0]))


def _targets():
    """(owner, attribute, span name, count) for every traced binding."""
    cli = hopsets.cli
    hs = hopsets.hopset
    ss = hopsets.single_scale
    asp = hopsets.asp
    ver = hopsets.verify
    lam = hopsets.scale_reduction.LaminarFamily
    return [
        (cli, "load_dimacs", "graph.load_dimacs", None),
        (cli, "build_hopset", "hopset.build_hopset", None),
        (cli, "dump_hopset", "hopset.dump_hopset", None),
        (cli, "load_hopset", "hopset.load_hopset", None),
        (cli, "verify_stretch", "verify.verify_stretch", _count_verify),
        (hs, "build_laminar", "scale_reduction.build_laminar", None),
        (hs, "materialize_scale_graph", "scale_reduction.materialize_scale_graph",
         _count_scale_graph),
        (lam, "nodes_at", "scale_reduction.nodes_at", _count_nodes_at),
        (lam, "tree_adjacency_at", "scale_reduction.tree_adjacency_at", None),
        (hs, "build_single_scale", "single_scale.build_single_scale", _count_single_scale),
        (hs, "attach_witness_paths", "hopset.attach_witness_paths", _count_witnesses),
        (ss, "supercluster_phase", "single_scale.supercluster_phase", None),
        (ss, "interconnect_phase", "single_scale.interconnect_phase", None),
        (ss, "bounded_dijkstra", "explore.bounded_dijkstra", _count_settled),
        (ss, "multi_source_bounded_dijkstra", "explore.multi_source_bounded_dijkstra",
         _count_settled),
        (ver, "dijkstra_all", "explore.dijkstra_all", None),
        (ver, "hop_limited_bellman_ford", "explore.hop_limited_bellman_ford",
         _count_bellman_ford),
        (asp, "hop_limited_bellman_ford", "explore.hop_limited_bellman_ford",
         _count_bellman_ford),
        (asp, "write_estimates_csv", "asp.write_estimates_csv", _count_rows),
        (asp, "asp_estimates", "asp.asp_estimates", None),
        (asp, "extract_path", "asp.extract_path", _count_path),
    ]
