"""Command-line interface: gen, build, verify, query, stats.

Exit codes: 0 success, 2 usage error (argparse), 3 I/O or parse error (with
the line number), 4 parameter rejection or a hopset built for another graph,
5 contract violation.  Every artifact embeds (seed, parameters, input digest)
in its header, so any output can be re-derived exactly.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from contextlib import nullcontext

from . import asp as asp_mod
from .graph import GraphError, dump_dimacs, er_graph, grid_graph, load_dimacs, path_graph
from .hopset import (
    HopsetError,
    HopsetFormatError,
    HopsetParams,
    build_hopset,
    dump_hopset,
    load_hopset,
)
from .util import FormatError, as_fraction
from .verify import check_pair_spec, size_stats, verify_stretch

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PARAM = 4
EXIT_VIOLATION = 5


def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--eps", type=ratio, default="0.3", help="target stretch slack, e.g. 3/10")
    p.add_argument("--kappa", type=int, default=2)
    p.add_argument("--rho", type=ratio, default="0.5", help="sampling degree exponent (e.g. 1/2)")
    p.add_argument("--mode", choices=["reduced", "direct"], default="reduced")
    p.add_argument("--degree-mode", choices=["basic", "refined"], default="basic")
    p.add_argument("--path-reporting", action="store_true")
    p.add_argument("--seed", type=int, default=0)


def _params(args) -> HopsetParams:
    return HopsetParams(
        kappa=args.kappa,
        rho=args.rho,
        eps_target=args.eps,
        seed=args.seed,
        mode=args.mode,
        degree_mode=args.degree_mode,
        path_reporting=args.path_reporting,
    )


def cmd_gen(args) -> int:
    if args.model == "er":
        params = dict(n=args.n, p=args.p, wmin=args.wmin, wmax=args.wmax)
        graph = er_graph(**params, seed=args.seed)
    elif args.model == "path":
        params = dict(n=args.n, base=args.base)
        graph = path_graph(**params)
    else:
        params = dict(rows=args.rows, cols=args.cols, wmin=args.wmin, wmax=args.wmax)
        graph = grid_graph(**params, seed=args.seed)
    header = {"generator": args.model, "seed": args.seed, **params}
    with open(args.out, "w", encoding="ascii") as fh:
        dump_dimacs(graph, fh, comments=header)
    print(f"wrote {args.out}: n={graph.n} m={graph.m} digest={graph.digest()}")
    return EXIT_OK


def cmd_build(args) -> int:
    graph = load_dimacs(args.graph)
    params = _params(args)
    t0 = time.perf_counter()
    hs = build_hopset(graph, params)
    ms = (time.perf_counter() - t0) * 1000
    with open(args.out, "w", encoding="ascii") as fh:
        dump_hopset(hs, fh)
    print(
        f"wrote {args.out}: edges={hs.size} (stars={hs.star_count()}) "
        f"beta={hs.effective_beta} eps={hs.effective_eps} in {ms:.0f} ms"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    graph = load_dimacs(args.graph)
    hs = _load_hopset_for(graph.digest(), args.hopset)
    mode, kw = args.pairs
    report = verify_stretch(graph, hs, pair_mode=mode, **kw)
    payload = report.to_dict()
    payload["provenance"] = hs.provenance
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.report:
        with open(args.report, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    if args.format == "json":
        print(text)
    else:
        print(f"pairs checked   {report.pairs_checked}")
        ms = payload["max_stretch_float"]
        print(f"max stretch     {report.max_stretch} ({ms if ms is None else round(ms, 6)})")
        print(f"allowed         1 + {report.effective_eps} @ beta={report.effective_beta}")
        print(f"hopset edges    {report.hopset_edges} (stars={report.star_edges})")
        print(f"violations      {report.violation_total}")
        for v in report.violations[:10]:
            print(f"  {v}")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _load_hopset_for(digest: str, path: str):
    """Load a hopset file and reject one built for a graph whose digest is not `digest`."""
    hs = load_hopset(path)
    built_for = hs.provenance.get("graph")
    if built_for is not None and built_for != digest:
        raise HopsetError(
            f"hopset {path} was built for graph {built_for}, "
            f"but the loaded graph has digest {digest}"
        )
    return hs


def cmd_query(args) -> int:
    if args.paths and os.path.realpath(args.paths) == os.path.realpath(args.out):
        print(f"usage error: --paths and --out both name {args.out}", file=sys.stderr)
        return EXIT_USAGE
    graph = load_dimacs(args.graph)
    asp_mod.check_sources(graph.n, args.sources)
    digest = graph.digest()
    hs = _load_hopset_for(digest, args.hopset)
    asp_mod.check_hopset(graph, hs)
    header = {"hopset": os.path.basename(args.hopset), "graph_digest": digest}
    header.update({k: hs.provenance[k] for k in ("seed", "eps", "mode") if k in hs.provenance})
    with open(args.out, "w", encoding="ascii") as fh, (
        open(args.paths, "w", encoding="ascii") if args.paths else nullcontext()
    ) as ph:
        asp_mod.write_estimates_csv(graph, hs, args.sources, fh, header=header, paths=ph)
    print(f"wrote {args.out}")
    if args.paths:
        print(f"wrote {args.paths}")
    return EXIT_OK


def cmd_stats(args) -> int:
    hs = load_hopset(args.hopset)
    kappa = hs.provenance.get("kappa", "2")
    if not (kappa.isdecimal() and int(kappa) >= 2):
        with open(args.hopset, encoding="ascii") as fh:  # the one `c kappa` line load_hopset read
            line = next(i for i, raw in enumerate(fh, 1) if raw.split()[:2] == ["c", "kappa"])
        raise HopsetFormatError(f"provenance kappa {kappa!r} is not an integer >= 2", line)
    stats = size_stats(hs, hs.n, int(kappa))
    if args.format == "json":
        print(json.dumps(stats, sort_keys=True, indent=2, default=str))
    else:
        print(f"edges           {stats['total_edges']}")
        print(f"stars           {stats['star_edges']} (bound {stats['star_bound']:.1f})")
        print(f"normalized size {stats['normalized_ratio']:.4f}  (|H| / n^(1+1/k) ln n)")
        print(f"beta            {stats['effective_beta']}")
        for k, c in stats["per_scale"].items():
            print(f"  scale {k:>3}: {c}")
    return EXIT_OK


# argparse `type=` converters: a value they reject (ValueError) exits 2.


def ratio(text: str):
    try:
        return as_fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None


def vertex_ids(text: str) -> list[int]:
    """Comma-separated 1-based ids, 0-based; at least one is required."""
    ids = [int(s) - 1 for s in text.split(",") if s]
    if not ids:
        raise ValueError(text)
    return ids


def pair_spec(spec: str):
    """`all`, `sample[:M[:SEED]]` or `band:K`, and no other field.

    The parsed spec must pass `check_pair_spec`, the rule `verify_stretch`
    applies: one that can select no pair is a usage error too.
    """
    mode, *fields = spec.split(":")
    nums = [int(f) for f in fields]
    if mode == "all" and not nums:
        kw = {}
    elif mode == "band" and len(nums) == 1:
        kw = {"band": nums[0]}
    elif mode == "sample" and len(nums) <= 2:
        kw = dict(zip(("sample_size", "sample_seed"), nums))
    else:
        raise ValueError(spec)
    check_pair_spec(mode, kw.get("sample_size"), kw.get("band"))
    return mode, kw


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hopset", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a graph and write DIMACS .gr")
    g.add_argument("--model", choices=["er", "path", "grid"], required=True)
    g.add_argument("--n", type=int, default=64)
    g.add_argument("--p", type=float, default=0.1)
    g.add_argument("--base", type=float, default=1.0)
    g.add_argument("--rows", type=int, default=8)
    g.add_argument("--cols", type=int, default=8)
    g.add_argument("--wmin", type=int, default=1)
    g.add_argument("--wmax", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen)

    b = sub.add_parser("build", help="build a hopset for a DIMACS graph")
    b.add_argument("--graph", required=True)
    b.add_argument("--out", required=True)
    _add_param_flags(b)
    b.set_defaults(fn=cmd_build)

    v = sub.add_parser("verify", help="verify the hopbound/stretch contract")
    v.add_argument("--graph", required=True)
    v.add_argument("--hopset", required=True)
    v.add_argument("--pairs", type=pair_spec, default="all", help="all | sample:M:SEED | band:K")
    v.add_argument("--report", default=None, help="write the JSON report here")
    v.add_argument("--format", choices=["text", "json"], default="text")
    v.set_defaults(fn=cmd_verify)

    q = sub.add_parser("query", help="S x V estimates (and paths) through a hopset")
    q.add_argument("--graph", required=True)
    q.add_argument("--hopset", required=True)
    q.add_argument(
        "--sources", type=vertex_ids, required=True, help="comma-separated 1-based vertex ids"
    )
    q.add_argument("--out", required=True, help="CSV of estimates")
    q.add_argument("--paths", default=None, help="also write expanded paths here")
    q.set_defaults(fn=cmd_query)

    s = sub.add_parser("stats", help="size accounting for a hopset file")
    s.add_argument("--hopset", required=True)
    s.add_argument("--format", choices=["text", "json"], default="text")
    s.set_defaults(fn=cmd_stats)
    return ap


def main(argv=None) -> int:
    """Run one command; its exit code is the return value.

    The command runs with the cyclic garbage collector paused: a command
    makes few reference cycles, and the young collections its allocations
    trigger cost more than they free.  The caller's collector state comes
    back on every exit.
    """
    ap = build_parser()
    args = ap.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (HopsetError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
