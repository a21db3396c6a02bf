"""One benchmark repetition in a fresh interpreter.

Usage: python3 perfbench/worker.py PLAN.json

The plan (written by run.py) names the package source directory, the `gen`
command that makes the input graph, and the CLI commands to time.  Set-up
(interpreter start, package import, graph generation and DIMACS write) ends
when `gen` returns; the worker reports that instant on the monotonic clock,
which the parent compares with the instant it started the process.  Every
command runs in-process through ``hopsets.cli.main(argv)``.  The last line of
standard output is one JSON object with the set-up instant, each command's
exit code and wall time, the process's peak RSS and, in a traced run, the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def run_cli(cli_main, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli_main(argv)
        except Exception as exc:  # a traceback is a failed op, not a dead rep
            print(f"{argv[0]}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return -1


def main() -> int:
    with open(sys.argv[1], "r", encoding="ascii") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from hopsets.cli import main as cli_main

    gen_rc = run_cli(cli_main, plan["gen"])
    setup_done = time.monotonic()
    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ops = []
    if gen_rc == 0:
        for run_id, (name, argv) in enumerate(plan["ops"]):
            if tracer is not None:
                tracer.run_id = run_id
                span = tracer.open(f"cli.{name}")
            t0 = time.perf_counter()
            rc = run_cli(cli_main, argv)
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
            ops.append({"name": name, "rc": rc, "seconds": seconds})
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if tracer is not None:
        layers = tracer.layer_metrics()
        tracer.dump(plan["spans_out"])
    print(
        json.dumps(
            {
                "gen_rc": gen_rc,
                "setup_done": setup_done,
                "ops": ops,
                "rss_kb": rss_kb,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
