"""Command-line entry points.

    solve <graph>                                  sequential exact solve
    oracle <graph>                                 brute-force check (small n)
    gen --n N --p P --seed S --out PATH            write a random DIMACS file
    init --graph PATH --queue DIR [--split-factor F]
    work --graph PATH --queue DIR --id ID [--seed S]
    collect --queue DIR
    requeue --queue DIR --grace-seconds S
    report --queue DIR --out DIR [--baseline-wall-ms MS]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import jobqueue, report as report_mod, worker as worker_mod
from .core import mc
from .distkernel import DEFAULT_SPLIT_FACTOR
from .graph import (
    GraphError,
    brute_force_omega,
    generate_gnp,
    load_dimacs,
    to_dimacs,
)
from .jobqueue import QueueError
from .report import ReportError

# deep enough for any clique a dense 10k-vertex instance could produce
RECURSION_LIMIT = 100_000


def main(argv: list[str] | None = None) -> int:
    sys.setrecursionlimit(RECURSION_LIMIT)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, QueueError, ReportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquefarm",
        description="Exact maximum clique, sequential or as a worker farm.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="sequential exact maximum clique")
    p.add_argument("graph", type=Path)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="brute-force maximum clique (small graphs)")
    p.add_argument("graph", type=Path)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate a G(n,p) instance as DIMACS")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("init", help="create a job queue for a graph")
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--queue", type=Path, required=True)
    p.add_argument("--split-factor", type=int, default=DEFAULT_SPLIT_FACTOR)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("work", help="run a worker until the queue drains")
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--queue", type=Path, required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_work)

    p = sub.add_parser("collect", help="summarise the results directory")
    p.add_argument("--queue", type=Path, required=True)
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("requeue", help="requeue jobs stuck in running/")
    p.add_argument("--queue", type=Path, required=True)
    p.add_argument("--grace-seconds", type=int, required=True)
    p.set_defaults(func=cmd_requeue)

    p = sub.add_parser("report", help="emit busy/workers/tail CSV reports")
    p.add_argument("--queue", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--baseline-wall-ms", type=int, default=None)
    p.set_defaults(func=cmd_report)
    return parser


def cmd_solve(args) -> int:
    g = load_dimacs(args.graph)
    t0 = time.monotonic()
    clique, ctx = mc(g)
    wall_ms = int((time.monotonic() - t0) * 1000)
    print(f"omega={len(clique)}")
    print("clique=" + " ".join(str(v + 1) for v in clique))
    print(f"nodes={ctx.nodes}")
    print(f"wall_ms={wall_ms}")
    return 0


def cmd_oracle(args) -> int:
    g = load_dimacs(args.graph)
    size, witness = brute_force_omega(g)
    print(f"omega={size}")
    print("clique=" + " ".join(str(v + 1) for v in witness))
    return 0


def cmd_gen(args) -> int:
    g = generate_gnp(args.n, args.p, args.seed)
    text = to_dimacs(g, comment=f"G(n={args.n}, p={args.p}, seed={args.seed})")
    args.out.write_text(text, encoding="ascii")
    print(f"wrote {args.out} (n={g.n}, m={g.edge_count()})")
    return 0


def cmd_init(args) -> int:
    g = load_dimacs(args.graph)
    layout = jobqueue.init_queue(
        args.queue,
        graph_name=args.graph.name,
        n=g.n,
        f=args.split_factor,
        fingerprint=g.fingerprint(),
    )
    print(f"initialized {layout.root} with {args.split_factor * g.n} jobs")
    return 0


def cmd_work(args) -> int:
    try:
        config = worker_mod.WorkerConfig(
            worker_id=args.id,
            graph_path=args.graph,
            queue_root=args.queue,
            rng_seed=args.seed,
        )
    except ValueError as exc:  # an empty --id
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = worker_mod.worker_loop(config)
    print(
        f"worker={args.id} jobs={summary.jobs} nodes={summary.nodes} "
        f"wall_ms={summary.wall_ms}"
    )
    return 0


def cmd_collect(args) -> int:
    layout = jobqueue.open_queue(args.queue)
    summary = jobqueue.collect_results(layout)
    print(f"complete={str(summary.complete).lower()}")
    print(f"missing={len(summary.missing)}")
    if summary.missing:
        print("missing_ids=" + " ".join(str(t) for t in summary.missing[:50]))
    print(f"omega={summary.best_omega}")
    print("clique=" + " ".join(str(v) for v in summary.best_clique))
    if summary.records:
        makespan = max(r.finished_unix_ms for r in summary.records) - min(
            r.started_unix_ms for r in summary.records
        )
        print(f"makespan_ms={makespan}")
    for err in summary.errors:
        print(f"error: {err}", file=sys.stderr)
    return 0


def cmd_requeue(args) -> int:
    layout = jobqueue.open_queue(args.queue)
    moved = jobqueue.requeue_stale(layout, args.grace_seconds)
    print(f"requeued={len(moved)}")
    if moved:
        print("ids=" + " ".join(str(t) for t in moved))
    return 0


def cmd_report(args) -> int:
    layout = jobqueue.open_queue(args.queue)
    summary = jobqueue.collect_results(layout)
    if not summary.records:
        print("error: no result records to report on", file=sys.stderr)
        return 1
    run_report = report_mod.build_report(
        summary.records, baseline_wall_ms=args.baseline_wall_ms
    )
    report_mod.emit_report(run_report, args.out)
    print(f"makespan_ms={run_report.makespan_ms}")
    if run_report.speedup is not None:
        print(f"speedup={run_report.speedup:.2f}")
    if run_report.clock_skew_caveat:
        print(
            "note: makespan endpoints come from different workers; "
            "clocks may be skewed by seconds"
        )
    print(f"wrote busy.csv, workers.csv, tail.csv, summary.csv to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
