"""Worker process: claim jobs, run the kernel, publish results.

One worker is one single-threaded process; parallelism comes from pointing
several workers at the same queue root.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import distkernel, jobqueue
from .distkernel import JobSpec, Root, mc_dist
from .graph import Graph, degree_sort, load_dimacs
from .jobqueue import JobResultRecord, QueueError, QueueLayout

# a running job re-reads the shared best at most this often
REREAD_BEST_SECONDS = 1.0


@dataclass
class WorkerConfig:
    worker_id: str
    graph_path: Path
    queue_root: Path
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not self.worker_id:
            raise ValueError("worker id must be non-empty")


@dataclass
class WorkerSummary:
    jobs: int = 0
    nodes: int = 0
    wall_ms: int = 0


def run_job(
    g: Graph,
    t: int,
    c: int,
    worker_id: str,
    f: int,
    order: list[int],
    refresher=None,
    not_before_unix_ms: int = 0,
    root: Root | None = None,
) -> JobResultRecord:
    """Run one job against incumbent c and package the result.

    root is distkernel.colour_root(g, order), shared by every job on g.
    not_before_unix_ms clamps the start timestamp so consecutive jobs from
    one (serial) worker stay monotone despite wall-clock jitter.
    """
    spec = JobSpec(t=t, n=g.n, f=f, c=c)
    started = max(int(time.time() * 1000), not_before_unix_ms)
    t0 = time.monotonic()
    clique, ctx = mc_dist(g, spec, order=order, refresher=refresher, root=root)
    wall_ms = max(1, int((time.monotonic() - t0) * 1000))
    finished = max(started, int(time.time() * 1000))
    omega = len(clique)
    return JobResultRecord(
        t=t,
        omega=omega,
        clique=[v + 1 for v in clique],
        nodes=ctx.nodes,
        wall_ms=wall_ms,
        worker=worker_id,
        started_unix_ms=started,
        finished_unix_ms=finished,
    )


def worker_loop(config: WorkerConfig, log=sys.stdout) -> WorkerSummary:
    """Drain the queue: claim, run, publish, propose the new best; repeat.

    The graph must be the one the queue was made for: its fingerprint must
    equal meta's, or QueueError is raised before anything is claimed. The
    graph, its degree order, its coloured root and the claim order are
    built once. The first pass walks the whole claim order; each later pass
    walks, in that order, only the jobs still in pending/ when the last pass
    ended, and the worker exits when there are none. A job requeued while
    it ran and not yet re-run cannot be published: it is dropped with a log
    line, neither counted nor proposed as best, and runs again from
    pending/. A job starts from best as read at claim and re-reads it at
    most once every REREAD_BEST_SECONDS.
    """
    layout = jobqueue.open_queue(config.queue_root)
    meta = jobqueue.read_meta(layout)
    g = load_dimacs(config.graph_path)
    fingerprint = g.fingerprint()
    if fingerprint != meta.fingerprint:
        raise QueueError(
            f"queue was initialized for another graph (n={meta.n}, fingerprint "
            f"{meta.fingerprint or 'missing'}), not this one (n={g.n}, fingerprint "
            f"{fingerprint})"
        )
    order = degree_sort(g)
    root = distkernel.colour_root(g, order)
    claim_order = jobqueue.claim_order(meta.job_count, config.rng_seed)
    summary = WorkerSummary()
    last_finished = 0
    pass_order = claim_order
    while pass_order:  # a job requeued behind the cursor waits for the next pass
        jobs = iter(pass_order)
        for t in iter(lambda: jobqueue.claim_job(layout, jobs), None):
            c = jobqueue.read_best(layout)
            record = run_job(
                g,
                t,
                c,
                config.worker_id,
                meta.f,
                order=order,
                refresher=_periodic_refresher(layout, REREAD_BEST_SECONDS),
                not_before_unix_ms=last_finished,
                root=root,
            )
            last_finished = record.finished_unix_ms
            try:
                jobqueue.publish_result(layout, record)
            except QueueError:  # requeued while it ran: no record, so no best
                print(f"job={t} dropped=requeued", file=log, flush=True)
                continue
            if record.omega > 0:
                jobqueue.update_best(layout, record.omega)
            summary.jobs += 1
            summary.nodes += record.nodes
            summary.wall_ms += record.wall_ms
            print(
                f"job={record.t} omega={record.omega} nodes={record.nodes} "
                f"wall_ms={record.wall_ms} best_in={c}",
                file=log,
                flush=True,
            )
        pending = jobqueue.pending_jobs(layout)
        pass_order = [t for t in claim_order if t in pending]
    return summary


def _periodic_refresher(layout: QueueLayout, interval_seconds: float):
    """Callback raising ctx.best_size from the shared best file at most once
    per interval; mc_dist says when the kernel invokes it."""
    last = time.monotonic()

    def refresh(ctx) -> None:
        nonlocal last
        now = time.monotonic()
        if now - last < interval_seconds:
            return
        last = now
        current = jobqueue.read_best(layout)
        if current > ctx.best_size:
            ctx.best_size = current

    return refresh
