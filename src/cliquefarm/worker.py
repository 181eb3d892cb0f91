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
from .distkernel import JobSpec, mc_dist
from .graph import degree_sort, load_dimacs
from .jobqueue import JobResultRecord, QueueError, QueueLayout

# a running job re-reads the shared best at most this often
REREAD_BEST_SECONDS = 1.0


@dataclass
class WorkerSummary:
    jobs: int = 0
    nodes: int = 0
    wall_ms: int = 0


def worker_loop(
    graph_path: Path, queue_root: Path, worker_id: str, seed: int = 0, log=sys.stdout
) -> WorkerSummary:
    """Drain the queue: claim, run, propose the clique as best, publish; repeat.

    worker_id must be non-empty printable ASCII, which a result record can
    carry, and the graph must be the one the queue was made for (its
    fingerprint equals meta's); otherwise QueueError is raised before
    anything is claimed. The graph, its degree order, its coloured root and
    the claim order for seed are built once. Each pass walks, in claim
    order, the jobs in pending/ when it starts; the worker exits when there
    are none. A job starts from best as read at claim and re-reads it at
    most once every REREAD_BEST_SECONDS. Its clique is proposed before its
    record is published, so best.log holds it even if the publish fails: a
    job requeued while it ran and not yet re-run is dropped with a log
    line, not counted, and runs again from pending/. A record's start is
    clamped to the previous job's finish, so one worker's records stay
    monotone despite wall-clock jitter; a job's time is its finish minus its
    start, in whole ms, so a worker's total never exceeds its span.
    """
    if not (worker_id and worker_id.isascii() and worker_id.isprintable()):
        raise QueueError(f"worker id {worker_id!r} must be non-empty printable ASCII")
    layout = jobqueue.open_queue(queue_root)
    meta = jobqueue.read_meta(layout)
    g = load_dimacs(graph_path)
    fingerprint = g.fingerprint()
    if fingerprint != meta.fingerprint:
        raise QueueError(
            f"queue was initialized for another graph (n={meta.n}, fingerprint "
            f"{meta.fingerprint or 'missing'}), not this one (n={g.n}, fingerprint "
            f"{fingerprint})"
        )
    order = degree_sort(g)
    root = distkernel.colour_root(g, order)
    claim_order = jobqueue.claim_order(meta.job_count, seed)
    summary = WorkerSummary()
    finished = 0
    while pending := jobqueue.pending_jobs(layout):
        jobs = (t for t in claim_order if t in pending)
        for t in iter(lambda: jobqueue.claim_job(layout, jobs), None):
            c = jobqueue.read_best(layout)
            spec = JobSpec(t=t, n=g.n, f=meta.f, c=c)
            refresher = _periodic_refresher(layout, REREAD_BEST_SECONDS)
            started = max(int(time.time() * 1000), finished)
            clique, ctx = mc_dist(g, spec, order, refresher=refresher, root=root)
            finished = max(started, int(time.time() * 1000))
            record = JobResultRecord(
                t=t,
                omega=len(clique),
                clique=[v + 1 for v in clique],
                nodes=ctx.nodes,
                worker=worker_id,
                started_unix_ms=started,
                finished_unix_ms=finished,
            )
            if record.clique:
                jobqueue.update_best(layout, record.clique)
            try:
                jobqueue.publish_result(layout, record)
            except QueueError:  # requeued while it ran; the re-run publishes
                print(f"job={t} dropped=requeued", file=log, flush=True)
                continue
            summary.jobs += 1
            summary.nodes += record.nodes
            summary.wall_ms += finished - started
            print(
                f"job={t} omega={record.omega} nodes={record.nodes} "
                f"wall_ms={finished - started} best_in={c}",
                file=log,
                flush=True,
            )
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
