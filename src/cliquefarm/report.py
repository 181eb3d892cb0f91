"""Run analysis: busy-worker timeline, per-worker totals, job-duration tail.

Mirrors the three plots used to study farm behaviour; emitted as CSV so any
plotting tool can consume them. Timestamps come from loosely synchronised
worker clocks, so cross-worker comparisons are approximate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .jobqueue import JobResultRecord

TAIL_GRID_POINTS = 32


class ReportError(Exception):
    pass


@dataclass
class WorkerRow:
    worker: str
    total_nodes: int
    longest_job_nodes: int
    total_wall_ms: int


@dataclass
class RunReport:
    busy_steps: list[tuple[int, int]]  # (timestamp_ms, busy worker count)
    per_worker: list[WorkerRow]  # sorted by increasing total wall time
    tail_contour: list[tuple[float, int]]  # (threshold_ms, jobs exceeding)
    makespan_ms: int
    speedup: float | None = None
    clock_skew_caveat: bool = False


def build_report(
    records: list[JobResultRecord], baseline_wall_ms: int | None = None
) -> RunReport:
    """Aggregate job records into the three report series; a job's duration
    is its finished_unix_ms - started_unix_ms, in whole ms.

    Rejects empty input, a baseline that is not positive, and overlapping
    jobs on a single worker (one worker is one single-threaded process, so
    overlap means corrupt data).
    """
    if not records:
        raise ReportError("no records to report on")
    _check_no_overlap(records)

    events = []
    for r in records:
        events.append((r.started_unix_ms, +1))
        events.append((r.finished_unix_ms, -1))
    events.sort()
    busy_steps = []
    busy = 0
    for ts, delta in events:
        busy += delta
        if busy_steps and busy_steps[-1][0] == ts:
            busy_steps[-1] = (ts, busy)
        else:
            busy_steps.append((ts, busy))

    by_worker: dict[str, WorkerRow] = {}
    durations = [r.finished_unix_ms - r.started_unix_ms for r in records]
    for r, duration in zip(records, durations):
        row = by_worker.setdefault(r.worker, WorkerRow(r.worker, 0, 0, 0))
        row.total_nodes += r.nodes
        row.longest_job_nodes = max(row.longest_job_nodes, r.nodes)
        row.total_wall_ms += duration
    per_worker = sorted(by_worker.values(), key=lambda w: (w.total_wall_ms, w.worker))

    tail_contour = [
        (thr, sum(1 for d in durations if d > thr))
        for thr in _log_grid(max(durations))
    ]

    first = min(records, key=lambda r: r.started_unix_ms)
    last = max(records, key=lambda r: r.finished_unix_ms)
    makespan_ms = last.finished_unix_ms - first.started_unix_ms
    speedup = None
    if baseline_wall_ms is not None:
        if baseline_wall_ms <= 0:
            raise ReportError(f"baseline wall time must be positive, got {baseline_wall_ms} ms")
        if makespan_ms <= 0:
            raise ReportError("cannot compute speedup: zero makespan")
        speedup = baseline_wall_ms / makespan_ms
    return RunReport(
        busy_steps=busy_steps,
        per_worker=per_worker,
        tail_contour=tail_contour,
        makespan_ms=makespan_ms,
        speedup=speedup,
        clock_skew_caveat=first.worker != last.worker,
    )


def _check_no_overlap(records: list[JobResultRecord]) -> None:
    by_worker: dict[str, list[JobResultRecord]] = {}
    for r in records:
        by_worker.setdefault(r.worker, []).append(r)
    for worker, rs in by_worker.items():
        # tie on start goes to the shorter job: timestamps have millisecond
        # granularity, so several sub-ms jobs may share a start time
        rs = sorted(rs, key=lambda r: (r.started_unix_ms, r.finished_unix_ms))
        for a, b in zip(rs, rs[1:]):
            if b.started_unix_ms < a.finished_unix_ms:
                raise ReportError(
                    f"worker {worker} ran jobs {a.t} and {b.t} simultaneously"
                )


def _log_grid(max_ms: int) -> list[float]:
    """Log-spaced thresholds from 1 ms to the longest job duration."""
    top = max(1, max_ms)
    step = math.log10(top) / (TAIL_GRID_POINTS - 1)
    return [10 ** (i * step) for i in range(TAIL_GRID_POINTS)]


def emit_report(report: RunReport, out_dir) -> None:
    """Write busy.csv, workers.csv, tail.csv and summary.csv into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "busy.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp_ms", "busy"])
        w.writerows(report.busy_steps)
    with open(out / "workers.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["worker", "total_nodes", "longest_job_nodes", "total_wall_ms"])
        for row in report.per_worker:
            w.writerow([row.worker, row.total_nodes, row.longest_job_nodes, row.total_wall_ms])
    with open(out / "tail.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["threshold_ms", "jobs_exceeding"])
        for thr, count in report.tail_contour:
            w.writerow([repr(thr), count])
    with open(out / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["makespan_ms", "speedup", "clock_skew_caveat"])
        w.writerow(
            [
                report.makespan_ms,
                "" if report.speedup is None else repr(report.speedup),
                int(report.clock_skew_caveat),
            ]
        )

