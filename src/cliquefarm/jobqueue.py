"""Directory-backed job queue shared by worker processes.

Layout under the queue root:

    meta                 key=value: graph name, n, split factor f, fingerprint
    best                 current incumbent size, ASCII decimal + newline
    best.lock            advisory lock file guarding best
    best.tmp             the next best, written whole, then renamed onto best
    best.log             one line per accepted best write, with its witness:
                         <unix_ms> <size> <v1> ... <vk> (1-based vertices)
    pending/00..99/<t>   unclaimed jobs, sharded by the last two digits of t
    running/<t>          claimed jobs
    results/<t>          finished jobs, serialized JobResultRecord

Jobs move between pending/, running/ and results/ only by same-filesystem
atomic rename, so of two workers claiming one job exactly one wins; only best
takes an advisory flock. Only the canonical decimal name of a job id (no sign,
no leading zero, ASCII digits) names a job; any other name in those
directories (NFS .nfs* files, editor droppings, 07) is ignored.
"""

from __future__ import annotations

import fcntl
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

SHARDS = [f"{i:02d}" for i in range(100)]


class QueueError(Exception):
    """Queue protocol violation or unusable queue state."""


@contextmanager
def locked(path: Path, exclusive: bool) -> Iterator[None]:
    """Hold an advisory flock on `path` (created if absent) for the block."""
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def _job_ids(directory: Path) -> list[int]:
    """The job ids named in a queue directory, skipping any name that is not
    an id's canonical decimal form (str(t))."""
    return [
        int(name)
        for name in os.listdir(directory)
        if name.isdecimal() and str(int(name)) == name
    ]


def shard_of(t: int) -> str:
    """Shard name: last two decimal digits of t, zero-padded."""
    return f"{t % 100:02d}"


@dataclass(frozen=True)
class QueueLayout:
    root: Path

    @property
    def meta_path(self) -> Path:
        return self.root / "meta"

    @property
    def best_path(self) -> Path:
        return self.root / "best"

    @property
    def best_lock(self) -> Path:
        return self.root / "best.lock"

    @property
    def best_log(self) -> Path:
        return self.root / "best.log"

    @property
    def pending_dir(self) -> Path:
        return self.root / "pending"

    @property
    def running_dir(self) -> Path:
        return self.root / "running"

    @property
    def results_dir(self) -> Path:
        return self.root / "results"

    def shard_dir(self, shard: str) -> Path:
        return self.pending_dir / shard


@dataclass
class QueueMeta:
    graph: str
    n: int
    f: int
    fingerprint: str  # Graph.fingerprint(); "" in a meta written without one

    @property
    def job_count(self) -> int:
        return self.f * self.n


@dataclass
class JobResultRecord:
    """What one finished job reports back.

    omega == len(clique), always: 0 with an empty clique means the job found
    nothing better than its injected bound; otherwise the clique is an
    ascending 1-based vertex list. The job took finished_unix_ms -
    started_unix_ms; from_text ignores an older record's wall_ms= line.
    """

    t: int
    omega: int
    clique: list[int]
    nodes: int
    worker: str
    started_unix_ms: int
    finished_unix_ms: int

    def __post_init__(self) -> None:
        if self.omega != len(self.clique):
            raise QueueError(
                f"omega {self.omega} != clique size {len(self.clique)} for job {self.t}"
            )
        if self.finished_unix_ms < self.started_unix_ms:
            raise QueueError(f"job {self.t} finished before it started")
        if self.nodes < 1:
            raise QueueError(f"job {self.t} reports {self.nodes} nodes")

    def to_text(self) -> str:
        lines = [
            f"t={self.t}",
            f"omega={self.omega}",
            "clique=" + " ".join(str(v) for v in self.clique),
            f"nodes={self.nodes}",
            f"worker={self.worker}",
            f"started_unix_ms={self.started_unix_ms}",
            f"finished_unix_ms={self.finished_unix_ms}",
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "JobResultRecord":
        kv = _parse_kv(text)
        try:
            clique = [int(v) for v in kv["clique"].split()] if kv["clique"] else []
            return cls(
                t=int(kv["t"]),
                omega=int(kv["omega"]),
                clique=clique,
                nodes=int(kv["nodes"]),
                worker=kv["worker"],
                started_unix_ms=int(kv["started_unix_ms"]),
                finished_unix_ms=int(kv["finished_unix_ms"]),
            )
        except KeyError as exc:
            raise QueueError(f"result record missing key {exc}") from exc
        except ValueError as exc:
            raise QueueError(f"result record has a bad value: {exc}") from exc


def _parse_kv(text: str) -> dict[str, str]:
    kv = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise QueueError(f"bad key=value line: {line!r}")
        kv[key] = value
    return kv


def init_queue(root, graph_name: str, n: int, f: int, fingerprint: str) -> QueueLayout:
    """Create the queue directory tree and all f*n pending job files; meta
    keeps `fingerprint` (Graph.fingerprint()) for workers to check."""
    root = Path(root)
    if root.exists() and any(root.iterdir()):
        raise QueueError(f"queue root {root} exists and is not empty")
    if n < 1 or f < 1:
        raise QueueError(f"need n >= 1 and f >= 1, got n={n} f={f}")
    meta = f"graph={graph_name}\nn={n}\nf={f}\nfingerprint={fingerprint}\n"
    if not meta.isascii():  # before any directory is made
        raise QueueError(f"graph name {graph_name!r} is not ASCII")
    layout = QueueLayout(root=root)
    for shard in SHARDS:
        layout.shard_dir(shard).mkdir(parents=True)
    layout.running_dir.mkdir()
    layout.results_dir.mkdir()
    layout.best_lock.touch()
    layout.best_path.write_text("0\n", encoding="ascii")
    layout.meta_path.write_text(meta, encoding="ascii")
    for t in range(f * n):
        (layout.shard_dir(shard_of(t)) / str(t)).touch()
    return layout


def open_queue(root) -> QueueLayout:
    root = Path(root)
    layout = QueueLayout(root=root)
    if not layout.meta_path.is_file():
        raise QueueError(f"{root} is not an initialized queue (no meta file)")
    return layout


def read_meta(layout: QueueLayout) -> QueueMeta:
    try:
        kv = _parse_kv(layout.meta_path.read_text(encoding="ascii"))
        graph, n, f = kv["graph"], int(kv["n"]), int(kv["f"])
        return QueueMeta(graph, n, f, fingerprint=kv.get("fingerprint", ""))
    except (KeyError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise QueueError(f"bad meta file: {exc}") from exc


def claim_order(job_count: int, seed: int) -> list[int]:
    """All job ids, shard by shard in a seeded shuffle, ascending in a shard."""
    shards = list(SHARDS)
    random.Random(seed).shuffle(shards)
    return [t for s in shards for t in range(int(s), job_count, 100)]


def claim_job(layout: QueueLayout, jobs: Iterable[int]) -> int | None:
    """Claim the first still-pending job of `jobs` by one atomic rename into
    running/; a lost race moves on to the next id. None once `jobs` runs out.
    Pass one iterator across calls to resume where the last claim stopped."""
    for t in jobs:
        src = layout.shard_dir(shard_of(t)) / str(t)
        try:
            # rename keeps the mtime, and requeue_stale may look at running/
            # the moment the job lands there: staleness must count from claim
            os.utime(src)
            os.rename(src, layout.running_dir / str(t))
        except FileNotFoundError:
            continue
        return t
    return None


def pending_jobs(layout: QueueLayout) -> set[int]:
    """The ids of the jobs now in pending/ that claim_job can take; a name no
    claim would move (wrong shard, not canonical, not below meta's f*n) is
    skipped, so no worker waits on it."""
    job_count = read_meta(layout).job_count
    return {
        t
        for shard in SHARDS
        for t in _job_ids(layout.shard_dir(shard))
        if shard_of(t) == shard and t < job_count
    }


def read_best(layout: QueueLayout) -> int:
    """Current incumbent size, read under a shared lock: update_best must not
    replace best under an open reader, as over NFS the replaced file can
    vanish under that reader."""
    with locked(layout.best_lock, exclusive=False):
        return _best_in(layout.best_path)


def _best_in(path: Path) -> int:
    """The value in a best file; QueueError unless it is a decimal >= 0."""
    raw = path.read_bytes()
    try:
        value = int(raw)
    except ValueError:
        raise QueueError(f"corrupt best file: {raw!r}")
    if value < 0:
        raise QueueError(f"corrupt best file: negative value {value}")
    return value


def update_best(layout: QueueLayout, clique: list[int]) -> tuple[bool, int]:
    """Propose a 1-based clique as incumbent; returns (wrote, size now in best).

    Reads best once, under the exclusive lock, and writes only a strict
    improvement: first its witness line to best.log, then best.tmp, renamed
    onto best, so best never holds a size without a logged witness and a
    kill never leaves best half-written.
    """
    with locked(layout.best_lock, exclusive=True):
        current = _best_in(layout.best_path)
        if len(clique) <= current:
            return False, current
        line = " ".join(map(str, [int(time.time() * 1000), len(clique), *clique]))
        with open(layout.best_log, "a+b") as fh:
            end = fh.seek(0, os.SEEK_END)
            if end and os.pread(fh.fileno(), 1, end - 1) != b"\n":
                line = "\n" + line  # end a torn last line, or it swallows this one
            fh.write(f"{line}\n".encode("ascii"))
        tmp = layout.root / "best.tmp"
        tmp.write_text(f"{len(clique)}\n", encoding="ascii")
        os.replace(tmp, layout.best_path)
        return True, len(clique)


def read_best_log(layout: QueueLayout) -> tuple[list[list[int]], list[str]]:
    """The witnesses in best.log, in write order, and an error for each line
    that is not `<unix_ms> <size>` followed by size vertices."""
    if not layout.best_log.exists():
        return [], []
    witnesses, errors = [], []
    text = layout.best_log.read_text(encoding="ascii", errors="replace")
    for i, line in enumerate(text.splitlines(), 1):
        try:
            _, size, *clique = map(int, line.split())
            if size != len(clique):
                raise ValueError(f"size {size} but {len(clique)} vertices")
            witnesses.append(clique)
        except ValueError as exc:
            errors.append(f"best.log line {i}: {exc}")
    return witnesses, errors


def publish_result(layout: QueueLayout, record: JobResultRecord) -> None:
    """Write the record into running/<t> and move it to results/. A job
    requeued while it ran may run twice; the second publish keeps the first."""
    running = layout.running_dir / str(record.t)
    finished = layout.results_dir / str(record.t)
    try:
        with open(running, "r+", encoding="ascii") as fh:  # never creates running/<t>
            fh.truncate()
            fh.write(record.to_text())
        os.rename(running, finished)
    except FileNotFoundError:
        if not finished.exists():
            raise QueueError(f"job {record.t} was never claimed") from None


def requeue_stale(layout: QueueLayout, grace_seconds: int) -> list[int]:
    """Move jobs stuck in running/ longer than the grace back to pending."""
    if grace_seconds <= 0:
        raise QueueError(f"grace must be positive, got {grace_seconds}")
    now = time.time()
    moved = []
    for t in _job_ids(layout.running_dir):
        path = layout.running_dir / str(t)
        try:
            if now - path.stat().st_mtime <= grace_seconds:
                continue
            os.rename(path, layout.shard_dir(shard_of(t)) / str(t))
        except FileNotFoundError:
            continue  # published while we were scanning
        moved.append(t)
    return sorted(moved)


@dataclass
class CollectSummary:
    complete: bool
    missing: list[int]
    best_omega: int
    best_clique: list[int]
    records: list[JobResultRecord]
    errors: list[str] = field(default_factory=list)


def collect_results(layout: QueueLayout) -> CollectSummary:
    """Parse every result record; the answer is the largest witness in
    best.log, the first of them on a tie.

    Unparseable records and best.log lines are reported in `errors`, not
    fatal. The expected jobs are the f*n of meta.
    """
    job_count = read_meta(layout).job_count
    records = []
    errors = []
    for t in sorted(_job_ids(layout.results_dir)):
        path = layout.results_dir / str(t)
        try:
            record = JobResultRecord.from_text(path.read_text(encoding="ascii"))
        except (QueueError, OSError, UnicodeDecodeError) as exc:
            errors.append(f"{t}: {exc}")
            continue
        if record.t != t:
            errors.append(f"{t}: record claims job id {record.t}")
            continue
        records.append(record)
    present = {r.t for r in records}
    missing = [t for t in range(job_count) if t not in present]
    witnesses, log_errors = read_best_log(layout)
    best_clique = max(witnesses, key=len, default=[])
    return CollectSummary(
        complete=not missing,
        missing=missing,
        best_omega=len(best_clique),
        best_clique=best_clique,
        records=records,
        errors=errors + log_errors,
    )
