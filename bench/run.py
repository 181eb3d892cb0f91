"""cliquefarm benchmark: one workload, measured for a given time, one JSON line.

    python3 bench/run.py --workload solve-dense|farm-dense|farm-sparse \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program runs from its `src/` through
the real CLI, never more than two program processes at once. A run makes
the workload's graph from `--seed`, repeats whole rounds (two solves side by
side, or one init + 2 workers + collect) for about S seconds, checks every
round's output against the benchmark's own reference data and prints the
metrics by name.
The last line of stdout is a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer ones with `--trace 1`. README.md explains every metric.
"""

from __future__ import annotations

import time

START_NS = time.monotonic_ns()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
sys.path.insert(0, str(HERE))

from check import CheckError, check_farm, check_solve, key_values  # noqa: E402
from instances import INSTANCES, make_graph, read_dimacs, write_dimacs  # noqa: E402
from layers import layer_metrics  # noqa: E402

WORKERS = 2  # one per core of the 2-core machine the figures were taken on
SPLIT = 8  # cliquefarm's default split factor: f*n jobs
# One farm-sparse round takes 10-16 s and the machine's speed wanders over
# seconds, so an untraced run averages at least 3 rounds; a traced run, whose
# rounds are twice as long, at least 2.
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
# Each core of the shared machine slows and speeds up on its own, for seconds
# at a time; a solve round runs one copy per core, and each copy is a sample.
SOLVE_COPIES = WORKERS


@dataclass(frozen=True)
class Workload:
    instance: str
    farm: bool


WORKLOADS = {
    "solve-dense": Workload("G120_0.9_7", farm=False),
    "farm-dense": Workload("G120_0.9_7", farm=True),
    "farm-sparse": Workload("G1000_0.1_0", farm=True),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "nodes": "count", "setup_s": "s", "peak_rss_mb": "MB"}


class RunError(Exception):
    """A program process failed; the run prints no result."""


@dataclass
class Proc:
    role: str
    popen: subprocess.Popen
    out: Path
    launched: int  # monotonic ns
    spans: Path | None
    exited: int = 0
    cpu_s: float = 0.0
    rss_mb: float = 0.0

    def stdout(self) -> str:
        return self.out.read_text(encoding="ascii")


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    nodes: int
    rss_mb: float
    setup_end: int  # monotonic ns at which the search could start
    ops: int
    index: int  # the round it belongs to; a solve round gives one Round per copy
    procs: list[Proc] = field(default_factory=list)
    record_nodes: list[int] = field(default_factory=list)
    best_writes: int = 0


class Bench:
    """One run: a working directory, the workload's graph and its child processes."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.wl = WORKLOADS[workload]
        self.dir = workdir
        self.omega = INSTANCES[self.wl.instance].omega
        self.graph = workdir / "graph.clq"
        write_dimacs(make_graph(self.wl.instance, seed), self.graph)
        self.adj = read_dimacs(self.graph)  # answers are checked against the file the program reads
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.live: dict[int, Proc] = {}
        self.rounds = 0

    def spawn(self, role: str, args: list[str], traced: bool) -> Proc:
        tag = f"{self.rounds}-{role}"
        out = self.dir / f"{tag}.out"
        spans = self.dir / f"{tag}.spans.json" if traced else None
        prog = [str(HERE / "launch.py"), str(spans)] if traced else ["-m", "cliquefarm"]
        with open(out, "w") as fh, open(self.dir / f"{tag}.err", "w") as err:
            launched = time.monotonic_ns()
            popen = subprocess.Popen(
                [sys.executable, *prog, *args], stdout=fh, stderr=err, env=self.env, cwd=ROOT
            )
        proc = Proc(role, popen, out, launched, spans)
        self.live[popen.pid] = proc
        return proc

    def reap(self, procs: list[Proc]) -> None:
        """Wait for `procs` (the only live children); take exit time and rusage."""
        pending = {p.popen.pid for p in procs}
        while pending:
            pid, status, ru = os.wait4(-1, 0)
            proc = self.live.pop(pid, None)
            if proc is None:
                continue
            pending.discard(pid)
            proc.exited = time.monotonic_ns()
            proc.popen.returncode = os.waitstatus_to_exitcode(status)
            proc.cpu_s = ru.ru_utime + ru.ru_stime
            proc.rss_mb = ru.ru_maxrss / 1024
            if proc.popen.returncode != 0:
                err = (self.dir / f"{proc.out.stem}.err").read_text(errors="replace")
                raise RunError(f"{proc.role} exited {proc.popen.returncode}: {err[-2000:]}")

    def close(self) -> None:
        """Stop and reap any child still running."""
        for proc in list(self.live.values()):
            proc.popen.kill()
            proc.popen.wait()
        self.live.clear()

    def round(self, traced: bool) -> list[Round]:
        self.rounds += 1
        return [self.farm_round(traced)] if self.wl.farm else self.solve_round(traced)

    def solve_round(self, traced: bool) -> list[Round]:
        procs = [self.spawn(f"solve{i}", ["solve", str(self.graph)], traced)
                 for i in range(SOLVE_COPIES)]
        self.reap(procs)
        rounds = []
        for p in procs:
            out = p.stdout()
            nodes = check_solve(out, self.adj, self.omega)
            elapsed = (p.exited - p.launched) / 1e9
            search_s = int(key_values(out)["wall_ms"]) / 1000
            rounds.append(Round(elapsed, p.cpu_s, nodes, p.rss_mb,
                                p.launched + int((elapsed - search_s) * 1e9), ops=1,
                                index=self.rounds, procs=[p]))
        return rounds

    def farm_round(self, traced: bool) -> Round:
        q = self.dir / f"queue{self.rounds}"
        jobs = SPLIT * len(self.adj)
        init = self.spawn("init", ["init", "--graph", str(self.graph), "--queue", str(q),
                                   "--split-factor", str(SPLIT)], traced)
        self.reap([init])
        workers = [
            self.spawn(f"w{i}", ["work", "--graph", str(self.graph), "--queue", str(q),
                                 "--id", f"w{i}", "--seed", str(i)], traced)
            for i in range(WORKERS)
        ]
        self.reap(workers)
        collect = self.spawn("collect", ["collect", "--queue", str(q)], traced)
        self.reap([collect])
        procs = [init, *workers, collect]
        record_nodes = check_farm(q, collect.stdout(), [w.stdout() for w in workers],
                                  self.adj, self.omega, jobs)
        best_writes = len((q / "best.log").read_text(encoding="ascii").splitlines())
        if traced:
            report = self.spawn("report", ["report", "--queue", str(q), "--out", str(q / "report")], True)
            self.reap([report])
            procs.append(report)
        shutil.rmtree(q)
        return Round(
            wall_s=(collect.exited - workers[0].launched) / 1e9,
            cpu_s=sum(p.cpu_s for p in procs if p.role != "report"),
            nodes=sum(record_nodes),
            rss_mb=max(p.rss_mb for p in procs),
            setup_end=init.exited,
            ops=jobs + 1,
            index=self.rounds,
            procs=procs,
            record_nodes=record_nodes,
            best_writes=best_writes,
        )


def measure(bench: Bench, seconds: float, traced: bool) -> tuple[list[Round], list[Round]]:
    """Whole rounds for about `seconds`, at least MIN_ROUNDS (MIN_TRACED_ROUNDS
    with --trace 1). Another round starts while it would end, at the mean
    round length so far, no more than half a round past `seconds`. With
    --trace 1 a round is an untraced round followed by a traced one.
    """
    plain, traced_rounds = [], []
    least = MIN_TRACED_ROUNDS if traced else MIN_ROUNDS
    t0 = time.monotonic()
    done = 0
    while done < least or (time.monotonic() - t0) * (1 + 0.5 / done) < seconds:
        for is_traced in (False, True) if traced else (False,):
            for r in bench.round(is_traced):
                (traced_rounds if is_traced else plain).append(r)
                print(f"round {bench.rounds}: wall_s={r.wall_s:.3f} cpu_s={r.cpu_s:.3f} "
                      f"nodes={r.nodes} traced={int(is_traced)}", flush=True)
        done += 1
    return plain, traced_rounds


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    """Times are means over the run's rounds: a round's time follows the
    machine's speed, which wanders over seconds, and a mean over a few rounds
    follows it less than their median does. A farm's time also has two modes
    (the incumbent reaches omega early or late), and the median of a run
    jumps between them where the mean does not.
    """
    return {
        "wall_s": statistics.fmean(r.wall_s for r in rounds),
        "cpu_s": statistics.fmean(r.cpu_s for r in rounds),
        "nodes": statistics.median(r.nodes for r in rounds),
        "setup_s": (rounds[0].setup_end - START_NS) / 1e9,
        "peak_rss_mb": max(r.rss_mb for r in rounds),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cliquefarm" / "cli.py").is_file():
        print(f"error: no cliquefarm sources under {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        workdir = RUNS / f"trace-{args.workload}"
        shutil.rmtree(workdir, ignore_errors=True)
    else:
        workdir = RUNS / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, workdir)
    try:
        plain, traced = measure(bench, args.seconds, bool(args.trace))
        if args.trace:
            metrics, units = layer_metrics(bench, plain, traced, WORKERS, SPLIT)
        else:
            metrics, units = end_to_end(plain), END_TO_END
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": bench.rounds, "failed": 0, "metrics": {}}))
        return 1
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
        if not args.trace:
            shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + traced
    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"instance={bench.wl.instance} omega={bench.omega}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if args.trace:
        print(f"spans written to {workdir.relative_to(ROOT)}/")
    result = {
        "correct": True,
        "attempted": sum(r.ops for r in rounds),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
