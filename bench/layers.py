"""Per-layer metrics of a traced run.

Most figures come from the spans that bench/launch.py records around
the public functions of each cliquefarm layer. Three come from calls the
benchmark makes itself: `distkernel.root_ms` and
`distkernel.sequential_nodes` call the kernel in this process, and
`cli.import_ms` starts an interpreter that only imports the package. A
metric whose function never ran (a layer the workload does not use, or a
function a later change renamed) reads 0 and is listed as not called.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

MC, MC_DIST, COLOUR = "core.mc", "distkernel.mc_dist", "core.colour_sort"

# name -> unit, in the order they are printed
PER_LAYER = {
    "graph.load_dimacs_ms": "ms",
    "graph.degree_sort_ms": "ms",
    "core.colour_sort_s": "s",
    "core.colour_sort_calls": "count",
    "core.colour_sort_share": "ratio",
    "core.branch_s": "s",
    "core.nodes_per_s": "1/s",
    "distkernel.job_ms.p50": "ms",
    "distkernel.job_ms.p99": "ms",
    "distkernel.colour_sort_share": "ratio",
    "distkernel.root_ms": "ms",
    "distkernel.useful_job_ratio": "ratio",
    "distkernel.work_inflation": "ratio",
    "distkernel.sequential_nodes": "count",
    "jobqueue.claim_us.p50": "us",
    "jobqueue.claim_us.p99": "us",
    "jobqueue.read_best_us.p50": "us",
    "jobqueue.read_best_us.p99": "us",
    "jobqueue.publish_us.p50": "us",
    "jobqueue.publish_us.p99": "us",
    "jobqueue.update_best_us": "us",
    "jobqueue.update_best_attempts": "count",
    "jobqueue.update_best_writes": "count",
    "jobqueue.init_ms": "ms",
    "jobqueue.collect_ms": "ms",
    "worker.overhead_ms_per_job": "ms",
    "worker.startup_ms": "ms",
    "worker.busy_share": "ratio",
    "worker.tail_s": "s",
    "report.build_ms": "ms",
    "report.emit_ms": "ms",
    "cli.import_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# per-call samples: metric -> (span, ns per unit, process role or None, keep(span, spans))
SAMPLES = {
    "graph.load_dimacs_ms": ("graph.load_dimacs", 1e6, None, None),
    "graph.degree_sort_ms": ("graph.degree_sort", 1e6, None, None),
    "distkernel.job_ms": (MC_DIST, 1e6, None, None),
    # a claim that found the queue empty has no job (-1)
    "jobqueue.claim_us": ("jobqueue.claim_job", 1e3, None, lambda s, spans: s[4] >= 0),
    # update_best re-reads best itself; only the workers' own reads count here
    "jobqueue.read_best_us": ("jobqueue.read_best", 1e3, None,
                              lambda s, spans: s[3] < 0 or spans[s[3]][0] != "jobqueue.update_best"),
    "jobqueue.publish_us": ("jobqueue.publish_result", 1e3, None, None),
    "jobqueue.update_best_us": ("jobqueue.update_best", 1e3, None, None),
    "jobqueue.init_ms": ("jobqueue.init_queue", 1e6, "init", None),
    "jobqueue.collect_ms": ("jobqueue.collect_results", 1e6, "collect", None),
    "report.build_ms": ("report.build_report", 1e6, "report", None),
    "report.emit_ms": ("report.emit_report", 1e6, "report", None),
}


def p99(xs: list[float]) -> float:
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(0.99 * len(xs)))]


def layer_metrics(bench, plain, traced, workers: int, split: int):
    """(metrics, units) of a traced run; also prints each function's self time."""
    samples: dict[str, list[float]] = defaultdict(list)
    per_round: dict[str, list[float]] = defaultdict(list)
    calls, total, self_ns = Counter(), Counter(), Counter()
    for r in traced:
        tot, n_calls, colour_in = Counter(), Counter(), Counter()
        for p in r.procs:
            spans = json.loads(p.spans.read_text(encoding="ascii"))
            owner: list[str | None] = []  # enclosing search span of each span
            child = [0] * len(spans)
            for i, (name, t0, t1, parent, job) in enumerate(spans):
                d = t1 - t0
                if parent < 0 or spans[parent][0] != name:  # a recursive call is inside its caller
                    tot[name] += d
                n_calls[name] += 1
                if parent >= 0:
                    child[parent] += d
                own = name if name in (MC, MC_DIST) else owner[parent] if parent >= 0 else None
                owner.append(own)
                if name == COLOUR and own:
                    colour_in[own] += d
            for i, s in enumerate(spans):
                self_ns[s[0]] += s[2] - s[1] - child[i]
            for metric, (span, scale, role, keep) in SAMPLES.items():
                if role in (None, p.role):
                    samples[metric] += [(s[2] - s[1]) / scale for s in spans
                                        if s[0] == span and (keep is None or keep(s, spans))]
            if p.role.startswith("w"):
                first_claim = next((s[1] for s in spans if s[0] == "jobqueue.claim_job"), None)
                if first_claim is not None:
                    samples["worker.startup_ms"].append((first_claim - p.launched) / 1e6)
        calls += n_calls
        total += tot
        per_round["trace.spans"].append(sum(n_calls.values()))
        per_round["core.colour_sort_calls"].append(n_calls[COLOUR])
        if n_calls[COLOUR]:
            per_round["core.colour_sort_s"].append(tot[COLOUR] / 1e9)
        if tot[MC]:
            per_round["core.colour_sort_share"].append(colour_in[MC] / tot[MC])
            per_round["core.branch_s"].append((tot[MC] - colour_in[MC]) / 1e9)
            per_round["core.nodes_per_s"].append(r.nodes / (tot[MC] / 1e9))
        if tot[MC_DIST]:
            per_round["distkernel.colour_sort_share"].append(colour_in[MC_DIST] / tot[MC_DIST])
            per_round["worker.overhead_ms_per_job"].append(
                (tot["worker.worker_loop"] - tot[MC_DIST]) / n_calls[MC_DIST] / 1e6)
        if r.record_nodes:
            per_round["distkernel.useful_job_ratio"].append(
                sum(n > 1 for n in r.record_nodes) / len(r.record_nodes))
            per_round["jobqueue.update_best_attempts"].append(n_calls["jobqueue.update_best"])
            per_round["jobqueue.update_best_writes"].append(r.best_writes)
            ws = [p for p in r.procs if p.role.startswith("w")]
            makespan = max(w.exited for w in ws) - min(w.launched for w in ws)
            per_round["worker.busy_share"].append(tot[MC_DIST] / (workers * makespan))
            per_round["worker.tail_s"].append(
                (max(w.exited for w in ws) - min(w.exited for w in ws)) / 1e9)

    metrics = {name: 0.0 for name in PER_LAYER}
    for name, xs in per_round.items():
        metrics[name] = statistics.median(xs)
    for name, xs in samples.items():
        if not xs:
            continue
        if f"{name}.p50" in metrics:
            metrics[f"{name}.p50"] = statistics.median(xs)
            metrics[f"{name}.p99"] = p99(xs)
        else:
            metrics[name] = statistics.median(xs)
        print(f"samples {name}: {len(xs)}")

    # the run's first round meets a cold disk and page cache: leave it out
    warm = [r for r in plain if r.index > 1] or plain
    metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                   - statistics.median(r.wall_s for r in warm))
    metrics["cli.import_ms"] = import_ms(bench.env)
    probed = probe_kernel(bench, split)
    if probed:
        metrics["distkernel.root_ms"], seq_nodes = probed
        if bench.wl.farm:
            metrics["distkernel.sequential_nodes"] = seq_nodes
            metrics["distkernel.work_inflation"] = (
                statistics.median(r.nodes for r in traced) / seq_nodes)

    rounds = len(traced)
    print(f"{'function':34} {'calls/round':>12} {'total s/round':>14} {'self s/round':>13}")
    for name, _ in sorted(self_ns.items(), key=lambda kv: -kv[1]):
        print(f"{name:34} {calls[name] / rounds:12.1f} {total[name] / rounds / 1e9:14.4f} "
              f"{self_ns[name] / rounds / 1e9:13.4f}")
    used = {span for span, *_ in SAMPLES.values()} | {MC, MC_DIST, COLOUR, "worker.worker_loop"}
    print("not called: " + (" ".join(sorted(used - set(calls))) or "-"))
    return metrics, PER_LAYER


def probe_kernel(bench, split: int) -> tuple[float, int] | None:
    """(median ms of a job cut at the root, sequential nodes), called in-process.

    A job whose incumbent already equals omega colours the root and stops:
    that is the fixed cost every job pays. The sequential node count is the
    base of `distkernel.work_inflation`. Returns None, and the metrics read 0,
    when the functions these calls need no longer exist.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        from cliquefarm.core import mc
        from cliquefarm.distkernel import JobSpec, mc_dist
        from cliquefarm.graph import degree_sort, load_dimacs

        g = load_dimacs(bench.graph)
        order = degree_sort(g)
        times = []
        for t in range(0, split * g.n, max(1, split * g.n // 64)):
            spec = JobSpec(t=t, n=g.n, f=split, c=bench.omega)
            t0 = time.perf_counter_ns()
            mc_dist(g, spec, order=order)
            times.append((time.perf_counter_ns() - t0) / 1e6)
        seq_nodes = mc(g)[1].nodes if bench.wl.farm else 0
    except (ImportError, AttributeError, TypeError) as exc:
        print(f"kernel probe skipped: {exc!r}")
        return None
    return statistics.median(times), seq_nodes


def import_ms(env: dict[str, str], repeats: int = 5) -> float:
    """Interpreter start plus `import cliquefarm`, median of `repeats`."""
    times = []
    for _ in range(repeats):
        t0 = time.monotonic_ns()
        subprocess.run([sys.executable, "-c", "import cliquefarm"], env=env, check=True)
        times.append((time.monotonic_ns() - t0) / 1e6)
    return statistics.median(times)
