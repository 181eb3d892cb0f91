"""Checks of what cliquefarm printed and left on disk, against the benchmark's own data.

Each check raises CheckError on the first problem and otherwise returns the
search-node counts the outputs report.
"""

from __future__ import annotations

import os
from pathlib import Path


class CheckError(Exception):
    """The program's output is wrong or incomplete."""


def key_values(text: str) -> dict[str, str]:
    """`key=value` lines; later keys win, lines without `=` are skipped."""
    kv = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            kv[key.strip()] = value.strip()
    return kv


def check_clique(adj: list[int], clique_text: str, size: int, what: str) -> None:
    """`clique_text` (1-based, space separated) is a clique of `size` vertices."""
    try:
        vs = [int(x) - 1 for x in clique_text.split()]
    except ValueError:
        raise CheckError(f"{what}: unparseable clique {clique_text!r}")
    if len(vs) != size or len(set(vs)) != size:
        raise CheckError(f"{what}: witness has {len(set(vs))} distinct vertices, expected {size}")
    for i, u in enumerate(vs):
        if not 0 <= u < len(adj):
            raise CheckError(f"{what}: vertex {u + 1} outside 1..{len(adj)}")
        for v in vs[i + 1:]:
            if not adj[u] >> v & 1:
                raise CheckError(f"{what}: witness is not a clique, {u + 1} and {v + 1} are not adjacent")


def check_solve(stdout: str, adj: list[int], omega: int) -> int:
    kv = key_values(stdout)
    try:
        got, nodes, _ = int(kv["omega"]), int(kv["nodes"]), int(kv["wall_ms"])
    except (KeyError, ValueError) as exc:
        raise CheckError(f"solve: bad output ({exc}): {stdout!r}")
    if got != omega:
        raise CheckError(f"solve: omega={got}, reference omega={omega}")
    check_clique(adj, kv.get("clique", ""), omega, "solve")
    if nodes < 1:
        raise CheckError(f"solve: nodes={nodes}")
    return nodes


def check_farm(
    queue: Path, collect_out: str, worker_outs: list[str], adj: list[int], omega: int, jobs: int
) -> list[int]:
    """A drained queue of `jobs` jobs whose answer is `omega`; returns each record's nodes."""
    kv = key_values(collect_out)
    if kv.get("complete") != "true" or kv.get("missing") != "0":
        raise CheckError(f"collect: complete={kv.get('complete')} missing={kv.get('missing')}")
    if kv.get("omega") != str(omega):
        raise CheckError(f"collect: omega={kv.get('omega')}, reference omega={omega}")
    check_clique(adj, kv.get("clique", ""), omega, "collect")

    for sub in ("pending", "running"):
        left = [str(p.relative_to(queue)) for p in (queue / sub).rglob("*")
                if p.is_file() and not p.name.endswith(".lock")]
        if left:
            raise CheckError(f"{len(left)} job(s) left in {sub}/, e.g. {left[0]}")

    names = os.listdir(queue / "results")
    expected = {str(t) for t in range(jobs)}
    missing, extra = expected - set(names), set(names) - expected
    if missing or extra:
        raise CheckError(f"results/: missing {sorted(missing, key=int)[:5]}, unexpected {sorted(extra)[:5]}")
    nodes = []
    for name in names:
        rec = key_values((queue / "results" / name).read_text(encoding="ascii"))
        try:
            t, rec_omega, rec_nodes = int(rec["t"]), int(rec["omega"]), int(rec["nodes"])
        except (KeyError, ValueError) as exc:
            raise CheckError(f"results/{name}: bad record ({exc})")
        if name != str(t):
            raise CheckError(f"results/{name} holds the record of job {t}, which is duplicated")
        if rec_omega > omega or rec_nodes < 1:
            raise CheckError(f"results/{name}: omega={rec_omega} nodes={rec_nodes}")
        if rec_omega:
            check_clique(adj, rec.get("clique", ""), rec_omega, f"results/{name}")
        nodes.append(rec_nodes)

    best = (queue / "best").read_text(encoding="ascii").strip()
    if best != str(omega):
        raise CheckError(f"best={best}, reference omega={omega}")
    log = [int(line.split()[1]) for line in
           (queue / "best.log").read_text(encoding="ascii").splitlines() if line.strip()]
    if not log or log[-1] != omega or any(a >= b for a, b in zip(log, log[1:])):
        raise CheckError(f"best.log does not rise strictly to {omega}: {log}")

    done = 0
    for out in worker_outs:
        lines = [line for line in out.splitlines() if line.startswith("worker=")]
        if len(lines) != 1:
            raise CheckError(f"worker printed {len(lines)} summary lines")
        done += int(key_values(lines[0].replace(" ", "\n"))["jobs"])
    if done != jobs:
        raise CheckError(f"workers report {done} jobs, results/ holds {jobs}")
    return nodes
