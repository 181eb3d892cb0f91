"""Reference maximum clique, written apart from cliquefarm.

A bitset branch-and-bound: vertices renumbered once by non-increasing
degree, candidate sets as ints, and a colour bound built from greedy
independent sets taken one after another. It shares no code with the
program it checks. Recompute the reference table with

    python3 bench/reference.py

which prints n, p, seed, edges and omega of every instance and exits 1 if
any differs from `instances.INSTANCES`.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from instances import INSTANCES, gnp  # noqa: E402


def max_clique(adj: list[int]) -> list[int]:
    """A maximum clique of the graph with adjacency bitmasks `adj`."""
    n = len(adj)
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())
    pos = {v: i for i, v in enumerate(order)}
    a = [0] * n
    for i, v in enumerate(order):
        for w in range(n):
            if adj[v] >> w & 1:
                a[i] |= 1 << pos[w]
    best: list[int] = []

    def search(clique: list[int], cand: int) -> None:
        nonlocal best
        # colour cand: class k is a greedy independent set of what is left
        verts, bounds, left, k = [], [], cand, 0
        while left:
            k += 1
            q = left
            while q:
                v = (q & -q).bit_length() - 1
                q &= ~(a[v] | 1 << v)
                left &= ~(1 << v)
                verts.append(v)
                bounds.append(k)
        for i in range(len(verts) - 1, -1, -1):
            if len(clique) + bounds[i] <= len(best):
                return
            v = verts[i]
            clique.append(v)
            sub = cand & a[v]
            if sub:
                search(clique, sub)
            elif len(clique) > len(best):
                best = clique.copy()
            clique.pop()
            cand &= ~(1 << v)

    search([], (1 << n) - 1)
    return sorted(order[v] for v in best)


def main() -> int:
    sys.setrecursionlimit(10_000)
    status = 0
    for name, inst in INSTANCES.items():
        t0 = time.monotonic()
        adj = gnp(inst.n, inst.p, inst.seed)
        omega = len(max_clique(adj))
        edges = sum(m.bit_count() for m in adj) // 2
        agree = edges == inst.edges and omega == inst.omega
        status |= not agree
        print(
            f"{name} n={inst.n} p={inst.p} seed={inst.seed} edges={edges} "
            f"omega={omega} {'ok' if agree else 'DIFFERS FROM TABLE'} "
            f"({time.monotonic() - t0:.1f} s)"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
