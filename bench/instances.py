"""Benchmark instances: G(n, p) graphs, a seed-driven relabelling, DIMACS I/O.

Nothing here imports cliquefarm. The generator, the DIMACS parser and the
reference table belong to the benchmark, so a fault in the program cannot
hide in the data it is checked against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Instance:
    n: int
    p: float
    seed: int
    edges: int  # edge count, guards against a drifting generator
    omega: int  # from reference.py, never from cliquefarm


# Recompute with `python3 bench/reference.py`; README.md lists the same.
INSTANCES = {
    "G120_0.9_7": Instance(n=120, p=0.9, seed=7, edges=6423, omega=32),
    "G1000_0.1_0": Instance(n=1000, p=0.1, seed=0, edges=50020, omega=6),
}


def gnp(n: int, p: float, seed: int) -> list[int]:
    """G(n, p) as adjacency bitmasks.

    Pairs u < v are visited in lexicographic order and each is an edge when
    the next float of random.Random(seed) is below p, which is the
    definition `cliquefarm gen` documents; the instance names follow it.
    """
    rng = random.Random(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def relabel(adj: list[int], seed: int) -> list[int]:
    """An isomorphic copy of the graph, its vertex labels drawn from `seed`.

    Labels are shuffled across degree classes but keep their relative order
    inside each class. A solver that orders vertices by degree and breaks
    ties by label therefore sees the same order on every copy: each seed
    gives a different input file and the same search.
    """
    n = len(adj)
    degree = [m.bit_count() for m in adj]
    classes = sorted(degree)
    random.Random(f"bench-relabel-{seed}").shuffle(classes)
    free: dict[int, list[int]] = {}
    for label in range(n - 1, -1, -1):
        free.setdefault(classes[label], []).append(label)
    new = [free[degree[v]].pop() for v in range(n)]
    out = [0] * n
    for v in range(n):
        m, nv = adj[v], new[v]
        while m:
            low = m & -m
            out[nv] |= 1 << new[low.bit_length() - 1]
            m ^= low
    return out


def make_graph(name: str, seed: int) -> list[int]:
    inst = INSTANCES[name]
    adj = gnp(inst.n, inst.p, inst.seed)
    edges = sum(m.bit_count() for m in adj) // 2
    if edges != inst.edges:
        raise RuntimeError(f"{name}: generated {edges} edges, table says {inst.edges}")
    return relabel(adj, seed)


def write_dimacs(adj: list[int], path: Path) -> None:
    n = len(adj)
    lines = [f"p edge {n} {sum(m.bit_count() for m in adj) // 2}"]
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u] >> v & 1:
                lines.append(f"e {u + 1} {v + 1}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_dimacs(path: Path) -> list[int]:
    """Adjacency bitmasks, 0-based, from a DIMACS `p edge` file."""
    adj: list[int] = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            adj = [0] * int(fields[2])
        elif fields[0] == "e":
            u, v = int(fields[1]) - 1, int(fields[2]) - 1
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        else:
            raise ValueError(f"{path}: unexpected line {line!r}")
    return adj
