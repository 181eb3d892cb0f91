"""Distributed search kernel: one job explores a slice of the search tree.

A job is an integer t in [0, f*n). Depth-1 branches are labelled in pop
order from (stack size - 1) down to 0; a job descends only into the depth-1
branch labelled t mod n, and within it only into depth-2 branches whose
label is congruent to floor(t / n) modulo the split factor f. Every depth-2
address is therefore covered by exactly one job, and running all f*n jobs
is equivalent to the sequential search.

The root's colouring depends on the graph alone, so it is built once
(colour_root) and shared by every job on that graph: a job pays only for
its own depth-1 subtree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import SearchContext, colour_sort, expand
from .graph import Graph

DEFAULT_SPLIT_FACTOR = 8

BoundRefresher = Callable[[SearchContext], None]


@dataclass(frozen=True)
class JobSpec:
    """One unit of distributable work: job id t plus the incumbent to inject."""

    t: int
    n: int
    f: int = DEFAULT_SPLIT_FACTOR
    c: int = 0

    def __post_init__(self) -> None:
        if self.n < 1 or self.f < 1:
            raise ValueError(f"need n >= 1 and f >= 1, got n={self.n} f={self.f}")
        if not 0 <= self.t < self.f * self.n:
            raise ValueError(f"job id {self.t} outside [0, {self.f * self.n})")
        if self.c < 0:
            raise ValueError(f"initial bound must be >= 0, got {self.c}")

    @property
    def first_level(self) -> int:
        return self.t % self.n

    @property
    def second_level_residue(self) -> int:
        return self.t // self.n


def job_membership(spec: JobSpec, first: int, second: int) -> bool:
    """True iff the depth-2 node with depth-1 label `first` and depth-2 label
    `second` belongs to this job's slice."""
    return first == spec.first_level and second % spec.f == spec.second_level_residue


@dataclass(frozen=True)
class Root:
    """The root node of the search, coloured as core.expand colours it.

    stack and colours are colour_sort(order, g); label[v] is the position
    of vertex v in stack (its depth-1 branch label) and rank[v] its
    position in order.
    """

    stack: list[int]
    colours: list[int]
    label: list[int]
    rank: list[int]


def colour_root(g: Graph, order: list[int]) -> Root:
    """Colour the root once; every job on g with this order can share it."""
    stack, colours = colour_sort(order, g)
    label = [0] * g.n
    for i, v in enumerate(stack):
        label[v] = i
    rank = [0] * g.n
    for i, v in enumerate(order):
        rank[v] = i
    return Root(stack, colours, label, rank)


def mc_dist(
    g: Graph,
    spec: JobSpec,
    order: list[int],
    refresher: BoundRefresher | None = None,
    root: Root | None = None,
) -> tuple[list[int], SearchContext]:
    """Run one job; returns ([] if nothing beats spec.c, else clique, stats).

    `order` must be degree_sort(g), the sequential search's ordering, so
    that branch labels agree across all jobs; workers compute it once per
    graph. `root` is colour_root(g, order), shared by every job on g;
    workers build it once next to `order`, and it is built here when not
    given. If the colour of the job's depth-1 branch beats spec.c, the
    search descends into that branch alone and core.expand filters its
    depth-2 branches through job_membership. `refresher`, when given, runs
    before each depth-2 branch of that depth-1 node and may raise
    ctx.best_size (periodic re-read of a shared incumbent).
    """
    if spec.n != g.n:
        raise ValueError(f"job is for n={spec.n} but graph has n={g.n}")
    if root is None:
        root = colour_root(g, order)
    elif len(root.stack) != g.n:
        raise ValueError(f"root has {len(root.stack)} vertices but graph has n={g.n}")
    ctx = SearchContext(best_size=spec.c, nodes=1)  # the root
    first = spec.first_level
    if root.colours[first] <= spec.c:
        return [], ctx

    def keep(label: int, ctx: SearchContext) -> bool:
        if refresher is not None:
            refresher(ctx)
        return job_membership(spec, first, label)

    v = root.stack[first]
    # v's neighbours still unpopped at the root (label below first), as in order
    label = root.label
    p1 = []
    av = g.adj[v]
    while av:
        low = av & -av
        w = low.bit_length() - 1
        if label[w] < first:
            p1.append(w)
        av ^= low
    p1.sort(key=root.rank.__getitem__)
    if p1:
        expand([v], p1, ctx, g, keep)
    elif spec.c == 0:
        ctx.best_clique, ctx.best_size = [v], 1
    return sorted(ctx.best_clique), ctx
