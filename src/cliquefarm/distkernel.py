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

from .core import SearchContext, colour_sort, expand, renumber
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
    """The root node of the search, coloured as core.mc colours it.

    adj is g renumbered by order (core.renumber), and stack and colours
    are colour_sort of all of it, in those ids; stack[i] is the vertex of
    depth-1 branch label i. below[i] is the mask of stack[:i], the vertices
    still unpopped at the root when branch i is taken.
    """

    adj: list[int]
    stack: list[int]
    colours: list[int]
    below: list[int]


def colour_root(g: Graph, order: list[int]) -> Root:
    """Renumber and colour the root once; every job on g with this order
    can share it."""
    adj = renumber(g, order)
    stack, colours = colour_sort((1 << g.n) - 1, adj)
    below = []
    mask = 0
    for v in stack:
        below.append(mask)
        mask |= 1 << v
    return Root(adj, stack, colours, below)


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
    graph; the job searches in the ids it renumbers to, and its clique is
    mapped back through it. `root` is colour_root(g, order), shared by
    every job on g; workers build it once next to `order`, and it is built
    here when not given. If the colour of the job's depth-1 branch beats
    spec.c, the search descends into that branch alone and core.expand
    filters its depth-2 branches through job_membership. `refresher`, when
    given, runs before each depth-2 branch of that depth-1 node and may
    raise ctx.best_size (periodic re-read of a shared incumbent).
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
    p1 = root.adj[v] & root.below[first]
    if p1:
        expand([v], p1, ctx, root.adj, keep)
    elif spec.c == 0:
        ctx.best_clique, ctx.best_size = [v], 1
    ctx.best_clique = [order[u] for u in ctx.best_clique]
    return sorted(ctx.best_clique), ctx
