"""Sequential exact maximum clique search with a greedy colour bound.

The search grows a clique C from an ordered candidate set P. Each node
colour-sorts P greedily, then branches on vertices in non-increasing colour
order; a branch is cut when colour(v) + |C| cannot beat the incumbent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .graph import Graph, degree_sort


@dataclass
class SearchContext:
    """Mutable incumbent state for one search invocation."""

    best_clique: list[int] = field(default_factory=list)
    best_size: int = 0
    nodes: int = 0


def colour_sort(p: list[int], g: Graph) -> tuple[list[int], list[int]]:
    """Greedy sequential colouring of P in its given order: (stack, colours).

    Colour k is the greedy independent set, in P's order, of the vertices
    that colours 1..k-1 left, pushed onto the stack as it is taken; so
    popping from the end yields non-increasing colours. colours[i] is the
    colour of stack[i], from 1 up to the number used.
    """
    adj = g.adj
    stack: list[int] = []
    colours: list[int] = []
    k = 0
    while p:
        k += 1
        taken = 0
        rest = []
        for v in p:
            if adj[v] & taken:
                rest.append(v)
            else:
                taken |= 1 << v
                stack.append(v)
                colours.append(k)
        p = rest
    return stack, colours


def expand(
    c: list[int],
    p: list[int],
    ctx: SearchContext,
    g: Graph,
    keep: Callable[[int, SearchContext], bool] | None = None,
) -> None:
    """Explore cliques extending C with subsets of P; updates ctx in place.

    P must be ordered (degree order at the root, inherited below) and every
    vertex of P adjacent to all of C. `keep(label, ctx)`, when given, says
    whether to descend into the branch with that pop label (len(P) - 1 down
    to 0) at this node only; it may raise ctx.best_size.
    """
    ctx.nodes += 1
    stack, colours = colour_sort(p, g)
    adj = g.adj
    c_size = len(c)
    best = ctx.best_size
    popped = 0
    for i in range(len(stack) - 1, -1, -1):
        v = stack[i]
        if colours[i] + c_size <= best:
            return
        if keep is not None:
            kept = keep(i, ctx)
            best = ctx.best_size
            if colours[i] + c_size <= best:
                return
            if not kept:
                popped |= 1 << v
                continue
        c.append(v)
        av = adj[v]
        p2 = [w for w in p if av >> w & 1 and not popped >> w & 1]
        if not p2:
            if c_size + 1 > best:
                ctx.best_clique = c.copy()
                ctx.best_size = best = c_size + 1
        else:
            expand(c, p2, ctx, g)
            best = ctx.best_size
        c.pop()
        popped |= 1 << v


def mc(g: Graph) -> tuple[list[int], SearchContext]:
    """Find a maximum clique of g; returns (clique, stats).

    Deterministic: the same graph always yields the same clique and the same
    node count.
    """
    ctx = SearchContext()
    order = degree_sort(g)
    expand([], order, ctx, g)
    return sorted(ctx.best_clique), ctx
