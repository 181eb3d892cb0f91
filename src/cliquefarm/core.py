"""Sequential exact maximum clique search with a greedy colour bound.

The search grows a clique C from a candidate set P. Each node colour-sorts
P greedily, then branches on vertices in non-increasing colour order; a
branch is cut when colour(v) + |C| cannot beat the incumbent.

The kernel is bit-parallel, after BBMC (San Segundo, Rodriguez-Losada &
Jimenez, Computers & OR 38(2), 2011). The vertices are renumbered once, in
degree_sort order, so that new id i is order[i]; P is then one int mask
whose ascending bits are in degree order, and a child's candidates are
P & adj[v]. Witnesses are mapped back to the caller's ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from .graph import Graph, degree_sort


@dataclass
class SearchContext:
    """Mutable incumbent state for one search invocation."""

    best_clique: list[int] = field(default_factory=list)
    best_size: int = 0
    nodes: int = 0


def renumber(g: Graph, order: list[int]) -> list[int]:
    """g's adjacency masks with vertex order[i] renamed i.

    Each row is written as an n-digit binary string, most significant digit
    (vertex n-1) first, and its digits are picked in the new order.
    """
    n = g.n
    pick = itemgetter(*[n - 1 - v for v in reversed(order)])
    digits = f"0{n}b"
    return [int("".join(pick(format(g.adj[v], digits))), 2) for v in order]


def colour_sort(p: int, adj: list[int]) -> tuple[list[int], list[int]]:
    """Greedy sequential colouring of the mask P in ascending bit order:
    (stack, colours).

    Colour k is the greedy independent set, lowest bit first, of the
    vertices that colours 1..k-1 left, pushed onto the stack as it is taken;
    so popping from the end yields non-increasing colours. colours[i] is the
    colour of stack[i], from 1 up to the number used.
    """
    stack: list[int] = []
    colours: list[int] = []
    push = stack.append
    k = 0
    while p:
        k += 1
        q = p
        while q:
            low = q & -q
            v = low.bit_length() - 1
            push(v)
            p ^= low
            q &= ~(adj[v] | low)
        colours += [k] * (len(stack) - len(colours))
    return stack, colours


def expand(
    c: list[int],
    p: int,
    ctx: SearchContext,
    adj: list[int],
    keep: Callable[[int, SearchContext], bool] | None = None,
) -> None:
    """Explore cliques extending C with subsets of the mask P; updates ctx
    in place.

    adj is renumbered (see renumber) and every vertex of P adjacent to all
    of C. `keep(label, ctx)`, when given, says whether to descend into the
    branch with that pop label (|P| - 1 down to 0) at this node only; it
    may raise ctx.best_size.
    """
    ctx.nodes += 1
    stack, colours = colour_sort(p, adj)
    c_size = len(c)
    best = ctx.best_size
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
                p ^= 1 << v
                continue
        c.append(v)
        p2 = p & adj[v]
        if not p2:
            if c_size + 1 > best:
                ctx.best_clique = c.copy()
                ctx.best_size = best = c_size + 1
        else:
            expand(c, p2, ctx, adj)
            best = ctx.best_size
        c.pop()
        p ^= 1 << v


def mc(g: Graph) -> tuple[list[int], SearchContext]:
    """Find a maximum clique of g; returns (clique, stats).

    Deterministic: the same graph always yields the same clique and the same
    node count. The clique and ctx.best_clique are in g's vertex ids.
    """
    ctx = SearchContext()
    order = degree_sort(g)
    expand([], (1 << g.n) - 1, ctx, renumber(g, order))
    ctx.best_clique = [order[v] for v in ctx.best_clique]
    return sorted(ctx.best_clique), ctx
