"""Graph representation, DIMACS I/O, random instances and a brute-force oracle.

Vertices are 0-based internally; DIMACS files are 1-based. The offset is
applied where a vertex crosses to or from the user: at parse and serialise
here, and where a clique is printed or recorded (cli.cmd_solve,
cli.cmd_oracle and worker.worker_loop).
"""

from __future__ import annotations

import random
import zlib
from typing import Iterable

BRUTE_FORCE_LIMIT = 32


class GraphError(Exception):
    """Malformed input or an operation outside a graph's domain."""


class DimacsParseError(GraphError):
    """DIMACS text that cannot be parsed; carries the offending line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph:
    """Immutable simple undirected graph with O(1) adjacency tests.

    Adjacency is stored as one integer bitmask per vertex, which keeps the
    dense benchmark instances compact and makes neighbourhood intersection a
    single AND.
    """

    __slots__ = ("n", "adj", "degree")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"vertex out of range: ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop on vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = adj
        self.degree = [m.bit_count() for m in adj]

    def fingerprint(self) -> str:
        """CRC-32 of n and the adjacency masks, as 8 hex digits.

        Equal graphs give equal prints; two different graphs share one with
        odds of about 2**-32, enough to catch a worker given the wrong file.
        Not sha256: importing hashlib loads OpenSSL, about 3.7 MB more peak
        RSS in each process that hashes, where zlib is loaded already.
        """
        width = (self.n + 7) // 8
        masks = b"".join(m.to_bytes(width, "little") for m in self.adj)
        return format(zlib.crc32(b"%d\n" % self.n + masks), "08x")

    def edge_count(self) -> int:
        return sum(self.degree) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1:
                    out.append((u, v))
                rest >>= 1
                v += 1
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS clique format (`c`, `p edge <n> <m>`, `e <u> <v>` lines).

    Duplicate edges collapse silently; the edge count on the `p` line is
    advisory and not validated. Raises DimacsParseError with the line number
    on malformed input.
    """
    n = None
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise DimacsParseError(line_no, "duplicate p line")
            if len(fields) != 4 or fields[1] != "edge":
                raise DimacsParseError(line_no, f"malformed p line: {line!r}")
            try:
                n = int(fields[2])
            except ValueError:
                raise DimacsParseError(line_no, f"bad vertex count: {fields[2]!r}")
            if n < 1:
                raise DimacsParseError(line_no, f"vertex count must be >= 1, got {n}")
        elif fields[0] == "e":
            if n is None:
                raise DimacsParseError(line_no, "e line before p line")
            if len(fields) != 3:
                raise DimacsParseError(line_no, f"malformed e line: {line!r}")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise DimacsParseError(line_no, f"bad edge endpoints: {line!r}")
            if u < 1 or u > n or v < 1 or v > n:
                raise DimacsParseError(
                    line_no, f"vertex index out of range 1..{n}: {line!r}"
                )
            if u == v:
                raise DimacsParseError(line_no, f"self-loop: e {u} {v}")
            edges.append((u - 1, v - 1))
        else:
            raise DimacsParseError(line_no, f"unrecognised line: {line!r}")
    if n is None:
        raise DimacsParseError(0, "missing p line")
    return Graph(n, edges)


def to_dimacs(g: Graph, comment: str | None = None) -> str:
    """Serialise to canonical DIMACS text; parse_dimacs(to_dimacs(g)) == g."""
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    edges = g.edges()
    lines.append(f"p edge {g.n} {len(edges)}")
    for u, v in edges:
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def load_dimacs(path) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_dimacs(fh.read())


def generate_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic in (n, p, seed).

    Pairs (u, v) with u < v are visited in lexicographic order and each is
    included when the next float from random.Random(seed) is below p. The
    stream is therefore fully reproducible on any platform running the same
    Python random module.
    """
    if n < 1:
        raise GraphError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p must be in [0, 1], got {p}")
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph(n, edges)


def degree_sort(g: Graph) -> list[int]:
    """Vertices in non-increasing degree order, ties by ascending index."""
    return sorted(range(g.n), key=lambda v: (-g.degree[v], v))


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff every pair in `vertices` is adjacent (vacuously for |S| <= 1)."""
    vs = list(vertices)
    for v in vs:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} outside graph of {g.n} vertices")
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if not (g.adj[u] >> v & 1):
                return False
    return True


def brute_force_omega(g: Graph) -> tuple[int, list[int]]:
    """Exact maximum clique by exhaustive maximal-clique enumeration.

    Independent of the colour-bound search path: a plain Bron-Kerbosch
    recursion with pivoting, no colouring, no ordering heuristics. Guarded to
    small graphs since it enumerates every maximal clique.
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise GraphError(
            f"brute-force oracle limited to {BRUTE_FORCE_LIMIT} vertices, got {g.n}"
        )
    adj = g.adj
    best_size = 0
    best_mask = 0

    def extend(r_mask: int, r_size: int, p_mask: int, x_mask: int) -> None:
        nonlocal best_size, best_mask
        if not p_mask and not x_mask:
            if r_size > best_size:
                best_size = r_size
                best_mask = r_mask
            return
        # pivot: vertex of P|X with most neighbours in P
        pivot, pivot_deg = -1, -1
        scan = p_mask | x_mask
        while scan:
            u = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            d = (adj[u] & p_mask).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = u, d
        cand = p_mask & ~adj[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            av = adj[v]
            extend(r_mask | 1 << v, r_size + 1, p_mask & av, x_mask & av)
            p_mask &= ~(1 << v)
            x_mask |= 1 << v

    extend(0, 0, (1 << g.n) - 1, 0)
    witness = [v for v in range(g.n) if best_mask >> v & 1]
    return best_size, witness
