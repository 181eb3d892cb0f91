import sys

import pytest

from cliquefarm.distkernel import DEFAULT_SPLIT_FACTOR, JobSpec
from cliquefarm.graph import Graph

sys.setrecursionlimit(100_000)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def empty_graph(n: int) -> Graph:
    return Graph(n)


def all_jobs(n: int, f: int = DEFAULT_SPLIT_FACTOR, c: int = 0) -> list[JobSpec]:
    """The full f*n-job partition for a graph of n vertices."""
    return [JobSpec(t=t, n=n, f=f, c=c) for t in range(f * n)]


@pytest.fixture
def k5() -> Graph:
    return complete_graph(5)


@pytest.fixture
def c5() -> Graph:
    return cycle_graph(5)
