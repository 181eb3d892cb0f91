"""Exact maximum clique, sequential or distributed over a file-backed queue."""

from . import core, distkernel, graph, jobqueue, report, worker  # noqa: F401

__version__ = "0.1.0"
