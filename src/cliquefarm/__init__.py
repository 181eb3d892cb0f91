"""Exact maximum clique, sequential or distributed over a file-backed queue."""

from .core import SearchContext, colour_sort, expand, mc
from .distkernel import (
    BranchAddress,
    JobSpec,
    all_jobs,
    job_membership,
    mc_dist,
)
from .graph import (
    DimacsParseError,
    Graph,
    GraphError,
    brute_force_omega,
    degree_sort,
    generate_gnp,
    is_clique,
    load_dimacs,
    parse_dimacs,
    to_dimacs,
)
from .jobqueue import (
    CollectSummary,
    JobResultRecord,
    QueueError,
    QueueLayout,
    claim_job,
    claim_order,
    collect_results,
    init_queue,
    open_queue,
    pending_jobs,
    publish_result,
    read_best,
    requeue_stale,
    update_best,
)
from .report import RunReport, WorkerRow, build_report, emit_report, load_report
from .worker import WorkerConfig, WorkerSummary, run_job, worker_loop

__version__ = "0.1.0"
