"""Names the benchmark under bench/ reaches by name.

bench/launch.py times each layer by wrapping its public module-level
functions, and bench/layers.py calls a few of them directly. A missing or
moved name does not fail the benchmark: its metric reads 0 or the kernel
probe is skipped. These checks make such a rename fail here instead. The
queue contract the benchmark leans on is checked here too: launch.py tags
later spans with the job id claim_job returns, and check.py looks for jobs
left behind in pending/NN/.
"""

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys

import pytest

FUNCTIONS = {
    "graph": ["load_dimacs", "degree_sort"],
    "core": ["mc", "colour_sort"],
    "distkernel": ["mc_dist"],
    "jobqueue": [
        "claim_job",
        "read_best",
        "update_best",
        "publish_result",
        "init_queue",
        "collect_results",
    ],
    "worker": ["worker_loop"],
    "report": ["build_report", "emit_report"],
}


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in FUNCTIONS.items() for n in names]
)
def test_module_level_function(module, name):
    mod = importlib.import_module(f"cliquefarm.{module}")
    fn = getattr(mod, name, None)
    assert inspect.isfunction(fn), f"{module}.{name} is not a function"
    assert fn.__module__ == mod.__name__, f"{module}.{name} is defined elsewhere"


def test_package_import_loads_every_layer():
    # launch.py imports the package, then looks each layer up in sys.modules
    import cliquefarm

    src = os.path.dirname(os.path.dirname(cliquefarm.__file__))
    code = (
        "import sys, cliquefarm; "
        f"print([m for m in {sorted(FUNCTIONS)!r} if 'cliquefarm.' + m not in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"  # layers the package import left unloaded


def test_mc_dist_accepts_order():
    from cliquefarm.distkernel import mc_dist

    assert "order" in inspect.signature(mc_dist).parameters


def test_jobspec_fields():
    from cliquefarm import distkernel

    assert inspect.isclass(distkernel.JobSpec)
    fields = {f.name for f in dataclasses.fields(distkernel.JobSpec)}
    assert {"t", "n", "f", "c"} <= fields


def test_claim_job_returns_int_ids_then_none(tmp_path):
    from cliquefarm import jobqueue

    layout = jobqueue.init_queue(tmp_path / "q", "toy", n=1, f=3, fingerprint="toy")
    jobs = iter(jobqueue.claim_order(3, 0))
    claimed = [jobqueue.claim_job(layout, jobs) for _ in range(3)]
    assert all(type(t) is int for t in claimed)
    assert sorted(claimed) == [0, 1, 2]
    assert jobqueue.claim_job(layout, jobs) is None


def test_drained_queue_keeps_pending_shard_dirs(tmp_path):
    from cliquefarm import jobqueue

    layout = jobqueue.init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
    while jobqueue.claim_job(layout, range(16)) is not None:
        pass
    names = sorted(os.listdir(layout.pending_dir))
    assert names == [f"{i:02d}" for i in range(100)]


def counting_colour_sort(monkeypatch):
    """Replace cliquefarm.core.colour_sort on its module, as launch.py does,
    by a wrapper that counts its calls; returns the one-element counter."""
    from cliquefarm import core

    calls = [0]
    inner = core.colour_sort

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(core, "colour_sort", counted)
    return calls


def test_mc_colours_once_per_node_through_the_module(monkeypatch):
    # the core.colour_sort_* metrics count these calls: a kernel that
    # colours without calling the module's colour_sort would read 0 there
    from cliquefarm.core import mc
    from cliquefarm.graph import generate_gnp

    g = generate_gnp(60, 0.9, 3)
    calls = counting_colour_sort(monkeypatch)
    _, ctx = mc(g)
    assert calls[0] == ctx.nodes


def test_mc_dist_colours_once_per_node_below_a_shared_root(monkeypatch):
    from cliquefarm.distkernel import JobSpec, colour_root, mc_dist
    from cliquefarm.graph import degree_sort, generate_gnp

    g = generate_gnp(60, 0.9, 3)
    order = degree_sort(g)
    root = colour_root(g, order)
    calls = counting_colour_sort(monkeypatch)
    for t in range(8 * g.n):
        calls[0] = 0
        _, ctx = mc_dist(g, JobSpec(t=t, n=g.n, f=8), order, root=root)
        assert calls[0] == ctx.nodes - 1, t  # the shared root is not coloured again
