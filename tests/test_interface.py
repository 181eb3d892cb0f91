"""Names the benchmark under bench/ reaches by name.

bench/launch.py times each layer by wrapping its public module-level
functions, and bench/layers.py calls a few of them directly. A missing or
moved name does not fail the benchmark: its metric reads 0 or the kernel
probe is skipped. These checks make such a rename fail here instead.
"""

import dataclasses
import importlib
import inspect

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


def test_mc_dist_accepts_order():
    from cliquefarm.distkernel import mc_dist

    assert "order" in inspect.signature(mc_dist).parameters


def test_jobspec_fields():
    from cliquefarm import distkernel

    assert inspect.isclass(distkernel.JobSpec)
    fields = {f.name for f in dataclasses.fields(distkernel.JobSpec)}
    assert {"t", "n", "f", "c"} <= fields
