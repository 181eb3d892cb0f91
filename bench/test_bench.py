"""Tests of the benchmark's own parts: the output checks, the reference solver
and the instances. Run from the root of a checkout:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import itertools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from check import CheckError, check_farm, check_solve  # noqa: E402
from instances import INSTANCES, gnp, read_dimacs, relabel, write_dimacs  # noqa: E402
from reference import max_clique  # noqa: E402

JOBS = 2 * 12  # split factor 2 on 12 vertices


def cliquefarm(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "cliquefarm", *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def brute_omega(adj: list[int]) -> int:
    n = len(adj)
    for k in range(n, 0, -1):
        for vs in itertools.combinations(range(n), k):
            if all(adj[u] >> v & 1 for u, v in itertools.combinations(vs, 2)):
                return k
    return 0


@pytest.fixture(scope="module")
def farm(tmp_path_factory):
    """A finished one-worker farm on a 12-vertex graph, as cliquefarm leaves it."""
    d = tmp_path_factory.mktemp("farm")
    adj = gnp(12, 0.5, 3)
    write_dimacs(adj, d / "g.clq")
    cliquefarm("init", "--graph", str(d / "g.clq"), "--queue", str(d / "q"), "--split-factor", "2")
    worker = cliquefarm("work", "--graph", str(d / "g.clq"), "--queue", str(d / "q"), "--id", "w0")
    collect = cliquefarm("collect", "--queue", str(d / "q"))
    return d / "q", collect, worker, adj, brute_omega(adj)


@pytest.fixture
def queue(farm, tmp_path):
    q = tmp_path / "q"
    shutil.copytree(farm[0], q)
    return q


def check(farm, queue, collect=None, worker=None, omega=None):
    _, good_collect, good_worker, adj, good_omega = farm
    return check_farm(queue, collect or good_collect, [worker or good_worker], adj,
                      good_omega if omega is None else omega, JOBS)


def test_clean_farm_passes(farm, queue):
    assert len(check(farm, queue)) == JOBS


def test_wrong_omega_fails(farm, queue):
    omega = farm[4]
    with pytest.raises(CheckError, match="omega"):
        check(farm, queue, collect=farm[1].replace(f"omega={omega}", f"omega={omega - 1}"))
    with pytest.raises(CheckError, match="omega"):
        check(farm, queue, omega=omega + 1)


def test_witness_not_a_clique_fails(farm, queue):
    adj, omega = farm[3], farm[4]
    bad = next(vs for vs in itertools.combinations(range(12), omega)
               if not all(adj[u] >> v & 1 for u, v in itertools.combinations(vs, 2)))
    clique_line = next(line for line in farm[1].splitlines() if line.startswith("clique="))
    collect = farm[1].replace(clique_line, "clique=" + " ".join(str(v + 1) for v in bad))
    with pytest.raises(CheckError, match="not a clique"):
        check(farm, queue, collect=collect)


def test_missing_record_fails(farm, queue):
    (queue / "results" / "5").unlink()
    with pytest.raises(CheckError, match="missing"):
        check(farm, queue)


def test_duplicated_record_fails(farm, queue):
    shutil.copy(queue / "results" / "5", queue / "results" / "05")
    with pytest.raises(CheckError, match="unexpected"):
        check(farm, queue)
    (queue / "results" / "05").unlink()
    shutil.copy(queue / "results" / "5", queue / "results" / "6")
    with pytest.raises(CheckError, match="duplicated"):
        check(farm, queue)


@pytest.mark.parametrize("where", ["pending/07/7", "running/7"])
def test_job_left_behind_fails(farm, queue, where):
    (queue / where).touch()
    with pytest.raises(CheckError, match="left in"):
        check(farm, queue)


def test_best_and_worker_totals_are_checked(farm, queue):
    with pytest.raises(CheckError, match="jobs"):
        check(farm, queue, worker=farm[2].replace(f"jobs={JOBS}", f"jobs={JOBS - 1}"))
    (queue / "best").write_text("1\n")
    with pytest.raises(CheckError, match="best="):
        check(farm, queue)


def test_solve_check():
    adj = gnp(12, 0.5, 3)
    omega = brute_omega(adj)
    clique = max_clique(adj)
    out = "omega={}\nclique={}\nnodes=7\nwall_ms=1\n".format(omega, " ".join(str(v + 1) for v in clique))
    assert check_solve(out, adj, omega) == 7
    with pytest.raises(CheckError, match="omega"):
        check_solve(out, adj, omega + 1)
    with pytest.raises(CheckError):
        check_solve(out.replace("clique=", "clique=1 "), adj, omega)


@pytest.mark.parametrize("seed", range(30))
def test_reference_solver_matches_brute_force(seed):
    adj = gnp(14, [0.2, 0.5, 0.8][seed % 3], seed)
    clique = max_clique(adj)
    assert len(clique) == brute_omega(adj)
    assert all(adj[u] >> v & 1 for u, v in itertools.combinations(clique, 2))


def test_generator_matches_cliquefarm_gen(tmp_path):
    for name, inst in INSTANCES.items():
        cliquefarm("gen", "--n", str(inst.n), "--p", str(inst.p), "--seed", str(inst.seed),
                   "--out", str(tmp_path / name))
        assert read_dimacs(tmp_path / name) == gnp(inst.n, inst.p, inst.seed)


def test_relabel_is_isomorphic_and_keeps_degree_order():
    adj = gnp(60, 0.3, 1)
    for seed in range(3):
        new = relabel(adj, seed)
        assert sorted(m.bit_count() for m in new) == sorted(m.bit_count() for m in adj)
        assert len(max_clique(new)) == len(max_clique(adj))
    # the same search on every copy: cliquefarm's node count does not move
    sys.path.insert(0, str(SRC))
    from cliquefarm.core import mc
    from cliquefarm.graph import Graph

    def nodes(a):
        return mc(Graph(len(a), [(u, v) for u in range(len(a)) for v in range(u) if a[u] >> v & 1]))[1].nodes

    assert len({nodes(relabel(adj, seed)) for seed in range(4)} | {nodes(adj)}) == 1
