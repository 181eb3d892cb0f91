import os
import subprocess
import sys

import pytest

import cliquefarm
from cliquefarm.cli import main
from cliquefarm.graph import load_dimacs, to_dimacs
from cliquefarm.jobqueue import open_queue, pending_jobs

from conftest import complete_graph, cycle_graph


def write_graph(tmp_path, g, name="g.clq"):
    path = tmp_path / name
    path.write_text(to_dimacs(g))
    return path


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_k5(self, tmp_path, capsys, k5):
        path = write_graph(tmp_path, k5)
        code, out, _ = run_cli(capsys, "solve", path)
        assert code == 0
        assert "omega=5" in out
        assert "clique=1 2 3 4 5" in out
        assert "nodes=" in out and "wall_ms=" in out

    def test_c5(self, tmp_path, capsys, c5):
        path = write_graph(tmp_path, c5)
        code, out, _ = run_cli(capsys, "solve", path)
        assert code == 0
        assert "omega=2" in out

    def test_parse_error_nonzero_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.clq"
        path.write_text("p edge 2 1\ne 5 6\n")
        code, _, err = run_cli(capsys, "solve", path)
        assert code == 1
        assert "error:" in err

    def test_non_ascii_edge_line_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.clq"
        path.write_bytes(b"p edge 3 2\ne 1 2\ne 2 3\xe9\n")
        code, _, err = run_cli(capsys, "solve", path)
        assert code == 1
        assert err.startswith("error: line 3:")

    def test_missing_file_nonzero_exit(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "solve", tmp_path / "nope.clq")
        assert code == 1


class TestOracle:
    def test_k4(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(4))
        code, out, _ = run_cli(capsys, "oracle", path)
        assert code == 0
        assert "omega=4" in out

    def test_matches_solve(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "gen", "--n", 20, "--p", 0.5, "--seed", 7, "--out", tmp_path / "g.clq"
        )
        assert code == 0
        _, solve_out, _ = run_cli(capsys, "solve", tmp_path / "g.clq")
        _, oracle_out, _ = run_cli(capsys, "oracle", tmp_path / "g.clq")
        get = lambda out: out.splitlines()[0]
        assert get(solve_out) == get(oracle_out)

    def test_too_large_rejected(self, tmp_path, capsys):
        run_cli(capsys, "gen", "--n", 40, "--p", 0.1, "--seed", 1, "--out", tmp_path / "g.clq")
        code, _, err = run_cli(capsys, "oracle", tmp_path / "g.clq")
        assert code == 1
        assert "32" in err


class TestGen:
    def test_round_trips_k5(self, tmp_path, capsys):
        out_path = tmp_path / "k5.clq"
        code, _, _ = run_cli(
            capsys, "gen", "--n", 5, "--p", 1.0, "--seed", 3, "--out", out_path
        )
        assert code == 0
        assert load_dimacs(out_path) == complete_graph(5)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.clq", tmp_path / "b.clq"
        run_cli(capsys, "gen", "--n", 60, "--p", 0.4, "--seed", 11, "--out", a)
        run_cli(capsys, "gen", "--n", 60, "--p", 0.4, "--seed", 11, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestQueueCommands:
    def test_init_then_collect_before_workers(self, tmp_path, capsys):
        g = write_graph(tmp_path, cycle_graph(6))
        code, out, _ = run_cli(capsys, "init", "--graph", g, "--queue", tmp_path / "q")
        assert code == 0
        assert "48 jobs" in out
        code, out, _ = run_cli(capsys, "collect", "--queue", tmp_path / "q")
        assert code == 0
        assert "complete=false" in out
        assert "missing=48" in out

    def test_init_refuses_reuse(self, tmp_path, capsys):
        g = write_graph(tmp_path, cycle_graph(6))
        run_cli(capsys, "init", "--graph", g, "--queue", tmp_path / "q")
        code, _, err = run_cli(capsys, "init", "--graph", g, "--queue", tmp_path / "q")
        assert code == 1
        assert "not empty" in err

    def test_init_non_ascii_graph_name_leaves_no_queue(self, tmp_path, capsys):
        g = write_graph(tmp_path, cycle_graph(6), name="g\u00e9.clq")
        q = tmp_path / "q"
        code, _, err = run_cli(capsys, "init", "--graph", g, "--queue", q)
        assert code == 1
        assert "error:" in err
        assert not q.exists()

    def test_work_refuses_another_graph_with_same_n(self, tmp_path, capsys):
        from cliquefarm.graph import generate_gnp

        made_for = write_graph(tmp_path, generate_gnp(30, 0.5, 1), name="a.clq")
        other = write_graph(tmp_path, generate_gnp(30, 0.9, 2), name="b.clq")
        q = tmp_path / "q"
        run_cli(capsys, "init", "--graph", made_for, "--queue", q)
        code, _, err = run_cli(
            capsys, "work", "--graph", other, "--queue", q, "--id", "w0"
        )
        assert code == 1
        assert "error:" in err
        assert os.listdir(q / "results") == []

    def test_split_factor_flag(self, tmp_path, capsys):
        g = write_graph(tmp_path, cycle_graph(6))
        code, out, _ = run_cli(
            capsys, "init", "--graph", g, "--queue", tmp_path / "q",
            "--split-factor", 3,
        )
        assert code == 0
        assert "18 jobs" in out

    def test_full_cycle_init_work_collect_report(self, tmp_path, capsys):
        from cliquefarm.core import mc

        graph = cycle_graph(6)
        g = write_graph(tmp_path, graph)
        q = tmp_path / "q"
        run_cli(capsys, "init", "--graph", g, "--queue", q)
        code, out, _ = run_cli(
            capsys, "work", "--graph", g, "--queue", q, "--id", "w0", "--seed", 4
        )
        assert code == 0
        assert "jobs=48" in out
        code, out, _ = run_cli(capsys, "collect", "--queue", q)
        assert code == 0
        assert "complete=true" in out
        assert f"omega={len(mc(graph)[0])}" in out
        assert "makespan_ms=" in out
        code, out, _ = run_cli(
            capsys, "report", "--queue", q, "--out", tmp_path / "rep",
            "--baseline-wall-ms", 100000,
        )
        assert code == 0
        assert "speedup=" in out
        for name in ("busy.csv", "workers.csv", "tail.csv", "summary.csv"):
            assert (tmp_path / "rep" / name).is_file()

    def test_work_ignores_a_job_file_beyond_f_times_n(self, tmp_path, capsys):
        g = write_graph(tmp_path, complete_graph(3))
        q = tmp_path / "q"
        run_cli(capsys, "init", "--graph", g, "--queue", q, "--split-factor", 1)
        stray = q / "pending" / "05" / "105"
        stray.touch()
        src = os.path.dirname(os.path.dirname(cliquefarm.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "cliquefarm", "work",
             "--graph", str(g), "--queue", str(q), "--id", "w0"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=30,
        )
        assert out.returncode == 0, out.stderr
        assert "jobs=3" in out.stdout
        assert stray.is_file()

    @pytest.mark.parametrize(
        "worker_id", ["", "wörker", "a\nomega=9"], ids=["empty", "non-ascii", "newline"]
    )
    def test_work_empty_id_is_an_error(self, tmp_path, capsys, worker_id):
        g = write_graph(tmp_path, cycle_graph(6))
        q = tmp_path / "q"
        run_cli(capsys, "init", "--graph", g, "--queue", q)
        code, _, err = run_cli(
            capsys, "work", "--graph", g, "--queue", q, "--id", worker_id
        )
        assert code == 1
        assert err.startswith("error:")
        assert os.listdir(q / "results") == []
        assert os.listdir(q / "running") == []
        assert len(pending_jobs(open_queue(q))) == 48

    def test_requeue(self, tmp_path, capsys):
        g = write_graph(tmp_path, cycle_graph(6))
        q = tmp_path / "q"
        run_cli(capsys, "init", "--graph", g, "--queue", q)
        # strand one claimed job, backdate it, then requeue
        from cliquefarm.jobqueue import claim_job, open_queue

        layout = open_queue(q)
        t = claim_job(layout, range(48))
        old = 0
        os.utime(layout.running_dir / str(t), (old, old))
        code, out, _ = run_cli(capsys, "requeue", "--queue", q, "--grace-seconds", 5)
        assert code == 0
        assert "requeued=1" in out
        assert f"ids={t}" in out

    @pytest.mark.parametrize("baseline", [0, -5])
    def test_report_rejects_non_positive_baseline(self, tmp_path, capsys, baseline):
        g = write_graph(tmp_path, cycle_graph(6))
        q = tmp_path / "q"
        run_cli(capsys, "init", "--graph", g, "--queue", q)
        run_cli(capsys, "work", "--graph", g, "--queue", q, "--id", "w0")
        code, out, err = run_cli(
            capsys, "report", "--queue", q, "--out", tmp_path / "rep",
            "--baseline-wall-ms", baseline,
        )
        assert code == 1
        assert err.startswith("error:") and "baseline" in err
        assert "speedup=" not in out
        assert not (tmp_path / "rep").exists()

    def test_report_without_results_fails(self, tmp_path, capsys):
        g = write_graph(tmp_path, cycle_graph(6))
        q = tmp_path / "q"
        run_cli(capsys, "init", "--graph", g, "--queue", q)
        code, _, err = run_cli(capsys, "report", "--queue", q, "--out", tmp_path / "rep")
        assert code == 1
        assert err == "error: no records to report on\n"
        assert not (tmp_path / "rep").exists()
