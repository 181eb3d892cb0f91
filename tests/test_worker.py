import io
import os
import time
from pathlib import Path

import pytest

from cliquefarm import distkernel, worker
from cliquefarm.core import mc
from cliquefarm.graph import degree_sort, generate_gnp, to_dimacs
from cliquefarm.jobqueue import (
    QueueError,
    claim_job,
    claim_order,
    collect_results,
    init_queue,
    open_queue,
    pending_jobs,
    read_best,
    requeue_stale,
)
from cliquefarm.worker import WorkerConfig, run_job, worker_loop

from conftest import complete_graph


def write_graph(tmp_path, g, name="g.clq"):
    path = tmp_path / name
    path.write_text(to_dimacs(g))
    return path


class TestRunJob:
    def test_bound_saturation(self, k5):
        record = run_job(k5, t=19, c=5, worker_id="w", f=8, order=degree_sort(k5))
        assert record.omega == 0
        assert record.clique == []

    def test_covering_job_finds_k5(self, k5):
        record = run_job(k5, t=19, c=0, worker_id="w", f=8, order=degree_sort(k5))
        assert record.omega == 5
        assert record.clique == [1, 2, 3, 4, 5]

    def test_counters_always_positive(self, k5):
        for t in range(40):
            record = run_job(k5, t=t, c=0, worker_id="w", f=8, order=degree_sort(k5))
            assert record.wall_ms > 0
            assert record.nodes >= 1
            assert record.finished_unix_ms >= record.started_unix_ms


class TestWorkerConfig:
    def test_empty_id_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WorkerConfig(worker_id="", graph_path=tmp_path, queue_root=tmp_path)


class TestWorkerLoop:
    def test_single_worker_drains_queue(self, tmp_path):
        g = generate_gnp(25, 0.5, 1)
        graph_path = write_graph(tmp_path, g)
        root = tmp_path / "q"
        init_queue(root, graph_path.name, n=g.n, f=8, fingerprint=g.fingerprint())
        log = io.StringIO()
        summary = worker_loop(
            WorkerConfig(worker_id="w0", graph_path=graph_path, queue_root=root),
            log=log,
        )
        assert summary.jobs == 8 * g.n
        layout = open_queue(root)
        result = collect_results(layout)
        assert result.complete
        omega = len(mc(g)[0])
        assert result.best_omega == omega
        assert read_best(layout) == omega
        assert len(log.getvalue().splitlines()) == 8 * g.n
        assert "best_in=" in log.getvalue()

    @pytest.mark.parametrize("n, f", [(4, 1), (12, 8)])
    def test_root_coloured_once_per_worker_loop(self, tmp_path, monkeypatch, n, f):
        calls = []
        colour_root = distkernel.colour_root

        def spy(g, order):
            calls.append(g.n)
            return colour_root(g, order)

        monkeypatch.setattr(distkernel, "colour_root", spy)
        g = generate_gnp(n, 0.5, 2)
        graph_path = write_graph(tmp_path, g)
        root = tmp_path / "q"
        init_queue(root, graph_path.name, n=g.n, f=f, fingerprint=g.fingerprint())
        summary = worker_loop(
            WorkerConfig(worker_id="w0", graph_path=graph_path, queue_root=root),
            log=io.StringIO(),
        )
        assert summary.jobs == f * n
        assert calls == [n]

    def test_every_job_gets_a_refresher(self, tmp_path, monkeypatch):
        refreshers = []
        mc_dist = worker.mc_dist

        def spy(g, spec, order, refresher=None, root=None):
            refreshers.append(refresher)
            return mc_dist(g, spec, order, refresher=refresher, root=root)

        monkeypatch.setattr(worker, "mc_dist", spy)
        g = generate_gnp(12, 0.5, 2)
        graph_path = write_graph(tmp_path, g)
        root = tmp_path / "q"
        init_queue(root, graph_path.name, n=g.n, f=8, fingerprint=g.fingerprint())
        summary = worker_loop(
            WorkerConfig(worker_id="w0", graph_path=graph_path, queue_root=root),
            log=io.StringIO(),
        )
        assert summary.jobs == len(refreshers) == 8 * g.n
        assert all(r is not None for r in refreshers)

    def test_empty_queue_zero_jobs(self, tmp_path):
        g = complete_graph(3)
        graph_path = write_graph(tmp_path, g)
        root = tmp_path / "q"
        layout = init_queue(root, graph_path.name, n=3, f=1, fingerprint=g.fingerprint())
        while claim_job(layout, range(3)) is not None:
            pass
        summary = worker_loop(
            WorkerConfig(worker_id="w0", graph_path=graph_path, queue_root=root)
        )
        assert summary.jobs == 0

    def test_job_requeued_behind_cursor_runs_on_next_pass(self, tmp_path):
        g = generate_gnp(12, 0.5, 2)
        graph_path = write_graph(tmp_path, g)
        root = tmp_path / "q"
        layout = init_queue(root, graph_path.name, n=g.n, f=8, fingerprint=g.fingerprint())
        # the worker's first pick is already taken, so its cursor passes it by
        first = claim_order(8 * g.n, 0)[0]
        assert claim_job(layout, [first]) == first
        requeued = []

        class RequeueOnFirstWrite(io.StringIO):
            def write(self, text):
                if not requeued:
                    old = time.time() - 120
                    os.utime(layout.running_dir / str(first), (old, old))
                    requeued.extend(requeue_stale(layout, 60))
                return super().write(text)

        summary = worker_loop(
            WorkerConfig(worker_id="w0", graph_path=graph_path, queue_root=root),
            log=RequeueOnFirstWrite(),
        )
        assert requeued == [first]
        assert summary.jobs == 8 * g.n
        assert collect_results(layout).complete

    def test_last_pass_walks_only_pending_jobs(self, tmp_path, monkeypatch):
        g = generate_gnp(12, 0.5, 2)
        graph_path = write_graph(tmp_path, g)
        root = tmp_path / "q"
        layout = init_queue(root, graph_path.name, n=g.n, f=2, fingerprint=g.fingerprint())
        real_rename = os.rename
        from_pending = []

        def counting_rename(src, dst):
            if Path(src).parent.parent == layout.pending_dir:
                from_pending.append(src)
            real_rename(src, dst)

        monkeypatch.setattr(os, "rename", counting_rename)
        summary = worker_loop(
            WorkerConfig(worker_id="w0", graph_path=graph_path, queue_root=root)
        )
        assert summary.jobs == 24
        assert len(from_pending) == 24

    def test_job_requeued_while_running_is_dropped_and_rerun(self, tmp_path, monkeypatch):
        g = generate_gnp(12, 0.5, 2)
        graph_path = write_graph(tmp_path, g)
        root = tmp_path / "q"
        layout = init_queue(root, graph_path.name, n=g.n, f=8, fingerprint=g.fingerprint())
        real_run_job = worker.run_job
        requeued = []

        def requeue_own_job_once(g, t, *args, **kwargs):
            if not requeued:
                old = time.time() - 120
                os.utime(layout.running_dir / str(t), (old, old))
                requeued.extend(requeue_stale(layout, 60))
            return real_run_job(g, t, *args, **kwargs)

        monkeypatch.setattr(worker, "run_job", requeue_own_job_once)
        log = io.StringIO()
        summary = worker_loop(
            WorkerConfig(worker_id="w0", graph_path=graph_path, queue_root=root),
            log=log,
        )
        assert requeued == [claim_order(8 * g.n, 0)[0]]
        assert f"job={requeued[0]} dropped=requeued" in log.getvalue().splitlines()
        assert summary.jobs == 8 * g.n
        result = collect_results(layout)
        assert result.complete
        assert result.best_omega == read_best(layout) == len(mc(g)[0])

    def test_graph_meta_mismatch_refused(self, tmp_path):
        graph_path = write_graph(tmp_path, complete_graph(4))
        root = tmp_path / "q"
        init_queue(
            root, graph_path.name, n=9, f=8, fingerprint=complete_graph(9).fingerprint()
        )
        with pytest.raises(QueueError, match="n=9"):
            worker_loop(
                WorkerConfig(worker_id="w0", graph_path=graph_path, queue_root=root)
            )

    def test_other_graph_with_same_n_refused_before_any_claim(self, tmp_path):
        made_for = generate_gnp(30, 0.5, 1)
        other = generate_gnp(30, 0.9, 2)
        root = tmp_path / "q"
        layout = init_queue(root, "a.clq", n=30, f=8, fingerprint=made_for.fingerprint())
        with pytest.raises(QueueError, match="another graph"):
            worker_loop(
                WorkerConfig(
                    worker_id="w0",
                    graph_path=write_graph(tmp_path, other),
                    queue_root=root,
                )
            )
        assert os.listdir(layout.running_dir) == []
        assert len(pending_jobs(layout)) == 8 * 30

    def test_meta_without_fingerprint_refused(self, tmp_path):
        g = generate_gnp(12, 0.5, 2)
        graph_path = write_graph(tmp_path, g)
        root = tmp_path / "q"
        layout = init_queue(root, graph_path.name, n=g.n, f=8, fingerprint=g.fingerprint())
        layout.meta_path.write_text(f"graph={graph_path.name}\nn={g.n}\nf=8\n")
        with pytest.raises(QueueError, match="fingerprint missing"):
            worker_loop(
                WorkerConfig(worker_id="w0", graph_path=graph_path, queue_root=root)
            )
        assert os.listdir(layout.running_dir) == []

    def test_two_sequential_workers_partition_jobs(self, tmp_path):
        g = generate_gnp(12, 0.5, 2)
        graph_path = write_graph(tmp_path, g)
        root = tmp_path / "q"
        init_queue(root, graph_path.name, n=g.n, f=8, fingerprint=g.fingerprint())

        # claim half the queue into a second "worker" by hand, then drain both
        layout = open_queue(root)
        s1 = worker_loop(
            WorkerConfig(worker_id="a", graph_path=graph_path, queue_root=root, rng_seed=1)
        )
        s2 = worker_loop(
            WorkerConfig(worker_id="b", graph_path=graph_path, queue_root=root, rng_seed=2)
        )
        assert s1.jobs == 8 * g.n
        assert s2.jobs == 0
        assert collect_results(layout).complete

    def test_periodic_reread_policy_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(worker, "REREAD_BEST_SECONDS", 0.001)
        g = generate_gnp(20, 0.5, 3)
        graph_path = write_graph(tmp_path, g)
        root = tmp_path / "q"
        init_queue(root, graph_path.name, n=g.n, f=8, fingerprint=g.fingerprint())
        summary = worker_loop(
            WorkerConfig(worker_id="w0", graph_path=graph_path, queue_root=root)
        )
        assert summary.jobs == 8 * g.n
        assert collect_results(open_queue(root)).best_omega == len(mc(g)[0])
