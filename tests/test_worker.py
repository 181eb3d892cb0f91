import io
import os
import time
from pathlib import Path

import pytest

from cliquefarm import distkernel, worker
from cliquefarm.core import mc
from cliquefarm.graph import generate_gnp, to_dimacs
from cliquefarm.jobqueue import (
    QueueError,
    claim_job,
    claim_order,
    collect_results,
    init_queue,
    open_queue,
    pending_jobs,
    read_best,
    read_best_log,
    requeue_stale,
    update_best,
)
from cliquefarm.worker import worker_loop

from conftest import complete_graph


def write_graph(tmp_path, g, name="g.clq"):
    path = tmp_path / name
    path.write_text(to_dimacs(g))
    return path


def drain_k5(tmp_path, k5, best=None):
    """The records of a K5 queue (f=8) drained by one worker, after `best`
    is proposed."""
    graph_path = write_graph(tmp_path, k5)
    layout = init_queue(tmp_path / "q", "k5.clq", n=5, f=8, fingerprint=k5.fingerprint())
    if best:
        update_best(layout, best)
    summary = worker_loop(graph_path, layout.root, "w", log=io.StringIO())
    assert summary.jobs == 40
    return {r.t: r for r in collect_results(layout).records}


class TestRunJob:
    """How worker_loop runs one job and records it."""

    def test_bound_saturation(self, tmp_path, k5):
        records = drain_k5(tmp_path, k5, best=[1, 2, 3, 4, 5])
        assert all(r.omega == 0 and r.clique == [] for r in records.values())

    def test_covering_job_finds_k5(self, tmp_path, k5):
        record = drain_k5(tmp_path, k5)[19]
        assert record.omega == 5
        assert record.clique == [1, 2, 3, 4, 5]

    def test_counters_always_positive(self, tmp_path, k5):
        records = drain_k5(tmp_path, k5)
        assert sorted(records) == list(range(40))
        for record in records.values():
            assert record.wall_ms > 0
            assert record.nodes >= 1
            assert record.finished_unix_ms >= record.started_unix_ms


class TestWorkerConfig:
    """worker_loop refuses a worker id that a result record cannot carry."""

    def _refused(self, tmp_path, worker_id):
        g = complete_graph(5)
        graph_path = write_graph(tmp_path, g)
        layout = init_queue(
            tmp_path / "q", "k5.clq", n=5, f=8, fingerprint=g.fingerprint()
        )
        with pytest.raises(QueueError, match="worker id"):
            worker_loop(graph_path, layout.root, worker_id)
        assert os.listdir(layout.running_dir) == []
        assert len(pending_jobs(layout)) == 40

    def test_empty_id_rejected(self, tmp_path):
        self._refused(tmp_path, "")

    @pytest.mark.parametrize(
        "worker_id",
        ["wörker", "a\nomega=9", "a\rb", "a\x0bb", "a\x1cb"],
        ids=["non-ascii", "newline", "carriage-return", "line-tab", "file-separator"],
    )
    def test_unrecordable_id_rejected(self, tmp_path, worker_id):
        self._refused(tmp_path, worker_id)


class TestWorkerLoop:
    def test_single_worker_drains_queue(self, tmp_path):
        g = generate_gnp(25, 0.5, 1)
        graph_path = write_graph(tmp_path, g)
        root = tmp_path / "q"
        init_queue(root, graph_path.name, n=g.n, f=8, fingerprint=g.fingerprint())
        log = io.StringIO()
        summary = worker_loop(graph_path, root, "w0", log=log)
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
        summary = worker_loop(graph_path, root, "w0", log=io.StringIO())
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
        summary = worker_loop(graph_path, root, "w0", log=io.StringIO())
        assert summary.jobs == len(refreshers) == 8 * g.n
        assert all(r is not None for r in refreshers)

    def test_empty_queue_zero_jobs(self, tmp_path):
        g = complete_graph(3)
        graph_path = write_graph(tmp_path, g)
        root = tmp_path / "q"
        layout = init_queue(root, graph_path.name, n=3, f=1, fingerprint=g.fingerprint())
        while claim_job(layout, range(3)) is not None:
            pass
        summary = worker_loop(graph_path, root, "w0")
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

        summary = worker_loop(graph_path, root, "w0", log=RequeueOnFirstWrite())
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
        summary = worker_loop(graph_path, root, "w0")
        assert summary.jobs == 24
        assert len(from_pending) == 24

    def test_job_requeued_while_running_is_dropped_and_rerun(self, tmp_path, monkeypatch):
        g = generate_gnp(12, 0.5, 2)
        graph_path = write_graph(tmp_path, g)
        root = tmp_path / "q"
        layout = init_queue(root, graph_path.name, n=g.n, f=8, fingerprint=g.fingerprint())
        real_mc_dist = worker.mc_dist
        requeued = []

        def requeue_own_job_once(g, spec, *args, **kwargs):
            if not requeued:
                old = time.time() - 120
                os.utime(layout.running_dir / str(spec.t), (old, old))
                requeued.extend(requeue_stale(layout, 60))
            return real_mc_dist(g, spec, *args, **kwargs)

        monkeypatch.setattr(worker, "mc_dist", requeue_own_job_once)
        log = io.StringIO()
        summary = worker_loop(graph_path, root, "w0", log=log)
        assert requeued == [claim_order(8 * g.n, 0)[0]]
        assert f"job={requeued[0]} dropped=requeued" in log.getvalue().splitlines()
        assert summary.jobs == 8 * g.n
        result = collect_results(layout)
        assert result.complete
        assert result.best_omega == read_best(layout) == len(mc(g)[0])

    def test_requeued_job_clique_is_logged_before_its_rerun(self, tmp_path, monkeypatch):
        g = generate_gnp(12, 0.5, 2)
        graph_path = write_graph(tmp_path, g)
        root = tmp_path / "q"
        layout = init_queue(root, graph_path.name, n=g.n, f=8, fingerprint=g.fingerprint())
        real_mc_dist = worker.mc_dist
        runs = []  # (t, best the job started from, its clique, witnesses before it ran)

        def requeue_own_job_once(g, spec, *args, **kwargs):
            if not runs:
                old = time.time() - 120
                os.utime(layout.running_dir / str(spec.t), (old, old))
                assert requeue_stale(layout, 60) == [spec.t]
            logged, _ = read_best_log(layout)
            clique, ctx = real_mc_dist(g, spec, *args, **kwargs)
            runs.append((spec.t, spec.c, [v + 1 for v in clique], logged))
            return clique, ctx

        monkeypatch.setattr(worker, "mc_dist", requeue_own_job_once)
        log = io.StringIO()
        worker_loop(graph_path, root, "w0", log=log)
        dropped, c, clique, _ = runs[0]
        assert f"job={dropped} dropped=requeued" in log.getvalue().splitlines()
        assert len(clique) > c  # the dropped run beat best
        rerun = [logged for t, _, _, logged in runs[1:] if t == dropped]
        assert len(rerun) == 1 and clique in rerun[0]
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
            worker_loop(graph_path, root, "w0")

    def test_other_graph_with_same_n_refused_before_any_claim(self, tmp_path):
        made_for = generate_gnp(30, 0.5, 1)
        other = generate_gnp(30, 0.9, 2)
        root = tmp_path / "q"
        layout = init_queue(root, "a.clq", n=30, f=8, fingerprint=made_for.fingerprint())
        with pytest.raises(QueueError, match="another graph"):
            worker_loop(write_graph(tmp_path, other), root, "w0")
        assert os.listdir(layout.running_dir) == []
        assert len(pending_jobs(layout)) == 8 * 30

    def test_meta_without_fingerprint_refused(self, tmp_path):
        g = generate_gnp(12, 0.5, 2)
        graph_path = write_graph(tmp_path, g)
        root = tmp_path / "q"
        layout = init_queue(root, graph_path.name, n=g.n, f=8, fingerprint=g.fingerprint())
        layout.meta_path.write_text(f"graph={graph_path.name}\nn={g.n}\nf=8\n")
        with pytest.raises(QueueError, match="fingerprint missing"):
            worker_loop(graph_path, root, "w0")
        assert os.listdir(layout.running_dir) == []

    def test_two_sequential_workers_partition_jobs(self, tmp_path):
        g = generate_gnp(12, 0.5, 2)
        graph_path = write_graph(tmp_path, g)
        root = tmp_path / "q"
        init_queue(root, graph_path.name, n=g.n, f=8, fingerprint=g.fingerprint())

        # claim half the queue into a second "worker" by hand, then drain both
        layout = open_queue(root)
        s1 = worker_loop(graph_path, root, "a", seed=1)
        s2 = worker_loop(graph_path, root, "b", seed=2)
        assert s1.jobs == 8 * g.n
        assert s2.jobs == 0
        assert collect_results(layout).complete

    def test_periodic_reread_policy_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(worker, "REREAD_BEST_SECONDS", 0.001)
        g = generate_gnp(20, 0.5, 3)
        graph_path = write_graph(tmp_path, g)
        root = tmp_path / "q"
        init_queue(root, graph_path.name, n=g.n, f=8, fingerprint=g.fingerprint())
        summary = worker_loop(graph_path, root, "w0")
        assert summary.jobs == 8 * g.n
        assert collect_results(open_queue(root)).best_omega == len(mc(g)[0])
