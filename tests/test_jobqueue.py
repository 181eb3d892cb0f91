import multiprocessing as mp
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquefarm import jobqueue
from cliquefarm.jobqueue import (
    SHARDS,
    JobResultRecord,
    QueueError,
    claim_job,
    claim_order,
    collect_results,
    init_queue,
    open_queue,
    pending_jobs,
    publish_result,
    read_best,
    read_best_log,
    read_meta,
    requeue_stale,
    shard_of,
    update_best,
)


def witness(size):
    """A 1-based clique of `size` vertices, as update_best takes it."""
    return list(range(1, size + 1))


def make_record(t=0, omega=3, clique=(1, 2, 5), **overrides):
    kwargs = dict(
        t=t,
        omega=omega,
        clique=list(clique),
        nodes=10,
        worker="w0",
        started_unix_ms=1000,
        finished_unix_ms=1004,
    )
    kwargs.update(overrides)
    return JobResultRecord(**kwargs)


class TestSharding:
    def test_last_two_digits(self):
        assert shard_of(1234) == "34"
        assert shard_of(7) == "07"
        assert shard_of(0) == "00"
        assert shard_of(100) == "00"


class TestInit:
    def test_layout_and_job_count(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=450, f=8, fingerprint="toy")
        files = [
            name
            for shard in SHARDS
            for name in os.listdir(layout.shard_dir(shard))
        ]
        assert len(files) == 3600
        assert read_best(layout) == 0
        meta = read_meta(layout)
        assert (meta.graph, meta.n, meta.f) == ("toy", 450, 8)

    def test_tiny_queue(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=1, f=8, fingerprint="toy")
        found = sorted(
            int(name)
            for shard in SHARDS
            for name in os.listdir(layout.shard_dir(shard))
        )
        assert found == list(range(8))

    def test_jobs_land_in_their_shard(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=30, f=8, fingerprint="toy")
        assert (layout.shard_dir("34") / "134").exists()
        assert (layout.shard_dir("07") / "7").exists()

    def test_no_lock_files_in_pending(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=30, f=8, fingerprint="toy")
        assert list(layout.pending_dir.rglob("*.lock")) == []

    def test_non_ascii_meta_is_queue_error(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=5, f=8, fingerprint="toy")
        layout.meta_path.write_bytes(b"graph=g\xe9.clq\nn=5\nf=8\n")
        with pytest.raises(QueueError, match="bad meta"):
            read_meta(layout)

    def test_refuses_non_empty_root(self, tmp_path):
        root = tmp_path / "q"
        root.mkdir()
        (root / "junk").touch()
        with pytest.raises(QueueError, match="not empty"):
            init_queue(root, "toy", n=5, f=8, fingerprint="toy")

    def test_open_requires_meta(self, tmp_path):
        with pytest.raises(QueueError, match="no meta"):
            open_queue(tmp_path)


class TestClaim:
    def test_empty_queue_returns_none(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=1, f=1, fingerprint="toy")
        assert claim_job(layout, range(1)) == 0
        assert claim_job(layout, range(1)) is None

    def test_single_job_moves_to_running(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=1, f=8, fingerprint="toy")
        # delete everything except job 5 so it is the only claimable job
        for t in range(8):
            if t != 5:
                os.unlink(layout.shard_dir(shard_of(t)) / str(t))
        assert claim_job(layout, range(8)) == 5
        assert os.listdir(layout.running_dir) == ["5"]
        pending = sum(len(os.listdir(layout.shard_dir(s))) for s in SHARDS)
        assert pending == 0

    def test_lost_race_moves_to_next_id(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=1, f=8, fingerprint="toy")
        assert claim_job(layout, [3]) == 3
        jobs = iter([3, 5, 6])
        assert claim_job(layout, jobs) == 5
        assert claim_job(layout, jobs) == 6  # resumes after 5
        assert claim_job(layout, jobs) is None

    def test_claim_takes_no_lock_and_lists_nothing(self, tmp_path, monkeypatch):
        layout = init_queue(tmp_path / "q", "toy", n=1, f=8, fingerprint="toy")

        def forbidden(*args, **kwargs):
            raise AssertionError("claim_job must not lock or list")

        monkeypatch.setattr(jobqueue, "locked", forbidden)
        monkeypatch.setattr(os, "listdir", forbidden)
        assert claim_job(layout, range(8)) == 0

    def test_requeue_right_after_claim_rename_keeps_the_claim(self, tmp_path, monkeypatch):
        # a pending file is old; a requeue that runs right after the claim's
        # rename must find it fresh, and the claim must not crash
        layout = init_queue(tmp_path / "q", "toy", n=1, f=1, fingerprint="toy")
        os.utime(layout.shard_dir(shard_of(0)) / "0", (0, 0))
        real_rename = os.rename
        requeued = []

        def rename_then_requeue(src, dst):
            real_rename(src, dst)
            if not requeued:
                requeued.append(requeue_stale(layout, grace_seconds=1))

        monkeypatch.setattr(jobqueue.os, "rename", rename_then_requeue)
        assert claim_job(layout, [0]) == 0
        assert (layout.running_dir / "0").exists()

    def test_conservation(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=4, f=8, fingerprint="toy")
        claimed = []
        for _ in range(10):
            claimed.append(claim_job(layout, range(32)))
        pending = sum(len(os.listdir(layout.shard_dir(s))) for s in SHARDS)
        running = len(os.listdir(layout.running_dir))
        assert pending + running == 32
        assert running == 10
        assert len(set(claimed)) == 10


def _first_shard_smallest_id_order(job_count, seed):
    """Claim order of a worker that, for every claim, shuffles SHARDS with
    random.Random(seed) and takes the smallest pending id of the first shard
    that has one."""
    shards = list(SHARDS)
    random.Random(seed).shuffle(shards)
    pending = {s: set() for s in SHARDS}
    for t in range(job_count):
        pending[shard_of(t)].add(t)
    order = []
    while any(pending.values()):
        shard = next(s for s in shards if pending[s])
        t = min(pending[shard])
        pending[shard].remove(t)
        order.append(t)
    return order


def test_pending_jobs_are_what_a_claim_can_take(tmp_path):
    layout = init_queue(tmp_path / "q", "toy", n=1, f=8, fingerprint="toy")
    assert claim_job(layout, [3]) == 3
    assert claim_job(layout, [7]) == 7
    # no claim moves these: not a job id, wrong shard, not canonical, not
    # below f*n = 8
    for stray in ("00/.nfs0003", "04/3", "03/03", "07/07", "03/\u0663", "08/8"):
        (layout.pending_dir / stray).touch()
    assert pending_jobs(layout) == {0, 1, 2, 4, 5, 6}


class TestClaimOrder:
    # farm node counts depend on which jobs a worker takes first; pin the order
    @pytest.mark.parametrize("seed", [0, 1])
    def test_order_is_shard_major_ascending(self, tmp_path, seed):
        n, f = 1000, 8
        expected = _first_shard_smallest_id_order(f * n, seed)
        assert sorted(expected) == list(range(f * n))
        assert claim_order(f * n, seed) == expected
        layout = init_queue(tmp_path / "q", "toy", n=n, f=f, fingerprint="toy")
        jobs = iter(claim_order(f * n, seed))
        drained = []
        while (t := claim_job(layout, jobs)) is not None:
            drained.append(t)
        assert drained == expected


def _claim_one(root, out_queue):
    layout = open_queue(root)
    out_queue.put(claim_job(layout, range(1)))


class TestClaimRace:
    def test_two_claimers_one_job(self, tmp_path):
        # repeat the race; exactly one claimer may win each time
        for trial in range(20):
            root = tmp_path / f"q{trial}"
            layout = init_queue(root, "toy", n=1, f=1, fingerprint="toy")
            out = mp.Queue()
            procs = [mp.Process(target=_claim_one, args=(root, out)) for _ in range(2)]
            for p in procs:
                p.start()
            results = [out.get(timeout=10) for _ in procs]
            for p in procs:
                p.join()
            assert sorted(results, key=lambda x: (x is None, x)) == [0, None]


class TestBest:
    def test_fresh_queue_reads_zero(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        assert read_best(layout) == 0

    def test_update_and_read(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        assert update_best(layout, witness(27)) == (True, 27)
        assert read_best(layout) == 27

    def test_non_improving_rejected(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        update_best(layout, witness(10))
        assert update_best(layout, witness(8)) == (False, 10)
        assert update_best(layout, witness(10)) == (False, 10)  # ties rejected too
        assert update_best(layout, witness(12)) == (True, 12)

    def test_log_records_accepted_writes(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        for v in (3, 1, 5, 5, 9):
            update_best(layout, witness(v))
        witnesses, _ = read_best_log(layout)
        assert [len(w) for w in witnesses] == [3, 5, 9]

    def test_readers_share_the_lock(self, tmp_path):
        # a held shared lock must not block other readers, only writers
        from cliquefarm.jobqueue import locked

        root = tmp_path / "q"
        layout = init_queue(root, "toy", n=2, f=8, fingerprint="toy")
        update_best(layout, witness(7))
        out = mp.Queue()

        def reader():
            out.put(read_best(open_queue(root)))

        with locked(layout.best_lock, exclusive=False):
            procs = [mp.Process(target=reader) for _ in range(8)]
            for p in procs:
                p.start()
            values = [out.get(timeout=10) for _ in procs]
            for p in procs:
                p.join()
        assert values == [7] * 8

    def test_corrupt_best_is_hard_error(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        layout.best_path.write_text("not a number\n")
        with pytest.raises(QueueError, match="corrupt"):
            read_best(layout)

    @pytest.mark.parametrize("phase", ["shared", "exclusive"])
    # empty: what an in-place write cut short leaves; then a non-ASCII byte
    @pytest.mark.parametrize("raw", [b"\n", b"\xff\n"], ids=["empty", "non-ascii"])
    def test_corrupt_best_fails_update_in_either_phase(
        self, tmp_path, monkeypatch, phase, raw
    ):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        layout.best_path.write_bytes(raw)
        if phase == "exclusive":
            # the file turns corrupt after a shared-lock read saw a good value:
            # update_best must parse best itself, under the exclusive lock
            monkeypatch.setattr(jobqueue, "read_best", lambda layout: 0)
        with pytest.raises(QueueError, match="corrupt"):
            update_best(layout, witness(3))

    def test_update_locks_best_once_exclusively(self, tmp_path, monkeypatch):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        real_locked = jobqueue.locked
        taken = []

        def spy(path, exclusive):
            taken.append((path, exclusive))
            return real_locked(path, exclusive)

        monkeypatch.setattr(jobqueue, "locked", spy)
        assert update_best(layout, witness(5)) == (True, 5)
        assert update_best(layout, witness(3)) == (False, 5)
        assert taken == [(layout.best_lock, True)] * 2

    def test_failed_replace_keeps_old_best(self, tmp_path, monkeypatch):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        update_best(layout, witness(4))

        def fail(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            update_best(layout, witness(9))
        monkeypatch.undo()
        assert read_best(layout) == 4
        witnesses, _ = read_best_log(layout)
        assert [len(w) for w in witnesses] == [4, 9]  # the witness went first

    def test_witness_logged_by_a_failed_replace_stays_the_answer(
        self, tmp_path, monkeypatch
    ):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        update_best(layout, witness(4))
        nine = [2, 3, 5, 7, 11, 13, 17, 19, 23]

        def fail(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            update_best(layout, nine)
        monkeypatch.undo()
        assert read_best(layout) == 4
        assert read_best_log(layout) == ([witness(4), nine], [])
        assert update_best(layout, witness(6)) == (True, 6)  # > best, < the witness
        summary = collect_results(layout)
        assert (summary.best_omega, summary.best_clique) == (9, nine)
        assert summary.errors == []


def _updater(root, values):
    layout = open_queue(root)
    for v in values:
        update_best(layout, witness(v))


class TestBestConcurrency:
    def test_final_is_max_and_trace_increasing(self, tmp_path):
        import random

        root = tmp_path / "q"
        layout = init_queue(root, "toy", n=2, f=8, fingerprint="toy")
        rng = random.Random(0)
        all_values = []
        procs = []
        for _ in range(8):
            values = [rng.randint(1, 1000) for _ in range(50)]
            all_values.extend(values)
            procs.append(mp.Process(target=_updater, args=(root, values)))
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        assert read_best(layout) == max(all_values)
        trace = [len(w) for w in read_best_log(layout)[0]]
        assert trace == sorted(set(trace))  # strictly increasing
        assert trace[-1] == max(all_values)


class TestPublish:
    def test_publish_then_collect(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=1, f=8, fingerprint="toy")
        t = claim_job(layout, range(8))
        publish_result(layout, make_record(t=t))
        assert os.listdir(layout.running_dir) == []
        assert str(t) in os.listdir(layout.results_dir)

    def test_requeued_live_job_published_twice_keeps_first(self, tmp_path):
        # requeue on a job still running lets a second worker run it too
        layout = init_queue(tmp_path / "q", "toy", n=1, f=8, fingerprint="toy")
        t = claim_job(layout, range(8))
        old = time.time() - 120
        os.utime(layout.running_dir / str(t), (old, old))
        assert requeue_stale(layout, grace_seconds=60) == [t]
        assert claim_job(layout, range(8)) == t
        publish_result(layout, make_record(t=t, worker="first"))
        publish_result(layout, make_record(t=t, worker="second"))
        assert os.listdir(layout.running_dir) == []
        summary = collect_results(layout)
        assert [r.worker for r in summary.records] == ["first"]

    def test_publish_losing_the_rename_keeps_first(self, tmp_path, monkeypatch):
        layout = init_queue(tmp_path / "q", "toy", n=1, f=8, fingerprint="toy")
        t = claim_job(layout, range(8))
        real_rename = os.rename

        def other_worker_publishes_first(src, dst):
            first = make_record(t=t, worker="first")
            (layout.results_dir / str(t)).write_text(first.to_text())
            os.unlink(src)
            real_rename(src, dst)  # FileNotFoundError, as after a lost race

        monkeypatch.setattr(os, "rename", other_worker_publishes_first)
        publish_result(layout, make_record(t=t, worker="second"))
        monkeypatch.undo()
        summary = collect_results(layout)
        assert [r.worker for r in summary.records] == ["first"]

    def test_publish_unclaimed_errors(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=1, f=8, fingerprint="toy")
        with pytest.raises(QueueError):
            publish_result(layout, make_record(t=3))

    @settings(max_examples=50, deadline=None)
    @given(
        t=st.integers(0, 10**6),
        clique=st.lists(st.integers(1, 10**4), unique=True).map(sorted),
        nodes=st.integers(1, 2**62),
        worker=st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1
        ).filter(lambda s: "=" not in s),
        started=st.integers(0, 2**52),
        duration=st.integers(0, 10**9),
    )
    def test_record_round_trip(self, t, clique, nodes, worker, started, duration):
        record = JobResultRecord(
            t=t,
            omega=len(clique),
            clique=clique,
            nodes=nodes,
            worker=worker,
            started_unix_ms=started,
            finished_unix_ms=started + duration,
        )
        assert JobResultRecord.from_text(record.to_text()) == record

    def test_older_record_with_wall_ms_still_parses(self, tmp_path):
        # records once carried a wall_ms= line beside their two timestamps
        text = (
            "t=5\nomega=3\nclique=1 2 5\nnodes=10\nwall_ms=7\nworker=w0\n"
            "started_unix_ms=1000\nfinished_unix_ms=1004\n"
        )
        assert JobResultRecord.from_text(text) == make_record(t=5)
        layout = init_queue(tmp_path / "q", "toy", n=1, f=8, fingerprint="toy")
        (layout.results_dir / "5").write_text(text, encoding="ascii")
        summary = collect_results(layout)
        assert summary.records == [make_record(t=5)]
        assert summary.errors == []

    def test_record_rejects_inconsistent_omega(self):
        with pytest.raises(QueueError, match="omega"):
            make_record(omega=2, clique=[1, 2, 3])
        with pytest.raises(QueueError, match="omega"):
            make_record(omega=5, clique=[])

    def test_record_rejects_time_travel(self):
        with pytest.raises(QueueError, match="finished before"):
            make_record(started_unix_ms=10, finished_unix_ms=5)


class TestRequeue:
    def test_nothing_running(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        assert requeue_stale(layout, 1) == []

    def test_fresh_job_within_grace(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        claim_job(layout, range(16))
        assert requeue_stale(layout, 60) == []

    def test_stale_job_goes_home(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        t = claim_job(layout, range(16))
        old = time.time() - 120
        os.utime(layout.running_dir / str(t), (old, old))
        assert requeue_stale(layout, 60) == [t]
        assert (layout.shard_dir(shard_of(t)) / str(t)).exists()

    def test_publish_between_stat_and_rename_is_skipped(self, tmp_path, monkeypatch):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        jobs = iter(range(16))
        stale = {claim_job(layout, jobs), claim_job(layout, jobs)}
        old = time.time() - 120
        for t in stale:
            os.utime(layout.running_dir / str(t), (old, old))
        real_rename = os.rename
        published = []

        def publish_first(src, dst):
            if not published:  # the first stale job is published before it moves
                published.append(int(os.path.basename(src)))
                publish_result(layout, make_record(t=published[0]))
            real_rename(src, dst)

        monkeypatch.setattr(os, "rename", publish_first)
        moved = requeue_stale(layout, 60)
        monkeypatch.undo()
        assert moved == sorted(stale - set(published))
        assert collect_results(layout).records[0].t == published[0]

    def test_grace_must_be_positive(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        with pytest.raises(QueueError):
            requeue_stale(layout, 0)


@pytest.mark.parametrize("where", ["pending", "running", "results"])
def test_stray_names_are_not_jobs(tmp_path, where):
    # an NFS silly-rename file, and names int() reads as a job id that are
    # not its canonical name (leading zero, Arabic-Indic three); all old
    # enough that requeue would move a job
    layout = init_queue(tmp_path / "q", "toy", n=1, f=1, fingerprint="toy")
    directory = {
        "pending": layout.shard_dir("00"),
        "running": layout.running_dir,
        "results": layout.results_dir,
    }[where]
    strays = [directory / name for name in (".nfs0002", "07", "\u0663")]
    old = time.time() - 120
    for stray in strays:
        stray.write_text("x")
        os.utime(stray, (old, old))
    assert claim_job(layout, range(1)) == 0
    assert claim_job(layout, range(1)) is None
    os.utime(layout.running_dir / "0", (old, old))
    assert requeue_stale(layout, 60) == [0]
    assert claim_job(layout, range(1)) == 0
    publish_result(layout, make_record(t=0, omega=0, clique=()))
    summary = collect_results(layout)
    assert summary.complete
    assert summary.errors == []
    assert all(stray.exists() for stray in strays)


class TestCollect:
    def _publish_all(self, layout, count):
        """Claim and publish `count` jobs, each with omega=0."""
        for _ in range(count):
            t = claim_job(layout, range(16))
            publish_result(
                layout, make_record(t=t, omega=0, clique=(), worker=f"w{t % 3}")
            )

    def test_all_present(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        self._publish_all(layout, 16)
        summary = collect_results(layout)
        assert summary.complete
        assert summary.missing == []

    def test_one_missing_is_named(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        self._publish_all(layout, 15)
        summary = collect_results(layout)
        assert not summary.complete
        assert len(summary.missing) == 1

    def test_answer_is_the_logged_witness_no_record_holds(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        update_best(layout, [2, 5, 7])
        self._publish_all(layout, 16)
        summary = collect_results(layout)
        assert summary.complete
        assert summary.best_omega == 3
        assert summary.best_clique == [2, 5, 7]

    @pytest.mark.parametrize(
        "bad_line",
        ["1700000000000 5\n", "1700000000000 5 1 2"],
        ids=["size-only-line", "torn-last-line"],
    )
    def test_log_line_without_its_witness_is_an_error(self, tmp_path, bad_line):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        update_best(layout, [2, 5, 7])
        with open(layout.best_log, "a", encoding="ascii") as fh:
            fh.write(bad_line)
        self._publish_all(layout, 16)
        summary = collect_results(layout)
        assert summary.best_omega == 3
        assert summary.best_clique == [2, 5, 7]
        assert len(summary.errors) == 1
        assert summary.errors[0].startswith("best.log line 2: size 5 but")

    def test_witness_after_a_torn_last_line_stays_the_answer(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        update_best(layout, [1, 2, 3])
        with open(layout.best_log, "a", encoding="ascii") as fh:
            fh.write("1700000000000 5 1 2")
        update_best(layout, witness(6))
        self._publish_all(layout, 16)
        summary = collect_results(layout)
        assert summary.best_omega == 6
        assert summary.best_clique == witness(6)
        assert len(summary.errors) == 1
        assert summary.errors[0].startswith("best.log line 2: size 5 but")

    def test_unparseable_record_reported_not_fatal(self, tmp_path):
        layout = init_queue(tmp_path / "q", "toy", n=2, f=8, fingerprint="toy")
        self._publish_all(layout, 16)
        (layout.results_dir / "3").write_text("garbage\n")
        summary = collect_results(layout)
        assert summary.errors
        assert not summary.complete
        assert 3 in summary.missing
