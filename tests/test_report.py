import csv

import pytest

from cliquefarm.jobqueue import JobResultRecord
from cliquefarm.report import (
    TAIL_GRID_POINTS,
    ReportError,
    WorkerRow,
    build_report,
    emit_report,
)


def record(t, worker, start, end, nodes=1):
    return JobResultRecord(
        t=t,
        omega=0,
        clique=[],
        nodes=nodes,
        worker=worker,
        started_unix_ms=start,
        finished_unix_ms=end,
    )


@pytest.fixture
def four_job_trace():
    return [
        record(0, "A", 0, 10, nodes=5),
        record(1, "A", 10, 30, nodes=7),
        record(2, "B", 5, 25, nodes=4),
        record(3, "B", 25, 40, nodes=9),
    ]


class TestBuildReport:
    def test_single_record(self):
        report = build_report([record(0, "A", 0, 10)])
        assert max(b for _, b in report.busy_steps) == 1
        assert report.makespan_ms == 10
        assert report.busy_steps[-1] == (10, 0)

    def test_empty_records_rejected(self):
        with pytest.raises(ReportError, match="no records"):
            build_report([])

    def test_overlap_on_one_worker_rejected(self):
        records = [record(0, "A", 0, 10), record(1, "A", 5, 15)]
        with pytest.raises(ReportError, match="simultaneously"):
            build_report(records)

    def test_sub_millisecond_jobs_sharing_a_start_are_not_overlap(self):
        # millisecond timestamps: a zero-length job can share its start with
        # the next job's start on the same worker without running in parallel
        records = [record(8, "w0", 516, 517), record(23, "w0", 516, 516)]
        report = build_report(records)
        assert report.makespan_ms == 1

    def test_tail_of_jobs_within_a_millisecond(self):
        records = [record(0, "A", 0, 0), record(1, "A", 0, 1), record(2, "B", 3, 4)]
        report = build_report(records)
        assert report.tail_contour == [(1.0, 0)] * TAIL_GRID_POINTS

    def test_hand_computed_trace(self, four_job_trace):
        report = build_report(four_job_trace, baseline_wall_ms=400)
        assert report.busy_steps == [(0, 1), (5, 2), (10, 2), (25, 2), (30, 1), (40, 0)]
        # per worker, sorted by increasing total wall time: A (30ms) then B (35ms)
        assert [(w.worker, w.total_nodes, w.longest_job_nodes, w.total_wall_ms)
                for w in report.per_worker] == [("A", 12, 7, 30), ("B", 13, 9, 35)]
        # durations are (10, 20, 20, 15): piecewise-constant contour
        for thr, count in report.tail_contour:
            expected = 4 if thr < 10 else 3 if thr < 15 else 2 if thr < 20 else 0
            assert count == expected, thr
        assert report.makespan_ms == 40
        assert report.speedup == 400 / 40

    def test_conservation(self, four_job_trace):
        report = build_report(four_job_trace)
        assert report.busy_steps[-1][1] == 0  # all starts matched by finishes
        assert sum(w.total_nodes for w in report.per_worker) == sum(
            r.nodes for r in four_job_trace
        )

    def test_tail_contour_non_increasing(self, four_job_trace):
        report = build_report(four_job_trace)
        counts = [c for _, c in report.tail_contour]
        assert counts == sorted(counts, reverse=True)
        assert len(counts) == TAIL_GRID_POINTS
        thresholds = [t for t, _ in report.tail_contour]
        assert thresholds[0] == 1.0
        assert thresholds[-1] == pytest.approx(20.0)  # longest job duration

    def test_clock_skew_caveat(self, four_job_trace):
        report = build_report(four_job_trace)
        assert report.clock_skew_caveat  # first start on A, last finish on B

    def test_no_speedup_without_baseline(self, four_job_trace):
        assert build_report(four_job_trace).speedup is None

    @pytest.mark.parametrize("baseline", [0, -5])
    def test_non_positive_baseline_rejected(self, four_job_trace, baseline):
        with pytest.raises(ReportError, match="baseline"):
            build_report(four_job_trace, baseline_wall_ms=baseline)


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]  # after the header


class TestCsvRoundTrip:
    def assert_csvs_hold(self, report, out):
        busy = [(int(ts), int(n)) for ts, n in csv_rows(out / "busy.csv")]
        assert busy == report.busy_steps
        workers = [
            WorkerRow(w, int(nodes), int(longest), int(wall))
            for w, nodes, longest, wall in csv_rows(out / "workers.csv")
        ]
        assert workers == report.per_worker
        tail = [(float(thr), int(n)) for thr, n in csv_rows(out / "tail.csv")]
        assert tail == report.tail_contour
        [(makespan, speedup, skew)] = csv_rows(out / "summary.csv")
        assert int(makespan) == report.makespan_ms
        assert (None if speedup == "" else float(speedup)) == report.speedup
        assert bool(int(skew)) == report.clock_skew_caveat

    def test_round_trip(self, tmp_path, four_job_trace):
        report = build_report(four_job_trace, baseline_wall_ms=400)
        emit_report(report, tmp_path / "out")
        self.assert_csvs_hold(report, tmp_path / "out")

    def test_round_trip_without_baseline(self, tmp_path, four_job_trace):
        report = build_report(four_job_trace)
        emit_report(report, tmp_path / "out")
        self.assert_csvs_hold(report, tmp_path / "out")
