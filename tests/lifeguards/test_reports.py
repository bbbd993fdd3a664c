"""Unit tests for error reports and precision accounting."""

import pickle

from repro.lifeguards.reports import (
    ErrorKind,
    ErrorLog,
    ErrorReport,
    compare_reports,
)


def report(kind=ErrorKind.ACCESS_UNALLOCATED, loc=1, ref=(0, 0), block=None):
    return ErrorReport(kind, loc, ref=ref, block=block)


def record(log, r):
    return log.record(r.kind, r.location, r.ref, r.block, r.detail)


class TestErrorLog:
    def test_flag_and_iterate(self):
        log = ErrorLog()
        assert record(log, report())
        assert len(log) == 1
        assert list(log) == [report()]

    def test_dedup_identical(self):
        log = ErrorLog()
        assert record(log, report())
        assert not record(log, report())
        assert len(log) == 1

    def test_different_kind_not_deduped(self):
        log = ErrorLog()
        record(log, report(kind=ErrorKind.ACCESS_UNALLOCATED))
        record(log, report(kind=ErrorKind.UNSAFE_ISOLATION))
        assert len(log) == 2

    def test_a_log_pickles_each_flag_once_and_keeps_deduplicating(self):
        log = ErrorLog()
        assert log.record(ErrorKind.ACCESS_UNALLOCATED, 5, ref=(0, 1))
        assert log.record(
            ErrorKind.UNSAFE_ISOLATION, 5, ref=(1, 2), block=(0, 1),
            detail="race",
        )
        loaded = pickle.loads(pickle.dumps(log))
        assert loaded.rows == log.rows
        assert [r.identity() for r in loaded.reports] == [
            r.identity() for r in log.reports
        ]
        assert not loaded.record(ErrorKind.ACCESS_UNALLOCATED, 5, ref=(0, 1))
        assert loaded.record(ErrorKind.FREE_UNALLOCATED, 5, ref=(0, 1))
        assert len(loaded) == 3

    def test_an_empty_log_round_trips(self):
        loaded = pickle.loads(pickle.dumps(ErrorLog()))
        assert loaded.rows == []
        assert loaded.record(ErrorKind.TAINTED_JUMP, 1)


class TestCompareReports:
    def test_all_false_positives_on_clean_truth(self):
        flagged = [report(loc=1), report(loc=2, ref=(0, 1))]
        pr = compare_reports([], flagged, memory_ops=100)
        assert pr.false_positives == 2
        assert pr.true_positives == 0
        assert pr.false_negatives == 0
        assert pr.false_positive_rate == 0.02

    def test_true_positive_matching(self):
        truth = [report(loc=1, ref=(0, 0))]
        flagged = [report(loc=1, ref=(0, 0))]
        pr = compare_reports(truth, flagged, memory_ops=10)
        assert pr.true_positives == 1
        assert pr.false_positives == 0
        assert pr.false_negatives == 0

    def test_false_negative_detected(self):
        truth = [report(loc=1, ref=(0, 0))]
        pr = compare_reports(truth, [], memory_ops=10)
        assert pr.false_negatives == 1

    def test_block_granularity_flag_credits_location(self):
        truth = [report(loc=7, ref=(1, 5))]
        flagged = [
            ErrorReport(
                ErrorKind.UNSAFE_ISOLATION, 7, ref=(0, 2), block=(3, 0)
            )
        ]
        pr = compare_reports(truth, flagged, memory_ops=10)
        assert pr.false_negatives == 0
        # The truth event lies outside the flagged block (thread 1, not
        # 0): the location alone earns the credit.
        assert pr.true_positives == 1

    def test_one_shot_flagged_iterable_is_read_once(self):
        # A generator of flags must score exactly like the list: the
        # block-granularity catch still credits the truth event.
        truth = [report(loc=7, ref=(1, 5)), report(loc=1, ref=(0, 0))]
        flags = [
            ErrorReport(
                ErrorKind.UNSAFE_ISOLATION, 7, ref=(0, 2), block=(3, 0)
            ),
            report(loc=1, ref=(0, 0)),
            report(loc=9, ref=(0, 4)),
        ]
        listed = compare_reports(truth, flags, memory_ops=10)
        streamed = compare_reports(
            truth, (f for f in flags), memory_ops=10
        )
        assert streamed == listed
        assert streamed.false_negatives == 0
        assert (streamed.true_positives, streamed.false_positives) == (2, 1)

    def test_zero_memory_ops_rate(self):
        pr = compare_reports([], [], memory_ops=0)
        assert pr.false_positive_rate == 0.0
