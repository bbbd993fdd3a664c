"""Unit tests for error reports and precision accounting."""

from repro.lifeguards.reports import (
    ErrorKind,
    ErrorLog,
    ErrorReport,
    compare_reports,
)


def report(kind=ErrorKind.ACCESS_UNALLOCATED, loc=1, ref=(0, 0), block=None):
    return ErrorReport(kind, loc, ref=ref, block=block)


class TestErrorLog:
    def test_flag_and_iterate(self):
        log = ErrorLog()
        assert log.flag(report())
        assert len(log) == 1

    def test_dedup_identical(self):
        log = ErrorLog()
        assert log.flag(report())
        assert not log.flag(report())
        assert len(log) == 1

    def test_different_kind_not_deduped(self):
        log = ErrorLog()
        log.flag(report(kind=ErrorKind.ACCESS_UNALLOCATED))
        log.flag(report(kind=ErrorKind.UNSAFE_ISOLATION))
        assert len(log) == 2


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

    def test_zero_memory_ops_rate(self):
        pr = compare_reports([], [], memory_ops=0)
        assert pr.false_positive_rate == 0.0
