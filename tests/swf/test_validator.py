"""Unit tests for the SWF consistency rules."""

from __future__ import annotations

import pytest

from repro.core.swf import MISSING, Severity, validate
from repro.core.swf.checkpoint import expand_to_bursts
from tests.conftest import make_job, make_workload


def rules_of(report):
    return {issue.rule for issue in report.issues}


class TestCleanWorkloads:
    def test_valid_workload_is_clean(self, tiny_workload):
        report = validate(tiny_workload)
        assert report.is_clean
        assert report.errors == []

    def test_model_workload_with_missing_fields_is_clean(self):
        jobs = [
            make_job(1, submit=0, wait=MISSING, status=MISSING, used_memory=MISSING),
            make_job(2, submit=10, wait=MISSING, status=MISSING, used_memory=MISSING),
        ]
        assert validate(make_workload(jobs)).is_clean

    def test_summary_string_mentions_counts(self, tiny_workload):
        assert "error" in validate(tiny_workload).summary()


class TestNumberingAndOrder:
    def test_non_sequential_numbering_flagged(self):
        jobs = [make_job(1, submit=0), make_job(3, submit=10)]
        report = validate(make_workload(jobs))
        assert not report.is_clean
        assert "job-numbering" in rules_of(report)

    def test_duplicate_numbering_flagged(self):
        jobs = [make_job(1, submit=0), make_job(1, submit=10)]
        report = validate(make_workload(jobs))
        assert "job-numbering" in rules_of(report)

    def test_unsorted_submit_times_flagged(self):
        jobs = [make_job(1, submit=100), make_job(2, submit=50)]
        report = validate(make_workload(jobs))
        assert "submit-order" in rules_of(report)

    def test_nonzero_origin_flagged(self):
        jobs = [make_job(1, submit=500), make_job(2, submit=600)]
        report = validate(make_workload(jobs))
        assert "time-origin" in rules_of(report)


class TestFieldDomains:
    def test_negative_value_flagged(self):
        report = validate(make_workload([make_job(1, run_time=-5)]))
        assert "field-domain" in rules_of(report)
        assert not report.is_clean

    def test_zero_user_id_flagged(self):
        report = validate(make_workload([make_job(1, user_id=0)]))
        assert "field-domain" in rules_of(report)

    def test_invalid_status_flagged(self):
        report = validate(make_workload([make_job(1, status=7)]))
        assert "field-domain" in rules_of(report)

    def test_queue_zero_is_legal(self):
        report = validate(make_workload([make_job(1, queue_number=0)]))
        assert report.is_clean


class TestDependencies:
    def test_forward_reference_flagged(self):
        jobs = [make_job(1, submit=0, preceding_job=2, think_time=5), make_job(2, submit=10)]
        report = validate(make_workload(jobs))
        assert "feedback" in rules_of(report)
        assert not report.is_clean

    def test_unknown_preceding_job_flagged(self):
        jobs = [make_job(1, submit=0), make_job(2, submit=10, preceding_job=99, think_time=5)]
        report = validate(make_workload(jobs))
        assert not report.is_clean

    def test_missing_think_time_is_only_a_warning(self):
        jobs = [make_job(1, submit=0), make_job(2, submit=10, preceding_job=1)]
        report = validate(make_workload(jobs))
        assert report.is_clean
        assert any(i.severity is Severity.WARNING for i in report.issues)


class TestHeaderLimits:
    def test_oversized_job_is_a_warning(self):
        report = validate(make_workload([make_job(1, processors=64)], machine_size=32))
        assert report.is_clean
        assert "header-limits" in rules_of(report)

    def test_overuse_warning_when_disallowed(self):
        job = make_job(1, runtime=500, requested_time=100)
        report = validate(make_workload([job]))
        assert "overuse" in rules_of(report)
        assert report.is_clean


class TestCheckpointRules:
    def test_valid_checkpoint_group_passes(self):
        summary = make_job(1, submit=0, runtime=300)
        lines = expand_to_bursts(summary, [100, 100, 100], [10, 20])
        report = validate(make_workload(lines))
        assert report.is_clean

    def test_partial_without_summary_flagged(self):
        report = validate(make_workload([make_job(1, status=2)]))
        assert "checkpoint" in rules_of(report)
        assert not report.is_clean

    def test_nonterminal_last_burst_flagged(self):
        jobs = [make_job(1, status=1), make_job(1, submit=MISSING, status=2)]
        report = validate(make_workload(jobs))
        assert "checkpoint" in rules_of(report)

    def test_extra_submit_time_on_later_burst_flagged(self):
        summary = make_job(1, submit=0, runtime=200)
        lines = expand_to_bursts(summary, [100, 100])
        bad = [lines[0], lines[1], lines[2].replace(submit_time=50)]
        report = validate(make_workload(bad))
        assert not report.is_clean

    def test_runtime_mismatch_is_a_warning(self):
        summary = make_job(1, submit=0, runtime=300)
        lines = expand_to_bursts(summary, [150, 150])
        tampered = [lines[0], lines[1].replace(run_time=10), lines[2]]
        report = validate(make_workload(tampered))
        assert any(i.rule == "checkpoint" and i.severity is Severity.WARNING for i in report.issues)


class TestReportApi:
    def test_issue_string_mentions_job(self):
        report = validate(make_workload([make_job(1, user_id=0)]))
        assert any("job 1" in str(issue) for issue in report.issues)
