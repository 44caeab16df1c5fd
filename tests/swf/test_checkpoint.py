"""Unit tests for multi-line (checkpoint/swap-out) job records."""

from __future__ import annotations

import pytest

from repro.core.swf import (
    CompletionStatus,
    MISSING,
    expand_to_bursts,
    group_checkpointed,
    summarize_bursts,
)
from tests.conftest import make_job


class TestExpandToBursts:
    def test_line_layout_matches_standard(self):
        summary = make_job(1, submit=0, wait=5, runtime=300, status=1)
        lines = expand_to_bursts(summary, [100, 150, 50], swapped_out_gaps=[30, 60])
        assert len(lines) == 4
        assert lines[0] is summary
        # First burst carries the submit time, later bursts do not.
        assert lines[1].submit_time == 0
        assert lines[2].submit_time == MISSING
        assert lines[3].submit_time == MISSING
        # Later bursts carry the swapped-out gap as their wait time.
        assert lines[2].wait_time == 30
        assert lines[3].wait_time == 60
        # Status codes: 2, 2, then terminal 3 for a completed job.
        assert [l.status for l in lines[1:]] == [2, 2, 3]

    def test_killed_job_gets_terminal_code_4(self):
        summary = make_job(1, runtime=100, status=0)
        lines = expand_to_bursts(summary, [60, 40])
        assert lines[-1].status == CompletionStatus.PARTIAL_LAST_KILLED

    def test_runtime_mismatch_rejected(self):
        with pytest.raises(ValueError):
            expand_to_bursts(make_job(1, runtime=100), [50, 30])

    def test_gap_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            expand_to_bursts(make_job(1, runtime=100), [50, 50], swapped_out_gaps=[1, 2, 3])

    def test_empty_bursts_rejected(self):
        with pytest.raises(ValueError):
            expand_to_bursts(make_job(1, runtime=100), [])

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            expand_to_bursts(make_job(1, runtime=100), [110, -10])
        with pytest.raises(ValueError):
            expand_to_bursts(make_job(1, runtime=100), [50, 50], swapped_out_gaps=[-1])


class TestGroupAndSummarize:
    def test_group_checkpointed_pairs_summary_with_bursts(self):
        summary = make_job(1, runtime=200, status=1)
        lines = expand_to_bursts(summary, [120, 80], swapped_out_gaps=[45])
        other = make_job(2, submit=10, runtime=50)
        grouped = group_checkpointed(lines + [other])
        assert len(grouped) == 1
        record = grouped[0]
        assert record.summary == summary
        assert [b.run_time for b in record.bursts] == [120, 80]
        assert [b.wait_time for b in record.bursts[1:]] == [45]

    def test_bursts_without_summary_are_ignored(self):
        orphan = make_job(3, status=2)
        assert group_checkpointed([orphan]) == []

    def test_summarize_bursts_rebuilds_summary(self):
        summary = make_job(1, submit=0, wait=5, runtime=300, status=1)
        lines = expand_to_bursts(summary, [100, 200])
        rebuilt = summarize_bursts(lines[1:])
        assert rebuilt.run_time == 300
        assert rebuilt.status == 1
        assert rebuilt.submit_time == 0

    def test_summarize_killed_bursts(self):
        summary = make_job(1, runtime=150, status=0)
        lines = expand_to_bursts(summary, [150])
        rebuilt = summarize_bursts(lines[1:])
        assert rebuilt.status == 0

    def test_summarize_requires_terminal_burst(self):
        with pytest.raises(ValueError):
            summarize_bursts([make_job(1, status=2)])

    def test_summarize_requires_nonempty_input(self):
        with pytest.raises(ValueError):
            summarize_bursts([])
