"""Unit tests for the free-space profile used by backfilling and predictions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedulers.freespace import FreeSpace
from tests.schedulers.util import make_request, make_state


class TestProfileBasics:
    def test_initially_fully_free(self):
        profile = FreeSpace(32, now=0.0)
        assert profile.min_free(0, 0) == 32
        assert profile.min_free(10_000, 10_000) == 32

    def test_remove_reduces_free_in_window_only(self):
        profile = FreeSpace(32, now=0.0)
        profile.reserve(10, 20, 8)
        assert profile.min_free(5, 5) == 32
        assert profile.min_free(10, 10) == 24
        assert profile.min_free(19.9, 19.9) == 24
        assert profile.min_free(20, 20) == 32

    def test_overlapping_removals_stack(self):
        profile = FreeSpace(32, now=0.0)
        profile.reserve(0, 100, 8)
        profile.reserve(50, 150, 8)
        assert profile.min_free(75, 75) == 16
        assert profile.min_free(125, 125) == 24

    def test_min_free_over_window(self):
        profile = FreeSpace(32, now=0.0)
        profile.reserve(10, 20, 30)
        assert profile.min_free(0, 30) == 2
        assert profile.min_free(20, 30) == 32

    def test_zero_length_removal_is_noop(self):
        profile = FreeSpace(8, now=0.0)
        profile.reserve(10, 10, 4)
        assert profile.min_free(10, 10) == 8

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            FreeSpace(0, now=0.0)
        profile = FreeSpace(8, now=0.0)
        with pytest.raises(ValueError):
            profile.reserve(0, 10, -1)


class TestEarliestStart:
    def test_immediate_start_when_free(self):
        profile = FreeSpace(32, now=0.0)
        assert profile.earliest_start(16, 100) == 0.0

    def test_start_deferred_until_capacity_frees(self):
        profile = FreeSpace(32, now=0.0)
        profile.reserve(0, 100, 24)  # only 8 free until t=100
        assert profile.earliest_start(16, 50) == 100.0

    def test_start_fits_in_gap_between_busy_periods(self):
        profile = FreeSpace(32, now=0.0)
        profile.reserve(0, 100, 24)
        profile.reserve(200, 300, 24)
        # 16 processors for 100 s fit exactly in the [100, 200) gap.
        assert profile.earliest_start(16, 100) == 100.0
        # ... but a 150 s job does not; it must wait for the second period to end.
        assert profile.earliest_start(16, 150) == 300.0

    def test_not_before_constraint(self):
        profile = FreeSpace(32, now=0.0)
        assert profile.earliest_start(4, 10, not_before=500.0) == 500.0

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError):
            FreeSpace(8, now=0.0).earliest_start(16, 10)

    def test_from_running_builds_expected_profile(self):
        running_request = make_request(1, processors=24, runtime=100, estimate=100)
        state = make_state(32, running=[(running_request, 0.0, 100.0)])
        profile = FreeSpace.from_running(32, 0.0, state.running)
        assert profile.min_free(50, 50) == 8
        assert profile.min_free(100, 100) == 32

    @given(
        removals=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=500),   # start
                st.integers(min_value=1, max_value=200),   # duration
                st.integers(min_value=1, max_value=16),    # processors
            ),
            max_size=8,
        ),
        request=st.tuples(
            st.integers(min_value=1, max_value=32),
            st.integers(min_value=1, max_value=300),
        ),
    )
    @settings(max_examples=75, deadline=None)
    def test_earliest_start_window_really_has_capacity(self, removals, request):
        """The anchor returned by earliest_start always satisfies the request."""
        profile = FreeSpace(32, now=0.0)
        for start, duration, processors in removals:
            profile.reserve(start, start + duration, min(processors, 32))
        processors, duration = request
        anchor = profile.earliest_start(processors, duration)
        assert profile.min_free(anchor, anchor + duration) >= processors
