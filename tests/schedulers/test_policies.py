"""Unit tests for FCFS, first-fit, and the priority-ordered policies."""

from __future__ import annotations

import pytest

from repro.schedulers import (
    FCFSScheduler,
    FirstFitScheduler,
    LongestJobFirstScheduler,
    NarrowestFirstScheduler,
    ShortestJobFirstScheduler,
    SmallestAreaFirstScheduler,
    WFPScheduler,
    WidestFirstScheduler,
)
from repro.schedulers.freespace import FreeSpace
from tests.schedulers.util import make_request, make_state


class TestFCFS:
    def test_starts_jobs_in_order_while_they_fit(self):
        queue = [make_request(1, 8), make_request(2, 8), make_request(3, 8)]
        state = make_state(20, queue=queue)
        started = FCFSScheduler().select_jobs(state)
        assert [r.job_id for r in started] == [1, 2]

    def test_blocked_head_stops_everything(self):
        queue = [make_request(1, 32), make_request(2, 1)]
        state = make_state(16, queue=queue)
        assert FCFSScheduler().select_jobs(state) == []

    def test_empty_queue(self):
        assert FCFSScheduler().select_jobs(make_state(16)) == []

    def test_respects_running_jobs(self):
        running = [(make_request(99, 12), 0.0, 100.0)]
        queue = [make_request(1, 8)]
        state = make_state(16, queue=queue, running=running)
        assert FCFSScheduler().select_jobs(state) == []

    def test_outage_aware_fcfs_drains_before_capacity_drop(self):
        # 16 free now, but announced capacity drops to 8 within the job's estimate.
        queue = [make_request(1, processors=12, runtime=1000, estimate=1000)]
        calendar = FreeSpace(16, 0.0)
        calendar.reserve(500.0, 1e9, 8)
        state = make_state(16, queue=queue, calendar=calendar)
        assert FCFSScheduler(outage_aware=True).select_jobs(state) == []
        assert len(FCFSScheduler(outage_aware=False).select_jobs(state)) == 1


class TestFirstFit:
    def test_skips_blocked_head(self):
        queue = [make_request(1, 32), make_request(2, 4)]
        state = make_state(16, queue=queue)
        started = FirstFitScheduler().select_jobs(state)
        assert [r.job_id for r in started] == [2]

    def test_packs_in_arrival_order(self):
        queue = [make_request(1, 10), make_request(2, 10), make_request(3, 6)]
        state = make_state(16, queue=queue)
        started = FirstFitScheduler().select_jobs(state)
        assert [r.job_id for r in started] == [1, 3]


class TestPriorityPolicies:
    def test_sjf_prefers_short_estimates(self):
        queue = [make_request(1, 8, estimate=1000), make_request(2, 8, estimate=10)]
        state = make_state(8, queue=queue)
        started = ShortestJobFirstScheduler().select_jobs(state)
        assert [r.job_id for r in started] == [2]

    def test_ljf_prefers_long_estimates(self):
        queue = [make_request(1, 8, estimate=1000), make_request(2, 8, estimate=10)]
        state = make_state(8, queue=queue)
        started = LongestJobFirstScheduler().select_jobs(state)
        assert [r.job_id for r in started] == [1]

    def test_narrowest_first(self):
        queue = [make_request(1, 16), make_request(2, 2)]
        state = make_state(4, queue=queue)
        assert [r.job_id for r in NarrowestFirstScheduler().select_jobs(state)] == [2]

    def test_widest_first(self):
        queue = [make_request(1, 2), make_request(2, 16)]
        state = make_state(16, queue=queue)
        started = WidestFirstScheduler().select_jobs(state)
        assert started[0].job_id == 2

    def test_smallest_area_first(self):
        queue = [make_request(1, 8, estimate=1000), make_request(2, 4, estimate=10)]
        state = make_state(8, queue=queue)
        assert SmallestAreaFirstScheduler().select_jobs(state)[0].job_id == 2

    def test_strict_priority_blocks_behind_head(self):
        queue = [make_request(1, 32, estimate=5), make_request(2, 4, estimate=10)]
        state = make_state(16, queue=queue)
        strict = ShortestJobFirstScheduler(strict=True)
        greedy = ShortestJobFirstScheduler(strict=False)
        assert strict.select_jobs(state) == []
        assert [r.job_id for r in greedy.select_jobs(state)] == [2]

    def test_ties_broken_by_arrival_order(self):
        queue = [make_request(2, 4, estimate=100, submit=10), make_request(1, 4, estimate=100, submit=0)]
        state = make_state(4, queue=queue)
        assert ShortestJobFirstScheduler().select_jobs(state)[0].job_id == 1

    def test_wfp_prioritizes_long_waiting_small_jobs(self):
        waited_long = make_request(1, 2, estimate=100, submit=0)
        just_arrived = make_request(2, 2, estimate=100, submit=990)
        state = make_state(2, queue=[just_arrived, waited_long], now=1000.0)
        started = WFPScheduler().select_jobs(state)
        assert started[0].job_id == 1

    def test_selected_jobs_always_fit(self):
        queue = [make_request(i, 5, estimate=10 * i) for i in range(1, 10)]
        state = make_state(12, queue=queue)
        for policy in (
            FCFSScheduler(),
            FirstFitScheduler(),
            ShortestJobFirstScheduler(),
            WidestFirstScheduler(),
            WFPScheduler(),
        ):
            started = policy.select_jobs(state)
            assert sum(r.processors for r in started) <= 12
