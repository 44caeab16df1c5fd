"""Unit tests for EASY and conservative backfilling."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.evaluation import simulate
from repro.schedulers import (
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    FCFSScheduler,
)
from tests.conftest import by_job_id, make_job, make_workload
from tests.schedulers.util import make_request, make_state


class TestEasySelection:
    def test_fcfs_phase_starts_fitting_jobs(self):
        queue = [make_request(1, 8), make_request(2, 8)]
        state = make_state(16, queue=queue)
        started = EasyBackfillScheduler().select_jobs(state)
        assert [r.job_id for r in started] == [1, 2]

    def test_backfills_short_job_behind_blocked_head(self):
        # 8 free; head needs 16 and must wait for the running job (ends t=100).
        running = [(make_request(99, 8, estimate=100), 0.0, 100.0)]
        queue = [
            make_request(1, 16, estimate=500),
            make_request(2, 4, runtime=50, estimate=50),   # finishes before shadow
        ]
        state = make_state(16, queue=queue, running=running)
        started = EasyBackfillScheduler().select_jobs(state)
        assert [r.job_id for r in started] == [2]

    def test_does_not_backfill_job_that_would_delay_head(self):
        running = [(make_request(99, 8, estimate=100), 0.0, 100.0)]
        queue = [
            make_request(1, 16, estimate=500),
            make_request(2, 4, runtime=500, estimate=500),  # too long, would delay head
        ]
        state = make_state(16, queue=queue, running=running)
        assert EasyBackfillScheduler().select_jobs(state) == []

    def test_backfills_long_job_on_extra_processors(self):
        # Head needs 12 of 16; the 4 processors beyond its need may run anything.
        running = [(make_request(99, 8, estimate=100), 0.0, 100.0)]
        queue = [
            make_request(1, 12, estimate=500),
            make_request(2, 4, runtime=10_000, estimate=10_000),
        ]
        state = make_state(16, queue=queue, running=running)
        started = EasyBackfillScheduler().select_jobs(state)
        assert [r.job_id for r in started] == [2]

    def test_extra_processors_not_double_spent(self):
        running = [(make_request(99, 8, estimate=100), 0.0, 100.0)]
        queue = [
            make_request(1, 12, estimate=500),
            make_request(2, 4, runtime=10_000, estimate=10_000),
            make_request(3, 4, runtime=10_000, estimate=10_000),
        ]
        state = make_state(16, queue=queue, running=running)
        started = EasyBackfillScheduler().select_jobs(state)
        # Only one long job fits on the 4 "extra" processors.
        assert [r.job_id for r in started] == [2]

    def test_empty_queue(self):
        assert EasyBackfillScheduler().select_jobs(make_state(16)) == []

    def test_held_component_reads_as_ending_now(self):
        # A grid site holds a started meta component until its partners
        # start, so its expected end can fall before now.
        head = make_request(1, 16, estimate=500)
        held = make_state(16, queue=[head], running=[(make_request(99, 8), 0.0, 50.0)], now=100.0)
        clamped = make_state(16, queue=[head], running=[(make_request(99, 8), 0.0, 100.0)], now=100.0)
        assert held.expected_completions() == [(100.0, 8)]
        easy = EasyBackfillScheduler()
        assert easy._shadow(held, [], head, 8) == easy._shadow(clamped, [], head, 8) == (100.0, 0)


class TestConservativeSelection:
    def test_starts_jobs_that_hold_immediate_reservations(self):
        queue = [make_request(1, 8), make_request(2, 8)]
        state = make_state(16, queue=queue)
        started = ConservativeBackfillScheduler().select_jobs(state)
        assert [r.job_id for r in started] == [1, 2]

    def test_backfill_cannot_delay_any_reservation(self):
        running = [(make_request(99, 8, estimate=100), 0.0, 100.0)]
        queue = [
            make_request(1, 16, estimate=100),                 # reserved at t=100
            make_request(2, 12, estimate=100),                 # reserved at t=200
            make_request(3, 8, runtime=1000, estimate=1000),   # would delay job 2
        ]
        state = make_state(16, queue=queue, running=running)
        started = ConservativeBackfillScheduler().select_jobs(state)
        assert [r.job_id for r in started] == []

    def test_backfills_into_genuine_hole(self):
        running = [(make_request(99, 8, estimate=100), 0.0, 100.0)]
        queue = [
            make_request(1, 16, estimate=100),
            make_request(2, 8, runtime=100, estimate=100),  # fits in the hole before job 1
        ]
        state = make_state(16, queue=queue, running=running)
        started = ConservativeBackfillScheduler().select_jobs(state)
        assert [r.job_id for r in started] == [2]


class TestCountsLandInTheState:
    """A policy adds its work counters to ``state.counts``, only nonzero ones."""

    @staticmethod
    def _blocked_head_state(counts=None):
        running = [(make_request(99, 8, estimate=100), 0.0, 100.0)]
        queue = [
            make_request(1, 16, estimate=100),
            make_request(2, 8, runtime=100, estimate=100),  # done when the head can start
        ]
        return make_state(16, queue=queue, running=running, counts=counts)

    def test_easy_counts_its_shadow_scan_and_backfill(self):
        state = self._blocked_head_state()
        assert [r.job_id for r in EasyBackfillScheduler().select_jobs(state)] == [2]
        assert state.counts == {"shadow_scans": 1, "jobs_backfilled": 1}

    def test_conservative_counts_its_backfill_and_slot_churn(self):
        state = self._blocked_head_state()
        assert [r.job_id for r in ConservativeBackfillScheduler().select_jobs(state)] == [2]
        counts = state.counts
        assert set(counts) == {"anchors_placed", "jobs_backfilled", "slots_split", "slots_merged"}
        assert counts["anchors_placed"] == 2
        assert counts["jobs_backfilled"] == 1
        assert counts["slots_split"] > 0 and counts["slots_merged"] > 0

    def test_a_pass_without_a_blocked_head_counts_nothing(self):
        state = make_state(16, queue=[make_request(1, 8)])
        EasyBackfillScheduler().select_jobs(state)
        assert state.counts == {}

    def test_hand_built_states_count_separately(self):
        counted, untouched = self._blocked_head_state(), self._blocked_head_state()
        EasyBackfillScheduler().select_jobs(counted)
        assert counted.counts is not untouched.counts
        assert untouched.counts == {}

    def test_passes_accumulate_in_the_counts_they_are_given(self):
        # The driver hands every pass its one counts dict.
        counts = Counter({"shadow_scans": 5})
        for _ in range(2):
            state = self._blocked_head_state(counts)
            EasyBackfillScheduler().select_jobs(state)
            assert state.counts is counts
        assert counts == {"shadow_scans": 7, "jobs_backfilled": 2}


class TestBackfillEndToEnd:
    """Replay a small workload and verify the classic relationships."""

    def _workload(self):
        jobs = [
            make_job(1, submit=0, runtime=1000, processors=24, requested_time=1000),
            make_job(2, submit=10, runtime=1000, processors=24, requested_time=1000),
            make_job(3, submit=20, runtime=100, processors=8, requested_time=100),
            make_job(4, submit=30, runtime=100, processors=8, requested_time=100),
        ]
        return make_workload(jobs, machine_size=32)

    def test_easy_backfills_small_jobs_early(self):
        workload = self._workload()
        fcfs = by_job_id(simulate(workload, FCFSScheduler(), machine_size=32))
        easy = by_job_id(simulate(workload, EasyBackfillScheduler(), machine_size=32))
        # Under FCFS the small jobs wait for job 2's turn; EASY backfills them
        # onto the 8 processors job 1 leaves free.
        assert easy[3].start_time < fcfs[3].start_time
        assert easy[4].start_time < fcfs[4].start_time
        # The head job (2) is not delayed by the backfilling.
        assert easy[2].start_time <= fcfs[2].start_time

    def test_conservative_never_worse_than_fcfs_for_head_jobs(self):
        workload = self._workload()
        fcfs = by_job_id(simulate(workload, FCFSScheduler(), machine_size=32))
        conservative = by_job_id(
            simulate(workload, ConservativeBackfillScheduler(), machine_size=32)
        )
        for job_id in (1, 2):
            assert conservative[job_id].start_time <= fcfs[job_id].start_time + 1e-9

    def test_all_jobs_complete_under_every_policy(self, lublin_workload):
        for scheduler in (FCFSScheduler(), EasyBackfillScheduler(), ConservativeBackfillScheduler()):
            result = simulate(lublin_workload, scheduler, machine_size=64)
            assert len(result.jobs) == len(lublin_workload.summary_jobs())

    def test_backfilling_improves_mean_wait_on_model_workload(self, lublin_workload):
        from repro.metrics import compute_metrics

        fcfs = compute_metrics(simulate(lublin_workload, FCFSScheduler(), machine_size=64))
        easy = compute_metrics(simulate(lublin_workload, EasyBackfillScheduler(), machine_size=64))
        assert easy.mean_wait <= fcfs.mean_wait
        assert easy.mean_bounded_slowdown <= fcfs.mean_bounded_slowdown
