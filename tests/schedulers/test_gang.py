"""Unit tests for the gang-scheduling (time-slicing) simulator."""

from __future__ import annotations

import pytest

from repro.evaluation import simulate
from repro.metrics import compute_metrics
from repro.schedulers import EasyBackfillScheduler, GangSimulation, simulate_gang
from tests.conftest import by_job_id, make_job, make_workload


class TestSingleJobs:
    def test_single_job_runs_at_full_speed(self):
        workload = make_workload([make_job(1, submit=0, runtime=100, processors=8)])
        result = simulate_gang(workload, machine_size=16, max_slots=4)
        job = result.jobs[0]
        assert job.start_time == 0
        assert job.end_time == pytest.approx(100.0)

    def test_two_jobs_in_same_slot_do_not_slow_each_other(self):
        jobs = [
            make_job(1, submit=0, runtime=100, processors=8),
            make_job(2, submit=0, runtime=100, processors=8),
        ]
        result = simulate_gang(make_workload(jobs), machine_size=16, max_slots=4)
        for job in result.jobs:
            assert job.end_time == pytest.approx(100.0)

    def test_two_slots_share_the_machine(self):
        jobs = [
            make_job(1, submit=0, runtime=100, processors=16),
            make_job(2, submit=0, runtime=100, processors=16),
        ]
        result = simulate_gang(
            make_workload(jobs), machine_size=16, max_slots=4, context_switch_overhead=0.0
        )
        # Both jobs time-share: each runs at half speed until one finishes.
        ends = sorted(j.end_time for j in result.jobs)
        assert ends[0] == pytest.approx(200.0)
        assert ends[1] == pytest.approx(200.0)

    def test_context_switch_overhead_stretches_runtimes(self):
        jobs = [
            make_job(1, submit=0, runtime=100, processors=16),
            make_job(2, submit=0, runtime=100, processors=16),
        ]
        without = simulate_gang(
            make_workload(jobs), machine_size=16, max_slots=4, context_switch_overhead=0.0
        )
        with_overhead = simulate_gang(
            make_workload(jobs), machine_size=16, max_slots=4, context_switch_overhead=0.1
        )
        assert max(j.end_time for j in with_overhead.jobs) > max(
            j.end_time for j in without.jobs
        )


class TestMatrixBehaviour:
    def test_multiprogramming_level_bounds_slots(self):
        jobs = [make_job(i + 1, submit=0, runtime=100, processors=16) for i in range(4)]
        result = simulate_gang(make_workload(jobs), machine_size=16, max_slots=2,
                               context_switch_overhead=0.0)
        # Only two can run at once; the other two wait in queue, so the last
        # completions are later than with four slots.
        four_slots = simulate_gang(make_workload(jobs), machine_size=16, max_slots=4,
                                   context_switch_overhead=0.0)
        assert max(j.end_time for j in result.jobs) >= max(j.end_time for j in four_slots.jobs)

    def test_all_jobs_complete(self, lublin_workload):
        result = simulate_gang(lublin_workload, machine_size=64, max_slots=3)
        assert len(result.jobs) == len(lublin_workload.summary_jobs())

    def test_gang_cuts_wait_but_stretches_runtimes(self, lublin_workload):
        gang = compute_metrics(simulate_gang(lublin_workload, machine_size=64, max_slots=5))
        easy = compute_metrics(
            simulate(lublin_workload, EasyBackfillScheduler(), machine_size=64)
        )
        # The defining trade-off of time slicing: far lower wait times...
        assert gang.mean_wait < easy.mean_wait
        # ...but individual executions take longer than their dedicated runtime.
        gang_result = simulate_gang(lublin_workload, machine_size=64, max_slots=5)
        by_id = by_job_id(gang_result)
        stretched = [
            by_id[j.job_number].run_time >= j.run_time * 0.999
            for j in lublin_workload.summary_jobs()
            if j.job_number in by_id and j.run_time > 0
        ]
        assert all(stretched)

    def test_oversized_jobs_skipped_and_counted(self):
        jobs = [make_job(1, submit=0, runtime=10, processors=64)]
        result = simulate_gang(make_workload(jobs), machine_size=16)
        assert len(result.jobs) == 0
        assert result.metadata["skipped_too_large"] == 1

    def test_invalid_parameters_rejected(self, tiny_workload):
        with pytest.raises(ValueError):
            GangSimulation(tiny_workload, machine_size=16, max_slots=0)
        with pytest.raises(ValueError):
            GangSimulation(tiny_workload, machine_size=16, context_switch_overhead=1.5)
