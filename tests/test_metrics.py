"""Unit tests for metrics, objective functions, and ranking comparison."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.bench.stats import mean_ci
from repro.evaluation.results import JobResult, SimulationResult
from repro.metrics import (
    MAXIMIZE_METRICS,
    ObjectiveFunction,
    compute_metrics,
    kendall_tau,
    rank_schedulers,
    ranking_agreement,
)
from tests.conftest import make_job


def job_result(job_id, submit=0.0, start=0.0, end=100.0, processors=4, killed=False):
    return JobResult(
        job=make_job(job_id),
        submit_time=submit,
        start_time=start,
        end_time=end,
        processors=processors,
        killed=killed,
    )


def simulation(name="test", machine=16, jobs=None, available=None):
    return SimulationResult(
        scheduler_name=name,
        machine_size=machine,
        jobs=jobs or [],
        available_node_seconds=available,
    )


class TestJobResult:
    def test_derived_times(self):
        r = job_result(1, submit=10, start=60, end=160)
        assert r.wait_time == 50
        assert r.run_time == 100
        assert r.response_time == 150
        assert r.slowdown() == pytest.approx(1.5)
        assert r.area == 400

    def test_bounded_slowdown_clamps(self):
        r = job_result(1, submit=0, start=100, end=101)
        assert r.bounded_slowdown(tau=10) == pytest.approx(101 / 10)
        assert r.slowdown() == pytest.approx(101.0)

    def test_zero_runtime_slowdown_infinite(self):
        r = job_result(1, start=50, end=50)
        assert r.slowdown() == float("inf")
        assert r.bounded_slowdown() >= 1.0

    def test_positional_construction_equals_keyword_construction(self):
        job = make_job(3)
        positional = JobResult(job, 1.0, 2.0, 5.0, 4, True, 2, "s0")
        keyword = JobResult(
            job=job, submit_time=1.0, start_time=2.0, end_time=5.0, processors=4,
            killed=True, restarts=2, site="s0",
        )
        assert positional == keyword
        assert JobResult(job, 1.0, 2.0, 5.0, 4) == dataclasses.replace(keyword, killed=False, restarts=0, site=None)

    def test_replace_copies_and_leaves_the_original(self):
        r = job_result(1, submit=10, start=60, end=160)
        moved = dataclasses.replace(r, start_time=70, end_time=170)
        assert (moved.wait_time, moved.run_time) == (60, 100)
        assert (r.start_time, r.end_time) == (60, 160)
        assert moved.job is r.job

    def test_pickle_round_trip(self):
        r = JobResult(make_job(2), 0.5, 1.5, 9.0, 8, True, 3, "site-a")
        assert pickle.loads(pickle.dumps(r)) == r

    def test_slotted_without_instance_dict(self):
        r = job_result(1)
        assert dataclasses.is_dataclass(r)
        assert not hasattr(r, "__dict__")
        with pytest.raises(AttributeError):
            r.wait = 3


class TestComputeMetrics:
    def test_aggregates(self):
        jobs = [
            job_result(1, submit=0, start=0, end=100, processors=8),
            job_result(2, submit=0, start=100, end=200, processors=8),
        ]
        report = compute_metrics(simulation(jobs=jobs))
        assert report.jobs == 2
        assert report.mean_wait == pytest.approx(50.0)
        assert report.mean_response == pytest.approx(150.0)
        assert report.makespan == 200.0
        # 1600 processor-seconds over a 16 x 200 window.
        assert report.utilization == pytest.approx(0.5)
        assert report.throughput_per_hour == pytest.approx(2 / (200 / 3600))

    def test_killed_jobs_counted_separately(self):
        jobs = [job_result(1), job_result(2, killed=True)]
        report = compute_metrics(simulation(jobs=jobs))
        assert report.jobs == 1
        assert report.killed == 1

    def test_utilization_uses_available_capacity_when_given(self):
        jobs = [job_result(1, start=0, end=100, processors=8)]
        full = compute_metrics(simulation(jobs=jobs))
        reduced = compute_metrics(simulation(jobs=jobs, available=800.0))
        assert reduced.utilization == pytest.approx(1.0)
        assert full.utilization == pytest.approx(0.5)

    def test_empty_simulation(self):
        report = compute_metrics(simulation(jobs=[]))
        assert report.jobs == 0
        assert report.mean_wait == 0.0
        assert report.utilization == 0.0

    def test_value_lookup_and_as_dict(self):
        report = compute_metrics(simulation(jobs=[job_result(1)]))
        assert report.value("mean_wait") == report.mean_wait
        with pytest.raises(KeyError):
            report.value("no_such_metric")
        assert "utilization" in report.as_dict()

    def test_counters_ride_along_and_are_addressable(self):
        result = simulation(jobs=[job_result(1)])
        result.counters.update({"sched_passes": 7, "jobs_backfilled": 3})
        report = compute_metrics(result)
        assert report.counters == {"jobs_backfilled": 3, "sched_passes": 7}
        assert report.value("counters.sched_passes") == 7.0
        # a counter the run never emitted reads 0, not KeyError — policies
        # differ in which counters they produce
        assert report.value("counters.never_emitted") == 0.0


class TestConfidenceInterval:
    def test_mean_and_width(self):
        ci = mean_ci([10.0] * 100)
        assert ci.mean == 10.0
        assert ci.half_width == 0.0

    def test_width_shrinks_with_samples(self):
        small = mean_ci(list(range(10))).half_width
        large = mean_ci(list(range(10)) * 100).half_width
        assert large < small

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            mean_ci([])
        assert mean_ci([5.0]).half_width == 0.0


def report_with(name, **values):
    """A MetricsReport with selected fields overridden (others zero)."""
    base = dict(
        scheduler=name,
        jobs=100,
        killed=0,
        mean_wait=0.0,
        median_wait=0.0,
        mean_response=0.0,
        median_response=0.0,
        mean_slowdown=0.0,
        mean_bounded_slowdown=0.0,
        median_bounded_slowdown=0.0,
        p90_bounded_slowdown=0.0,
        utilization=0.0,
        throughput_per_hour=0.0,
        makespan=0.0,
        total_area=0.0,
    )
    base.update(values)
    from repro.metrics.basic import MetricsReport

    return MetricsReport(**base)


class TestObjectiveAndRanking:
    def test_rank_by_minimize_metric(self):
        reports = [report_with("a", mean_wait=100), report_with("b", mean_wait=10)]
        assert rank_schedulers(reports, metric="mean_wait") == ["b", "a"]

    def test_rank_by_maximize_metric(self):
        reports = [report_with("a", utilization=0.5), report_with("b", utilization=0.9)]
        assert rank_schedulers(reports, metric="utilization") == ["b", "a"]
        assert "utilization" in MAXIMIZE_METRICS

    def test_rank_requires_exactly_one_criterion(self):
        reports = [report_with("a")]
        with pytest.raises(ValueError):
            rank_schedulers(reports)
        with pytest.raises(ValueError):
            rank_schedulers(reports, metric="mean_wait", objective=ObjectiveFunction({"mean_wait": 1.0}))

    def test_objective_weights_change_winner(self):
        fast_but_wasteful = report_with("fast", mean_wait=10, utilization=0.4)
        slow_but_packed = report_with("packed", mean_wait=100, utilization=0.95)
        reports = [fast_but_wasteful, slow_but_packed]
        wait_heavy = ObjectiveFunction({"mean_wait": 1.0, "utilization": 0.01},
                                       scales={"mean_wait": 100, "utilization": 1})
        util_heavy = ObjectiveFunction({"mean_wait": 0.01, "utilization": 1.0},
                                       scales={"mean_wait": 100, "utilization": 1})
        assert rank_schedulers(reports, objective=wait_heavy)[0] == "fast"
        assert rank_schedulers(reports, objective=util_heavy)[0] == "packed"

    def test_objective_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveFunction({"nonexistent": 1.0})
        with pytest.raises(ValueError):
            ObjectiveFunction({})

    def test_normalized_to_reference(self):
        reference = report_with("ref", mean_wait=200.0, utilization=0.8)
        objective = ObjectiveFunction({"mean_wait": 1.0, "utilization": 1.0}).normalized_to(reference)
        cost = objective.evaluate(reference)
        # Normalized reference: +1 (wait) - 1 (utilization) = 0.
        assert cost == pytest.approx(0.0)

    def test_kendall_tau_extremes(self):
        assert kendall_tau(["a", "b", "c"], ["a", "b", "c"]) == 1.0
        assert kendall_tau(["a", "b", "c"], ["c", "b", "a"]) == -1.0

    def test_kendall_tau_requires_same_items(self):
        with pytest.raises(ValueError):
            kendall_tau(["a"], ["b"])

    def test_ranking_agreement_matrix(self):
        reports = [
            report_with("a", mean_wait=10, utilization=0.9),
            report_with("b", mean_wait=20, utilization=0.5),
        ]
        agreement = ranking_agreement(reports, ["mean_wait", "utilization"])
        assert agreement[("mean_wait", "utilization")] == 1.0
