"""The metrics kernel equals numpy's statistics bit for bit.

:func:`repro.metrics.basic.compute_metrics` computes its means, medians and
90th percentile from one sorted array per column instead of calling
``np.mean``, ``np.median`` and ``np.percentile``.  Stored reports must not
change by a bit, so these tests compare each statistic, and whole reports,
against the numpy calls themselves.  A numpy release that changes its
summation or its interpolation fails them.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api.registry import make_scheduler, scheduler_names, scheduler_registry
from repro.core.outage import generate_outages
from repro.core.outage.generator import OutageModel
from repro.evaluation.simulator import simulate
from repro.metrics.basic import DEFAULT_TAU, MetricsReport, _mean, _median, _p90, compute_metrics
from repro.schedulers.moldable import MoldableScheduler
from repro.workloads import Lublin99Model
from repro.workloads.speedup import AmdahlSpeedup, MoldableJob


def _bits(value: float) -> str:
    return float(value).hex()


def _assert_numpy_equal(values) -> None:
    a = np.asarray(values, dtype=np.float64)
    s = np.sort(a)
    assert _bits(_mean(a)) == _bits(np.mean(a))
    assert _bits(_median(s)) == _bits(np.median(a))
    assert _bits(_p90(s)) == _bits(np.percentile(a, 90))


# ``+ 0.0`` turns -0.0 into 0.0.  The report's columns never hold -0.0 (they
# are differences of non-negative times, or ratios of at least 1), and on
# an array that mixes both zeros np.median's partition and a sort can pick
# different ones, equal as values but not as bits.
magnitudes = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False)
values = st.one_of(
    magnitudes,
    magnitudes.map(lambda x: round(x, 1)),
    st.integers(min_value=0, max_value=5).map(float),  # ties
    st.sampled_from([0.0, 1.0, 10.0, 1e5, 123456.789]),
).map(lambda x: x + 0.0)


class TestStatistics:
    @given(st.lists(values, min_size=1, max_size=300))
    @settings(max_examples=400, deadline=None)
    @example([7.0])
    @example([1.0, 2.0])
    @example([2.0, 2.0])
    @example([0.1, 0.2, 0.3])
    @example([1e5, -1e5, 0.5, 0.5])
    def test_equal_to_numpy(self, values):
        _assert_numpy_equal(values)

    def test_an_empty_array_reads_zero(self):
        empty = np.empty(0)
        assert _mean(empty) == _median(empty) == _p90(empty) == 0.0

    def test_every_length_up_to_300_with_ties_and_rounding(self):
        rng = np.random.default_rng(7)
        for n in range(1, 301):
            _assert_numpy_equal(rng.uniform(0, 1e5, n))
            _assert_numpy_equal(np.round(rng.exponential(500.0, n), 1))
            _assert_numpy_equal(rng.integers(0, 4, n).astype(np.float64))


# ----------------------------------------------------------------------
# whole reports
# ----------------------------------------------------------------------
SIZE = 64
MODEL = OutageModel(
    mtbf_seconds=12 * 3600.0,
    maintenance_interval_seconds=2 * 24 * 3600,
    maintenance_duration_seconds=4 * 3600,
    maintenance_notice_seconds=24 * 3600,
    maintenance_fraction=0.5,
)


def _workload():
    return Lublin99Model(machine_size=SIZE).generate_with_load(150, 0.85, seed=11)


def _space_policies():
    """One spec per registered ``space`` policy class."""
    classes, specs = set(), []
    for name in scheduler_names():
        cls = scheduler_registry.get(name)
        if cls.mode == "space" and cls not in classes:
            classes.add(cls)
            specs.append(name)
    return specs


def _policy(name: str, outage_aware: bool):
    if scheduler_registry.get(name) is MoldableScheduler:
        descriptions = {
            job.job_number: MoldableJob(
                job.job_number, max(job.run_time, 1) * job.processors, AmdahlSpeedup(0.05), SIZE
            )
            for job in _workload().summary_jobs()
        }
        policy = MoldableScheduler(descriptions)
    else:
        policy = make_scheduler(name)
    policy.outage_aware = outage_aware
    return policy


def _numpy_report(result, tau: float = DEFAULT_TAU) -> MetricsReport:
    """The report with every statistic taken by the plain numpy call."""
    cols = result.columns()
    done = ~cols.killed
    submit, start, end = (cols.np(name)[done] for name in ("submit", "start", "end"))
    waits, responses, runs = start - submit, end - submit, end - start
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slowdowns = responses[runs > 0] / runs[runs > 0]
    slowdowns = slowdowns[np.isfinite(slowdowns)]
    bounded = np.maximum(1.0, responses / np.maximum(runs, tau))

    def stat(fn, a, *args):
        return float(fn(a, *args)) if a.size else 0.0

    return dataclasses.replace(
        compute_metrics(result, tau=tau),
        mean_wait=stat(np.mean, waits),
        median_wait=stat(np.median, waits),
        mean_response=stat(np.mean, responses),
        median_response=stat(np.median, responses),
        mean_slowdown=stat(np.mean, slowdowns),
        mean_bounded_slowdown=stat(np.mean, bounded),
        median_bounded_slowdown=stat(np.median, bounded),
        p90_bounded_slowdown=stat(np.percentile, bounded, 90),
    )


def _report_bits(report: MetricsReport) -> dict:
    return {
        name: _bits(value) if isinstance(value, float) else value
        for name, value in dataclasses.asdict(report).items()
    }


@pytest.mark.parametrize("name", _space_policies())
@pytest.mark.parametrize("outages", [False, True], ids=["plain", "outages"])
def test_report_equals_the_numpy_report(name, outages):
    workload = _workload()
    log = generate_outages(SIZE, int(workload.span()) + 1, model=MODEL, seed=3) if outages else None
    # without restarts a killed job stays in the result, outside every statistic
    result = simulate(
        workload, _policy(name, outages), machine_size=SIZE, outages=log, restart_failed_jobs=False
    )
    assert result.jobs
    if outages:
        assert any(j.killed for j in result.jobs), "the outage case must kill some job"
    assert _report_bits(compute_metrics(result)) == _report_bits(_numpy_report(result))
