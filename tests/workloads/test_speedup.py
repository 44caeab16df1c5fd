"""Tests for the speedup models and moldable-job descriptions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.speedup import AmdahlSpeedup, DowneySpeedup, MoldableJob


class TestDowneySpeedup:
    def test_speedup_is_one_on_one_processor(self):
        assert DowneySpeedup(A=16, sigma=0.5).speedup(1) == pytest.approx(1.0)

    def test_speedup_bounded_by_average_parallelism(self):
        model = DowneySpeedup(A=8, sigma=0.5)
        for n in (1, 2, 8, 64, 1024):
            assert model.speedup(n) <= 8.0 + 1e-9

    def test_sigma_zero_is_ideal_up_to_A(self):
        model = DowneySpeedup(A=16, sigma=0.0)
        assert model.speedup(8) == pytest.approx(8.0)
        assert model.speedup(32) == pytest.approx(16.0)

    def test_larger_sigma_means_worse_speedup(self):
        low = DowneySpeedup(A=32, sigma=0.2)
        high = DowneySpeedup(A=32, sigma=2.0)
        assert high.speedup(16) < low.speedup(16)

    def test_serial_job(self):
        assert DowneySpeedup(A=1, sigma=1.0).speedup(64) == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DowneySpeedup(A=0.5, sigma=1.0)
        with pytest.raises(ValueError):
            DowneySpeedup(A=2.0, sigma=-1.0)
        with pytest.raises(ValueError):
            DowneySpeedup(A=2.0, sigma=1.0).speedup(0)

    @given(
        A=st.floats(min_value=1.0, max_value=256.0),
        sigma=st.floats(min_value=0.0, max_value=4.0),
        n=st.integers(min_value=1, max_value=512),
    )
    @settings(max_examples=200, deadline=None)
    def test_speedup_always_within_physical_bounds(self, A, sigma, n):
        s = DowneySpeedup(A=A, sigma=sigma).speedup(n)
        assert 1.0 <= s <= A + 1e-9

    @given(
        A=st.floats(min_value=1.0, max_value=128.0),
        sigma=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_speedup_monotone_in_processors(self, A, sigma):
        model = DowneySpeedup(A=A, sigma=sigma)
        values = [model.speedup(n) for n in (1, 2, 4, 8, 16, 32, 64, 128)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


class TestAmdahl:
    def test_limits(self):
        assert AmdahlSpeedup(0.0).speedup(16) == pytest.approx(16.0)
        assert AmdahlSpeedup(1.0).speedup(16) == pytest.approx(1.0)

    def test_asymptote(self):
        model = AmdahlSpeedup(0.1)
        assert model.speedup(10_000) == pytest.approx(10.0, rel=0.01)

    def test_efficiency_decreases(self):
        model = AmdahlSpeedup(0.05)
        assert model.efficiency(2) > model.efficiency(64)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            AmdahlSpeedup(1.5)


class TestMoldableJob:
    def job(self, A=16.0, sigma=0.5, work=3200.0, maximum=64):
        return MoldableJob(
            job_id=1,
            sequential_work=work,
            speedup_model=DowneySpeedup(A=A, sigma=sigma),
            max_processors=maximum,
        )

    def test_runtime_on_one_processor_is_sequential_work(self):
        assert self.job().runtime_on(1) == pytest.approx(3200.0)

    def test_runtime_decreases_with_processors(self):
        job = self.job()
        assert job.runtime_on(16) < job.runtime_on(4) < job.runtime_on(1)

    def test_out_of_range_allocation_rejected(self):
        job = self.job(maximum=32)
        with pytest.raises(ValueError):
            job.runtime_on(0)
        with pytest.raises(ValueError):
            job.runtime_on(33)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            MoldableJob(job_id=1, sequential_work=0.0, speedup_model=AmdahlSpeedup(0.1), max_processors=4)
        with pytest.raises(ValueError):
            MoldableJob(job_id=1, sequential_work=10.0, speedup_model=AmdahlSpeedup(0.1), max_processors=0)
