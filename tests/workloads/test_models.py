"""Tests for the rigid workload models (structure, validity, reproducibility)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.swf import validate, summarize
from repro.workloads import (
    Downey97Model,
    Feitelson96Model,
    Jann97Model,
    Lublin99Model,
    UniformModel,
)

ALL_MODELS = [Feitelson96Model, Jann97Model, Lublin99Model, Downey97Model, UniformModel]


@pytest.fixture(scope="module")
def generated():
    """One 600-job workload per model, shared across this module's tests."""
    out = {}
    for model_class in ALL_MODELS:
        model = model_class(machine_size=128)
        out[model_class] = model.generate(600, seed=7)
    return out


class TestStandardConformance:
    @pytest.mark.parametrize("model_class", ALL_MODELS)
    def test_generated_workload_is_clean(self, generated, model_class):
        report = validate(generated[model_class])
        assert report.is_clean, report.errors[:3]

    @pytest.mark.parametrize("model_class", ALL_MODELS)
    def test_job_count_and_numbering(self, generated, model_class):
        workload = generated[model_class]
        assert len(workload) == 600
        assert [j.job_number for j in workload] == list(range(1, 601))

    @pytest.mark.parametrize("model_class", ALL_MODELS)
    def test_sizes_within_machine(self, generated, model_class):
        workload = generated[model_class]
        assert all(1 <= j.allocated_processors <= 128 for j in workload)

    @pytest.mark.parametrize("model_class", ALL_MODELS)
    def test_runtimes_positive_and_estimates_cover_runtime(self, generated, model_class):
        for job in generated[model_class]:
            assert job.run_time >= 1
            assert job.requested_time >= job.run_time

    @pytest.mark.parametrize("model_class", ALL_MODELS)
    def test_reproducible_with_seed(self, model_class):
        model = model_class(machine_size=64)
        assert model.generate(100, seed=5).jobs == model.generate(100, seed=5).jobs

    @pytest.mark.parametrize("model_class", ALL_MODELS)
    def test_different_seeds_differ(self, model_class):
        model = model_class(machine_size=64)
        assert model.generate(100, seed=1).jobs != model.generate(100, seed=2).jobs

    @pytest.mark.parametrize("model_class", ALL_MODELS)
    def test_invalid_job_count_rejected(self, model_class):
        with pytest.raises(ValueError):
            model_class(machine_size=64).generate(0)


class TestModelStructure:
    def test_feitelson_emphasizes_powers_of_two(self, generated):
        stats = summarize(generated[Feitelson96Model])
        assert stats.power_of_two_fraction > 0.6

    def test_lublin_size_runtime_correlation(self, generated):
        """Bigger jobs run longer on average (the documented correlation)."""
        workload = generated[Lublin99Model]
        sizes = np.array([j.allocated_processors for j in workload], dtype=float)
        runtimes = np.array([j.run_time for j in workload], dtype=float)
        small = runtimes[sizes <= np.median(sizes)].mean()
        large = runtimes[sizes > np.median(sizes)].mean()
        assert large > small

    def test_lublin_has_interactive_and_batch_jobs(self, generated):
        stats = summarize(generated[Lublin99Model])
        assert 0.05 < stats.interactive_fraction < 0.7

    def test_uniform_model_lacks_power_of_two_emphasis(self, generated):
        naive = summarize(generated[UniformModel])
        measured = summarize(generated[Lublin99Model])
        assert naive.power_of_two_fraction < measured.power_of_two_fraction

    def test_jann_sizes_fall_into_declared_classes(self):
        model = Jann97Model(machine_size=64)
        workload = model.generate(300, seed=2)
        boundaries = [(c.low, c.high) for c in model.classes]
        for job in workload:
            assert any(lo <= job.allocated_processors <= hi for lo, hi in boundaries)

    def test_downey_rigid_requests_are_powers_of_two(self, generated):
        for job in generated[Downey97Model]:
            size = job.allocated_processors
            assert size & (size - 1) == 0

    def test_downey_moldable_descriptions_match_workload(self):
        model = Downey97Model(machine_size=64)
        workload, moldable = model.generate_moldable(200, seed=3)
        assert set(moldable) == {j.job_number for j in workload}
        for job in workload:
            description = moldable[job.job_number]
            runtime = description.runtime_on(job.allocated_processors)
            assert runtime == pytest.approx(job.run_time, rel=0.05, abs=2)


class TestLoadControl:
    @pytest.mark.parametrize("model_class", [Lublin99Model, Jann97Model, UniformModel])
    def test_generate_with_load_hits_target(self, model_class):
        model = model_class(machine_size=128)
        workload = model.generate_with_load(500, target_load=0.7, seed=9)
        assert workload.offered_load(128) == pytest.approx(0.7, rel=0.05)

    def test_generate_with_load_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            Lublin99Model().generate_with_load(10, target_load=0.0)

    def test_generate_with_load_without_offered_load_raises(self):
        # One job has no submit-time span; this used to return it unscaled.
        with pytest.raises(ValueError, match="offered load"):
            UniformModel(machine_size=16).generate_with_load(1, target_load=0.5, seed=1)

    def test_daily_cycle_concentrates_daytime_arrivals(self):
        workload = Lublin99Model(machine_size=64, peak_to_trough=6.0).generate(2000, seed=11)
        hours = np.array([(j.submit_time / 3600.0) % 24 for j in workload])
        day = np.sum((hours >= 8) & (hours < 20))
        night = len(hours) - day
        assert day > night
