"""Tests for queue-wait-time predictors."""

from __future__ import annotations

import pytest

from repro.grid import (
    CategoryMeanPredictor,
    MeanWaitPredictor,
    ProfilePredictor,
    SiteView,
    prediction_error_summary,
)
from repro.schedulers.freespace import FreeSpace
from tests.schedulers.util import make_request, make_state


def predict(predictor, processors=8, estimate=600, state=None):
    state = state if state is not None else make_state(64)
    site = SiteView(
        name="s",
        total_processors=state.total_processors,
        free_processors=state.free_processors,
        speed=1.0,
        now=state.now,
        queued=list(state.queue),
        running=list(state.running),
        calendar=FreeSpace(state.total_processors, state.now),
    )
    return predictor.predict_wait(processors, estimate, site)


class TestMeanWaitPredictor:
    def test_no_history_predicts_zero(self):
        assert predict(MeanWaitPredictor()) == 0.0

    def test_predicts_running_mean(self):
        predictor = MeanWaitPredictor()
        for wait in (100.0, 200.0, 300.0):
            predictor.observe(4, 100, wait)
        assert predict(predictor) == pytest.approx(200.0)

    def test_sliding_window_forgets_old_observations(self):
        predictor = MeanWaitPredictor(window=2)
        predictor.observe(4, 100, 1000.0)
        predictor.observe(4, 100, 10.0)
        predictor.observe(4, 100, 20.0)
        assert predict(predictor) == pytest.approx(15.0)

    def test_negative_observations_clamped(self):
        predictor = MeanWaitPredictor()
        predictor.observe(4, 100, -50.0)
        assert predict(predictor) == 0.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            MeanWaitPredictor(window=0)


class TestCategoryMeanPredictor:
    def test_uses_matching_category(self):
        predictor = CategoryMeanPredictor()
        predictor.observe(processors=2, estimate=100, wait=50.0)
        predictor.observe(processors=64, estimate=50_000, wait=5000.0)
        small = predict(predictor, processors=2, estimate=100)
        large = predict(predictor, processors=64, estimate=50_000)
        assert small == pytest.approx(50.0)
        assert large == pytest.approx(5000.0)

    def test_falls_back_to_global_mean_for_unseen_category(self):
        predictor = CategoryMeanPredictor()
        predictor.observe(processors=2, estimate=100, wait=100.0)
        assert predict(predictor, processors=128, estimate=90_000) == pytest.approx(100.0)

    def test_empty_history_predicts_zero(self):
        assert predict(CategoryMeanPredictor()) == 0.0


class TestProfilePredictor:
    def test_idle_machine_predicts_zero_wait(self):
        assert predict(ProfilePredictor()) == 0.0

    def test_accounts_for_running_jobs(self):
        running = [(make_request(1, processors=60, estimate=500), 0.0, 500.0)]
        state = make_state(64, running=running)
        wait = predict(ProfilePredictor(), processors=16, estimate=100, state=state)
        assert wait == pytest.approx(500.0)

    def test_accounts_for_queued_jobs_ahead(self):
        running = [(make_request(1, processors=64, estimate=1000), 0.0, 1000.0)]
        queued = [make_request(2, processors=64, estimate=2000)]
        state = make_state(64, running=running, queue=queued)
        wait = predict(ProfilePredictor(), processors=32, estimate=100, state=state)
        assert wait == pytest.approx(3000.0)

    def test_oversized_queued_jobs_clamped_to_machine(self):
        queued = [make_request(2, processors=999, estimate=100)]
        state = make_state(64, queue=queued)
        # Should not raise; the queued request is clamped to the machine size.
        assert predict(ProfilePredictor(), processors=8, estimate=50, state=state) >= 0.0


class TestErrorSummary:
    def test_summary_fields(self):
        pairs = [(100.0, 80.0), (50.0, 70.0)]
        summary = prediction_error_summary(pairs)
        assert summary["count"] == 2
        assert summary["mae"] == pytest.approx(20.0)
        assert summary["bias"] == pytest.approx(0.0)
        assert summary["mean_actual"] == pytest.approx(75.0)

    def test_empty_pairs(self):
        assert prediction_error_summary([])["count"] == 0
