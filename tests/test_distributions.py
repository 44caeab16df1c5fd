"""Unit and property-based tests for the statistical distributions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import (
    DiscreteSampler,
    HyperErlang,
    HyperGamma,
    LogUniform,
    TruncatedNormal,
    Weibull,
    Zipf,
    make_rng,
)


class TestLogUniform:
    def test_samples_within_bounds(self):
        dist = LogUniform(10.0, 1000.0)
        rng = make_rng(1)
        samples = dist.sample_many(rng, 2000)
        assert np.all(samples >= 10.0) and np.all(samples <= 1000.0)

    def test_mean_matches_closed_form(self):
        dist = LogUniform(10.0, 1000.0)
        rng = make_rng(2)
        samples = dist.sample_many(rng, 50_000)
        assert np.mean(samples) == pytest.approx(dist.mean(), rel=0.05)

    def test_degenerate_interval(self):
        assert LogUniform(5.0, 5.0).mean() == 5.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            LogUniform(0.0, 10.0)
        with pytest.raises(ValueError):
            LogUniform(10.0, 1.0)

    @given(
        low=st.floats(min_value=0.01, max_value=100.0),
        factor=st.floats(min_value=1.0, max_value=1000.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_single_sample_in_bounds(self, low, factor):
        dist = LogUniform(low, low * factor)
        value = dist.sample(make_rng(0))
        assert low * (1 - 1e-9) <= value <= low * factor * (1 + 1e-9)


class TestHyperErlang:
    def test_mean_matches_samples(self):
        dist = HyperErlang(probs=(0.7, 0.3), rates=(0.01, 0.001), order=2)
        rng = make_rng(4)
        samples = dist.sample_many(rng, 50_000)
        assert np.mean(samples) == pytest.approx(dist.mean(), rel=0.05)

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            HyperErlang(probs=(1.0,), rates=(1.0,), order=0)

    def test_samples_positive(self):
        dist = HyperErlang(probs=(1.0,), rates=(2.0,), order=3)
        samples = dist.sample_many(make_rng(5), 1000)
        assert np.all(samples > 0)


class TestHyperGamma:
    def test_mean_matches_samples(self):
        dist = HyperGamma(p=0.6, shape1=2.0, scale1=100.0, shape2=1.0, scale2=5000.0)
        samples = dist.sample_many(make_rng(6), 100_000)
        assert np.mean(samples) == pytest.approx(dist.mean(), rel=0.05)

    def test_mixing_probability_bounds(self):
        with pytest.raises(ValueError):
            HyperGamma(p=1.5, shape1=1, scale1=1, shape2=1, scale2=1)

    def test_extreme_mixing_probabilities(self):
        all_first = HyperGamma(p=1.0, shape1=2.0, scale1=10.0, shape2=1.0, scale2=9999.0)
        assert all_first.mean() == pytest.approx(20.0)


class TestZipf:
    def test_support_bounds(self):
        dist = Zipf(n=10, alpha=1.0)
        samples = dist.sample_many(make_rng(7), 5000)
        assert samples.min() >= 1 and samples.max() <= 10

    def test_rank_one_is_most_popular(self):
        dist = Zipf(n=20, alpha=1.2)
        samples = dist.sample_many(make_rng(8), 20_000)
        counts = np.bincount(samples, minlength=21)
        assert counts[1] == counts[1:].max()

    def test_alpha_zero_is_uniform(self):
        dist = Zipf(n=5, alpha=0.0)
        assert dist.mean() == pytest.approx(3.0)


class TestWeibull:
    def test_mean_matches_closed_form(self):
        dist = Weibull(shape=0.7, scale=1000.0)
        samples = dist.sample_many(make_rng(9), 100_000)
        assert np.mean(samples) == pytest.approx(dist.mean(), rel=0.05)

    def test_shape_one_is_exponential_mean(self):
        assert Weibull(shape=1.0, scale=500.0).mean() == pytest.approx(500.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Weibull(shape=0.0, scale=1.0)


class TestTruncatedNormal:
    def test_samples_within_bounds(self):
        dist = TruncatedNormal(mu=0.0, sigma=1.0, low=-1.0, high=1.0)
        samples = dist.sample_many(make_rng(10), 500)
        assert np.all(samples >= -1.0) and np.all(samples <= 1.0)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            TruncatedNormal(mu=0.0, sigma=1.0, low=1.0, high=-1.0)


class TestDiscreteSampler:
    def test_respects_weights(self):
        sampler = DiscreteSampler(["a", "b"], [0.99, 0.01])
        rng = make_rng(11)
        samples = sampler.sample_many(rng, 2000)
        assert samples.count("a") > samples.count("b")

    def test_zero_weight_values_never_sampled(self):
        sampler = DiscreteSampler([1, 2, 3], [1.0, 0.0, 1.0])
        samples = sampler.sample_many(make_rng(12), 1000)
        assert 2 not in samples

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            DiscreteSampler([1, 2], [1.0])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            DiscreteSampler([1, 2], [0.0, 0.0])


class TestReproducibility:
    @pytest.mark.parametrize(
        "dist",
        [
            LogUniform(1.0, 100.0),
            HyperGamma(p=0.5, shape1=1.0, scale1=1.0, shape2=2.0, scale2=2.0),
            Weibull(shape=0.8, scale=10.0),
            Zipf(n=10, alpha=1.0),
        ],
    )
    def test_same_seed_same_samples(self, dist):
        a = [dist.sample(make_rng(99)) for _ in range(5)]
        b = [dist.sample(make_rng(99)) for _ in range(5)]
        assert a == b
