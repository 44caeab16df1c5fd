"""Tests for the telemetry registry: counters, gauges, histograms.

The histogram bucket-edge cases matter most: Prometheus semantics put an
observation exactly on a boundary into that boundary's bucket (``le`` is an
inclusive upper bound), and the cumulative rendering must end in a ``+Inf``
bucket equal to the total count.
"""

from __future__ import annotations

import pytest

from repro.obs.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    Telemetry,
    TelemetryError,
)


class TestCounters:
    def test_counts_accumulate(self):
        t = Telemetry()
        t.counter("events").inc()
        t.counter("events").inc(4)
        assert t.counter("events").value() == 5

    def test_labelled_series_are_independent(self):
        t = Telemetry()
        family = t.counter("requests", help_text="req")
        family.inc(method="GET", route="/a")
        family.inc(method="GET", route="/a")
        family.inc(method="POST", route="/a")
        assert family.value(method="GET", route="/a") == 2
        assert family.value(method="POST", route="/a") == 1
        assert family.value(method="PUT", route="/a") == 0

    def test_negative_increment_rejected(self):
        t = Telemetry()
        with pytest.raises(TelemetryError):
            t.counter("events").inc(-1)

    def test_kind_clash_is_an_error(self):
        t = Telemetry()
        t.counter("x")
        with pytest.raises(TelemetryError):
            t.gauge("x")
        with pytest.raises(TelemetryError):
            t.histogram("x")

    def test_unlabelled_and_labelled_series_stay_apart(self):
        t = Telemetry()
        family = t.counter("passes", help_text="first help wins")
        assert t.counter("passes", help_text="ignored") is family
        assert family.help == "first help wins"
        family.inc()
        family.inc(2, kind="b", policy="a")
        family.inc(kind="b", policy="a")
        assert family.label_keys() == [(), (("kind", "b"), ("policy", "a"))]
        assert family.value() == 1
        assert family.value(policy="a", kind="b") == 3


class TestGauges:
    def test_set_inc_dec(self):
        t = Telemetry()
        g = t.gauge("depth")
        g.set(3)
        g.inc()
        g.dec(2)
        assert g.value() == 2



class TestHistogramBucketEdges:
    def test_observation_on_boundary_lands_in_that_bucket(self):
        # le is inclusive: an observation of exactly 0.005 belongs to the
        # 0.005 bucket, not the next one up.  bucket_counts() is cumulative,
        # one entry per edge plus the trailing +Inf total.
        t = Telemetry()
        h = t.histogram("lat", buckets=(0.001, 0.005, 0.01))
        h.observe(0.005)
        assert h.bucket_counts() == [0, 1, 1, 1]

    def test_overflow_goes_to_inf_only(self):
        t = Telemetry()
        h = t.histogram("lat", buckets=(0.1, 1.0))
        h.observe(5.0)
        assert h.bucket_counts() == [0, 0, 1]

    def test_cumulative_counts_are_monotone_and_end_at_total(self):
        t = Telemetry()
        h = t.histogram("lat", buckets=(0.001, 0.01, 0.1, 1.0))
        for value in (0.0005, 0.002, 0.002, 0.05, 0.5, 30.0):
            h.observe(value)
        counts = h.bucket_counts()
        assert len(counts) == 5  # four edges + the +Inf total
        assert counts == sorted(counts)
        assert counts[-1] == h.count_() == 6
        assert h.sum_() == pytest.approx(0.0005 + 0.002 + 0.002 + 0.05 + 0.5 + 30.0)

    def test_default_buckets_are_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(set(DEFAULT_LATENCY_BUCKETS))

    def test_bad_buckets_rejected(self):
        t = Telemetry()
        with pytest.raises(TelemetryError):
            t.histogram("a", buckets=())
        with pytest.raises(TelemetryError):
            t.histogram("b", buckets=(1.0, 1.0))
        with pytest.raises(TelemetryError):
            t.histogram("c", buckets=(2.0, 1.0))

    def test_re_registration_requires_same_buckets(self):
        t = Telemetry()
        t.histogram("lat", buckets=(0.1, 1.0))
        t.histogram("lat", buckets=(0.1, 1.0))  # same: fine
        with pytest.raises(TelemetryError):
            t.histogram("lat", buckets=(0.2, 1.0))
