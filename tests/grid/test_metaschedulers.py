"""Tests for meta-scheduler site selection and co-allocation planning."""

from __future__ import annotations

import pytest

from repro.grid import (
    EarliestStartMetaScheduler,
    LeastLoadedMetaScheduler,
    MetaComponent,
    MetaJob,
    ProfilePredictor,
    SiteView,
)
from repro.schedulers.base import RunningJobInfo
from repro.schedulers.freespace import FreeSpace
from tests.schedulers.util import make_request


def view(name, total=64, free=64, queued=(), running=(), reservations=(), now=0.0):
    calendar = FreeSpace(total, now)
    for start, end, processors in reservations:
        calendar.reserve(start, end, processors)
    return SiteView(
        name=name,
        total_processors=total,
        free_processors=free,
        speed=1.0,
        now=now,
        queued=list(queued),
        running=list(running),
        calendar=calendar,
    )


def meta_job(job_id=1, components=(8,), runtime=600, estimate=900, submit=0):
    return MetaJob(
        job_id=job_id,
        submit_time=submit,
        runtime=runtime,
        estimate=estimate,
        components=tuple(MetaComponent(processors=p) for p in components),
    )


class TestMetaJob:
    def test_coallocation_flag_and_totals(self):
        single = meta_job(components=(16,))
        multi = meta_job(components=(16, 8))
        assert not single.is_coallocation
        assert multi.is_coallocation
        assert multi.total_processors == 24

    def test_estimate_clamped_to_runtime(self):
        job = MetaJob(job_id=1, submit_time=0, runtime=500, estimate=100,
                      components=(MetaComponent(4),))
        assert job.estimate == 500

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            MetaJob(job_id=0, submit_time=0, runtime=1, estimate=1, components=(MetaComponent(1),))
        with pytest.raises(ValueError):
            MetaJob(job_id=1, submit_time=0, runtime=1, estimate=1, components=())
        with pytest.raises(ValueError):
            MetaComponent(processors=0)


class TestLeastLoaded:
    def test_picks_site_with_most_free_processors(self):
        sites = [view("busy", free=4), view("idle", free=60)]
        assert LeastLoadedMetaScheduler().choose_site(meta_job(), sites) == "idle"

    def test_tie_broken_by_queue_length(self):
        sites = [
            view("long-queue", free=32, queued=[make_request(1, 4), make_request(2, 4)]),
            view("short-queue", free=32, queued=[make_request(3, 4)]),
        ]
        assert LeastLoadedMetaScheduler().choose_site(meta_job(), sites) == "short-queue"

    def test_too_small_sites_excluded(self):
        sites = [view("small", total=4, free=4), view("large", total=64, free=1)]
        job = meta_job(components=(32,))
        assert LeastLoadedMetaScheduler().choose_site(job, sites) == "large"

    def test_no_feasible_site_raises(self):
        with pytest.raises(ValueError):
            LeastLoadedMetaScheduler().choose_site(meta_job(components=(128,)), [view("s", total=64)])


class TestEarliestStart:
    def test_prefers_site_with_shorter_predicted_wait(self):
        busy = view(
            "busy",
            free=0,
            running=[
                RunningJobInfo(
                    request=make_request(1, 64, estimate=5000),
                    start_time=0.0,
                    expected_end=5000.0,
                )
            ],
        )
        idle = view("idle", free=64)
        assert EarliestStartMetaScheduler().choose_site(meta_job(), [busy, idle]) == "idle"


class TestCoallocationPlanning:
    def test_without_reservations_assigns_distinct_sites(self):
        scheduler = LeastLoadedMetaScheduler()
        job = meta_job(components=(16, 8))
        mapping, start = scheduler.plan_coallocation(
            job, [view("a", free=60), view("b", free=50)], use_reservations=False
        )
        assert start is None
        assert set(mapping) == {"a", "b"}
        # Largest component goes to the freest site.
        assert mapping["a"].processors == 16

    def test_with_reservations_returns_common_start(self):
        scheduler = LeastLoadedMetaScheduler()
        job = meta_job(components=(16, 16), estimate=1000)
        mapping, start = scheduler.plan_coallocation(
            job, [view("a"), view("b")], use_reservations=True, negotiation_slack=60.0
        )
        assert set(mapping) == {"a", "b"}
        assert start == pytest.approx(60.0)  # both sites idle: now + slack

    def test_reserved_start_respects_busy_site(self):
        running = [RunningJobInfo(request=make_request(1, 64, estimate=500), start_time=0.0, expected_end=500.0)]
        busy = view("busy", free=0, running=running)
        idle = view("idle")
        job = meta_job(components=(32, 32), estimate=100)
        _, start = LeastLoadedMetaScheduler().plan_coallocation(
            job, [busy, idle], use_reservations=True, negotiation_slack=0.0
        )
        assert start == pytest.approx(500.0)

    def test_more_components_than_sites_rejected(self):
        job = meta_job(components=(8, 8, 8))
        with pytest.raises(ValueError):
            LeastLoadedMetaScheduler().plan_coallocation(job, [view("only")], use_reservations=False)

    def test_component_larger_than_any_site_rejected(self):
        job = meta_job(components=(128, 8))
        with pytest.raises(ValueError):
            LeastLoadedMetaScheduler().plan_coallocation(
                job, [view("a", total=64), view("b", total=64)], use_reservations=False
            )


class TestSiteViewProfiles:
    def test_guaranteed_profile_subtracts_reservations(self):
        site = view("a", reservations=[(100.0, 200.0, 48)])
        profile = site.guaranteed_profile()
        assert profile.min_free(150, 150) == 16
        assert profile.min_free(250, 250) == 64

    def test_earliest_guaranteed_start_accounts_for_queue(self):
        queued = [make_request(1, 64, estimate=1000)]
        site = view("a", queued=queued)
        start = site.earliest_guaranteed_start(32, 100)
        assert start == pytest.approx(1000.0)

    def test_infeasible_component_returns_infinity(self):
        assert view("a", total=16).earliest_guaranteed_start(32, 100) == float("inf")

    def test_guarantee_subtracts_the_calendar_and_prediction_does_not(self):
        # Overlapping holds: 40 + 40 of 64 processors reserved over [0, 500).
        site = view("a", reservations=[(0.0, 500.0, 40), (100.0, 500.0, 40)])
        assert site.earliest_guaranteed_start(32, 100) == pytest.approx(500.0)
        assert ProfilePredictor().predict_wait(32, 100, site) == 0.0
        queued = [make_request(1, 64, estimate=1000)]
        site = view("b", queued=queued, reservations=[(1000.0, 1500.0, 48)])
        assert site.earliest_guaranteed_start(32, 100) == pytest.approx(1500.0)
        assert ProfilePredictor().predict_wait(32, 100, site) == pytest.approx(1000.0)
