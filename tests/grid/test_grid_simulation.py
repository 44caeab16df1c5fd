"""Integration tests for the multi-site grid simulation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.grid import (
    EarliestStartMetaScheduler,
    GridSimulation,
    LeastLoadedMetaScheduler,
    MeanWaitPredictor,
    MetaComponent,
    MetaJob,
    ProfilePredictor,
    Site,
    generate_meta_jobs,
)
from repro.api import Scenario, run
from repro.bench.seeds import derive_seeds
from repro.evaluation import simulate
from repro.schedulers import ConservativeBackfillScheduler, EasyBackfillScheduler, FCFSScheduler
from repro.workloads import Lublin99Model
from tests.conftest import make_job, make_workload, simulate_one_site_grid


def make_sites(count=2, size=64, local_jobs=0, load=0.5, seed=100, outage_aware=True):
    sites = []
    site_seeds = derive_seeds(seed, count)
    for i in range(count):
        workload = None
        if local_jobs:
            workload = Lublin99Model(machine_size=size).generate_with_load(
                local_jobs, load, seed=site_seeds[i]
            )
        sites.append(
            Site(
                name=f"s{i}",
                machine_size=size,
                scheduler=EasyBackfillScheduler(outage_aware=outage_aware),
                local_workload=workload,
            )
        )
    return sites


def single_meta_job(job_id=1, processors=16, runtime=100, submit=0):
    return MetaJob(
        job_id=job_id,
        submit_time=submit,
        runtime=runtime,
        estimate=runtime,
        components=(MetaComponent(processors),),
    )


def coallocation_job(job_id=1, processors=(32, 32), runtime=100, submit=0):
    return MetaJob(
        job_id=job_id,
        submit_time=submit,
        runtime=runtime,
        estimate=runtime,
        components=tuple(MetaComponent(p) for p in processors),
    )


class TestSingleSiteMetaJobs:
    def test_meta_job_runs_on_idle_site(self):
        result = GridSimulation(
            make_sites(2), [single_meta_job()], LeastLoadedMetaScheduler()
        ).run()
        assert len(result.meta_results) == 1
        job = result.meta_results[0]
        assert job.wait_time == 0
        assert job.end_time == pytest.approx(100.0)
        assert not job.job.is_coallocation

    def test_oversized_meta_job_rejected(self):
        result = GridSimulation(
            make_sites(2, size=16), [single_meta_job(processors=64)], LeastLoadedMetaScheduler()
        ).run()
        assert result.rejected_meta_jobs == [1]
        assert result.meta_results == []

    def test_site_speed_scales_runtime(self):
        sites = [
            Site(name="fast", machine_size=64, scheduler=FCFSScheduler(), speed=2.0),
        ]
        result = GridSimulation(sites, [single_meta_job(runtime=100)], LeastLoadedMetaScheduler()).run()
        assert result.meta_results[0].end_time == pytest.approx(50.0)

    def test_duplicate_site_names_rejected(self):
        sites = make_sites(1) + make_sites(1)
        with pytest.raises(ValueError):
            GridSimulation(sites, [], LeastLoadedMetaScheduler())

    def test_local_workload_simulated_per_site(self):
        sites = make_sites(2, local_jobs=50, seed=7)
        result = GridSimulation(sites, [], LeastLoadedMetaScheduler()).run()
        for site_result in result.site_results.values():
            assert len(site_result.jobs) == 50


class TestCoallocation:
    def test_coallocation_spans_distinct_sites(self):
        result = GridSimulation(
            make_sites(2), [coallocation_job()], LeastLoadedMetaScheduler()
        ).run()
        assert len(result.meta_results) == 1
        assert len(set(result.meta_results[0].sites)) == 2

    def test_coallocation_without_reservations_wastes_cycles_on_busy_grid(self):
        # One site is saturated by a local job, so one component starts late;
        # the early component's processors idle in the meantime.
        sites = make_sites(2)
        blocker = single_meta_job(job_id=99, processors=64, runtime=500, submit=0)
        co = coallocation_job(job_id=1, processors=(32, 32), runtime=100, submit=10)
        result = GridSimulation(sites, [blocker, co], LeastLoadedMetaScheduler(),
                                use_reservations=False).run()
        co_result = next(r for r in result.meta_results if r.job.job_id == 1)
        assert co_result.wasted_node_seconds > 0

    def test_reservations_synchronize_component_starts(self):
        sites = make_sites(2)
        blocker = single_meta_job(job_id=99, processors=64, runtime=500, submit=0)
        co = coallocation_job(job_id=1, processors=(32, 32), runtime=100, submit=10)
        result = GridSimulation(sites, [blocker, co], LeastLoadedMetaScheduler(),
                                use_reservations=True).run()
        co_result = next(r for r in result.meta_results if r.job.job_id == 1)
        assert co_result.used_reservation
        assert co_result.wasted_node_seconds == pytest.approx(0.0, abs=1.0)
        assert co_result.planned_start is not None

    def test_reservations_complete_more_coallocations(self):
        sites_a = make_sites(3, local_jobs=120, load=0.7, seed=42)
        sites_b = make_sites(3, local_jobs=120, load=0.7, seed=42)
        meta = generate_meta_jobs(40, coallocation_fraction=0.5, max_components=3, seed=9)
        without = GridSimulation(sites_a, meta, LeastLoadedMetaScheduler(), use_reservations=False).run()
        with_res = GridSimulation(sites_b, meta, LeastLoadedMetaScheduler(), use_reservations=True).run()
        # Reservations are the mechanism that lets co-allocations finish at all
        # under contention; without them, components starve waiting for partners.
        assert len(with_res.unfinished_meta_jobs) <= len(without.unfinished_meta_jobs)
        assert len(with_res.coallocation_results()) >= len(without.coallocation_results())


class TestPredictionScoring:
    def test_prediction_pairs_collected_and_observed(self):
        sites = make_sites(2, local_jobs=60, load=0.6, seed=11)
        meta = generate_meta_jobs(30, coallocation_fraction=0.0, seed=12)
        result = GridSimulation(
            sites,
            meta,
            EarliestStartMetaScheduler(),
            predictors={"mean": MeanWaitPredictor, "profile": ProfilePredictor},
        ).run()
        assert set(result.prediction_pairs) == {"mean", "profile"}
        for pairs in result.prediction_pairs.values():
            assert len(pairs) == len(result.meta_results) - len(result.coallocation_results())
            for predicted, actual in pairs:
                assert predicted >= 0.0
                assert actual >= 0.0

    def test_grid_result_summaries(self):
        sites = make_sites(2)
        meta = [single_meta_job(1), coallocation_job(2, submit=5)]
        result = GridSimulation(sites, meta, LeastLoadedMetaScheduler()).run()
        assert len(result.meta_results) == 2
        assert len(result.coallocation_results()) == 1
        assert result.mean_meta_wait() >= 0.0
        assert result.late_reservation_fraction() == 0.0


class TestOneSiteGridMatchesTheDriver:
    """A site without meta jobs is a plain machine: the same schedule as ``simulate``."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("outage_aware", [False, True], ids=["plain", "outage-aware"])
    @pytest.mark.parametrize(
        "policy", [FCFSScheduler, EasyBackfillScheduler, ConservativeBackfillScheduler],
        ids=["fcfs", "easy", "conservative"],
    )
    def test_same_schedule_as_simulate(self, policy, outage_aware, seed):
        size = 64
        workload = Lublin99Model(machine_size=size).generate_with_load(400, 0.8, seed=seed)
        grid = simulate_one_site_grid(workload, policy(outage_aware=outage_aware), size)
        alone = simulate(workload, policy(outage_aware=outage_aware), machine_size=size)
        schedule = [(j.job_id, j.start_time, j.end_time) for j in alone.jobs]
        assert len(schedule) == len(workload.summary_jobs())
        assert [(j.job_id, j.start_time, j.end_time) for j in grid.jobs] == schedule


class TestSiteTelemetry:
    def test_site_counters_stay_on_their_site(self):
        result = run(
            Scenario(
                workload="lublin99:jobs=200,seed=3",
                policy="grid:meta=earliest-start,sites=3,reservations=true,local=easy",
                machine_size=64,
            )
        )
        grid = result.grid
        assert result.report.counters == {}
        for name, site_result in grid.site_results.items():
            # A site starts its own local jobs and one component of each
            # meta job placed on it, and counts exactly those.
            components = sum(name in meta.sites for meta in grid.meta_results)
            counters = site_result.counters
            assert counters["jobs_started"] == len(site_result.jobs) + components
            assert 0 < counters["jobs_backfilled"] <= counters["jobs_started"]
            assert 0 < counters["shadow_scans"] <= counters["sched_passes"]

    def test_sites_sharing_one_conservative_instance(self):
        # A policy keeps no state between passes, so one instance serves
        # every site, and each site's profile is built once and patched.
        meta = generate_meta_jobs(30, coallocation_fraction=0.3, max_components=2,
                                  max_component_processors=32, seed=5)

        def schedules(sites):
            result = GridSimulation(sites, meta, EarliestStartMetaScheduler(), use_reservations=True).run()
            return result, {
                name: [(j.job_id, j.start_time, j.end_time) for j in site.jobs]
                for name, site in result.site_results.items()
            }

        sites = make_sites(2, local_jobs=150, load=0.8, seed=11)
        own = [replace(s, scheduler=ConservativeBackfillScheduler(outage_aware=True)) for s in sites]
        shared_policy = ConservativeBackfillScheduler(outage_aware=True)
        shared = [replace(s, scheduler=shared_policy) for s in sites]
        _, expected = schedules(own)
        result, actual = schedules(shared)
        assert actual == expected
        for site_result in result.site_results.values():
            assert site_result.counters["profile_builds"] == 1


class TestEveryLocalJobAccountedFor:
    def test_stranded_local_jobs_are_listed_per_site(self):
        # Co-allocated components hold processors while their partners wait,
        # so local jobs strand; each site must list what it never finished.
        scenario = Scenario(
            workload="lublin99:jobs=200,seed=3",
            policy="grid:meta=earliest-start,sites=3,reservations=true,local=conservative",
            machine_size=64,
        )
        result = run(scenario)
        unfinished = skipped = 0
        for site_result in result.grid.site_results.values():
            done = {j.job_id for j in site_result.jobs}
            assert not done & set(site_result.unfinished)
            assert all(job_id < 10_000_000 for job_id in site_result.unfinished)
            site_skipped = site_result.metadata["skipped_too_large"]
            assert len(done) + site_skipped + len(site_result.unfinished) == 200
            unfinished += len(site_result.unfinished)
            skipped += site_skipped
        assert unfinished > 0
        assert result.result.metadata["unfinished"] == unfinished
        assert result.result.metadata["skipped_too_large"] == skipped
        assert len(result.result.jobs) + skipped + unfinished == 600

    def test_too_wide_local_jobs_are_counted_as_skipped(self):
        workload = make_workload(
            [make_job(i, submit=i * 10, runtime=50, processors=4 * i) for i in range(1, 7)]
        )
        site = Site(name="s0", machine_size=12, scheduler=FCFSScheduler(), local_workload=workload)
        site_result = GridSimulation([site], [], LeastLoadedMetaScheduler()).run().site_results["s0"]
        assert [j.job_id for j in site_result.jobs] == [1, 2, 3]
        assert site_result.metadata["skipped_too_large"] == 3
        assert site_result.unfinished == []

    @pytest.mark.parametrize("local", ["conservative", "easy"])
    def test_every_grid_job_is_done_skipped_rejected_or_unfinished(self, local):
        # The CI grid step's scenarios; with local conservative scheduling the
        # co-allocation circular wait strands jobs, so ``unfinished`` may be
        # nonzero, but no job may go missing.
        result = run(
            Scenario(
                workload="lublin99:jobs=200,seed=3",
                policy=f"grid:meta=earliest-start,sites=3,reservations=true,local={local}",
                machine_size=64,
            )
        )
        grid = result.grid
        for site_result in grid.site_results.values():
            accounted = (
                len(site_result.jobs)
                + site_result.metadata["skipped_too_large"]
                + len(site_result.unfinished)
            )
            assert accounted == 200
        accounted = (
            len(grid.meta_results) + len(grid.rejected_meta_jobs) + len(grid.unfinished_meta_jobs)
        )
        assert accounted == 120
        done = {r.job.job_id for r in grid.meta_results}
        assert not done & set(grid.rejected_meta_jobs)
        assert not done & set(grid.unfinished_meta_jobs)
