"""Tests for suites, the cache-aware runner, and pairwise comparison."""

from __future__ import annotations

import json

import pytest

from repro.api import Scenario
from repro.api.registry import UnknownNameError
from repro.bench.report import (
    comparison_json,
    comparison_markdown,
    report_from_store,
    suite_json,
    suite_markdown,
)
from repro.bench.runner import compare_policies, mean_report, run_suite
from repro.bench.seeds import derive_seeds
from repro.bench.store import ResultStore
from repro.bench.suite import (
    BenchmarkCase,
    BenchmarkSuite,
    generated_outage_log,
    get_suite,
    suite_names,
)


def tiny_suite(policies=("fcfs", "easy"), jobs=40, n_seeds=3) -> BenchmarkSuite:
    scenario = Scenario(workload="uniform", jobs=jobs, machine_size=32, load=0.7)
    return BenchmarkSuite(
        name="tiny",
        description="unit-test suite",
        cases=tuple(
            BenchmarkCase(
                context="uniform@0.70",
                scenario=scenario.with_(policy=policy),
                seeds=tuple(derive_seeds(1, n_seeds)),
            )
            for policy in policies
        ),
        metrics=("mean_wait", "mean_bounded_slowdown", "utilization"),
    )


class TestSuiteDefinitions:
    def test_builtin_roster(self):
        assert {"smoke", "std-space", "std-gang", "std-grid", "std-outage",
                "std-feedback"} <= set(suite_names())

    def test_builtin_suites_materialize(self):
        # Statistical suites need replications for confidence intervals;
        # the perf-trajectory scale suites deliberately run one seed —
        # they measure wall-clock, not workload-to-workload variability.
        single_seed_ok = {"std-scale", "std-scale-smoke"}
        for name in suite_names():
            suite = get_suite(name)
            assert suite.cases
            floor = 1 if name in single_seed_ok else 3
            assert all(len(case.seeds) >= floor for case in suite.cases)

    def test_unknown_suite_gets_did_you_mean(self):
        with pytest.raises(UnknownNameError, match="smoke"):
            get_suite("smokey")

    def test_with_policies_keeps_contexts_and_seeds(self):
        suite = get_suite("std-space").with_policies(["fcfs", "backfill"])
        contexts = {case.context for case in suite.cases}
        assert len(suite.cases) == 2 * len(contexts)
        # Common random numbers: both policies see identical seed lists.
        by_context = {}
        for case in suite.cases:
            by_context.setdefault(case.context, set()).add(case.seeds)
        assert all(len(seed_sets) == 1 for seed_sets in by_context.values())

    def test_outage_log_rebuilds_from_stored_params(self):
        # A distributed worker only has the unit's stored key material.
        case = get_suite("std-outage").cases[0]
        seed = case.seeds[0]
        extra = json.loads(json.dumps(case.store_extra(seed)))
        rebuilt = generated_outage_log(case.scenario.machine_size, extra["outages"])
        assert len(rebuilt) > 0
        assert case.outage_log(seed) == rebuilt

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError, match="empty seed list"):
            BenchmarkCase(context="c", scenario=Scenario(workload="uniform"), seeds=())

    def test_duplicate_case_names_rejected(self):
        case = tiny_suite().cases[0]
        with pytest.raises(ValueError, match="duplicate"):
            BenchmarkSuite(name="dup", description="", cases=(case, case))


class TestRunSuite:
    def test_parallel_matches_serial_bit_for_bit(self):
        serial = run_suite(tiny_suite(), workers=1)
        parallel = run_suite(tiny_suite(), workers=2)
        assert [o.report for o in serial.replications] == [
            o.report for o in parallel.replications
        ]
        for a, b in zip(serial.aggregates(), parallel.aggregates()):
            assert a.cis == b.cis

    def test_second_run_is_served_from_cache(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_suite(tiny_suite(), store=store)
        assert (first.cache_hits, first.cache_misses) == (0, 6)
        second = run_suite(tiny_suite(), store=store)
        assert (second.cache_hits, second.cache_misses) == (6, 0)
        assert [o.report for o in first.replications] == [
            o.report for o in second.replications
        ]

    def test_any_scenario_change_misses_the_cache(self, tmp_path):
        store = ResultStore(tmp_path)
        run_suite(tiny_suite(), store=store)
        shifted = run_suite(tiny_suite(jobs=41), store=store)
        assert shifted.cache_hits == 0

    def test_no_cache_reruns_but_still_refreshes(self, tmp_path):
        store = ResultStore(tmp_path)
        run_suite(tiny_suite(), store=store)
        forced = run_suite(tiny_suite(), store=store, use_cache=False)
        assert (forced.cache_hits, forced.cache_misses) == (0, 6)
        assert len(store) == 6

    def test_timing_breakdown_recorded(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_suite(tiny_suite(), store=store)
        expected = {
            "cache_lookup_seconds", "materialize_seconds", "simulate_seconds",
            "metrics_seconds", "store_write_seconds", "total_seconds",
            "other_seconds",
        }
        assert set(cold.timings) == expected
        assert all(v >= 0 for v in cold.timings.values())
        assert cold.timings["simulate_seconds"] > 0
        assert cold.timings["total_seconds"] == pytest.approx(
            cold.elapsed_seconds, abs=1e-3
        )
        # cache-served: the lookup is all that happens, so phases stay ~zero
        warm = run_suite(tiny_suite(), store=store)
        assert warm.timings["simulate_seconds"] == 0

    def test_summary_explains_cache_served_runs(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_suite(tiny_suite(), store=store)
        assert "6 simulated" in cold.summary()
        warm = run_suite(tiny_suite(), store=store)
        assert "all 6 from cache, no simulation ran" in warm.summary()

    def test_stored_entries_record_their_own_run_cost(self, tmp_path):
        store = ResultStore(tmp_path)
        run_suite(tiny_suite(), store=store)
        for entry in store.entries():
            assert entry.elapsed_seconds > 0

    def test_overlapping_suites_share_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        run_suite(tiny_suite(policies=("fcfs",)), store=store)
        both = run_suite(tiny_suite(policies=("fcfs", "easy")), store=store)
        assert both.cache_hits == 3
        assert both.cache_misses == 3

    def test_replication_matches_direct_run(self):
        # The shared-workload override path must reproduce run(Scenario)
        # exactly, or cached entries would depend on how they were produced.
        from repro.api import run as run_scenario

        result = run_suite(tiny_suite())
        for outcome in result.replications[:2]:
            assert run_scenario(outcome.scenario).report == outcome.report

    def test_swf_regenerated_in_place_stores_the_new_content(self, tmp_path):
        # The result key follows an SWF file's content digest, so the shared
        # workload memo must too: a miss under the regenerated file's new key
        # has to simulate the new bytes, not the workload memoized from the
        # old file under the same path.
        from repro.api import run as run_scenario
        from repro.core.swf import write_swf
        from repro.data.archives import synthetic_archive

        path = tmp_path / "trace.swf"
        case = BenchmarkCase(
            context="file", scenario=Scenario(workload=str(path), policy="easy"), seeds=(1,)
        )
        suite = BenchmarkSuite(name="regenerated", description="", cases=(case,),
                               metrics=("mean_wait",))
        store = ResultStore(tmp_path / "store")
        write_swf(synthetic_archive("ctc-sp2", jobs=60, seed=1), path)
        (old,) = run_suite(suite, store=store).replications
        write_swf(synthetic_archive("ctc-sp2", jobs=60, seed=2), path)
        (new,) = run_suite(suite, store=store).replications

        assert new.key != old.key and not new.cached
        fresh = run_scenario(new.scenario).report
        assert fresh != old.report
        assert new.report == fresh
        assert store.get(new.key).report == fresh

    def test_duplicate_keys_simulated_once(self):
        # Two cases with identical scenarios (labels differ) share one key:
        # the second is served from the first's simulation, not re-run.
        scenario = Scenario(workload="uniform", jobs=40, machine_size=32,
                            load=0.7, policy="fcfs")
        seeds = tuple(derive_seeds(1, 3))
        suite = BenchmarkSuite(
            name="twins", description="",
            cases=(
                BenchmarkCase(context="a", scenario=scenario, seeds=seeds),
                BenchmarkCase(context="b", scenario=scenario, seeds=seeds),
            ),
            metrics=("mean_wait",),
        )
        result = run_suite(suite)
        assert (result.cache_hits, result.cache_misses) == (0, 3)
        assert result.deduplicated == 3
        by_case = result.by_case()
        assert all(not o.cached for o in by_case["a/fcfs"])
        assert all(o.cached for o in by_case["b/fcfs"])
        assert [o.report for o in by_case["a/fcfs"]] == [
            o.report for o in by_case["b/fcfs"]
        ]

    def test_aggregates_and_rows(self):
        result = run_suite(tiny_suite())
        aggregates = result.aggregates()
        assert [a.policy for a in aggregates] == ["fcfs", "easy"]
        for agg in aggregates:
            assert agg.n == 3
            assert set(agg.cis) == {"mean_wait", "mean_bounded_slowdown", "utilization"}
            ci = agg.cis["mean_wait"]
            assert ci.lo <= agg.summary.mean_wait <= ci.hi
        rows = result.rows()
        assert len(rows) == 2 and "±" in rows[0]["mean_wait"]

    def test_runs_by_registered_name(self, tmp_path):
        result = run_suite("smoke", store=ResultStore(tmp_path))
        assert result.suite == "smoke"
        assert len(result.replications) == get_suite("smoke").replication_count()

    def test_outage_cases_cache_and_rerun(self, tmp_path):
        store = ResultStore(tmp_path)
        scenario = Scenario(workload="uniform", jobs=40, machine_size=32, load=0.7,
                            policy="easy")
        case = BenchmarkCase(
            context="uniform+outages",
            scenario=scenario,
            seeds=tuple(derive_seeds(2, 3)),
            outages={"mtbf_days": 0.5, "horizon_days": 10.0},
        )
        suite = BenchmarkSuite(name="outage-tiny", description="", cases=(case,),
                               metrics=("mean_wait",))
        first = run_suite(suite, store=store)
        second = run_suite(suite, store=store)
        assert second.cache_misses == 0
        assert [o.report for o in first.replications] == [
            o.report for o in second.replications
        ]
        # The outage parameters are key material: changing MTBF re-simulates.
        harsher = BenchmarkSuite(
            name="outage-tiny", description="",
            cases=(BenchmarkCase(
                context="uniform+outages", scenario=scenario,
                seeds=tuple(derive_seeds(2, 3)),
                outages={"mtbf_days": 0.25, "horizon_days": 10.0},
            ),),
            metrics=("mean_wait",),
        )
        assert run_suite(harsher, store=store).cache_hits == 0


class TestMeanReport:
    def test_fieldwise_mean(self):
        reports = [o.report for o in run_suite(tiny_suite()).replications[:3]]
        summary = mean_report(reports)
        assert summary.scheduler == reports[0].scheduler
        expected = sum(r.mean_wait for r in reports) / 3
        assert summary.mean_wait == pytest.approx(expected)
        assert isinstance(summary.jobs, int)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_report([])


class TestComparePolicies:
    def test_verdicts_and_pairing(self, tmp_path):
        store = ResultStore(tmp_path)
        result = compare_policies(tiny_suite(), "fcfs", "easy", store=store)
        assert result.policy_a == "fcfs" and result.policy_b == "easy"
        case = result.cases[0]
        assert case.n == 3
        for metric in case.metrics:
            assert metric.paired.n == 3
            if metric.better is not None:
                assert metric.paired.significant
                assert metric.better in ("fcfs", "easy")
        # Second comparison over the same store is fully cache-served.
        again = compare_policies(tiny_suite(), "fcfs", "easy", store=store)
        assert again.cache_misses == 0

    def test_identical_policies_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            compare_policies(tiny_suite(), "fcfs", "fcfs")

    def test_rows_and_summary(self):
        result = compare_policies(tiny_suite(), "fcfs", "easy")
        rows = result.rows()
        assert len(rows) == 3  # one per suite metric
        assert {row["case"] for row in rows} == {"uniform@0.70"}
        assert "fcfs vs easy" in result.summary()


class TestReports:
    def test_suite_renderings(self, tmp_path):
        result = run_suite(tiny_suite(), store=ResultStore(tmp_path))
        markdown = suite_markdown(result)
        assert "| case |" in markdown and "±" in markdown
        data = suite_json(result)
        assert data["cache_misses"] == 6
        assert len(data["cases"]) == 2
        assert set(data["cases"][0]["metrics"]) == set(result.metrics)

    def test_comparison_renderings(self):
        result = compare_policies(tiny_suite(), "fcfs", "easy")
        markdown = comparison_markdown(result)
        assert "`fcfs` vs `easy`" in markdown
        data = comparison_json(result)
        assert data["cases"][0]["seeds"] == 3

    def test_report_from_store(self, tmp_path):
        store = ResultStore(tmp_path)
        assert "no cached results" in report_from_store(store)
        run_suite(tiny_suite(), store=store)
        text = report_from_store(store, metrics=("mean_wait",))
        assert "`tiny`" in text and "uniform@0.70/fcfs" in text
        assert "no cached results" in report_from_store(store, suite="absent")

    def test_report_from_store_keeps_families_apart(self, tmp_path):
        # Two generations of a case (jobs=40 then jobs=41) share suite and
        # case labels; pooling them into one CI would be meaningless.
        store = ResultStore(tmp_path)
        run_suite(tiny_suite(jobs=40), store=store)
        run_suite(tiny_suite(jobs=41), store=store)
        text = report_from_store(store, metrics=("mean_wait",))
        fcfs_rows = [line for line in text.splitlines()
                     if "uniform@0.70/fcfs" in line]
        assert len(fcfs_rows) == 2
        assert all("[" in row for row in fcfs_rows)  # disambiguated labels
        assert all("| 3 |" in row for row in fcfs_rows)  # 3 seeds each, not 6

    def test_report_from_store_skips_stale_code_versions(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        run_suite(tiny_suite(), store=store)
        monkeypatch.setattr("repro.bench.store.STORE_VERSION", "v999")
        assert "no cached results" in report_from_store(store)


class TestProgressCallback:
    def test_misses_then_hits_report_per_unit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        suite = tiny_suite()  # 2 policies x 3 seeds = 6 unique units

        first = []
        run_suite(suite, store=store,
                  progress=lambda done, total, cached: first.append(
                      (done, total, cached)))
        assert [e[0] for e in first] == [1, 2, 3, 4, 5, 6]
        assert all(total == 6 for _d, total, _c in first)
        assert all(cached is False for _d, _t, cached in first)

        second = []
        run_suite(suite, store=store,
                  progress=lambda done, total, cached: second.append(
                      (done, total, cached)))
        assert [e[0] for e in second] == [1, 2, 3, 4, 5, 6]
        assert all(cached is True for _d, _t, cached in second)

    def test_partial_cache_mixes_hits_and_misses(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_suite(tiny_suite(policies=("fcfs",)), store=store)
        events = []
        run_suite(tiny_suite(policies=("fcfs", "easy")), store=store,
                  progress=lambda done, total, cached: events.append(cached))
        assert events.count(True) == 3 and events.count(False) == 3
        # Hits arrive first (the cache scan precedes the fan-out).
        assert events[:3] == [True, True, True]

    def test_duplicate_keys_count_as_one_unit(self):
        # Two cases with identical scenarios collapse to one work unit per
        # seed; progress totals must reflect work, not roster size.
        base = tiny_suite(policies=("fcfs",)).cases[0]
        suite = BenchmarkSuite(
            name="dup", description="", metrics=("mean_wait",),
            cases=(base, BenchmarkCase(context=base.context + " (again)",
                                       scenario=base.scenario,
                                       seeds=base.seeds)),
        )
        events = []
        run_suite(suite, progress=lambda done, total, cached: events.append(
            (done, total)))
        assert events == [(1, 3), (2, 3), (3, 3)]

    def test_results_persist_incrementally(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        counts = []
        run_suite(tiny_suite(policies=("fcfs",)), store=store,
                  progress=lambda done, total, cached: counts.append(
                      len(list(store.root.glob("*/*.json")))))
        # Every progress event sees the just-finished unit already on disk.
        assert counts == [1, 2, 3]

    def test_progress_none_is_fine_and_workers_match(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        serial = run_suite(tiny_suite(), store=store)
        events = []
        parallel = run_suite(tiny_suite(jobs=41), workers=2, store=store,
                             progress=lambda d, t, c: events.append(d))
        assert sorted(events) == [1, 2, 3, 4, 5, 6]
        assert serial.cache_misses == parallel.cache_misses == 6
