"""Tests for the content-addressed result store."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import Scenario, run
from repro.bench.store import ResultStore, StoredResult, code_version, result_key


@pytest.fixture(scope="module")
def scenario_and_report():
    scenario = Scenario(workload="uniform", jobs=40, machine_size=32, load=0.6, seed=11)
    return scenario, run(scenario).report


class TestResultKey:
    def test_stable_for_identical_scenarios(self, scenario_and_report):
        scenario, _ = scenario_and_report
        clone = Scenario.from_json(scenario.to_json())
        assert result_key(scenario) == result_key(clone)

    def test_any_field_change_changes_the_key(self, scenario_and_report):
        scenario, _ = scenario_and_report
        base = result_key(scenario)
        for change in (
            {"seed": 12},
            {"load": 0.61},
            {"policy": "fcfs"},
            {"tau": 9.0},
            {"jobs": 41},
            {"machine_size": 64},
            {"honor_dependencies": True},
        ):
            assert result_key(scenario.with_(**change)) != base, change

    def test_cosmetic_name_is_not_key_material(self, scenario_and_report):
        # Suites label scenarios per case; identical simulations must share
        # cache entries across differently-labelled suites.
        scenario, _ = scenario_and_report
        assert result_key(scenario.with_(name="std-space/fcfs#1")) == result_key(
            scenario.with_(name="e03 load=0.85")
        )

    def test_family_key_groups_across_seeds_only(self, scenario_and_report):
        from repro.bench.store import family_key

        scenario, _ = scenario_and_report
        assert family_key(scenario.with_(seed=1)) == family_key(scenario.with_(seed=2))
        assert family_key(scenario.with_(jobs=99)) != family_key(scenario)
        # Outage-generation seeds are per-replication, so they do not split
        # the family either — but the MTBF does.
        base = {"outages": {"mtbf_days": 2.0, "horizon_days": 30.0, "seed": 1}}
        other_seed = {"outages": {"mtbf_days": 2.0, "horizon_days": 30.0, "seed": 2}}
        other_mtbf = {"outages": {"mtbf_days": 4.0, "horizon_days": 30.0, "seed": 1}}
        assert family_key(scenario, base) == family_key(scenario, other_seed)
        assert family_key(scenario, base) != family_key(scenario, other_mtbf)

    def test_extra_material_changes_the_key(self, scenario_and_report):
        scenario, _ = scenario_and_report
        assert result_key(scenario) != result_key(
            scenario, extra={"outages": {"mtbf_days": 2.0, "seed": 11}}
        )

    def test_code_version_is_part_of_the_key(self, scenario_and_report, monkeypatch):
        scenario, _ = scenario_and_report
        base = result_key(scenario)
        monkeypatch.setattr("repro.bench.store.STORE_VERSION", "v999")
        assert result_key(scenario) != base

    def test_code_version_names_package_and_store(self):
        import repro

        assert repro.__version__ in code_version()


class TestResultStore:
    def test_round_trip_is_lossless(self, tmp_path, scenario_and_report):
        scenario, report = scenario_and_report
        store = ResultStore(tmp_path)
        key = result_key(scenario)
        store.put(
            StoredResult(
                key=key, scenario=scenario, report=report, extra={},
                suite="s", case="c", elapsed_seconds=0.5,
            )
        )
        loaded = store.get(key)
        # Full precision: the dataclasses compare equal field-for-field,
        # including the medians and tau that as_dict() drops.
        assert loaded.report == report
        assert loaded.scenario == scenario
        assert (loaded.suite, loaded.case) == ("s", "c")

    def test_miss_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).get("0" * 64) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path, scenario_and_report):
        scenario, report = scenario_and_report
        store = ResultStore(tmp_path)
        key = result_key(scenario)
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        assert store.get(key) is None

    def test_contains_len_and_entries(self, tmp_path, scenario_and_report):
        scenario, report = scenario_and_report
        store = ResultStore(tmp_path)
        key = result_key(scenario)
        assert key not in store and len(store) == 0
        store.put(StoredResult(key=key, scenario=scenario, report=report, extra={}))
        assert key in store and len(store) == 1
        assert [e.key for e in store.entries()] == [key]

    def test_env_var_sets_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_STORE", str(tmp_path / "elsewhere"))
        assert ResultStore().root == tmp_path / "elsewhere"


class TestMetricsReportJson:
    def test_to_json_round_trip_is_lossless(self, scenario_and_report):
        _, report = scenario_and_report
        data = json.loads(json.dumps(report.to_json()))
        assert type(report).from_json(data) == report

    def test_to_json_keeps_the_fields_as_dict_drops(self, scenario_and_report):
        _, report = scenario_and_report
        data = report.to_json()
        display = report.as_dict()
        for field in ("median_wait", "median_response", "median_bounded_slowdown",
                      "total_area", "tau"):
            assert field in data
            assert field not in display

    def test_from_json_rejects_unknown_and_missing(self, scenario_and_report):
        _, report = scenario_and_report
        data = report.to_json()
        with pytest.raises(ValueError, match="unknown"):
            type(report).from_json({**data, "bogus": 1})
        incomplete = dict(data)
        incomplete.pop("tau")
        with pytest.raises(ValueError, match="missing"):
            type(report).from_json(incomplete)


class TestEntries:
    """``entries()`` scans the entry files: each entry is stored once, in its file."""

    def _put(self, store, scenario, report, seed):
        key = result_key(scenario.with_(seed=seed))
        store.put(
            StoredResult(
                key=key, scenario=scenario.with_(seed=seed), report=report,
                extra={}, suite="s", case="c",
            )
        )
        return key

    def test_entries_sees_a_put_at_once(self, tmp_path, scenario_and_report):
        scenario, report = scenario_and_report
        store = ResultStore(tmp_path)
        self._put(store, scenario, report, 1)
        assert len(list(store.entries())) == 1
        key = self._put(store, scenario, report, 2)
        assert key in {e.key for e in store.entries()}

    def test_entries_sees_a_deletion_at_once(self, tmp_path, scenario_and_report):
        import os

        scenario, report = scenario_and_report
        store = ResultStore(tmp_path)
        keep = self._put(store, scenario, report, 1)
        drop = self._put(store, scenario, report, 2)
        assert len(list(store.entries())) == 2
        os.unlink(store.path_for(drop))
        assert {e.key for e in store.entries()} == {keep}

    def test_entries_match_a_direct_scan(self, tmp_path, scenario_and_report):
        scenario, report = scenario_and_report
        store = ResultStore(tmp_path)
        keys = sorted(self._put(store, scenario, report, seed) for seed in (7, 8, 9))
        scanned = list(store.entries())
        assert [e.key for e in scanned] == keys
        assert scanned == [store.get(key) for key in keys]

    def test_one_file_per_entry_and_no_store_wide_file(self, tmp_path, scenario_and_report):
        scenario, report = scenario_and_report
        store = ResultStore(tmp_path)
        keys = {self._put(store, scenario, report, seed) for seed in (1, 2, 3)}
        list(store.entries())
        files = [path for path in tmp_path.rglob("*") if path.is_file()]
        assert sorted(files) == sorted(store.path_for(key) for key in keys)

    def test_corrupt_entries_and_a_stray_root_file_are_skipped(self, tmp_path, scenario_and_report):
        scenario, report = scenario_and_report
        store = ResultStore(tmp_path)
        key = self._put(store, scenario, report, 1)
        broken = self._put(store, scenario, report, 2)
        store.path_for(broken).write_text("{broken", encoding="utf-8")
        (tmp_path / "index.json").write_text("{}", encoding="utf-8")
        assert [e.key for e in store.entries()] == [key]

    def test_missing_root_has_no_entries(self, tmp_path):
        store = ResultStore(tmp_path / "never-created")
        assert list(store.entries()) == [] and len(store) == 0
