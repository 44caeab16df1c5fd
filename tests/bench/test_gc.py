"""Tests for ``ResultStore.gc``: eviction by staleness, age, and corruption."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.api import Scenario, run
from repro.bench.store import GCStats, ResultStore, StoredResult, result_key


@pytest.fixture(scope="module")
def report():
    scenario = Scenario(workload="uniform", jobs=30, machine_size=16, load=0.5, seed=3)
    return run(scenario).report


def put_entry(store: ResultStore, seed: int, report) -> str:
    scenario = Scenario(
        workload="uniform", jobs=30, machine_size=16, load=0.5, seed=seed
    )
    key = result_key(scenario)
    store.put(
        StoredResult(key=key, scenario=scenario, report=report, extra={})
    )
    return key


def rewrite_code(store: ResultStore, key: str, code: str) -> None:
    path = store.path_for(key)
    record = json.loads(path.read_text())
    record["code"] = code
    path.write_text(json.dumps(record))


class TestResultStoreGC:
    def test_noop_on_fresh_store(self, tmp_path, report):
        store = ResultStore(tmp_path / "store")
        keys = [put_entry(store, seed, report) for seed in range(3)]
        stats = store.gc()
        assert (stats.scanned, stats.kept, stats.removed) == (3, 3, {})
        assert stats.freed_bytes == 0
        assert all(store.get(key) is not None for key in keys)

    def test_missing_root_is_empty_stats(self, tmp_path):
        stats = ResultStore(tmp_path / "never-created").gc()
        assert stats.scanned == 0 and not stats.removed

    def test_stale_code_version_is_evicted(self, tmp_path, report):
        store = ResultStore(tmp_path / "store")
        fresh = put_entry(store, 1, report)
        stale = put_entry(store, 2, report)
        rewrite_code(store, stale, "repro-0.0+store-v0")

        stats = store.gc()
        assert stats.removed == {stale: "stale"}
        assert stats.kept == 1 and stats.freed_bytes > 0
        assert stale not in store and fresh in store

    def test_keep_stale_entries_when_asked(self, tmp_path, report):
        store = ResultStore(tmp_path / "store")
        stale = put_entry(store, 2, report)
        rewrite_code(store, stale, "repro-0.0+store-v0")
        stats = store.gc(drop_stale=False)
        assert not stats.removed and stale in store

    def test_age_eviction_uses_file_mtime(self, tmp_path, report):
        store = ResultStore(tmp_path / "store")
        old = put_entry(store, 1, report)
        young = put_entry(store, 2, report)
        week_ago = time.time() - 7 * 86400
        os.utime(store.path_for(old), (week_ago, week_ago))

        stats = store.gc(max_age_days=3)
        assert stats.removed == {old: "expired"}
        assert old not in store and young in store
        # Without a max age, mtimes are irrelevant.
        assert not store.gc().removed

    def test_corrupt_entries_are_evicted(self, tmp_path, report):
        store = ResultStore(tmp_path / "store")
        victim = put_entry(store, 1, report)
        store.path_for(victim).write_text("{ not json")
        stats = store.gc()
        assert stats.removed == {victim: "corrupt"}
        assert not store.path_for(victim).exists()

    def test_dry_run_reports_without_deleting(self, tmp_path, report):
        store = ResultStore(tmp_path / "store")
        stale = put_entry(store, 1, report)
        rewrite_code(store, stale, "repro-0.0+store-v0")

        stats = store.gc(dry_run=True)
        assert stats.dry_run and stats.removed == {stale: "stale"}
        assert stale in store  # nothing deleted
        assert "would remove" in stats.summary()

        follow_up = store.gc()
        assert follow_up.removed == {stale: "stale"} and stale not in store

    def test_emptied_shards_are_pruned_and_index_recovers(self, tmp_path, report):
        store = ResultStore(tmp_path / "store")
        keys = [put_entry(store, seed, report) for seed in range(4)]
        assert len(list(store.entries())) == 4  # builds the index
        for key in keys[:2]:
            rewrite_code(store, key, "repro-0.0+store-v0")

        stats = store.gc()
        assert set(stats.removed) == set(keys[:2])
        for key in keys[:2]:
            if not any(store.path_for(k).parent == store.path_for(key).parent
                       for k in keys[2:]):
                assert not store.path_for(key).parent.exists()
        # The lazy index notices the deletions (shard mtimes changed).
        assert {e.key for e in store.entries()} == set(keys[2:])

    def test_summary_counts_reasons(self):
        stats = GCStats(scanned=5, kept=3, freed_bytes=2048,
                        removed={"a": "stale", "b": "expired"})
        text = stats.summary()
        assert "scanned 5" in text and "kept 3" in text
        assert "1 expired" in text and "1 stale" in text
        assert "2.0 KiB" in text


class TestPutRacingGc:
    """A ``gc`` may remove an emptied shard between ``put``'s mkdir and its temp file."""

    @staticmethod
    def remove_dir_before_mkstemp(monkeypatch, times: int) -> list:
        import repro.util

        real_mkstemp = repro.util.tempfile.mkstemp
        removed = []

        def racing_mkstemp(*args, dir, **kwargs):
            if len(removed) < times:
                os.rmdir(dir)  # what gc does to a shard it emptied
                removed.append(dir)
            return real_mkstemp(*args, dir=dir, **kwargs)

        monkeypatch.setattr(repro.util.tempfile, "mkstemp", racing_mkstemp)
        return removed

    def test_put_retries_when_its_shard_vanishes(self, tmp_path, report, monkeypatch):
        store = ResultStore(tmp_path / "store")
        removed = self.remove_dir_before_mkstemp(monkeypatch, times=1)
        key = put_entry(store, 1, report)
        assert len(removed) == 1
        assert store.get(key) is not None
        assert not list(store.path_for(key).parent.glob("*.tmp"))

    def test_a_second_removal_is_raised(self, tmp_path, report, monkeypatch):
        store = ResultStore(tmp_path / "store")
        self.remove_dir_before_mkstemp(monkeypatch, times=2)
        with pytest.raises(FileNotFoundError):
            put_entry(store, 1, report)

    def test_atomic_write_creates_missing_parents(self, tmp_path):
        from repro.util import atomic_write

        target = tmp_path / "a" / "b" / "file.json"
        atomic_write(target, b"{}")
        assert target.read_bytes() == b"{}"
