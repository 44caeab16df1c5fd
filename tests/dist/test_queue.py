"""Tests for the file-backed work queue: enqueue, manifests, progress."""

from __future__ import annotations

import json

import pytest

from repro.api import Scenario
from repro.bench.runner import _distinct, _expand, run_suite
from repro.bench.store import ResultStore
from repro.bench.suite import BenchmarkCase, BenchmarkSuite
from repro.dist import WorkQueue, WorkUnit


def twin_suite(name: str = "twins") -> BenchmarkSuite:
    """Two cases sharing identical scenarios: 6 replications, 3 distinct keys."""
    scenario = Scenario(workload="uniform", jobs=40, machine_size=32,
                        load=0.7, policy="fcfs")
    return BenchmarkSuite(
        name=name, description="",
        cases=(
            BenchmarkCase(context="a", scenario=scenario, seeds=(1, 2, 3)),
            BenchmarkCase(context="b", scenario=scenario, seeds=(1, 2, 3)),
        ),
        metrics=("mean_wait",),
    )


class TestEnqueue:
    def test_units_match_the_serial_expansion(self, tmp_path):
        suite = twin_suite()
        queue = WorkQueue(tmp_path / "queue")
        result = queue.enqueue_suite(suite)
        units = _expand(suite)
        assert all(isinstance(unit, WorkUnit) for unit in units)
        distinct = _distinct(units)
        assert result.replications == len(units) == 6
        assert result.units == len(distinct) == 3
        assert result.enqueued == 3
        # Each unit file decodes to exactly the unit the serial run expands.
        assert queue.units() == [distinct[key] for key in sorted(distinct)]

    def test_enqueue_is_idempotent(self, tmp_path):
        suite = twin_suite()
        queue = WorkQueue(tmp_path / "queue")
        queue.enqueue_suite(suite)
        again = queue.enqueue_suite(suite)
        assert again.enqueued == 0
        assert again.already_queued == 3

    def test_already_stored_units_are_reported(self, tmp_path):
        suite = twin_suite()
        store = ResultStore(tmp_path / "store")
        run_suite(suite, store=store)
        queue = WorkQueue(tmp_path / "queue")
        result = queue.enqueue_suite(suite, store=store)
        assert result.already_stored == 3
        # They still land in the manifest: gather needs every key.
        assert len(queue.manifest(suite.name)["keys"]) == 3
        assert queue.pending_keys(store) == []

    def test_manifest_round_trip(self, tmp_path):
        suite = twin_suite()
        queue = WorkQueue(tmp_path / "queue")
        queue.enqueue_suite(suite)
        manifest = queue.manifest(suite.name)
        assert manifest["suite"] == suite.name
        assert manifest["replications"] == 6
        assert manifest["keys"] == sorted(queue.unit_keys())
        assert queue.suite_names() == [suite.name]
        assert queue.manifest("no-such-suite") is None

    def test_unit_round_trip(self, tmp_path):
        suite = twin_suite()
        queue = WorkQueue(tmp_path / "queue")
        queue.enqueue_suite(suite)
        key = queue.unit_keys()[0]
        unit = queue.unit(key)
        assert isinstance(unit, WorkUnit)
        assert unit.key == key
        assert unit.suite == suite.name
        assert unit.scenario.seed is not None
        assert WorkUnit.from_record(unit.to_record()) == unit

    def test_corrupt_unit_reads_as_none(self, tmp_path):
        queue = WorkQueue(tmp_path / "queue")
        queue.enqueue_suite(twin_suite())
        key = queue.unit_keys()[0]
        (queue.units_dir / f"{key}.json").write_text("{not json")
        assert queue.unit(key) is None

    def test_enqueue_journals_the_event(self, tmp_path):
        queue = WorkQueue(tmp_path / "queue")
        queue.enqueue_suite(twin_suite())
        events = [
            json.loads(line)
            for line in queue.journal_path.read_text().splitlines()
        ]
        assert any(e.get("event") == "dist.enqueue" for e in events)


class TestStatus:
    def test_progress_tracks_the_store(self, tmp_path):
        suite = twin_suite()
        store = ResultStore(tmp_path / "store")
        queue = WorkQueue(tmp_path / "queue")
        queue.enqueue_suite(suite)
        (progress,) = queue.status(store)
        assert (progress.total, progress.done) == (3, 0)
        assert progress.pending == 3 and not progress.complete

        run_suite(suite, store=store)
        (progress,) = queue.status(store)
        assert (progress.total, progress.done) == (3, 3)
        assert progress.complete
        assert "complete" in progress.summary()

    def test_worker_stats_round_trip(self, tmp_path):
        queue = WorkQueue(tmp_path / "queue")
        assert queue.worker_stats() == {}
        queue.write_worker_stats("w0", {"simulated": 2})
        queue.write_worker_stats("w1", {"simulated": 1})
        stats = queue.worker_stats()
        assert set(stats) == {"w0", "w1"}
        assert stats["w0"]["simulated"] == 2
