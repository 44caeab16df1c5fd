"""Tests for the unified scenario runner: dispatch, conditions, fan-out."""

from __future__ import annotations

import pytest

from repro.api import Scenario, resolve_workload, run, run_many
from repro.core.outage import (
    OutageLog,
    OutageRecord,
    OutageType,
    write_outage_log,
)
from repro.core.swf import write_swf
from repro.evaluation import simulate
from repro.schedulers import EasyBackfillScheduler
from tests.conftest import by_job_id, make_job, make_workload


def _job_triples(result):
    return [(j.job_id, j.start_time, j.end_time) for j in result.jobs]


class TestWorkloadResolution:
    def test_model_spec_with_jobs_and_seed(self):
        workload = resolve_workload(Scenario(workload="lublin99:jobs=40,seed=7"))
        assert len(workload) == 40
        # The spec is deterministic: the same string materializes identically.
        again = resolve_workload(Scenario(workload="lublin99:jobs=40,seed=7"))
        assert [j.submit_time for j in workload.summary_jobs()] == [
            j.submit_time for j in again.summary_jobs()
        ]

    def test_scenario_jobs_and_seed_are_the_defaults(self):
        workload = resolve_workload(Scenario(workload="uniform", jobs=25, seed=3))
        assert len(workload) == 25

    def test_archive_names_resolve(self):
        workload = resolve_workload(Scenario(workload="ctc-sp2", jobs=30, seed=1))
        assert len(workload) == 30

    def test_swf_path_resolves(self, tmp_path):
        path = tmp_path / "trace.swf"
        write_swf(make_workload([make_job(1)]), path)
        assert len(resolve_workload(Scenario(workload=str(path)))) == 1
        assert len(resolve_workload(Scenario(workload=f"swf:{path}"))) == 1

    def test_load_scaling_applies(self):
        base = resolve_workload(Scenario(workload="lublin99:jobs=200,seed=5", machine_size=64))
        scaled = resolve_workload(
            Scenario(workload="lublin99:jobs=200,seed=5", machine_size=64, load=0.8)
        )
        assert scaled.offered_load(64) == pytest.approx(0.8, rel=0.05)
        assert base.offered_load(64) != pytest.approx(0.8, rel=0.05)

    def test_load_on_a_headerless_trace_measures_the_widest_job(self, tmp_path):
        from repro.core.swf import Workload

        path = tmp_path / "bare.swf"
        jobs = [make_job(i, submit=i * 50, processors=2 * i) for i in range(1, 4)]
        write_swf(Workload(jobs, name="bare"), path)
        scaled = resolve_workload(Scenario(workload=str(path), load=0.5))
        assert scaled.offered_load(6) == pytest.approx(0.5, rel=1e-2)

    def test_unknown_workload_suggests(self):
        from repro.api.registry import UnknownNameError

        with pytest.raises(UnknownNameError, match="did you mean"):
            resolve_workload(Scenario(workload="lublin9"))
        with pytest.raises(UnknownNameError, match="did you mean 'ctc-sp2'"):
            resolve_workload(Scenario(workload="ctc-sp"))

    def test_archive_spec_rejects_model_kwargs(self):
        with pytest.raises(ValueError, match="accepts only jobs/seed"):
            resolve_workload(Scenario(workload="ctc-sp2:machine_size=8"))

    def test_specs_resolve_through_the_trace_sources(self, tmp_path):
        from repro.data.archives import synthetic_archive
        from repro.traces import ModelSource, SwfFileSource, trace_for_scenario
        from repro.workloads import Lublin99Model

        model = resolve_workload(Scenario(workload="lublin99:jobs=50,seed=3", machine_size=32))
        assert model == ModelSource("lublin99", jobs=50, seed=3, machine_size=32).materialize()
        assert model == Lublin99Model(machine_size=32).generate(50, seed=3)
        archive = resolve_workload(Scenario(workload="ctc-sp2", jobs=30, seed=1))
        assert archive == synthetic_archive("ctc-sp2", jobs=30, seed=1)
        path = tmp_path / "trace.swf"
        write_swf(model, path)
        from_path = resolve_workload(Scenario(workload=str(path)))
        assert from_path == SwfFileSource(str(path)).materialize() == model
        # Plain model and archive specs are no trace-catalog workloads: the
        # store keys of every suite over them depend on this staying None.
        for spec in ("lublin99:jobs=50,seed=3", "ctc-sp2"):
            assert trace_for_scenario(Scenario(workload=spec)) is None

    def test_workload_names_by_spec_kind(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "trace-cache"))
        path = tmp_path / "trace.swf"
        write_swf(make_workload([make_job(i, submit=i * 60) for i in range(1, 6)]), path)
        names = {
            "lublin99:jobs=40,seed=1": "lublin99",
            "ctc-sp2:jobs=40,seed=1": "ctc-sp2",
            "trace:ctc-sp2,jobs=40,load=0.9": "ctc-sp2,load=0.9",
            str(path): "trace",
        }
        for spec, name in names.items():
            assert resolve_workload(Scenario(workload=spec)).name == name
        loaded = resolve_workload(Scenario(workload="lublin99:jobs=40,seed=1", load=0.8))
        assert loaded.name == "lublin99@0.80"


class TestRunDispatch:
    def test_space_mode_matches_direct_simulate(self):
        workload = make_workload(
            [make_job(i, submit=i * 10, runtime=100, processors=4) for i in range(1, 8)]
        )
        direct = simulate(workload, EasyBackfillScheduler(), machine_size=16)
        via_api = run(Scenario(workload="(direct)", policy="easy", machine_size=16),
                      workload=workload)
        assert _job_triples(via_api.result) == _job_triples(direct)
        assert via_api.report.mean_wait == pytest.approx(
            sum(j.wait_time for j in direct.jobs) / len(direct.jobs)
        )

    def test_gang_mode_dispatches_to_gang_simulator(self):
        result = run(Scenario(workload="uniform:jobs=20,seed=2", policy="gang:slots=3",
                              machine_size=32))
        assert result.result.scheduler_name == "gang-3slots"
        assert result.result.metadata["max_slots"] == 3

    def test_grid_mode_dispatches_to_grid_simulator(self):
        result = run(
            Scenario(
                workload="lublin99:jobs=30",
                policy="grid:meta=least-loaded,sites=2,meta_jobs=5",
                machine_size=64,
                seed=4,
            )
        )
        assert result.grid is not None
        assert len(result.grid.site_results) == 2
        assert result.result.metadata["sites"] == 2
        # Local jobs of both sites are merged into the uniform result shape.
        assert len(result.result.jobs) == sum(
            len(sr.jobs) for sr in result.grid.site_results.values()
        )

    def test_priority_policy_spec_reaches_simulation(self):
        result = run(Scenario(workload="lublin99:jobs=50,seed=6", policy="sjf:strict=true",
                              machine_size=64))
        assert result.result.scheduler_name == "sjf"

    def test_tau_reaches_the_report(self):
        result = run(Scenario(workload="uniform:jobs=20,seed=2", machine_size=32, tau=60.0))
        assert result.report.tau == 60.0


class TestConditions:
    def _outage_log(self):
        return OutageLog(
            [
                OutageRecord(
                    announced_time=50,
                    start_time=50,
                    end_time=60,
                    outage_type=OutageType.MAINTENANCE,
                    nodes_affected=16,
                )
            ]
        )

    def test_outage_log_path_is_loaded(self, tmp_path):
        trace = tmp_path / "trace.swf"
        write_swf(make_workload([make_job(1, submit=0, runtime=100, processors=16)]), trace)
        log_path = tmp_path / "outages.log"
        write_outage_log(self._outage_log(), log_path)
        result = run(Scenario(workload=str(trace), policy="fcfs", machine_size=16,
                              outages=str(log_path)))
        assert result.result.outage_kills == 1

    def test_max_restarts_is_honored(self, tmp_path):
        workload = make_workload([make_job(1, submit=0, runtime=100, processors=16)])
        scenario = Scenario(workload="(direct)", policy="fcfs", machine_size=16)
        unlimited = run(scenario, workload=workload, outages=self._outage_log())
        assert by_job_id(unlimited.result)[1].restarts == 1
        capped = run(scenario.with_(max_restarts=0), workload=workload,
                     outages=self._outage_log())
        assert by_job_id(capped.result)[1].killed

    def test_gang_rejects_space_only_conditions(self):
        scenario = Scenario(workload="uniform:jobs=10,seed=1", policy="gang:slots=2",
                            machine_size=32, outages="some/log")
        with pytest.raises(ValueError, match="does not support.*outages"):
            run(scenario)
        with pytest.raises(ValueError, match="honor_dependencies"):
            run(scenario.with_(outages=None, honor_dependencies=True))

    def test_grid_rejects_space_only_conditions(self):
        scenario = Scenario(workload="uniform:jobs=10,seed=1", policy="grid:sites=2",
                            machine_size=32, honor_dependencies=True)
        with pytest.raises(ValueError, match="'grid' simulator"):
            run(scenario)

    def test_honor_dependencies_is_forwarded(self):
        from repro.core.swf import MISSING

        jobs = [
            make_job(1, submit=0, runtime=100, processors=4),
            make_job(2, submit=10, runtime=50, processors=4, preceding_job=1, think_time=20),
        ]
        workload = make_workload(jobs)
        scenario = Scenario(workload="(direct)", policy="fcfs", machine_size=16)
        open_replay = run(scenario, workload=workload)
        closed_replay = run(scenario.with_(honor_dependencies=True), workload=workload)
        assert by_job_id(open_replay.result)[2].submit_time == 10
        assert by_job_id(closed_replay.result)[2].submit_time == 120


class TestRunMany:
    def test_parallel_matches_serial_job_for_job(self):
        scenarios = [
            Scenario(workload="lublin99:jobs=60,seed=8", policy=policy, machine_size=64)
            for policy in ("fcfs", "easy", "sjf", "gang:slots=3")
        ]
        serial = run_many(scenarios)
        parallel = run_many(scenarios, workers=2)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.result.scheduler_name == b.result.scheduler_name
            assert _job_triples(a.result) == _job_triples(b.result)

    def test_telemetry_counters_identical_serial_vs_parallel(self):
        # Run counters derive only from simulated facts (events, scheduling
        # decisions), never wall-clock, so serial and parallel execution of
        # the same scenario must produce byte-identical reports.
        scenarios = [
            Scenario(workload="lublin99:jobs=80,seed=5", policy=policy, machine_size=64)
            for policy in ("easy", "conservative", "fcfs")
        ]
        serial = run_many(scenarios)
        parallel = run_many(scenarios, workers=3)
        for a, b in zip(serial, parallel):
            assert a.report.counters == b.report.counters
            assert a.report.to_json() == b.report.to_json()
        easy_counters = serial[0].report.counters
        for key in (
            "events_processed", "jobs_started", "jobs_backfilled",
            "shadow_scans", "sched_passes", "max_queue_depth",
            "peak_event_queue",
        ):
            assert key in easy_counters, key
        assert "profile_builds" in serial[1].report.counters

    def test_scenario_result_records_phase_timings(self):
        result = run(
            Scenario(workload="uniform:jobs=20,seed=2", policy="fcfs", machine_size=32)
        )
        assert set(result.timings) == {
            "materialize_seconds", "simulate_seconds", "metrics_seconds",
        }
        assert all(v >= 0 for v in result.timings.values())

    def test_order_is_preserved(self):
        scenarios = [
            Scenario(workload="uniform:jobs=10,seed=1", policy=policy, machine_size=32)
            for policy in ("fcfs", "easy", "conservative")
        ]
        results = run_many(scenarios, workers=3)
        assert [r.result.scheduler_name for r in results] == [
            "fcfs", "easy-backfill", "conservative-backfill",
        ]

    def test_broadcast_workload_override(self):
        workload = make_workload(
            [make_job(i, submit=i, runtime=50, processors=4) for i in range(1, 6)]
        )
        scenarios = [
            Scenario(workload="(direct)", policy=policy, machine_size=16)
            for policy in ("fcfs", "easy")
        ]
        results = run_many(scenarios, workers=2, workloads=workload)
        assert all(len(r.result.jobs) == 5 for r in results)

    def test_mismatched_override_list_raises(self):
        scenarios = [Scenario(workload="uniform:jobs=5,seed=1", machine_size=32)]
        with pytest.raises(ValueError, match="length"):
            run_many(scenarios, workloads=[None, None])

    def test_empty_input(self):
        assert run_many([]) == []

    def test_worker_error_propagates_instead_of_hanging(self):
        # UnknownNameError must pickle across the process boundary; a
        # worker exception that fails to unpickle hangs Pool.map forever.
        scenarios = [
            Scenario(workload="uniform:jobs=5,seed=1", policy="easyy", machine_size=32)
        ] * 2
        from repro.api.registry import UnknownNameError

        with pytest.raises(UnknownNameError, match="did you mean"):
            run_many(scenarios, workers=2)

    def test_unknown_name_error_pickles(self):
        import pickle

        from repro.api.registry import UnknownNameError

        error = UnknownNameError("scheduler", "easyy", ["easy", "fcfs"])
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, UnknownNameError)
        assert "did you mean 'easy'" in str(clone)


class TestOnResultCallback:
    def _scenarios(self):
        return [
            Scenario(workload="uniform:jobs=10,seed=1", policy=policy, machine_size=32)
            for policy in ("fcfs", "easy", "conservative")
        ]

    def test_serial_calls_in_order(self):
        seen = []
        results = run_many(self._scenarios(),
                           on_result=lambda i, r: seen.append(i))
        assert seen == [0, 1, 2] and len(results) == 3

    def test_parallel_calls_once_per_task_with_matching_results(self):
        seen = {}
        results = run_many(self._scenarios(), workers=3,
                           on_result=lambda i, r: seen.setdefault(i, r))
        assert sorted(seen) == [0, 1, 2]
        # The callback sees the same object that lands in the result list.
        for index, result in seen.items():
            assert results[index] is result

    def test_callback_runs_in_parent_process(self):
        import os

        pids = []
        run_many(self._scenarios(), workers=2,
                 on_result=lambda i, r: pids.append(os.getpid()))
        assert set(pids) == {os.getpid()}


class TestTracePrewarm:
    SPEC = "trace:ctc-sp2,jobs=40,seed=9,load=0.8"

    def _cache(self, tmp_path, monkeypatch):
        from repro.traces import TraceCache

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "trace-cache"))
        return TraceCache()

    def test_prewarm_materializes_each_trace_once(self, tmp_path, monkeypatch):
        from repro.api.runner import _prewarm_traces
        from repro.traces import trace_from_spec

        cache = self._cache(tmp_path, monkeypatch)
        scenarios = [
            Scenario(workload=self.SPEC, policy=policy, machine_size=64)
            for policy in ("fcfs", "easy")
        ]
        tasks = [(s, None, None) for s in scenarios]
        _prewarm_traces(tasks)
        assert trace_from_spec(self.SPEC).digest in cache

    def test_entry_get_would_miss_is_built_once_in_the_parent(self, tmp_path, monkeypatch):
        import json
        import os

        from repro.traces import trace_from_spec
        from repro.traces.trace import Trace

        cache = self._cache(tmp_path, monkeypatch)
        trace = trace_from_spec(self.SPEC)
        trace.materialize(cache=cache)
        meta_path = cache.meta_path_for(trace.digest)
        meta = json.loads(meta_path.read_text())
        del meta["sha256"]  # the file is there, but get() treats it as a miss
        meta_path.write_text(json.dumps(meta))
        assert trace.digest in cache

        # Pool workers are forked, so they inherit the patch; the log file
        # collects every process's builds.
        log = tmp_path / "builds"
        build = Trace.build

        def logged_build(self):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return build(self)

        monkeypatch.setattr(Trace, "build", logged_build)
        scenarios = [
            Scenario(workload=self.SPEC, policy=policy, machine_size=64)
            for policy in ("fcfs", "easy")
        ]
        run_many(scenarios, workers=2)
        assert log.read_text().split() == [str(os.getpid())]

    def test_prewarm_skips_overrides_and_plain_specs(self, tmp_path, monkeypatch):
        from repro.api.runner import _prewarm_traces

        cache = self._cache(tmp_path, monkeypatch)
        workload = make_workload([make_job(1)])
        tasks = [
            # explicit workload override: nothing to materialize
            (Scenario(workload=self.SPEC, machine_size=64), workload, None),
            # model spec: not trace-backed
            (Scenario(workload="uniform:jobs=5,seed=1", machine_size=32), None, None),
        ]
        _prewarm_traces(tasks)
        assert not list(cache.root.glob("*/*.swf"))

    def test_parallel_trace_run_warms_cache_and_matches_serial(
        self, tmp_path, monkeypatch
    ):
        from repro.traces import trace_from_spec

        cache = self._cache(tmp_path, monkeypatch)
        scenarios = [
            Scenario(workload=self.SPEC, policy=policy, machine_size=64)
            for policy in ("fcfs", "easy")
        ]
        serial = run_many(scenarios)
        assert trace_from_spec(self.SPEC).digest in cache
        parallel = run_many(scenarios, workers=2)
        for a, b in zip(serial, parallel):
            assert _job_triples(a.result) == _job_triples(b.result)


class TestSharedWorkloadMemo:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Fresh memo; resolve_workload replaced by a counting stub of 100-job workloads."""
        from repro.api import runner as api_runner

        calls = []

        def stub(scenario):
            calls.append(scenario.seed)
            return make_workload([make_job(i) for i in range(1, 101)])

        monkeypatch.setattr(api_runner, "_SHARED_WORKLOADS", {})
        monkeypatch.setattr(api_runner, "resolve_workload", stub)
        return api_runner, calls

    def test_case_major_suite_resolves_each_workload_once(self, counted):
        api_runner, calls = counted
        # 8 cases (policy x load) over the same 50 seeds, walked case by case.
        for policy in ("fcfs", "easy", "conservative", "sjf"):
            for load in (0.6, 0.9):
                for seed in range(50):
                    api_runner.resolve_workload_shared(
                        Scenario(workload="lublin99", jobs=100, machine_size=64,
                                 seed=seed, load=load, policy=policy)
                    )
        assert sorted(calls) == list(range(50))

    def test_memo_is_bounded_by_jobs_held(self, counted, monkeypatch):
        api_runner, calls = counted
        monkeypatch.setattr(api_runner, "_SHARED_WORKLOADS_MAX_JOBS", 250)
        for seed in range(4):
            api_runner.resolve_workload_shared(Scenario(workload="lublin99", seed=seed))
        assert [key[3] for key in api_runner._SHARED_WORKLOADS] == [2, 3]
        monkeypatch.setattr(api_runner, "_SHARED_WORKLOADS_MAX_JOBS", 10)
        api_runner.resolve_workload_shared(Scenario(workload="lublin99", seed=9))
        assert [key[3] for key in api_runner._SHARED_WORKLOADS] == [9]
