"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

import json

from repro.api.registry import model_names, scheduler_names
from repro.cli import build_parser, main
from repro.core.swf import parse_swf, write_swf
from repro.workloads import Lublin99Model
from tests.conftest import make_job, make_workload


@pytest.fixture
def trace_path(tmp_path):
    workload = Lublin99Model(machine_size=32).generate_with_load(80, 0.6, seed=2)
    path = tmp_path / "trace.swf"
    write_swf(workload, path)
    return path


class TestParser:
    def test_every_command_registered(self):
        parser = build_parser()
        args = parser.parse_args(["validate", "x.swf"])
        assert args.command == "validate"

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rosters_cover_documented_names(self):
        # The CLI resolves through the registries: every registered policy and
        # model is reachable, including the priority family and gang/grid.
        assert {"fcfs", "first-fit", "sjf", "ljf", "wfp", "easy", "conservative",
                "gang", "grid"} <= set(scheduler_names())
        assert {"lublin99", "sessions"} <= set(model_names())


class TestValidateAndStats:
    def test_validate_clean_trace_exits_zero(self, trace_path, capsys):
        assert main(["validate", str(trace_path)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_validate_broken_trace_exits_nonzero(self, tmp_path, capsys):
        broken = make_workload([make_job(5, submit=100)])  # bad numbering + origin
        path = tmp_path / "broken.swf"
        write_swf(broken, path)
        assert main(["validate", str(path)]) == 1
        assert "error" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["validate", "stats"])
    @pytest.mark.parametrize("bad_token", ["abc", "inf"])
    def test_malformed_line_is_reported_not_raised(self, tmp_path, capsys, command, bad_token):
        path = tmp_path / "malformed.swf"
        path.write_text(
            "1 0 -1 10 1" + " -1" * 13 + "\n"
            "2 5 -1 " + bad_token + " 1" + " -1" * 13 + "\n"
        )
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: line 2: ")
        assert repr(bad_token) in err

    def test_stats_prints_table(self, trace_path, capsys):
        assert main(["stats", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "offered_load" in out and "mean_runtime" in out


class TestGenerateAndSimulate:
    def test_generate_model_with_target_load(self, tmp_path, capsys):
        out_path = tmp_path / "model.swf"
        code = main(
            ["generate", "lublin99", str(out_path), "--jobs", "100",
             "--machine-size", "64", "--load", "0.7", "--seed", "3"]
        )
        assert code == 0
        workload = parse_swf(out_path)
        assert len(workload) == 100
        assert workload.offered_load(64) == pytest.approx(0.7, rel=0.1)

    def test_generate_accepts_spec_kwargs(self, tmp_path):
        out_path = tmp_path / "spec.swf"
        assert main(["generate", "lublin99:jobs=50,seed=1", str(out_path),
                     "--machine-size", "32"]) == 0
        assert len(parse_swf(out_path)) == 50

    def test_generate_archive(self, tmp_path):
        out_path = tmp_path / "ctc.swf"
        assert main(["generate", "ctc-sp2", str(out_path), "--jobs", "150", "--seed", "1"]) == 0
        assert len(parse_swf(out_path)) == 150

    def test_generate_unknown_source_fails(self, tmp_path):
        assert main(["generate", "not-a-model", str(tmp_path / "x.swf")]) == 2

    def test_simulate_prints_metrics(self, trace_path, capsys):
        assert main(["simulate", str(trace_path), "--policy", "easy"]) == 0
        out = capsys.readouterr().out
        assert "easy-backfill" in out
        assert "utilization" in out

    def test_simulate_reads_a_gzipped_trace(self, trace_path, tmp_path, capsys):
        import gzip

        packed = tmp_path / "trace.swf.gz"
        packed.write_bytes(gzip.compress(trace_path.read_bytes()))
        def rows():
            # Every cell after the scenario label, which names the file.
            return [line.split()[1:] for line in capsys.readouterr().out.splitlines()[2:]]

        assert main(["simulate", str(trace_path), "--policy", "fcfs"]) == 0
        plain = rows()
        assert main(["simulate", str(packed), "--policy", "fcfs"]) == 0
        assert rows() == plain and len(plain) == 1

    def test_simulate_scheduler_flag_is_an_alias(self, trace_path, capsys):
        assert main(["simulate", str(trace_path), "--scheduler", "fcfs"]) == 0
        assert "fcfs" in capsys.readouterr().out

    def test_simulate_accepts_priority_spec(self, trace_path, capsys):
        assert main(["simulate", str(trace_path), "--policy", "sjf:strict=true"]) == 0
        assert "sjf" in capsys.readouterr().out

    def test_simulate_accepts_gang_spec(self, trace_path, capsys):
        assert main(["simulate", str(trace_path), "--policy", "gang:slots=3"]) == 0
        assert "gang-3slots" in capsys.readouterr().out

    def test_simulate_accepts_model_spec_workload(self, capsys):
        code = main(
            ["simulate", "lublin99:jobs=40,seed=2", "--policy", "easy",
             "--machine-size", "64"]
        )
        assert code == 0
        assert "easy-backfill" in capsys.readouterr().out

    def test_simulate_metric_selection(self, trace_path, capsys):
        assert main(
            ["simulate", str(trace_path), "--policy", "easy",
             "--metrics", "mean_wait,utilization"]
        ) == 0
        out = capsys.readouterr().out
        assert "mean_wait" in out and "utilization" in out
        assert "makespan" not in out

    def test_simulate_unknown_policy_fails_with_suggestion(self, trace_path, capsys):
        assert main(["simulate", str(trace_path), "--policy", "easyy"]) == 2
        assert "did you mean" in capsys.readouterr().err


class TestStrandedJobs:
    GRID = "grid:meta=earliest-start,sites=3,reservations=true,local=conservative"

    def test_simulate_reports_a_grid_runs_stranded_jobs(self, capsys):
        # The sites never finish 426 of their local jobs; the table counts
        # the finished ones only, so the count goes to stderr.
        code = main(["simulate", "lublin99:jobs=200,seed=3", "--policy", self.GRID,
                     "--machine-size", "64"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"lublin99:jobs=200,seed=3/{self.GRID}: 426 jobs never finished; "
            "the table counts finished jobs only"
        ]
        # and the table's own column says so; the label cell has no spaces
        header, _rule, row = captured.out.splitlines()[:3]
        assert row.split()[header.split().index("unfinished")] == "426"

    def test_run_reports_each_stranding_scenario(self, tmp_path, capsys):
        # Jobs 1 and 2 each wait for the other, so with dependencies honoured
        # neither ever arrives.
        trace = tmp_path / "cycle.swf"
        write_swf(make_workload([make_job(1, preceding_job=2, think_time=0),
                                 make_job(2, preceding_job=1, think_time=0),
                                 make_job(3)]), trace)
        scenarios = [
            {"workload": str(trace), "policy": "fcfs", "name": "cycle",
             "honor_dependencies": True},
            {"workload": str(trace), "policy": "fcfs", "name": "plain"},
        ]
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps(scenarios))
        assert main(["run", str(path)]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == ["cycle: 2 jobs never finished; the table counts finished jobs only"]

    def test_nothing_stranded_prints_nothing_to_stderr(self, trace_path, capsys):
        assert main(["simulate", str(trace_path), "--policy", "easy"]) == 0
        assert capsys.readouterr().err == ""


class TestRepeatedJobNumbers:
    """A workload whose summary lines repeat a job number is refused, not simulated."""

    @pytest.mark.parametrize("overlapping", [True, False], ids=["overlapping", "apart"])
    @pytest.mark.parametrize("command", ["simulate", "run"])
    def test_exits_2_naming_the_number(self, tmp_path, capsys, command, overlapping):
        # Both jobs numbered 5 run at once on 8 nodes, or one after the other.
        second = 0 if overlapping else 1000
        trace = tmp_path / "repeated.swf"
        write_swf(make_workload([make_job(1, processors=2),
                                 make_job(5, processors=2),
                                 make_job(5, submit=second, processors=2)], machine_size=8), trace)
        if command == "simulate":
            argv = ["simulate", str(trace), "--policy", "fcfs"]
        else:
            path = tmp_path / "scenarios.json"
            path.write_text(json.dumps([{"workload": str(trace), "policy": "fcfs"}]))
            argv = ["run", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "job number 5 appears on more than one summary line" in captured.err
        assert "Traceback" not in captured.err


class TestRunScenarios:
    def test_run_scenario_file(self, trace_path, tmp_path, capsys):
        scenarios = [
            {"workload": str(trace_path), "policy": "fcfs", "name": "baseline"},
            {"workload": str(trace_path), "policy": "easy", "name": "backfilled"},
        ]
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps(scenarios))
        assert main(["run", str(path), "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "backfilled" in out

    def test_run_single_scenario_object(self, trace_path, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"workload": str(trace_path)}))
        assert main(["run", str(path)]) == 0
        assert "easy-backfill" in capsys.readouterr().out

    def test_run_bad_scenario_field_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"workload": "lublin99", "polcy": "easy"}))
        assert main(["run", str(path)]) == 2
        assert "unknown scenario field" in capsys.readouterr().err

    def test_outages_command_writes_log(self, tmp_path, capsys):
        out_path = tmp_path / "outages.log"
        code = main(["outages", "64", str(30 * 24 * 3600), str(out_path), "--seed", "4"])
        assert code == 0
        assert out_path.exists()
        assert "outages" in capsys.readouterr().out

    def test_convert_command(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "job_id,user,group,queue,submit_ts,start_ts,end_ts,processors\n"
            "1,alice,phys,batch,100,150,300,8\n"
            "2,bob,chem,batch,120,300,500,4\n"
        )
        out_path = tmp_path / "converted.swf"
        assert main(["convert", str(raw), str(out_path), "--computer", "Test SP2"]) == 0
        converted = parse_swf(out_path)
        assert len(converted) == 2
        assert converted.header.computer == "Test SP2"


class TestBenchCommands:
    def test_bench_run_smoke_and_cache_reuse(self, tmp_path, capsys):
        store = tmp_path / "store"
        json_out = tmp_path / "run.json"
        markdown_out = tmp_path / "run.md"
        assert main(["bench", "run", "smoke", "--store", str(store),
                     "--json", str(json_out), "--markdown", str(markdown_out)]) == 0
        out = capsys.readouterr().out
        assert "suite 'smoke'" in out and "±" in out
        first = json.loads(json_out.read_text())
        assert first["cache_misses"] == len(first["cases"]) * first["cases"][0]["seeds"]
        assert "# Benchmark suite `smoke`" in markdown_out.read_text()
        # Second invocation is served entirely from the store.
        assert main(["bench", "run", "smoke", "--store", str(store),
                     "--json", str(json_out)]) == 0
        second = json.loads(json_out.read_text())
        assert second["cache_misses"] == 0
        assert second["cache_hits"] == first["cache_misses"]
        assert second["cases"] == first["cases"]

    def test_bench_compare_prints_verdict(self, tmp_path, capsys):
        assert main(["bench", "compare", "fcfs", "backfill", "--suite", "smoke",
                     "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "fcfs vs backfill" in out
        assert "confidence" in out

    def test_bench_report_aggregates_store(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["bench", "run", "smoke", "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["bench", "report", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "`smoke`" in out and "±" in out

    def test_bench_unknown_suite_fails_with_suggestion(self, tmp_path, capsys):
        assert main(["bench", "run", "smokey", "--store", str(tmp_path)]) == 2
        assert "did you mean" in capsys.readouterr().err

    def test_bench_run_timings_flag(self, tmp_path, capsys):
        json_out = tmp_path / "run.json"
        assert main(["bench", "run", "smoke", "--store", str(tmp_path / "store"),
                     "--timings", "--json", str(json_out)]) == 0
        out = capsys.readouterr().out
        assert "Timing breakdown" in out and "simulate" in out
        payload = json.loads(json_out.read_text())
        assert payload["timings"]["total_seconds"] >= 0
        assert "simulated" in payload["served"]

    def test_bench_report_timings_column(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["bench", "run", "smoke", "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["bench", "report", "--store", str(store), "--timings"]) == 0
        assert "run seconds" in capsys.readouterr().out

    def test_bad_log_level_rejected(self, capsys):
        import os

        os.environ["REPRO_LOG"] = "shouty"
        try:
            assert main(["bench", "report", "--store", "/tmp/nonexistent"]) == 2
            assert "unknown log level" in capsys.readouterr().err
        finally:
            del os.environ["REPRO_LOG"]


class TestTraceCommands:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "trace-cache"))

    def test_ls_lists_the_catalog(self, capsys):
        assert main(["trace", "ls"]) == 0
        out = capsys.readouterr().out
        for name in ("ctc-sp2", "nasa-ipsc", "sdsc-paragon", "lanl-cm5"):
            assert name in out

    def test_info_prints_digest_and_pipeline(self, capsys):
        assert main(["trace", "info", "ctc-sp2,load=1.2,slice=0:7d", "--jobs", "80"]) == 0
        out = capsys.readouterr().out
        assert "digest:" in out and "'op': 'load'" in out and "'op': 'slice'" in out

    def test_info_calls_an_entry_get_would_miss_absent(self, capsys):
        import json

        from repro.traces import TraceCache, trace_from_spec

        spec = "ctc-sp2,jobs=40"
        cache = TraceCache()
        trace = trace_from_spec(spec)
        trace.materialize(cache=cache)
        assert main(["trace", "info", spec]) == 0
        assert "(present)" in capsys.readouterr().out
        meta_path = cache.meta_path_for(trace.digest)
        meta = json.loads(meta_path.read_text())
        del meta["sha256"]
        meta_path.write_text(json.dumps(meta))
        assert main(["trace", "info", spec]) == 0
        assert "(absent)" in capsys.readouterr().out

    def test_build_reports_miss_then_hit(self, capsys):
        spec = "ctc-sp2,jobs=60,load=0.9"
        assert main(["trace", "build", spec]) == 0
        first = capsys.readouterr().out
        assert "built and cached" in first
        assert main(["trace", "build", spec]) == 0
        second = capsys.readouterr().out
        assert "cache hit" in second
        digest = lambda text: next(
            line.split()[1] for line in text.splitlines() if line.startswith("digest ")
        )
        assert digest(first) == digest(second)

    def test_build_writes_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "built.swf"
        assert main(["trace", "build", "ctc-sp2,jobs=40", "--output", str(out_path)]) == 0
        assert len(parse_swf(out_path)) == 40

    def test_bad_spec_exits_nonzero(self, capsys):
        assert main(["trace", "info", "ctc-spp2"]) == 2
        assert "did you mean" in capsys.readouterr().err

    def test_simulate_accepts_trace_specs(self, capsys):
        code = main(["simulate", "trace:ctc-sp2,jobs=60,load=0.8", "--policy", "easy"])
        assert code == 0
        assert "easy-backfill" in capsys.readouterr().out

    def test_file_trace_rejects_jobs_and_seed_flags(self, trace_path, capsys):
        assert main(["trace", "info", str(trace_path), "--jobs", "5"]) == 2
        assert "do not apply" in capsys.readouterr().err
        assert main(["trace", "build", str(trace_path), "--seed", "9"]) == 2
        assert "do not apply" in capsys.readouterr().err
        assert main(["trace", "info", str(trace_path)]) == 0


class TestGCCommands:
    def _seed_store(self, tmp_path):
        from repro.api import Scenario, run
        from repro.bench.store import ResultStore, StoredResult, result_key

        store = ResultStore(tmp_path / "store")
        scenario = Scenario(workload="uniform", jobs=20, machine_size=16,
                            load=0.5, seed=1)
        key = result_key(scenario)
        store.put(StoredResult(key=key, scenario=scenario,
                               report=run(scenario).report, extra={}))
        return store, key

    def test_bench_gc_keeps_fresh_entries(self, tmp_path, capsys):
        store, key = self._seed_store(tmp_path)
        assert main(["bench", "gc", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "kept 1" in out and "removed 0" in out
        assert key in store

    def test_bench_gc_evicts_stale_and_respects_dry_run(self, tmp_path, capsys):
        store, key = self._seed_store(tmp_path)
        path = store.path_for(key)
        record = json.loads(path.read_text())
        record["code"] = "repro-0.0+store-v0"
        path.write_text(json.dumps(record))

        assert main(["bench", "gc", "--store", str(store.root),
                     "--dry-run"]) == 0
        assert "would remove 1 (1 stale)" in capsys.readouterr().out
        assert key in store

        assert main(["bench", "gc", "--store", str(store.root)]) == 0
        assert "removed 1 (1 stale)" in capsys.readouterr().out
        assert key not in store

        assert main(["bench", "gc", "--store", str(store.root),
                     "--max-age-days", "30"]) == 0
        assert "scanned 0" in capsys.readouterr().out

    def test_trace_gc_round_trip(self, tmp_path, monkeypatch, capsys):
        cache_root = tmp_path / "trace-cache"
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(cache_root))
        assert main(["trace", "build", "ctc-sp2,jobs=40,seed=2"]) == 0
        capsys.readouterr()

        assert main(["trace", "gc"]) == 0
        assert "kept 1" in capsys.readouterr().out

        # Break the sidecar: gc treats the artifact as corrupt and evicts it.
        sidecar = next(cache_root.glob("*/*.json"))
        sidecar.unlink()
        assert main(["trace", "gc", "--cache", str(cache_root)]) == 0
        assert "removed 1 (1 corrupt)" in capsys.readouterr().out
        assert not list(cache_root.glob("*/*.swf"))


class TestServeCommand:
    def test_parser_defaults_and_flags(self):
        parser = build_parser()
        args = parser.parse_args(["serve"])
        assert (args.host, args.port) == ("127.0.0.1", 8765)
        assert (args.workers, args.queue_limit) == (2, 8)
        assert args.run_workers is None and args.store is None
        assert args.no_cache is False

        args = parser.parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "0", "--workers", "4",
             "--queue-limit", "2", "--run-workers", "3",
             "--store", "/tmp/s", "--no-cache"]
        )
        assert (args.host, args.port, args.workers) == ("0.0.0.0", 0, 4)
        assert (args.queue_limit, args.run_workers) == (2, 3)
        assert args.store == "/tmp/s" and args.no_cache is True

    def test_unbindable_host_exits_nonzero(self, tmp_path, capsys):
        # 192.0.2.1 (TEST-NET-1) is never a local interface, so the bind
        # fails immediately — no DNS lookup involved.
        code = main(["serve", "--host", "192.0.2.1", "--port", "0",
                     "--store", str(tmp_path / "store")])
        assert code == 2
        assert capsys.readouterr().err.strip()
