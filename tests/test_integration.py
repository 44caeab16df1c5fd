"""End-to-end integration tests exercising the whole pipeline through the public API."""

from __future__ import annotations

import pytest

import repro
from repro.core.swf import annotate_feedback, parse_swf, summarize, validate, write_swf
from repro.evaluation import format_table
from repro.metrics import ranking_agreement


class TestPublicApi:
    def test_top_level_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version_is_exposed(self):
        assert repro.__version__.count(".") == 2


class TestModelToFileToSimulationPipeline:
    """The workflow the paper standardizes: model -> SWF file -> simulator -> metrics."""

    def test_full_pipeline(self, tmp_path):
        # 1. Generate a model workload and persist it in the standard format.
        model = repro.Lublin99Model(machine_size=64)
        workload = model.generate_with_load(300, 0.75, seed=99)
        path = tmp_path / "lublin.swf"
        write_swf(workload, path)

        # 2. Re-read it: parsing must reproduce the workload and pass validation.
        loaded = parse_swf(path)
        assert loaded.jobs == workload.jobs
        assert validate(loaded).is_clean

        # 3. Evaluate schedulers on the loaded trace.
        scenarios = [
            repro.Scenario(workload=str(path), policy=policy, machine_size=64)
            for policy in ("fcfs", "easy")
        ]
        results = repro.run_many(scenarios, workloads=loaded)
        reports = [result.report for result in results]
        by_name = {r.scheduler: r for r in reports}
        assert by_name["easy-backfill"].mean_wait <= by_name["fcfs"].mean_wait

        # 4. The ranking-comparison machinery accepts the reports.
        agreement = ranking_agreement(reports, ["mean_response", "mean_bounded_slowdown"])
        assert all(-1.0 <= tau <= 1.0 for tau in agreement.values())

        # 5. The table formatter renders them.
        table = format_table([r.as_dict() for r in reports])
        assert "easy-backfill" in table

    def test_archive_statistics_and_feedback_annotation(self):
        trace = repro.synthetic_archive("ctc-sp2", jobs=500, seed=3)
        stats = summarize(trace)
        assert stats.jobs == 500
        annotated, feedback_stats = annotate_feedback(trace)
        assert validate(annotated).is_clean
        assert feedback_stats.sessions > 0

    def test_outage_pipeline(self, tmp_path):
        from repro.core.outage import parse_outage_log, write_outage_log

        trace = repro.Lublin99Model(machine_size=64).generate_with_load(200, 0.6, seed=5)
        outages = repro.generate_outages(64, trace.span(), seed=5)
        path = tmp_path / "outages.log"
        write_outage_log(outages, path)
        assert parse_outage_log(path) == outages

        result = repro.simulate(
            trace, repro.EasyBackfillScheduler(outage_aware=True), machine_size=64, outages=outages
        )
        report = repro.compute_metrics(result)
        assert report.jobs + report.killed == len(trace.summary_jobs())

    def test_gang_vs_space_sharing_comparison(self):
        trace = repro.Lublin99Model(machine_size=64).generate_with_load(200, 0.7, seed=6)
        gang = repro.compute_metrics(repro.simulate_gang(trace, machine_size=64, max_slots=4))
        easy = repro.compute_metrics(
            repro.simulate(trace, repro.EasyBackfillScheduler(), machine_size=64)
        )
        assert gang.jobs == easy.jobs
        assert gang.mean_wait <= easy.mean_wait
