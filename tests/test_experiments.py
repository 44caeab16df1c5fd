"""Small-scale runs of every experiment harness, asserting the expected shapes.

These are integration tests: each experiment is executed at a reduced scale
(seconds, not minutes) and the qualitative outcome the paper leads us to
expect — documented in DESIGN.md and EXPERIMENTS.md — is asserted.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    e01_entities,
    e02_swf_roundtrip,
    e03_metric_ranking,
    e04_objective_weights,
    e05_feedback,
    e06_outages,
    e07_models,
    e08_moldable,
    e09_grid,
    e10_warmstones,
)


class TestE01Entities:
    def test_hierarchy_routes_all_job_classes(self):
        result = e01_entities.run(sites=2, local_jobs_per_site=120, meta_jobs=30, seed=1)
        assert set(result.site_names) == {"site-1", "site-2"}
        assert all(count > 0 for count in result.local_jobs_per_site.values())
        assert result.meta_jobs_total > 0
        assert sum(result.meta_jobs_per_site.values()) >= result.meta_jobs_total
        rows = result.rows()
        assert len(rows) == 3  # two machine schedulers + the meta scheduler
        assert any(row["entity"] == "meta scheduler" for row in rows)


class TestE02RoundTrip:
    def test_every_archive_passes_conformance(self):
        result = e02_swf_roundtrip.run(jobs_per_archive=400, seed=2)
        assert result.all_pass
        assert len(result.rows()) == 4


class TestE03MetricRanking:
    @pytest.fixture(scope="class")
    def result(self):
        return e03_metric_ranking.run(jobs=500, loads=(0.6, 0.9), seed=3)

    def test_backfilling_beats_fcfs_on_slowdown(self, result):
        for load in result.loads:
            reports = {r.scheduler: r for r in result.reports[load]}
            assert (
                reports["easy-backfill"].mean_bounded_slowdown
                <= reports["fcfs"].mean_bounded_slowdown
            )

    def test_backfilling_advantage_grows_with_load(self, result):
        assert result.backfilling_speedup_over_fcfs(0.9) >= result.backfilling_speedup_over_fcfs(0.6) * 0.5
        assert result.backfilling_speedup_over_fcfs(0.9) > 1.0

    def test_rows_cover_all_policies_and_loads(self, result):
        rows = result.rows()
        assert len(rows) == 2 * 3
        assert {row["scheduler"] for row in rows} == {
            "fcfs",
            "easy-backfill",
            "conservative-backfill",
        }


class TestE04ObjectiveWeights:
    def test_weights_change_the_winner(self):
        result = e04_objective_weights.run(jobs=500, load=0.85, seed=4)
        assert result.distinct_winners() >= 2
        assert set(result.winners) == {label for label, _ in e04_objective_weights.DEFAULT_WEIGHTINGS}

    def test_utilization_only_objective_prefers_a_packing_policy(self):
        result = e04_objective_weights.run(jobs=500, load=0.85, seed=4)
        assert result.winners["utilization-only"] != "fcfs"


class TestE05Feedback:
    def test_closed_replay_self_throttles_at_saturation(self):
        result = e05_feedback.run(jobs=500, loads=(0.6, 1.1), seed=5)
        assert result.dependent_fraction > 0.2
        # Ignoring feedback overstates waits: the open replay's mean wait is
        # never below the closed replay's, and the gap is clear past saturation.
        for load in result.loads:
            assert result.divergence_at(load) >= 1.0
        assert result.divergence_at(1.1) > 1.15


class TestE06Outages:
    @pytest.fixture(scope="class")
    def result(self):
        return e06_outages.run(jobs=500, load=0.65, mtbf_days=2.0, seed=6)

    def test_failures_kill_jobs_and_waste_capacity(self, result):
        clean = result.reports["no-outages"]
        failures = result.reports["unannounced-failures"]
        assert result.outage_kills["unannounced-failures"] > 0
        # Restarted executions waste capacity: the same work needs more
        # machine time, so utilization drops and the makespan stretches.
        assert failures.utilization <= clean.utilization
        assert failures.makespan >= clean.makespan

    def test_draining_avoids_most_maintenance_kills(self, result):
        blind = result.outage_kills["maintenance-blind"]
        drained = result.outage_kills["maintenance-drained"]
        assert drained <= blind
        assert drained <= max(1, int(0.2 * blind)) if blind else drained == 0

    def test_rows_cover_all_configurations(self, result):
        assert len(result.rows()) == 4


class TestE07Models:
    def test_measurement_based_models_are_most_representative(self):
        result = e07_models.run(jobs=600, load=0.7, seed=7)
        ordering = result.models_ordered_by_distance()
        # The Talby et al. finding the paper cites: the measurement-based
        # models (Lublin in particular) are the representative ones; the
        # naive guesswork baseline is never the closest match.
        assert ordering[0] != "uniform-naive"
        assert "lublin99" in ordering[:2]

    def test_rows_include_reference_and_models(self):
        result = e07_models.run(jobs=400, load=0.7, seed=7)
        assert len(result.rows()) == 6


class TestE08Moldable:
    def test_adaptive_allocation_helps_at_high_load(self):
        result = e08_moldable.run(jobs=300, loads=(0.5, 0.9), seed=8)
        assert result.adaptive_gain_over_rigid_easy(0.9) >= result.adaptive_gain_over_rigid_easy(0.5) * 0.8
        assert result.adaptive_gain_over_rigid_easy(0.9) > 0.9
        # The adaptive policy shrinks allocations compared to the rigid requests.
        assert result.mean_adaptive_allocation[0.9] > 0


class TestE09Grid:
    @pytest.fixture(scope="class")
    def result(self):
        return e09_grid.run(
            sites=3, local_jobs_per_site=100, meta_jobs=50, local_load=0.55, seed=9
        )

    def test_reservations_complete_coallocations(self, result):
        rows = {row["configuration"]: row for row in result.rows()}
        for policy in ("least-loaded", "earliest-start"):
            with_res = rows[f"{policy}/reservations"]
            without = rows[f"{policy}/no-reservations"]
            assert with_res["meta_unfinished"] <= without["meta_unfinished"]
            assert with_res["coallocations_done"] >= without["coallocations_done"]

    def test_predictors_scored_on_single_site_jobs(self, result):
        predictor_rows = result.predictor_rows()
        assert {row["predictor"] for row in predictor_rows} == {
            "mean-wait",
            "category-mean",
            "profile",
        }
        assert all(row["samples"] > 0 for row in predictor_rows)


class TestE10Warmstones:
    def test_scorecard_and_selection_table(self):
        result = e10_warmstones.run(seed=10)
        assert len(result.entries) == 6 * 3 * 4
        assert len(result.winners) == 6 * 3
        assert result.selection_table
        assert result.lookup_regret < 2.0
        # On the heterogeneous systems a cost-aware mapper wins somewhere.
        heterogeneous_winners = {
            mapper for (graph, system), mapper in result.winners.items() if system != "cluster"
        }
        assert heterogeneous_winners & {"min-min", "max-min", "heft"}


class TestE11Traces:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        from repro.experiments import e11_traces

        patcher = pytest.MonkeyPatch()
        patcher.setenv(
            "REPRO_TRACE_CACHE", str(tmp_path_factory.mktemp("trace-cache"))
        )
        try:
            yield e11_traces.run(traces=("ctc-sp2",), loads=(0.7, 1.0), jobs=250, seed=4)
        finally:
            patcher.undo()

    def test_digests_match_the_spec(self, result):
        from repro.traces import trace_from_spec

        for cell, spec in result.specs.items():
            assert trace_from_spec(spec).digest == result.digests[cell]

    def test_backfilling_beats_fcfs_on_trace_replays(self, result):
        for cell in result.cells:
            reports = result.reports[cell]
            easy = max(reports["easy"].mean_bounded_slowdown, 1.0)
            assert reports["fcfs"].mean_bounded_slowdown / easy > 1.0

    def test_rows_cover_every_cell_and_policy(self, result):
        rows = result.rows()
        assert len(rows) == len(result.cells) * 2
        assert all(len(row["digest"]) == 12 for row in rows)
