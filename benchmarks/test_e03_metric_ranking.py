"""E3 — Metric-dependent scheduler ranking across a load sweep (Section 1.2, ref [30])."""

from __future__ import annotations

from repro.experiments import e03_metric_ranking


def test_e03_metric_dependent_ranking(run_once, show_table):
    result = run_once(
        lambda: e03_metric_ranking.run(jobs=1500, machine_size=128, loads=(0.5, 0.7, 0.9), seed=3)
    )
    show_table("E3: response-time vs bounded-slowdown ranking per load", result.rows())

    # Shape: backfilling dominates FCFS on bounded slowdown, by a factor that
    # grows with load (the classic backfilling result).
    for load in result.loads:
        reports = {r.scheduler: r for r in result.reports[load]}
        assert (
            reports["easy-backfill"].mean_bounded_slowdown
            <= reports["fcfs"].mean_bounded_slowdown
        )
    assert result.backfilling_speedup_over_fcfs(0.9) > 2.0
    assert result.backfilling_speedup_over_fcfs(0.9) > result.backfilling_speedup_over_fcfs(0.5)

    # Shape: the two metrics do not always induce the same ranking (the
    # paper's motivating observation for standardizing the objective).
    assert min(result.ranking_agreement.values()) < 1.0
