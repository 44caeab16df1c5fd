"""Ablation — the bounded-slowdown threshold tau (DESIGN.md, design-choice ablations).

The bounded-slowdown metric needs an interactivity threshold; the literature
uses 10 s or 60 s.  This ablation evaluates the same three policies on the
same workload under both thresholds and reports how much the metric values —
and potentially the ranking — move, which is exactly the kind of sensitivity
the paper wants evaluations to be explicit about.
"""

from __future__ import annotations

from repro.api import Scenario, run_many
from repro.workloads import Lublin99Model


def test_ablation_bounded_slowdown_threshold(run_once, show_table):
    def run():
        workload = Lublin99Model(machine_size=128).generate_with_load(1500, 0.8, seed=13)
        out = {}
        for tau in (10.0, 60.0):
            scenarios = [
                Scenario(workload=workload.name, policy=policy, machine_size=128, tau=tau)
                for policy in ("fcfs", "easy", "conservative")
            ]
            out[tau] = [result.report for result in run_many(scenarios, workloads=workload)]
        return out

    reports_by_tau = run_once(run)

    rows = []
    for tau, reports in reports_by_tau.items():
        for report in reports:
            rows.append(
                {
                    "tau": tau,
                    "scheduler": report.scheduler,
                    "mean_bounded_slowdown": round(report.mean_bounded_slowdown, 2),
                    "p90_bounded_slowdown": round(report.p90_bounded_slowdown, 2),
                }
            )
    show_table("Ablation: bounded-slowdown threshold (tau = 10 s vs 60 s)", rows)

    for reports in reports_by_tau.values():
        by_name = {r.scheduler: r for r in reports}
        # Backfilling dominates FCFS regardless of the threshold...
        assert by_name["easy-backfill"].mean_bounded_slowdown <= by_name["fcfs"].mean_bounded_slowdown
    # ...but the threshold changes the magnitude: a larger tau damps the
    # contribution of very short jobs, so values shrink.
    for scheduler in ("fcfs", "easy-backfill", "conservative-backfill"):
        v10 = next(r for r in reports_by_tau[10.0] if r.scheduler == scheduler)
        v60 = next(r for r in reports_by_tau[60.0] if r.scheduler == scheduler)
        assert v60.mean_bounded_slowdown <= v10.mean_bounded_slowdown
