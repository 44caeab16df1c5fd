"""E9 — Metacomputing scheduling: prediction accuracy, reservations, co-allocation.

Sections 3 and 4: meta-schedulers need queue-wait predictions to pick sites,
and co-allocation "can only be achieved if the schedulers that control the
participating parallel machines accept reservations."  This experiment runs
the same multi-site scenario (local workloads per site plus a meta-job
stream) in four configurations — {least-loaded, earliest-start} x
{no reservations, reservations} — and reports:

* mean wait of the meta jobs that finished,
* co-allocated jobs finished versus left hanging, and the local jobs left
  queued behind them (the starvation risk of reservation-less co-allocation),
* node-seconds wasted by components idling while waiting for their partners,
* local (site) utilization over finished jobs, to expose the price local
  users pay for reservations,
* the accuracy of three queue-wait predictors (mean, category-template,
  profile-based), scored on the single-site meta jobs.

Expected shape: reservations complete (nearly) all co-allocations and cut the
wasted node-seconds sharply, at a modest cost to local metrics; the
informed (earliest-start) meta-scheduler beats least-loaded on meta-job wait;
the profile predictor has the lowest error of the three families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.api import Scenario, run as run_scenario
from repro.grid import GridResult, prediction_error_summary
from repro.metrics import compute_metrics

__all__ = ["GridExperimentResult", "run"]


@dataclass
class GridExperimentResult:
    """Grid results per (meta-scheduler, reservations) configuration."""

    configurations: List[str]
    grid_results: Dict[str, GridResult]
    prediction_errors: Dict[str, Dict[str, Dict[str, float]]]

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for name in self.configurations:
            result = self.grid_results[name]
            coallocations = result.coallocation_results()
            local_reports = [
                compute_metrics(site_result) for site_result in result.site_results.values()
            ]
            mean_local_util = (
                sum(r.utilization for r in local_reports) / len(local_reports)
                if local_reports
                else 0.0
            )
            rows.append(
                {
                    "configuration": name,
                    "meta_jobs_done": len(result.meta_results),
                    "meta_unfinished": len(result.unfinished_meta_jobs),
                    "local_unfinished": sum(len(r.unfinished) for r in result.site_results.values()),
                    "mean_meta_wait": round(result.mean_meta_wait(), 1),
                    "coallocations_done": len(coallocations),
                    "wasted_node_seconds": round(result.total_wasted_node_seconds(), 0),
                    "late_reservations": round(result.late_reservation_fraction(), 3),
                    "mean_local_utilization": round(mean_local_util, 3),
                }
            )
        return rows

    def predictor_rows(self) -> List[Dict[str, object]]:
        rows = []
        for config, per_predictor in self.prediction_errors.items():
            for predictor, summary in per_predictor.items():
                rows.append(
                    {
                        "configuration": config,
                        "predictor": predictor,
                        "mae_seconds": round(summary["mae"], 1),
                        "bias_seconds": round(summary["bias"], 1),
                        "mean_actual_wait": round(summary["mean_actual"], 1),
                        "samples": summary["count"],
                    }
                )
        return rows


def run(
    sites: int = 4,
    machine_size: int = 128,
    local_jobs_per_site: int = 250,
    meta_jobs: int = 120,
    local_load: float = 0.6,
    coallocation_fraction: float = 0.3,
    seed: int = 9,
) -> GridExperimentResult:
    """Run the four (meta-scheduler, reservations) configurations.

    Each configuration is one grid-mode :class:`Scenario`: the local per-site
    workloads (re-seeded per site), the synthetic meta stream, and the three
    scored queue-wait predictors are all materialized by the scenario runner.
    """
    configurations: List[Tuple[str, str, bool]] = [
        ("least-loaded/no-reservations", "least-loaded", False),
        ("least-loaded/reservations", "least-loaded", True),
        ("earliest-start/no-reservations", "earliest-start", False),
        ("earliest-start/reservations", "earliest-start", True),
    ]
    grid_results: Dict[str, GridResult] = {}
    prediction_errors: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name, meta, use_reservations in configurations:
        scenario = Scenario(
            workload=f"lublin99:jobs={local_jobs_per_site}",
            policy=(
                f"grid:meta={meta},sites={sites},"
                f"reservations={str(use_reservations).lower()},"
                f"meta_jobs={meta_jobs},coallocation_fraction={coallocation_fraction}"
            ),
            machine_size=machine_size,
            load=local_load,
            seed=seed,
            name=name,
        )
        result = run_scenario(scenario).grid
        grid_results[name] = result
        prediction_errors[name] = {
            predictor: prediction_error_summary(pairs)
            for predictor, pairs in result.prediction_pairs.items()
        }
    return GridExperimentResult(
        configurations=[c[0] for c in configurations],
        grid_results=grid_results,
        prediction_errors=prediction_errors,
    )
