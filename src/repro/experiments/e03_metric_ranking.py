"""E3 — Metric-dependent scheduler ranking (Section 1.2, reference [30]).

The paper's motivating observation for standardizing metrics: "one of the
papers in the workshop showed contradicting results for the comparison of two
scheduling algorithms if response time or slowdown were used as a metric."
This experiment compares FCFS, EASY backfilling, and conservative backfilling
across a load sweep and reports, per load, the mean response time and mean
bounded slowdown of each policy plus the ranking each metric induces.

Replications run through the benchmark suite runner
(:func:`repro.bench.runner.run_suite`): every (load, policy) cell is
evaluated over a common derived seed list, rankings are computed on
across-seed means, and the tables carry Student-t confidence-interval
half-widths — the paper's point made with statistics instead of single runs.

Expected shape (from the backfilling literature the paper builds on): both
backfilling variants dominate FCFS by a growing factor as load rises, while
the EASY-versus-conservative ordering is metric- and load-dependent — the
Kendall tau between the response-time and slowdown rankings drops below 1.0
somewhere in the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.api import Scenario
from repro.bench.runner import mean_report, run_suite
from repro.bench.seeds import derive_seeds
from repro.bench.stats import CIEstimate
from repro.bench.store import ResultStore
from repro.bench.suite import BenchmarkCase, BenchmarkSuite
from repro.metrics import MetricsReport, kendall_tau, rank_schedulers

__all__ = ["MetricRankingResult", "run"]

#: The policy roster, named through the scheduler registry.
POLICIES = ("fcfs", "easy", "conservative")

#: The two metrics whose induced rankings the experiment contrasts.
RANKING_METRICS = ("mean_response", "mean_bounded_slowdown")


@dataclass
class MetricRankingResult:
    """Per-load metric reports (seed means) and the rankings they induce.

    ``reports[load]`` holds one across-seeds mean :class:`MetricsReport` per
    policy; ``cis[load][scheduler][metric]`` holds the matching Student-t
    interval, so tables can print ``mean ± half-width``.
    """

    loads: List[float]
    reports: Dict[float, List[MetricsReport]]
    ranking_by_response: Dict[float, List[str]]
    ranking_by_slowdown: Dict[float, List[str]]
    #: worst-case Kendall tau between the two metric-induced rankings at each
    #: load, over the across-seed means *and* every individual replication —
    #: a single evaluation whose metrics contradict each other is exactly the
    #: phenomenon the paper reports.
    ranking_agreement: Dict[float, float]
    cis: Dict[float, Dict[str, Dict[str, CIEstimate]]]
    replications: int = 1

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for load in self.loads:
            for report in self.reports[load]:
                cis = self.cis[load][report.scheduler]
                rows.append(
                    {
                        "load": load,
                        "scheduler": report.scheduler,
                        "mean_response": round(report.mean_response, 1),
                        "ci95_response": round(cis["mean_response"].half_width, 1),
                        "mean_bounded_slowdown": round(report.mean_bounded_slowdown, 2),
                        "ci95_slowdown": round(cis["mean_bounded_slowdown"].half_width, 2),
                        "utilization": round(report.utilization, 3),
                        "rank_by_response": self.ranking_by_response[load].index(report.scheduler) + 1,
                        "rank_by_slowdown": self.ranking_by_slowdown[load].index(report.scheduler) + 1,
                    }
                )
        return rows

    def backfilling_speedup_over_fcfs(self, load: float) -> float:
        """FCFS mean bounded slowdown divided by EASY's at the given load."""
        reports = {r.scheduler: r for r in self.reports[load]}
        easy = reports["easy-backfill"].mean_bounded_slowdown
        fcfs = reports["fcfs"].mean_bounded_slowdown
        return fcfs / easy if easy > 0 else float("inf")


def run(
    jobs: int = 1500,
    machine_size: int = 128,
    loads: Sequence[float] = (0.5, 0.7, 0.9),
    seed: int = 3,
    tau: float = 10.0,
    replications: int = 3,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> MetricRankingResult:
    """Sweep offered load and compare the three policies under two metrics.

    Every (load, policy) cell runs ``replications`` times over a seed list
    derived from ``seed``; all policies at one load share the seed list
    (common random numbers).  Pass a :class:`ResultStore` to reuse cached
    replications across invocations.
    """
    seeds = tuple(derive_seeds(seed, replications))
    cases = [
        BenchmarkCase(
            context=f"load={load:.2f}",
            scenario=Scenario(
                workload="lublin99",
                policy=policy,
                machine_size=machine_size,
                jobs=jobs,
                load=float(load),
                tau=tau,
            ),
            seeds=seeds,
        )
        for load in loads
        for policy in POLICIES
    ]
    suite = BenchmarkSuite(
        name="e03-metric-ranking",
        description="E3 replication suite: the space-sharing roster across a load sweep.",
        cases=tuple(cases),
        metrics=("mean_response", "mean_bounded_slowdown", "utilization"),
    )
    outcome = run_suite(suite, workers=workers, store=store)
    aggregates = {agg.case: agg for agg in outcome.aggregates()}
    grouped = outcome.by_case()

    reports: Dict[float, List[MetricsReport]] = {}
    cis: Dict[float, Dict[str, Dict[str, CIEstimate]]] = {}
    by_response: Dict[float, List[str]] = {}
    by_slowdown: Dict[float, List[str]] = {}
    agreement: Dict[float, float] = {}
    for load in loads:
        load_aggs = [aggregates[f"load={load:.2f}/{policy}"] for policy in POLICIES]
        load_reports = [agg.summary for agg in load_aggs]
        reports[load] = load_reports
        cis[load] = {agg.summary.scheduler: agg.cis for agg in load_aggs}
        by_response[load] = rank_schedulers(load_reports, metric="mean_response")
        by_slowdown[load] = rank_schedulers(load_reports, metric="mean_bounded_slowdown")
        # Agreement is the *worst* tau across the mean-based ranking and
        # every per-replication ranking: single evaluations contradicting
        # each other between metrics is the paper's motivating observation.
        taus = [kendall_tau(by_response[load], by_slowdown[load])]
        for k in range(replications):
            seed_reports = [
                grouped[f"load={load:.2f}/{policy}"][k].report for policy in POLICIES
            ]
            taus.append(
                kendall_tau(
                    rank_schedulers(seed_reports, metric="mean_response"),
                    rank_schedulers(seed_reports, metric="mean_bounded_slowdown"),
                )
            )
        agreement[load] = min(taus)
    return MetricRankingResult(
        loads=list(loads),
        reports=reports,
        ranking_by_response=by_response,
        ranking_by_slowdown=by_slowdown,
        ranking_agreement=agreement,
        cis=cis,
        replications=replications,
    )
