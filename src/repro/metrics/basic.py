"""The standard performance metrics of the scheduler-evaluation methodology.

Section 1.2 ("Possible inclusion of the objective function") lists the
metrics in common use: response time, wait time, slowdown, utilization,
throughput — some to be minimized, others maximized — and warns that
different metrics can rank schedulers differently.  This module computes all
of them from a :class:`~repro.evaluation.results.SimulationResult` so the
experiments can demonstrate exactly that sensitivity.

Utilization accounts for outages: when the simulation reports the node-seconds
that were actually available, utilization is work done divided by *available*
capacity, not by nominal capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.api.registry import register_metric
from repro.evaluation.results import JobResult, SimulationResult

__all__ = ["MetricsReport", "compute_metrics"]

#: Default interactivity threshold (seconds) for bounded slowdown.
DEFAULT_TAU = 10.0


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate metrics of one simulation run.

    All means are over completed jobs (killed jobs are counted separately):
    including jobs that never finished would make response-time metrics
    meaningless, which is itself one of the methodological points of the
    outage experiment.
    """

    scheduler: str
    jobs: int
    killed: int
    mean_wait: float
    median_wait: float
    mean_response: float
    median_response: float
    mean_slowdown: float
    mean_bounded_slowdown: float
    median_bounded_slowdown: float
    p90_bounded_slowdown: float
    utilization: float
    throughput_per_hour: float
    makespan: float
    total_area: float
    tau: float = DEFAULT_TAU
    #: deterministic per-run scheduler/engine counters (events processed,
    #: scheduling passes, shadow scans, jobs backfilled, queue depth peaks).
    #: Derived from simulated facts only, so they are bit-identical between
    #: serial and parallel runs and safe to persist in the result store.
    counters: Dict[str, int] = field(default_factory=dict)
    #: jobs the simulation never finished (stranded in its queue, or held
    #: at its end); none of the means, medians or rates above covers them.
    #: Left out of :meth:`to_json` when zero, so records of runs that
    #: finish every job are unchanged.
    unfinished: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Rounded *display* view used when printing experiment tables.

        This intentionally drops the median columns and rounds for table
        width; it is not a serialization format.  Use :meth:`to_json` /
        :meth:`from_json` for a lossless round trip.
        """
        return {
            "scheduler": self.scheduler,
            "jobs": self.jobs,
            "killed": self.killed,
            "unfinished": self.unfinished,
            "mean_wait": round(self.mean_wait, 1),
            "mean_response": round(self.mean_response, 1),
            "mean_slowdown": round(self.mean_slowdown, 2),
            "mean_bounded_slowdown": round(self.mean_bounded_slowdown, 2),
            "p90_bounded_slowdown": round(self.p90_bounded_slowdown, 2),
            "utilization": round(self.utilization, 4),
            "throughput_per_hour": round(self.throughput_per_hour, 2),
            "makespan": round(self.makespan, 0),
        }

    def to_json(self) -> Dict[str, Any]:
        """Lossless JSON-serializable dict: every field, full precision.

        Inverse of :meth:`from_json`; this is what the benchmark result
        store persists, so cached metrics are bit-identical to fresh ones.
        ``unfinished`` is written only when it is nonzero.
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        if not self.unfinished:
            del data["unfinished"]
        return data

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "MetricsReport":
        """Rebuild from :meth:`to_json` output; unknown or missing keys raise.

        A missing ``unfinished`` reads as 0, as :meth:`to_json` writes it.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown MetricsReport field(s): {', '.join(sorted(unknown))}"
            )
        missing = known - set(data) - {"unfinished"}
        if missing:
            raise ValueError(
                f"missing MetricsReport field(s): {', '.join(sorted(missing))}"
            )
        return cls(**dict(data))

    def value(self, metric: str) -> float:
        """Look up a metric by name (the names used by objective functions).

        ``counters.<name>`` reaches into the per-run counter dict, so
        objective configs and sweeps can select telemetry the same way they
        select performance metrics (missing counters read as 0).
        """
        if metric.startswith("counters."):
            return float(self.counters.get(metric[len("counters."):], 0))
        try:
            return float(getattr(self, metric))
        except AttributeError as exc:
            raise KeyError(f"unknown metric {metric!r}") from exc


# The three statistics below are numpy's own arithmetic on one sorted array,
# so each equals np.mean, np.median or np.percentile(a, 90) bit for bit
# (tests/test_metrics_kernel.py checks it) without their per-call overhead
# or a second partition of the same array.  Each takes a finite float64
# array (numpy's NaN propagation is not reproduced) and reads an empty one
# as 0.0; the median and p90 take it sorted.
def _mean(a: np.ndarray) -> float:
    """``np.mean(a)``: numpy's pairwise ``a.sum()`` over the count."""
    return float(a.sum() / a.size) if a.size else 0.0


def _median(s: np.ndarray) -> float:
    """``np.median`` of the sorted ``s``: the middle element or the mean of the middle two."""
    n = s.size
    if not n:
        return 0.0
    half = n // 2
    return float(s[half]) if n % 2 else float((s[half - 1] + s[half]) / 2)


def _p90(s: np.ndarray) -> float:
    """``np.percentile(s, 90)`` of the sorted ``s``, numpy's linear method step for step.

    The virtual index is (n - 1) * 0.9; at or past the last element numpy
    reads the last element on both sides (index -1, weight index + 1).  The
    value is ``a + d * t``, or ``b - d * (1 - t)`` when t >= 0.5, as in
    numpy's ``_lerp``.
    """
    n = s.size
    if not n:
        return 0.0
    virtual = (n - 1) * 0.9
    below = math.floor(virtual)
    if virtual >= n - 1:
        below = above = -1
    else:
        above = below + 1
    t = virtual - below
    a, b = s[below], s[above]
    d = b - a
    return float(b - d * (1 - t) if t >= 0.5 else a + d * t)


def compute_metrics(result: SimulationResult, tau: float = DEFAULT_TAU) -> MetricsReport:
    """Compute the full :class:`MetricsReport` for a simulation result.

    Means are over completed jobs, as are the medians and the 90th
    percentile, which come from one sort per column (``bounded`` is sorted
    once for both).  Each value equals the plain ``np.mean``/``np.median``/
    ``np.percentile`` result bit for bit.  ``unfinished`` counts the jobs
    the simulation never finished: ``result.unfinished``, or a merged grid
    result's ``metadata["unfinished"]``.
    """
    cols = result.columns()
    completed_mask = ~cols.killed
    completed_count = int(completed_mask.sum())
    killed_count = cols.n - completed_count

    submit = cols.np("submit")[completed_mask]
    start = cols.np("start")[completed_mask]
    end = cols.np("end")[completed_mask]
    # Column expressions mirror the JobResult properties operation for
    # operation, so every value is bit-identical to the per-job path.
    waits = start - submit
    responses = end - submit
    runs = end - start
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slowdowns = responses[runs > 0] / runs[runs > 0]
    slowdowns = slowdowns[np.isfinite(slowdowns)]
    if completed_count and tau <= 0:
        raise ValueError("tau must be positive")
    bounded = np.maximum(1.0, responses / np.maximum(runs, tau))

    makespan = result.makespan
    total_area = result.total_area()
    if result.available_node_seconds is not None and result.available_node_seconds > 0:
        capacity = result.available_node_seconds
    else:
        capacity = result.machine_size * makespan if makespan > 0 else 0.0
    utilization = (total_area / capacity) if capacity > 0 else 0.0
    throughput = (completed_count / (makespan / 3600.0)) if makespan > 0 else 0.0

    sorted_bounded = np.sort(bounded)
    return MetricsReport(
        scheduler=result.scheduler_name,
        jobs=completed_count,
        killed=killed_count,
        mean_wait=_mean(waits),
        median_wait=_median(np.sort(waits)),
        mean_response=_mean(responses),
        median_response=_median(np.sort(responses)),
        mean_slowdown=_mean(slowdowns),
        mean_bounded_slowdown=_mean(bounded),
        median_bounded_slowdown=_median(sorted_bounded),
        p90_bounded_slowdown=_p90(sorted_bounded),
        utilization=min(utilization, 1.0),
        throughput_per_hour=throughput,
        makespan=makespan,
        total_area=total_area,
        tau=tau,
        counters={k: int(v) for k, v in sorted(result.counters.items())},
        unfinished=int(result.metadata.get("unfinished", len(result.unfinished))),
    )


# Every numeric column of the report is reachable by name through the metric
# registry, so sweeps and objective configs can select metrics from strings.
def _register_report_metrics() -> None:
    for metric_name in (
        "mean_wait",
        "median_wait",
        "mean_response",
        "median_response",
        "mean_slowdown",
        "mean_bounded_slowdown",
        "median_bounded_slowdown",
        "p90_bounded_slowdown",
        "utilization",
        "throughput_per_hour",
        "makespan",
        "total_area",
    ):
        register_metric(metric_name)(
            lambda report, _metric=metric_name: report.value(_metric)
        )


_register_report_metrics()
