"""Descriptive statistics of a workload.

These are the summary characteristics the workload-modeling literature uses
to compare logs with models (job-size distribution, runtime distribution,
interarrival process, user activity), and what experiment E7 reports when it
places the Feitelson / Jann / Lublin / Downey models side by side with an
archive-like reference trace.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.swf.fields import MISSING
from repro.core.swf.workload import Workload

__all__ = ["DistributionSummary", "WorkloadStatistics", "summarize", "describe_distribution"]


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number-plus summary of a sample (all values in the sample's units)."""

    count: int
    mean: float
    std: float
    cv: float
    minimum: float
    p25: float
    median: float
    p75: float
    p90: float
    maximum: float

    @staticmethod
    def empty() -> "DistributionSummary":
        return DistributionSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def describe_distribution(values: Sequence[float]) -> DistributionSummary:
    """Summarize a numeric sample; an empty sample yields the zero summary."""
    data = np.asarray([v for v in values if v is not None], dtype=float)
    if data.size == 0:
        return DistributionSummary.empty()
    mean = float(np.mean(data))
    std = float(np.std(data))
    return DistributionSummary(
        count=int(data.size),
        mean=mean,
        std=std,
        cv=float(std / mean) if mean != 0 else 0.0,
        minimum=float(np.min(data)),
        p25=float(np.percentile(data, 25)),
        median=float(np.percentile(data, 50)),
        p75=float(np.percentile(data, 75)),
        p90=float(np.percentile(data, 90)),
        maximum=float(np.max(data)),
    )


@dataclass
class WorkloadStatistics:
    """Workload-level summary used by E7 and by the examples.

    Attributes mirror the quantities reported in the workload-characterization
    papers the standard builds on: number of jobs/users/groups/applications,
    size / runtime / interarrival distributions, the fraction of power-of-two
    and serial jobs, the fraction of interactive and killed jobs, and the
    offered load relative to the header's machine size.
    """

    name: str
    jobs: int
    users: int
    groups: int
    executables: int
    machine_size: int
    span_seconds: int
    offered_load: float
    serial_fraction: float
    power_of_two_fraction: float
    interactive_fraction: float
    killed_fraction: float
    with_dependency_fraction: float
    size: DistributionSummary
    runtime: DistributionSummary
    interarrival: DistributionSummary
    requested_time_accuracy: Optional[float]
    size_histogram: Dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary representation (used when printing experiment tables)."""
        return {
            "name": self.name,
            "jobs": self.jobs,
            "users": self.users,
            "machine_size": self.machine_size,
            "offered_load": round(self.offered_load, 4),
            "serial_fraction": round(self.serial_fraction, 4),
            "power_of_two_fraction": round(self.power_of_two_fraction, 4),
            "interactive_fraction": round(self.interactive_fraction, 4),
            "killed_fraction": round(self.killed_fraction, 4),
            "mean_size": round(self.size.mean, 2),
            "mean_runtime": round(self.runtime.mean, 1),
            "runtime_cv": round(self.runtime.cv, 3),
            "mean_interarrival": round(self.interarrival.mean, 1),
            "interarrival_cv": round(self.interarrival.cv, 3),
        }


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def summarize(workload: Workload, machine_size: Optional[int] = None) -> WorkloadStatistics:
    """Compute the :class:`WorkloadStatistics` of a workload's summary jobs."""
    jobs = workload.summary_jobs()
    try:
        machine_size = workload.resolve_machine_size(machine_size)
    except ValueError:
        machine_size = 0  # no sized job: the statistics report no machine

    sizes = [j.processors for j in jobs if j.processors != MISSING]
    runtimes = [j.run_time for j in jobs if j.run_time != MISSING]
    submits = sorted(j.submit_time for j in jobs if j.submit_time != MISSING)
    interarrivals = [b - a for a, b in zip(submits, submits[1:])]

    interactive = sum(1 for j in jobs if j.is_interactive)
    killed = sum(1 for j in jobs if j.is_killed)
    with_dep = sum(1 for j in jobs if j.has_dependency)
    serial = sum(1 for s in sizes if s == 1)
    pow2 = sum(1 for s in sizes if _is_power_of_two(s))

    accuracies = [
        j.run_time / j.requested_time
        for j in jobs
        if j.run_time != MISSING and j.requested_time != MISSING and j.requested_time > 0
    ]

    n = len(jobs)
    return WorkloadStatistics(
        name=workload.name,
        jobs=n,
        users=len(workload.users()),
        groups=len(workload.groups()),
        executables=len(workload.executables()),
        machine_size=machine_size,
        span_seconds=workload.span(),
        offered_load=workload.offered_load(machine_size),
        serial_fraction=serial / len(sizes) if sizes else 0.0,
        power_of_two_fraction=pow2 / len(sizes) if sizes else 0.0,
        interactive_fraction=interactive / n if n else 0.0,
        killed_fraction=killed / n if n else 0.0,
        with_dependency_fraction=with_dep / n if n else 0.0,
        size=describe_distribution(sizes),
        runtime=describe_distribution(runtimes),
        interarrival=describe_distribution(interarrivals),
        requested_time_accuracy=float(np.mean(accuracies)) if accuracies else None,
        size_histogram=dict(Counter(sizes)),
    )
