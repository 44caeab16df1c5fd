"""Internal job structure: the Feitelson-Rudolph strawman parameters.

Section 2.2 ("Including the internal job structure") recalls the strawman
proposal from the previous year's introductory paper [23]: summarize the
internal structure of a parallel application with a small number of
parameters — "the number of processors, the number of barriers, the
granularity, and the variance of these attributes" — so that workloads can
exercise the interaction between applications and the scheduler (most
importantly, the cost of running fine-grained synchronization without
coscheduling, the gang-scheduling argument of reference [22]).

This module implements that strawman:

* :class:`InternalStructure` — the per-job parameters,
* :class:`InternalStructureModel` — samples structures for the jobs of a
  workload (fine-grained jobs are a configurable fraction; granularity is
  log-uniform; variance is uniform),
* :func:`synchronization_stretch` — the factor by which a job's runtime
  stretches when its processes are *not* coscheduled, following the standard
  barrier-cost argument: every barrier interval ends when the slowest,
  skewed process arrives,
* :func:`apply_structure` — rewrite a workload's runtimes for a given
  coscheduling regime, so the regular evaluation pipeline can quantify the
  benefit of gang scheduling for fine-grained applications.

No public data exists for these parameters (the paper says so explicitly);
the defaults below only aim to span the fine-grained-to-coarse-grained range
the strawman was designed to exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.swf.fields import MISSING
from repro.core.swf.header import SWFHeader
from repro.core.swf.workload import Workload
from repro.simulation.distributions import LogUniform, make_rng

__all__ = [
    "InternalStructure",
    "InternalStructureModel",
    "synchronization_stretch",
    "apply_structure",
]


@dataclass(frozen=True)
class InternalStructure:
    """Strawman description of one job's internal behaviour.

    Attributes
    ----------
    processes:
        Number of cooperating processes (normally the job's processor count).
    barriers:
        Number of barrier synchronizations over the job's lifetime.
    granularity_seconds:
        Mean computation time between consecutive barriers, per process.
    variance:
        Coefficient of variation of the per-process interval lengths; the
        skew that makes uncoordinated scheduling expensive.
    """

    processes: int
    barriers: int
    granularity_seconds: float
    variance: float

    def __post_init__(self) -> None:
        if self.processes < 1:
            raise ValueError("processes must be >= 1")
        if self.barriers < 0:
            raise ValueError("barriers must be non-negative")
        if self.granularity_seconds < 0:
            raise ValueError("granularity must be non-negative")
        if self.variance < 0:
            raise ValueError("variance must be non-negative")

    @property
    def is_fine_grained(self) -> bool:
        """Fine-grained = barrier every second or faster (needs coscheduling)."""
        return self.barriers > 0 and self.granularity_seconds <= 1.0


def synchronization_stretch(
    structure: InternalStructure,
    coscheduled: bool,
    context_switch_seconds: float = 0.01,
) -> float:
    """Runtime stretch factor for a job under a given coscheduling regime.

    When the processes are **coscheduled** (gang scheduling, or a dedicated
    partition), each barrier interval costs the mean interval plus the skew
    of the slowest process: ``1 + variance * log(processes) / barriers_norm``
    is approximated simply as a per-interval factor ``1 + variance *
    sqrt(2 ln processes) / 3`` (the expected normalized maximum of
    ``processes`` i.i.d. intervals), which is mild.

    When they are **not coscheduled**, a process reaching a barrier may find
    peers descheduled; the interval then additionally pays a reschedule
    latency on the order of the context-switch/dispatch time for each of the
    (on average half of the) peers that are not running, which dominates for
    fine granularities.  The returned factor multiplies the job's dedicated
    runtime; it is 1.0 for jobs without barriers or with a single process.
    """
    if structure.barriers == 0 or structure.processes == 1:
        return 1.0
    # Expected normalized maximum of `processes` intervals with CV `variance`.
    skew = structure.variance * np.sqrt(2.0 * np.log(structure.processes)) / 3.0
    coscheduled_factor = 1.0 + skew
    if coscheduled:
        return float(coscheduled_factor)
    if structure.granularity_seconds <= 0:
        return float(coscheduled_factor)
    # Without coscheduling, each interval pays an extra dispatch delay for the
    # laggard peers, amortized over the interval length.
    dispatch_penalty = context_switch_seconds * structure.processes / 2.0
    uncoordinated_factor = coscheduled_factor * (
        1.0 + dispatch_penalty / structure.granularity_seconds
    )
    return float(uncoordinated_factor)


class InternalStructureModel:
    """Sample strawman structures for the jobs of a workload."""

    def __init__(
        self,
        fine_grained_fraction: float = 0.4,
        fine_granularity_bounds: Tuple[float, float] = (0.001, 1.0),
        coarse_granularity_bounds: Tuple[float, float] = (10.0, 600.0),
        max_variance: float = 1.0,
    ) -> None:
        if not 0.0 <= fine_grained_fraction <= 1.0:
            raise ValueError("fine_grained_fraction must be in [0, 1]")
        if max_variance < 0:
            raise ValueError("max_variance must be non-negative")
        self.fine_grained_fraction = fine_grained_fraction
        self.fine_granularity = LogUniform(*fine_granularity_bounds)
        self.coarse_granularity = LogUniform(*coarse_granularity_bounds)
        self.max_variance = max_variance

    def sample(self, processes: int, runtime: int, rng: np.random.Generator) -> InternalStructure:
        """Sample the structure of one job given its size and runtime."""
        if processes <= 1 or runtime <= 0:
            return InternalStructure(
                processes=max(processes, 1), barriers=0, granularity_seconds=0.0, variance=0.0
            )
        if rng.random() < self.fine_grained_fraction:
            granularity = self.fine_granularity.sample(rng)
        else:
            granularity = self.coarse_granularity.sample(rng)
        granularity = min(granularity, float(runtime))
        barriers = max(1, int(runtime / granularity))
        variance = float(rng.uniform(0.0, self.max_variance))
        return InternalStructure(
            processes=processes,
            barriers=barriers,
            granularity_seconds=granularity,
            variance=variance,
        )

    def annotate(self, workload: Workload, seed: Optional[int] = None) -> Dict[int, InternalStructure]:
        """Sample a structure for every summary job, keyed by job number."""
        rng = make_rng(seed)
        structures: Dict[int, InternalStructure] = {}
        for job in workload.summary_jobs():
            processes = job.processors if job.processors != MISSING else 1
            runtime = job.run_time if job.run_time != MISSING else 0
            structures[job.job_number] = self.sample(int(processes), int(runtime), rng)
        return structures


def apply_structure(
    workload: Workload,
    structures: Dict[int, InternalStructure],
    coscheduled: bool,
    context_switch_seconds: float = 0.01,
) -> Workload:
    """Rewrite runtimes for the given coscheduling regime.

    Returns a new workload whose runtimes (and estimates, scaled by the same
    factor) include the synchronization cost.  Feeding both variants through
    the usual evaluation pipeline quantifies the gang-scheduling benefit for
    fine-grained applications that Section 2.2 describes.
    """
    jobs = []
    for job in workload:
        structure = structures.get(job.job_number)
        if structure is None or not job.is_summary_line or job.run_time == MISSING:
            jobs.append(job)
            continue
        stretch = synchronization_stretch(
            structure, coscheduled=coscheduled, context_switch_seconds=context_switch_seconds
        )
        new_runtime = int(round(job.run_time * stretch))
        new_estimate = (
            int(round(job.requested_time * stretch)) if job.requested_time != MISSING else MISSING
        )
        jobs.append(job.replace(run_time=new_runtime, requested_time=new_estimate))
    suffix = "coscheduled" if coscheduled else "uncoordinated"
    return Workload(jobs, SWFHeader(workload.header.entries), name=f"{workload.name}-{suffix}")
