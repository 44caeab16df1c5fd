"""The Downey '97 workload model (flexible jobs described by speedup curves).

Downey, "A parallel workload model and its implications for processor
allocation" (HPDC 1997), describes jobs not by a fixed (size, runtime) pair
but by their **total sequential work** and a **speedup function** with two
parameters: the average parallelism ``A`` and the variance-of-parallelism
parameter ``sigma``.  From the SDSC and CTC logs he reports:

* cumulative (sequential-equivalent) runtimes are approximately
  **log-uniform** over a wide range,
* average parallelism is approximately **log-uniform** between 1 and the
  machine size,
* sigma is small (mostly below 2).

The model serves two purposes in this repository:

* :meth:`Downey97Model.generate` produces a *rigid* workload (each job gets
  the processor count a typical user would request: its average parallelism,
  rounded to a power of two), so the model can be compared head-to-head with
  the rigid models in experiment E7;
* :meth:`Downey97Model.generate_moldable` additionally returns the
  :class:`~repro.workloads.speedup.MoldableJob` descriptions, which is what
  the moldable-scheduling experiment (E8) consumes — there the *scheduler*
  chooses each job's allocation from its speedup curve.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api.registry import register_model
from repro.core.swf.workload import Workload
from repro.simulation.distributions import LogUniform, make_rng
from repro.workloads.base import (
    PoissonArrivals,
    UserPopulation,
    WorkloadModel,
    assemble_workload,
    round_to_power_of_two,
)
from repro.workloads.speedup import DowneySpeedup, MoldableJob

__all__ = ["Downey97Model"]


@register_model("downey97")
class Downey97Model(WorkloadModel):
    """Log-uniform work and parallelism, Downey speedup curves."""

    name = "downey97"

    def __init__(
        self,
        machine_size: int = 128,
        mean_interarrival: float = 900.0,
        min_work_seconds: float = 60.0,
        max_work_seconds: float = 500_000.0,
        max_sigma: float = 2.0,
        users: int = 60,
    ) -> None:
        super().__init__(machine_size)
        if min_work_seconds <= 0 or max_work_seconds <= min_work_seconds:
            raise ValueError("work bounds must satisfy 0 < min < max")
        if max_sigma < 0:
            raise ValueError("max_sigma must be non-negative")
        self.mean_interarrival = mean_interarrival
        self.work_distribution = LogUniform(min_work_seconds, max_work_seconds)
        self.parallelism_distribution = LogUniform(1.0, float(machine_size))
        self.max_sigma = max_sigma
        self.population = UserPopulation(users=users)

    # ------------------------------------------------------------------
    def _sample_job(self, rng: np.random.Generator) -> Tuple[float, DowneySpeedup, int]:
        """(sequential work, speedup model, rigid processor request)."""
        work = self.work_distribution.sample(rng)
        A = max(1.0, self.parallelism_distribution.sample(rng))
        sigma = float(rng.uniform(0.0, self.max_sigma))
        speedup = DowneySpeedup(A=A, sigma=sigma)
        rigid_request = round_to_power_of_two(A, self.machine_size)
        return work, speedup, rigid_request

    def generate(self, jobs: int, seed: Optional[int] = None) -> Workload:
        workload, _ = self.generate_moldable(jobs, seed=seed)
        return workload

    def generate_moldable(
        self, jobs: int, seed: Optional[int] = None
    ) -> Tuple[Workload, Dict[int, MoldableJob]]:
        """Generate the rigid workload plus per-job moldable descriptions.

        The moldable descriptions are keyed by the SWF job number of the
        returned workload, so a moldable scheduling policy can look up each
        queued job's speedup curve.
        """
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        rng = make_rng(seed)

        arrivals = PoissonArrivals(self.mean_interarrival).generate(rng, jobs)
        order = np.argsort(arrivals, kind="stable")

        sizes: List[int] = []
        runtimes: List[float] = []
        descriptions: List[Tuple[float, DowneySpeedup]] = []
        for _ in range(jobs):
            work, speedup, rigid_request = self._sample_job(rng)
            runtime = work / speedup.speedup(rigid_request)
            sizes.append(rigid_request)
            runtimes.append(max(1.0, runtime))
            descriptions.append((work, speedup))

        users, groups, executables = self.population.assign(rng, jobs)
        estimates = np.asarray(runtimes) * rng.uniform(1.5, 8.0, size=len(runtimes))
        workload = assemble_workload(
            name=self.name,
            computer="synthetic space-shared machine (Downey 97 model)",
            machine_size=self.machine_size,
            arrivals=arrivals,
            sizes=sizes,
            runtimes=runtimes,
            estimates=estimates,
            users=users,
            groups=groups,
            executables=executables,
            notes=[
                "Downey 1997 model: log-uniform sequential work and average parallelism, "
                "Downey speedup curves; rigid requests use the average parallelism."
            ],
        )
        # assemble_workload sorts by arrival, which matches `order`; map the
        # moldable descriptions to the final job numbers accordingly.
        moldable: Dict[int, MoldableJob] = {}
        for new_number, original_index in enumerate(order, start=1):
            work, speedup = descriptions[int(original_index)]
            moldable[new_number] = MoldableJob(
                job_id=new_number,
                sequential_work=work,
                speedup_model=speedup,
                max_processors=self.machine_size,
            )
        return workload, moldable
