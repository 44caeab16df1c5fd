"""The Feitelson '96 rigid-job workload model.

Feitelson, "Packing schemes for gang scheduling" (JSSPP 1996) introduced one
of the first workload models derived from multiple accounting logs.  Its
defining features, reproduced here:

* **job sizes** follow a harmonic-like distribution (small jobs are much more
  common than large ones) with strong *emphasis on powers of two* and on a
  few "interesting" sizes (1, full machine);
* **runtimes** are hyper-exponential with the branch probability tied to the
  job size, producing the observed positive correlation between size and
  runtime;
* **repeated runs**: the same job (size and runtime template) is executed
  several times in a row, reflecting users iterating on an application;
* **arrivals** are Poisson (the original model concentrates on packing, not
  on the arrival process).

Exact parameter values from the original paper are approximated; what the
downstream experiments rely on is the structural shape (size emphasis on
powers of two, size-runtime correlation, repetition), which is preserved.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.api.registry import register_model
from repro.core.swf.workload import Workload
from repro.simulation.distributions import make_rng
from repro.workloads.base import (
    PoissonArrivals,
    UserPopulation,
    WorkloadModel,
    assemble_workload,
    round_to_power_of_two,
)

__all__ = ["Feitelson96Model"]


@register_model("feitelson96")
class Feitelson96Model(WorkloadModel):
    """Rigid-job model with power-of-two size emphasis and size-correlated runtimes."""

    name = "feitelson96"

    def __init__(
        self,
        machine_size: int = 128,
        mean_interarrival: float = 7200.0,
        power_of_two_probability: float = 0.75,
        repetition_probability: float = 0.6,
        max_repetitions: int = 8,
        mean_short_runtime: float = 600.0,
        mean_long_runtime: float = 8 * 3600.0,
        users: int = 60,
    ) -> None:
        super().__init__(machine_size)
        if not 0 <= power_of_two_probability <= 1:
            raise ValueError("power_of_two_probability must be in [0, 1]")
        if not 0 <= repetition_probability < 1:
            raise ValueError("repetition_probability must be in [0, 1)")
        self.mean_interarrival = mean_interarrival
        self.power_of_two_probability = power_of_two_probability
        self.repetition_probability = repetition_probability
        self.max_repetitions = max(1, max_repetitions)
        self.mean_short_runtime = mean_short_runtime
        self.mean_long_runtime = mean_long_runtime
        self.population = UserPopulation(users=users)

    # ------------------------------------------------------------------
    def _sample_size(self, rng: np.random.Generator) -> int:
        """Harmonic-ish size with power-of-two emphasis and endpoints boosted."""
        max_log = int(np.floor(np.log2(self.machine_size)))
        u = rng.random()
        if u < 0.15:
            return 1  # serial jobs are common in every log
        if u < 0.20:
            return self.machine_size  # full-machine runs
        # Log-uniform base size...
        size = float(2 ** rng.uniform(0, max_log))
        if rng.random() < self.power_of_two_probability:
            return round_to_power_of_two(size, self.machine_size)
        return max(1, min(int(round(size)), self.machine_size))

    def _sample_runtime(self, rng: np.random.Generator, size: int) -> float:
        """Hyper-exponential runtime whose long branch is likelier for big jobs."""
        size_fraction = np.log2(max(size, 1) + 1) / np.log2(self.machine_size + 1)
        p_long = 0.2 + 0.5 * size_fraction
        if rng.random() < p_long:
            return rng.exponential(self.mean_long_runtime)
        return rng.exponential(self.mean_short_runtime)

    def generate(self, jobs: int, seed: Optional[int] = None) -> Workload:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        rng = make_rng(seed)

        sizes: List[int] = []
        runtimes: List[float] = []
        while len(sizes) < jobs:
            size = self._sample_size(rng)
            runtime = max(1.0, self._sample_runtime(rng, size))
            repetitions = 1
            if rng.random() < self.repetition_probability:
                repetitions = int(rng.integers(2, self.max_repetitions + 1))
            for _ in range(min(repetitions, jobs - len(sizes))):
                sizes.append(size)
                # Repeated runs vary a little in runtime (new inputs, small edits).
                jitter = float(rng.normal(loc=1.0, scale=0.1))
                runtimes.append(max(1.0, runtime * max(jitter, 0.1)))

        arrivals = PoissonArrivals(self.mean_interarrival).generate(rng, jobs)
        users, groups, executables = self.population.assign(rng, jobs)
        # Users over-estimate runtimes by a factor of 2-10, as observed in logs.
        estimates = np.asarray(runtimes) * rng.uniform(1.5, 10.0, size=len(runtimes))

        return assemble_workload(
            name=self.name,
            computer="synthetic 2-D mesh (Feitelson 96 model)",
            machine_size=self.machine_size,
            arrivals=arrivals,
            sizes=sizes,
            runtimes=runtimes,
            estimates=estimates,
            users=users,
            groups=groups,
            executables=executables,
            max_runtime=int(self.mean_long_runtime * 10),
            notes=["Feitelson 1996 rigid-job model: power-of-two sizes, correlated runtimes."],
        )
