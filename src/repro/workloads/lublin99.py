"""The Lublin '99 rigid-job workload model.

Lublin's Hebrew University master's thesis (cited by the paper as reference
[46]; later published as Lublin & Feitelson 2003) is the model the paper
singles out: "A statistical analysis shows that the one proposed by Lublin is
relatively representative of multiple workloads."  Its defining components,
reproduced here:

* **job type**: a job is interactive or batch with fixed probability; the two
  types differ in runtime scale and arrival intensity;
* **size**: with some probability the job is serial; otherwise the base-two
  logarithm of the size is drawn from a two-stage uniform distribution
  (producing the characteristic "mostly small, some large, strong
  power-of-two presence" histogram), and the result is rounded to a power of
  two with high probability;
* **runtime**: a two-stage hyper-Gamma distribution whose mixing probability
  depends linearly on the job size, giving the observed size-runtime
  correlation;
* **arrivals**: a daily cycle modulates the arrival rate (the original model
  uses a gamma fit per hour-of-day slot; we modulate a Poisson process by the
  same peak-to-trough cycle, which preserves the property that matters for
  scheduling: congestion builds during the daytime peak).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api.registry import register_model
from repro.core.swf.workload import Workload
from repro.simulation.distributions import HyperGamma, make_rng
from repro.workloads.base import (
    DailyCycleArrivals,
    UserPopulation,
    WorkloadModel,
    assemble_workload,
    round_to_power_of_two,
)

__all__ = ["Lublin99Model"]


@register_model("lublin99")
class Lublin99Model(WorkloadModel):
    """Two-stage uniform log2-size, size-dependent hyper-Gamma runtime, daily cycle."""

    name = "lublin99"

    def __init__(
        self,
        machine_size: int = 128,
        mean_interarrival: float = 4400.0,
        interactive_probability: float = 0.3,
        serial_probability: float = 0.24,
        power_of_two_probability: float = 0.75,
        # two-stage uniform over log2(size): stage 1 is [lo, med], stage 2 [med, hi]
        size_stage_split: float = 0.7,
        runtime_shape1: float = 4.2,
        runtime_shape2: float = 0.78,
        runtime_scale_interactive: float = 60.0,
        runtime_scale_batch: float = 1800.0,
        peak_to_trough: float = 4.0,
        users: int = 60,
    ) -> None:
        super().__init__(machine_size)
        for name, p in (
            ("interactive_probability", interactive_probability),
            ("serial_probability", serial_probability),
            ("power_of_two_probability", power_of_two_probability),
            ("size_stage_split", size_stage_split),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self.mean_interarrival = mean_interarrival
        self.interactive_probability = interactive_probability
        self.serial_probability = serial_probability
        self.power_of_two_probability = power_of_two_probability
        self.size_stage_split = size_stage_split
        self.runtime_shape1 = runtime_shape1
        self.runtime_shape2 = runtime_shape2
        self.runtime_scale_interactive = runtime_scale_interactive
        self.runtime_scale_batch = runtime_scale_batch
        self.peak_to_trough = peak_to_trough
        self.population = UserPopulation(users=users)

    # ------------------------------------------------------------------
    def _sample_size(self, random: Callable[[], float], max_log: float) -> int:
        """One size from one or four ``random()`` draws; ``max_log`` is log2(machine size)."""
        if random() < self.serial_probability:
            return 1
        lo, med, hi = 0.7, max_log * 0.55, max_log
        # lo + (hi - lo) * random() is numpy's own rng.uniform(lo, hi), bit for bit.
        if random() < self.size_stage_split:
            log_size = lo + (med - lo) * random()
        else:
            log_size = med + (hi - med) * random()
        size = 2.0 ** log_size
        if random() < self.power_of_two_probability:
            return round_to_power_of_two(size, self.machine_size)
        return max(2, min(int(round(size)), self.machine_size))

    def _runtime_distribution(self, size: int, interactive: bool) -> HyperGamma:
        """Hyper-Gamma whose mixing probability depends linearly on the size.

        Larger jobs are more likely to draw from the long-runtime branch —
        the linear-dependence device Lublin introduced.
        """
        size_fraction = np.log2(max(size, 1) + 1) / np.log2(self.machine_size + 1)
        p_short = min(max(float(0.85 - 0.6 * size_fraction), 0.05), 0.95)
        scale = (
            self.runtime_scale_interactive if interactive else self.runtime_scale_batch
        )
        return HyperGamma(
            p=p_short,
            shape1=self.runtime_shape1,
            scale1=scale / self.runtime_shape1,
            shape2=self.runtime_shape2,
            scale2=30.0 * scale / self.runtime_shape2,
        )

    def generate(self, jobs: int, seed: Optional[int] = None) -> Workload:
        """Generate ``jobs`` jobs from one generator seeded with ``seed``.

        Draw order, part of every seeded Lublin workload: the daily-cycle
        arrivals; then per job one ``random`` for the type, the size draws of
        :meth:`_sample_size` and the hyper-Gamma's ``random`` + ``gamma``;
        then :meth:`UserPopulation.assign`; then one ``uniform`` per job for
        its estimate factor, drawn as one sized call. Adding, dropping or
        reordering a draw changes the workload for every seed.
        """
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        rng = make_rng(seed)
        random = rng.random

        arrivals = DailyCycleArrivals(
            self.mean_interarrival, peak_to_trough=self.peak_to_trough
        ).generate(rng, jobs)

        max_log = float(np.log2(self.machine_size))
        interactive_cap = max(1, self.machine_size // 8)
        runtime_of: Dict[Tuple[int, bool], HyperGamma] = {}
        sizes: List[int] = []
        runtimes: List[float] = []
        queues: List[int] = []
        for _ in range(jobs):
            interactive = random() < self.interactive_probability
            size = self._sample_size(random, max_log)
            if interactive:
                # Interactive work is overwhelmingly small and serial-ish.
                size = min(size, interactive_cap)
            distribution = runtime_of.get((size, interactive))
            if distribution is None:
                distribution = self._runtime_distribution(size, interactive)
                runtime_of[size, interactive] = distribution
            sizes.append(size)
            runtimes.append(max(1.0, distribution.sample(rng)))
            queues.append(0 if interactive else 1)

        users, groups, executables = self.population.assign(rng, jobs)
        estimates = np.asarray(runtimes) * rng.uniform(1.2, 6.0, size=len(runtimes))
        return assemble_workload(
            name=self.name,
            computer="synthetic MPP (Lublin 99 model)",
            machine_size=self.machine_size,
            arrivals=arrivals,
            sizes=sizes,
            runtimes=runtimes,
            estimates=estimates,
            users=users,
            groups=groups,
            executables=executables,
            queues=queues,
            notes=[
                "Lublin 1999 model: two-stage uniform log2 sizes, size-dependent hyper-Gamma "
                "runtimes, daily arrival cycle."
            ],
        )
