"""The Jann et al. '97 rigid-job workload model (hyper-Erlang fits per size class).

Jann, Pattnaik, Franke, Wang, Skovira & Riodan, "Modeling of workload in
MPPs" (JSSPP 1997), model the Cornell Theory Center SP2 trace by splitting
jobs into size classes aligned with powers of two (1, 2, 3-4, 5-8, ...,
129-256) and fitting a **hyper-Erlang distribution of common order** to the
interarrival times and to the service times of each class, matching the
first three moments of the observed data.

We reproduce the structure: per-class job fractions that decay with size,
and per-class hyper-Erlang interarrival and runtime distributions whose
means scale the way the CTC fits do (larger classes are rarer but run
longer).  The published 30-odd coefficients are not reproduced digit for
digit — the archive is unavailable offline — but the generator keeps the
model's defining property: each size class is its own independent arrival
stream with heavy-tailed, hyper-Erlang-shaped times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.api.registry import register_model
from repro.core.swf.workload import Workload
from repro.simulation.distributions import HyperErlang, make_rng
from repro.workloads.base import UserPopulation, WorkloadModel, assemble_workload

__all__ = ["Jann97Model", "SizeClass"]


@dataclass(frozen=True)
class SizeClass:
    """One power-of-two-aligned size class of the Jann model."""

    low: int
    high: int
    weight: float
    mean_runtime: float
    runtime_cv: float
    name: str = ""

    def sample_size(self, rng: np.random.Generator) -> int:
        if self.low == self.high:
            return self.low
        return int(rng.integers(self.low, self.high + 1))


def _default_classes(machine_size: int) -> List[SizeClass]:
    """Size classes 1, 2, 3-4, 5-8, ... up to the machine size.

    Weights decay geometrically with the class index and runtimes grow with
    it, which is the qualitative shape of the CTC SP2 fits.
    """
    classes: List[SizeClass] = []
    boundaries: List[Tuple[int, int]] = [(1, 1), (2, 2)]
    low = 3
    while low <= machine_size:
        high = min(2 * (low - 1), machine_size)
        boundaries.append((low, high))
        low = high + 1
    base_weight = 1.0
    for index, (lo, hi) in enumerate(boundaries):
        weight = base_weight * (0.62 ** index)
        mean_runtime = 1200.0 * (1.55 ** index)
        classes.append(
            SizeClass(
                low=lo,
                high=hi,
                weight=weight,
                mean_runtime=mean_runtime,
                runtime_cv=2.5,
                name=f"{lo}-{hi}",
            )
        )
    return classes


def _hyper_erlang_for(mean: float, cv: float, order: int = 2) -> HyperErlang:
    """Two-branch hyper-Erlang of the given order matching a mean and CV > 1.

    The two branches share the order; one is fast and common, the other slow
    and rare, with the probability and rates chosen so the mixture hits the
    requested mean and (approximately) the requested coefficient of
    variation.  This mirrors how Jann et al. use hyper-Erlangs: a compact
    parametric family able to express CV above and below one.
    """
    if mean <= 0:
        raise ValueError("mean must be positive")
    if cv <= 1.0:
        # A single Erlang branch has CV = 1/sqrt(order) <= 1; use it directly.
        rate = order / mean
        return HyperErlang(probs=(1.0,), rates=(rate,), order=order)
    # Branch means m1 = mean/3 (fast) and m2 chosen so p*m1 + (1-p)*m2 = mean
    # with p set by the dispersion; heavier CV pushes more weight to the tail.
    p = min(0.95, 1.0 - 1.0 / (cv * cv + 1.0))
    m1 = mean / 3.0
    m2 = (mean - p * m1) / (1.0 - p)
    return HyperErlang(probs=(p, 1.0 - p), rates=(order / m1, order / m2), order=order)


@register_model("jann97")
class Jann97Model(WorkloadModel):
    """Per-size-class hyper-Erlang model of arrivals and runtimes."""

    name = "jann97"

    def __init__(
        self,
        machine_size: int = 128,
        mean_interarrival: float = 1050.0,
        classes: Optional[List[SizeClass]] = None,
        erlang_order: int = 2,
        users: int = 60,
    ) -> None:
        super().__init__(machine_size)
        self.mean_interarrival = mean_interarrival
        self.classes = classes if classes is not None else _default_classes(machine_size)
        if not self.classes:
            raise ValueError("at least one size class is required")
        self.erlang_order = erlang_order
        self.population = UserPopulation(users=users)

    def generate(self, jobs: int, seed: Optional[int] = None) -> Workload:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        rng = make_rng(seed)

        weights = np.asarray([c.weight for c in self.classes], dtype=float)
        weights = weights / weights.sum()
        per_class_counts = rng.multinomial(jobs, weights)

        arrivals: List[float] = []
        sizes: List[int] = []
        runtimes: List[float] = []
        for size_class, count in zip(self.classes, per_class_counts):
            if count == 0:
                continue
            # Each class is an independent arrival stream; its mean gap is the
            # overall mean interarrival scaled up by the inverse of its share
            # of the jobs, so the merged stream keeps the requested rate.
            class_mean_gap = self.mean_interarrival * per_class_counts.sum() / count
            gap_dist = _hyper_erlang_for(class_mean_gap, cv=1.8, order=self.erlang_order)
            runtime_dist = _hyper_erlang_for(
                size_class.mean_runtime, size_class.runtime_cv, order=self.erlang_order
            )
            t = float(gap_dist.sample(rng))
            for _ in range(count):
                arrivals.append(t)
                sizes.append(size_class.sample_size(rng))
                runtimes.append(max(1.0, float(runtime_dist.sample(rng))))
                t += float(gap_dist.sample(rng))

        users, groups, executables = self.population.assign(rng, len(arrivals))
        estimates = np.asarray(runtimes) * rng.uniform(1.5, 8.0, size=len(runtimes))
        return assemble_workload(
            name=self.name,
            computer="synthetic IBM SP2 (Jann 97 model)",
            machine_size=self.machine_size,
            arrivals=arrivals,
            sizes=sizes,
            runtimes=runtimes,
            estimates=estimates,
            users=users,
            groups=groups,
            executables=executables,
            notes=[
                "Jann et al. 1997 model: per-size-class hyper-Erlang interarrival and runtime distributions."
            ],
        )
