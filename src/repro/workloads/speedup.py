"""Speedup models for flexible (moldable) jobs.

Section 2.1 describes flexible-job workload models that "provide data about
the total computation and the speedup function, instead of the required
number of processors and runtime", letting the scheduler choose the
allocation.  Two published speedup families are implemented:

* :class:`DowneySpeedup` — Downey's two-parameter model (average parallelism
  ``A`` and variance ``sigma``), the model behind his moldable-job workload
  and processor-allocation studies;
* :class:`AmdahlSpeedup` — the classic serial-fraction law, useful as a
  contrasting family in tests and ablations.

:class:`MoldableJob` couples a speedup model with a total amount of
sequential work and answers "how long does this job run on n processors",
which is what the moldable scheduling policy (experiment E8) needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

__all__ = ["SpeedupModel", "DowneySpeedup", "AmdahlSpeedup", "MoldableJob"]


class SpeedupModel(Protocol):
    """Anything that maps a processor count to a speedup factor."""

    def speedup(self, processors: int) -> float:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class DowneySpeedup:
    """Downey's speedup model.

    Parameters
    ----------
    A:
        Average parallelism of the application (>= 1).
    sigma:
        Coefficient of variation of parallelism.  ``sigma = 0`` gives ideal
        speedup up to ``A`` processors and flat beyond; larger values bend
        the curve earlier.  Downey reports workloads dominated by
        ``sigma <= 2``.

    The formulas follow Downey, "A parallel workload model and its
    implications for processor allocation" (1997): a low-variance regime
    (``sigma <= 1``) and a high-variance regime (``sigma > 1``), each defined
    piecewise in the processor count.
    """

    A: float
    sigma: float

    def __post_init__(self) -> None:
        if self.A < 1:
            raise ValueError("average parallelism A must be >= 1")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def speedup(self, processors: int) -> float:
        """Speedup on ``processors`` processors (1 <= speedup <= A)."""
        n = float(processors)
        if n < 1:
            raise ValueError("processors must be >= 1")
        A, sigma = self.A, self.sigma
        if A == 1.0:
            return 1.0
        if sigma == 0:
            return min(n, A)
        if sigma <= 1.0:
            if n <= A:
                denom = A + sigma * (n - 1.0) / 2.0
                if n >= 2 * A - 1:  # defensive; cannot happen when n <= A and A >= 1
                    denom = sigma * (A - 0.5) + n * (1 - sigma / 2.0)
                s = A * n / denom
            elif n <= 2 * A - 1:
                s = A * n / (sigma * (A - 0.5) + n * (1.0 - sigma / 2.0))
            else:
                s = A
        else:
            boundary = A + A * sigma - sigma
            if n <= boundary:
                s = n * A * (sigma + 1.0) / (sigma * (n + A - 1.0) + A)
            else:
                s = A
        return max(1.0, min(s, A))

    def efficiency(self, processors: int) -> float:
        """Speedup divided by processor count."""
        return self.speedup(processors) / processors


@dataclass(frozen=True)
class AmdahlSpeedup:
    """Amdahl's law: ``1 / (f + (1 - f)/n)`` with serial fraction ``f``."""

    serial_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.serial_fraction <= 1.0:
            raise ValueError("serial_fraction must be in [0, 1]")

    def speedup(self, processors: int) -> float:
        n = float(processors)
        if n < 1:
            raise ValueError("processors must be >= 1")
        f = self.serial_fraction
        return 1.0 / (f + (1.0 - f) / n)

    def efficiency(self, processors: int) -> float:
        return self.speedup(processors) / processors


@dataclass(frozen=True)
class MoldableJob:
    """A flexible job: total sequential work plus a speedup model.

    ``runtime_on(n)`` is the wall-clock time on ``n`` processors; the
    scheduler is free to pick ``n`` anywhere in ``[1, max_processors]`` at
    start time (moldable, not malleable: the allocation cannot change later).
    """

    job_id: int
    sequential_work: float
    speedup_model: SpeedupModel
    max_processors: int

    def __post_init__(self) -> None:
        if self.sequential_work <= 0:
            raise ValueError("sequential_work must be positive")
        if self.max_processors < 1:
            raise ValueError("max_processors must be >= 1")

    def runtime_on(self, processors: int) -> float:
        """Wall-clock runtime on ``processors`` processors."""
        if not 1 <= processors <= self.max_processors:
            raise ValueError(
                f"processors must be in [1, {self.max_processors}], got {processors}"
            )
        return self.sequential_work / self.speedup_model.speedup(processors)
