"""Statistical distributions used by the published workload models.

The rigid-job workload models the paper cites (Feitelson '96, Jann '97,
Lublin '99, Downey '97) are built from a small set of distributions that are
not all available directly from :mod:`numpy.random`:

* **log-uniform** — Downey's model for total work and for the cumulative
  runtime distribution,
* **hyper-Erlang** — Jann et al. fit interarrival and service times with
  hyper-Erlang distributions of common order,
* **hyper-Gamma** — Lublin & Feitelson model runtimes with a two-stage
  hyper-Gamma whose mixing probability depends on the job size,
* **Zipf** — popularity of users / executables,
* **Weibull** — time-between-failures for the outage generator.

Every class exposes ``sample(rng)`` / ``sample_many(rng, n)`` and ``mean()``
where a closed form exists, and carries its parameters as read-only
attributes so the workload models can be introspected and tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "make_rng",
    "LogUniform",
    "HyperErlang",
    "HyperGamma",
    "Zipf",
    "Weibull",
    "TruncatedNormal",
    "DiscreteSampler",
]


def make_rng(seed: Optional[int] = None) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` from an optional integer seed.

    Passing ``None`` produces a non-deterministic generator; every benchmark
    and experiment in this repository passes an explicit seed so results are
    reproducible run to run.
    """
    return np.random.default_rng(seed)


def _as_rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else make_rng()


@dataclass(frozen=True)
class LogUniform:
    """Log-uniform distribution on ``[low, high]``.

    ``ln(X)`` is uniform on ``[ln(low), ln(high)]``.  Used by Downey's model
    for cumulative runtime and total allocated work.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low <= 0 or self.high <= 0:
            raise ValueError("log-uniform bounds must be positive")
        if self.low > self.high:
            raise ValueError("low must not exceed high")

    def sample(self, rng: Optional[np.random.Generator] = None) -> float:
        rng = _as_rng(rng)
        return float(np.exp(rng.uniform(math.log(self.low), math.log(self.high))))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.exp(rng.uniform(math.log(self.low), math.log(self.high), size=n))

    def mean(self) -> float:
        if self.low == self.high:
            return self.low
        return (self.high - self.low) / (math.log(self.high) - math.log(self.low))


@dataclass(frozen=True)
class HyperErlang:
    """Mixture of Erlang distributions of common order (Jann et al. 1997).

    Branch ``i`` is chosen with probability ``probs[i]`` and contributes an
    Erlang(``order``, ``rates[i]``) variate, i.e. the sum of ``order``
    exponentials of rate ``rates[i]``.
    """

    probs: tuple
    rates: tuple
    order: int

    def __post_init__(self) -> None:
        if len(self.probs) != len(self.rates):
            raise ValueError("probs and rates must have the same length")
        if self.order < 1:
            raise ValueError("Erlang order must be >= 1")
        total = sum(self.probs)
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError(f"branch probabilities must sum to 1 (got {total})")
        if any(r <= 0 for r in self.rates):
            raise ValueError("rates must be positive")

    def sample(self, rng: Optional[np.random.Generator] = None) -> float:
        rng = _as_rng(rng)
        branch = rng.choice(len(self.probs), p=self.probs)
        return float(rng.gamma(shape=self.order, scale=1.0 / self.rates[branch]))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        branches = rng.choice(len(self.probs), size=n, p=self.probs)
        scales = np.asarray([1.0 / r for r in self.rates])[branches]
        return rng.gamma(shape=self.order, scale=scales)

    def mean(self) -> float:
        return sum(p * self.order / r for p, r in zip(self.probs, self.rates))


@dataclass(frozen=True)
class HyperGamma:
    """Two-stage hyper-Gamma distribution (Lublin & Feitelson 1999/2003).

    With probability ``p`` the variate is Gamma(``shape1``, ``scale1``),
    otherwise Gamma(``shape2``, ``scale2``).  Lublin's runtime model makes
    ``p`` a linear function of the job size; that coupling lives in
    :mod:`repro.workloads.lublin99`, this class is the plain mixture.
    """

    p: float
    shape1: float
    scale1: float
    shape2: float
    scale2: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("mixing probability must be in [0, 1]")
        for name in ("shape1", "scale1", "shape2", "scale2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def sample(self, rng: Optional[np.random.Generator] = None) -> float:
        rng = _as_rng(rng)
        if rng.random() < self.p:
            return float(rng.gamma(self.shape1, self.scale1))
        return float(rng.gamma(self.shape2, self.scale2))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        use_first = rng.random(n) < self.p
        out = np.where(
            use_first,
            rng.gamma(self.shape1, self.scale1, size=n),
            rng.gamma(self.shape2, self.scale2, size=n),
        )
        return out

    def mean(self) -> float:
        return self.p * self.shape1 * self.scale1 + (1.0 - self.p) * self.shape2 * self.scale2


@dataclass(frozen=True)
class Zipf:
    """Bounded Zipf distribution over ``{1, ..., n}`` with exponent ``alpha``.

    Used for the popularity of users, groups, and executables when
    synthesizing SWF traces: a few users submit most of the jobs.
    """

    n: int
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("support size must be >= 1")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")

    def _pmf(self) -> np.ndarray:
        ranks = np.arange(1, self.n + 1, dtype=float)
        weights = ranks ** (-self.alpha)
        return weights / weights.sum()

    def sample(self, rng: Optional[np.random.Generator] = None) -> int:
        rng = _as_rng(rng)
        return int(rng.choice(np.arange(1, self.n + 1), p=self._pmf()))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(np.arange(1, self.n + 1), size=n, p=self._pmf())

    def mean(self) -> float:
        pmf = self._pmf()
        return float(np.sum(pmf * np.arange(1, self.n + 1)))


@dataclass(frozen=True)
class Weibull:
    """Weibull distribution with ``shape`` k and ``scale`` lambda.

    ``shape < 1`` gives a decreasing hazard rate (infant-mortality-like
    failures), ``shape > 1`` an increasing one (wear-out); the outage
    generator defaults to ``shape < 1`` which matches observed supercomputer
    failure data.
    """

    shape: float
    scale: float

    def __post_init__(self) -> None:
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError("shape and scale must be positive")

    def sample(self, rng: Optional[np.random.Generator] = None) -> float:
        rng = _as_rng(rng)
        return float(self.scale * rng.weibull(self.shape))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * rng.weibull(self.shape, size=n)

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)


@dataclass(frozen=True)
class TruncatedNormal:
    """Normal distribution truncated (by resampling) to ``[low, high]``."""

    mu: float
    sigma: float
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.low >= self.high:
            raise ValueError("low must be strictly below high")

    def sample(self, rng: Optional[np.random.Generator] = None) -> float:
        rng = _as_rng(rng)
        # Rejection sampling is fine here: callers use mild truncation.
        for _ in range(10_000):
            x = rng.normal(self.mu, self.sigma)
            if self.low <= x <= self.high:
                return float(x)
        # Pathological truncation: fall back to clipping.
        return float(min(max(rng.normal(self.mu, self.sigma), self.low), self.high))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.asarray([self.sample(rng) for _ in range(n)])


class DiscreteSampler:
    """Weighted sampler over an arbitrary finite set of values.

    Parameters
    ----------
    values:
        The support.
    weights:
        Non-negative weights; normalized internally.
    """

    def __init__(self, values: Sequence, weights: Sequence[float]) -> None:
        if len(values) != len(weights):
            raise ValueError("values and weights must have the same length")
        if len(values) == 0:
            raise ValueError("support must be non-empty")
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        total = w.sum()
        if total <= 0:
            raise ValueError("at least one weight must be positive")
        self._values = list(values)
        self._probs = w / total

    @property
    def values(self) -> list:
        return list(self._values)

    @property
    def probabilities(self) -> np.ndarray:
        return self._probs.copy()

    def sample(self, rng: Optional[np.random.Generator] = None):
        rng = _as_rng(rng)
        idx = rng.choice(len(self._values), p=self._probs)
        return self._values[idx]

    def sample_many(self, rng: np.random.Generator, n: int) -> list:
        idx = rng.choice(len(self._values), size=n, p=self._probs)
        return [self._values[i] for i in idx]
