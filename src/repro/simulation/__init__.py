"""Discrete-event simulation kernel and statistical distributions.

This package provides the substrate every simulator in :mod:`repro` is built
on:

* :class:`~repro.simulation.engine.Simulator` — a deterministic
  discrete-event engine (a heap of timestamped events with stable
  tie-breaking, merged with a time-sorted arrival stream).
* :mod:`~repro.simulation.distributions` — the random distributions the
  published workload models require (log-uniform, hyper-Erlang,
  two-stage hyper-gamma, Zipf, Weibull), all driven by
  :class:`numpy.random.Generator` for reproducibility.

The paper's evaluation methodology assumes an event-driven scheduler
simulator; ``simpy`` is not available in this environment, so the kernel is
implemented from scratch (see DESIGN.md, substitution table).
"""

from repro.simulation.engine import Simulator
from repro.simulation.distributions import (
    DiscreteSampler,
    HyperErlang,
    HyperGamma,
    LogUniform,
    TruncatedNormal,
    Weibull,
    Zipf,
    make_rng,
)

__all__ = [
    "Simulator",
    "DiscreteSampler",
    "HyperErlang",
    "HyperGamma",
    "LogUniform",
    "TruncatedNormal",
    "Weibull",
    "Zipf",
    "make_rng",
]
