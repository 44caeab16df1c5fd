"""Metrics, composite objective functions, and ranking comparison."""

from repro.metrics.basic import DEFAULT_TAU, MetricsReport, compute_metrics
from repro.metrics.objective import (
    MAXIMIZE_METRICS,
    MINIMIZE_METRICS,
    ObjectiveFunction,
    kendall_tau,
    rank_schedulers,
    ranking_agreement,
)

__all__ = [
    "DEFAULT_TAU",
    "MetricsReport",
    "compute_metrics",
    "MAXIMIZE_METRICS",
    "MINIMIZE_METRICS",
    "ObjectiveFunction",
    "kendall_tau",
    "rank_schedulers",
    "ranking_agreement",
]
