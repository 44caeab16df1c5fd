"""Standardized benchmark suites with statistical rigor and result caching.

The source paper's thesis is that scheduler evaluation needs *standards*:
shared benchmark workloads and a statistically sound methodology, because
ad-hoc single-run comparisons rank schedulers inconsistently.  This package
is that methodology as code:

* :mod:`repro.bench.suite`  — :class:`BenchmarkCase`/:class:`BenchmarkSuite`
  (a :class:`~repro.api.scenario.Scenario` template × a seed list) and the
  registered built-in suites (``std-space``, ``std-gang``, ``std-grid``,
  ``std-outage``, ``std-feedback``, ``std-scale``, ``smoke``);
* :mod:`repro.bench.seeds`  — splitmix-style :func:`derive_seeds`, so a seed
  list depends only on the base seed, never on worker count or run order;
* :mod:`repro.bench.stats`  — pure-python replication statistics: Student-t
  confidence intervals, percentile bootstrap, paired-difference comparison
  under common random numbers with a significance verdict;
* :mod:`repro.bench.store`  — a content-addressed on-disk result store keyed
  by ``sha256(scenario JSON + code version)``, so repeated and overlapping
  suite runs hit cache instead of the simulator;
* :mod:`repro.bench.runner` — cache-consult → ``run_many`` fan-out →
  aggregation, over :class:`WorkUnit` replications; :func:`execute_unit` is
  the one execute-and-store path, shared by suite misses, ``repro dist``
  workers and ``repro serve`` scenario jobs;
* :mod:`repro.bench.report` — markdown/JSON tables with CI columns and
  significance markers for pairwise scheduler rankings.

Attributes load lazily (PEP 562, same idiom as :mod:`repro.api`) so that
low-level modules can import :mod:`repro.bench.seeds` without pulling in the
scenario runner.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    # seeds
    "derive_seeds",
    # stats
    "CIEstimate",
    "PairedComparison",
    "mean_ci",
    "bootstrap_ci",
    "paired_comparison",
    "student_t_cdf",
    "student_t_quantile",
    # store
    "ResultStore",
    "StoredResult",
    "result_key",
    "family_key",
    "code_version",
    # suites
    "BenchmarkCase",
    "BenchmarkSuite",
    "register_suite",
    "get_suite",
    "suite_names",
    "suite_registry",
    # running
    "WorkUnit",
    "execute_unit",
    "ReplicationOutcome",
    "CaseAggregate",
    "SuiteRunResult",
    "CaseComparison",
    "ComparisonResult",
    "MetricComparison",
    "run_suite",
    "compare_policies",
    "mean_report",
    # reporting
    "suite_markdown",
    "suite_json",
    "comparison_markdown",
    "comparison_json",
    "report_from_store",
]

_SEEDS_NAMES = {"derive_seeds"}
_STATS_NAMES = {
    "CIEstimate",
    "PairedComparison",
    "mean_ci",
    "bootstrap_ci",
    "paired_comparison",
    "student_t_cdf",
    "student_t_quantile",
}
_STORE_NAMES = {"ResultStore", "StoredResult", "result_key", "family_key", "code_version"}
_SUITE_NAMES = {
    "BenchmarkCase",
    "BenchmarkSuite",
    "register_suite",
    "get_suite",
    "suite_names",
    "suite_registry",
}
_RUNNER_NAMES = {
    "WorkUnit",
    "execute_unit",
    "ReplicationOutcome",
    "CaseAggregate",
    "SuiteRunResult",
    "CaseComparison",
    "ComparisonResult",
    "MetricComparison",
    "run_suite",
    "compare_policies",
    "mean_report",
}
_REPORT_NAMES = {
    "suite_markdown",
    "suite_json",
    "comparison_markdown",
    "comparison_json",
    "report_from_store",
}


def __getattr__(name: str) -> Any:
    if name in _SEEDS_NAMES:
        from repro.bench import seeds as module
    elif name in _STATS_NAMES:
        from repro.bench import stats as module
    elif name in _STORE_NAMES:
        from repro.bench import store as module
    elif name in _SUITE_NAMES:
        from repro.bench import suite as module
    elif name in _RUNNER_NAMES:
        from repro.bench import runner as module
    elif name in _REPORT_NAMES:
        from repro.bench import report as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__() -> list:
    return sorted(__all__)
