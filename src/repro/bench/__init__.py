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

from repro.util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "seeds": ("derive_seeds",),
        "stats": (
            "CIEstimate",
            "PairedComparison",
            "mean_ci",
            "bootstrap_ci",
            "paired_comparison",
            "student_t_cdf",
            "student_t_quantile",
        ),
        "store": ("ResultStore", "StoredResult", "result_key", "family_key", "code_version"),
        "suite": (
            "BenchmarkCase",
            "BenchmarkSuite",
            "register_suite",
            "get_suite",
            "suite_names",
            "suite_registry",
        ),
        "runner": (
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
        ),
        "report": (
            "suite_markdown",
            "suite_json",
            "comparison_markdown",
            "comparison_json",
            "report_from_store",
        ),
    },
)
