"""The suite runner: cache consult → ``run_many`` fan-out → aggregation.

Execution order is always: expand every case into per-seed :class:`WorkUnit`
replications, look each one up in the content-addressed store, run only the
misses (in one ``run_many`` batch, so ``--workers N`` parallelism applies
across cases and seeds alike), write the fresh results back, then aggregate.
Because cache keys are content addresses, overlapping suites share entries:
running ``std-space`` warms every ``bench compare`` over the same contexts.

:func:`execute_unit` is the one way a unit becomes a store entry: it derives
the unit's inputs, simulates, and puts the entry.  ``run_suite``'s misses,
the distributed worker and the serve daemon's scenario jobs all go through
it, so their entries cannot differ.

:func:`compare_policies` is the paper's prescribed pairwise methodology:
both policies run the *same* seed list per context (common random numbers),
and each metric gets a paired-difference t-test with a significance verdict
instead of an eyeballed mean comparison.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.registry import parse_spec, scheduler_registry
from repro.api.runner import ScenarioResult, resolve_workload_shared, run, run_many
from repro.api.scenario import Scenario
from repro.bench.stats import (
    CIEstimate,
    PairedComparison,
    metric_ci,
    paired_comparison,
)
from repro.bench.store import ResultStore, StoredResult, result_key
from repro.bench.suite import (
    BenchmarkCase,
    BenchmarkSuite,
    generated_outage_log,
    get_suite,
)
from repro.metrics.basic import MetricsReport
from repro.metrics.objective import MAXIMIZE_METRICS
from repro.obs.trace import trace_span

__all__ = [
    "WorkUnit",
    "execute_unit",
    "ReplicationOutcome",
    "CaseAggregate",
    "SuiteRunResult",
    "MetricComparison",
    "CaseComparison",
    "ComparisonResult",
    "run_suite",
    "compare_policies",
    "mean_report",
]


def mean_report(reports: Sequence[MetricsReport]) -> MetricsReport:
    """Field-wise mean of replication reports (the across-seeds summary).

    Numeric fields are averaged; the scheduler name and tau are taken from
    the first report (replications of one case share both).
    """
    if not reports:
        raise ValueError("mean_report needs at least one report")
    first = reports[0]
    values: Dict[str, Any] = {}
    for f in dataclasses.fields(MetricsReport):
        column = [getattr(r, f.name) for r in reports]
        if f.name in ("scheduler",):
            values[f.name] = column[0]
        elif f.name == "counters":
            # Key-wise mean over the per-run counter dicts; replications of
            # one case share a key set, but a missing key reads as 0.
            keys = sorted({k for c in column for k in c})
            values[f.name] = {
                k: sum(c.get(k, 0) for c in column) / len(column) for k in keys
            }
        elif f.name in ("jobs", "killed", "unfinished"):
            values[f.name] = int(round(sum(column) / len(column)))
        else:
            values[f.name] = sum(column) / len(column)
    return MetricsReport(**values)


@dataclass(frozen=True)
class WorkUnit:
    """One distinct replication to execute, self-contained and re-runnable.

    Carries everything a worker on another host needs: the exact scenario
    (seeded, named), the non-scenario key material (``extra`` — outage
    parameters, trace digests), and the suite/case labels the store entry
    must record so ``bench report`` groups it exactly like a serial run's.
    The ``key`` is the store key; it doubles as the unit's file name and its
    lease name in a distributed queue.
    """

    key: str
    suite: str
    case: str
    context: str
    #: the replication seed (a serve scenario submitted without one has None)
    seed: Optional[int]
    scenario: Scenario
    extra: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_record(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "suite": self.suite,
            "case": self.case,
            "context": self.context,
            "seed": self.seed,
            "scenario": self.scenario.to_dict(),
            "extra": self.extra,
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "WorkUnit":
        return cls(
            key=record["key"],
            suite=record["suite"],
            case=record["case"],
            context=record["context"],
            seed=int(record["seed"]),
            scenario=Scenario.from_dict(record["scenario"]),
            extra=record.get("extra", {}),
        )


@dataclass(frozen=True)
class ReplicationOutcome:
    """One executed (or cache-served) replication of one case."""

    case: BenchmarkCase
    seed: int
    scenario: Scenario
    key: str
    report: MetricsReport
    cached: bool


@dataclass(frozen=True)
class CaseAggregate:
    """Across-seeds summary of one case: per-metric mean ± CI."""

    case: str
    context: str
    policy: str
    n: int
    cis: Dict[str, CIEstimate]
    summary: MetricsReport


@dataclass
class SuiteRunResult:
    """Everything one suite run produced, cache-served and simulated alike."""

    suite: str
    metrics: Tuple[str, ...]
    confidence: float
    replications: List[ReplicationOutcome]
    #: replications served by the result store (actual store reads only)
    cache_hits: int
    cache_misses: int
    elapsed_seconds: float
    #: replications whose key duplicates another entry in the *same* run —
    #: served from this run's own result, whether or not a store exists.
    #: Kept separate from ``cache_hits`` so a storeless run never claims
    #: "N from cache" when no cache was consulted.
    deduplicated: int = 0
    #: wall-clock phase breakdown of this run: cache consultation, workload
    #: materialization, simulation, metrics, and store writes (seconds).
    timings: Dict[str, float] = dataclasses.field(default_factory=dict)

    def by_case(self) -> Dict[str, List[ReplicationOutcome]]:
        """Replications grouped by case name, in suite order."""
        grouped: Dict[str, List[ReplicationOutcome]] = {}
        for outcome in self.replications:
            grouped.setdefault(outcome.case.name, []).append(outcome)
        return grouped

    def aggregates(self) -> List[CaseAggregate]:
        """Per-case mean ± CI for every suite metric (memoized).

        Unbounded metrics get Student-t intervals; metrics bounded in [0, 1]
        (utilization) get the percentile bootstrap via
        :func:`~repro.bench.stats.metric_ci`.  The quantile computations are
        not free; rows(), the JSON report, and the markdown report all read
        the same aggregates, so compute once.
        """
        cached = getattr(self, "_aggregates", None)
        if cached is not None:
            return cached
        result = []
        for name, outcomes in self.by_case().items():
            reports = [o.report for o in outcomes]
            result.append(
                CaseAggregate(
                    case=name,
                    context=outcomes[0].case.context,
                    policy=outcomes[0].scenario.policy,
                    n=len(outcomes),
                    cis={
                        metric: metric_ci(
                            metric, [r.value(metric) for r in reports], self.confidence
                        )
                        for metric in self.metrics
                    },
                    summary=mean_report(reports),
                )
            )
        self._aggregates = result
        return result

    def rows(self) -> List[Dict[str, object]]:
        """Display rows: one per case, ``mean ± half-width`` per metric."""
        return [
            {
                "case": agg.context,
                "policy": agg.policy,
                "seeds": agg.n,
                **{metric: _format_ci(ci) for metric, ci in agg.cis.items()},
            }
            for agg in self.aggregates()
        ]

    def summary(self) -> str:
        dedup = (
            f", {self.deduplicated} deduplicated" if self.deduplicated else ""
        )
        if self.cache_misses == 0 and self.cache_hits:
            served = f"all {self.cache_hits} from cache{dedup}, no simulation ran"
        elif self.cache_misses == 0:
            # Everything resolved without store reads *or* simulation: the
            # whole suite deduplicated onto keys from this run itself.
            served = f"0 from cache{dedup}, no simulation ran"
        else:
            served = (
                f"{self.cache_hits} from cache, "
                f"{self.cache_misses} simulated{dedup}"
            )
        return (
            f"suite {self.suite!r}: {len(self.replications)} replications "
            f"({served}) in {self.elapsed_seconds:.2f}s"
        )


def _format_ci(ci: CIEstimate) -> str:
    return f"{ci.mean:.4g} ± {ci.half_width:.3g}"


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _resolve_suite(suite: Union[str, BenchmarkSuite]) -> BenchmarkSuite:
    return get_suite(suite) if isinstance(suite, str) else suite


def _trace_extra(scenario: Scenario) -> Dict[str, Any]:
    """Content-digest key material for trace-backed workloads.

    For ``trace:`` specs and plain SWF paths the cache key must track the
    trace *content*, not the spec string: editing a trace file's bytes (same
    path) has to force a miss.  ``trace`` carries the full digest (into
    :func:`result_key`); ``trace_family`` carries the seed-free family
    digest, which :func:`family_key` keeps so that replications differing
    only in generation seed still aggregate together.
    """
    from repro.traces import trace_for_scenario

    trace = trace_for_scenario(scenario)
    if trace is None:
        return {}
    return {"trace": trace.digest, "trace_family": trace.family_digest}


def _expand(suite: BenchmarkSuite) -> List[WorkUnit]:
    """Flatten the suite into one unit per replication, duplicate keys included."""
    units = []
    for case in suite.cases:
        name, context = case.name, case.context
        for seed, scenario in case.replications():
            extra = case.store_extra(seed)
            extra.update(_trace_extra(scenario))
            key = result_key(scenario, extra)
            units.append(WorkUnit(key=key, suite=suite.name, case=name, context=context,
                                  seed=seed, scenario=scenario, extra=extra))
    return units


def _distinct(units: Sequence[WorkUnit]) -> Dict[str, WorkUnit]:
    """The first unit per store key: a key that appears twice is one work unit."""
    distinct: Dict[str, WorkUnit] = {}
    for unit in units:
        distinct.setdefault(unit.key, unit)
    return distinct


def _unit_inputs(unit: WorkUnit) -> Tuple[Optional[Any], Optional[Any]]:
    """The ``(workload, outages)`` overrides a unit runs with.

    The workload is the shared *unscaled* materialization, so replications
    over one context resolve it once and ``run()`` scales it exactly as from
    the spec; grid-mode policies get none, as the grid runner re-seeds the
    model per site.  A generated outage log is rebuilt from the parameters
    in ``unit.extra["outages"]``.
    """
    scenario = unit.scenario
    mode = getattr(scheduler_registry.get(parse_spec(scenario.policy)[0]), "mode", "space")
    workload = None if mode == "grid" else resolve_workload_shared(scenario)
    params = unit.extra.get("outages")
    outages = generated_outage_log(int(scenario.machine_size), params) if params else None
    return workload, outages


def _store_unit(unit: WorkUnit, result: ScenarioResult, store: ResultStore) -> StoredResult:
    """Put one unit's result: the only place a store entry is built."""
    entry = StoredResult(
        key=unit.key,
        scenario=unit.scenario,
        report=result.report,
        extra=unit.extra,
        suite=unit.suite,
        case=unit.case,
        # This run's own cost (its phase breakdown), not wall time around a
        # batch or a pool round trip.
        elapsed_seconds=sum(result.timings.values()),
    )
    store.put(entry)
    return entry


def execute_unit(unit: WorkUnit, store: ResultStore) -> StoredResult:
    """Simulate one unit with its derived inputs and store the entry.

    ``run_suite`` runs the same two halves around ``run_many`` (inputs
    before the fan-out, the put as each result arrives); the distributed
    worker and the serve daemon call this directly.
    """
    workload, outages = _unit_inputs(unit)
    return _store_unit(unit, run(unit.scenario, workload=workload, outages=outages), store)


def run_suite(
    suite: Union[str, BenchmarkSuite],
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    confidence: float = 0.95,
    progress: Optional[Callable[[int, int, bool], None]] = None,
) -> SuiteRunResult:
    """Run a suite (by name or instance), reusing cached replications.

    ``store=None`` disables persistence entirely; with a store, ``use_cache=
    False`` skips reads but still writes, refreshing every entry.  Runs are
    fully seeded, so ``workers=N`` reproduces serial results bit-for-bit.

    ``progress(done, total, cached)`` is called once per distinct work unit
    (unique result key) as it resolves — immediately for cache hits, at
    completion for simulated misses — so a long suite can be watched live
    (the serve daemon's job progress reads exactly this).  Fresh results are
    persisted as they complete, not at the end, so an interrupted run keeps
    everything it finished.
    """
    suite = _resolve_suite(suite)
    started = time.perf_counter()
    timings: Dict[str, float] = {
        "cache_lookup_seconds": 0.0,
        "materialize_seconds": 0.0,
        "simulate_seconds": 0.0,
        "metrics_seconds": 0.0,
        "store_write_seconds": 0.0,
    }
    with trace_span("bench.expand", suite=suite.name):
        units = _expand(suite)
    distinct = _distinct(units)
    total = len(distinct)
    done = 0

    reports: Dict[str, MetricsReport] = {}
    store_hits = 0
    if store is not None and use_cache:
        lookup_started = time.perf_counter()
        with trace_span("bench.cache_lookup", keys=total):
            for key in distinct:
                hit = store.get(key)
                if hit is not None:
                    reports[key] = hit.report
                    store_hits += 1
                    done += 1
                    if progress is not None:
                        progress(done, total, True)
        timings["cache_lookup_seconds"] = time.perf_counter() - lookup_started

    misses = [unit for key, unit in distinct.items() if key not in reports]
    if misses:

        def _record(index: int, scenario_result) -> None:
            nonlocal done
            unit = misses[index]
            reports[unit.key] = scenario_result.report
            done += 1
            run_timings = scenario_result.timings
            for phase in ("materialize_seconds", "simulate_seconds", "metrics_seconds"):
                timings[phase] += run_timings.get(phase, 0.0)
            if store is not None:
                write_started = time.perf_counter()
                with trace_span("bench.store_write", case=unit.case):
                    _store_unit(unit, scenario_result, store)
                timings["store_write_seconds"] += time.perf_counter() - write_started
            if progress is not None:
                progress(done, total, False)

        with trace_span("bench.fan_out", misses=len(misses), workers=workers or 1):
            workloads, outages = zip(*(_unit_inputs(unit) for unit in misses))
            run_many([unit.scenario for unit in misses], workers=workers,
                     workloads=workloads, outages=outages, on_result=_record)

    # Only the first unit per simulated key counts as a miss: a duplicate
    # key later in the suite is served from this run's own result, exactly
    # like a store hit.
    unsimulated = {unit.key for unit in misses}
    cases = {case.name: case for case in suite.cases}
    outcomes = []
    for unit in units:
        freshly_simulated = unit.key in unsimulated
        unsimulated.discard(unit.key)
        outcomes.append(
            ReplicationOutcome(
                case=cases[unit.case],
                seed=unit.seed,
                scenario=unit.scenario,
                key=unit.key,
                report=reports[unit.key],
                cached=not freshly_simulated,
            )
        )
    elapsed = time.perf_counter() - started
    timings["total_seconds"] = elapsed
    # Worker-side phase totals can exceed the wall clock under --workers N
    # (they sum across processes); "other" is the unaccounted parent-side
    # remainder, clamped at zero in that case.
    accounted = sum(v for k, v in timings.items() if k != "total_seconds")
    timings["other_seconds"] = max(0.0, elapsed - accounted)
    return SuiteRunResult(
        suite=suite.name,
        metrics=suite.metrics,
        confidence=confidence,
        replications=outcomes,
        # Only actual store reads are cache hits; a duplicate key inside the
        # suite is accounted as deduplicated, so a run with store=None or
        # use_cache=False can never report phantom hits.
        cache_hits=store_hits,
        cache_misses=len(misses),
        deduplicated=len(units) - total,
        elapsed_seconds=elapsed,
        timings={k: round(v, 6) for k, v in timings.items()},
    )


# ----------------------------------------------------------------------
# pairwise comparison under common random numbers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricComparison:
    """One metric of one context: both CIs, the paired test, the winner."""

    metric: str
    a: CIEstimate
    b: CIEstimate
    paired: PairedComparison
    #: the policy the significant difference favours (None: not significant)
    better: Optional[str]


@dataclass(frozen=True)
class CaseComparison:
    """All metric verdicts for one workload context."""

    context: str
    n: int
    metrics: List[MetricComparison]

    def wins(self, policy: str) -> int:
        return sum(1 for m in self.metrics if m.better == policy)


@dataclass
class ComparisonResult:
    """Pairwise comparison of two policies over a suite's contexts."""

    suite: str
    policy_a: str
    policy_b: str
    confidence: float
    cases: List[CaseComparison]
    cache_hits: int
    cache_misses: int
    elapsed_seconds: float

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for case in self.cases:
            for m in case.metrics:
                rows.append(
                    {
                        "case": case.context,
                        "metric": m.metric,
                        self.policy_a: _format_ci(m.a),
                        self.policy_b: _format_ci(m.b),
                        "diff": f"{m.paired.mean_diff:+.4g}",
                        "p": f"{m.paired.p_value:.3f}",
                        "verdict": m.better if m.better else "—",
                    }
                )
        return rows

    def summary(self) -> str:
        lines = []
        for case in self.cases:
            a_wins, b_wins = case.wins(self.policy_a), case.wins(self.policy_b)
            total = len(case.metrics)
            if a_wins > b_wins:
                verdict = f"{self.policy_a} better on {a_wins}/{total} metrics"
            elif b_wins > a_wins:
                verdict = f"{self.policy_b} better on {b_wins}/{total} metrics"
            else:
                verdict = f"no overall winner ({a_wins}/{total} metrics each)"
            lines.append(
                f"{case.context} ({case.n} seeds): {verdict} "
                f"at {self.confidence:.0%} confidence"
            )
        served = "all from cache" if self.cache_misses == 0 else (
            f"{self.cache_hits} from cache, {self.cache_misses} simulated"
        )
        lines.append(
            f"{self.policy_a} vs {self.policy_b} over suite {self.suite!r}: "
            f"{served}, {self.elapsed_seconds:.2f}s"
        )
        return "\n".join(lines)


def _better_policy(
    metric: str, paired: PairedComparison, policy_a: str, policy_b: str
) -> Optional[str]:
    """Map a significant difference direction onto the favoured policy."""
    if paired.direction == 0:
        return None
    a_is_larger = paired.direction > 0
    if metric in MAXIMIZE_METRICS:
        return policy_a if a_is_larger else policy_b
    # Metrics default to lower-is-better, matching ObjectiveFunction.
    return policy_b if a_is_larger else policy_a


def compare_policies(
    suite: Union[str, BenchmarkSuite],
    policy_a: str,
    policy_b: str,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    confidence: float = 0.95,
) -> ComparisonResult:
    """Compare two policy specs over a suite's workload contexts.

    Every context keeps its own seed list and outage conditions; both
    policies run all of them (common random numbers), and each suite metric
    gets a paired-difference significance verdict.
    """
    if policy_a == policy_b:
        raise ValueError("compare needs two distinct policy specs")
    suite = _resolve_suite(suite)
    pair_suite = suite.with_policies([policy_a, policy_b])
    outcome = run_suite(
        pair_suite,
        workers=workers,
        store=store,
        use_cache=use_cache,
        confidence=confidence,
    )
    grouped = outcome.by_case()
    cases = []
    for ctx in pair_suite.contexts():
        reports_a = [o.report for o in grouped[f"{ctx.context}/{policy_a}"]]
        reports_b = [o.report for o in grouped[f"{ctx.context}/{policy_b}"]]
        metric_comparisons = []
        for metric in pair_suite.metrics:
            values_a = [r.value(metric) for r in reports_a]
            values_b = [r.value(metric) for r in reports_b]
            paired = paired_comparison(values_a, values_b, confidence)
            metric_comparisons.append(
                MetricComparison(
                    metric=metric,
                    a=metric_ci(metric, values_a, confidence),
                    b=metric_ci(metric, values_b, confidence),
                    paired=paired,
                    better=_better_policy(metric, paired, policy_a, policy_b),
                )
            )
        cases.append(
            CaseComparison(
                context=ctx.context, n=len(reports_a), metrics=metric_comparisons
            )
        )
    return ComparisonResult(
        suite=suite.name,
        policy_a=policy_a,
        policy_b=policy_b,
        confidence=confidence,
        cases=cases,
        cache_hits=outcome.cache_hits,
        cache_misses=outcome.cache_misses,
        elapsed_seconds=outcome.elapsed_seconds,
    )
