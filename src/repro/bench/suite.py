"""Benchmark suites: named, versioned rosters of scenarios × seed lists.

A :class:`BenchmarkCase` is one (workload context, policy) cell replicated
over a deterministic seed list; a :class:`BenchmarkSuite` is a named set of
cases plus the metric columns its reports aggregate.  Suites are registered
by name — ``get_suite("std-space")`` — through the same
:class:`~repro.api.registry.Registry` machinery as policies and workload
models, so typos get did-you-mean suggestions and plugins can add suites.

The built-in suites cover every simulator mode the repository has:

===================  =====================================================
``smoke``            tiny uniform workload, seconds end-to-end (CI cache check)
``std-space``        lublin99 through the space-sharing roster at two loads
``std-gang``         gang time-slicing at two multiprogramming levels
``std-grid``         two-site metacomputing, both meta-schedulers
``std-outage``       outage-blind versus outage-aware EASY under failures
``std-feedback``     session workload, open versus closed (feedback) replay
``std-trace-smoke``  one tiny catalog trace through FCFS and EASY (CI check)
``std-trace-ctc``    the CTC SP2 catalog trace, load-varied, space roster
``std-trace-archives`` all four catalog traces at native load, FCFS vs EASY
``std-scale``        100k-job synthetic traces, space roster (perf trajectory)
``std-scale-smoke``  trimmed 20k-job scale run (CI perf gate)
===================  =====================================================

The ``std-trace-*`` suites replay catalog traces (:mod:`repro.traces`):
their workloads are ``trace:`` specs, each replication seed regenerates the
synthetic archive content (so across-seed CIs measure workload-to-workload
variability, the paper's replication methodology), and the result store
keys every entry by the trace's content digest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.registry import Registry
from repro.api.scenario import Scenario
from repro.bench.seeds import derive_seeds

__all__ = [
    "DEFAULT_METRICS",
    "BenchmarkCase",
    "BenchmarkSuite",
    "generated_outage_log",
    "suite_registry",
    "register_suite",
    "get_suite",
    "suite_names",
]

#: Metric columns a suite aggregates unless it says otherwise.
DEFAULT_METRICS: Tuple[str, ...] = (
    "mean_wait",
    "mean_response",
    "mean_bounded_slowdown",
    "p90_bounded_slowdown",
    "utilization",
    "throughput_per_hour",
)

#: Base seed of all built-in suites (the paper's year).
SUITE_BASE_SEED = 1999


@dataclass(frozen=True)
class BenchmarkCase:
    """One (workload context, policy) cell replicated over ``seeds``.

    ``context`` labels the workload conditions *excluding* the policy, so
    cases that differ only in policy share a context — that sharing is what
    lets ``compare`` pair replications under common random numbers.  The
    optional ``outages`` mapping describes a *generated* outage log
    (``mtbf_days``, ``horizon_days``); the log is materialized in memory per
    replication, seeded by the replication seed, and its parameters are part
    of the cache key.
    """

    context: str
    scenario: Scenario
    seeds: Tuple[int, ...]
    outages: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError(f"case {self.context!r} has an empty seed list")
        if self.outages is not None and self.scenario.machine_size is None:
            raise ValueError(
                f"case {self.context!r} generates outages, which requires an "
                "explicit machine_size"
            )

    @property
    def name(self) -> str:
        """Unique case label: the context plus the policy spec."""
        return f"{self.context}/{self.scenario.policy}"

    def replications(self) -> List[Tuple[int, Scenario]]:
        """The concrete per-seed scenarios this case expands to."""
        return [
            (seed, self.scenario.with_(seed=seed, name=f"{self.name}#{seed}"))
            for seed in self.seeds
        ]

    def store_extra(self, seed: int) -> Dict[str, Any]:
        """Non-scenario cache-key material for the replication at ``seed``."""
        if self.outages is None:
            return {}
        return {"outages": {**self.outages, "seed": seed}}

    def outage_log(self, seed: int):
        """Materialize the generated outage log for the replication at ``seed``."""
        if self.outages is None:
            return None
        return generated_outage_log(int(self.scenario.machine_size), self.store_extra(seed)["outages"])


def generated_outage_log(machine_size: int, params: Dict[str, Any]):
    """The outage log a case's ``store_extra(seed)["outages"]`` parameters describe.

    Seeded by the replication seed recorded in ``params``, so anything
    holding only the stored parameters (a distributed worker) rebuilds
    exactly the log the serial runner used.
    """
    from repro.core.outage import OutageModel, generate_outages

    return generate_outages(
        machine_size,
        int(float(params.get("horizon_days", 30.0)) * 24 * 3600),
        model=OutageModel(mtbf_seconds=float(params.get("mtbf_days", 7.0)) * 24 * 3600),
        seed=int(params["seed"]),
    )


@dataclass(frozen=True)
class BenchmarkSuite:
    """A named roster of cases plus the metric columns to aggregate."""

    name: str
    description: str
    cases: Tuple[BenchmarkCase, ...]
    metrics: Tuple[str, ...] = DEFAULT_METRICS

    def __post_init__(self) -> None:
        names = [case.name for case in self.cases]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(
                f"suite {self.name!r} has duplicate case names: {sorted(duplicates)}"
            )

    def contexts(self) -> List[BenchmarkCase]:
        """One representative case per distinct workload context, in order."""
        seen: Dict[str, BenchmarkCase] = {}
        for case in self.cases:
            seen.setdefault(case.context, case)
        return list(seen.values())

    def with_policies(self, policies: Sequence[str]) -> "BenchmarkSuite":
        """The suite's workload contexts crossed with the given policies.

        This is how ``bench compare A B`` reuses a suite: keep every
        workload context (and its seeds and outage conditions — common
        random numbers) but substitute the policy roster.
        """
        cases = tuple(
            replace(ctx, scenario=ctx.scenario.with_(policy=policy))
            for ctx in self.contexts()
            for policy in policies
        )
        return replace(self, cases=cases)

    def replication_count(self) -> int:
        return sum(len(case.seeds) for case in self.cases)


# ----------------------------------------------------------------------
# the suite registry and the built-in suites
# ----------------------------------------------------------------------
suite_registry = Registry("benchmark suite")


def register_suite(*names: str):
    """Register a zero-argument suite factory under one or more names."""
    return suite_registry.register(*names)


def get_suite(name: str) -> BenchmarkSuite:
    """Build the registered suite (did-you-mean on unknown names)."""
    return suite_registry.get(name)()


def suite_names() -> List[str]:
    return suite_registry.names()


def _roster(
    context: str,
    scenario: Scenario,
    policies: Sequence[str],
    seeds: Sequence[int],
    outages: Optional[Dict[str, float]] = None,
) -> List[BenchmarkCase]:
    return [
        BenchmarkCase(
            context=context,
            scenario=scenario.with_(policy=policy),
            seeds=tuple(seeds),
            outages=outages,
        )
        for policy in policies
    ]


@register_suite("smoke")
def _smoke_suite() -> BenchmarkSuite:
    seeds = derive_seeds(SUITE_BASE_SEED, 3)
    scenario = Scenario(workload="uniform", jobs=150, machine_size=32, load=0.7)
    return BenchmarkSuite(
        name="smoke",
        description="Tiny uniform workload through FCFS and EASY; seconds end-to-end.",
        cases=tuple(_roster("uniform@0.70", scenario, ("fcfs", "easy"), seeds)),
    )


@register_suite("std-space")
def _std_space_suite() -> BenchmarkSuite:
    seeds = derive_seeds(SUITE_BASE_SEED, 5)
    policies = ("fcfs", "easy", "conservative", "sjf")
    cases: List[BenchmarkCase] = []
    for load in (0.55, 0.85):
        scenario = Scenario(workload="lublin99", jobs=600, machine_size=128, load=load)
        cases.extend(_roster(f"lublin99@{load:.2f}", scenario, policies, seeds))
    return BenchmarkSuite(
        name="std-space",
        description=(
            "The space-sharing roster (FCFS, EASY, conservative, SJF) on the "
            "Lublin-Feitelson workload at moderate and heavy load."
        ),
        cases=tuple(cases),
    )


@register_suite("std-gang")
def _std_gang_suite() -> BenchmarkSuite:
    seeds = derive_seeds(SUITE_BASE_SEED, 5)
    scenario = Scenario(workload="lublin99", jobs=400, machine_size=128, load=0.7)
    return BenchmarkSuite(
        name="std-gang",
        description=(
            "Gang time-slicing at multiprogramming levels 2 and 4 on the "
            "Lublin-Feitelson workload at load 0.7."
        ),
        cases=tuple(
            _roster("lublin99@0.70", scenario, ("gang:slots=2", "gang:slots=4"), seeds)
        ),
    )


@register_suite("std-grid")
def _std_grid_suite() -> BenchmarkSuite:
    seeds = derive_seeds(SUITE_BASE_SEED, 5)
    scenario = Scenario(workload="lublin99", jobs=150, machine_size=64)
    policies = (
        "grid:meta=least-loaded,sites=2,meta_jobs=40",
        "grid:meta=earliest-start,sites=2,meta_jobs=40",
        "grid:meta=earliest-start,sites=2,meta_jobs=40,reservations=true",
    )
    return BenchmarkSuite(
        name="std-grid",
        description=(
            "Two-site metacomputing: both meta-schedulers, with and without "
            "advance reservations for co-allocation."
        ),
        cases=tuple(_roster("grid-2site", scenario, policies, seeds)),
    )


@register_suite("std-outage")
def _std_outage_suite() -> BenchmarkSuite:
    seeds = derive_seeds(SUITE_BASE_SEED, 5)
    scenario = Scenario(workload="lublin99", jobs=500, machine_size=128, load=0.7)
    outages = {"mtbf_days": 2.0, "horizon_days": 30.0}
    return BenchmarkSuite(
        name="std-outage",
        description=(
            "EASY, outage-blind versus outage-aware, under generated failures "
            "(MTBF 2 days) on the Lublin-Feitelson workload at load 0.7."
        ),
        cases=tuple(
            _roster(
                "lublin99@0.70+outages",
                scenario,
                ("easy", "easy:outage_aware=true"),
                seeds,
                outages=outages,
            )
        ),
    )


@register_suite("std-trace-smoke")
def _std_trace_smoke_suite() -> BenchmarkSuite:
    seeds = derive_seeds(SUITE_BASE_SEED, 3)
    scenario = Scenario(workload="trace:ctc-sp2,jobs=120,load=0.8", jobs=120)
    return BenchmarkSuite(
        name="std-trace-smoke",
        description=(
            "A 120-job CTC SP2 catalog trace rescaled to load 0.8, through "
            "FCFS and EASY; exercises the trace cache end-to-end in seconds."
        ),
        cases=tuple(_roster("trace:ctc-sp2@0.80", scenario, ("fcfs", "easy"), seeds)),
    )


@register_suite("std-trace-ctc")
def _std_trace_ctc_suite() -> BenchmarkSuite:
    seeds = derive_seeds(SUITE_BASE_SEED, 3)
    policies = ("fcfs", "easy", "conservative", "sjf")
    cases: List[BenchmarkCase] = []
    for load in (0.7, 0.9):
        scenario = Scenario(workload=f"trace:ctc-sp2,jobs=500,load={load}", jobs=500)
        cases.extend(_roster(f"trace:ctc-sp2@{load:.2f}", scenario, policies, seeds))
    return BenchmarkSuite(
        name="std-trace-ctc",
        description=(
            "The CTC SP2 catalog trace rescaled to moderate and heavy load "
            "(the paper's load-variation methodology) through the "
            "space-sharing roster; store entries are keyed by trace digest."
        ),
        cases=tuple(cases),
    )


@register_suite("std-trace-archives")
def _std_trace_archives_suite() -> BenchmarkSuite:
    from repro.data.archives import ARCHIVES

    seeds = derive_seeds(SUITE_BASE_SEED, 3)
    cases: List[BenchmarkCase] = []
    for key in sorted(ARCHIVES):
        scenario = Scenario(workload=f"trace:{key},jobs=300", jobs=300)
        cases.extend(_roster(f"trace:{key}", scenario, ("fcfs", "easy"), seeds))
    return BenchmarkSuite(
        name="std-trace-archives",
        description=(
            "All four synthetic archive catalog traces at their native "
            "offered loads, FCFS versus EASY backfilling."
        ),
        cases=tuple(cases),
    )


@register_suite("std-scale")
def _std_scale_suite() -> BenchmarkSuite:
    seeds = derive_seeds(SUITE_BASE_SEED, 1)
    scenario = Scenario(
        workload="trace:uniform,jobs=100000,load=0.75,machine_size=256",
        jobs=100000,
    )
    return BenchmarkSuite(
        name="std-scale",
        description=(
            "A 100k-job uniform catalog trace rescaled to load 0.75 through "
            "FCFS, EASY, and conservative backfilling — the perf-trajectory "
            "suite whose timings are committed as BENCH_std_scale.json."
        ),
        cases=tuple(
            _roster(
                "trace:uniform-100k@0.75",
                scenario,
                ("fcfs", "easy", "conservative"),
                seeds,
            )
        ),
    )


@register_suite("std-scale-smoke")
def _std_scale_smoke_suite() -> BenchmarkSuite:
    seeds = derive_seeds(SUITE_BASE_SEED, 1)
    scenario = Scenario(
        workload="trace:uniform,jobs=20000,load=0.75,machine_size=256",
        jobs=20000,
    )
    return BenchmarkSuite(
        name="std-scale-smoke",
        description=(
            "The std-scale roster trimmed to 20k jobs so CI can gate the "
            "scheduling-core perf trajectory in about a minute."
        ),
        cases=tuple(
            _roster(
                "trace:uniform-20k@0.75",
                scenario,
                ("fcfs", "easy", "conservative"),
                seeds,
            )
        ),
    )


@register_suite("std-feedback")
def _std_feedback_suite() -> BenchmarkSuite:
    seeds = derive_seeds(SUITE_BASE_SEED, 5)
    open_scenario = Scenario(
        workload="sessions:users=40", jobs=500, machine_size=128, load=0.9
    )
    closed_scenario = open_scenario.with_(honor_dependencies=True)
    cases = _roster("sessions-open@0.90", open_scenario, ("fcfs", "easy"), seeds)
    cases += _roster("sessions-closed@0.90", closed_scenario, ("fcfs", "easy"), seeds)
    return BenchmarkSuite(
        name="std-feedback",
        description=(
            "Session-structured workload replayed open (absolute submit times) "
            "and closed (think-time feedback) through FCFS and EASY."
        ),
        cases=tuple(cases),
    )
