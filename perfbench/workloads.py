"""The benchmark's workloads: each is a suite the benchmark builds from a seed.

Every workload runs through ``run_suite`` serially (``workers=1``), so the
same code path serves all three and every layer from the store down to the
engine is on the measured path.  ``prepare`` materializes the inputs (the
set-up the benchmark times) and returns the suite; the seed reaches the
program only through the generated inputs.

Sizes are keyword arguments so tests can run each workload in miniature;
the defaults are what the benchmark measures.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict

from repro.api.runner import resolve_workload
from repro.api.scenario import Scenario
from repro.bench.seeds import derive_seeds
from repro.bench.suite import BenchmarkCase, BenchmarkSuite
from repro.traces import TraceCache, trace_for_scenario

#: The seed whose per-unit digests are pinned in ``pinned.json``.
DEFAULT_SEED = 1
#: Seed of the fixed workloads that ``conservative-outages`` replays.
STANDARD_WORKLOAD_SEED = 1999


def _fcfs_backlog(seed: int, trace_cache: Path, units: int = 12, jobs: int = 1700) -> BenchmarkSuite:
    """Uniform catalog traces at load 0.75 on 256 nodes under FCFS.

    FCFS saturates here: the queue grows to hundreds of jobs, and every one
    of the ~2 scheduling passes per job copies the queue and scans all 256
    nodes.  Many short units rather than a few long ones, so that the unit
    quantiles do not hang on one seed's few traces.
    """
    scenario = Scenario(
        workload=f"trace:uniform,jobs={jobs},load=0.75,machine_size=256",
        jobs=jobs,
        policy="fcfs",
    )
    seeds = derive_seeds(seed, units)
    cache = TraceCache(trace_cache)
    for unit_seed in seeds:
        trace_for_scenario(scenario.with_(seed=unit_seed)).materialize(cache=cache)
    case = BenchmarkCase(context=f"uniform-{jobs}@0.75", scenario=scenario, seeds=tuple(seeds))
    return BenchmarkSuite(name="perfbench-fcfs-backlog", description="fcfs-backlog", cases=(case,))


def _conservative_outages(
    seed: int, trace_cache: Path, units: int = 24, jobs: int = 240
) -> BenchmarkSuite:
    """Lublin99 at load 0.85 on 128 nodes, outage-aware conservative backfilling.

    Each unit carries a generated outage log (MTBF one day) spanning its
    workload, so the free-space profile, the capacity clamp and the
    announced-capacity function do most of the work, and nodes fail and
    recover under running jobs.

    The workloads are fixed (drawn from :data:`STANDARD_WORKLOAD_SEED`) and
    the seed draws their failure histories: with the workloads drawn per
    seed too, one seed's units took 40% longer than another's, which no run
    length of this benchmark averages out.  Many short units rather than a
    few long ones, for the same reason: the seed's outage draws average out.
    """
    cases = []
    workload_seeds = derive_seeds(STANDARD_WORKLOAD_SEED, units)
    for index, (workload_seed, unit_seed) in enumerate(zip(workload_seeds, derive_seeds(seed, units))):
        scenario = Scenario(
            workload=f"lublin99:seed={workload_seed}",
            jobs=jobs,
            machine_size=128,
            load=0.85,
            policy="conservative:outage_aware=true",
        )
        workload = resolve_workload(scenario)
        case = BenchmarkCase(
            context=f"lublin99-{jobs}@0.85+outages-{index}",
            scenario=scenario,
            seeds=(unit_seed,),
            outages={"mtbf_days": 1.0, "horizon_days": (workload.span() + 1) / 86400.0},
        )
        case.outage_log(unit_seed)
        cases.append(case)
    return BenchmarkSuite(
        name="perfbench-conservative-outages", description="conservative-outages", cases=tuple(cases)
    )


def _suite_replications(
    seed: int, trace_cache: Path, seeds: int = 50, jobs: int = 100
) -> BenchmarkSuite:
    """Many short simulations: 2 loads x 4 policies x ``seeds`` seeds.

    Workloads differ only by seed across loads and policies, so the suite
    holds ``seeds`` distinct workloads and ``8 * seeds`` units.
    """
    unit_seeds = derive_seeds(seed, seeds)
    for unit_seed in unit_seeds:
        resolve_workload(Scenario(workload="lublin99", jobs=jobs, machine_size=64, seed=unit_seed))
    cases = tuple(
        BenchmarkCase(
            context=f"lublin99-{jobs}@{load:.1f}",
            scenario=Scenario(
                workload="lublin99", jobs=jobs, machine_size=64, load=load, policy=policy
            ),
            seeds=tuple(unit_seeds),
        )
        for load in (0.6, 0.9)
        for policy in ("fcfs", "easy", "conservative", "sjf")
    )
    return BenchmarkSuite(
        name="perfbench-suite-replications", description="suite-replications", cases=cases
    )


#: ``prepare(seed, trace_cache_dir, **sizes) -> BenchmarkSuite`` per workload;
#: why each was chosen is in ``NOTES.md`` and ``BENCHMARK.json``.
WORKLOADS: Dict[str, Callable[..., BenchmarkSuite]] = {
    "fcfs-backlog": _fcfs_backlog,
    "conservative-outages": _conservative_outages,
    "suite-replications": _suite_replications,
}
