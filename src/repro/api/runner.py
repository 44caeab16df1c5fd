"""One ``run()`` entrypoint for every simulator, and ``run_many()`` for sweeps.

:func:`run` takes a :class:`~repro.api.scenario.Scenario`, materializes its
workload, builds its policy from the spec string, and dispatches to the right
simulator based on the policy class's declared ``mode``:

* ``"space"`` — the event-driven space-sharing driver
  (:func:`repro.evaluation.simulator.simulate`), covering FCFS, the priority
  family, backfilling, and moldable policies;
* ``"gang"``  — the fluid Ousterhout-matrix gang simulator
  (:func:`repro.schedulers.gang.simulate_gang`);
* ``"grid"``  — the multi-site metacomputing simulator
  (:class:`repro.grid.simulation.GridSimulation`), with the scenario workload
  replicated (re-seeded) per site and a synthetic meta-job stream layered on
  top.

Every mode produces a :class:`ScenarioResult` carrying the per-job
:class:`~repro.evaluation.results.SimulationResult` and the standard
:class:`~repro.metrics.basic.MetricsReport`, so sweeps, experiments, and the
CLI tabulate all simulators uniformly.

:func:`run_many` fans a list of scenarios out over ``multiprocessing``
workers; runs are independent and seeded, so parallel results match serial
results job-for-job.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.api.registry import (
    UnknownNameError,
    parse_spec,
    register_scheduler,
    scheduler_registry,
)
from repro.api.scenario import Scenario
from repro.bench.seeds import derive_seeds
from repro.core.outage.log import OutageLog, parse_outage_log
from repro.core.swf.parser import parse_swf
from repro.core.swf.workload import Workload
from repro.evaluation.results import SimulationResult
from repro.evaluation.simulator import simulate
from repro.metrics.basic import MetricsReport, compute_metrics
from repro.obs.trace import (
    Tracer,
    current_span_id,
    current_tracer,
    trace_scope,
    trace_span,
)
from repro.schedulers.base import Scheduler
from repro.schedulers.gang import simulate_gang
from repro.util import looks_like_swf_path as _looks_like_path

__all__ = [
    "ScenarioResult",
    "GridPolicy",
    "run",
    "run_many",
    "resolve_workload",
    "resolve_workload_shared",
]

#: Offset added to the scenario seed for the grid meta-job stream, so local
#: workloads and the meta stream never share a seed.
_META_SEED_OFFSET = 1000


@dataclass
class ScenarioResult:
    """What one scenario produced: per-job results plus the standard metrics."""

    scenario: Scenario
    result: SimulationResult
    report: MetricsReport
    #: full :class:`repro.grid.simulation.GridResult` for grid-mode policies
    grid: Optional[Any] = None
    #: wall-clock phase breakdown of this run (``materialize_seconds``,
    #: ``simulate_seconds``, ``metrics_seconds``).  Non-deterministic by
    #: nature, so it rides here — never inside :attr:`report`, whose content
    #: feeds the content-addressed result store.
    timings: Dict[str, float] = field(default_factory=dict)
    #: serialized trace spans recorded by a ``run_many`` worker process,
    #: present only when the parent had an active tracer; the parent grafts
    #: these into its own timeline and drops the copy.
    trace_spans: Optional[List[Dict[str, Any]]] = None

    @property
    def scheduler(self) -> str:
        return self.result.scheduler_name

    def row(self) -> Dict[str, Any]:
        """One flat table row (scenario label + the standard metric columns)."""
        return {"scenario": self.scenario.label, **self.report.as_dict()}


# ----------------------------------------------------------------------
# grid-mode policy
# ----------------------------------------------------------------------
@register_scheduler("grid")
class GridPolicy:
    """Metacomputing configuration constructible from a spec string.

    ``"grid:meta=earliest-start,sites=4,reservations=true,local=easy"``
    replays the scenario workload as each site's local stream (re-seeded per
    site when the workload is a model) and layers a synthetic meta-job stream
    on top.  The three standard queue-wait predictors are always scored.
    """

    mode = "grid"

    def __init__(
        self,
        meta: str = "earliest-start",
        sites: int = 4,
        reservations: bool = False,
        local: str = "easy",
        meta_jobs: int = 120,
        coallocation_fraction: float = 0.3,
        speed_step: float = 0.1,
        negotiation_slack: float = 60.0,
    ) -> None:
        if sites < 1:
            raise ValueError("sites must be >= 1")
        self.meta = meta
        self.sites = sites
        self.reservations = bool(reservations)
        self.local = local
        self.meta_jobs = meta_jobs
        self.coallocation_fraction = coallocation_fraction
        self.speed_step = speed_step
        self.negotiation_slack = negotiation_slack

    @property
    def name(self) -> str:
        suffix = "reservations" if self.reservations else "no-reservations"
        return f"grid:{self.meta}/{suffix}"


# ----------------------------------------------------------------------
# workload materialization
# ----------------------------------------------------------------------


def resolve_workload(scenario: Scenario, seed: Optional[int] = None) -> Workload:
    """Materialize the scenario's workload spec, including its load scaling.

    ``seed`` overrides the scenario seed (used by the grid runner to re-seed
    per site); a ``seed=`` kwarg inside the workload spec wins over both.
    """
    return _scale_to_load(
        _resolve_spec(scenario, seed), scenario.load, scenario.machine_size
    )


def _resolve_spec(scenario: Scenario, seed: Optional[int] = None) -> Workload:
    """Materialize the workload spec itself (without load scaling)."""
    spec = scenario.workload
    if spec.startswith("trace:"):
        # Catalog traces materialize through the content-addressed trace
        # cache: the digest pins source and pipeline, so repeated runs (and
        # run_many workers) parse one canonical SWF file instead of
        # regenerating, and are bit-for-bit identical either way.
        from repro.traces import trace_for_scenario

        return trace_for_scenario(scenario, seed=seed).materialize()
    if spec.startswith("swf:"):
        return parse_swf(spec[len("swf:"):])
    if _looks_like_path(spec):
        return parse_swf(spec)

    name, kwargs = parse_spec(spec)
    jobs = kwargs.pop("jobs", scenario.jobs)
    gen_seed = kwargs.pop("seed", seed if seed is not None else scenario.seed)

    from repro.data.archives import ARCHIVES, synthetic_archive

    if name in ARCHIVES:
        if kwargs:
            raise ValueError(
                f"archive workload {name!r} accepts only jobs/seed, "
                f"got {sorted(kwargs)}"
            )
        return synthetic_archive(name, jobs=jobs, seed=gen_seed)

    try:
        from repro.api.registry import model_registry

        factory = model_registry.get(name)
    except UnknownNameError as exc:
        # Re-raise with archives folded into the known-name set.
        raise UnknownNameError(
            "workload", name, list(model_registry.names()) + sorted(ARCHIVES)
        ) from exc
    if scenario.machine_size is not None:
        kwargs.setdefault("machine_size", scenario.machine_size)
    model = factory(**kwargs)
    return model.generate(jobs, seed=gen_seed)


def _scale_to_load(
    workload: Workload, load: Optional[float], machine_size: Optional[int]
) -> Workload:
    if load is None:
        return workload
    base = workload.offered_load(machine_size)
    if base <= 0:
        raise ValueError("the workload has no measurable offered load to rescale")
    return workload.scale_load(load / base, name=f"{workload.name}@{load:.2f}")


#: Process-wide memo of *unscaled* materialized workloads, keyed by every
#: input ``_resolve_spec`` reads.  For ``trace:`` specs the spec pins the
#: content digest, so this is effectively per-digest: a worker process
#: draining many units over one trace parses the canonical SWF once and
#: shares the Workload object across runs (safe — ``run()`` only rescales
#: through ``scale_load``, which copies).
_SHARED_WORKLOADS: Dict[tuple, Workload] = {}

#: Memo capacity, in jobs held across all entries (two 100k-job traces).  A
#: long-lived process (the serve daemon, a worker draining a mixed queue)
#: must not accumulate every workload it ever touched, but a count of
#: entries would be cycled by a suite of many small workloads walked case
#: by case.  Eviction is FIFO; the newest entry is always kept.
_SHARED_WORKLOADS_MAX_JOBS = 200_000


def resolve_workload_shared(scenario: Scenario) -> Workload:
    """Memoized unscaled materialization, shared across runs in this process.

    Returns the workload resolved with ``load=None``, suitable as a
    ``run()``/``run_many()`` override: ``run()`` then applies the scenario's
    load scaling exactly as it would from the spec, so results are
    bit-identical to an unshared materialization.  The suite runner and the
    distributed worker both draw from this memo, so replications differing
    only in policy (or in load) never re-parse their workload.
    """
    key = (scenario.workload, scenario.jobs, scenario.machine_size, scenario.seed)
    workload = _SHARED_WORKLOADS.get(key)
    if workload is None:
        workload = resolve_workload(scenario.with_(load=None))
        _SHARED_WORKLOADS[key] = workload
        held = sum(len(w) for w in _SHARED_WORKLOADS.values())
        while held > _SHARED_WORKLOADS_MAX_JOBS and len(_SHARED_WORKLOADS) > 1:
            held -= len(_SHARED_WORKLOADS.pop(next(iter(_SHARED_WORKLOADS))))
    return workload


def _materialize(
    scenario: Scenario,
    override: Optional[Workload],
    seed: Optional[int] = None,
) -> Workload:
    if override is not None:
        return _scale_to_load(override, scenario.load, scenario.machine_size)
    return resolve_workload(scenario, seed=seed)


def _resolve_outages(
    scenario: Scenario, override: Optional[OutageLog]
) -> Optional[OutageLog]:
    if override is not None:
        return override
    if scenario.outages is None:
        return None
    return parse_outage_log(scenario.outages)


# ----------------------------------------------------------------------
# the entrypoint
# ----------------------------------------------------------------------
def run(
    scenario: Scenario,
    *,
    workload: Optional[Workload] = None,
    policy: Optional[Any] = None,
    outages: Optional[OutageLog] = None,
) -> ScenarioResult:
    """Run one scenario to completion and return its results.

    The keyword overrides are the escape hatch for objects that cannot be
    expressed as spec strings: an already-materialized :class:`Workload`
    (sweeps resolve once and reuse it across policies), a policy instance
    carrying non-serializable state (e.g. a moldable-job table), or an
    in-memory :class:`OutageLog`.  Overridden runs execute identically but
    lose the scenario's from-spec reproducibility.
    """
    with trace_span(
        "run.scenario", scenario=scenario.label, policy=scenario.policy
    ):
        if policy is None:
            name, _ = parse_spec(scenario.policy)
            factory = scheduler_registry.get(name)
            mode = getattr(factory, "mode", "space")
            policy = scheduler_registry.create(scenario.policy)
        else:
            mode = getattr(policy, "mode", "space")

        if mode != "space":
            # Outage replay and closed-feedback replay are features of the
            # space-sharing driver only; dropping them silently would let a
            # user believe a gang/grid run honoured conditions it never saw.
            unsupported = []
            if scenario.outages is not None or outages is not None:
                unsupported.append("outages")
            if scenario.honor_dependencies:
                unsupported.append("honor_dependencies")
            if unsupported:
                raise ValueError(
                    f"policy {scenario.policy!r} runs on the {mode!r} simulator, "
                    f"which does not support: {', '.join(unsupported)}"
                )

        if mode == "grid":
            return _run_grid(scenario, policy, workload)

        timings: Dict[str, float] = {}
        phase_started = time.perf_counter()
        with trace_span("run.materialize", workload=scenario.workload):
            materialized = _materialize(scenario, workload)
        timings["materialize_seconds"] = time.perf_counter() - phase_started
        phase_started = time.perf_counter()
        with trace_span("run.simulate", mode=mode):
            if mode == "gang":
                result = simulate_gang(
                    materialized,
                    machine_size=scenario.machine_size,
                    max_slots=policy.slots,
                    context_switch_overhead=policy.overhead,
                )
            elif mode == "space":
                if not isinstance(policy, Scheduler):
                    raise TypeError(
                        f"policy {scenario.policy!r} resolved to {policy!r}, "
                        "which is not a space-sharing Scheduler"
                    )
                result = simulate(
                    materialized,
                    policy,
                    machine_size=scenario.machine_size,
                    outages=_resolve_outages(scenario, outages),
                    honor_dependencies=scenario.honor_dependencies,
                    restart_failed_jobs=scenario.restart_failed_jobs,
                    max_restarts=scenario.max_restarts,
                )
            else:
                raise ValueError(
                    f"policy {scenario.policy!r} declares unknown mode {mode!r}"
                )
        timings["simulate_seconds"] = time.perf_counter() - phase_started

        phase_started = time.perf_counter()
        with trace_span("run.metrics"):
            report = compute_metrics(result, tau=scenario.tau)
        timings["metrics_seconds"] = time.perf_counter() - phase_started
        return ScenarioResult(
            scenario=scenario,
            result=result,
            report=report,
            timings=timings,
        )


def _run_grid(
    scenario: Scenario, policy: GridPolicy, workload: Optional[Workload]
) -> ScenarioResult:
    """Dispatch a grid-mode scenario to the multi-site simulator."""
    from repro.grid.metaschedulers import (
        EarliestStartMetaScheduler,
        LeastLoadedMetaScheduler,
    )
    from repro.grid.prediction import (
        CategoryMeanPredictor,
        MeanWaitPredictor,
        ProfilePredictor,
    )
    from repro.grid.simulation import GridSimulation
    from repro.grid.site import Site
    from repro.grid.workload import generate_meta_jobs

    timings: Dict[str, float] = {}
    phase_started = time.perf_counter()
    meta_classes = {
        "least-loaded": LeastLoadedMetaScheduler,
        "earliest-start": EarliestStartMetaScheduler,
    }
    try:
        meta_scheduler = meta_classes[policy.meta]()
    except KeyError:
        raise UnknownNameError("meta-scheduler", policy.meta, list(meta_classes)) from None

    base_seed = scenario.seed if scenario.seed is not None else 0
    site_seeds = derive_seeds(base_seed, policy.sites)
    sites = []
    for i in range(policy.sites):
        # Each site gets its own local stream: re-seed the model per site, or
        # replay the same trace everywhere when the workload is materialized.
        local = _materialize(
            scenario, workload, seed=None if workload is not None else site_seeds[i]
        )
        machine_size = scenario.machine_size or local.header.max_nodes or local.max_processors()
        sites.append(
            Site(
                name=f"site-{i + 1}",
                machine_size=int(machine_size),
                scheduler=scheduler_registry.create(policy.local, outage_aware=True),
                local_workload=local,
                speed=1.0 + policy.speed_step * i,
            )
        )
    machine_size = sites[0].machine_size
    meta_stream = generate_meta_jobs(
        policy.meta_jobs,
        coallocation_fraction=policy.coallocation_fraction,
        max_components=min(3, policy.sites),
        max_component_processors=max(1, machine_size // 2),
        seed=base_seed + _META_SEED_OFFSET,
    )
    simulation = GridSimulation(
        sites,
        meta_stream,
        meta_scheduler,
        use_reservations=policy.reservations,
        negotiation_slack=policy.negotiation_slack,
        predictors={
            "mean-wait": MeanWaitPredictor,
            "category-mean": CategoryMeanPredictor,
            "profile": ProfilePredictor,
        },
    )
    timings["materialize_seconds"] = time.perf_counter() - phase_started
    phase_started = time.perf_counter()
    with trace_span("run.simulate", mode="grid"):
        grid_result = simulation.run()
    timings["simulate_seconds"] = time.perf_counter() - phase_started

    merged_jobs = sorted(
        (job for site in grid_result.site_results.values() for job in site.jobs),
        key=lambda j: (j.job_id, j.site or ""),
    )
    result = SimulationResult(
        scheduler_name=policy.name,
        machine_size=sum(s.machine_size for s in sites),
        jobs=merged_jobs,
        metadata={
            "sites": policy.sites,
            "meta_jobs_done": len(grid_result.meta_results),
            "meta_unfinished": len(grid_result.unfinished_meta_jobs),
            "mean_meta_wait": grid_result.mean_meta_wait(),
            "wasted_node_seconds": grid_result.total_wasted_node_seconds(),
        },
    )
    phase_started = time.perf_counter()
    report = compute_metrics(result, tau=scenario.tau)
    timings["metrics_seconds"] = time.perf_counter() - phase_started
    return ScenarioResult(
        scenario=scenario,
        result=result,
        report=report,
        grid=grid_result,
        timings=timings,
    )


# ----------------------------------------------------------------------
# fan-out
# ----------------------------------------------------------------------
def _broadcast(value: Any, count: int, what: str) -> List[Any]:
    if isinstance(value, (list, tuple)):
        if len(value) != count:
            raise ValueError(f"{what} list length {len(value)} != scenarios {count}")
        return list(value)
    return [value] * count


def _run_task(task) -> ScenarioResult:
    scenario, workload, outages, traced = task
    if not traced:
        return run(scenario, workload=workload, outages=outages)
    # Worker processes cannot see the parent's contextvar scope; record into
    # a fresh local tracer and ship the serialized spans home with the
    # result, where run_many grafts them into the parent timeline.
    tracer = Tracer()
    with trace_scope(tracer):
        result = run(scenario, workload=workload, outages=outages)
    result.trace_spans = tracer.serialize()
    return result


def _run_indexed(indexed_task) -> tuple:
    index, task = indexed_task
    return index, _run_task(task)


def _prewarm_traces(tasks) -> None:
    """Materialize every distinct ``trace:`` workload once before forking.

    Without this, a cold trace cache makes every worker process rebuild and
    rewrite the same canonical SWF file (atomic writes keep that *correct*,
    but the build cost multiplies by the worker count).  Warming the cache in
    the parent means workers only ever read.  Scenarios carrying an explicit
    workload override never re-materialize, so they are skipped.
    """
    cache = None
    warmed: set = set()
    for scenario, workload, *_rest in tasks:
        if workload is not None or not scenario.workload.startswith("trace:"):
            continue
        from repro.traces import TraceCache, trace_for_scenario

        trace = trace_for_scenario(scenario)
        if trace is None or trace.digest in warmed:
            continue
        warmed.add(trace.digest)
        if cache is None:
            cache = TraceCache()
        if trace.digest not in cache:
            trace.materialize(cache=cache)


def run_many(
    scenarios: Sequence[Scenario],
    workers: Optional[int] = None,
    *,
    workloads: Union[None, Workload, Sequence[Optional[Workload]]] = None,
    outages: Union[None, OutageLog, Sequence[Optional[OutageLog]]] = None,
    on_result: Optional[Callable[[int, ScenarioResult], None]] = None,
) -> List[ScenarioResult]:
    """Run scenarios serially or across ``workers`` processes, in input order.

    ``workloads``/``outages`` optionally pre-materialize inputs: a single
    object is shared by every scenario, a sequence is matched element-wise.
    Runs are independent and fully seeded, so ``workers=N`` reproduces the
    serial per-job results bit-for-bit.

    ``on_result(index, result)`` is called in the parent process as each
    scenario finishes — in completion order under ``workers=N``, which is
    what incremental progress reporting (the serve daemon, long suites)
    needs.  The returned list is always in input order regardless.
    """
    scenarios = list(scenarios)
    serial = workers is None or workers <= 1 or len(scenarios) == 1
    tracer = current_tracer()
    # Serial runs record straight into the active scope (run() emits spans
    # through the contextvar); only pool workers need the record-and-graft
    # round trip, so the traced flag is set for the parallel path alone.
    traced = tracer is not None and not serial
    tasks = list(
        zip(
            scenarios,
            _broadcast(workloads, len(scenarios), "workloads"),
            _broadcast(outages, len(scenarios), "outages"),
            [traced] * len(scenarios),
        )
    )
    if not tasks:
        return []
    if serial:
        results = []
        for index, task in enumerate(tasks):
            result = _run_task(task)
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results
    _prewarm_traces(tasks)
    graft_parent = current_span_id()
    results_by_index: List[Optional[ScenarioResult]] = [None] * len(tasks)
    with multiprocessing.Pool(processes=min(workers, len(tasks))) as pool:
        for index, result in pool.imap_unordered(
            _run_indexed, list(enumerate(tasks)), chunksize=1
        ):
            if traced and result.trace_spans:
                tracer.graft(result.trace_spans, parent_id=graft_parent)
                result.trace_spans = None
            results_by_index[index] = result
            if on_result is not None:
                on_result(index, result)
    return results_by_index
