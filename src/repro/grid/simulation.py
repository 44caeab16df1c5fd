"""Event-driven simulation of a metasystem: sites, meta-scheduler, reservations.

This is the evaluation environment Sections 3 and 4 of the paper call for:
several sites, each with its own machine scheduler and local workload, plus a
meta-scheduler that places meta jobs (single-site or co-allocated) using the
information the sites expose.  The paper's proposed simplifications are
followed directly:

* local schedulers are evaluated with "a synthetic workload of reservation
  requests" layered on their local stream;
* the meta-scheduler is evaluated against "simple models of local schedulers"
  — here, the sites' actual queues and availability profiles;
* co-allocation is supported either *without* reservations (components are
  queued independently and the job starts when the last one does, wasting
  cycles on the components that started earlier) or *with* advance
  reservations (the meta-scheduler negotiates a common start time from each
  site's guaranteed-availability profile, and the sites drain around the
  reserved window).

Each site runs the space-sharing driver's own pass
(:class:`~repro.evaluation.simulator.SpaceSharedMachine`) with a standard
policy from :mod:`repro.schedulers`: the same queue upkeep, selection
checks and start bookkeeping as :func:`~repro.evaluation.simulator.simulate`.
This module adds only meta-job placement, reservation claims and
co-allocation.  Reservation awareness reuses the capacity hook that
outage-aware policies use (a reservation is, to the local scheduler,
indistinguishable from an announced outage of the reserved processors): a
reservation is reserved on the site's calendar when it is negotiated and
released when it is claimed, just as the driver keeps its announced
outages.  The calendar is the only record of a reservation: the
meta-scheduler reads it as ``SiteView.calendar``, and a claim releases the
window its meta job's ``planned_start`` and ``estimate`` span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.swf.records import SWFJob
from repro.evaluation.results import JobResult, SimulationResult
from repro.evaluation.simulator import SpaceSharedMachine
from repro.grid.metaschedulers import MetaScheduler, SiteView
from repro.grid.prediction import WaitPredictor
from repro.grid.site import MetaComponent, MetaJob, Site
from repro.machine.cluster import Machine
from repro.schedulers.base import JobRequest, usable_requests
from repro.simulation.engine import Simulator

__all__ = ["MetaJobResult", "GridResult", "GridSimulation"]

_PRIORITY_COMPLETION = 0
_PRIORITY_CLAIM = 1
_PRIORITY_ARRIVAL = 2

#: Offset added to meta-job ids so their synthetic SWF numbers never collide
#: with local job numbers inside a site's queue.
_META_ID_BASE = 10_000_000


@dataclass(frozen=True)
class MetaJobResult:
    """Outcome of one meta job."""

    job: MetaJob
    sites: Tuple[str, ...]
    submit_time: float
    start_time: float
    end_time: float
    used_reservation: bool
    planned_start: Optional[float]
    wasted_node_seconds: float

    @property
    def wait_time(self) -> float:
        return self.start_time - self.submit_time

    @property
    def reservation_late(self) -> bool:
        """True if a reserved job could not start at its negotiated time."""
        return self.planned_start is not None and self.start_time > self.planned_start + 1e-6


@dataclass
class GridResult:
    """Everything one grid simulation run produced."""

    meta_scheduler: str
    use_reservations: bool
    site_results: Dict[str, SimulationResult]
    meta_results: List[MetaJobResult]
    rejected_meta_jobs: List[int]
    #: meta jobs whose components never all started (the co-allocation
    #: deadlock/starvation risk that motivates advance reservations)
    unfinished_meta_jobs: List[int]
    prediction_pairs: Dict[str, List[Tuple[float, float]]]

    def coallocation_results(self) -> List[MetaJobResult]:
        return [r for r in self.meta_results if r.job.is_coallocation]

    def mean_meta_wait(self) -> float:
        if not self.meta_results:
            return 0.0
        return sum(r.wait_time for r in self.meta_results) / len(self.meta_results)

    def total_wasted_node_seconds(self) -> float:
        return sum(r.wasted_node_seconds for r in self.meta_results)

    def late_reservation_fraction(self) -> float:
        reserved = [r for r in self.meta_results if r.used_reservation]
        if not reserved:
            return 0.0
        return sum(1 for r in reserved if r.reservation_late) / len(reserved)


# ----------------------------------------------------------------------
# internal bookkeeping
# ----------------------------------------------------------------------
@dataclass
class _MetaState:
    job: MetaJob
    mapping: Dict[str, MetaComponent]
    submit_time: float
    planned_start: Optional[float]
    use_reservation: bool
    component_starts: Dict[str, float] = field(default_factory=dict)
    started: bool = False
    predictions: Dict[str, float] = field(default_factory=dict)
    predicted_site: Optional[str] = None


class _SiteState:
    """Mutable per-site simulation state."""

    def __init__(self, site: Site, sim: Simulator) -> None:
        self.site = site
        self.space = SpaceSharedMachine(
            Machine(size=site.machine_size), site.scheduler, sim
        )
        self.local_results: List[JobResult] = []
        self.local_submit: Dict[int, float] = {}
        #: local jobs no processor count fits on this site
        self.skipped_too_large = 0

    def view(self, now: float) -> SiteView:
        space = self.space
        return SiteView(
            name=self.site.name,
            total_processors=self.site.machine_size,
            free_processors=space.machine.free_count(),
            speed=self.site.speed,
            now=now,
            queued=space.queue,
            running=list(space.running.values()),
            calendar=space.calendar,
        )


class GridSimulation:
    """Simulate local + meta workloads over several sites."""

    def __init__(
        self,
        sites: Sequence[Site],
        meta_jobs: Sequence[MetaJob],
        meta_scheduler: MetaScheduler,
        use_reservations: bool = False,
        negotiation_slack: float = 60.0,
        predictors: Optional[Dict[str, Callable[[], WaitPredictor]]] = None,
    ) -> None:
        if not sites:
            raise ValueError("at least one site is required")
        names = [s.name for s in sites]
        if len(set(names)) != len(names):
            raise ValueError("site names must be unique")
        self.sim = Simulator()
        self.sites = {s.name: _SiteState(s, self.sim) for s in sites}
        self.meta_jobs = sorted(meta_jobs, key=lambda j: (j.submit_time, j.job_id))
        self.meta_scheduler = meta_scheduler
        self.use_reservations = use_reservations
        self.negotiation_slack = negotiation_slack
        self._meta_states: Dict[int, _MetaState] = {}
        self._meta_results: List[MetaJobResult] = []
        self._rejected: List[int] = []
        #: predictor-name -> site-name -> instance; scored on single-site meta jobs
        predictor_factories = predictors or {}
        self._predictors: Dict[str, Dict[str, WaitPredictor]] = {
            pname: {sname: factory() for sname in self.sites}
            for pname, factory in predictor_factories.items()
        }
        self._prediction_pairs: Dict[str, List[Tuple[float, float]]] = {
            pname: [] for pname in self._predictors
        }

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _seed_events(self) -> None:
        # One stream: each site's local arrivals, then the meta arrivals
        # (site ``None``), in a stable sort by time.
        arrivals = []
        for state in self.sites.values():
            workload = state.site.local_workload
            if workload is not None:
                name = state.site.name
                requests, state.skipped_too_large = usable_requests(
                    workload, state.site.machine_size
                )
                arrivals.extend((r.submit_time, (name, r)) for r in requests)
        arrivals.extend((job.submit_time, (None, job)) for job in self.meta_jobs)
        arrivals.sort(key=itemgetter(0))
        self.sim.stream(arrivals, self._on_arrival, priority=_PRIORITY_ARRIVAL)

    def _on_arrival(self, arrival: Tuple[Optional[str], object]) -> None:
        site_name, job = arrival
        if site_name is None:
            self._on_meta_arrival(job)
        else:
            self._on_local_arrival(site_name, job)

    # ------------------------------------------------------------------
    # local jobs
    # ------------------------------------------------------------------
    def _on_local_arrival(self, site_name: str, request: JobRequest) -> None:
        state = self.sites[site_name]
        state.space.submit(request)
        state.local_submit[request.job_id] = self.sim.now
        self._schedule_pass(site_name)

    def _on_local_completion(self, site_name: str, job_id: int) -> None:
        state = self.sites[site_name]
        running = state.space.end(job_id)
        if running is None:
            return
        request = running.request
        state.local_results.append(
            JobResult(
                request.job, state.local_submit[job_id], running.start_time, self.sim.now,
                request.processors, False, 0, site_name,
            )
        )
        self._schedule_pass(site_name)

    # ------------------------------------------------------------------
    # meta jobs
    # ------------------------------------------------------------------
    def _meta_request(self, job: MetaJob, component: MetaComponent, site: Site) -> JobRequest:
        """Synthesize the JobRequest a site sees for one meta component."""
        runtime = max(1, int(round(job.runtime / site.speed)))
        swf = SWFJob(
            job_number=_META_ID_BASE + job.job_id,
            submit_time=job.submit_time,
            run_time=runtime,
            allocated_processors=component.processors,
            requested_processors=component.processors,
            requested_time=max(job.estimate, runtime),
        )
        return JobRequest(
            job=swf,
            job_id=swf.job_number,
            processors=component.processors,
            runtime=runtime,
            estimate=max(job.estimate, runtime),
            submit_time=int(self.sim.now),
        )

    def _on_meta_arrival(self, job: MetaJob) -> None:
        views = [state.view(self.sim.now) for state in self.sites.values()]
        try:
            if job.is_coallocation:
                mapping, planned_start = self.meta_scheduler.plan_coallocation(
                    job, views, self.use_reservations, self.negotiation_slack
                )
            else:
                site_name = self.meta_scheduler.choose_site(job, views)
                mapping, planned_start = {site_name: job.components[0]}, None
        except ValueError:
            self._rejected.append(job.job_id)
            return

        meta_state = _MetaState(
            job=job,
            mapping=mapping,
            submit_time=self.sim.now,
            planned_start=planned_start,
            use_reservation=self.use_reservations and job.is_coallocation,
        )
        self._meta_states[job.job_id] = meta_state

        # Score the wait predictors on single-site meta jobs.
        if not job.is_coallocation and self._predictors:
            site_name = next(iter(mapping))
            view = next(v for v in views if v.name == site_name)
            component = job.components[0]
            meta_state.predicted_site = site_name
            for pname, per_site in self._predictors.items():
                predictor = per_site[site_name]
                meta_state.predictions[pname] = predictor.predict_wait(
                    component.processors, job.estimate, view
                )

        if meta_state.use_reservation and planned_start is not None:
            end = planned_start + job.estimate
            for site_name, component in mapping.items():
                state = self.sites[site_name]
                state.space.calendar.reserve(planned_start, end, component.processors)
                self._schedule_pass(site_name)
            self.sim.schedule_at(
                planned_start,
                self._on_reservation_claim,
                job.job_id,
                priority=_PRIORITY_CLAIM,
            )
        else:
            for site_name, component in mapping.items():
                state = self.sites[site_name]
                state.space.submit(self._meta_request(job, component, state.site))
                self._schedule_pass(site_name)

    def _on_reservation_claim(self, meta_id: int) -> None:
        """At the negotiated start time, convert reservations into queued components."""
        meta_state = self._meta_states[meta_id]
        start = meta_state.planned_start
        end = start + meta_state.job.estimate
        for site_name, component in meta_state.mapping.items():
            state = self.sites[site_name]
            state.space.calendar.release(start, end, component.processors)
            # Reservation-backed components go to the head of the queue: the
            # site already drained capacity for them.
            state.space.submit(self._meta_request(meta_state.job, component, state.site), front=True)
            self._schedule_pass(site_name)

    def _component_started(self, site_name: str, meta_id: int) -> None:
        meta_state = self._meta_states[meta_id]
        meta_state.component_starts[site_name] = self.sim.now
        if len(meta_state.component_starts) < len(meta_state.mapping):
            return
        # All components are running: the meta job begins useful work now.
        meta_state.started = True
        slowest_speed = min(self.sites[s].site.speed for s in meta_state.mapping)
        runtime = max(1, int(round(meta_state.job.runtime / slowest_speed)))
        self.sim.schedule(
            runtime,
            self._on_meta_completion,
            meta_id,
            priority=_PRIORITY_COMPLETION,
        )

    def _on_meta_completion(self, meta_id: int) -> None:
        meta_state = self._meta_states[meta_id]
        start = max(meta_state.component_starts.values())
        wasted = 0.0
        for site_name, component in meta_state.mapping.items():
            self.sites[site_name].space.end(_META_ID_BASE + meta_id)
            component_start = meta_state.component_starts[site_name]
            wasted += component.processors * max(0.0, start - component_start)

        self._meta_results.append(
            MetaJobResult(
                job=meta_state.job,
                sites=tuple(sorted(meta_state.mapping)),
                submit_time=meta_state.submit_time,
                start_time=start,
                end_time=self.sim.now,
                used_reservation=meta_state.use_reservation,
                planned_start=meta_state.planned_start,
                wasted_node_seconds=wasted,
            )
        )

        # Feed the observed wait back to the predictors being scored.
        if not meta_state.job.is_coallocation and meta_state.predictions:
            actual_wait = start - meta_state.submit_time
            site_name = meta_state.predicted_site
            component = meta_state.job.components[0]
            for pname, predicted in meta_state.predictions.items():
                self._prediction_pairs[pname].append((predicted, actual_wait))
                self._predictors[pname][site_name].observe(
                    component.processors, meta_state.job.estimate, actual_wait
                )

        for site_name in meta_state.mapping:
            self._schedule_pass(site_name)

    # ------------------------------------------------------------------
    # per-site scheduling
    # ------------------------------------------------------------------
    def _schedule_pass(self, site_name: str) -> None:
        space = self.sites[site_name].space
        space.calendar.advance(self.sim.now)
        for running in space.schedule_pass():
            job_id = running.request.job_id
            if job_id >= _META_ID_BASE:
                # Meta completions are driven by _component_started.
                self._component_started(site_name, job_id - _META_ID_BASE)
            else:
                self.sim.schedule_at(
                    running.start_time + running.request.runtime,
                    self._on_local_completion,
                    site_name,
                    job_id,
                    priority=_PRIORITY_COMPLETION,
                )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self) -> GridResult:
        """Run the grid simulation to completion."""
        self._seed_events()
        self.sim.run()
        site_results = {}
        for name, state in self.sites.items():
            site_results[name] = SimulationResult(
                scheduler_name=f"{state.site.scheduler.name}@{name}",
                machine_size=state.site.machine_size,
                jobs=sorted(state.local_results, key=lambda j: j.job_id),
                metadata={"site": name, "skipped_too_large": state.skipped_too_large},
                counters=dict(sorted(state.space.counters().items())),
                # queued meta components are in unfinished_meta_jobs
                unfinished=sorted(
                    r.job_id for r in state.space.queue if r.job_id < _META_ID_BASE
                ),
            )
        finished = {r.job.job_id for r in self._meta_results}
        unfinished = [
            meta_id for meta_id in self._meta_states if meta_id not in finished
        ]
        return GridResult(
            meta_scheduler=self.meta_scheduler.name,
            use_reservations=self.use_reservations,
            site_results=site_results,
            meta_results=sorted(self._meta_results, key=lambda r: r.job.job_id),
            rejected_meta_jobs=sorted(self._rejected),
            unfinished_meta_jobs=sorted(unfinished),
            prediction_pairs=self._prediction_pairs,
        )
