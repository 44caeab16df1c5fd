"""Event-driven simulation of a machine scheduler replaying a workload.

This is the evaluation driver the paper's methodology centres on: take a
workload (an SWF trace or the output of a workload model), a machine, and a
scheduling policy, replay the workload through the policy, and report per-job
outcomes from which the standard metrics are computed.

Features required by the paper's extensions are built in:

* **feedback replay** (``honor_dependencies=True``): jobs carrying the
  preceding-job / think-time fields are submitted relative to the completion
  of their predecessor instead of at their absolute submit time — the closed
  user-session behaviour of Section 2.2;
* **outages** (``outages=OutageLog(...)``): nodes fail and recover according
  to the outage log; jobs running on failed nodes are killed and (optionally)
  restarted, and outage-aware policies see announced outages through the
  state's capacity function — Section 2.2's "Including outage information";
* **user estimates**: policies only ever see requested times, never actual
  runtimes.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter, is_, itemgetter
from typing import Dict, List, Optional, Tuple

from repro.core.outage.log import OutageLog
from repro.core.swf.fields import MISSING
from repro.core.swf.workload import Workload
from repro.evaluation.results import JobResult, SimulationResult
from repro.machine.cluster import Machine
from repro.schedulers.base import JobRequest, RunningJobInfo, Scheduler, SchedulerState, usable_requests
from repro.schedulers.freespace import FreeSpace, FreeSpaceTracker
from repro.simulation.engine import Simulator

__all__ = ["MachineSimulation", "SpaceSharedMachine", "simulate"]

# Event priorities: completions are processed before outage transitions,
# which are processed before arrivals at the same instant, so that freed or
# failed capacity is visible to the scheduling pass triggered by an arrival.
_PRIORITY_COMPLETION = 0
_PRIORITY_OUTAGE = 1
_PRIORITY_ARRIVAL = 2


class SpaceSharedMachine:
    """One space-shared machine's scheduling pass and the state it keeps.

    It owns the wait queue and the running set, both handed to policies
    uncopied: the queue in arrival order, the running set as a dict of
    :class:`~repro.schedulers.base.RunningJobInfo` keyed by job id, with
    its free-space profile (a
    :class:`~repro.schedulers.freespace.FreeSpaceTracker` told of every
    start, completion and kill, so a policy that reads
    ``SchedulerState.profile`` gets it patched rather than rebuilt), and
    the announced-capacity ``calendar``, all of which policies see through
    the machine's one :class:`SchedulerState`, ``state``.  An owner on a
    :class:`Simulator` (a :class:`MachineSimulation`, or one site of a grid
    simulation) submits arrivals, ends jobs, keeps ``calendar`` current,
    calls :meth:`schedule_pass` and schedules the completions of the
    records it returns.  Nothing here refers back to the owner, so a
    finished simulation is freed without the cycle collector.

    The deterministic scheduling counters are plain data kept here:
    ``counts``, which the policy (as ``SchedulerState.counts``) and the
    tracker add to, and three int pass counters; :meth:`counters` reads
    them all once the run is over.
    """

    def __init__(self, machine: Machine, scheduler: Scheduler, sim: Simulator) -> None:
        self.machine = machine
        self.scheduler = scheduler
        self.sim = sim
        self.counts: Counter = Counter()
        self.sched_passes = self.jobs_started = self.max_queue_depth = 0
        self.queue: List[JobRequest] = []
        self.running: Dict[int, RunningJobInfo] = {}
        self.calendar = FreeSpace(machine.size, 0)
        self.tracker = FreeSpaceTracker(machine.size, self.counts)
        self.state = SchedulerState(0.0, machine.size, machine.size, self.queue, self.running.values(),
                                    self.calendar, self.tracker, self.counts)

    def submit(self, request: JobRequest, front: bool = False) -> None:
        """Queue ``request`` at the tail, or at the head with ``front``."""
        if front:
            self.queue.insert(0, request)
        else:
            self.queue.append(request)

    def end(self, job_id: int) -> Optional[RunningJobInfo]:
        """Take ``job_id`` off the machine; ``None`` if it is not running."""
        running = self.running.pop(job_id, None)
        if running is not None:
            self.machine.release(job_id)
            self.tracker.end(running.request.processors, running.expected_end)
        return running

    def counters(self) -> Dict[str, int]:
        """Every scheduling counter, by name; a counter never touched stays absent."""
        counters = dict(self.counts)
        if self.sched_passes:
            counters["sched_passes"] = self.sched_passes
            counters["max_queue_depth"] = self.max_queue_depth
        if self.jobs_started:
            counters["jobs_started"] = self.jobs_started
        return counters

    def schedule_pass(self) -> List[RunningJobInfo]:
        """Ask the policy for jobs to start now; start them and return their records.

        One ``select_jobs`` call on the refreshed ``state``.  A selection
        that is a prefix of the queue, request for request by identity,
        holds distinct queued jobs and is removed with one ``del``; any
        other is checked for unknown and duplicate ids against the queue's
        ids and filtered out.  Either way its processors must be free.
        """
        queue = self.queue
        depth = len(queue)
        if not depth:
            return []
        self.sched_passes += 1
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        now, machine = self.sim.now, self.machine
        free = machine.free_count()
        self.state.refresh(now, free, queue)
        selected = self.scheduler.select_jobs(self.state)
        if not selected:
            return []
        count = len(selected)
        prefix = count <= depth and all(map(is_, selected, queue))
        if not prefix:
            queued_ids, selected_ids = {r.job_id for r in queue}, set()
            for request in selected:
                if request.job_id not in queued_ids or request.job_id in selected_ids:
                    raise RuntimeError(
                        f"scheduler {self.scheduler.name!r} selected job {request.job_id} "
                        "which is not in the wait queue"
                    )
                selected_ids.add(request.job_id)
        total_requested = 0
        for request in selected:
            total_requested += request.processors
        if total_requested > free:
            raise RuntimeError(
                f"scheduler {self.scheduler.name!r} over-committed the machine: "
                f"selected {total_requested} processors with {free} free"
            )
        if prefix:
            del queue[:count]
        else:
            self.queue = [r for r in queue if r.job_id not in selected_ids]
        running, started, tracker = self.running, [], self.tracker
        for request in selected:
            machine.allocate(request.job_id, request.processors)
            end = now + request.estimate
            running[request.job_id] = record = RunningJobInfo(request, now, end)
            tracker.start(request.processors, end)
            started.append(record)
        self.jobs_started += count
        return started


class MachineSimulation:
    """One scheduler + one machine + one workload, simulated to completion."""

    def __init__(
        self,
        workload: Workload,
        scheduler: Scheduler,
        machine_size: Optional[int] = None,
        outages: Optional[OutageLog] = None,
        honor_dependencies: bool = False,
        restart_failed_jobs: bool = True,
        max_restarts: int = 10,
    ) -> None:
        self.workload = workload
        self.scheduler = scheduler
        size = workload.resolve_machine_size(machine_size)
        self.outages = outages if outages is not None else OutageLog([])
        self.honor_dependencies = honor_dependencies
        self.restart_failed_jobs = restart_failed_jobs
        self.max_restarts = max_restarts

        self.sim = Simulator()
        self._space = SpaceSharedMachine(Machine(size=size), scheduler, self.sim)
        self.machine = self._space.machine
        self._results: List[JobResult] = []
        #: job id -> sequence number of each running job's completion event;
        #: kept off the record because the event's time is the actual end,
        #: which policies must not see
        self._completions: Dict[int, int] = {}
        self._outage_kills = 0
        self._submit_times: Dict[int, float] = {}
        #: dependent jobs waiting for a predecessor to finish: pred id -> [(request, think)]
        self._waiting_on: Dict[int, List[Tuple[JobRequest, int]]] = {}
        self._restart_counts: Dict[int, int] = {}
        # Announced outages go on the pass's capacity calendar: each record
        # is reserved once its announce time has passed, consumed from an
        # announce-time-sorted list exactly once (time only moves forward).
        self._by_announce = sorted(self.outages, key=lambda r: r.announced_time)
        self._announce_index = 0

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _seed_events(self) -> None:
        requests, self._skipped_too_large = usable_requests(self.workload, self.machine.size)
        present = {r.job_id for r in requests}
        arrivals = []
        for request in requests:
            job = request.job
            if (
                self.honor_dependencies
                and job.has_dependency
                and job.preceding_job in present
            ):
                think = job.think_time if job.think_time != MISSING else 0
                self._waiting_on.setdefault(job.preceding_job, []).append((request, think))
            else:
                arrivals.append((request.submit_time, request))
        arrivals.sort(key=itemgetter(0))
        self.sim.stream(arrivals, self._on_arrival, priority=_PRIORITY_ARRIVAL)
        for record in self.outages:
            node_ids = self._outage_nodes(record)
            self.sim.schedule_at(
                record.start_time, self._on_outage_start, record, node_ids,
                priority=_PRIORITY_OUTAGE,
            )
            self.sim.schedule_at(
                record.end_time, self._on_outage_end, node_ids, priority=_PRIORITY_OUTAGE
            )

    def _outage_nodes(self, record) -> List[int]:
        if record.components:
            return [c for c in record.components if 0 <= c < self.machine.size]
        # Unspecified components: take the highest-numbered nodes, a stable
        # deterministic choice that keeps results reproducible.
        count = min(record.nodes_affected, self.machine.size)
        return list(range(self.machine.size - count, self.machine.size))

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, request: JobRequest) -> None:
        self._space.submit(request)
        self._submit_times.setdefault(request.job_id, self.sim.now)
        self._schedule_pass()

    def _on_completion(self, job_id: int) -> None:
        running = self._space.end(job_id)
        del self._completions[job_id]
        self._finish(job_id, running, killed=False)
        self._schedule_pass()

    def _finish(self, job_id: int, running: RunningJobInfo, killed: bool) -> None:
        request = running.request
        self._results.append(
            JobResult(
                request.job, self._submit_times[job_id], running.start_time, self.sim.now,
                request.processors, killed, self._restart_counts.get(job_id, 0),
            )
        )
        if self._waiting_on:
            for request, think in self._waiting_on.pop(job_id, ()):
                self.sim.schedule(max(0, think), self._on_arrival, request, priority=_PRIORITY_ARRIVAL)

    def _on_outage_start(self, record, node_ids: List[int]) -> None:
        victims = self.machine.fail_nodes(node_ids)
        for job_id in victims:
            running = self._space.end(job_id)
            self.sim.cancel(self._completions.pop(job_id))
            self._outage_kills += 1
            restarts = self._restart_counts.get(job_id, 0)
            if self.restart_failed_jobs and restarts < self.max_restarts:
                # Restart from scratch: back into the queue at the current time.
                self._space.submit(running.request._replace(submit_time=int(self.sim.now)))
                self._restart_counts[job_id] = restarts + 1
            else:
                self._finish(job_id, running, killed=True)
        self._schedule_pass()

    def _on_outage_end(self, node_ids: List[int]) -> None:
        self.machine.restore_nodes(node_ids)
        self._schedule_pass()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _announce(self, now: float) -> None:
        """Advance the announced-capacity calendar to ``now``."""
        calendar = self._space.calendar
        calendar.advance(now)
        records, index = self._by_announce, self._announce_index
        while index < len(records) and records[index].announced_time <= now:
            record = records[index]
            calendar.reserve(record.start_time, record.end_time, record.nodes_affected)
            index += 1
        self._announce_index = index

    def _schedule_pass(self) -> None:
        space, sim = self._space, self.sim
        if self._by_announce and space.queue:
            self._announce(sim.now)
        completions = self._completions
        for running in space.schedule_pass():
            request = running.request
            completions[request.job_id] = sim.schedule_at(
                running.start_time + request.runtime, self._on_completion, request.job_id,
                priority=_PRIORITY_COMPLETION,
            )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run the simulation to completion and return the results."""
        self._seed_events()
        self.sim.run()
        counters = self._space.counters()
        counters["events_processed"] = self.sim.processed_events
        counters["peak_event_queue"] = self.sim.peak_queue
        result = SimulationResult(
            scheduler_name=self.scheduler.name,
            machine_size=self.machine.size,
            jobs=sorted(self._results, key=attrgetter("job.job_number")),
            outage_kills=self._outage_kills,
            unfinished=sorted(
                [r.job_id for r in self._space.queue]
                + [r.job_id for waiting in self._waiting_on.values() for r, _think in waiting]
            ),
            metadata={
                "skipped_too_large": self._skipped_too_large,
                "workload": self.workload.name,
                "honor_dependencies": self.honor_dependencies,
            },
            counters=dict(sorted(counters.items())),
        )
        if len(self.outages) > 0:
            result.available_node_seconds = _available_node_seconds(
                self.machine.size, self.outages, int(result.makespan) + 1
            )
        return result


def _available_node_seconds(machine_size: int, outages: OutageLog, end: int) -> float:
    """Integral of up capacity over [0, end) in node-seconds.

    The denominator utilization must use when outages took part of the
    machine away.  Overlapping outages stack, and capacity never drops
    below zero.
    """
    calendar = FreeSpace(machine_size, 0)
    for record in outages:
        calendar.reserve(record.start_time, record.end_time, record.nodes_affected)
    return float(
        sum(max(0, free) * (min(stop, end) - start) for start, stop, free in calendar.slots() if start < end)
    )


def simulate(
    workload: Workload,
    scheduler: Scheduler,
    machine_size: Optional[int] = None,
    outages: Optional[OutageLog] = None,
    honor_dependencies: bool = False,
    restart_failed_jobs: bool = True,
    max_restarts: int = 10,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`MachineSimulation` and run it."""
    return MachineSimulation(
        workload=workload,
        scheduler=scheduler,
        machine_size=machine_size,
        outages=outages,
        honor_dependencies=honor_dependencies,
        restart_failed_jobs=restart_failed_jobs,
        max_restarts=max_restarts,
    ).run()
