"""Gang scheduling with an Ousterhout matrix (fluid time-slicing model).

Gang scheduling is the time-slicing alternative the paper's background
discusses ("earlier work in the sigmetrics community compared space slicing
with time slicing"): all processes of a job are coscheduled in the same time
slot, and the machine cycles through the slots of the Ousterhout matrix.

The simulation here uses the standard *fluid* approximation of the matrix:
while ``R`` slots are populated, every running job receives a ``(1 -
overhead) / R`` share of the machine's time, so its remaining work drains at
that rate.  This captures the essential trade-off gang scheduling makes —
jobs start almost immediately (low wait) but run stretched (high runtime) —
without simulating every quantum, which is what matters for comparing it
against space-sharing policies on the standard metrics.

Slot packing follows the usual rules: a job is placed in the first slot with
enough free processors, a new slot is opened when allowed
(``max_slots``, the multiprogramming level), and otherwise the job waits in
an FCFS queue.  Emptied slots are removed so the remaining jobs speed up
("alternative scheduling" / slot unification is approximated by this
compaction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api.registry import register_scheduler
from repro.core.swf.workload import Workload
from repro.evaluation.results import JobResult, SimulationResult
from repro.schedulers.base import JobRequest, usable_requests

__all__ = ["GangPolicy", "GangSimulation", "simulate_gang"]


@register_scheduler("gang")
class GangPolicy:
    """Gang-scheduling configuration constructible from a spec string.

    Gang scheduling time-slices rather than space-shares, so it is not a
    :class:`~repro.schedulers.base.Scheduler`; registering this lightweight
    configuration under ``"gang"`` lets :func:`repro.api.runner.run` dispatch
    ``"gang:slots=3,overhead=0.1"`` to :func:`simulate_gang` through the same
    front door as every space-sharing policy.
    """

    mode = "gang"

    def __init__(self, slots: int = 5, overhead: float = 0.05) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if not 0.0 <= overhead < 1.0:
            raise ValueError("overhead must be in [0, 1)")
        self.slots = slots
        self.overhead = overhead

    @property
    def name(self) -> str:
        return f"gang-{self.slots}slots"


@dataclass
class _GangJob:
    request: JobRequest
    remaining: float
    slot: int
    start_time: float


class GangSimulation:
    """Fluid simulation of gang scheduling over an SWF workload.

    Parameters
    ----------
    workload:
        The workload to replay (summary jobs only).
    machine_size:
        Processors per time slot (defaults to the header's MaxNodes).
    max_slots:
        Multiprogramming level — the maximum number of rows of the
        Ousterhout matrix.
    context_switch_overhead:
        Fraction of machine time lost to slot switching when more than one
        slot is populated (0.05 = 5%).
    """

    def __init__(
        self,
        workload: Workload,
        machine_size: Optional[int] = None,
        max_slots: int = 5,
        context_switch_overhead: float = 0.05,
    ) -> None:
        if max_slots < 1:
            raise ValueError("max_slots must be >= 1")
        if not 0.0 <= context_switch_overhead < 1.0:
            raise ValueError("context_switch_overhead must be in [0, 1)")
        self.workload = workload
        self.machine_size = workload.resolve_machine_size(machine_size)
        self.max_slots = max_slots
        self.overhead = context_switch_overhead

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run the fluid simulation and return per-job results."""
        arrivals, skipped = usable_requests(self.workload, self.machine_size)
        arrivals.sort(key=lambda r: (r.submit_time, r.job_id))
        arrival_index = 0
        queue: List[JobRequest] = []
        running: Dict[int, _GangJob] = {}
        slot_usage: Dict[int, int] = {}  # slot -> processors in use
        results: List[JobResult] = []
        submit_times: Dict[int, float] = {}
        now = 0.0

        def rate() -> float:
            populated = len(slot_usage)
            if populated == 0:
                return 0.0
            share = 1.0 / populated
            return share if populated == 1 else share * (1.0 - self.overhead)

        def place_waiting() -> None:
            placed_any = True
            while placed_any:
                placed_any = False
                for request in list(queue):
                    slot = self._find_slot(slot_usage, request.processors)
                    if slot is None:
                        continue
                    queue.remove(request)
                    slot_usage[slot] = slot_usage.get(slot, 0) + request.processors
                    running[request.job_id] = _GangJob(
                        request=request,
                        remaining=float(max(request.runtime, 0)),
                        slot=slot,
                        start_time=now,
                    )
                    placed_any = True

        def advance(to_time: float) -> None:
            nonlocal now
            elapsed = to_time - now
            if elapsed > 0 and running:
                progress = elapsed * rate()
                for job in running.values():
                    job.remaining = max(0.0, job.remaining - progress)
            now = to_time

        while arrival_index < len(arrivals) or running or queue:
            # Time of the next arrival and of the next fluid completion.
            next_arrival = (
                arrivals[arrival_index].submit_time if arrival_index < len(arrivals) else None
            )
            next_completion = None
            if running and rate() > 0:
                min_remaining = min(job.remaining for job in running.values())
                next_completion = now + min_remaining / rate()

            if next_completion is None and next_arrival is None:
                break  # queue non-empty but nothing can ever run (cannot happen: sizes checked)
            if next_completion is None or (
                next_arrival is not None and next_arrival <= next_completion
            ):
                advance(float(next_arrival))
                request = arrivals[arrival_index]
                arrival_index += 1
                submit_times[request.job_id] = now
                queue.append(request)
                place_waiting()
            else:
                advance(next_completion)
                finished = [j for j in running.values() if j.remaining <= 1e-9]
                for job in finished:
                    request = job.request
                    del running[request.job_id]
                    slot_usage[job.slot] -= request.processors
                    if slot_usage[job.slot] <= 0:
                        del slot_usage[job.slot]
                    results.append(
                        JobResult(
                            request.job, submit_times[request.job_id], job.start_time, now, request.processors
                        )
                    )
                place_waiting()

        return SimulationResult(
            scheduler_name=f"gang-{self.max_slots}slots",
            machine_size=self.machine_size,
            jobs=sorted(results, key=lambda j: j.job_id),
            metadata={
                "skipped_too_large": skipped,
                "max_slots": self.max_slots,
                "context_switch_overhead": self.overhead,
                "workload": self.workload.name,
            },
        )

    def _find_slot(self, slot_usage: Dict[int, int], processors: int) -> Optional[int]:
        """First slot with room for ``processors``, opening a new one if allowed."""
        for slot in sorted(slot_usage):
            if self.machine_size - slot_usage[slot] >= processors:
                return slot
        if len(slot_usage) < self.max_slots:
            new_slot = (max(slot_usage) + 1) if slot_usage else 0
            return new_slot
        return None


def simulate_gang(
    workload: Workload,
    machine_size: Optional[int] = None,
    max_slots: int = 5,
    context_switch_overhead: float = 0.05,
) -> SimulationResult:
    """Convenience wrapper around :class:`GangSimulation`."""
    return GangSimulation(
        workload=workload,
        machine_size=machine_size,
        max_slots=max_slots,
        context_switch_overhead=context_switch_overhead,
    ).run()
