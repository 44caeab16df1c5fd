"""Adaptive scheduling of moldable jobs (flexible-job support).

Rigid jobs force the scheduler to find exactly the requested number of free
processors; a *moldable* job lets the scheduler choose the allocation at
start time from the job's speedup curve.  :class:`MoldableScheduler`
implements the adaptive policy experiment E8 evaluates:

* jobs are considered in arrival order (FCFS fairness is preserved);
* for the job at the head of the queue the policy picks the allocation that
  minimizes its runtime among the allocations that (a) are currently free,
  (b) do not exceed the job's maximum, and (c) keep parallel efficiency at or
  above a threshold — the classic guard against wasting processors on flat
  regions of the speedup curve;
* if even a single processor is unavailable the head blocks (strict FCFS),
  so the comparison against rigid FCFS/EASY isolates the effect of
  adaptivity, not of queue reordering.

The policy returns *modified* :class:`~repro.schedulers.base.JobRequest`
objects (same job, different processor count and runtime); the evaluation
driver starts whatever request the policy hands back, which is exactly the
"application scheduler negotiates with the machine scheduler" interaction
the paper describes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.api.registry import register_scheduler
from repro.schedulers.base import JobRequest, Scheduler, SchedulerState
from repro.workloads.speedup import MoldableJob

__all__ = ["MoldableScheduler"]


@register_scheduler("moldable", "moldable-adaptive")
class MoldableScheduler(Scheduler):
    """FCFS scheduling with per-job adaptive allocation from speedup curves."""

    name = "moldable-adaptive"

    def __init__(
        self,
        moldable_jobs: Dict[int, MoldableJob],
        efficiency_threshold: float = 0.5,
        estimate_factor: float = 2.0,
        outage_aware: bool = False,
    ) -> None:
        super().__init__(outage_aware)
        if not 0 < efficiency_threshold <= 1.0:
            raise ValueError("efficiency_threshold must be in (0, 1]")
        if estimate_factor < 1.0:
            raise ValueError("estimate_factor must be >= 1")
        self.moldable_jobs = dict(moldable_jobs)
        self.efficiency_threshold = efficiency_threshold
        self.estimate_factor = estimate_factor

    # ------------------------------------------------------------------
    def _choose_allocation(self, moldable: MoldableJob, free: int) -> Optional[int]:
        """Best allocation for the job given ``free`` processors, or ``None``."""
        if free < 1:
            return None
        ceiling = min(free, moldable.max_processors)
        best_n: Optional[int] = None
        best_runtime = float("inf")
        n = 1
        while n <= ceiling:
            efficiency = moldable.speedup_model.speedup(n) / n
            if n == 1 or efficiency >= self.efficiency_threshold:
                runtime = moldable.runtime_on(n)
                if runtime < best_runtime:
                    best_runtime = runtime
                    best_n = n
            n *= 2  # power-of-two allocations, matching machine practice
        if best_n is None:
            best_n = 1
        return best_n

    def _resize(self, request: JobRequest, processors: int) -> JobRequest:
        moldable = self.moldable_jobs[request.job_id]
        runtime = max(1, int(round(moldable.runtime_on(processors))))
        return request._replace(
            processors=processors,
            runtime=runtime,
            estimate=max(runtime, int(round(runtime * self.estimate_factor))),
        )

    def select_jobs(self, state: SchedulerState) -> List[JobRequest]:
        started: List[JobRequest] = []
        free = state.free_processors
        for request in state.queue:
            moldable = self.moldable_jobs.get(request.job_id)
            if moldable is None:
                # Jobs without a speedup description are treated as rigid.
                if self.job_fits_now(state, request, free):
                    started.append(request)
                    free -= request.processors
                else:
                    break
                continue
            allocation = self._choose_allocation(moldable, free)
            if allocation is None:
                break  # strict FCFS: the head blocks when nothing is free
            resized = self._resize(request, allocation)
            if not self.job_fits_now(state, resized, free):
                break
            started.append(resized)
            free -= resized.processors
        return started
