"""First-come-first-served scheduling (with an optional first-fit relaxation).

``FCFSScheduler`` is the strict baseline every evaluation in the literature
includes: jobs start in arrival order, and the head of the queue blocks all
later jobs until enough processors free up.  ``FirstFitScheduler`` relaxes
the blocking: any queued job that fits may start, still scanning in arrival
order — this is "FCFS with first-fit backfilling without reservations",
which improves utilization but can starve large jobs (the reason EASY adds a
reservation for the head job).

Both are the shared start rule,
:meth:`Scheduler.start_in_order <repro.schedulers.base.Scheduler.start_in_order>`,
walked over the queue in arrival order: strict for FCFS, greedy for
first-fit.
"""

from __future__ import annotations

from typing import List

from repro.api.registry import register_scheduler
from repro.schedulers.base import JobRequest, Scheduler, SchedulerState

__all__ = ["FCFSScheduler", "FirstFitScheduler"]


@register_scheduler("fcfs")
class FCFSScheduler(Scheduler):
    """Strict first-come-first-served: the queue head blocks everything behind it."""

    name = "fcfs"

    def select_jobs(self, state: SchedulerState) -> List[JobRequest]:
        return self.start_in_order(state, state.queue, True)


@register_scheduler("first-fit")
class FirstFitScheduler(Scheduler):
    """Start any queued job that fits, scanning in arrival order (no reservations)."""

    name = "first-fit"

    def select_jobs(self, state: SchedulerState) -> List[JobRequest]:
        return self.start_in_order(state, state.queue, False)
