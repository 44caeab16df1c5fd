"""Priority-ordered scheduling policies (SJF, LJF, widest/narrowest first, WFP).

These policies re-order the wait queue by a priority key before applying the
same start rule as FCFS (strict: the highest-priority job blocks) or
first-fit (greedy),
:meth:`Scheduler.start_in_order <repro.schedulers.base.Scheduler.start_in_order>`.
Each order is one :meth:`PriorityScheduler.key` method and a class-level
``name``.  They exist mainly as comparison points for the metric- and
objective-sensitivity experiments (E3/E4): re-ordering policies trade the
fairness of FCFS for better packing or better mean response time, and which
of them "wins" depends strongly on the metric — which is the paper's point.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import List

from repro.api.registry import register_scheduler
from repro.schedulers.base import JobRequest, Scheduler, SchedulerState

__all__ = [
    "PriorityScheduler",
    "ShortestJobFirstScheduler",
    "LongestJobFirstScheduler",
    "NarrowestFirstScheduler",
    "WidestFirstScheduler",
    "SmallestAreaFirstScheduler",
    "WFPScheduler",
]


class PriorityScheduler(Scheduler):
    """Order the queue by :meth:`key` (ascending) and start jobs greedily or strictly.

    Parameters
    ----------
    strict:
        If true, the highest-priority unstartable job blocks the rest of the
        queue (like FCFS); if false, later jobs that fit may start (greedy).
    """

    def __init__(self, strict: bool = False, outage_aware: bool = False) -> None:
        super().__init__(outage_aware)
        self.strict = strict

    @abstractmethod
    def key(self, request: JobRequest, state: SchedulerState) -> float:
        """The job's priority; smaller values start earlier."""

    def select_jobs(self, state: SchedulerState) -> List[JobRequest]:
        key = self.key
        # Ties are broken by arrival order.
        ordered = sorted(state.queue, key=lambda r: (key(r, state), r.submit_time, r.job_id))
        return self.start_in_order(state, ordered, self.strict)


@register_scheduler("sjf")
class ShortestJobFirstScheduler(PriorityScheduler):
    """Shortest estimated runtime first (classic SJF on user estimates)."""

    name = "sjf"

    def key(self, request: JobRequest, state: SchedulerState) -> float:
        return request.estimate


@register_scheduler("ljf")
class LongestJobFirstScheduler(PriorityScheduler):
    """Longest estimated runtime first (the adversarial counterpart of SJF)."""

    name = "ljf"

    def key(self, request: JobRequest, state: SchedulerState) -> float:
        return -request.estimate


@register_scheduler("narrowest-first")
class NarrowestFirstScheduler(PriorityScheduler):
    """Fewest requested processors first (favours small jobs, packs well)."""

    name = "narrowest-first"

    def key(self, request: JobRequest, state: SchedulerState) -> float:
        return request.processors


@register_scheduler("widest-first")
class WidestFirstScheduler(PriorityScheduler):
    """Most requested processors first (drains large jobs early)."""

    name = "widest-first"

    def key(self, request: JobRequest, state: SchedulerState) -> float:
        return -request.processors


@register_scheduler("smallest-area-first")
class SmallestAreaFirstScheduler(PriorityScheduler):
    """Smallest processors x estimated-runtime product first."""

    name = "smallest-area-first"

    def key(self, request: JobRequest, state: SchedulerState) -> float:
        return request.processors * max(request.estimate, 1)


@register_scheduler("wfp")
class WFPScheduler(PriorityScheduler):
    """Waiting-time-weighted fair-share-like priority (WFP3-style).

    Priority grows with time spent waiting relative to the job's estimated
    runtime and shrinks with its size, so long-waiting short/narrow jobs jump
    the queue while fresh wide jobs yield.  The exponent 3 follows the WFP3
    policy studied in later scheduling literature; it is included as a
    representative "tunable composite priority" for experiment E4.
    """

    def __init__(self, exponent: float = 3.0, strict: bool = False, outage_aware: bool = False) -> None:
        super().__init__(strict, outage_aware)
        self.exponent = exponent
        self.name = f"wfp{exponent:g}"

    def key(self, request: JobRequest, state: SchedulerState) -> float:
        waited = max(state.now - request.submit_time, 0.0)
        estimate = max(request.estimate, 1.0)
        score = ((waited / estimate) ** self.exponent) * (1.0 / max(request.processors, 1))
        return -score  # larger score = higher priority = earlier in ascending sort
