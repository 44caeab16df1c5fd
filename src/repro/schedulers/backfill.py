"""Backfilling schedulers: EASY and conservative.

Backfilling is the family of policies the paper's community converged on for
space-shared machines, and the policy whose evaluation most needs standard
workloads (its benefit depends on the distribution of job sizes, runtimes,
and user estimates).

* **EASY backfilling** (Lifka's Argonne scheduler): jobs start in FCFS order
  (the shared strict start rule,
  :meth:`Scheduler.start_in_order <repro.schedulers.base.Scheduler.start_in_order>`);
  when the queue head does not fit, it receives a *reservation* at the
  earliest time enough processors will be free (the "shadow time"), and
  shorter/narrower jobs further back may start out of order provided they do
  not delay that reservation — either because they finish before the shadow
  time or because they use only processors the head job will not need
  ("extra" nodes).

* **Conservative backfilling** (Mu'alem & Feitelson): every queued job
  receives a reservation when it arrives, and a job may be backfilled only
  if it delays *no* existing reservation; reservations are compressed when
  a job ends early.  Implemented by anchoring jobs in queue order on a
  per-pass copy of the running jobs'
  :class:`~repro.schedulers.freespace.FreeSpace` slot set
  (``SchedulerState.profile``, which the driver keeps across passes).

Both use the user estimate, not the actual runtime, to compute reservations —
as in production systems, over-estimates create backfill opportunities.
"""

from __future__ import annotations

from heapq import merge
from typing import List

from repro.api.registry import register_scheduler
from repro.schedulers.base import JobRequest, Scheduler, SchedulerState
from repro.schedulers.freespace import report_slot_stats

__all__ = ["EasyBackfillScheduler", "ConservativeBackfillScheduler"]


@register_scheduler("easy", "easy-backfill", "backfill")
class EasyBackfillScheduler(Scheduler):
    """EASY (aggressive) backfilling: one reservation, for the queue head.

    Registered as plain ``backfill`` too: EASY is *the* canonical
    backfilling policy, so benchmark specs can name it generically.
    """

    name = "easy-backfill"

    def select_jobs(self, state: SchedulerState) -> List[JobRequest]:
        # Phase 1: start jobs in FCFS order while they fit.
        started = self.start_in_order(state, state.queue, True)
        queue = state.queue
        head_index = len(started)
        if head_index >= len(queue):
            return started

        # Phase 2: the head does not fit.  Compute its shadow time and the
        # number of extra processors, then backfill behind it.
        free = state.free_processors - sum(request.processors for request in started)
        head = queue[head_index]
        shadow_time, extra = self._shadow(state, started, head, free)

        backfilled = 0
        for i in range(head_index + 1, len(queue)):
            candidate = queue[i]
            if not self.job_fits_now(state, candidate, free):
                continue
            finishes_before_shadow = state.now + candidate.estimate <= shadow_time
            uses_only_extra = candidate.processors <= extra
            if finishes_before_shadow or uses_only_extra:
                backfilled += 1
                started.append(candidate)
                free -= candidate.processors
                if not finishes_before_shadow:
                    extra -= candidate.processors
        if backfilled:
            state.counts["jobs_backfilled"] += backfilled
        return started

    def _shadow(
        self,
        state: SchedulerState,
        just_started: List[JobRequest],
        head: JobRequest,
        free: int,
    ) -> tuple:
        """(shadow time, extra processors) for the blocked queue head.

        The shadow time is when, based on expected completions of running
        jobs (including those started in phase 1), enough processors free up
        for the head; the extra processors are those free at the shadow time
        beyond what the head needs.

        The running-set release list comes memoized from
        :meth:`SchedulerState.expected_completions`; phase-1 starts are a
        second (small) sorted run merged in, so nothing is re-sorted here.

        Deliberately *not* expressed as a :class:`FreeSpace` query: the
        ``extra`` count depends on how many releases the walk consumed,
        not on the free level at the shadow time — two simultaneous
        completions can leave the profile higher than the walk's
        ``available``, and preserving the historical (paper-faithful)
        tie-breaking keeps schedules bit-for-bit identical.
        """
        state.counts["shadow_scans"] += 1
        releases = state.expected_completions()
        if just_started:
            fresh = sorted(
                (state.now + req.estimate, req.processors) for req in just_started
            )
            releases = merge(releases, fresh)

        available = free
        shadow_time = state.now
        for end_time, processors in releases:
            if available >= head.processors:
                break
            available += processors
            shadow_time = end_time
        if available < head.processors:
            # Even with everything finished the head does not fit (should not
            # happen for feasible jobs); fall back to "never", disabling
            # the finish-before-shadow rule.
            return float("inf"), 0
        extra = available - head.processors
        return shadow_time, extra


@register_scheduler("conservative", "conservative-backfill")
class ConservativeBackfillScheduler(Scheduler):
    """Conservative backfilling: every queued job holds a reservation.

    Each pass takes an O(slots) copy of the running jobs' profile
    (``state.profile``), clamps it to the announced capacity calendar when
    outage-aware, and places the queue in order: each job takes the
    earliest anchor that fits around the running jobs and the jobs queued
    before it, and starts if that anchor is now.  That is a from-scratch
    re-plan at every pass, which is what compresses reservations when a
    job ends early.  The policy keeps nothing between passes but its
    options.
    """

    name = "conservative-backfill"

    def __init__(self, outage_aware: bool = False, horizon: float = 365 * 24 * 3600.0) -> None:
        super().__init__(outage_aware)
        #: how far ahead the availability profile is clamped by announced outages
        self.horizon = horizon

    def select_jobs(self, state: SchedulerState) -> List[JobRequest]:
        now = state.now
        profile = state.profile.copy()
        if self.outage_aware and state.calendar is not None:
            profile.clamp_capacity(state.calendar, now + self.horizon)
        started: List[JobRequest] = []
        free = state.free_processors
        blocked = False  # has any earlier-queued job been held back?
        backfilled = 0
        place = profile.place
        for request in state.queue:
            anchor = place(request.processors, max(request.estimate, 1))
            if anchor <= now and self.job_fits_now(state, request, free):
                backfilled += blocked
                started.append(request)
                free -= request.processors
            else:
                blocked = True
        if backfilled:
            state.counts["jobs_backfilled"] += backfilled
        report_slot_stats(state.counts, profile)
        return started
