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
  a job ends early.  Implemented by anchoring jobs in queue order on the
  running jobs' :class:`~repro.schedulers.freespace.FreeSpace` slot set
  (``SchedulerState.profile``, which the driver keeps across passes).  A
  pass continues from the previous pass's placements, kept on the
  driver's tracker, until an early completion, a kill or an announced
  dip can move an anchor; then it re-plans from a fresh copy.

Both use the user estimate, not the actual runtime, to compute reservations —
as in production systems, over-estimates create backfill opportunities.
"""

from __future__ import annotations

from heapq import merge
from itertools import accumulate
from operator import is_
from typing import List, Tuple

from repro.api.registry import register_scheduler
from repro.schedulers.base import JobRequest, Scheduler, SchedulerState
from repro.schedulers.freespace import FreeSpace, Plan, report_slot_stats

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
            if candidate.processors > free or (self.outage_aware and not self.job_fits_now(state, candidate, free)):
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

    A pass places the queue in order on the running jobs' profile
    (``state.profile``, clamped to the announced capacity calendar when
    outage-aware): each job takes the earliest anchor that fits around the
    running jobs and the jobs queued before it, and starts if that anchor
    is now and it fits.  Two shortcuts leave the started set as it was:

    * a pass whose free processors are fewer than the narrowest queued
      job needs starts nothing and returns before reading the profile;
    * the walk stops at the first queue position from which no remaining
      job fits in the processors still free, since no job behind it can
      start and its anchor only constrains the jobs behind it.

    **The kept plan.**  A pass leaves its working profile and each job it
    placed but did not start, with its anchor, on the driver's
    :class:`~repro.schedulers.freespace.FreeSpaceTracker` (a
    :class:`~repro.schedulers.freespace.Plan`).  The next pass continues
    from it, reading the kept jobs' anchors and placing only the jobs
    behind them, when all of these hold:

    1. no window came back early since the plan's pass (the tracker drops
       the plan on an early completion or a kill);
    2. the policy is not outage-aware, or the calendar offers full
       capacity over ``[now, now + horizon)`` both now and at the plan's
       pass, so neither profile is clamped;
    3. no placement in the plan overdrew a slot (``FreeSpace.overdrawn``,
       the walk's no-fit fallback; while 2 holds, the profile's last slot
       offers the whole machine, so this guards the argument below rather
       than firing) and none had an estimate below 1 (``place`` reserves
       at least one second, the tracker the raw estimate);
    4. the queue starts with the plan's jobs, the same objects in the same
       order, and every kept anchor is at or after ``now``.

    Any other pass re-plans from a fresh copy of the profile, which is
    what compresses reservations when a job ends early.

    Why a kept anchor is still the earliest: without releases or clamps,
    today's profile is the plan's base with the plan's started jobs added,
    advanced to ``now``.  Those jobs were placed in the plan too, so the
    kept profile holds the same function; only the order differs, as a
    job backfilled from behind a kept job now sits in the base that job
    is placed on.  Adding it moves no kept anchor.  It started only after
    fitting around every reservation ahead of it, and no slot of the plan
    is below zero, so the kept job still fits at its anchor.  A window
    that was infeasible before the anchor stays infeasible when more
    capacity is reserved.  Anchors at or after ``now`` see the same slots
    in both profiles, so they reproduce the from-scratch walk, and so do
    the placements made after them.

    The policy object keeps nothing between passes but its options; a
    hand-built state, which has no tracker, re-plans from scratch.  A
    pass adds the jobs it placed to the ``anchors_placed`` counter.
    """

    name = "conservative-backfill"

    def __init__(self, outage_aware: bool = False, horizon: float = 365 * 24 * 3600.0) -> None:
        super().__init__(outage_aware)
        #: how far ahead the availability profile is clamped by announced outages
        self.horizon = horizon

    def select_jobs(self, state: SchedulerState) -> List[JobRequest]:
        queue = state.queue
        free = state.free_processors
        # least[i]: the fewest processors any job from queue position i on needs
        least = list(accumulate(reversed([request.processors for request in queue]), min))
        if not least or least[-1] > free:
            return []
        least.reverse()
        now = state.now
        profile, kept, anchors, keep = self._plan(state)
        started: List[JobRequest] = []
        waiting: List[JobRequest] = []  # placed, not started: the next plan's jobs
        held: List[float] = []  # their anchors
        blocked = False  # has any earlier-queued job been held back?
        backfilled = placed = 0
        place = profile.place
        n_kept = len(kept)
        for i, request in enumerate(queue):
            if least[i] > free:
                break
            if i < n_kept:
                anchor = anchors[i]
            else:
                estimate = request.estimate
                if estimate < 1:
                    estimate, keep = 1, False
                anchor = place(request.processors, estimate)
                placed += 1
            if anchor <= now and self.job_fits_now(state, request, free):
                backfilled += blocked
                started.append(request)
                free -= request.processors
            else:
                blocked = True
                waiting.append(request)
                held.append(anchor)
        walked = len(started) + len(waiting)
        if walked < n_kept:
            # Kept jobs behind the stop stay placed.
            waiting += kept[walked:]
            held += anchors[walked:]
        if state.tracker is not None:
            state.tracker.plan = Plan(profile, waiting, held) if keep and not profile.overdrawn else None
        counts = state.counts
        if backfilled:
            counts["jobs_backfilled"] += backfilled
        if placed:
            counts["anchors_placed"] += placed
        report_slot_stats(counts, profile)
        return started

    def _plan(self, state: SchedulerState) -> Tuple[FreeSpace, list, List[float], bool]:
        """(profile, kept jobs, their anchors, whether this pass may keep its plan).

        The tracker's plan when it still holds (see the class docstring),
        else a fresh copy of ``state.profile`` with no kept jobs.
        """
        now = state.now
        profile = state.profile  # a sync drops the plan if a window came back early
        tracker, calendar = state.tracker, state.calendar
        clamp = self.outage_aware and calendar is not None
        keep = tracker is not None and (
            not clamp or calendar.min_free(now, now + self.horizon) >= state.total_processors
        )
        if keep and tracker.plan is not None:
            kept = tracker.plan
            queue = state.queue
            if (
                len(kept.jobs) <= len(queue)
                and all(map(is_, kept.jobs, queue))
                and (not kept.anchors or min(kept.anchors) >= now)
            ):
                kept.profile.advance(now)
                return kept.profile, kept.jobs, kept.anchors, True
        profile = profile.copy()
        if clamp:
            profile.clamp_capacity(calendar, now + self.horizon)
        return profile, [], [], keep
