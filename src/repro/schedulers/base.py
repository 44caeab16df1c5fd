"""Scheduler interface and the data structures shared by all policies.

The evaluation driver (:mod:`repro.evaluation.simulator`) is event-driven: at
every job arrival, job completion, or outage event it hands the policy a
:class:`SchedulerState` view of its queue and running set and asks which
queued jobs to start *now*.  Policies never see actual runtimes — only the
user estimate (field 9 of the SWF, falling back to the actual runtime when
no estimate is recorded), exactly the information a production scheduler
has.

The piecewise-constant "free processors over future time" function that
backfilling and advance reservations reason about is
:class:`repro.schedulers.freespace.FreeSpace`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from typing import TYPE_CHECKING, Callable, Collection, Iterable, List, NamedTuple, Optional, Tuple, Union

from repro.core.swf.fields import MISSING
from repro.core.swf.records import SWFJob
from repro.schedulers.freespace import FreeSpace

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.swf.workload import Workload

__all__ = [
    "JobRequest",
    "usable_requests",
    "RunningJobInfo",
    "SchedulerState",
    "Scheduler",
]


class JobRequest(NamedTuple):
    """What the scheduler knows about a job (plus the hidden actual runtime).

    Attributes
    ----------
    job:
        The underlying SWF record.
    job_id:
        The record's job number.
    processors:
        Processors the job needs (allocated count, falling back to requested).
    runtime:
        The *actual* runtime; used by the simulator to schedule the completion
        event, never exposed to policies through :class:`SchedulerState`.
    estimate:
        The user's runtime estimate (requested time); what policies may use.
    submit_time:
        Arrival time in the simulation (seconds).
    """

    job: SWFJob
    job_id: int
    processors: int
    runtime: int
    estimate: int
    submit_time: int


def usable_requests(workload: "Workload", machine_size: int) -> Tuple[List[JobRequest], int]:
    """(requests, skipped): the workload's jobs a ``machine_size`` machine can run.

    Each request applies the standard fallbacks: processors are
    :attr:`SWFJob.processors`; a missing runtime reads 0; a missing
    estimate reads the runtime; a missing submit time reads 0.  An estimate
    below the runtime is raised to it: production schedulers kill jobs that
    exceed their request, but the archive logs keep the recorded runtime, so
    the estimate is treated as a lower bound rather than modelling the kill.
    A record with no usable processor count, or one wider than the machine,
    is skipped.  Requests keep ``summary_jobs()`` order.
    """
    requests, skipped = [], 0
    make = JobRequest._make
    for job in workload.summary_jobs():
        processors = job.processors
        if processors < 1 or processors > machine_size:
            skipped += 1
            continue
        runtime = job.run_time
        if runtime == MISSING:
            runtime = 0
        estimate = job.requested_time
        if estimate == MISSING or estimate < runtime:
            estimate = runtime
        submit = job.submit_time
        requests.append(make((
            job,
            job.job_number,
            processors,
            runtime,
            estimate if estimate > 0 else 0,
            submit if submit != MISSING else 0,
        )))
    return requests, skipped


class RunningJobInfo(NamedTuple):
    """A job currently executing: the driver's one record of it.

    Policies read the driver's records themselves, not copies, so the
    record is immutable.  ``expected_end`` is ``start_time`` plus the
    estimate.  It can lie before ``now`` while a grid site holds a started
    meta component for its partners;
    :meth:`SchedulerState.expected_completions` and
    :meth:`FreeSpace.from_running
    <repro.schedulers.freespace.FreeSpace.from_running>` read it as ``now``.
    """

    request: JobRequest
    start_time: float
    expected_end: float

    @property
    def processors(self) -> int:
        return self.request.processors


class SchedulerState:
    """What a policy sees at one scheduling point.

    ``queue`` is the driver's own wait queue in arrival order, and
    ``running`` the driver's own :class:`RunningJobInfo` records (its
    ``running.values()`` view; a hand-built state may pass a list).
    Neither is a copy, so policies must treat both as read-only.

    ``calendar`` is the announced capacity as a read-only
    :class:`~repro.schedulers.freespace.FreeSpace` starting at or before
    ``now`` (the driver's announced-outage calendar, or a grid site's
    reservation calendar, each kept across passes rather than rebuilt);
    ``None`` means nothing is announced.  It is the
    one source of announced capacity: ``min_capacity(start, end)``, the
    minimum capacity over a future window, is the calendar's
    :meth:`~repro.schedulers.freespace.FreeSpace.capacity` (the total
    capacity without one).  ``min_capacity`` is assignable so a caller can
    wrap it to observe the calls; conservative backfilling clamps its
    profile with the calendar itself, so a wrapper must answer as the
    calendar does.

    ``profile`` is the running jobs' free processors over future time, a
    read-only :class:`~repro.schedulers.freespace.FreeSpace` from ``now``:
    the driver's tracked slot set, which a policy copies before reserving
    into it.  The driver passes a zero-argument callable, so policies that
    never read it never pay for it; a hand-built state builds it from
    ``running``.

    ``counts`` is where a policy adds its deterministic work counters
    (``shadow_scans``, ``jobs_backfilled``, ``slots_split``, ...): the
    driver passes its own counts, which become the run's
    ``SimulationResult.counters``, and a hand-built state gets a fresh
    :class:`~collections.Counter`.  Add only nonzero amounts: a key is
    present exactly when something was counted.
    """

    def __init__(
        self,
        now: float,
        total_processors: int,
        free_processors: int,
        queue: List[JobRequest],
        running: Collection[RunningJobInfo],
        calendar: Optional[FreeSpace] = None,
        profile: Optional[Callable[[], FreeSpace]] = None,
        counts: Optional[Counter] = None,
    ) -> None:
        self.now = now
        self.total_processors = total_processors
        self.free_processors = free_processors
        self.queue = queue
        self.running = running
        self.min_capacity: Callable[[float, float], int] = (
            calendar.capacity if calendar is not None else lambda start, end: total_processors
        )
        self.calendar = calendar
        self._profile: Union[FreeSpace, Callable[[], FreeSpace], None] = profile
        self._completions: Optional[List[Tuple[float, int]]] = None
        self.counts = counts if counts is not None else Counter()

    @property
    def profile(self) -> FreeSpace:
        """The running jobs' free space from ``now``; read-only."""
        profile = self._profile
        if profile is None:
            profile = FreeSpace.from_running(self.total_processors, self.now, self.running)
        elif callable(profile):
            profile = profile()
        self._profile = profile
        return profile

    def expected_completions(self) -> List[Tuple[float, int]]:
        """(expected end, processors) for running jobs, sorted by end time.

        An expected end before ``now`` (a grid site's held meta component)
        reads as ``now``.  Memoized on the state: backfilling consults this
        once per blocked-head decision, and the running set cannot change
        within one scheduling pass.
        """
        if self._completions is None:
            now = self.now
            self._completions = sorted(
                (max(r.expected_end, now), r.processors) for r in self.running
            )
        return self._completions


class Scheduler(ABC):
    """Base class for machine-scheduling policies.

    Subclasses implement :meth:`select_jobs`, returning the queued jobs to
    start immediately.  The returned jobs must collectively fit in the free
    processors reported by the state; the driver enforces this and raises if
    a policy misbehaves, so policy bugs surface in tests rather than as
    silently wrong results.
    """

    #: human-readable policy name (used in experiment tables)
    name: str = "scheduler"
    #: simulator the policy plugs into: ``"space"`` policies implement
    #: :meth:`select_jobs` for the event-driven space-sharing driver; other
    #: registered policy classes declare ``"gang"`` or ``"grid"`` and are
    #: dispatched by :func:`repro.api.runner.run` to their own simulators.
    mode: str = "space"

    def __init__(self, outage_aware: bool = False) -> None:
        #: if True, the policy consults the announced capacity (``state.calendar``)
        self.outage_aware = outage_aware

    @abstractmethod
    def select_jobs(self, state: SchedulerState) -> List[JobRequest]:
        """Return the queued jobs to start at ``state.now``."""

    # ------------------------------------------------------------------
    # helpers shared by concrete policies
    # ------------------------------------------------------------------
    def start_in_order(
        self, state: SchedulerState, ordered: Iterable[JobRequest], strict: bool
    ) -> List[JobRequest]:
        """The start rule of the list policies: walk ``ordered``, start each job that fits now.

        A job fits (:meth:`job_fits_now`) in what the jobs started before it
        left free.  A strict walk stops at the first misfit, so the started
        jobs are the first ``len(started)`` of ``ordered``; a greedy one skips it.
        """
        started: List[JobRequest] = []
        free = state.free_processors
        for request in ordered:
            if self.job_fits_now(state, request, free):
                started.append(request)
                free -= request.processors
            elif strict:
                break
        return started

    def job_fits_now(self, state: SchedulerState, request: JobRequest, free: int) -> bool:
        """Whether ``request`` can start now given ``free`` processors.

        Outage-aware policies additionally require that the announced
        capacity stays sufficient for the whole estimated duration, i.e. the
        machine is drained ahead of known maintenance windows.
        """
        if request.processors > free:
            return False
        if self.outage_aware:
            horizon_capacity = state.min_capacity(state.now, state.now + request.estimate)
            used_by_others = state.total_processors - free
            if request.processors > horizon_capacity - used_by_others:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
