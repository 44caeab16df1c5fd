"""A small deterministic discrete-event simulation engine.

The engine maintains a binary heap of ``(time, priority, sequence, event)``
tuples: :class:`Event` objects run in ``(time, priority, sequence)`` order,
compared as plain tuples.  The sequence number guarantees a stable,
deterministic order for events scheduled at the same instant with the same
priority, which is essential for reproducible scheduler evaluations: two runs
of the same workload with the same seed must produce bit-identical schedules.

The API is intentionally minimal — scheduler simulators in
:mod:`repro.evaluation` and :mod:`repro.grid` drive it through three calls:

``schedule(delay, callback, ...)``
    enqueue an event relative to the current time,

``schedule_at(time, callback, ...)``
    enqueue an event at an absolute time,

``run(until=None)``
    process events in order until the queue drains or ``until`` is reached.

Events may be cancelled through the :class:`EventHandle` returned by the
``schedule*`` calls; cancellation is O(1) (the event is flagged and skipped
when popped), matching the usual "lazy deletion" technique for binary-heap
event queues.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["Event", "EventHandle", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the simulation is driven incorrectly.

    Examples: scheduling an event in the past, or running a simulator that
    has already been stopped.
    """


@dataclass
class Event:
    """A single scheduled occurrence inside the simulation.

    The heap holds ``(time, priority, sequence, event)`` tuples, so events
    run in that order without ever comparing two :class:`Event` objects:

    * earlier events run first,
    * among simultaneous events, lower ``priority`` runs first,
    * among equal-priority simultaneous events, insertion order wins.
    """

    time: float
    priority: int
    sequence: int
    callback: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    cancelled: bool = False
    label: str = ""


class EventHandle:
    """A cancellable reference to a scheduled :class:`Event`."""

    __slots__ = ("_event",)

    def __init__(self, event: Event) -> None:
        self._event = event

    @property
    def time(self) -> float:
        """Absolute simulation time the event is scheduled for."""
        return self._event.time

    @property
    def label(self) -> str:
        """Human-readable label attached at scheduling time."""
        return self._event.label

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self._event.cancelled = True


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (seconds).  Workload replay
        typically starts at 0, matching the SWF convention that the first
        submit time is the time origin.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(10.0, fired.append, 'a')
    >>> _ = sim.schedule(5.0, fired.append, 'b')
    >>> sim.run()
    2
    >>> fired
    ['b', 'a']
    >>> sim.now
    10.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        #: heap of (time, priority, sequence, event) entries
        self._queue: list[tuple] = []
        self._counter = itertools.count()
        self._running = False
        self._stopped = False
        self._processed = 0
        self._peak_queue = 0

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including lazily-cancelled ones)."""
        return sum(1 for entry in self._queue if not entry[3].cancelled)

    @property
    def peak_queue(self) -> int:
        """High-water mark of the event queue length.

        Counts raw heap entries (lazily-cancelled events included), so the
        value is a deterministic function of the event sequence alone.
        """
        return self._peak_queue

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
        **kwargs: Any,
    ) -> EventHandle:
        """Schedule ``callback(*args, **kwargs)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} s in the past")
        return self.schedule_at(
            self._now + delay, callback, *args, priority=priority, label=label, **kwargs
        )

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
        **kwargs: Any,
    ) -> EventHandle:
        """Schedule ``callback(*args, **kwargs)`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at t={time} before current time t={self._now}"
            )
        time, sequence, queue = float(time), next(self._counter), self._queue
        event = Event(time, priority, sequence, callback, args, kwargs, label=label)
        heapq.heappush(queue, (time, priority, sequence, event))
        if len(queue) > self._peak_queue:
            self._peak_queue = len(queue)
        return EventHandle(event)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> Optional[Event]:
        """Execute the single next non-cancelled event.

        Returns the executed event, or ``None`` if the queue is empty.
        """
        while self._queue:
            time, _, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = time
            self._processed += 1
            event.callback(*event.args, **event.kwargs)
            return event
        return None

    def peek(self) -> Optional[float]:
        """Time of the next non-cancelled event, or ``None`` if the queue is empty."""
        queue = self._queue
        while queue and queue[0][3].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the next event would occur strictly after ``until``;
            the clock is advanced to ``until``.  ``None`` runs to queue
            exhaustion.
        max_events:
            Safety valve: stop after this many events.

        Returns
        -------
        int
            The number of events executed by this call.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        executed = 0
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue and not self._stopped and (max_events is None or executed < max_events):
                time, _, _, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    continue
                if until is not None and time > until:
                    self._now = max(self._now, float(until))
                    break
                heappop(queue)
                self._now = time
                self._processed += 1
                event.callback(*event.args, **event.kwargs)
                executed += 1
        finally:
            self._running = False
        return executed

    def stop(self) -> None:
        """Request the current :meth:`run` loop to stop after the current event."""
        self._stopped = True

    def advance_to(self, time: float) -> None:
        """Advance the clock without executing events (only forward, only when idle)."""
        if time < self._now:
            raise SimulationError("cannot move the simulation clock backwards")
        if self.peek() is not None and self.peek() < time:
            raise SimulationError("cannot skip over pending events with advance_to()")
        self._now = float(time)
