"""A small deterministic discrete-event simulation engine.

Events come from two sources, merged in :meth:`Simulator.run`:

* a binary heap of plain ``(time, priority, sequence, callback, args)``
  tuples, filled by ``schedule``/``schedule_at``.  Entries run in
  ``(time, priority, sequence)`` order; the sequence number gives a stable,
  deterministic order to events scheduled at the same instant with the same
  priority, so two runs of the same workload with the same seed produce
  bit-identical schedules;
* one time-sorted arrival stream of ``(time, arg)`` entries with a single
  callback and priority, set by ``stream`` before the run.  A stream entry
  fires before the heap's top entry iff ``(t_stream, p_stream) <=
  (t_heap, p_heap)``: the order the entries would get had they been pushed
  through ``schedule_at`` before anything else.  A workload's arrivals are
  known up front, so they never occupy the heap.

The API is intentionally minimal — scheduler simulators in
:mod:`repro.evaluation` and :mod:`repro.grid` drive it through four calls:

``stream(entries, callback, priority)``
    set the arrival stream, each entry firing as ``callback(arg)``,

``schedule(delay, callback, *args, priority=0)``
    enqueue an event relative to the current time,

``schedule_at(time, callback, *args, priority=0)``
    enqueue an event at an absolute time,

``run()``
    process events in order until both sources drain.

``schedule*`` return the event's sequence number.  :meth:`Simulator.cancel`
takes it and is O(1): the number goes into a set that is checked when the
entry is popped (the usual "lazy deletion" technique for binary-heap event
queues).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the simulation is driven incorrectly.

    Examples: scheduling an event in the past, an arrival stream out of
    time order, or a re-entrant :meth:`Simulator.run`.
    """


class Simulator:
    """Deterministic discrete-event simulator.

    The clock starts at 0, the SWF convention that the first submit time
    is the time origin.

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

    def __init__(self) -> None:
        self._now = 0.0
        #: heap of (time, priority, sequence, callback, args) entries
        self._queue: List[tuple] = []
        self._cancelled: set = set()
        self._counter = itertools.count()
        #: the arrival stream, its next index, callback and priority
        self._stream: Sequence[Tuple[float, Any]] = ()
        self._stream_index = 0
        self._stream_callback: Optional[Callable[[Any], Any]] = None
        self._stream_priority = 0
        self._running = False
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
        """Events executed by finished :meth:`run` calls, stream entries included."""
        return self._processed

    @property
    def peak_queue(self) -> int:
        """High-water mark of the event heap's length.

        Counts raw heap entries (lazily-cancelled events included, stream
        entries not), so the value is a deterministic function of the event
        sequence alone.
        """
        return self._peak_queue

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def stream(
        self, entries: Sequence[Tuple[float, Any]], callback: Callable[[Any], Any], priority: int = 0
    ) -> None:
        """Fire ``callback(arg)`` for each ``(time, arg)`` of ``entries``, in order.

        ``entries`` must be sorted by time and start no earlier than now.
        The simulator keeps a reference to it, and drops it with
        ``callback`` once the last entry has fired.
        """
        if self._running or self._stream_index < len(self._stream):
            raise SimulationError("an arrival stream is already set")
        previous = self._now
        for time, _ in entries:
            if time < previous:
                raise SimulationError(f"arrival at t={time} comes after t={previous}")
            previous = time
        self._stream, self._stream_index = entries, 0
        self._stream_callback, self._stream_priority = callback, priority

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any, priority: int = 0) -> int:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} s in the past")
        # Through schedule_at, so one wrapper of it sees every heap event.
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any, priority: int = 0) -> int:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at t={time} before current time t={self._now}"
            )
        sequence, queue = next(self._counter), self._queue
        heapq.heappush(queue, (float(time), priority, sequence, callback, args))
        if len(queue) > self._peak_queue:
            self._peak_queue = len(queue)
        return sequence

    def cancel(self, sequence: int) -> None:
        """Keep the heap event numbered ``sequence`` from firing.  Idempotent."""
        self._cancelled.add(sequence)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Run until the heap and the stream are both exhausted.

        Returns the number of events executed by this call.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        executed = 0
        queue, cancelled, heappop = self._queue, self._cancelled, heapq.heappop
        stream, index, fire, priority = (
            self._stream, self._stream_index, self._stream_callback, self._stream_priority
        )
        end = len(stream)
        try:
            while True:
                if queue:
                    entry = queue[0]
                    if entry[2] in cancelled:
                        heappop(queue)
                        cancelled.discard(entry[2])
                        continue
                    time = entry[0]
                    if index < end:
                        arrival = stream[index][0]
                        if arrival < time or (arrival == time and priority <= entry[1]):
                            entry, time = None, arrival
                elif index < end:
                    entry, time = None, stream[index][0]
                else:
                    break
                executed += 1
                if entry is None:
                    arg = stream[index][1]
                    index += 1
                    self._now = float(time)
                    fire(arg)
                else:
                    heappop(queue)
                    self._now = time
                    entry[3](*entry[4])
        finally:
            self._running = False
            self._processed += executed
            self._stream_index = index
            if index == end:
                self._stream, self._stream_index, self._stream_callback = (), 0, None
        return executed
