"""Slot-set free-space core: the one piecewise-constant step function.

Conservative backfilling reasons about a piecewise-constant function
"free processors over future time".  The original breakpoint-list profile
rebuilt that function from the running set on *every* scheduling pass and
linear-scanned every breakpoint per query, which is quadratic-to-cubic on
long traces.  This module replaces the representation with a slot set in
the style of OAR3's ``kamelot`` scheduler:

* :class:`FreeSpace` — a sorted slot list.  Slot ``i`` covers
  ``[times[i], times[i+1])`` (the last slot is open-ended) with a constant
  number of free processors.  Lookups bisect, reservations split at most
  two slots, adjacent slots with equal free counts merge away, and
  :meth:`FreeSpace.earliest_start` walks slots — jumping past the *end* of
  any slot that cannot host the request instead of retrying every
  breakpoint in between.  :meth:`FreeSpace.place` is that walk and the
  reservation of its result in one pass over the slots.

* :class:`FreeSpaceTracker` — the running set's slot set, kept across
  scheduling passes by the driver that owns the running set
  (:class:`~repro.evaluation.simulator.SpaceSharedMachine`).  The driver
  reports each start and each completion or kill as ``(processors,
  expected_end)``; a pass that reads the profile brings it to ``now`` by
  patching only those windows.  Policies read it as
  ``SchedulerState.profile`` and copy it before reserving.  It also keeps
  conservative backfilling's :class:`Plan` between passes, and drops it
  when a window comes back early.

Every "capacity over a window" question in the repository is answered by
a :class:`FreeSpace`: the policies' free-processor profiles, the driver's
announced-outage calendar (``MachineSimulation``), a grid site's
reservation calendar, and the available node-seconds behind outage-aware
utilization.  A calendar clamps a profile through
:meth:`FreeSpace.clamp_capacity`, which visits only the profile slots
that overlap one of the calendar's dips below full capacity.  Every query
is value-equivalent to the original breakpoint scan, asserted bit-for-bit
in ``tests/schedulers/test_freespace.py`` against a verbatim copy of the
old implementation.

The tracker and the conservative policy add deterministic counters
(``slots_split``, ``slots_merged``, ``profile_patches``,
``anchors_placed``) derived only from simulated facts to the driver's
counts dict, so they ride in ``MetricsReport.counters`` bit-identically
across serial and parallel runs.  A :class:`FreeSpace` itself only tallies its splits and merges;
capacity calendars never report them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple, Union

__all__ = ["FreeSpace", "FreeSpaceTracker", "Plan", "report_slot_stats"]


class FreeSpace:
    """Free processors over future time, as a sorted slot set.

    Invariants: ``_times`` is strictly increasing with ``_times[0] == now``;
    slot ``i`` spans ``[_times[i], _times[i+1])`` (last slot open-ended)
    and offers ``_free[i]`` processors.  Adjacent slots never hold equal
    free counts (they are merged on the spot), which keeps the slot count
    proportional to the number of *distinct* reservation edges rather
    than the number of operations ever applied.
    """

    __slots__ = ("total", "now", "_times", "_free", "splits", "merges", "overdrawn")

    def __init__(self, total_processors: int, now: float) -> None:
        if total_processors < 1:
            raise ValueError("total_processors must be >= 1")
        self.total = total_processors
        self.now = float(now)
        self._times: List[float] = [float(now)]
        self._free: List[int] = [total_processors]
        #: slot splits/merges performed since the last :meth:`take_stats`
        self.splits = 0
        self.merges = 0
        #: whether a :meth:`place` found no fit and reserved past the last boundary
        self.overdrawn = False

    @classmethod
    def from_running(
        cls,
        total_processors: int,
        now: float,
        running: Iterable,
    ) -> "FreeSpace":
        """The slot set implied by the running jobs' expected completions."""
        fs = cls(total_processors, now)
        for info in running:
            end = max(info.expected_end, now)
            fs.reserve(now, end, info.processors)
        return fs

    def copy(self) -> "FreeSpace":
        """An independent snapshot; O(slots).  Stats start at zero."""
        fs = FreeSpace.__new__(FreeSpace)
        fs.total = self.total
        fs.now = self.now
        fs._times = self._times[:]
        fs._free = self._free[:]
        fs.splits = 0
        fs.merges = 0
        fs.overdrawn = self.overdrawn
        return fs

    def take_stats(self) -> Tuple[int, int]:
        """(splits, merges) since the last call; resets the counters."""
        stats = (self.splits, self.merges)
        self.splits = 0
        self.merges = 0
        return stats

    # ------------------------------------------------------------------
    # slot maintenance
    # ------------------------------------------------------------------
    def _split_at(self, time: float) -> int:
        """Ensure a slot boundary at ``time`` (clamped to now); return its index."""
        time = max(float(time), self.now)
        times = self._times
        index = bisect_right(times, time)
        if times[index - 1] == time:
            return index - 1
        times.insert(index, time)
        self._free.insert(index, self._free[index - 1])
        self.splits += 1
        return index

    def _merge_boundary(self, index: int) -> None:
        """Drop the boundary before slot ``index`` if it separates equal slots."""
        if 0 < index < len(self._times) and self._free[index - 1] == self._free[index]:
            del self._times[index]
            del self._free[index]
            self.merges += 1

    def advance(self, now: float) -> None:
        """Move the slot origin forward to ``now``, dropping past slots."""
        now = float(now)
        if now <= self.now:
            if now < self.now:
                raise ValueError("advance() cannot move time backwards")
            return
        times = self._times
        index = bisect_right(times, now) - 1
        if index > 0:
            del times[:index]
            del self._free[:index]
        times[0] = now
        self.now = now

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def min_free(self, start: float, end: float) -> int:
        """Minimum free processors over [start, end); at ``start`` if the window is empty."""
        start = max(start, self.now)
        times, free = self._times, self._free
        index = bisect_right(times, start) - 1
        minimum = free[index]
        if end <= start:
            return minimum
        n = len(times)
        index += 1
        while index < n and times[index] < end:
            if free[index] < minimum:
                minimum = free[index]
            index += 1
        return minimum

    def earliest_start(self, processors: int, duration: float, not_before: Optional[float] = None) -> float:
        """Earliest time >= ``not_before`` with ``processors`` free for ``duration``."""
        anchor = self.now if not_before is None else max(not_before, self.now)
        return self._walk(processors, duration, anchor)[0]

    def _walk(self, processors: int, duration: float, anchor: float) -> Tuple[float, int, int]:
        """(anchor, its slot, first slot at or past its end) of the earliest fit.

        Walks slots left to right from ``anchor``.  When a slot inside the
        candidate window cannot host the request, every anchor before that
        slot's *end* is infeasible too (its window would still contain the
        slot), so the walk jumps straight there — each slot is visited at
        most once per call instead of once per candidate breakpoint.
        """
        if processors > self.total:
            raise ValueError(
                f"a request for {processors} processors can never fit a "
                f"{self.total}-processor machine"
            )
        times, free = self._times, self._free
        n = len(times)
        index = bisect_right(times, anchor) - 1
        while True:
            scan = index + 1
            if free[index] < processors:
                blocker = index
            else:
                blocker = -1
                end = anchor + duration
                while scan < n and times[scan] < end:
                    if free[scan] < processors:
                        blocker = scan
                        break
                    scan += 1
            if blocker < 0:
                return anchor, index, scan
            if blocker + 1 >= n:
                # Matches the old breakpoint scan's fallback: past the last
                # boundary the machine is (in practice) fully free again.
                return max(times[-1], anchor), n - 1, n
            index = blocker + 1
            anchor = times[index]

    def slots(self) -> List[Tuple[float, float, int]]:
        """(start, end, free) triples; the last slot ends at +inf."""
        out = []
        times, free = self._times, self._free
        for i, start in enumerate(times):
            end = times[i + 1] if i + 1 < len(times) else float("inf")
            out.append((start, end, free[i]))
        return out

    def capacity(self, start: float, end: float) -> int:
        """:meth:`min_free` over [start, end) floored at zero.

        A calendar of announced outages or reservations answers "how many
        processors can be up over this window" with it; overlapping holds
        can push the calendar itself below zero.
        """
        return max(0, self.min_free(start, end))

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def reserve(self, start: float, end: float, processors: int) -> None:
        """Subtract ``processors`` over [start, end) (clamped to now)."""
        if processors < 0:
            raise ValueError("processors must be non-negative")
        if end <= start or processors == 0:
            return
        start = max(start, self.now)
        end = max(end, self.now)
        if end <= start:
            return
        i0 = self._split_at(start)
        i1 = self._split_at(end)
        free = self._free
        for i in range(i0, i1):
            free[i] -= processors
        # Only the window edges can become redundant: interior boundaries
        # shift uniformly, so unequal neighbours stay unequal.
        self._merge_boundary(i1)
        self._merge_boundary(i0)

    def place(self, processors: int, duration: float) -> float:
        """Reserve at the earliest anchor from now; return the anchor.

        Equal, slot for slot, to ``earliest_start(processors, duration)``
        followed by ``reserve(anchor, anchor + duration, processors)``, but
        one walk: every anchor the walk tries is a slot start, so the
        reservation begins on a boundary, and the slot where the window
        scan stopped is where its end goes.

        When nothing fits, the walk's fallback anchors the request on the
        last boundary anyway; the reservation then drives a slot below
        zero and sets :attr:`overdrawn`.
        """
        anchor, index, scan = self._walk(processors, duration, self.now)
        end = anchor + duration
        if end <= anchor or processors <= 0:
            if processors < 0:
                raise ValueError("processors must be non-negative")
            return anchor
        times, free = self._times, self._free
        if free[index] < processors:
            self.overdrawn = True
        n = len(times)
        if scan == n or times[scan] != end:
            times.insert(scan, end)
            free.insert(scan, free[scan - 1])
            self.splits += 1
            n += 1
        for i in range(index, scan):
            free[i] -= processors
        # _merge_boundary(scan) and _merge_boundary(index), inlined.
        if scan < n and free[scan - 1] == free[scan]:
            del times[scan]
            del free[scan]
            self.merges += 1
        if index and free[index - 1] == free[index]:
            del times[index]
            del free[index]
            self.merges += 1
        return anchor

    def release(self, start: float, end: float, processors: int) -> None:
        """Give back ``processors`` over [start, end) — the inverse of reserve."""
        if processors < 0:
            raise ValueError("processors must be non-negative")
        if end <= start or processors == 0:
            return
        start = max(start, self.now)
        end = max(end, self.now)
        if end <= start:
            return
        i0 = self._split_at(start)
        i1 = self._split_at(end)
        free = self._free
        for i in range(i0, i1):
            free[i] += processors
        self._merge_boundary(i1)
        self._merge_boundary(i0)

    def clamp_capacity(
        self, capacity: Union["FreeSpace", Callable[[float, float], int]], horizon: float
    ) -> None:
        """Clamp free counts to an announced capacity over [now, horizon).

        Outage-aware backfilling: the free curve can never exceed the
        announced available capacity.  Slot ``i``, its window cut at
        ``horizon``, is clamped to the window's minimum capacity less the
        processors busy in it, the per-slot minimum of the old
        per-breakpoint loop.  ``capacity`` is a calendar :class:`FreeSpace`
        (the driver's announced outages, a grid site's reservations) or a
        ``(start, end) -> int`` function.  A window that misses every dip
        of a calendar below ``total`` keeps its slot as it is, so only the
        slots overlapping a dip are visited; a function is sampled for
        every slot.
        """
        times, free = self._times, self._free
        n = len(times)
        if isinstance(capacity, FreeSpace):
            indices = self._under_dips(capacity, horizon)
            capacity_fn = capacity.capacity
        else:
            indices = range(bisect_left(times, horizon))
            capacity_fn = capacity
        total = self.total
        changed = []
        for i in indices:
            next_t = times[i + 1] if i + 1 < n else horizon
            limited = capacity_fn(times[i], min(next_t, horizon)) - (total - free[i])
            if limited < 0:
                limited = 0
            if limited < free[i]:
                free[i] = limited
                changed.append(i)
        # Clamping can flatten a changed slot to a neighbour's level; only
        # those boundaries can merge.  Right to left keeps indices valid.
        for i in reversed(changed):
            self._merge_boundary(i + 1)
            self._merge_boundary(i)

    def _under_dips(self, calendar: "FreeSpace", horizon: float) -> List[int]:
        """Indices of the slots before ``horizon`` whose window meets a calendar dip.

        A dip is a calendar slot offering fewer than ``total`` processors.
        The calendar's first slot reaches back indefinitely, as its
        ``min_free`` clamps a window's start to the calendar's origin.
        """
        times = self._times
        limit = bisect_left(times, horizon)
        cal_times, cal_free = calendar._times, calendar._free
        cal_n = len(cal_times)
        total = self.total
        indices: List[int] = []
        first = 0
        for j in range(cal_n):
            if cal_free[j] >= total:
                continue
            if j and cal_times[j] >= horizon:
                break
            if j:
                first = max(first, bisect_right(times, cal_times[j]) - 1)
            stop = bisect_left(times, cal_times[j + 1]) if j + 1 < cal_n else limit
            stop = min(stop, limit)
            if first < stop:
                indices.extend(range(first, stop))
                first = stop
        return indices


class Plan(NamedTuple):
    """A conservative pass's placements, kept for the next pass.

    ``profile`` is the pass's working slot set after its placements;
    ``jobs`` are the queued jobs it placed but did not start, in queue
    order, and ``anchors`` their anchors.
    """

    profile: FreeSpace
    jobs: list
    anchors: List[float]


class FreeSpaceTracker:
    """The running set's :class:`FreeSpace`, patched from reported windows.

    Rebuilding the profile from the running set costs O(running x slots)
    per pass.  The owner of the running set instead reports each start
    with :meth:`start` and each completion or kill with :meth:`end`, both
    as ``(processors, expected_end)``.  The first :meth:`sync` builds the
    slot set from the running set; each later one advances it to ``now``,
    releases ``[now, expected_end)`` for each end, reserves the same window
    for each start, and lets a start and an end of the same window cancel.
    The result is, slot for slot, the structure ``FreeSpace.from_running``
    would build: both hold the same function, and a slot set with no two
    equal neighbours is unique.  The property tests assert it.

    The tracker also keeps a conservative pass's :class:`Plan` for the
    next pass (``plan``, set by
    :class:`~repro.schedulers.backfill.ConservativeBackfillScheduler`), so
    the policy object itself keeps nothing between passes.  A sync drops
    the plan when any window came back early: a job that ended before
    its expected end, whether it completed early, was killed, or started
    after the plan's pass and ended before this sync.  The plan reserved
    that capacity, so its anchors may no longer be the earliest.  A window
    whose expected end has passed by the sync frees nothing from ``now``
    on and leaves the plan alone.

    Nothing is recorded before the first sync, so an owner whose policy
    never reads the profile pays one method call per start or end.

    A sync adds ``profile_builds`` or ``profile_patches`` and the tracked
    slot set's splits and merges to ``counts``, the owner's counts dict.
    """

    __slots__ = ("total", "counts", "plan", "_fs", "_started", "_ended")

    def __init__(self, total_processors: int, counts: Counter) -> None:
        self.total = total_processors
        self.counts = counts
        #: the last conservative pass's placements, while they still hold
        self.plan: Optional[Plan] = None
        self._fs: Optional[FreeSpace] = None
        self._started: List[Tuple[int, float]] = []
        self._ended: List[Tuple[int, float]] = []

    def start(self, processors: int, expected_end: float) -> None:
        """Report a job started now that holds ``processors`` until ``expected_end``."""
        if self._fs is not None:
            self._started.append((processors, expected_end))

    def end(self, processors: int, expected_end: float) -> None:
        """Report that a job holding ``processors`` until ``expected_end`` left."""
        if self._fs is not None:
            self._ended.append((processors, expected_end))

    def sync(self, now: float, running: Iterable) -> FreeSpace:
        """The slot set at ``now``; ``running`` is read on the first sync only."""
        fs, counts = self._fs, self.counts
        if fs is None:
            counts["profile_builds"] += 1
            fs = self._fs = FreeSpace.from_running(self.total, now, running)
        else:
            fs.advance(now)
            windows, ended = self._started, self._ended
            self._started, self._ended = [], []
            patches = 0
            for window in ended:
                early = window[1] > now
                if early:
                    self.plan = None
                if window in windows:
                    # Started and ended since the last sync: the two cancel.
                    windows.remove(window)
                elif early:
                    fs.release(now, window[1], window[0])
                    patches += 1
            for processors, end in windows:
                if end > now:
                    fs.reserve(now, end, processors)
                    patches += 1
            if patches:
                counts["profile_patches"] += patches
        report_slot_stats(counts, fs)
        return fs


def report_slot_stats(counts: Counter, fs: FreeSpace) -> None:
    """Add the splits and merges ``fs`` made since its last report to ``counts``."""
    splits, merges = fs.take_stats()
    if splits:
        counts["slots_split"] += splits
    if merges:
        counts["slots_merged"] += merges
