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
  breakpoint in between.

* :class:`FreeSpaceTracker` — maintains one :class:`FreeSpace` across
  scheduling events.  Instead of rebuilding from the running set each
  pass, it advances the slot origin to ``now`` and patches only the diff:
  jobs that started since the last pass reserve their window, jobs that
  finished (or were killed by an outage) release theirs.

Every "capacity over a window" question in the repository is answered by
a :class:`FreeSpace`: the policies' free-processor profiles, the driver's
announced-outage capacity (``MachineSimulation``), a grid site's
reservation calendar, and the available node-seconds behind outage-aware
utilization.  Every query is value-equivalent to the original breakpoint
scan, asserted bit-for-bit in ``tests/schedulers/test_freespace.py``
against a verbatim copy of the old implementation.

The tracker and the conservative policy emit deterministic telemetry
(``slots_split``, ``slots_merged``, ``profile_patches``) derived only from
simulated facts, so the counters ride in ``MetricsReport.counters``
bit-identically across serial and parallel runs.  A :class:`FreeSpace`
itself only tallies its splits and merges; capacity calendars never
report them.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.telemetry import count

__all__ = ["FreeSpace", "FreeSpaceTracker"]


class FreeSpace:
    """Free processors over future time, as a sorted slot set.

    Invariants: ``_times`` is strictly increasing with ``_times[0] == now``;
    slot ``i`` spans ``[_times[i], _times[i+1])`` (last slot open-ended)
    and offers ``_free[i]`` processors.  Adjacent slots never hold equal
    free counts (they are merged on the spot), which keeps the slot count
    proportional to the number of *distinct* reservation edges rather
    than the number of operations ever applied.
    """

    __slots__ = ("total", "now", "_times", "_free", "splits", "merges")

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

    @classmethod
    def from_running(
        cls,
        total_processors: int,
        now: float,
        running: Sequence,
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
    def free_at(self, time: float) -> int:
        """Free processors at ``time`` (clamped to now)."""
        time = max(time, self.now)
        return self._free[bisect_right(self._times, time) - 1]

    def min_free(self, start: float, end: float) -> int:
        """Minimum free processors over [start, end)."""
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
        """Earliest time >= ``not_before`` with ``processors`` free for ``duration``.

        Walks slots left to right.  When a slot inside the candidate window
        cannot host the request, every anchor before that slot's *end* is
        infeasible too (its window would still contain the slot), so the
        walk jumps straight there — each slot is visited at most once per
        call instead of once per candidate breakpoint.
        """
        if processors > self.total:
            raise ValueError(
                f"a request for {processors} processors can never fit a "
                f"{self.total}-processor machine"
            )
        anchor = self.now if not_before is None else max(not_before, self.now)
        times, free = self._times, self._free
        n = len(times)
        index = bisect_right(times, anchor) - 1
        while True:
            if free[index] < processors:
                blocker = index
            else:
                blocker = -1
                end = anchor + duration
                scan = index + 1
                while scan < n and times[scan] < end:
                    if free[scan] < processors:
                        blocker = scan
                        break
                    scan += 1
            if blocker < 0:
                return anchor
            if blocker + 1 >= n:
                # Matches the old breakpoint scan's fallback: past the last
                # boundary the machine is (in practice) fully free again.
                return max(times[-1], anchor)
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

    def segments(self) -> List[Tuple[float, int]]:
        """(time, free) slot boundaries, for inspection and tests."""
        return list(zip(self._times, self._free))

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

    def clamp_capacity(self, capacity_fn: Callable[[float, float], int], horizon: float) -> None:
        """Clamp free counts to an external capacity function over [now, horizon).

        Outage-aware backfilling: the free curve can never exceed the
        announced available capacity.  Samples the function per slot, like
        the old per-breakpoint loop — callers pass the windowed minimum of
        another piecewise-constant :class:`FreeSpace` (the driver's
        announced-outage calendar), so per-slot sampling is exact.
        """
        times, free = self._times, self._free
        n = len(times)
        total = self.total
        for i in range(n):
            t = times[i]
            if t >= horizon:
                break
            next_t = times[i + 1] if i + 1 < n else horizon
            cap = capacity_fn(t, min(next_t, horizon))
            busy = total - free[i]
            limited = cap - busy
            if limited < 0:
                limited = 0
            if limited < free[i]:
                free[i] = limited
        # Clamping can flatten neighbouring slots to equal values; sweep
        # once so later walks skip them.  (Merging never changes any query
        # result — equal adjacent slots answer identically.)
        i = 1
        while i < len(self._times):
            if self._free[i - 1] == self._free[i]:
                del self._times[i]
                del self._free[i]
                self.merges += 1
            else:
                i += 1


class FreeSpaceTracker:
    """Maintain a :class:`FreeSpace` incrementally across scheduling passes.

    The simulator hands each pass a fresh running-set snapshot.  Rather
    than rebuilding the profile from it (O(running x slots) per pass), the
    tracker advances the previous slot set to ``state.now`` and patches
    the *diff*: newly started jobs reserve ``[now, expected_end)``,
    vanished jobs (completed, or killed by an outage) release the
    remainder of theirs.  The result is, slot for slot, the structure
    ``FreeSpace.from_running`` would have built — an invariant asserted
    by the property tests.

    Time must be monotone within one tracked simulation (the simulator
    guarantees this); a pass with an earlier ``now`` or a different
    machine size triggers a full rebuild, which also covers reusing one
    scheduler instance across simulations.
    """

    __slots__ = ("_fs", "_known")

    def __init__(self) -> None:
        self._fs: Optional[FreeSpace] = None
        #: job_id -> (processors, expected_end) as of the last sync
        self._known: Dict[int, Tuple[int, float]] = {}

    def reset(self) -> None:
        self._fs = None
        self._known = {}

    def sync(self, state) -> FreeSpace:
        """Bring the tracked slot set up to date with ``state``; return it."""
        now = state.now
        fs = self._fs
        if fs is None or now < fs.now or fs.total != state.total_processors:
            return self._rebuild(state)
        fs.advance(now)
        known = self._known
        current: Dict[int, Tuple[int, float]] = {}
        patches = 0
        for info in state.running:
            end = info.expected_end
            if end < now:
                end = now
            current[info.request.job_id] = (info.processors, end)
        for job_id, (procs, end) in known.items():
            if job_id not in current and end > now:
                fs.release(now, end, procs)
                patches += 1
        for job_id, entry in current.items():
            old = known.get(job_id)
            if old is None:
                procs, end = entry
                if end > now:
                    fs.reserve(now, end, procs)
                    patches += 1
            elif old != entry:
                # Same id, different window: an outage killed and
                # resubmitted the job between passes, or its clamped end
                # moved.  Swap the remaining contribution.
                old_procs, old_end = old
                procs, end = entry
                if old_end > now:
                    fs.release(now, old_end, old_procs)
                    patches += 1
                if end > now:
                    fs.reserve(now, end, procs)
                    patches += 1
        self._known = current
        if patches:
            count("profile_patches", patches)
        splits, merges = fs.take_stats()
        if splits:
            count("slots_split", splits)
        if merges:
            count("slots_merged", merges)
        return fs

    def _rebuild(self, state) -> FreeSpace:
        count("profile_builds")
        now = state.now
        running = state.running
        fs = FreeSpace.from_running(state.total_processors, now, running)
        splits, merges = fs.take_stats()
        if splits:
            count("slots_split", splits)
        if merges:
            count("slots_merged", merges)
        self._fs = fs
        self._known = {
            info.request.job_id: (info.processors, max(info.expected_end, now)) for info in running
        }
        return fs
