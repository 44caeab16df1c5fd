"""Host-speed normalization: time a fixed reference loop between measured spans.

The benchmark's host is a share of a machine whose speed wanders by up to a
half for seconds to minutes at a time (``NOTES.md`` gives figures).  A
:class:`HostSpeed` times
:func:`reference_loop` (fixed pure-Python work, none of it the program's)
between the spans the benchmark measures, and :meth:`HostSpeed.normalize`
rescales a span by the reference loop's time around it::

    normalized = span * REFERENCE_SECONDS / reference loop's time near the span

so a normalized time is the span's length on a host where the reference
loop takes :data:`REFERENCE_SECONDS`.  The loop's code is the benchmark's,
so a change to the program moves only the numerator.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
from time import perf_counter
from typing import List, Tuple

#: the reference loop's time on the nominal host that normalized times assume
REFERENCE_SECONDS = 3e-3
#: at most one sample per this many seconds, so sampling costs ~3% of a run
SAMPLE_INTERVAL = 0.1


def reference_loop(steps: int = 3000) -> int:
    """Fixed interpreter work shaped like an event loop: heap, dict, sort."""
    heap: List[Tuple[int, int]] = []
    table = {}
    total = 0
    for step in range(steps):
        heapq.heappush(heap, ((step * 7919) % 1009, step))
        if len(heap) > 64:
            when, event = heapq.heappop(heap)
            table[event & 255] = when
            total += table.get((event + 1) & 255, 0)
    return total + len(sorted(table.values(), reverse=True))


class HostSpeed:
    """Reference-loop samples, each ``(midpoint, seconds)``, in time order."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.seconds: List[float] = []

    def sample(self) -> None:
        started = perf_counter()
        reference_loop()
        elapsed = perf_counter() - started
        self.times.append(started + elapsed / 2)
        self.seconds.append(elapsed)

    def maybe_sample(self) -> None:
        """Sample unless the last sample is less than ``SAMPLE_INTERVAL`` old."""
        if not self.times or perf_counter() - self.times[-1] >= SAMPLE_INTERVAL:
            self.sample()

    def normalize(self, start: float, end: float) -> float:
        """``end - start`` rescaled by the median sample from just before to just after it."""
        low = max(0, bisect.bisect_left(self.times, start) - 1)
        high = min(len(self.times), bisect.bisect_right(self.times, end) + 1)
        return (end - start) * REFERENCE_SECONDS / statistics.median(self.seconds[low:high])

    def median_seconds(self) -> float:
        return statistics.median(self.seconds) if self.seconds else 0.0
