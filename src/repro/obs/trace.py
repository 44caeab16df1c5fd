"""Hierarchical span tracing with Chrome trace-event export.

Where :mod:`repro.obs.telemetry` answers *how much* (counters, phase-total
histograms), this module answers *where the time went and in what order*: a
:class:`Tracer` records nested :class:`TraceSpan` records — name, parent,
start, duration, attributes — and exports them as Chrome trace-event JSON,
so any run opens directly in Perfetto or ``chrome://tracing``.

The active tracer lives in a :mod:`contextvars` variable:
:func:`trace_scope` installs one for the duration of a run, and the
module-level :func:`trace_span` helper is a cheap pass-through when no scope
is active — instrumented code pays (almost) nothing unless someone asked
for a timeline.  Context variables also carry the *current parent span*, so
nesting follows the call stack per thread and per async task with no
plumbing.

Two things the telemetry layer cannot do live here:

* **Cross-process stitching.**  ``run_many`` workers are separate
  processes; each records into its own tracer, serializes the spans with
  wall-clock-anchored start times, and the parent :meth:`Tracer.graft`\\ s
  them into its own timeline under the span that launched the fan-out.
  Every worker keeps its own track (``tid`` = worker pid), so the exported
  timeline shows the fan-out as parallel lanes.

* **Retroactive spans.**  The serve daemon learns a job's phase boundaries
  from timestamps (submitted/started/finished); :meth:`Tracer.add_span`
  records a span after the fact from those.

Clocks are injectable (``clock`` for durations, ``wall`` for the absolute
anchor) so tests can assert byte-identical exports under a fake clock.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "TraceSpan",
    "Tracer",
    "trace_scope",
    "trace_span",
    "current_tracer",
    "current_span_id",
    "chrome_trace",
    "chrome_trace_text",
    "write_chrome_trace",
]


@dataclass(frozen=True)
class TraceSpan:
    """One completed span: a named, attributed slice of the run's timeline."""

    span_id: int
    parent_id: Optional[int]
    name: str
    #: start time in seconds relative to the owning tracer's epoch
    start: float
    duration: float
    attributes: Dict[str, Any] = field(default_factory=dict)
    #: display track (0 = the tracer's own process; workers use their pid)
    tid: int = 0


class Tracer:
    """Collects spans for one run; thread-safe, bounded, export-ready.

    ``max_spans`` bounds memory for long-lived tracers (the serve daemon's):
    once full, new spans are *dropped and counted* — the export says how
    many, so a truncated timeline never reads as a complete one.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        wall: Callable[[], float] = time.time,
        max_spans: Optional[int] = None,
    ) -> None:
        self._clock = clock
        self._perf_epoch = clock()
        #: wall-clock instant of the tracer's epoch: the anchor that makes
        #: span times comparable across processes when grafting.
        self.wall_epoch = wall()
        self.max_spans = max_spans
        self.dropped = 0
        self.spans: List[TraceSpan] = []
        self._lock = threading.Lock()
        self._next_id = 1

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the tracer's epoch."""
        return self._clock() - self._perf_epoch

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def _record(self, span: TraceSpan) -> None:
        with self._lock:
            if self.max_spans is not None and len(self.spans) >= self.max_spans:
                self.dropped += 1
                return
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, tid: int = 0, **attributes: Any):
        """Record the enclosed block as a span, nested under the current one.

        The span id is allocated on entry (children born inside the block
        see it as their parent via the context variable); the span itself is
        recorded on exit, failed blocks included.
        """
        span_id = self._allocate_id()
        parent = _current_parent(self)
        token = _ACTIVE.set((self, span_id))
        start = self.now()
        try:
            yield
        finally:
            _ACTIVE.reset(token)
            self._record(
                TraceSpan(
                    span_id=span_id,
                    parent_id=parent,
                    name=name,
                    start=start,
                    duration=self.now() - start,
                    attributes=dict(attributes),
                    tid=tid,
                )
            )

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: Optional[int] = None,
        tid: int = 0,
        **attributes: Any,
    ) -> int:
        """Record a span retroactively from wall-clock timestamps.

        ``start``/``end`` are absolute ``time.time()`` instants (the serve
        daemon records those on job transitions); they are rebased onto the
        tracer's epoch.  Returns the span id so callers can attach children.
        """
        span_id = self._allocate_id()
        self._record(
            TraceSpan(
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                start=start - self.wall_epoch,
                duration=max(0.0, end - start),
                attributes=dict(attributes),
                tid=tid,
            )
        )
        return span_id

    # ------------------------------------------------------------------
    # cross-process stitching
    # ------------------------------------------------------------------
    def serialize(self) -> List[Dict[str, Any]]:
        """Picklable span dicts with wall-clock-absolute start times.

        This is what a ``run_many`` worker sends home: absolute times are
        the one representation both processes agree on, so the parent can
        rebase them onto its own epoch without guessing when the worker ran.
        """
        with self._lock:
            spans = list(self.spans)
        pid = os.getpid()
        return [
            {
                "id": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "start": self.wall_epoch + span.start,
                "duration": span.duration,
                "attributes": span.attributes,
                "tid": span.tid if span.tid else pid,
            }
            for span in spans
        ]

    def graft(
        self, serialized: Iterable[Dict[str, Any]], parent_id: Optional[int] = None
    ) -> None:
        """Stitch another tracer's serialized spans into this timeline.

        Ids are remapped to fresh ones (two workers may both have span 1),
        top-level spans are re-parented under ``parent_id``, and start times
        are rebased from absolute wall clock onto this tracer's epoch.  The
        worker-assigned ``tid`` rides through, keeping each worker on its
        own display track.
        """
        id_map: Dict[int, int] = {}
        spans = list(serialized)
        for span in spans:
            id_map[span["id"]] = self._allocate_id()
        for span in spans:
            parent = span.get("parent")
            self._record(
                TraceSpan(
                    span_id=id_map[span["id"]],
                    parent_id=id_map.get(parent, parent_id) if parent is not None else parent_id,
                    name=span["name"],
                    start=span["start"] - self.wall_epoch,
                    duration=span["duration"],
                    attributes=dict(span.get("attributes") or {}),
                    tid=int(span.get("tid", 0)),
                )
            )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def export(self) -> List[TraceSpan]:
        """Spans in deterministic order: by start time, then allocation id."""
        with self._lock:
            return sorted(self.spans, key=lambda s: (s.start, s.span_id))


# ----------------------------------------------------------------------
# contextvar scoping — (tracer, current parent span id)
# ----------------------------------------------------------------------
_ACTIVE: ContextVar[Optional[Tuple[Tracer, Optional[int]]]] = ContextVar(
    "repro_obs_tracer", default=None
)


def _current_parent(tracer: Tracer) -> Optional[int]:
    active = _ACTIVE.get()
    if active is not None and active[0] is tracer:
        return active[1]
    return None


def current_tracer() -> Optional[Tracer]:
    """The tracer installed by the nearest :func:`trace_scope` (or None)."""
    active = _ACTIVE.get()
    return active[0] if active is not None else None


def current_span_id() -> Optional[int]:
    """The id of the innermost open span on the active tracer (or None).

    ``run_many`` reads this before fanning out so worker spans graft under
    the span that launched them.
    """
    active = _ACTIVE.get()
    return active[1] if active is not None else None


@contextmanager
def trace_scope(tracer: Tracer):
    """Install ``tracer`` as the active tracer for the enclosed block.

    Scopes nest: the previous tracer is restored on exit.  The current
    parent resets to "root" on entry so a nested scope starts its own tree.
    """
    token = _ACTIVE.set((tracer, None))
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


@contextmanager
def trace_span(name: str, **attributes: Any):
    """Record a span on the active tracer; a plain pass-through without one."""
    active = _ACTIVE.get()
    if active is None:
        yield
        return
    with active[0].span(name, **attributes):
        yield


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
#: All spans render into one logical process in the trace viewer.
_TRACE_PID = 1


def chrome_trace(tracer: Tracer, process_name: str = "repro") -> Dict[str, Any]:
    """The tracer's spans as a Chrome trace-event JSON object.

    Complete (``ph: "X"``) events carry microsecond start/duration;
    metadata events name the process and every track, so Perfetto shows
    "main" and one lane per ``run_many`` worker pid.  Event order is
    deterministic (start time, then allocation id), which makes the
    rendered text stable under a fake clock.
    """
    spans = tracer.export()
    tids = sorted({span.tid for span in spans})
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _TRACE_PID,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for tid in tids:
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _TRACE_PID,
                "tid": tid,
                "args": {"name": "main" if tid == 0 else f"worker-{tid}"},
            }
        )
    for span in spans:
        args = dict(span.attributes)
        if span.parent_id is not None:
            args["parent_span"] = span.parent_id
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "pid": _TRACE_PID,
                "tid": span.tid,
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "id": span.span_id,
                "args": args,
            }
        )
    trace: Dict[str, Any] = {"displayTimeUnit": "ms", "traceEvents": events}
    if tracer.dropped:
        # A bounded tracer that overflowed must say so in the artifact.
        trace["otherData"] = {"dropped_spans": tracer.dropped}
    return trace


def chrome_trace_text(tracer: Tracer, process_name: str = "repro") -> str:
    """The export as stable JSON text (sorted keys, trailing newline)."""
    return json.dumps(chrome_trace(tracer, process_name), sort_keys=True, indent=1) + "\n"


def write_chrome_trace(tracer: Tracer, path: str, process_name: str = "repro") -> None:
    """Write the Chrome trace JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(chrome_trace_text(tracer, process_name))
