"""The :class:`SWFJob` record — one job line of a Standard Workload Format file.

A job is stored with every one of the 18 standard fields.  Times are kept as
integers (seconds), per the standard's "all data is in integers" rule; the
parser rejects non-integer tokens and the writer emits plain integers.

The record is an immutable tuple of the 18 fields in file order (a
``namedtuple`` subclass without a per-instance ``__dict__``): attribute reads
are C-level tuple lookups, equality and hashing are those of the field tuple,
and a job costs one small allocation.  There are two ways in.  The public
constructor (``SWFJob(...)``, :meth:`SWFJob.from_fields`,
:meth:`SWFJob.replace`, unpickling) coerces and checks every field;
:meth:`SWFJob._from_trusted_fields` wraps 18 values that the caller has
already validated — the parser, which checks each line once, the
transforms that derive fields from existing jobs, and the trace cache's
fields sidecar, which holds the fields of a strict parse.

Besides the raw fields the class provides the derived quantities every
evaluation needs (start time, end time, response time, slowdown, bounded
slowdown) and convenience predicates (``is_interactive``, ``has_dependency``,
``is_summary_line``).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Optional

from repro.core.swf.fields import (
    FIELD_COUNT,
    FIELD_NAMES,
    INTERACTIVE_QUEUE,
    MISSING,
    CompletionStatus,
)

__all__ = ["SWFJob"]


def _coerce_int(name: str, value) -> int:
    """Coerce a field to int, accepting floats only when they are integral."""
    if isinstance(value, bool):
        raise TypeError(f"field {name!r} must be an integer, got bool")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value != int(value):
            raise ValueError(f"field {name!r} must be an integer, got {value}")
        return int(value)
    raise TypeError(f"field {name!r} must be an integer, got {type(value).__name__}")


_SWFFields = namedtuple("_SWFFields", FIELD_NAMES, defaults=(MISSING,) * (FIELD_COUNT - 1))


class SWFJob(_SWFFields):
    """A single job line in the Standard Workload Format (18 integer fields).

    All fields default to :data:`~repro.core.swf.fields.MISSING` (``-1``)
    except the job number, so a synthetic model can populate only the fields
    it defines — exactly the usage the standard anticipates ("a synthetic
    workload may only include information about submit times, runtimes, and
    parallelism").
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SWFJob":
        bound = _SWFFields.__new__(cls, *args, **kwargs)
        job = tuple.__new__(cls, map(_coerce_int, FIELD_NAMES, bound))
        if job.job_number < 1:
            raise ValueError(f"job_number must be >= 1, got {job.job_number}")
        return job

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_fields(cls, values: Iterable[int]) -> "SWFJob":
        """Build a job from the 18 field values in file order."""
        values = tuple(values)
        if len(values) != FIELD_COUNT:
            raise ValueError(
                f"an SWF job line has exactly {FIELD_COUNT} fields, got {len(values)}"
            )
        return cls(*values)

    @classmethod
    def _from_trusted_fields(cls, values: Iterable[int]) -> "SWFJob":
        """Build a job from 18 *pre-validated* field values in file order.

        Skips every check — the caller must guarantee exactly 18 plain
        Python ints and a positive job number.  This is the hot-path
        constructor for the parser, for columnar transforms, which derive
        every value from fields of already-validated jobs, and for the trace
        cache's fields sidecar, which records a strict parse.
        """
        return tuple.__new__(cls, values)

    def to_fields(self) -> list:
        """Return the 18 field values in file order."""
        return list(self)

    def replace(self, **changes) -> "SWFJob":
        """Return a copy with the given fields replaced (and re-validated)."""
        return type(self)(**{**self._asdict(), **changes})

    # ------------------------------------------------------------------
    # derived times
    # ------------------------------------------------------------------
    @property
    def start_time(self) -> Optional[int]:
        """Absolute start time (submit + wait), or ``None`` if unknown."""
        if self.submit_time == MISSING or self.wait_time == MISSING:
            return None
        return self.submit_time + self.wait_time

    @property
    def end_time(self) -> Optional[int]:
        """Absolute end time (start + runtime), or ``None`` if unknown."""
        start = self.start_time
        if start is None or self.run_time == MISSING:
            return None
        return start + self.run_time

    @property
    def response_time(self) -> Optional[int]:
        """Wait time plus runtime, or ``None`` if either is unknown."""
        if self.wait_time == MISSING or self.run_time == MISSING:
            return None
        return self.wait_time + self.run_time

    def slowdown(self) -> Optional[float]:
        """Response time divided by runtime (>= 1), or ``None`` if unknown.

        Jobs with zero runtime have undefined slowdown and return ``None``;
        use :meth:`bounded_slowdown` for the standard remedy.
        """
        resp = self.response_time
        if resp is None or self.run_time <= 0:
            return None
        return resp / self.run_time

    def bounded_slowdown(self, tau: float = 10.0) -> Optional[float]:
        """Bounded slowdown with interactivity threshold ``tau`` seconds.

        ``max(1, (wait + run) / max(run, tau))`` — the standard fix for the
        domination of slowdown statistics by very short jobs (Feitelson &
        Rudolph, "Metrics and benchmarking for parallel job scheduling").
        """
        resp = self.response_time
        if resp is None:
            return None
        if tau <= 0:
            raise ValueError("tau must be positive")
        return max(1.0, resp / max(self.run_time, tau))

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    @property
    def completion_status(self) -> CompletionStatus:
        """The status field as a :class:`CompletionStatus` (UNKNOWN if out of range)."""
        try:
            return CompletionStatus(self.status)
        except ValueError:
            return CompletionStatus.UNKNOWN

    @property
    def is_summary_line(self) -> bool:
        """True for whole-job lines (status -1/0/1), false for partial bursts.

        Partial-execution lines carry status 2/3/4; every other value
        (including out-of-range codes, which ``completion_status`` maps to
        UNKNOWN) counts as a summary line — the rule of
        :meth:`~repro.core.swf.columns.JobColumns.summary_mask`.
        """
        return not 2 <= self.status <= 4

    @property
    def is_completed(self) -> bool:
        """True if the job ran to completion (status 1)."""
        return self.status == CompletionStatus.COMPLETED

    @property
    def is_killed(self) -> bool:
        """True if the job was killed (status 0)."""
        return self.status == CompletionStatus.KILLED

    @property
    def is_interactive(self) -> bool:
        """True if the job was submitted to the interactive queue (queue 0)."""
        return self.queue_number == INTERACTIVE_QUEUE

    @property
    def has_dependency(self) -> bool:
        """True if the feedback fields name a preceding job."""
        return self.preceding_job != MISSING and self.preceding_job > 0

    @property
    def processors(self) -> int:
        """Best available processor count: allocated if known, else requested.

        Returns :data:`MISSING` when neither is known.
        """
        if self.allocated_processors != MISSING:
            return self.allocated_processors
        return self.requested_processors

    @property
    def area(self) -> Optional[int]:
        """Processor-seconds consumed (processors x runtime), or ``None`` if unknown."""
        procs = self.processors
        if procs == MISSING or self.run_time == MISSING:
            return None
        return procs * self.run_time

    def requested_or_actual_time(self) -> int:
        """User estimate if present, else the actual runtime (common simulator input)."""
        if self.requested_time != MISSING:
            return self.requested_time
        return self.run_time
