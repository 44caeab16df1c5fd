"""Composable, seed-deterministic trace transformations.

Each transform is a small frozen dataclass with three responsibilities:

* ``apply(workload)`` — produce the transformed :class:`Workload`;
* ``identity()`` — the canonical JSON-serializable description hashed into
  the owning trace's content digest, so a transformed trace is cacheable and
  two pipelines are interchangeable iff their identities match;
* ``spec_items()`` — the ``key=value`` fragments the spec grammar renders,
  so every pipeline round-trips through the one-line ``trace:`` syntax.

The roster implements the trace manipulations the paper's methodology and
the workload-modelling literature actually use:

==============  ========================================================
``load=L``      rescale to an absolute offered load (interarrival
                compression — the paper's load-variation methodology)
``scale=F``     multiply the arrival rate by a factor (relative form)
``slice=A:B``   keep jobs submitted in ``[A, B)``; bounds accept duration
                suffixes (``0:7d``, ``12h:2d``, ``30d:``)
``min_size=``   field filters on job size, runtime, and queue
``max_size=``
``min_runtime=``
``max_runtime=``
``queue=``
``sample=N``    bootstrap-resample N jobs with replacement (private
                ``random.Random``, seed in the digest)
``nodes=N``     rescale job sizes onto an N-node machine
``head=N``      keep the first N jobs
==============  ========================================================

Transforms apply **in spec order** — ``slice=0:7d,load=1.2`` rescales the
first week, ``load=1.2,slice=0:7d`` slices the rescaled trace — and the
order is part of the digest.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.swf.fields import FIELD_NAMES, MISSING
from repro.core.swf.records import SWFJob
from repro.core.swf.workload import Workload

_ALLOC_IDX = FIELD_NAMES.index("allocated_processors")
_REQ_PROCS_IDX = FIELD_NAMES.index("requested_processors")
_PRECEDING_IDX = FIELD_NAMES.index("preceding_job")
_THINK_IDX = FIELD_NAMES.index("think_time")

__all__ = [
    "TraceTransform",
    "ScaleToLoad",
    "ScaleRate",
    "TimeSlice",
    "FieldFilter",
    "Resample",
    "RescaleMachine",
    "Head",
    "parse_duration",
    "format_duration",
    "FILTER_FIELDS",
]

#: Duration-literal suffixes accepted by ``slice=`` bounds.
_DURATION_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 7 * 86400}

_DURATION_RE = re.compile(r"^(\d+(?:\.\d+)?)([smhdw]?)$")


def parse_duration(text: str) -> int:
    """``"7d"`` → 604800; bare numbers are seconds; result is whole seconds."""
    match = _DURATION_RE.match(str(text).strip())
    if not match:
        raise ValueError(
            f"bad duration {text!r}: expected <number>[s|m|h|d|w], e.g. '7d' or '3600'"
        )
    value, unit = match.groups()
    return int(round(float(value) * _DURATION_UNITS[unit or "s"]))


def format_duration(seconds: int) -> str:
    """Render whole seconds with the largest exact unit (inverse of parse)."""
    seconds = int(seconds)
    for unit in ("w", "d", "h", "m"):
        size = _DURATION_UNITS[unit]
        if seconds and seconds % size == 0:
            return f"{seconds // size}{unit}"
    return str(seconds)


class TraceTransform:
    """Base class; subclasses are frozen dataclasses with apply/identity."""

    #: short operation name used in identities and error messages
    op: str = "transform"

    def apply(self, workload: Workload) -> Workload:  # pragma: no cover - abstract
        raise NotImplementedError

    def identity(self) -> Dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    def spec_items(self) -> List[Tuple[str, str]]:  # pragma: no cover - abstract
        """The ``(key, value)`` spec fragments this transform renders to."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScaleToLoad(TraceTransform):
    """Rescale interarrivals so the trace's offered load becomes ``target``.

    This is the absolute form of the paper's load-variation methodology:
    the machine size is read from the trace header (falling back to the
    largest job), and arrivals are compressed or stretched so total work
    divided by capacity × span equals ``target``.
    """

    target: float
    op = "load"

    def __post_init__(self) -> None:
        if self.target <= 0:
            raise ValueError("load target must be positive")

    def apply(self, workload: Workload) -> Workload:
        return workload.scale_to_load(self.target, name=f"{workload.name}@{self.target:g}")

    def identity(self) -> Dict[str, Any]:
        return {"op": self.op, "target": self.target}

    def spec_items(self) -> List[Tuple[str, str]]:
        return [("load", f"{self.target:g}")]


@dataclass(frozen=True)
class ScaleRate(TraceTransform):
    """Multiply the arrival rate by ``factor`` (relative load scaling)."""

    factor: float
    op = "scale"

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError("scale factor must be positive")

    def apply(self, workload: Workload) -> Workload:
        return workload.scale_load(self.factor)

    def identity(self) -> Dict[str, Any]:
        return {"op": self.op, "factor": self.factor}

    def spec_items(self) -> List[Tuple[str, str]]:
        return [("scale", f"{self.factor:g}")]


@dataclass(frozen=True)
class TimeSlice(TraceTransform):
    """Keep jobs submitted in ``[start, end)`` seconds, then re-origin.

    The interval is half-open — a job submitted exactly at ``end`` belongs
    to the *next* slice, so ``0:7d`` and ``7d:14d`` partition a trace with
    no job counted twice.  ``end=None`` leaves the window open.  Slicing an
    interval that contains no jobs yields an empty workload (a legitimate
    result the caller may want to detect), not an error.
    """

    start: int
    end: Optional[int]
    op = "slice"

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("slice start must be >= 0")
        if self.end is not None and self.end < self.start:
            raise ValueError(f"slice end {self.end} precedes start {self.start}")

    @classmethod
    def from_text(cls, text: str) -> "TimeSlice":
        """Parse ``"A:B"`` with duration suffixes; ``"A:"`` leaves B open."""
        raw = str(text).strip()
        if ":" not in raw:
            raise ValueError(
                f"bad slice {raw!r}: expected start:end, e.g. '0:7d' or '7d:'"
            )
        start_text, _, end_text = raw.partition(":")
        start = parse_duration(start_text) if start_text.strip() else 0
        end = parse_duration(end_text) if end_text.strip() else None
        return cls(start=start, end=end)

    def apply(self, workload: Workload) -> Workload:
        submit = workload.columns().np("submit")
        keep = (submit != MISSING) & (submit >= self.start)
        if self.end is not None:
            keep &= submit < self.end

        label = f"{self.start}:{'' if self.end is None else self.end}"
        sliced = Workload(
            [job for job, kept in zip(workload.jobs, keep.tolist()) if kept],
            header=type(workload.header)(workload.header.entries),
            name=f"{workload.name}[{label}]",
        )
        return sliced.shift_origin().renumbered()

    def identity(self) -> Dict[str, Any]:
        return {"op": self.op, "start": self.start, "end": self.end}

    def spec_items(self) -> List[Tuple[str, str]]:
        end = "" if self.end is None else format_duration(self.end)
        return [("slice", f"{format_duration(self.start)}:{end}")]


#: Filter spec keys -> (job attribute, comparison); ``queue`` is equality.
FILTER_FIELDS: Dict[str, Tuple[str, str]] = {
    "min_size": ("processors", "ge"),
    "max_size": ("processors", "le"),
    "min_runtime": ("run_time", "ge"),
    "max_runtime": ("run_time", "le"),
    "queue": ("queue_number", "eq"),
}

#: job attribute -> JobColumns column carrying the same values
_FILTER_COLUMNS: Dict[str, str] = {
    "processors": "procs",
    "run_time": "run",
    "queue_number": "queue",
}


@dataclass(frozen=True)
class FieldFilter(TraceTransform):
    """Keep jobs whose field satisfies one bound (``min_size=32`` etc.).

    Jobs whose field is unknown (``-1`` in the SWF line) are dropped — a
    filtered trace must only contain jobs the predicate provably accepts.
    """

    key: str
    value: int
    op = "filter"

    def __post_init__(self) -> None:
        if self.key not in FILTER_FIELDS:
            raise ValueError(
                f"unknown filter {self.key!r} (known: {', '.join(sorted(FILTER_FIELDS))})"
            )
        if self.key != "queue" and self.value < 0:
            raise ValueError(f"{self.key} bound must be >= 0, got {self.value}")

    def apply(self, workload: Workload) -> Workload:
        attribute, comparison = FILTER_FIELDS[self.key]
        actual = workload.columns().np(_FILTER_COLUMNS[attribute])
        if comparison == "ge":
            keep = actual >= self.value
        elif comparison == "le":
            keep = actual <= self.value
        else:
            keep = actual == self.value
        keep &= actual != MISSING
        kept = Workload(
            [job for job, k in zip(workload.jobs, keep.tolist()) if k],
            header=type(workload.header)(workload.header.entries),
            name=f"{workload.name}[{self.key}={self.value}]",
        )
        return kept.renumbered()

    def identity(self) -> Dict[str, Any]:
        return {"op": self.op, "key": self.key, "value": self.value}

    def spec_items(self) -> List[Tuple[str, str]]:
        return [(self.key, str(self.value))]


@dataclass(frozen=True)
class Resample(TraceTransform):
    """Bootstrap ``jobs`` jobs with replacement (seed-deterministic).

    Sampling uses a private ``random.Random(seed)`` — platform-independent
    and insulated from numpy and the global generator — so the same
    ``(trace, jobs, seed)`` triple is byte-stable everywhere.  Sampled
    indices are sorted, keeping the arrival order of the source trace, and
    dependency fields (preceding job / think time) are cleared: resampling
    with replacement has no coherent session structure to preserve.
    """

    jobs: int
    seed: int = 0
    op = "sample"

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("sample size must be >= 1")

    def apply(self, workload: Workload) -> Workload:
        if len(workload) == 0:
            raise ValueError(f"cannot resample empty trace {workload.name!r}")
        rng = random.Random(self.seed)
        count = len(workload)
        indices = sorted(rng.randrange(count) for _ in range(self.jobs))
        sampled = []
        for i in indices:
            job = workload[i]
            if job.preceding_job == MISSING and job.think_time == MISSING:
                sampled.append(job)
            else:
                fields = job.to_fields()
                fields[_PRECEDING_IDX] = MISSING
                fields[_THINK_IDX] = MISSING
                sampled.append(SWFJob._from_trusted_fields(fields))
        resampled = Workload(
            sampled,
            header=type(workload.header)(workload.header.entries),
            name=f"{workload.name}~{self.jobs}",
        )
        return resampled.sorted_by_submit().renumbered()

    def identity(self) -> Dict[str, Any]:
        return {"op": self.op, "jobs": self.jobs, "seed": self.seed}

    def spec_items(self) -> List[Tuple[str, str]]:
        items = [("sample", str(self.jobs))]
        if self.seed != 0:
            items.append(("sample_seed", str(self.seed)))
        return items


@dataclass(frozen=True)
class RescaleMachine(TraceTransform):
    """Rescale job sizes proportionally onto an ``nodes``-node machine.

    Sizes are multiplied by ``nodes / current machine size``, rounded, and
    clamped to ``[1, nodes]``; the header's MaxNodes is rewritten so the
    rescaled trace is self-describing.  Runtimes are untouched (the rescale
    models the same work placed on a machine of different width, which is
    how cross-machine trace comparisons are normalized in the literature).
    """

    nodes: int
    op = "nodes"

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("machine size must be >= 1")

    def apply(self, workload: Workload) -> Workload:
        factor = self.nodes / workload.resolve_machine_size()

        def rescale(value: int) -> int:
            if value == MISSING:
                return value
            return max(1, min(self.nodes, int(round(value * factor))))

        jobs = []
        for job in workload:
            fields = job.to_fields()
            fields[_ALLOC_IDX] = rescale(job.allocated_processors)
            fields[_REQ_PROCS_IDX] = rescale(job.requested_processors)
            jobs.append(SWFJob._from_trusted_fields(fields))
        header = type(workload.header)(workload.header.entries)
        header.set("MaxNodes", self.nodes)
        return Workload(jobs, header, name=f"{workload.name}/{self.nodes}n")

    def identity(self) -> Dict[str, Any]:
        return {"op": self.op, "nodes": self.nodes}

    def spec_items(self) -> List[Tuple[str, str]]:
        return [("nodes", str(self.nodes))]


@dataclass(frozen=True)
class Head(TraceTransform):
    """Keep the first ``jobs`` jobs in submit order."""

    jobs: int
    op = "head"

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ValueError("head count must be >= 0")

    def apply(self, workload: Workload) -> Workload:
        return workload.truncate(self.jobs).renumbered()

    def identity(self) -> Dict[str, Any]:
        return {"op": self.op, "jobs": self.jobs}

    def spec_items(self) -> List[Tuple[str, str]]:
        return [("head", str(self.jobs))]
