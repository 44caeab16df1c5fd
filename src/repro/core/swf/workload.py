"""The :class:`Workload` container: a header plus an ordered list of jobs.

A workload is what every other part of the library consumes: schedulers
replay it, models generate it, statistics summarize it, and the SWF parser
and writer convert it to and from the on-disk standard format.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.swf.columns import JobColumns
from repro.core.swf.fields import FIELD_NAMES, MISSING
from repro.core.swf.header import SWFHeader
from repro.core.swf.records import SWFJob

__all__ = ["Workload"]

_SUBMIT_IDX = FIELD_NAMES.index("submit_time")
_NUMBER_IDX = FIELD_NAMES.index("job_number")
_PRECEDING_IDX = FIELD_NAMES.index("preceding_job")
_THINK_IDX = FIELD_NAMES.index("think_time")


class Workload:
    """An ordered collection of :class:`SWFJob` records with an :class:`SWFHeader`.

    The class is deliberately list-like (iteration, ``len``, indexing) and
    adds the workload-level operations the evaluation methodology needs:
    summary-line filtering, time-span and offered-load computation, load
    scaling, and job renumbering.
    """

    def __init__(
        self,
        jobs: Optional[Iterable[SWFJob]] = None,
        header: Optional[SWFHeader] = None,
        name: str = "workload",
    ) -> None:
        self._jobs: List[SWFJob] = list(jobs or [])
        self.header: SWFHeader = header if header is not None else SWFHeader()
        self.name = name
        self._columns: Optional[JobColumns] = None

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[SWFJob]:
        return iter(self._jobs)

    def __getitem__(self, index):
        return self._jobs[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Workload):
            return NotImplemented
        return self._jobs == other._jobs and self.header == other.header

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workload(name={self.name!r}, jobs={len(self._jobs)})"

    @property
    def jobs(self) -> List[SWFJob]:
        """The job list (a reference, not a copy; treat as read-only)."""
        return self._jobs

    def append(self, job: SWFJob) -> None:
        """Append a job to the workload."""
        self._jobs.append(job)
        self._columns = None

    def extend(self, jobs: Iterable[SWFJob]) -> None:
        """Append several jobs to the workload."""
        self._jobs.extend(jobs)
        self._columns = None

    def columns(self) -> JobColumns:
        """Int64 column view of the hot job fields (cached until mutation)."""
        if self._columns is None or self._columns.n != len(self._jobs):
            self._columns = JobColumns(self._jobs)
        return self._columns

    def copy(self, name: Optional[str] = None) -> "Workload":
        """Shallow copy (jobs are immutable, so sharing them is safe)."""
        return Workload(
            jobs=list(self._jobs),
            header=SWFHeader(self.header.entries),
            name=name if name is not None else self.name,
        )

    # ------------------------------------------------------------------
    # views and filters
    # ------------------------------------------------------------------
    def summary_jobs(self) -> List[SWFJob]:
        """Only whole-job lines (status -1/0/1), as workload studies should use."""
        return [job for job in self._jobs if job.is_summary_line]

    def partial_jobs(self) -> List[SWFJob]:
        """Only the partial-execution burst lines (status 2/3/4)."""
        return [job for job in self._jobs if not job.is_summary_line]

    def filter(self, predicate: Callable[[SWFJob], bool], name: Optional[str] = None) -> "Workload":
        """New workload containing the jobs for which ``predicate`` is true."""
        return Workload(
            jobs=[job for job in self._jobs if predicate(job)],
            header=SWFHeader(self.header.entries),
            name=name if name is not None else f"{self.name}-filtered",
        )

    def sorted_by_submit(self) -> "Workload":
        """New workload with jobs sorted by ascending submit time (stable)."""
        cols = self.columns()
        order = np.lexsort((cols.np("job_number"), cols.np("submit")))
        jobs = self._jobs
        ordered = [jobs[idx] for idx in order.tolist()]
        return Workload(ordered, SWFHeader(self.header.entries), name=self.name)

    def renumbered(self) -> "Workload":
        """New workload with job numbers rewritten to 1..N in current order.

        Dependency references (field 17) are remapped when the preceding job
        is present in the workload and dropped otherwise, preserving the
        standard's requirement that job numbers match line numbers.
        """
        mapping = {job.job_number: idx + 1 for idx, job in enumerate(self._jobs)}
        renumbered: List[SWFJob] = []
        for idx, job in enumerate(self._jobs):
            preceding = job.preceding_job
            think = job.think_time
            if preceding != MISSING:
                if preceding in mapping:
                    preceding = mapping[preceding]
                else:
                    preceding = MISSING
                    think = MISSING
            if job.job_number == idx + 1 and preceding == job.preceding_job and think == job.think_time:
                renumbered.append(job)
                continue
            fields = job.to_fields()
            fields[_NUMBER_IDX] = idx + 1
            fields[_PRECEDING_IDX] = preceding
            fields[_THINK_IDX] = think
            renumbered.append(SWFJob._from_trusted_fields(fields))
        return Workload(renumbered, SWFHeader(self.header.entries), name=self.name)

    # ------------------------------------------------------------------
    # workload-level quantities
    # ------------------------------------------------------------------
    def span(self) -> int:
        """Seconds from the first submit to the last known completion (or submit)."""
        cols = self.columns()
        summary = cols.summary_mask()
        if not summary.any():
            return 0
        submit = cols.np("submit")[summary]
        wait = cols.np("wait")[summary]
        run = cols.np("run")[summary]
        known_submit = submit != MISSING
        if not known_submit.any():
            raise ValueError("min() arg is an empty sequence")
        start = int(submit[known_submit].min())
        # end_time when submit/wait/run are all known, else the submit time;
        # candidates that land exactly on the -1 sentinel are skipped, like
        # the per-job loop this replaces.
        has_end = known_submit & (wait != MISSING) & (run != MISSING)
        candidate = np.where(has_end, submit + wait + run, submit)
        candidate = candidate[candidate != MISSING]
        end = int(candidate.max()) if candidate.size else start
        return max(0, max(start, end) - start)

    def total_area(self) -> int:
        """Total processor-seconds demanded by summary jobs with known size and runtime."""
        cols = self.columns()
        return int(cols.area_per_job()[cols.summary_mask()].sum())

    def offered_load(self, machine_size: Optional[int] = None) -> float:
        """Offered load: total area divided by (machine size x submit-time span).

        ``machine_size`` defaults to the header's MaxNodes.  Returns 0.0 for
        degenerate workloads (no span or unknown machine size).
        """
        if machine_size is None:
            machine_size = self.header.max_nodes
        if not machine_size:
            return 0.0
        cols = self.columns()
        summary = cols.summary_mask()
        if int(summary.sum()) < 2:
            return 0.0
        submit = cols.np("submit")[summary]
        submit = submit[submit != MISSING]
        if not submit.size:
            return 0.0
        span = int(submit.max()) - int(submit.min())
        if span <= 0:
            return 0.0
        return self.total_area() / (machine_size * span)

    def max_processors(self) -> int:
        """Largest processor count appearing in the workload (0 if none known)."""
        cols = self.columns()
        procs = cols.np("procs")[cols.summary_mask()]
        procs = procs[procs != MISSING]
        return int(procs.max()) if procs.size else 0

    def resolve_machine_size(self, machine_size: Optional[int] = None) -> int:
        """The machine this workload runs on.

        ``machine_size`` when given, else the header's MaxNodes, else the
        largest job.  Raises :class:`ValueError` when none of them is known.
        """
        size = machine_size or self.header.max_nodes or self.max_processors()
        if not size:
            raise ValueError(
                f"machine size is unknown: {self.name!r} has no machine size in "
                "its header and no job declares a size; pass machine_size explicitly"
            )
        return int(size)

    def users(self) -> List[int]:
        """Sorted distinct user ids (missing values excluded)."""
        return sorted({j.user_id for j in self._jobs if j.user_id != MISSING})

    def groups(self) -> List[int]:
        """Sorted distinct group ids (missing values excluded)."""
        return sorted({j.group_id for j in self._jobs if j.group_id != MISSING})

    def executables(self) -> List[int]:
        """Sorted distinct executable ids (missing values excluded)."""
        return sorted({j.executable_id for j in self._jobs if j.executable_id != MISSING})

    # ------------------------------------------------------------------
    # transformations used by the evaluation methodology
    # ------------------------------------------------------------------
    def scale_load(self, factor: float, name: Optional[str] = None) -> "Workload":
        """Change the offered load by stretching or compressing interarrival times.

        A ``factor`` of 1.2 increases the offered load by 20% (arrivals come
        20% faster); runtimes and sizes are untouched, which is the standard
        way the literature varies load when replaying a trace or model.
        """
        if factor <= 0:
            raise ValueError("load scale factor must be positive")
        cols = self.columns()
        submit = cols.np("submit")
        known = submit != MISSING
        # int(round(x)) on float64 — np.rint is the same round-half-to-even
        scaled = np.where(known, np.rint(submit / factor).astype(np.int64), submit)
        numbers = cols.np("job_number")
        # one fused pass replaces replace-all + sorted_by_submit + renumbered
        # (three full object rebuilds); np.lexsort is stable with the same
        # (submit, job_number) key
        order = np.lexsort((numbers, scaled))
        mapping = {int(numbers[idx]): rank + 1 for rank, idx in enumerate(order)}
        scaled_list = scaled.tolist()
        jobs = self._jobs
        rebuilt: List[SWFJob] = []
        for rank, idx in enumerate(order.tolist()):
            fields = jobs[idx].to_fields()
            fields[_NUMBER_IDX] = rank + 1
            fields[_SUBMIT_IDX] = scaled_list[idx]
            preceding = fields[_PRECEDING_IDX]
            if preceding != MISSING:
                remapped = mapping.get(preceding)
                if remapped is None:
                    fields[_PRECEDING_IDX] = MISSING
                    fields[_THINK_IDX] = MISSING
                else:
                    fields[_PRECEDING_IDX] = remapped
            rebuilt.append(SWFJob._from_trusted_fields(fields))
        return Workload(rebuilt, SWFHeader(self.header.entries),
                        name=name if name is not None else f"{self.name}-x{factor:g}")

    def scale_to_load(
        self, load: float, machine_size: Optional[int] = None, name: Optional[str] = None
    ) -> "Workload":
        """:meth:`scale_load` by the factor that makes the offered load ``load``.

        The offered load is measured on :meth:`resolve_machine_size`.  Raises
        :class:`ValueError` when there is none to rescale: fewer than two
        jobs, or all of them submitted at one instant.
        """
        current = self.offered_load(self.resolve_machine_size(machine_size))
        if current <= 0:
            raise ValueError(
                f"cannot rescale {self.name!r} to load {load:g}: it has no "
                "measurable offered load (fewer than two jobs, or no submit-time span)"
            )
        return self.scale_load(load / current, name=name)

    def truncate(self, max_jobs: int, name: Optional[str] = None) -> "Workload":
        """Keep only the first ``max_jobs`` jobs (by current order)."""
        if max_jobs < 0:
            raise ValueError("max_jobs must be non-negative")
        return Workload(
            self._jobs[:max_jobs],
            SWFHeader(self.header.entries),
            name=name if name is not None else f"{self.name}-head{max_jobs}",
        )

    def shift_origin(self) -> "Workload":
        """Shift submit times so the earliest submit time becomes zero."""
        submit = self.columns().np("submit")
        known = submit != MISSING
        if not known.any():
            return self.copy()
        origin = int(submit[known].min())
        shifted: List[SWFJob] = []
        for job, new_submit in zip(self._jobs, np.where(known, submit - origin, submit).tolist()):
            if job.submit_time == new_submit:
                shifted.append(job)
            else:
                fields = job.to_fields()
                fields[_SUBMIT_IDX] = new_submit
                shifted.append(SWFJob._from_trusted_fields(fields))
        return Workload(shifted, SWFHeader(self.header.entries), name=self.name)
