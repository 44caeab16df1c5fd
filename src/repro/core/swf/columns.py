"""Array-backed column view of a job list.

Workload-level computations (span, offered load, load scaling, slice and
filter transforms) would otherwise walk ``SWFJob`` records attribute by
attribute — at 100k+ jobs the per-record overhead dominates.
:class:`JobColumns` extracts the hot fields once into compact
``array('q')`` (int64) columns; numpy views over those buffers (zero-copy)
let everything downstream vectorize.  Transforms that rebuild jobs from the
results go back through ``SWFJob._from_trusted_fields``, which wraps the
already-valid values in a record without re-checking them.

Columns are a *view*: they are derived from the job list on demand and
cached on the :class:`~repro.core.swf.workload.Workload` (invalidated on
append/extend).  The job list remains the source of truth, so nothing
about the SWF object model or on-disk format changes.
"""

from __future__ import annotations

from array import array
from typing import Sequence

import numpy as np

from repro.core.swf.fields import MISSING
from repro.core.swf.records import SWFJob

__all__ = ["JobColumns"]


class JobColumns:
    """Int64 columns of the hot SWF fields for a fixed job list.

    ``procs`` is the *resolved* processor count (allocated falling back to
    requested, exactly :attr:`SWFJob.processors`); ``estimate`` is the raw
    requested time.  All values keep the SWF convention of ``-1`` for
    missing.
    """

    __slots__ = (
        "n",
        "job_number",
        "submit",
        "wait",
        "run",
        "estimate",
        "procs",
        "status",
        "queue",
    )

    def __init__(self, jobs: Sequence[SWFJob]) -> None:
        self.n = len(jobs)
        self.job_number = array("q", (j.job_number for j in jobs))
        self.submit = array("q", (j.submit_time for j in jobs))
        self.wait = array("q", (j.wait_time for j in jobs))
        self.run = array("q", (j.run_time for j in jobs))
        self.estimate = array("q", (j.requested_time for j in jobs))
        self.procs = array(
            "q",
            (
                j.allocated_processors
                if j.allocated_processors != MISSING
                else j.requested_processors
                for j in jobs
            ),
        )
        self.status = array("q", (j.status for j in jobs))
        self.queue = array("q", (j.queue_number for j in jobs))

    # ------------------------------------------------------------------
    # numpy views (zero-copy over the array('q') buffers)
    # ------------------------------------------------------------------
    def np(self, name: str) -> np.ndarray:
        """Read-only int64 numpy view of a column (``submit``, ``run``, ...)."""
        column = getattr(self, name)
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        view = np.frombuffer(column, dtype=np.int64)
        view.flags.writeable = False
        return view

    def summary_mask(self) -> np.ndarray:
        """True for whole-job lines — the rule of :attr:`SWFJob.is_summary_line`.

        Partial-execution lines carry status 2/3/4; every other value
        (including out-of-range codes, which ``completion_status`` maps to
        UNKNOWN) counts as a summary line.
        """
        status = self.np("status")
        return (status < 2) | (status > 4)

    def area_per_job(self) -> np.ndarray:
        """Processor-seconds per job; 0 where size or runtime is unknown."""
        procs = self.np("procs")
        run = self.np("run")
        known = (procs != MISSING) & (run != MISSING)
        return np.where(known, procs * run, 0)

