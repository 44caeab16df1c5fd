"""Results of a scheduler simulation: per-job records and run-level containers.

Every evaluation driver (the space-sharing simulator, the gang-scheduling
simulator, the grid simulator) produces a :class:`SimulationResult`, so the
metrics in :mod:`repro.metrics` and the experiment harnesses can treat them
uniformly.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.swf.records import SWFJob

__all__ = ["JobResult", "ResultColumns", "SimulationResult"]


@dataclass(slots=True)
class JobResult:
    """Outcome of one job in a simulation.

    Times are absolute simulation seconds.  ``killed`` marks jobs that were
    terminated by an outage and not successfully re-run; ``restarts`` counts
    how many times the job was restarted after a node failure.

    The drivers build one per job, positionally: a slotted class without
    ``frozen`` costs a fraction of a frozen one, whose ``__init__`` sets
    each field through ``object.__setattr__``.  Nothing hashes or mutates a
    result once it is built; derive a changed copy with
    :func:`dataclasses.replace`.
    """

    job: SWFJob
    submit_time: float
    start_time: float
    end_time: float
    processors: int
    killed: bool = False
    restarts: int = 0
    site: Optional[str] = None

    @property
    def job_id(self) -> int:
        return self.job.job_number

    @property
    def wait_time(self) -> float:
        """Seconds between submittal and the (final) start of execution."""
        return self.start_time - self.submit_time

    @property
    def run_time(self) -> float:
        """Seconds of the final (successful or killed) execution."""
        return self.end_time - self.start_time

    @property
    def response_time(self) -> float:
        """Seconds between submittal and termination."""
        return self.end_time - self.submit_time

    def slowdown(self) -> float:
        """Response time over runtime; infinite for zero-runtime jobs."""
        if self.run_time <= 0:
            return float("inf")
        return self.response_time / self.run_time

    def bounded_slowdown(self, tau: float = 10.0) -> float:
        """max(1, response / max(runtime, tau)) — the standard bounded slowdown."""
        if tau <= 0:
            raise ValueError("tau must be positive")
        return max(1.0, self.response_time / max(self.run_time, tau))

    @property
    def area(self) -> float:
        """Processor-seconds consumed by the final execution."""
        return self.processors * self.run_time


class ResultColumns:
    """Float64/int64 column view of a job-result list.

    Metric aggregation over 100k+ jobs is dominated by per-object property
    calls; these columns extract the raw times once (``array('d')`` for the
    float simulation times, ``array('q')`` for processor counts) so the
    derived quantities (wait, response, slowdown) become whole-array
    expressions with bit-identical float semantics — each is the same
    float64 subtraction/division the per-job properties perform.
    """

    __slots__ = ("n", "submit", "start", "end", "procs", "killed")

    def __init__(self, jobs: List["JobResult"]) -> None:
        self.n = len(jobs)
        self.submit = array("d", (j.submit_time for j in jobs))
        self.start = array("d", (j.start_time for j in jobs))
        self.end = array("d", (j.end_time for j in jobs))
        self.procs = array("q", (j.processors for j in jobs))
        self.killed = np.fromiter((j.killed for j in jobs), dtype=bool, count=self.n)

    def np(self, name: str) -> np.ndarray:
        """Zero-copy numpy view of a column (``submit``, ``start``, ...)."""
        if name == "killed":
            return self.killed
        column = getattr(self, name)
        dtype = np.int64 if column.typecode == "q" else np.float64
        if self.n == 0:
            return np.empty(0, dtype=dtype)
        view = np.frombuffer(column, dtype=dtype)
        view.flags.writeable = False
        return view


@dataclass
class SimulationResult:
    """All per-job results of one simulation run, plus run-level context."""

    scheduler_name: str
    machine_size: int
    jobs: List[JobResult] = field(default_factory=list)
    #: node-seconds actually available during the run (accounts for outages);
    #: ``None`` means the machine was fully available throughout.
    available_node_seconds: Optional[float] = None
    #: number of job executions aborted by outages (including successful restarts)
    outage_kills: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)
    #: deterministic per-run counters (events processed, scheduling
    #: passes, backfill decisions, queue depth high-water marks).  Derived
    #: only from simulated facts — never wall-clock time — so serial and
    #: parallel runs of the same scenario report bit-identical values.
    counters: Dict[str, int] = field(default_factory=dict)
    #: ids of the jobs that never finished: still queued, or still waiting on
    #: a predecessor, when the events ran out.  With the jobs skipped as too
    #: wide, finished + unfinished accounts for every submitted job.
    #: :class:`~repro.evaluation.simulator.MachineSimulation` and each grid
    #: site's result fill it (a site lists its local jobs; meta jobs are in
    #: ``GridResult.unfinished_meta_jobs``).  A merged grid result counts the
    #: sites' lists in ``metadata["unfinished"]``, since local ids repeat
    #: across sites; the gang simulator leaves it empty.
    unfinished: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)

    def columns(self) -> ResultColumns:
        """Column view of the per-job results (cached until jobs change)."""
        cached = self.__dict__.get("_columns")
        if cached is None or cached.n != len(self.jobs):
            cached = ResultColumns(self.jobs)
            self.__dict__["_columns"] = cached
        return cached

    def completed_jobs(self) -> List[JobResult]:
        """Jobs that terminated normally (not killed)."""
        return [j for j in self.jobs if not j.killed]

    @property
    def makespan(self) -> float:
        """Seconds from the first submittal to the last completion."""
        if not self.jobs:
            return 0.0
        cols = self.columns()
        return float(cols.np("end").max()) - float(cols.np("submit").min())

    @property
    def span(self) -> float:
        """Alias of :attr:`makespan` (workload-archive terminology)."""
        return self.makespan

    def total_area(self) -> float:
        """Processor-seconds consumed by completed jobs."""
        cols = self.columns()
        completed = ~cols.killed
        run = cols.np("end")[completed] - cols.np("start")[completed]
        return float((cols.np("procs")[completed] * run).sum())
