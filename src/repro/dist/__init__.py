"""Distributed, resumable bench fan-out over a shared result store.

``repro.dist`` shards suite execution across any number of worker processes
— on one machine or several hosts sharing a filesystem — with nothing but
directories and atomic file operations for coordination:

* :mod:`repro.dist.queue` — write a suite's distinct
  :class:`~repro.bench.runner.WorkUnit` list to disk and track per-suite
  progress against the store;
* :mod:`repro.dist.lease` — ``O_CREAT|O_EXCL`` claim files with TTL +
  heartbeat liveness and race-free reclaim of dead workers' leases;
* :mod:`repro.dist.worker` — the claim → ``execute_unit`` loop, the same
  execute-and-store path as the serial runner's;
* :mod:`repro.dist.gather` — completeness-gated aggregation back into a
  normal :class:`~repro.bench.runner.SuiteRunResult`.

The store itself is the ground truth for completion, so crash-resume is a
rescan for missing keys: kill any worker at any point, start another, and
the suite finishes with zero duplicated simulation.
"""

from repro.bench.runner import WorkUnit
from repro.dist.gather import QueueIncompleteError, gather
from repro.dist.lease import DEFAULT_TTL_SECONDS, Lease, LeaseBroker
from repro.dist.queue import (
    QUEUE_ENV_VAR,
    EnqueueResult,
    SuiteProgress,
    WorkQueue,
    default_queue_root,
)
from repro.dist.worker import WorkerStats, run_worker

__all__ = [
    "DEFAULT_TTL_SECONDS",
    "QUEUE_ENV_VAR",
    "EnqueueResult",
    "Lease",
    "LeaseBroker",
    "QueueIncompleteError",
    "SuiteProgress",
    "WorkQueue",
    "WorkUnit",
    "WorkerStats",
    "default_queue_root",
    "gather",
    "run_worker",
]
