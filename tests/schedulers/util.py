"""Helpers for constructing scheduler states in policy unit tests."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.schedulers.base import JobRequest, RunningJobInfo, SchedulerState
from tests.conftest import make_job


def make_request(
    job_id: int,
    processors: int,
    runtime: int = 100,
    estimate: Optional[int] = None,
    submit: int = 0,
) -> JobRequest:
    """A JobRequest with explicit processors/runtime/estimate."""
    estimate = runtime if estimate is None else estimate
    job = make_job(
        job_id,
        submit=submit,
        runtime=runtime,
        processors=processors,
        requested_time=estimate,
    )
    return JobRequest(
        job=job, job_id=job_id, processors=processors, runtime=runtime, estimate=estimate,
        submit_time=submit,
    )


def make_state(
    total: int,
    queue: Sequence[JobRequest] = (),
    running: Sequence[Tuple[JobRequest, float, float]] = (),
    now: float = 0.0,
    calendar=None,
    counts=None,
) -> SchedulerState:
    """Scheduler state with free processors derived from the running jobs."""
    running_infos = [
        RunningJobInfo(request=req, start_time=start, expected_end=end)
        for req, start, end in running
    ]
    used = sum(info.processors for info in running_infos)
    return SchedulerState(
        now=now,
        total_processors=total,
        free_processors=total - used,
        queue=list(queue),
        running=running_infos,
        calendar=calendar,
        counts=counts,
    )
