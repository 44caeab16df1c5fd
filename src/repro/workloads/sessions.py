"""Closed user-session workload generation (the feedback extension).

Section 2.2 argues that real arrivals are produced by users who wait for the
previous job to finish, think, and then submit the next one — a feedback loop
the SWF expresses through fields 17 (preceding job) and 18 (think time).
:class:`SessionModel` generates workloads with that structure explicitly:

* each user produces a sequence of *sessions*;
* within a session, consecutive jobs depend on each other: each carries its
  predecessor's number and an exponential think time;
* sessions are separated by long idle gaps (the user went home);
* job sizes/runtimes are delegated to any rigid workload model, so sessions
  can be layered on top of the Lublin, Feitelson, or Jann job mix.

The submit times recorded in the generated trace are the ones that would be
observed if every job started immediately (zero wait).  When the trace is
replayed **open** (absolute submit times), this timing is fixed regardless of
scheduler performance; when replayed **closed** (``honor_dependencies=True``
in the simulator), each dependent submittal slides with the completion of its
predecessor — reproducing the feedback effect experiment E5 measures.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.api.registry import register_model
from repro.core.swf.fields import FIELD_NAMES, MISSING
from repro.core.swf.header import SWFHeader
from repro.core.swf.records import SWFJob
from repro.core.swf.workload import Workload
from repro.simulation.distributions import make_rng
from repro.workloads.base import WorkloadModel
from repro.workloads.lublin99 import Lublin99Model

__all__ = ["SessionModel"]

_NUMBER_IDX = FIELD_NAMES.index("job_number")
_SUBMIT_IDX = FIELD_NAMES.index("submit_time")
_USER_IDX = FIELD_NAMES.index("user_id")
_PRECEDING_IDX = FIELD_NAMES.index("preceding_job")
_THINK_IDX = FIELD_NAMES.index("think_time")


@register_model("sessions")
class SessionModel(WorkloadModel):
    """Generate closed (session-structured) workloads with explicit dependencies."""

    name = "sessions"

    def __init__(
        self,
        machine_size: int = 128,
        job_model: Optional[WorkloadModel] = None,
        users: int = 40,
        mean_session_length: float = 4.0,
        mean_think_time: float = 600.0,
        mean_between_sessions: float = 8 * 3600.0,
    ) -> None:
        super().__init__(machine_size)
        if users < 1:
            raise ValueError("users must be >= 1")
        if mean_session_length < 1:
            raise ValueError("mean_session_length must be >= 1")
        if mean_think_time < 0 or mean_between_sessions < 0:
            raise ValueError("think/idle times must be non-negative")
        self.job_model = job_model if job_model is not None else Lublin99Model(machine_size)
        self.users = users
        self.mean_session_length = mean_session_length
        self.mean_think_time = mean_think_time
        self.mean_between_sessions = mean_between_sessions

    def generate(self, jobs: int, seed: Optional[int] = None) -> Workload:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        rng = make_rng(seed)

        # Draw the job mix (sizes, runtimes, executables) from the rigid model,
        # then re-time it with the session structure.
        template = self.job_model.generate(jobs, seed=None if seed is None else seed + 1)
        template_jobs = template.summary_jobs()

        per_user_jobs: List[List[SWFJob]] = [[] for _ in range(self.users)]
        for index, job in enumerate(template_jobs):
            per_user_jobs[index % self.users].append(job)

        # One (submit, template job, user, predecessor's index, think) entry
        # per job, in generation order; a predecessor is named by its index
        # here until the final numbering is known.
        provisional: List[tuple] = []
        for user_index, user_jobs in enumerate(per_user_jobs, start=1):
            if not user_jobs:
                continue
            t = float(rng.uniform(0, self.mean_between_sessions))
            position = 0
            while position < len(user_jobs):
                session_length = max(1, int(rng.geometric(1.0 / self.mean_session_length)))
                session_jobs = user_jobs[position : position + session_length]
                position += len(session_jobs)
                previous: Optional[int] = None
                previous_end = t
                for job in session_jobs:
                    if previous is None:
                        submit, think = previous_end, MISSING
                    else:
                        think_time = float(rng.exponential(self.mean_think_time))
                        submit, think = previous_end + think_time, int(round(think_time))
                    provisional.append((submit, job, user_index, previous, think))
                    previous = len(provisional) - 1
                    runtime = job.run_time if job.run_time != MISSING else 0
                    previous_end = submit + runtime  # zero-wait assumption
                t = previous_end + float(rng.exponential(self.mean_between_sessions))

        # Number the jobs 1..N by submit time, ties in generation order.  Every
        # value is a plain int, so the records skip re-validation.
        order = sorted(range(len(provisional)), key=lambda index: provisional[index][0])
        number = [0] * len(order)
        for rank, index in enumerate(order, start=1):
            number[index] = rank
        origin = provisional[order[0]][0] if order else 0.0
        records: List[SWFJob] = []
        for rank, index in enumerate(order, start=1):
            submit, job, user, previous, think = provisional[index]
            fields = job.to_fields()
            fields[_NUMBER_IDX] = rank
            fields[_SUBMIT_IDX] = int(round(submit - origin))
            fields[_USER_IDX] = user
            fields[_PRECEDING_IDX] = number[previous] if previous is not None else MISSING
            fields[_THINK_IDX] = think
            records.append(SWFJob._from_trusted_fields(fields))

        header = SWFHeader.standard(
            computer=f"synthetic machine ({self.job_model.name} mix, session arrivals)",
            installation="synthetic model: sessions",
            max_nodes=self.machine_size,
            notes=[
                "Closed session model: fields 17/18 carry explicit dependencies; "
                "submit times assume zero wait (see repro.workloads.sessions).",
            ],
        )
        return Workload(records, header, name=f"sessions-{self.job_model.name}")
