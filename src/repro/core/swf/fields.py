"""Field-level definitions of the Standard Workload Format, version 2.

Section 2.3 of the paper defines each job as one line of 18 space-separated
integers, in a fixed order.  This module is the single source of truth for

* the field order and names (:data:`FIELD_NAMES`),
* the unknown-value sentinel (``-1``, :data:`MISSING`),
* the completion-status codes including the multi-line checkpoint codes
  (:class:`CompletionStatus`),
* the interpretation of the "Requested Time" field
  (:class:`RequestedTimeKind`), and
* the predefined header-comment labels (:data:`HEADER_LABELS`).

Everything else in :mod:`repro.core.swf` (records, parser, writer, validator)
builds on these definitions, so a change to the standard is a change here.
"""

from __future__ import annotations

from enum import Enum, IntEnum

__all__ = [
    "MISSING",
    "INTERACTIVE_QUEUE",
    "SWF_VERSION",
    "FIELD_NAMES",
    "FIELD_COUNT",
    "FIELD_DESCRIPTIONS",
    "CompletionStatus",
    "RequestedTimeKind",
    "HEADER_LABELS",
]

#: Sentinel for "value not known / not applicable", per the standard.
MISSING: int = -1

#: Queue number conventionally denoting interactive jobs (Section 2.3, field 15).
INTERACTIVE_QUEUE: int = 0

#: The version of the standard implemented here ("The format described here is version 2").
SWF_VERSION: int = 2

#: Names of the 18 fields, in file order (field 1 is ``job_number``).
FIELD_NAMES: tuple = (
    "job_number",            # 1
    "submit_time",           # 2
    "wait_time",             # 3
    "run_time",              # 4
    "allocated_processors",  # 5
    "average_cpu_time",      # 6
    "used_memory",           # 7
    "requested_processors",  # 8
    "requested_time",        # 9
    "requested_memory",      # 10
    "status",                # 11
    "user_id",               # 12
    "group_id",              # 13
    "executable_id",         # 14
    "queue_number",          # 15
    "partition_number",      # 16
    "preceding_job",         # 17
    "think_time",            # 18
)

#: Number of fields on each job line.
FIELD_COUNT: int = len(FIELD_NAMES)

#: One-line description per field, used by ``swf describe`` style tooling and docs.
FIELD_DESCRIPTIONS: dict = {
    "job_number": "Counter field, starting from 1; equals the line number among job lines.",
    "submit_time": "Seconds since the start of the log (earliest submit time is 0).",
    "wait_time": "Seconds between submit time and start of execution.",
    "run_time": "Wall-clock seconds the job was running (end time minus start time).",
    "allocated_processors": "Number of processors actually allocated to the job.",
    "average_cpu_time": "Average (over allocated processors) CPU seconds used, user+system.",
    "used_memory": "Average used memory per processor, in kilobytes.",
    "requested_processors": "Number of processors requested at submit time.",
    "requested_time": "Requested wall-clock runtime or average CPU time per processor, in seconds.",
    "requested_memory": "Requested memory per processor, in kilobytes.",
    "status": "1 completed, 0 killed, -1 unknown/model; 2/3/4 for partial-execution lines.",
    "user_id": "Anonymized user number, 1..number of users.",
    "group_id": "Anonymized group number, 1..number of groups.",
    "executable_id": "Anonymized application/script number, 1..number of applications.",
    "queue_number": "Queue number; 0 denotes interactive jobs by convention.",
    "partition_number": "Partition number, 1..number of partitions.",
    "preceding_job": "Job number of a job that must terminate before this one is submitted.",
    "think_time": "Seconds between the preceding job's termination and this job's submittal.",
}


class CompletionStatus(IntEnum):
    """Values of field 11 ("Completed?").

    The base standard uses ``1`` for a completed job and ``0`` for a killed
    job, with ``-1`` meaning "not meaningful" (e.g. for synthetic models).
    Logs that record checkpoint/swap-out behaviour may carry a job on several
    lines; those partial-execution lines use codes 2 (to be continued),
    3 (last partial line, completed), and 4 (last partial line, killed), while
    the single summary line keeps codes 0/1.  Workload studies are instructed
    to use only the summary lines.
    """

    UNKNOWN = -1
    KILLED = 0
    COMPLETED = 1
    PARTIAL_TO_BE_CONTINUED = 2
    PARTIAL_LAST_COMPLETED = 3
    PARTIAL_LAST_KILLED = 4

    @property
    def is_summary(self) -> bool:
        """True for lines that summarize a whole job (codes -1, 0, 1)."""
        return self in (
            CompletionStatus.UNKNOWN,
            CompletionStatus.KILLED,
            CompletionStatus.COMPLETED,
        )

    @property
    def is_terminal_partial(self) -> bool:
        """True for the final burst of a checkpointed job (codes 3, 4)."""
        return self in (
            CompletionStatus.PARTIAL_LAST_COMPLETED,
            CompletionStatus.PARTIAL_LAST_KILLED,
        )


class RequestedTimeKind(str, Enum):
    """Interpretation of field 9, fixed per file by a header note.

    The standard allows "Requested Time" to be either a wall-clock runtime
    estimate or an average-CPU-time-per-processor request; which one applies
    is stated in a header comment, so it is a property of the
    :class:`~repro.core.swf.header.SWFHeader`, not of individual jobs.
    """

    WALLCLOCK = "wallclock"
    AVERAGE_CPU = "average_cpu"
    UNKNOWN = "unknown"


#: Predefined header-comment labels (Section 2.3, "Header Comments").
HEADER_LABELS: tuple = (
    "Version",
    "Computer",
    "Installation",
    "Acknowledge",
    "Information",
    "Conversion",
    "MaxJobs",
    "MaxRecords",
    "Preemption",
    "UnixStartTime",
    "TimeZoneString",
    "StartTime",
    "EndTime",
    "MaxNodes",
    "MaxProcs",
    "MaxRuntime",
    "MaxMemory",
    "AllowOveruse",
    "MaxQueues",
    "Queues",
    "Queue",
    "MaxPartitions",
    "Partitions",
    "Partition",
    "Note",
)
