"""Consistency rules for Standard Workload Format workloads.

Section 2.3 requires that "every datum must abide to strict consistency
rules, that when checked ensure that the workload is always 'clean'".  This
module implements those checks:

Errors (the file does not conform to the standard)
    * job numbers must be the counter 1..N in file order,
    * job lines must be sorted by ascending submit time,
    * the earliest submit time must be zero,
    * field values must be ``-1`` or non-negative (and within their domain,
      e.g. status in {-1,0,1,2,3,4}, ids >= 1),
    * a preceding job (field 17) must reference an earlier job in the file,
    * checkpointed jobs (status 2/3/4 lines) must share the job number of a
      summary line, only the first burst may carry a submit time, and the last
      burst must carry a terminal code (3 or 4).

Warnings (legal but suspicious, typically a conversion bug)
    * allocated processors exceed MaxNodes from the header,
    * runtime exceeds MaxRuntime, memory exceeds MaxMemory,
    * used resources exceed the request while ``AllowOveruse: No``,
    * wait or run time missing on a real (non-model) trace.

:func:`validate` returns a :class:`ValidationReport`; ``report.is_clean``
is true when there are no errors.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.core.swf.fields import MISSING, CompletionStatus
from repro.core.swf.records import SWFJob
from repro.core.swf.workload import Workload

__all__ = ["Severity", "ValidationIssue", "ValidationReport", "validate"]


class Severity(str, Enum):
    """Severity of a validation finding."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class ValidationIssue:
    """A single validation finding tied to a job (or to the whole workload)."""

    severity: Severity
    rule: str
    message: str
    job_number: Optional[int] = None

    def __str__(self) -> str:
        where = f"job {self.job_number}" if self.job_number is not None else "workload"
        return f"[{self.severity.value}] {where}: {self.rule}: {self.message}"


@dataclass
class ValidationReport:
    """All findings from one :func:`validate` run."""

    issues: List[ValidationIssue] = field(default_factory=list)

    def add(
        self,
        severity: Severity,
        rule: str,
        message: str,
        job_number: Optional[int] = None,
    ) -> None:
        self.issues.append(
            ValidationIssue(severity=severity, rule=rule, message=message, job_number=job_number)
        )

    @property
    def errors(self) -> List[ValidationIssue]:
        return [i for i in self.issues if i.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[ValidationIssue]:
        return [i for i in self.issues if i.severity is Severity.WARNING]

    @property
    def is_clean(self) -> bool:
        """True when the workload satisfies every hard consistency rule."""
        return not self.errors

    def summary(self) -> str:
        return f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"


# ----------------------------------------------------------------------
# individual rules
# ----------------------------------------------------------------------
_NONNEGATIVE_FIELDS = (
    "submit_time",
    "wait_time",
    "run_time",
    "average_cpu_time",
    "used_memory",
    "requested_time",
    "requested_memory",
    "think_time",
)

_POSITIVE_ID_FIELDS = (
    "allocated_processors",
    "requested_processors",
    "user_id",
    "group_id",
    "executable_id",
    "partition_number",
    "preceding_job",
)


def _check_field_domains(job: SWFJob, report: ValidationReport) -> None:
    for name in _NONNEGATIVE_FIELDS:
        value = getattr(job, name)
        if value != MISSING and value < 0:
            report.add(
                Severity.ERROR,
                "field-domain",
                f"{name} must be -1 or non-negative, got {value}",
                job.job_number,
            )
    for name in _POSITIVE_ID_FIELDS:
        value = getattr(job, name)
        if value != MISSING and value < 1:
            report.add(
                Severity.ERROR,
                "field-domain",
                f"{name} must be -1 or >= 1, got {value}",
                job.job_number,
            )
    if job.queue_number != MISSING and job.queue_number < 0:
        report.add(
            Severity.ERROR,
            "field-domain",
            f"queue_number must be -1 or >= 0, got {job.queue_number}",
            job.job_number,
        )
    if job.status not in (s.value for s in CompletionStatus):
        report.add(
            Severity.ERROR,
            "field-domain",
            f"status must be one of -1,0,1,2,3,4, got {job.status}",
            job.job_number,
        )


def _check_numbering_and_order(workload: Workload, report: ValidationReport) -> None:
    expected = 1
    previous_submit: Optional[int] = None
    seen_numbers = set()
    for job in workload:
        if job.job_number in seen_numbers and job.is_summary_line:
            report.add(
                Severity.ERROR,
                "job-numbering",
                "duplicate job number on a summary line",
                job.job_number,
            )
        seen_numbers.add(job.job_number)
        if job.is_summary_line:
            if job.job_number != expected:
                report.add(
                    Severity.ERROR,
                    "job-numbering",
                    f"summary job numbers must be sequential starting at 1 "
                    f"(expected {expected}, got {job.job_number})",
                    job.job_number,
                )
                expected = job.job_number + 1
            else:
                expected += 1
        if job.submit_time != MISSING:
            if previous_submit is not None and job.submit_time < previous_submit:
                report.add(
                    Severity.ERROR,
                    "submit-order",
                    f"submit times must be non-decreasing "
                    f"({job.submit_time} after {previous_submit})",
                    job.job_number,
                )
            previous_submit = job.submit_time

    summary = workload.summary_jobs()
    known_submits = [j.submit_time for j in summary if j.submit_time != MISSING]
    if known_submits and min(known_submits) != 0:
        report.add(
            Severity.ERROR,
            "time-origin",
            f"the earliest submit time must be 0, got {min(known_submits)}",
        )


def _check_dependencies(workload: Workload, report: ValidationReport) -> None:
    summary_numbers = {j.job_number for j in workload.summary_jobs()}
    for job in workload.summary_jobs():
        if job.preceding_job == MISSING:
            continue
        if job.preceding_job >= job.job_number:
            report.add(
                Severity.ERROR,
                "feedback",
                f"preceding job {job.preceding_job} is not an earlier job",
                job.job_number,
            )
        elif job.preceding_job not in summary_numbers:
            report.add(
                Severity.ERROR,
                "feedback",
                f"preceding job {job.preceding_job} does not exist in the workload",
                job.job_number,
            )
        if job.think_time == MISSING:
            report.add(
                Severity.WARNING,
                "feedback",
                "a preceding job is given but think time is unknown",
                job.job_number,
            )


def _check_checkpoint_groups(workload: Workload, report: ValidationReport) -> None:
    partial_by_job: Dict[int, List[SWFJob]] = defaultdict(list)
    for job in workload.partial_jobs():
        partial_by_job[job.job_number].append(job)
    summary_by_number = {j.job_number: j for j in workload.summary_jobs()}
    for job_number, bursts in partial_by_job.items():
        if job_number not in summary_by_number:
            report.add(
                Severity.ERROR,
                "checkpoint",
                "partial-execution lines without a summary line",
                job_number,
            )
            continue
        # Only the first burst carries a submit time; the rest only a wait time.
        for idx, burst in enumerate(bursts):
            if idx > 0 and burst.submit_time != MISSING:
                report.add(
                    Severity.ERROR,
                    "checkpoint",
                    "only the first partial line may carry a submit time",
                    job_number,
                )
        terminal = bursts[-1].completion_status
        if not terminal.is_terminal_partial:
            report.add(
                Severity.ERROR,
                "checkpoint",
                f"the last partial line must have status 3 or 4, got {terminal.value}",
                job_number,
            )
        for burst in bursts[:-1]:
            if burst.completion_status is not CompletionStatus.PARTIAL_TO_BE_CONTINUED:
                report.add(
                    Severity.ERROR,
                    "checkpoint",
                    "non-final partial lines must have status 2",
                    job_number,
                )
        summary = summary_by_number[job_number]
        known_runtimes = [b.run_time for b in bursts if b.run_time != MISSING]
        if summary.run_time != MISSING and len(known_runtimes) == len(bursts):
            if sum(known_runtimes) != summary.run_time:
                report.add(
                    Severity.WARNING,
                    "checkpoint",
                    f"sum of partial runtimes {sum(known_runtimes)} differs from the "
                    f"summary runtime {summary.run_time}",
                    job_number,
                )
        terminal_ok = (
            terminal is CompletionStatus.PARTIAL_LAST_COMPLETED and summary.is_completed
        ) or (terminal is CompletionStatus.PARTIAL_LAST_KILLED and summary.is_killed)
        if summary.status in (0, 1) and not terminal_ok:
            report.add(
                Severity.WARNING,
                "checkpoint",
                "terminal partial status disagrees with the summary completion status",
                job_number,
            )


def _check_against_header(workload: Workload, report: ValidationReport) -> None:
    header = workload.header
    max_nodes = header.max_nodes
    max_runtime = header.max_runtime
    max_memory = header.max_memory
    allow_overuse = header.allow_overuse
    for job in workload.summary_jobs():
        if max_nodes and job.processors != MISSING and job.processors > max_nodes:
            report.add(
                Severity.WARNING,
                "header-limits",
                f"job uses {job.processors} processors but MaxNodes is {max_nodes}",
                job.job_number,
            )
        if max_runtime and job.run_time != MISSING and job.run_time > max_runtime:
            report.add(
                Severity.WARNING,
                "header-limits",
                f"runtime {job.run_time} exceeds MaxRuntime {max_runtime}",
                job.job_number,
            )
        if max_memory and job.used_memory != MISSING and job.used_memory > max_memory:
            report.add(
                Severity.WARNING,
                "header-limits",
                f"used memory {job.used_memory} exceeds MaxMemory {max_memory}",
                job.job_number,
            )
        if allow_overuse is False:
            if (
                job.requested_time != MISSING
                and job.run_time != MISSING
                and job.run_time > job.requested_time
            ):
                report.add(
                    Severity.WARNING,
                    "overuse",
                    f"runtime {job.run_time} exceeds the request {job.requested_time} "
                    "although AllowOveruse is No",
                    job.job_number,
                )
            if (
                job.requested_memory != MISSING
                and job.used_memory != MISSING
                and job.used_memory > job.requested_memory
            ):
                report.add(
                    Severity.WARNING,
                    "overuse",
                    f"used memory {job.used_memory} exceeds the request "
                    f"{job.requested_memory} although AllowOveruse is No",
                    job.job_number,
                )
            if (
                job.requested_processors != MISSING
                and job.allocated_processors != MISSING
                and job.allocated_processors > job.requested_processors
            ):
                report.add(
                    Severity.WARNING,
                    "overuse",
                    f"allocated {job.allocated_processors} processors exceeds the request "
                    f"{job.requested_processors} although AllowOveruse is No",
                    job.job_number,
                )


def validate(workload: Workload) -> ValidationReport:
    """Check a workload against the standard's consistency rules.

    Returns a :class:`ValidationReport`; ``report.is_clean`` is true when no
    hard rule is violated.  Warnings never make a workload unclean.
    """
    report = ValidationReport()
    for job in workload:
        _check_field_domains(job, report)
    _check_numbering_and_order(workload, report)
    _check_dependencies(workload, report)
    _check_checkpoint_groups(workload, report)
    _check_against_header(workload, report)
    return report
