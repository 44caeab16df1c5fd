"""Multi-line (checkpoint / swap-out) job records.

The standard allows a job that was checkpointed or swapped out to appear on
several lines: one summary line (status 0 or 1) covering the whole job, plus
one line per partial execution burst (status 2 for "to be continued", 3/4 for
the final burst).  This module provides:

* :class:`CheckpointedJob` — a summary job together with its bursts,
* :func:`group_checkpointed` — collect the multi-line records of a workload,
* :func:`expand_to_bursts` — synthesize burst lines for a job given burst
  runtimes (used by tests and by the synthetic generators to exercise the
  code path),
* :func:`summarize_bursts` — rebuild the single-line summary from bursts.

Workload *studies* should only use summary lines (the standard is explicit on
this); :meth:`Workload.summary_jobs` already provides that view.  The tools
here exist for studies of the logged system itself and for validation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.swf.fields import MISSING, CompletionStatus
from repro.core.swf.records import SWFJob

__all__ = [
    "CheckpointedJob",
    "group_checkpointed",
    "expand_to_bursts",
    "summarize_bursts",
]


@dataclass(frozen=True)
class CheckpointedJob:
    """A summary job line together with its partial-execution burst lines."""

    summary: SWFJob
    bursts: tuple


def group_checkpointed(jobs: Sequence[SWFJob]) -> List[CheckpointedJob]:
    """Collect the checkpointed (multi-line) jobs from a sequence of SWF lines."""
    summaries: Dict[int, SWFJob] = {}
    bursts: Dict[int, List[SWFJob]] = defaultdict(list)
    for job in jobs:
        if job.is_summary_line:
            summaries[job.job_number] = job
        else:
            bursts[job.job_number].append(job)
    grouped = []
    for job_number, burst_list in bursts.items():
        if job_number in summaries:
            grouped.append(
                CheckpointedJob(summary=summaries[job_number], bursts=tuple(burst_list))
            )
    grouped.sort(key=lambda c: c.summary.job_number)
    return grouped


def expand_to_bursts(
    summary: SWFJob,
    burst_runtimes: Sequence[int],
    swapped_out_gaps: Sequence[int] = (),
) -> List[SWFJob]:
    """Create the burst lines for a checkpointed job.

    Parameters
    ----------
    summary:
        The single-line summary of the job (status 0 or 1); its runtime must
        equal the sum of ``burst_runtimes``.
    burst_runtimes:
        Runtime of each partial execution, in order.
    swapped_out_gaps:
        Seconds spent swapped out before each burst after the first
        (length ``len(burst_runtimes) - 1``); defaults to zeros.

    Returns
    -------
    list of SWFJob
        ``[summary, burst1, burst2, ...]`` exactly as they would appear in a
        standard-conforming file.
    """
    burst_runtimes = list(burst_runtimes)
    if not burst_runtimes:
        raise ValueError("at least one burst is required")
    if any(r < 0 for r in burst_runtimes):
        raise ValueError("burst runtimes must be non-negative")
    if summary.run_time != MISSING and sum(burst_runtimes) != summary.run_time:
        raise ValueError(
            "the summary runtime must equal the sum of the burst runtimes "
            f"({summary.run_time} != {sum(burst_runtimes)})"
        )
    gaps = list(swapped_out_gaps) if swapped_out_gaps else [0] * (len(burst_runtimes) - 1)
    if len(gaps) != len(burst_runtimes) - 1:
        raise ValueError("swapped_out_gaps must have one entry per burst after the first")
    if any(g < 0 for g in gaps):
        raise ValueError("swapped-out gaps must be non-negative")

    terminal = (
        CompletionStatus.PARTIAL_LAST_COMPLETED
        if summary.is_completed
        else CompletionStatus.PARTIAL_LAST_KILLED
    )
    lines: List[SWFJob] = [summary]
    for index, runtime in enumerate(burst_runtimes):
        is_last = index == len(burst_runtimes) - 1
        status = terminal.value if is_last else CompletionStatus.PARTIAL_TO_BE_CONTINUED.value
        if index == 0:
            submit = summary.submit_time
            wait = summary.wait_time
        else:
            submit = MISSING
            wait = gaps[index - 1]
        lines.append(
            summary.replace(
                submit_time=submit,
                wait_time=wait,
                run_time=runtime,
                status=status,
                preceding_job=MISSING,
                think_time=MISSING,
            )
        )
    return lines


def summarize_bursts(bursts: Sequence[SWFJob]) -> SWFJob:
    """Rebuild the single summary line of a checkpointed job from its bursts.

    The summary's submit time is the first burst's, its runtime is the sum of
    all partial runtimes, and its status follows the terminal burst (3 -> 1,
    4 -> 0), per the standard.
    """
    if not bursts:
        raise ValueError("at least one burst is required")
    first = bursts[0]
    last = bursts[-1]
    terminal = last.completion_status
    if not terminal.is_terminal_partial:
        raise ValueError("the last burst must have status 3 or 4")
    status = (
        CompletionStatus.COMPLETED.value
        if terminal is CompletionStatus.PARTIAL_LAST_COMPLETED
        else CompletionStatus.KILLED.value
    )
    total_runtime = sum(b.run_time for b in bursts if b.run_time != MISSING)
    return first.replace(run_time=total_runtime, status=status)
