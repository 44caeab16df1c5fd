"""Output checks for the benchmark, written apart from the code it measures.

:func:`check_schedule` replays one simulated schedule against its inputs
(the workload the simulator was given, the machine size and the outage log)
with a sweep line, and returns a list of human-readable violations:

* every submitted job is accounted for exactly once: done + killed +
  skipped == submitted, where "skipped" is recomputed here (no usable
  processor count, or wider than the machine);
* each job keeps its submit time, its width, and (unless killed) its runtime,
  and never starts before it was submitted;
* at no instant do running jobs hold more nodes than are up.

A node is down while any outage record covering it is active.  Records that
name no components take the highest-numbered ``nodes_affected`` nodes, the
convention the outage-log format leaves to the replaying simulator.

:func:`unit_digest` condenses a schedule and its metrics report into a
short hex digest, so runs can be compared with each other and with the
digests pinned for the default seed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

#: SWF marker for an unknown field value.
MISSING = -1

#: Significant digits kept for report floats in a digest: enough to catch a
#: changed schedule, few enough that a reordered float sum does not count.
REPORT_DIGITS = 10


def _processors(job) -> int:
    if job.allocated_processors != MISSING:
        return job.allocated_processors
    return job.requested_processors


def _down_events(machine_size: int, outages) -> List[tuple]:
    """(time, delta) changes of the down-node count implied by ``outages``."""
    changes: Dict[int, List[tuple]] = {}
    for record in outages:
        if record.components:
            nodes = [c for c in record.components if 0 <= c < machine_size]
        else:
            count = min(record.nodes_affected, machine_size)
            nodes = list(range(machine_size - count, machine_size))
        for node in nodes:
            changes.setdefault(node, []).extend(
                [(record.start_time, 1), (record.end_time, -1)]
            )
    events = []
    for node_changes in changes.values():
        # A node is down while the count of active records covering it is
        # positive; at one instant, recoveries sort before failures.
        active = 0
        for time, delta in sorted(node_changes):
            before = active
            active += delta
            if (before == 0) != (active == 0):
                events.append((time, 1 if active else -1))
    return events


def check_schedule(result, workload, machine_size: int, outages=()) -> List[str]:
    """Violations of ``result`` against its inputs; empty when the schedule is valid."""
    errors: List[str] = []
    submitted = {}
    skipped = 0
    for job in workload.summary_jobs():
        procs = _processors(job)
        if procs == MISSING or procs < 1 or procs > machine_size:
            skipped += 1
        else:
            submitted[job.job_number] = job

    seen = set()
    killed = 0
    events = []
    for res in result.jobs:
        job_id = res.job.job_number
        if job_id in seen:
            errors.append(f"job {job_id} appears twice")
            continue
        seen.add(job_id)
        job = submitted.get(job_id)
        if job is None:
            errors.append(f"job {job_id} was never submitted")
            continue
        submit = job.submit_time if job.submit_time != MISSING else 0
        if res.submit_time != submit:
            errors.append(f"job {job_id} submit {res.submit_time} != {submit}")
        if res.start_time < submit:
            errors.append(f"job {job_id} starts at {res.start_time} before submit {submit}")
        if res.processors != _processors(job):
            errors.append(f"job {job_id} ran on {res.processors} nodes, asked {_processors(job)}")
        if res.killed:
            killed += 1
        else:
            runtime = job.run_time if job.run_time != MISSING else 0
            if res.end_time - res.start_time != runtime:
                errors.append(
                    f"job {job_id} ran {res.end_time - res.start_time}s, runtime {runtime}s"
                )
        if res.end_time > res.start_time:
            events.append((res.start_time, res.processors, False))
            events.append((res.end_time, -res.processors, False))

    done = len(seen) - killed
    reported_skipped = result.metadata.get("skipped_too_large", 0)
    total = len(submitted) + skipped
    if done + killed + reported_skipped != total or reported_skipped != skipped:
        missing = sorted(set(submitted) - seen)
        errors.append(
            f"done {done} + killed {killed} + skipped {reported_skipped} != "
            f"submitted {total} ({skipped} too wide; missing {missing[:5]})"
        )

    # Sweep: apply every change at one instant, then the running width must
    # fit the nodes that are up (intervals are half-open).
    events += [(t, delta, True) for t, delta in _down_events(machine_size, outages)]
    events.sort(key=lambda event: event[0])
    busy = down = 0
    for index, (time, delta, is_outage) in enumerate(events):
        if is_outage:
            down += delta
        else:
            busy += delta
        last_at_instant = index + 1 == len(events) or events[index + 1][0] != time
        if last_at_instant and busy > machine_size - down:
            errors.append(f"t={time}: {busy} nodes busy but only {machine_size - down} up")
            break
    return errors


def _report_material(report) -> Dict[str, object]:
    material = {}
    for name, value in sorted(report.to_json().items()):
        if name == "counters":
            continue  # layer instrumentation, not an output of the schedule
        if isinstance(value, float):
            value = float(f"{value:.{REPORT_DIGITS}g}")
        material[name] = value
    return material


def unit_digest(result, report) -> str:
    """16-hex digest of per-job start/end and the metrics report."""
    rows = sorted(
        (j.job.job_number, j.submit_time, j.start_time, j.end_time, j.processors, j.killed)
        for j in result.jobs
    )
    text = json.dumps(
        {"jobs": rows, "report": _report_material(report)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
