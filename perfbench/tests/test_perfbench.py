"""Tests of the benchmark itself: its output check, its tracing, its inputs.

Every workload runs here in miniature (a few hundred jobs), so the whole
file takes seconds.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench.harness import WorkloadRun, run_traced  # noqa: E402
from perfbench.hostspeed import REFERENCE_SECONDS, HostSpeed  # noqa: E402
from perfbench.layers import LayerClock  # noqa: E402
from perfbench.validate import check_schedule, unit_digest  # noqa: E402

MINIATURE = {
    "fcfs-backlog": {"units": 1, "jobs": 300},
    "conservative-outages": {"units": 2, "jobs": 120},
    "suite-replications": {"seeds": 2, "jobs": 30},
}


@pytest.fixture
def trace_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    return tmp_path


def _cold_run(name: str, seed: int, scratch: Path) -> WorkloadRun:
    scratch.mkdir()
    run = WorkloadRun(name, seed, scratch, sizes=MINIATURE[name])
    run.setup()
    run.cold_pass()
    return run


def _simulated(load: float = 0.9):
    """One small loaded FCFS schedule plus its inputs."""
    from repro.api.runner import resolve_workload, run
    from repro.api.scenario import Scenario

    scenario = Scenario(workload="lublin99", jobs=80, machine_size=32, load=load, policy="fcfs", seed=3)
    workload = resolve_workload(scenario)
    outcome = run(scenario, workload=workload)
    return outcome.result, outcome.report, workload


def test_validator_accepts_a_real_schedule():
    result, _report, workload = _simulated()
    assert check_schedule(result, workload, 32) == []


def test_validator_rejects_planted_overcommit():
    result, _report, workload = _simulated()
    assert any(j.start_time > j.submit_time for j in result.jobs), "fixture must queue jobs"
    # Start every job on arrival: the machine cannot hold them all at once.
    planted = [
        dataclasses.replace(j, start_time=j.submit_time, end_time=j.submit_time + j.run_time)
        for j in result.jobs
    ]
    errors = check_schedule(dataclasses.replace(result, jobs=planted), workload, 32)
    assert any("busy but only" in e for e in errors)


def test_validator_rejects_overcommit_against_outage():
    from repro.core.outage.log import OutageLog
    from repro.core.outage.records import OutageRecord, OutageType

    result, _report, workload = _simulated()
    job = max(result.jobs, key=lambda j: j.run_time)
    outage = OutageRecord(
        announced_time=int(job.start_time),
        start_time=int(job.start_time),
        end_time=int(job.end_time),
        outage_type=OutageType.MAINTENANCE,
        nodes_affected=32,
    )
    errors = check_schedule(result, workload, 32, OutageLog([outage]))
    assert any("busy but only 0 up" in e for e in errors)


def test_validator_rejects_start_before_submit():
    result, _report, workload = _simulated()
    jobs = list(result.jobs)
    early = jobs[5].submit_time - 1
    jobs[5] = dataclasses.replace(jobs[5], start_time=early, end_time=early + jobs[5].run_time)
    errors = check_schedule(dataclasses.replace(result, jobs=jobs), workload, 32)
    assert any("before submit" in e for e in errors)


def test_validator_rejects_dropped_job():
    result, _report, workload = _simulated()
    dropped = dataclasses.replace(result, jobs=result.jobs[:-1])
    errors = check_schedule(dropped, workload, 32)
    assert any("missing" in e for e in errors)


def test_digest_tracks_schedule_and_report():
    result, report, _workload = _simulated()
    assert unit_digest(result, report) == unit_digest(result, report)
    first = result.jobs[0]
    moved = dataclasses.replace(
        result, jobs=[dataclasses.replace(first, end_time=first.end_time + 1)] + result.jobs[1:]
    )
    assert unit_digest(moved, report) != unit_digest(result, report)


def test_host_speed_normalizes_by_the_samples_around_a_span():
    host = HostSpeed()
    host.times = [0.0, 1.0, 2.0, 3.0]
    host.seconds = [REFERENCE_SECONDS, 2 * REFERENCE_SECONDS, 2 * REFERENCE_SECONDS, 9.0]
    # The samples at 1.0 and 2.0 bracket the span: the host ran at half speed.
    assert host.normalize(1.5, 1.8) == pytest.approx(0.15)
    host.sample()
    assert host.seconds[-1] > 0 and host.times[-1] > 3.0


def _method_table():
    from repro.bench import runner as bench_runner
    from repro.bench import store as bench_store
    from repro.evaluation.simulator import MachineSimulation
    from repro.machine.cluster import Machine
    from repro.schedulers.freespace import FreeSpace
    from repro.simulation.engine import Simulator

    return {
        (owner, attr): owner.__dict__[attr]
        for owner, attr in (
            (Simulator, "run"),
            (Simulator, "schedule_at"),
            (MachineSimulation, "run"),
            (Machine, "allocate"),
            (FreeSpace, "earliest_start"),
            (bench_store.ResultStore, "put"),
            (bench_store, "result_key"),
            (bench_runner, "result_key"),
            (bench_runner, "run_suite"),
        )
    }


def test_clock_restores_every_wrapped_attribute():
    clock = LayerClock()
    clock.install()
    patched = clock.patched
    assert len(patched) > 20
    assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
    clock.restore()
    assert clock.patched == []
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)


@pytest.mark.parametrize("name", sorted(MINIATURE))
def test_traced_run_reports_layers_and_restores(name, trace_cache):
    before = _method_table()
    run = WorkloadRun(name, 5, trace_cache, sizes=MINIATURE[name])
    metrics = run_traced(run, seconds=0.0)
    assert _method_table() == before
    assert run.failed == 0 and not run.errors, run.errors
    assert metrics["driver.passes"] > 0 and metrics["engine.events"] > 0
    assert metrics["policy.select_calls"] == metrics["driver.passes"]
    # Timer reads just outside the frames can leave a microsecond either way.
    assert -0.01 < metrics["trace.unattributed_frac"] < 0.05
    if name == "conservative-outages":
        assert metrics["capacity.min_capacity_calls"] > 0 and metrics["machine.outage_s"] > 0
    if name == "fcfs-backlog":
        assert metrics["freespace.earliest_start_calls"] == 0


@pytest.mark.parametrize("name", sorted(MINIATURE))
def test_seed_changes_inputs_and_digest(name, trace_cache):
    one = _cold_run(name, 1, trace_cache / "a")
    two = _cold_run(name, 2, trace_cache / "b")
    assert one.failed == two.failed == 0, one.errors + two.errors
    assert [c.seeds for c in one.suite.cases] != [c.seeds for c in two.suite.cases]
    assert one.cold[0].digests != two.cold[0].digests


@pytest.mark.parametrize("name", sorted(MINIATURE))
def test_two_runs_give_identical_counts(name, trace_cache):
    one = _cold_run(name, 4, trace_cache / "a")
    two = _cold_run(name, 4, trace_cache / "b")
    assert one.failed == two.failed == 0, one.errors + two.errors
    assert one.cold[0].counts == two.cold[0].counts
    assert one.cold[0].digests == two.cold[0].digests
