"""Shared fixtures: small deterministic workloads and machines for fast tests."""

from __future__ import annotations

import pytest

from repro.core.swf import SWFHeader, SWFJob, Workload
from repro.grid import GridSimulation, LeastLoadedMetaScheduler, Site
from repro.workloads import Lublin99Model


def make_job(
    number: int,
    submit: int = 0,
    wait: int = 0,
    runtime: int = 100,
    processors: int = 4,
    **overrides,
) -> SWFJob:
    """Build a small, fully-specified SWF job for hand-written scenarios."""
    fields = dict(
        job_number=number,
        submit_time=submit,
        wait_time=wait,
        run_time=runtime,
        allocated_processors=processors,
        average_cpu_time=runtime,
        used_memory=1024,
        requested_processors=processors,
        requested_time=runtime * 2,
        requested_memory=2048,
        status=1,
        user_id=1,
        group_id=1,
        executable_id=1,
        queue_number=1,
        partition_number=1,
    )
    fields.update(overrides)
    return SWFJob(**fields)


def by_job_id(result) -> dict:
    """A simulation result's per-job results keyed by SWF job number."""
    return {j.job_id: j for j in result.jobs}


def make_workload(jobs, machine_size: int = 32, name: str = "test") -> Workload:
    """Wrap hand-written jobs in a workload with a matching header."""
    header = SWFHeader.standard(
        computer="test machine", installation="unit tests", max_nodes=machine_size
    )
    return Workload(list(jobs), header, name=name)


def simulate_one_site_grid(workload: Workload, scheduler, machine_size: int):
    """``simulate`` as the single site of a grid without meta jobs; the site's result."""
    site = Site(name="s0", machine_size=machine_size, scheduler=scheduler, local_workload=workload)
    return GridSimulation([site], [], LeastLoadedMetaScheduler()).run().site_results["s0"]


@pytest.fixture
def tiny_workload() -> Workload:
    """Four small jobs on a 32-node machine; first submit at time zero."""
    jobs = [
        make_job(1, submit=0, runtime=100, processors=8),
        make_job(2, submit=10, runtime=50, processors=16),
        make_job(3, submit=20, runtime=200, processors=32),
        make_job(4, submit=30, runtime=25, processors=4),
    ]
    return make_workload(jobs)


@pytest.fixture(scope="session")
def lublin_workload() -> Workload:
    """A moderately sized model workload shared by integration-style tests."""
    return Lublin99Model(machine_size=64).generate_with_load(400, 0.7, seed=1234)


@pytest.fixture
def job_factory():
    """Expose :func:`make_job` to tests as a fixture."""
    return make_job


@pytest.fixture
def workload_factory():
    """Expose :func:`make_workload` to tests as a fixture."""
    return make_workload
