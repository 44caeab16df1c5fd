"""The driver's one scheduler state per machine: each pass sees its own pass.

:class:`~repro.evaluation.simulator.SpaceSharedMachine` builds one
:class:`~repro.schedulers.base.SchedulerState` and refreshes it before each
``select_jobs`` call.  Whatever a refresh leaves over from the previous
pass is a wrong input to this one, so these tests check each pass of real
simulations against the driver's own records:

* a ``min_capacity`` a policy assigned lasts one pass;
* the ``profile`` and ``expected_completions()`` memos are the pass's;
* every registered ``space`` policy selects, at every pass, what it selects
  on a state built from scratch (its own ``Counter``, no tracker), with and
  without failures and announced maintenance.
"""

from __future__ import annotations

from typing import Callable, List

import pytest

from repro.api.registry import make_scheduler, scheduler_names, scheduler_registry
from repro.core.outage import OutageLog, generate_outages
from repro.core.outage.generator import OutageModel
from repro.evaluation.simulator import MachineSimulation
from repro.schedulers.backfill import EasyBackfillScheduler
from repro.schedulers.base import JobRequest, Scheduler, SchedulerState
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.freespace import FreeSpace
from repro.schedulers.moldable import MoldableScheduler
from repro.workloads import Lublin99Model
from repro.workloads.speedup import AmdahlSpeedup, MoldableJob

SIZE = 64

#: failures twice a day, and half the machine drained for maintenance every
#: other day, announced a day ahead
MODEL = OutageModel(
    mtbf_seconds=12 * 3600.0,
    maintenance_interval_seconds=2 * 24 * 3600,
    maintenance_duration_seconds=4 * 3600,
    maintenance_notice_seconds=24 * 3600,
    maintenance_fraction=0.5,
)


def _workload(seed: int = 5):
    return Lublin99Model(machine_size=SIZE).generate_with_load(200, 0.85, seed=seed)


def _outages(workload, seed: int = 5) -> OutageLog:
    outages = generate_outages(SIZE, int(workload.span()) + 1, model=MODEL, seed=seed)
    assert any(r.is_announced for r in outages)
    return outages


def _run(policy: Scheduler, outages: bool):
    """A simulation of ``policy`` and its driver, set on ``policy.space`` before the run."""
    workload = _workload()
    sim = MachineSimulation(
        workload, policy, machine_size=SIZE, outages=_outages(workload) if outages else None
    )
    policy.space = sim._space
    return sim.run()


class TestAssignmentsLastOnePass:
    def test_a_min_capacity_wrapper_is_gone_at_the_next_pass(self):
        seen = []

        class Wrapping(FCFSScheduler):
            def select_jobs(self, state):
                seen.append((state, state.min_capacity == self.space.calendar.capacity))
                inner = state.min_capacity

                def min_capacity(start, end):
                    return inner(start, end)

                state.min_capacity = min_capacity
                return super().select_jobs(state)

        result = _run(Wrapping(outage_aware=True), outages=True)
        assert result.outage_kills > 0
        assert len(seen) == result.counters["sched_passes"] > 1
        # One state for the machine, and each pass starts from the calendar.
        assert {id(state) for state, _ in seen} == {id(seen[0][0])}
        assert all(fresh for _, fresh in seen)

    @pytest.mark.parametrize("outages", [False, True], ids=["plain", "outages"])
    def test_memos_follow_each_pass_running_set(self, outages):
        checked = []

        class Reading(EasyBackfillScheduler):
            def select_jobs(self, state):
                now, running = self.space.sim.now, list(self.space.running.values())
                assert state.expected_completions() == sorted(
                    (max(r.expected_end, now), r.processors) for r in running
                )
                assert state.profile.slots() == FreeSpace.from_running(SIZE, now, running).slots()
                checked.append(len(running))
                return super().select_jobs(state)

        result = _run(Reading(), outages)
        assert len(checked) == result.counters["sched_passes"]
        assert len(set(checked)) > 1


def _moldable() -> MoldableScheduler:
    """The moldable policy with an Amdahl description of every job of the workload."""
    descriptions = {
        job.job_number: MoldableJob(
            job.job_number, max(job.run_time, 1) * job.processors, AmdahlSpeedup(0.05), SIZE
        )
        for job in _workload().summary_jobs()
    }
    return MoldableScheduler(descriptions)


def _space_policies():
    """One factory per registered ``space`` policy class, named after one of its specs."""
    factories, classes = [], set()
    for name in scheduler_names():
        cls = scheduler_registry.get(name)
        if cls.mode != "space" or cls in classes:
            continue
        classes.add(cls)
        factory = _moldable if cls is MoldableScheduler else (lambda name=name: make_scheduler(name))
        factories.append(pytest.param(factory, id=name))
    return factories


class Differential(Scheduler):
    """Runs ``policy`` on the driver's state and a twin on a state built from scratch."""

    def __init__(self, make: Callable[[], Scheduler], outage_aware: bool) -> None:
        self.policy, self.twin = make(), make()
        self.policy.outage_aware = self.twin.outage_aware = self.outage_aware = outage_aware
        self.name = self.policy.name
        self.space = None
        self.passes = 0

    def select_jobs(self, state: SchedulerState) -> List[JobRequest]:
        space = self.space
        scratch = SchedulerState(
            space.sim.now, space.machine.size, space.machine.free_count(), list(space.queue),
            list(space.running.values()), space.calendar,
        )
        expected = [(r.job_id, r.processors) for r in self.twin.select_jobs(scratch)]
        chosen = self.policy.select_jobs(state)
        assert [(r.job_id, r.processors) for r in chosen] == expected, f"pass {self.passes}"
        self.passes += 1
        return chosen


@pytest.mark.parametrize("make", _space_policies())
@pytest.mark.parametrize("outages", [False, True], ids=["plain", "outages"])
def test_every_pass_selects_what_a_fresh_state_selects(make, outages):
    policy = Differential(make, outage_aware=outages)
    result = _run(policy, outages)
    assert policy.passes == result.counters["sched_passes"]
    assert result.counters["jobs_started"] >= len(result.jobs) > 0
    if outages:
        assert result.outage_kills > 0
