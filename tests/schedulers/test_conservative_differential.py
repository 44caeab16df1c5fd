"""Per-pass differential test of conservative backfilling.

The production :class:`ConservativeBackfillScheduler` copies the driver's
patched running-set profile (``state.profile``), clamps it with the
announced-capacity calendar, and places each job in one walk.  A wrapper policy hands every scheduling pass of a
real simulation to it and to two from-scratch planners, and asserts they
start the same jobs, so a shortcut that is wrong at any single pass fails
here, not just one that changes a final schedule:

* ``FromScratch`` rebuilds a :class:`FreeSpace` from ``state.running``,
  samples ``state.min_capacity`` once per slot and anchors with
  ``earliest_start`` + ``reserve``: the definition every pass must match;
* ``ReferenceConservative`` (the breakpoint-list implementation, kept
  verbatim in ``test_freespace.py``) must match whenever the policy is not
  outage-aware.  Clamped profiles can differ from it; see
  :class:`TestKnownDivergenceFromTheBreakpointProfile`.

The production policy continues from the plan it kept on the driver's
tracker whenever that plan still holds; handed the same state without the
tracker, it re-plans from scratch.  The wrapper runs it both ways, and
:class:`TestTheKeptPlan` drives each condition under which a plan must be
dropped, by hand.
"""

from __future__ import annotations

from collections import Counter
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.outage import OutageLog, OutageRecord, OutageType, generate_outages
from repro.core.outage.generator import OutageModel
from repro.evaluation import simulate
from repro.evaluation.simulator import SpaceSharedMachine
from repro.machine.cluster import Machine
from repro.schedulers.backfill import ConservativeBackfillScheduler
from repro.schedulers.base import JobRequest, Scheduler, SchedulerState
from repro.schedulers.freespace import FreeSpace
from repro.simulation.engine import Simulator
from repro.workloads import Lublin99Model
from tests.conftest import make_job, make_workload
from tests.schedulers.test_freespace import ReferenceConservative, ReferenceProfile
from tests.schedulers.util import make_request, make_state


class FromScratch(Scheduler):
    """Conservative backfilling re-planned from nothing at every pass."""

    name = "from-scratch-conservative"

    def __init__(self, outage_aware: bool = False, horizon: float = 365 * 24 * 3600.0) -> None:
        self.outage_aware = outage_aware
        self.horizon = horizon

    def select_jobs(self, state: SchedulerState) -> List[JobRequest]:
        profile = FreeSpace.from_running(state.total_processors, state.now, state.running)
        if self.outage_aware:
            profile.clamp_capacity(state.min_capacity, state.now + self.horizon)
        started: List[JobRequest] = []
        free = state.free_processors
        for request in state.queue:
            duration = max(request.estimate, 1)
            anchor = profile.earliest_start(request.processors, duration)
            profile.reserve(anchor, anchor + duration, request.processors)
            if anchor <= state.now and self.job_fits_now(state, request, free):
                started.append(request)
                free -= request.processors
        return started


class Differential(Scheduler):
    """Runs production and the from-scratch planners on the same state at every pass."""

    name = "differential-conservative"

    def __init__(self, outage_aware: bool = False, horizon: float = 365 * 24 * 3600.0) -> None:
        self.outage_aware = outage_aware
        self.production = ConservativeBackfillScheduler(outage_aware=outage_aware, horizon=horizon)
        self.scratch = FromScratch(outage_aware=outage_aware, horizon=horizon)
        self.reference = ReferenceConservative(outage_aware=outage_aware)
        self.passes = 0
        #: the production policy's counts when every pass re-plans from scratch
        self.replanned = Counter()

    def select_jobs(self, state: SchedulerState) -> List[JobRequest]:
        chosen = self.production.select_jobs(state)
        where = f"pass {self.passes} at t={state.now}"
        ids = [r.job_id for r in chosen]
        assert ids == [r.job_id for r in self.scratch.select_jobs(state)], where
        # Without the driver's tracker there is no kept plan.
        replanning = SchedulerState(
            state.now, state.total_processors, state.free_processors, state.queue,
            state.running, state.calendar, None, self.replanned,
        )
        assert ids == [r.job_id for r in self.production.select_jobs(replanning)], where
        if not self.outage_aware:
            assert ids == [r.job_id for r in self.reference.select_jobs(state)], where
        self.passes += 1
        return chosen


SIZE = 8

job_strategy = st.tuples(
    st.sampled_from([0, 0, 0, 1, 5, 30, 200]),  # submit gap: many ties
    st.sampled_from([1, 2, 3, SIZE // 2, SIZE]),  # processors, machine-wide too
    st.sampled_from([0, 0, 1, 10, 60, 300]),  # runtime, zero included
    st.sampled_from([0, 0, 5, 100, 1000]),  # estimate slack; 0 = exact
)

outage_strategy = st.tuples(
    st.integers(min_value=0, max_value=2000),  # start
    st.integers(min_value=1, max_value=600),  # duration
    st.integers(min_value=1, max_value=SIZE),  # nodes
    st.sampled_from([0, 0, 50, 400, 3000]),  # notice: 0 = unannounced failure
)


def _workload(jobs):
    records, submit = [], 0
    for number, (gap, processors, runtime, slack) in enumerate(jobs, start=1):
        submit += gap
        records.append(
            make_job(
                number,
                submit=submit,
                runtime=runtime,
                processors=processors,
                requested_time=runtime + slack,
            )
        )
    return make_workload(records, machine_size=SIZE)


def _outages(specs) -> OutageLog:
    records = []
    for start, duration, nodes, notice in specs:
        records.append(
            OutageRecord(
                announced_time=max(0, start - notice),
                start_time=start,
                end_time=start + duration,
                outage_type=OutageType.MAINTENANCE if notice else OutageType.CPU_FAILURE,
                nodes_affected=nodes,
            )
        )
    return OutageLog(records)


def _schedule(result):
    return [(j.job_id, j.start_time, j.end_time, j.killed) for j in result.jobs]


class TestEveryPassMatchesTheReference:
    @settings(max_examples=150, deadline=None)
    @given(
        jobs=st.lists(job_strategy, min_size=1, max_size=30),
        outages=st.lists(outage_strategy, max_size=5),
        outage_aware=st.booleans(),
        # short horizons cut slots and leave announced dips beyond the clamp
        horizon=st.sampled_from([365 * 24 * 3600.0, 1000.0, 150.0]),
    )
    def test_random_workloads_with_outages(self, jobs, outages, outage_aware, horizon):
        policy = Differential(outage_aware=outage_aware, horizon=horizon)
        result = simulate(_workload(jobs), policy, machine_size=SIZE, outages=_outages(outages))
        assert policy.passes == result.counters["sched_passes"]
        plain = simulate(
            _workload(jobs),
            ConservativeBackfillScheduler(outage_aware=outage_aware, horizon=horizon),
            machine_size=SIZE,
            outages=_outages(outages),
        )
        assert _schedule(result) == _schedule(plain)

    def test_announced_maintenance_and_failures(self):
        # Maintenance announced a day ahead exercises the calendar clamp;
        # failures kill and restart running jobs.
        size = 64
        model = OutageModel(
            mtbf_seconds=12 * 3600.0,
            maintenance_interval_seconds=2 * 24 * 3600,
            maintenance_duration_seconds=4 * 3600,
            maintenance_notice_seconds=24 * 3600,
            maintenance_fraction=0.5,
        )
        for seed in (1, 2, 3):
            workload = Lublin99Model(machine_size=size).generate_with_load(250, 0.85, seed=seed)
            outages = generate_outages(size, int(workload.span()) + 1, model=model, seed=seed)
            assert any(r.is_announced for r in outages)
            policy = Differential(outage_aware=True)
            result = simulate(workload, policy, machine_size=size, outages=outages)
            assert result.outage_kills > 0

    def test_dip_announced_beyond_the_previous_horizon(self):
        # Job 2 is anchored at t=10 with the clamp reaching t=160; the dip at
        # [200, 300) is announced but beyond it.  At t=60 the clamp reaches
        # t=210: it lowers the tail and moves job 2's anchor onto ``now``,
        # which keeps job 3 from starting.
        jobs = [
            make_job(1, submit=0, runtime=100, processors=4, requested_time=100),
            make_job(2, submit=10, runtime=50, processors=6, requested_time=50),
            make_job(3, submit=60, runtime=20, processors=2, requested_time=20),
        ]
        outages = OutageLog([OutageRecord(0, 200, 300, OutageType.MAINTENANCE, 4)])
        policy = Differential(outage_aware=True, horizon=150.0)
        result = simulate(make_workload(jobs, machine_size=SIZE), policy, machine_size=SIZE, outages=outages)
        assert policy.passes == result.counters["sched_passes"]
        starts = {j.job_id: j.start_time for j in result.jobs}
        assert starts[3] > 60


def _differential(jobs, outages=(), outage_aware=False, horizon=365 * 24 * 3600.0):
    """(policy, result) of a hand-built workload on a SIZE-node machine."""
    policy = Differential(outage_aware=outage_aware, horizon=horizon)
    result = simulate(
        make_workload(jobs, machine_size=SIZE), policy, machine_size=SIZE, outages=OutageLog(list(outages))
    )
    assert policy.passes == result.counters["sched_passes"]
    assert not result.unfinished
    return policy, result


def _starts(result):
    return {j.job_id: j.start_time for j in result.jobs if not j.killed}


def _kept_a_plan(policy, result):
    """Whether some pass continued from a kept plan instead of re-planning."""
    return result.counters["anchors_placed"] < policy.replanned["anchors_placed"]


class TestTheKeptPlan:
    """Each way a kept plan can go stale, on a hand-built workload.

    Every pass is checked against the from-scratch planners; the final
    starts pin what a stale plan would get wrong.
    """

    @pytest.mark.parametrize("outages", [False, True], ids=["plain", "outages"])
    def test_lublin_runs_continue_from_kept_plans(self, outages):
        size = 64
        workload = Lublin99Model(machine_size=size).generate_with_load(250, 0.85, seed=6)
        log = None
        if outages:
            model = OutageModel(
                mtbf_seconds=12 * 3600.0,
                maintenance_interval_seconds=2 * 24 * 3600,
                maintenance_duration_seconds=4 * 3600,
                maintenance_notice_seconds=24 * 3600,
                maintenance_fraction=0.5,
            )
            log = generate_outages(size, int(workload.span()) + 1, model=model, seed=6)
        policy = Differential(outage_aware=outages, horizon=6 * 3600.0)
        result = simulate(workload, policy, machine_size=size, outages=log)
        assert _kept_a_plan(policy, result)
        if outages:
            assert result.outage_kills > 0

    def test_early_completion_right_after_a_kept_pass(self):
        # The pass at t=3 keeps job 2's anchor at t=100 and backfills job 4.
        # Job 1 then ends 50 s early, so at t=62 job 2 can start.
        jobs = [
            make_job(1, submit=0, runtime=50, processors=4, requested_time=100),
            make_job(2, submit=1, runtime=50, processors=SIZE, requested_time=100),
            make_job(3, submit=2, runtime=60, processors=3, requested_time=60),
            make_job(4, submit=3, runtime=10, processors=1, requested_time=10),
        ]
        policy, result = _differential(jobs)
        assert _starts(result) == {1: 0, 2: 62, 3: 2, 4: 3}
        assert _kept_a_plan(policy, result)

    def test_kill_then_restart(self):
        jobs = [
            make_job(1, submit=0, runtime=100, processors=SIZE, requested_time=100),
            make_job(2, submit=1, runtime=50, processors=4, requested_time=50),
        ]
        failure = OutageRecord(10, 10, 15, OutageType.CPU_FAILURE, 1)
        _policy, result = _differential(jobs, [failure])
        # The kill frees the machine: job 2 starts now, the restart after it.
        assert result.outage_kills == 1
        assert _starts(result) == {1: 60, 2: 10}

    def test_unannounced_failure_on_idle_nodes(self):
        # Two idle nodes fail at t=5: free processors drop, the profile does
        # not, and nothing is released.  At t=6 job 1 is anchored on t=6
        # but cannot start, and job 2 behind it on t=16.  By t=50 both
        # anchors have passed, so the plan is stale: job 2 must not start
        # then just because it fits in the free processors.
        jobs = [
            make_job(1, submit=6, runtime=10, processors=SIZE, requested_time=10),
            make_job(2, submit=6, runtime=1, processors=4, requested_time=1000),
            make_job(3, submit=50, runtime=60, processors=4, requested_time=60),
        ]
        failure = OutageRecord(5, 5, 100, OutageType.CPU_FAILURE, 2)
        _policy, result = _differential(jobs, [failure])
        assert result.outage_kills == 0
        assert _starts(result) == {1: 100, 2: 110, 3: 110}

    def test_zero_estimate(self):
        # Job 1 starts and ends at t=0.  Its placement held [0, 1); the
        # running set never held anything, so job 2 starts at t=0 too.
        jobs = [
            make_job(1, submit=0, runtime=0, processors=SIZE, requested_time=0),
            make_job(2, submit=0, runtime=10, processors=SIZE, requested_time=10),
        ]
        _policy, result = _differential(jobs)
        assert _starts(result) == {1: 0, 2: 0}

    def test_dip_announced_between_two_passes(self):
        # The passes at t=1 anchor job 3 at t=200, when job 2 ends.  The dip
        # announced at t=2 leaves 4 nodes over [210, 230), where job 1 holds
        # 2, so by t=200 job 3 must wait for t=300 and job 5 backfills.
        jobs = [
            make_job(1, submit=0, runtime=300, processors=2, requested_time=300),
            make_job(2, submit=0, runtime=200, processors=4, requested_time=200),
            make_job(3, submit=1, runtime=50, processors=6, requested_time=50),
            make_job(4, submit=1, runtime=10, processors=1, requested_time=10),
            make_job(5, submit=200, runtime=100, processors=2, requested_time=100),
            make_job(6, submit=1, runtime=5, processors=1, requested_time=5),
        ]
        dip = OutageRecord(2, 210, 230, OutageType.MAINTENANCE, 4)
        policy, result = _differential(jobs, [dip], outage_aware=True)
        assert result.outage_kills == 0
        assert _starts(result) == {1: 0, 2: 0, 3: 300, 4: 1, 5: 200, 6: 1}
        assert _kept_a_plan(policy, result)

    def test_same_time_passes(self):
        # Five arrivals at t=0 run five passes at one instant; the last two
        # keep the plan and are backfilled into it.
        jobs = [
            make_job(1, submit=0, runtime=100, processors=4, requested_time=100),
            make_job(2, submit=0, runtime=100, processors=SIZE, requested_time=100),
            make_job(3, submit=0, runtime=50, processors=2, requested_time=50),
            make_job(4, submit=0, runtime=100, processors=2, requested_time=100),
            make_job(5, submit=0, runtime=10, processors=2, requested_time=10),
        ]
        policy, result = _differential(jobs)
        assert _starts(result) == {1: 0, 2: 100, 3: 0, 4: 0, 5: 50}
        assert _kept_a_plan(policy, result)

    def test_a_job_queued_at_the_head_is_placed_first(self):
        # A grid site queues a claimed reservation's components at the head,
        # in front of the jobs a kept plan holds anchors for.
        space = SpaceSharedMachine(Machine(size=SIZE), ConservativeBackfillScheduler(), Simulator())
        space.submit(make_request(1, 4, estimate=100))
        assert [r.request.job_id for r in space.schedule_pass()] == [1]
        space.submit(make_request(2, SIZE, estimate=50))
        space.submit(make_request(3, 1, estimate=1000))
        assert space.schedule_pass() == []
        assert space.tracker.plan.anchors == [100, 150]
        space.submit(make_request(4, 4, estimate=10), front=True)
        assert [r.request.job_id for r in space.schedule_pass()] == [4]

    def test_policy_keeps_no_state_and_hand_built_states_replan(self):
        policy = ConservativeBackfillScheduler(outage_aware=True, horizon=10.0)
        simulate(_workload([(0, 4, 10, 5), (0, SIZE, 10, 0), (1, 2, 5, 0)]), policy, machine_size=SIZE)
        assert vars(policy) == {"outage_aware": True, "horizon": 10.0}
        counts = Counter()
        running = [(make_request(99, 4, estimate=100), 0.0, 100.0)]
        queue = [make_request(1, SIZE), make_request(2, 2)]
        for _ in range(2):
            state = make_state(SIZE, queue=queue, running=running, counts=counts)
            assert [r.job_id for r in policy.select_jobs(state)] == [2]
        assert counts["anchors_placed"] == 2 * len(queue)


class TestSchedulerReuse:
    def test_one_instance_across_two_simulations(self):
        size = 64
        first = Lublin99Model(machine_size=size).generate_with_load(200, 0.85, seed=4)
        second = Lublin99Model(machine_size=size).generate_with_load(200, 0.85, seed=5)
        shared = ConservativeBackfillScheduler()
        simulate(first, shared, machine_size=size)
        reused = simulate(second, shared, machine_size=size)
        fresh = simulate(second, ConservativeBackfillScheduler(), machine_size=size)
        assert _schedule(reused) == _schedule(fresh)
        # The profile belongs to the driver: the second run builds its own once.
        assert reused.counters["profile_builds"] == 1


class TestKnownDivergenceFromTheBreakpointProfile:
    """Where the slot set and the old breakpoint list disagree, pinned as found.

    The clamp takes the calendar's minimum over each slot's window, and the
    open-ended last slot's window reaches the horizon, so a dip after the
    last running job clamps the whole tail.  The slot set then merges the
    tail into its equal neighbour; the breakpoint list keeps the boundary.
    A request wider than the clamped level fits nowhere, and the walk's
    fallback anchors it on the last boundary: ``now`` for the slot set, the
    kept breakpoint for the old list.  Every schedule since the slot set
    replaced the list follows the slot set, and the pinned benchmark
    digests depend on it; which anchor is right is an open question.
    """

    def test_fallback_anchor_after_a_clamped_tail(self):
        running = [(1, 32, 0.0, 1000.0)]
        calendar = FreeSpace(64, 0.0)
        calendar.reserve(2000.0, 3000.0, 32)
        fs = FreeSpace(64, 0.0)
        ref = ReferenceProfile(64, 0.0)
        for _job, processors, start, end in running:
            fs.reserve(start, end, processors)
            ref.remove(start, end, processors)
        fs.clamp_capacity(calendar, 1e9)
        ref.add_capacity_limit(calendar.capacity, 1e9)
        assert fs.slots() == [(0.0, float("inf"), 32)]
        assert ref._times == [0.0, 1000.0] and ref._free == [32, 32]
        assert fs.earliest_start(40, 10) == 0.0
        assert ref.earliest_start(40, 10) == 1000.0
