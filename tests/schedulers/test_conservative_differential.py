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
"""

from __future__ import annotations

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.outage import OutageLog, OutageRecord, OutageType, generate_outages
from repro.core.outage.generator import OutageModel
from repro.evaluation import simulate
from repro.schedulers.backfill import ConservativeBackfillScheduler
from repro.schedulers.base import JobRequest, Scheduler, SchedulerState
from repro.schedulers.freespace import FreeSpace
from repro.workloads import Lublin99Model
from tests.conftest import make_job, make_workload
from tests.schedulers.test_freespace import ReferenceConservative, ReferenceProfile


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

    def select_jobs(self, state: SchedulerState) -> List[JobRequest]:
        chosen = self.production.select_jobs(state)
        where = f"pass {self.passes} at t={state.now}"
        ids = [r.job_id for r in chosen]
        assert ids == [r.job_id for r in self.scratch.select_jobs(state)], where
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
