"""Equivalence tests for the slot-set free-space core.

The slot-set :class:`~repro.schedulers.freespace.FreeSpace` replaced the
breakpoint-list ``AvailabilityProfile`` as the data structure behind
conservative backfilling.  The refactor's contract is *bit-for-bit schedule
equivalence*: every query the schedulers make must return exactly what the
old implementation returned.  These tests enforce that contract three ways:

1. a verbatim copy of the old profile (``ReferenceProfile``) is kept here
   as an oracle, and randomized operation sequences must agree query by
   query (property test);
2. the incremental :class:`FreeSpaceTracker` must always equal a cold
   ``FreeSpace.from_running`` rebuild, structurally, across simulated
   scheduling-pass sequences (jobs starting, finishing early, overrunning);
3. full simulations through the old conservative scheduler (also copied
   here verbatim) and the new one must produce identical per-job start/end
   sequences, identical ``jobs_backfilled`` counts, and identical store
   result keys on the smoke- and std-space-style scenarios.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario, run
from repro.bench.store import result_key
from repro.obs.telemetry import count
from repro.schedulers.backfill import ConservativeBackfillScheduler
from repro.schedulers.base import JobRequest, RunningJobInfo, Scheduler, SchedulerState
from repro.schedulers.freespace import FreeSpace, FreeSpaceTracker
from tests.schedulers.util import make_request, make_state


# ----------------------------------------------------------------------
# the oracle: the pre-slot-set implementation, verbatim
# ----------------------------------------------------------------------
class ReferenceProfile:
    """The old breakpoint-list AvailabilityProfile, kept as a test oracle."""

    def __init__(self, total_processors: int, now: float) -> None:
        if total_processors < 1:
            raise ValueError("total_processors must be >= 1")
        self.total = total_processors
        self.now = float(now)
        self._times: List[float] = [float(now)]
        self._free: List[int] = [total_processors]

    @classmethod
    def from_running(
        cls,
        total_processors: int,
        now: float,
        running: Sequence[RunningJobInfo],
    ) -> "ReferenceProfile":
        profile = cls(total_processors, now)
        for info in running:
            end = max(info.expected_end, now)
            profile.remove(now, end, info.processors)
        return profile

    def _ensure_breakpoint(self, time: float) -> int:
        time = max(float(time), self.now)
        lo, hi = 0, len(self._times)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._times[mid] < time:
                lo = mid + 1
            else:
                hi = mid
        index = lo
        if index < len(self._times) and self._times[index] == time:
            return index
        previous_free = self._free[index - 1] if index > 0 else self.total
        self._times.insert(index, time)
        self._free.insert(index, previous_free)
        return index

    def _index_at(self, time: float) -> int:
        index = 0
        for i, t in enumerate(self._times):
            if t <= time:
                index = i
            else:
                break
        return index

    def free_at(self, time: float) -> int:
        return self._free[self._index_at(max(time, self.now))]

    def min_free(self, start: float, end: float) -> int:
        start = max(start, self.now)
        if end <= start:
            return self.free_at(start)
        minimum = self.free_at(start)
        for t, f in zip(self._times, self._free):
            if start < t < end:
                minimum = min(minimum, f)
        return minimum

    def remove(self, start: float, end: float, processors: int) -> None:
        if processors < 0:
            raise ValueError("processors must be non-negative")
        if end <= start or processors == 0:
            return
        start = max(start, self.now)
        i0 = self._ensure_breakpoint(start)
        i1 = self._ensure_breakpoint(end)
        for i in range(i0, i1):
            self._free[i] -= processors

    def add_capacity_limit(
        self, capacity_fn: Callable[[float, float], int], horizon: float
    ) -> None:
        for i, t in enumerate(self._times):
            if t >= horizon:
                break
            next_t = self._times[i + 1] if i + 1 < len(self._times) else horizon
            cap = capacity_fn(t, min(next_t, horizon))
            busy = self.total - self._free[i]
            self._free[i] = min(self._free[i], max(0, cap - busy))

    def earliest_start(
        self, processors: int, duration: float, not_before: Optional[float] = None
    ) -> float:
        if processors > self.total:
            raise ValueError(
                f"a request for {processors} processors can never fit a "
                f"{self.total}-processor machine"
            )
        not_before = self.now if not_before is None else max(not_before, self.now)
        candidates = [t for t in self._times if t >= not_before]
        if not_before not in candidates:
            candidates.insert(0, not_before)
        for anchor in candidates:
            if self.min_free(anchor, anchor + duration) >= processors:
                return anchor
        return max(self._times[-1], not_before)


class ReferenceConservative(Scheduler):
    """The old conservative scheduler: full profile rebuild every pass."""

    name = "reference-conservative"

    def __init__(self, outage_aware: bool = False, horizon: float = 365 * 24 * 3600.0):
        self.outage_aware = outage_aware
        self.horizon = horizon

    def select_jobs(self, state: SchedulerState) -> List[JobRequest]:
        profile = ReferenceProfile.from_running(
            state.total_processors, state.now, state.running
        )
        if self.outage_aware:
            profile.add_capacity_limit(state.min_capacity, state.now + self.horizon)

        started: List[JobRequest] = []
        free = state.free_processors
        blocked = False
        for request in state.queue:
            duration = max(request.estimate, 1)
            anchor = profile.earliest_start(request.processors, duration)
            profile.remove(anchor, anchor + duration, request.processors)
            if anchor <= state.now and self.job_fits_now(state, request, free):
                if blocked:
                    count("jobs_backfilled")
                started.append(request)
                free -= request.processors
            else:
                blocked = True
        return started


# ----------------------------------------------------------------------
# property test: FreeSpace vs the reference, operation by operation
# ----------------------------------------------------------------------
op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["reserve", "query_free", "query_min", "query_earliest"]),
        st.integers(min_value=0, max_value=500),  # start
        st.integers(min_value=1, max_value=400),  # duration
        st.integers(min_value=0, max_value=32),  # processors
    ),
    min_size=1,
    max_size=40,
)


class TestFreeSpaceMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(ops=op_strategy, now=st.integers(min_value=0, max_value=50))
    def test_random_operations_agree(self, ops, now):
        total = 32
        fs = FreeSpace(total, now=float(now))
        ref = ReferenceProfile(total, now=float(now))
        for kind, start, duration, procs in ops:
            if kind == "reserve":
                fs.reserve(start, start + duration, procs)
                ref.remove(start, start + duration, procs)
            elif kind == "query_free":
                assert fs.free_at(start) == ref.free_at(start)
            elif kind == "query_min":
                assert fs.min_free(start, start + duration) == ref.min_free(
                    start, start + duration
                )
            else:
                request = max(1, procs)
                assert fs.earliest_start(request, duration, start) == (
                    ref.earliest_start(request, duration, start)
                )
        # final sweep: the full free curves must be pointwise identical
        for t in range(now, 1000, 7):
            assert fs.free_at(t) == ref.free_at(t)

    @settings(max_examples=100, deadline=None)
    @given(
        jobs=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=32),  # processors
                st.integers(min_value=1, max_value=300),  # remaining runtime
            ),
            max_size=12,
        ),
        query=st.tuples(
            st.integers(min_value=1, max_value=32),
            st.integers(min_value=1, max_value=400),
        ),
    )
    def test_from_running_agrees(self, jobs, query):
        total = 64
        used = 0
        running = []
        for i, (procs, remaining) in enumerate(jobs):
            if used + procs > total:
                continue
            used += procs
            req = make_request(i + 1, procs, runtime=remaining)
            running.append(RunningJobInfo(request=req, start_time=0.0, expected_end=float(remaining)))
        fs = FreeSpace.from_running(total, 0.0, running)
        ref = ReferenceProfile.from_running(total, 0.0, running)
        procs, duration = query
        assert fs.earliest_start(procs, duration) == ref.earliest_start(procs, duration)
        for t in range(0, 400, 3):
            assert fs.free_at(t) == ref.free_at(t)

    def test_slot_invariants_after_operations(self):
        fs = FreeSpace(32, now=0.0)
        rng = random.Random(7)
        for _ in range(200):
            start = rng.randrange(0, 500)
            fs.reserve(start, start + rng.randrange(1, 100), rng.randrange(0, 8))
        times = [t for t, _, _ in fs.slots()]
        frees = [f for _, _, f in fs.slots()]
        assert times == sorted(times)
        assert len(set(times)) == len(times)
        # adjacent slots are always merged: no two neighbours share a level
        assert all(a != b for a, b in zip(frees, frees[1:]))


# ----------------------------------------------------------------------
# incremental tracker == cold rebuild, across scheduling passes
# ----------------------------------------------------------------------
def _state_from_running(
    total: int, now: float, running: List[Tuple[int, int, float, float]]
) -> SchedulerState:
    """running: list of (job_id, processors, start, expected_end)."""
    infos = []
    for job_id, procs, start, end in running:
        req = make_request(job_id, procs, runtime=int(max(end - start, 1)))
        infos.append(RunningJobInfo(request=req, start_time=start, expected_end=end))
    used = sum(i.processors for i in infos)
    return SchedulerState(
        now=now,
        total_processors=total,
        free_processors=total - used,
        queue=[],
        running=infos,
    )


class TestTrackerMatchesRebuild:
    def _assert_equal_profiles(self, tracked: FreeSpace, state: SchedulerState):
        fresh = FreeSpace.from_running(
            state.total_processors, state.now, state.running
        )
        assert tracked.slots() == fresh.slots()

    def test_event_sequence(self):
        total = 64
        tracker = FreeSpaceTracker()
        timeline = [
            # (now, running set as (id, procs, start, expected_end))
            (0.0, [(1, 16, 0.0, 100.0), (2, 8, 0.0, 50.0)]),
            (10.0, [(1, 16, 0.0, 100.0), (2, 8, 0.0, 50.0), (3, 4, 10.0, 80.0)]),
            (50.0, [(1, 16, 0.0, 100.0), (3, 4, 10.0, 80.0)]),  # job 2 done
            (60.0, [(1, 16, 0.0, 120.0), (3, 4, 10.0, 80.0)]),  # job 1 overran
            (80.0, [(1, 16, 0.0, 120.0)]),
            (200.0, []),  # everything finished, machine idle
            (210.0, [(9, 64, 210.0, 500.0)]),
        ]
        for now, running in timeline:
            state = _state_from_running(total, now, running)
            tracked = tracker.sync(state)
            self._assert_equal_profiles(tracked, state)

    def test_randomized_pass_sequences(self):
        total = 128
        rng = random.Random(1999)
        for _trial in range(20):
            tracker = FreeSpaceTracker()
            now = 0.0
            running: dict = {}
            next_id = 1
            for _pass in range(40):
                now += rng.randrange(0, 50)
                # jobs whose end has passed complete (sometimes late/early)
                for job_id in list(running):
                    procs, start, end = running[job_id]
                    if end <= now or rng.random() < 0.1:
                        del running[job_id]
                    elif rng.random() < 0.1:
                        running[job_id] = (procs, start, end + rng.randrange(1, 60))
                used = sum(p for p, _, _ in running.values())
                while rng.random() < 0.6:
                    procs = rng.randrange(1, 33)
                    if used + procs > total:
                        break
                    used += procs
                    running[next_id] = (
                        procs,
                        now,
                        now + rng.randrange(1, 300),
                    )
                    next_id += 1
                state = _state_from_running(
                    total,
                    now,
                    [(j, p, s, e) for j, (p, s, e) in sorted(running.items())],
                )
                tracked = tracker.sync(state)
                self._assert_equal_profiles(tracked, state)

    def test_time_regression_triggers_rebuild(self):
        tracker = FreeSpaceTracker()
        state1 = _state_from_running(32, 100.0, [(1, 8, 0.0, 200.0)])
        tracker.sync(state1)
        state2 = _state_from_running(32, 50.0, [(1, 8, 0.0, 200.0)])
        tracked = tracker.sync(state2)  # time went backwards: full rebuild
        self._assert_equal_profiles(tracked, state2)

    def test_copy_isolates_per_pass_mutation(self):
        # The scheduler reserves into a copy; the tracked base must not see it.
        tracker = FreeSpaceTracker()
        state = _state_from_running(32, 0.0, [(1, 8, 0.0, 100.0)])
        base = tracker.sync(state)
        scratch = base.copy()
        scratch.reserve(0.0, 50.0, 24)
        assert base.free_at(10.0) == 24
        assert scratch.free_at(10.0) == 0
        self._assert_equal_profiles(tracker.sync(state), state)


# ----------------------------------------------------------------------
# end-to-end: old scheduler vs new scheduler, whole simulations
# ----------------------------------------------------------------------
SCENARIOS = [
    # the smoke-suite context
    Scenario(workload="uniform", jobs=150, machine_size=32, load=0.7, seed=11),
    # a trimmed std-space context (lublin99, moderate + heavy load)
    Scenario(workload="lublin99", jobs=250, machine_size=128, load=0.55, seed=23),
    Scenario(workload="lublin99", jobs=250, machine_size=128, load=0.85, seed=23),
]


class TestSchedulesAreBitIdentical:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.label)
    def test_conservative_matches_reference(self, scenario):
        new = run(scenario.with_(policy="conservative"))
        old = run(
            scenario.with_(policy="conservative"), policy=ReferenceConservative()
        )
        new_jobs = [
            (j.job_id, j.start_time, j.end_time, j.processors) for j in new.result
        ]
        old_jobs = [
            (j.job_id, j.start_time, j.end_time, j.processors) for j in old.result
        ]
        assert new_jobs == old_jobs
        assert (
            new.report.counters.get("jobs_backfilled", 0)
            == old.report.counters.get("jobs_backfilled", 0)
        )
        # all schedule-derived metrics follow from identical job records
        assert new.report.mean_wait == old.report.mean_wait
        assert new.report.mean_bounded_slowdown == old.report.mean_bounded_slowdown

    def test_store_result_keys_unchanged(self):
        # Store keys derive from the scenario alone, never the metric values,
        # so cached entries keep addressing the same cells across the refactor.
        for scenario in SCENARIOS:
            cell = scenario.with_(policy="conservative")
            assert result_key(cell) == result_key(cell.with_())

    def test_new_scheduler_emits_slot_telemetry(self):
        result = run(SCENARIOS[0].with_(policy="conservative"))
        counters = result.report.counters
        assert counters.get("profile_patches", 0) > 0
        assert counters.get("slots_split", 0) > 0
        # the cold rebuild happens exactly once per run (first pass)
        assert counters.get("profile_builds") == 1

    def test_serial_runs_are_deterministic(self):
        first = run(SCENARIOS[0].with_(policy="conservative"))
        second = run(SCENARIOS[0].with_(policy="conservative"))
        assert first.report.to_json() == second.report.to_json()


class TestOutageClampEquivalence:
    def test_clamped_profile_matches_reference(self):
        # a capacity function with a dip (announced outage window)
        def capacity(start: float, end: float) -> int:
            return 8 if start < 120.0 and end > 60.0 else 32

        running = [
            (
                1,
                8,
                0.0,
                90.0,
            ),
            (2, 4, 0.0, 150.0),
        ]
        state = _state_from_running(32, 0.0, running)
        fs = FreeSpace.from_running(32, 0.0, state.running)
        fs.clamp_capacity(capacity, 400.0)
        ref = ReferenceProfile.from_running(32, 0.0, state.running)
        ref.add_capacity_limit(capacity, 400.0)
        for t in range(0, 400, 5):
            assert fs.free_at(t) == ref.free_at(t)
        for procs, duration in [(4, 10), (8, 50), (20, 30), (32, 10)]:
            assert fs.earliest_start(procs, duration) == ref.earliest_start(
                procs, duration
            )

    def test_outage_aware_conservative_matches(self):
        scenario = Scenario(
            workload="lublin99", jobs=120, machine_size=64, load=0.7, seed=5
        )
        new = run(scenario.with_(policy="conservative:outage_aware=true"))
        old = run(
            scenario.with_(policy="conservative"),
            policy=ReferenceConservative(outage_aware=True),
        )
        new_jobs = [(j.job_id, j.start_time, j.end_time) for j in new.result]
        old_jobs = [(j.job_id, j.start_time, j.end_time) for j in old.result]
        assert new_jobs == old_jobs
