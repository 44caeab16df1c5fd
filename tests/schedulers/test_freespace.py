"""Equivalence tests for the slot-set free-space core.

The slot-set :class:`~repro.schedulers.freespace.FreeSpace` replaced the
breakpoint-list ``AvailabilityProfile`` as the data structure behind
conservative backfilling.  The refactor's contract is *bit-for-bit schedule
equivalence*: every query the schedulers make must return exactly what the
old implementation returned.  These tests enforce that contract three ways:

1. a verbatim copy of the old profile (``ReferenceProfile``) is kept here
   as an oracle, and randomized operation sequences must agree query by
   query (property test);
2. the incremental :class:`FreeSpaceTracker`, told of every start and end,
   must always equal a cold ``FreeSpace.from_running`` rebuild,
   structurally, across simulated scheduling-pass sequences (jobs
   starting, finishing early, overrunning);
3. full simulations through the old conservative scheduler (also copied
   here verbatim) and the new one must produce identical per-job start/end
   sequences, identical ``jobs_backfilled`` counts, and identical store
   result keys on the smoke- and std-space-style scenarios.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario, run
from repro.bench.store import result_key
from repro.schedulers.backfill import ConservativeBackfillScheduler
from repro.schedulers.base import JobRequest, RunningJobInfo, Scheduler, SchedulerState
from repro.schedulers.freespace import FreeSpace, FreeSpaceTracker, report_slot_stats
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
                    state.counts["jobs_backfilled"] += 1
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
                assert fs.min_free(start, start) == ref.free_at(start)
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
            assert fs.min_free(t, t) == ref.free_at(t)

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
            assert fs.min_free(t, t) == ref.free_at(t)

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
    """The tracker, patched from reported starts and ends, equals a cold rebuild slot for slot."""

    @staticmethod
    def _infos(now, running):
        """running: {job_id: (request, start, expected_end)}, as a driver keeps it."""
        return [
            RunningJobInfo(request=req, start_time=start, expected_end=max(end, now))
            for req, start, end in running.values()
        ]

    def _assert_equal_profiles(self, tracked: FreeSpace, total, now, running):
        fresh = FreeSpace.from_running(total, now, self._infos(now, running))
        assert tracked.slots() == fresh.slots()

    def test_event_sequence(self):
        total = 64
        counts: Counter = Counter()
        tracker = FreeSpaceTracker(total, counts)
        running: dict = {}
        timeline = [
            # (now, jobs ended since the previous pass, jobs started now as
            # (id, processors, estimate))
            (0.0, [], [(1, 16, 100), (2, 8, 50)]),
            (10.0, [], [(3, 4, 70), (4, 2, 30)]),
            (20.0, [4], []),  # job 4 ended early: its start and end cancel
            (40.0, [2], []),  # job 2 ended before its estimate ran out
            (60.0, [], []),  # nothing changed
            (150.0, [3], []),  # job 1 overran its estimate
            (200.0, [1], []),  # everything finished, machine idle
            (210.0, [], [(9, 64, 290)]),
            (500.0, [9], []),
        ]
        first = None
        for now, ended, starts in timeline:
            for job_id in ended:
                req, _start, end = running.pop(job_id)
                tracker.end(req.processors, end)
            tracked = tracker.sync(now, self._infos(now, running))
            self._assert_equal_profiles(tracked, total, now, running)
            # Built at the first sync, patched in place ever after.
            first = tracked if first is None else first
            assert tracked is first
            for job_id, procs, estimate in starts:
                req = make_request(job_id, procs, runtime=estimate)
                running[job_id] = (req, now, now + estimate)
                tracker.start(procs, now + estimate)
        # One build; then the starts at 0 (two), the surviving start at 10
        # and job 2's early end.  Job 4 and job 9 cancel, and ends past
        # their estimate free nothing.
        assert counts["profile_builds"] == 1
        assert counts["profile_patches"] == 4

    def test_reports_before_the_first_sync_are_ignored(self):
        # The first sync builds from the running set, which already holds
        # every job reported before it.
        counts: Counter = Counter()
        tracker = FreeSpaceTracker(32, counts)
        req = make_request(1, 8, runtime=100)
        tracker.start(8, 100.0)
        tracker.start(4, 50.0)
        tracker.end(4, 50.0)
        running = {1: (req, 0.0, 100.0)}
        tracked = tracker.sync(10.0, self._infos(10.0, running))
        assert tracked.slots() == [(10.0, 100.0, 24), (100.0, float("inf"), 32)]
        assert tracker.sync(20.0, []).slots() == [(20.0, 100.0, 24), (100.0, float("inf"), 32)]
        # A counter nothing added to stays absent.
        assert counts["profile_builds"] == 1 and "profile_patches" not in counts

    def test_randomized_pass_sequences(self):
        total = 128
        rng = random.Random(1999)
        unchanged = 0
        for _trial in range(20):
            tracker = FreeSpaceTracker(total, Counter())
            now, running, next_id, first, started = 0.0, {}, 1, None, 0
            for _pass in range(40):
                now += rng.choice([0, 0, 3, 20, 80])
                ended = 0
                for job_id in list(running):
                    req, start, end = running[job_id]
                    # completions at, before (early) or after (overrun) the estimate
                    if (end <= now and rng.random() < 0.7) or rng.random() < 0.1:
                        tracker.end(req.processors, end)
                        del running[job_id]
                        ended += 1
                unchanged += not started and not ended
                tracked = tracker.sync(now, self._infos(now, running))
                self._assert_equal_profiles(tracked, total, now, running)
                first = tracked if first is None else first
                assert tracked is first
                used = sum(req.processors for req, _s, _e in running.values())
                started = 0
                while rng.random() < 0.5:
                    req = make_request(next_id, rng.randrange(1, 33), runtime=rng.choice([0, 5, 50, 200]))
                    if used + req.processors > total:
                        break
                    used += req.processors
                    running[next_id] = (req, now, now + req.estimate)
                    tracker.start(req.processors, now + req.estimate)
                    started += 1
                    next_id += 1
        assert unchanged > 0

    def test_copy_isolates_per_pass_mutation(self):
        # The scheduler reserves into a copy; the tracked base must not see it.
        tracker = FreeSpaceTracker(32, Counter())
        running = {1: (make_request(1, 8, runtime=100), 0.0, 100.0)}
        base = tracker.sync(0.0, self._infos(0.0, running))
        scratch = base.copy()
        scratch.reserve(0.0, 50.0, 24)
        assert base.min_free(10.0, 10.0) == 24
        assert scratch.min_free(10.0, 10.0) == 0
        self._assert_equal_profiles(tracker.sync(0.0, []), 32, 0.0, running)


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


class TestReportSlotStats:
    def test_a_slot_set_without_churn_adds_no_key(self):
        counts: Counter = Counter()
        report_slot_stats(counts, FreeSpace(32, 0.0))
        assert counts == {}

    def test_each_split_and_merge_is_reported_once(self):
        counts: Counter = Counter()
        fs = FreeSpace(32, 0.0)
        fs.reserve(10.0, 20.0, 8)  # boundaries at 10 and 20
        report_slot_stats(counts, fs)
        assert counts == {"slots_split": 2}
        fs.release(10.0, 20.0, 8)  # both boundaries go again
        report_slot_stats(counts, fs)
        report_slot_stats(counts, fs)
        assert counts == {"slots_split": 2, "slots_merged": 2}
        assert fs.slots() == [(0.0, float("inf"), 32)]


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
            assert fs.min_free(t, t) == ref.free_at(t)
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


# ----------------------------------------------------------------------
# one-walk place, and the clamp over a calendar's dips
# ----------------------------------------------------------------------
reservations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=400),  # start
        st.integers(min_value=1, max_value=200),  # duration
        st.integers(min_value=0, max_value=40),  # processors: may overbook
    ),
    max_size=15,
)


def _free_space(total: int, now: int, reserved) -> FreeSpace:
    fs = FreeSpace(total, float(now))
    for start, duration, processors in reserved:
        fs.reserve(start, start + duration, processors)
    fs.take_stats()
    return fs


class TestPlaceMatchesEarliestStartThenReserve:
    @settings(max_examples=300, deadline=None)
    @given(
        reserved=reservations,
        now=st.integers(min_value=0, max_value=50),
        requests=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=32),  # processors
                st.sampled_from([0, 1, 7, 60, 500]),  # duration
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_slot_for_slot(self, reserved, now, requests):
        placed = _free_space(32, now, reserved)
        walked = placed.copy()
        for processors, duration in requests:
            anchor = walked.earliest_start(processors, duration)
            walked.reserve(anchor, anchor + duration, processors)
            assert placed.place(processors, duration) == anchor
            assert placed.slots() == walked.slots()
            assert placed.take_stats() == walked.take_stats()

    def test_fallback_past_the_last_boundary(self):
        # A dip after the last boundary clamps the open-ended tail to zero:
        # nothing fits, and both anchor on the last boundary.
        fs = _free_space(8, 0, [(0, 50, 2)])
        calendar = FreeSpace(8, 0.0)
        calendar.reserve(100, 200, 8)
        fs.clamp_capacity(calendar, 1e9)
        assert fs.slots() == [(0.0, 50.0, 6), (50.0, float("inf"), 0)]
        walked = fs.copy()
        anchor = walked.earliest_start(4, 100)
        walked.reserve(anchor, anchor + 100, 4)
        assert fs.place(4, 100) == anchor == 50.0
        assert fs.slots() == walked.slots()

    def test_rejects_requests_wider_than_the_machine(self):
        with pytest.raises(ValueError):
            FreeSpace(8, 0.0).place(9, 10)


outage_windows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=600),  # start
        st.integers(min_value=1, max_value=300),  # duration
        st.integers(min_value=1, max_value=32),  # nodes: overlaps go below zero
    ),
    max_size=6,
)


class TestCalendarClampMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        reserved=reservations,
        outages=outage_windows,
        now=st.integers(min_value=0, max_value=100),
        horizon=st.sampled_from([30, 175, 333, 10**7]),
    )
    def test_slot_for_slot(self, reserved, outages, now, horizon):
        total = 32
        calendar = FreeSpace(total, float(now))
        for start, duration, nodes in outages:
            calendar.reserve(start, start + duration, nodes)
        fs = _free_space(total, now, reserved)
        sampled = fs.copy()
        # The reference on the same breakpoints, so per-slot windows agree.
        ref = ReferenceProfile(total, float(now))
        ref._times = [start for start, _end, _free in fs.slots()]
        ref._free = [free for _start, _end, free in fs.slots()]

        fs.clamp_capacity(calendar, now + horizon)
        sampled.clamp_capacity(calendar.capacity, now + horizon)
        ref.add_capacity_limit(calendar.capacity, now + horizon)

        assert fs.slots() == sampled.slots()
        for t in sorted({now, *ref._times, *(t + 0.5 for t in ref._times)}):
            assert fs.min_free(t, t) == ref.free_at(t)
        for t in range(now, now + 1000, 11):
            assert fs.min_free(t, t) == ref.free_at(t)

    def test_horizon_cuts_a_slot(self):
        # The slot [0, 100) is clamped by the dip at 40 only if its window,
        # cut at the horizon, reaches it.
        calendar = FreeSpace(16, 0.0)
        calendar.reserve(40, 60, 16)
        for horizon, expected in ((30.0, 16), (50.0, 0)):
            fs = _free_space(16, 0, [(100, 50, 4)])
            fs.clamp_capacity(calendar, horizon)
            assert fs.min_free(0, 0) == expected
            assert fs.min_free(120, 120) == 12
