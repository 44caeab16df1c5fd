"""Unit and integration tests for the machine-scheduler evaluation driver."""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro.bench.seeds import derive_seeds
from repro.core.outage import OutageLog, OutageModel, OutageRecord, OutageType, generate_outages
from repro.core.swf import MISSING
from repro.evaluation import MachineSimulation, simulate
from repro.grid import GridSimulation, LeastLoadedMetaScheduler, Site, generate_meta_jobs
from repro.schedulers import (
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    FCFSScheduler,
    ShortestJobFirstScheduler,
)
from repro.schedulers.base import JobRequest, Scheduler, usable_requests
from repro.schedulers.freespace import FreeSpace
from repro.schedulers.moldable import MoldableScheduler
from repro.workloads import Downey97Model, Lublin99Model
from tests.conftest import by_job_id, make_job, make_workload, simulate_one_site_grid


class TestBasicReplay:
    def test_single_job_timing(self):
        workload = make_workload([make_job(1, submit=0, runtime=100, processors=8)])
        result = simulate(workload, FCFSScheduler(), machine_size=16)
        job = result.jobs[0]
        assert job.start_time == 0
        assert job.end_time == 100
        assert job.wait_time == 0

    def test_sequential_when_machine_full(self):
        jobs = [
            make_job(1, submit=0, runtime=100, processors=16),
            make_job(2, submit=0, runtime=100, processors=16),
        ]
        result = simulate(make_workload(jobs), FCFSScheduler(), machine_size=16)
        by_id = by_job_id(result)
        assert by_id[1].start_time == 0
        assert by_id[2].start_time == 100
        assert by_id[2].wait_time == 100

    def test_parallel_when_machine_has_room(self):
        jobs = [
            make_job(1, submit=0, runtime=100, processors=8),
            make_job(2, submit=0, runtime=100, processors=8),
        ]
        result = simulate(make_workload(jobs), FCFSScheduler(), machine_size=16)
        assert all(j.wait_time == 0 for j in result.jobs)

    def test_scheduler_sees_estimates_not_runtimes(self):
        seen = {}

        class Spy(Scheduler):
            name = "spy"

            def select_jobs(self, state):
                for request in state.queue:
                    seen[request.job_id] = request.estimate
                return list(state.queue)

        workload = make_workload(
            [make_job(1, submit=0, runtime=100, processors=4, requested_time=500)]
        )
        simulate(workload, Spy(), machine_size=16)
        assert seen[1] == 500

    def test_jobs_too_large_for_machine_are_skipped(self):
        jobs = [make_job(1, submit=0, runtime=10, processors=64), make_job(2, submit=0, runtime=10, processors=4)]
        result = simulate(make_workload(jobs), FCFSScheduler(), machine_size=16)
        assert len(result.jobs) == 1
        assert result.metadata["skipped_too_large"] == 1

    def test_machine_size_defaults_to_header(self, tiny_workload):
        result = simulate(tiny_workload, FCFSScheduler())
        assert result.machine_size == 32

    def test_unknown_machine_size_rejected(self):
        job = make_job(1, allocated_processors=MISSING, requested_processors=MISSING)
        workload = make_workload([job])
        workload.header.set("MaxNodes", "")
        with pytest.raises(ValueError):
            MachineSimulation(workload, FCFSScheduler())

    def test_over_committing_scheduler_detected(self):
        class Broken(Scheduler):
            name = "broken"

            def select_jobs(self, state):
                return list(state.queue)  # ignores capacity

        jobs = [make_job(1, submit=0, processors=16), make_job(2, submit=0, processors=16)]
        with pytest.raises(RuntimeError):
            simulate(make_workload(jobs), Broken(), machine_size=16)

    def test_scheduler_selecting_unknown_job_detected(self):
        class Phantom(Scheduler):
            name = "phantom"

            def select_jobs(self, state):
                ghost = JobRequest(
                    job=make_job(99, processors=1),
                    job_id=99,
                    processors=1,
                    runtime=1,
                    estimate=1,
                    submit_time=0,
                )
                return [ghost]

        with pytest.raises(RuntimeError):
            simulate(make_workload([make_job(1, submit=0)]), Phantom(), machine_size=16)


class TestDependencies:
    def _chained_workload(self):
        jobs = [
            make_job(1, submit=0, runtime=100, processors=4),
            make_job(2, submit=10, runtime=50, processors=4, preceding_job=1, think_time=30),
        ]
        return make_workload(jobs)

    def test_open_replay_uses_absolute_submit_times(self):
        result = simulate(
            self._chained_workload(), FCFSScheduler(), machine_size=16, honor_dependencies=False
        )
        assert by_job_id(result)[2].submit_time == 10

    def test_closed_replay_waits_for_predecessor_and_think_time(self):
        result = simulate(
            self._chained_workload(), FCFSScheduler(), machine_size=16, honor_dependencies=True
        )
        # Job 1 ends at 100; think time 30 -> job 2 is submitted at 130.
        assert by_job_id(result)[2].submit_time == 130

    def test_missing_think_time_treated_as_zero(self):
        jobs = [
            make_job(1, submit=0, runtime=100, processors=4),
            make_job(2, submit=10, runtime=50, processors=4, preceding_job=1, think_time=MISSING),
        ]
        result = simulate(
            make_workload(jobs), FCFSScheduler(), machine_size=16, honor_dependencies=True
        )
        assert by_job_id(result)[2].submit_time == 100

    def test_dependency_on_absent_job_falls_back_to_absolute_time(self):
        jobs = [make_job(1, submit=5, runtime=10, processors=4, preceding_job=77, think_time=3)]
        result = simulate(
            make_workload(jobs), FCFSScheduler(), machine_size=16, honor_dependencies=True
        )
        assert by_job_id(result)[1].submit_time == 5


class TestOutages:
    def _maintenance(self, start, end, nodes, announced=None):
        return OutageLog(
            [
                OutageRecord(
                    announced_time=start if announced is None else announced,
                    start_time=start,
                    end_time=end,
                    outage_type=OutageType.MAINTENANCE,
                    nodes_affected=nodes,
                )
            ]
        )

    def test_job_killed_by_unannounced_outage_is_restarted(self):
        workload = make_workload([make_job(1, submit=0, runtime=100, processors=16)])
        outages = self._maintenance(start=50, end=60, nodes=16)
        result = simulate(
            workload, FCFSScheduler(), machine_size=16, outages=outages, restart_failed_jobs=True
        )
        job = by_job_id(result)[1]
        assert result.outage_kills == 1
        assert job.restarts == 1
        assert not job.killed
        assert job.end_time > 100  # lost work plus the downtime

    def test_job_killed_without_restart_is_recorded_killed(self):
        workload = make_workload([make_job(1, submit=0, runtime=100, processors=16)])
        outages = self._maintenance(start=50, end=60, nodes=16)
        result = simulate(
            workload, FCFSScheduler(), machine_size=16, outages=outages, restart_failed_jobs=False
        )
        job = by_job_id(result)[1]
        assert job.killed
        assert job.end_time == 50

    def test_outage_on_free_nodes_kills_nothing(self):
        workload = make_workload([make_job(1, submit=0, runtime=100, processors=4)])
        outages = self._maintenance(start=10, end=20, nodes=4)
        # The outage takes the highest-numbered nodes; the job sits on the lowest.
        result = simulate(workload, FCFSScheduler(), machine_size=16, outages=outages)
        assert result.outage_kills == 0

    def test_outage_aware_scheduler_avoids_announced_window(self):
        # One job that would overlap a full-machine maintenance window.
        workload = make_workload([make_job(1, submit=0, runtime=100, processors=16, requested_time=100)])
        outages = self._maintenance(start=50, end=200, nodes=16, announced=0)
        aware = simulate(
            workload,
            EasyBackfillScheduler(outage_aware=True),
            machine_size=16,
            outages=outages,
        )
        blind = simulate(
            workload,
            EasyBackfillScheduler(outage_aware=False),
            machine_size=16,
            outages=outages,
        )
        assert aware.outage_kills == 0
        assert by_job_id(aware)[1].start_time >= 200
        assert blind.outage_kills == 1

    def test_killed_runs_never_complete(self):
        size = 64
        workload = Lublin99Model(machine_size=size).generate_with_load(300, 0.85, seed=7)
        outages = generate_outages(size, int(workload.span()) + 1, seed=11)
        sim = MachineSimulation(
            workload, ConservativeBackfillScheduler(outage_aware=True), machine_size=size, outages=outages
        )
        result = sim.run()
        assert sim._completions == {}
        restarted = [j for j in result.jobs if j.restarts]
        assert result.outage_kills > 0 and restarted
        runtime_of = {r.job_id: r.runtime for r in usable_requests(workload, size)[0]}
        for job in restarted:
            assert job.end_time - job.start_time == runtime_of[job.job.job_number]

    def test_available_node_seconds_recorded(self):
        workload = make_workload([make_job(1, submit=0, runtime=300, processors=4)])
        outages = self._maintenance(start=10, end=20, nodes=4)
        result = simulate(workload, FCFSScheduler(), machine_size=16, outages=outages)
        assert result.available_node_seconds is not None
        assert result.available_node_seconds < 16 * result.makespan + 1


class _Audit(Scheduler):
    """Delegates to ``inner``, recording each pass's queue ids and picks."""

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.name = inner.name
        self.outage_aware = inner.outage_aware
        self.passes = []

    def select_jobs(self, state):
        queued = [r.job_id for r in state.queue]
        selected = self.inner.select_jobs(state)
        self.passes.append((queued, [r.job_id for r in selected]))
        return selected


def _assert_started_jobs_removed(passes):
    """Between passes the queue only loses the picks; arrivals append at the end."""
    for (queued, picked), (next_queued, _) in zip(passes, passes[1:]):
        remaining = [job_id for job_id in queued if job_id not in picked]
        assert next_queued[: len(remaining)] == remaining


class TestEveryJobAccountedFor:
    """Every usable job ends in ``SimulationResult.jobs`` exactly once.

    Arrivals fire from a sorted stream merged with the event heap; a merge
    that dropped the stream's tail, or a dependency release that never
    fired, would lose jobs silently: the run would just report fewer.
    """

    SIZE = 32

    def _closed_workload(self, seed):
        rng = random.Random(seed)
        jobs = []
        for number in range(1, 81):
            dependency = {}
            if number > 1 and rng.random() < 0.4:
                dependency = dict(
                    preceding_job=rng.randrange(1, number), think_time=rng.choice([0, 0, 5, 600])
                )
            jobs.append(
                make_job(
                    number,
                    submit=rng.randrange(0, 3000),
                    runtime=rng.choice([0, 0, 10, 300, 900]),
                    processors=rng.choice([1, 4, 16, self.SIZE, self.SIZE + 8]),
                    **dependency,
                )
            )
        return make_workload(jobs, machine_size=self.SIZE)

    def _assert_accounted(self, workload, result):
        requests, skipped = usable_requests(workload, self.SIZE)
        assert sorted(j.job_id for j in result.jobs) == sorted(r.job_id for r in requests)
        killed = sum(1 for j in result.jobs if j.killed)
        done = len(result.jobs) - killed
        assert skipped == result.metadata["skipped_too_large"] > 0
        assert result.unfinished == []
        assert done + killed + skipped == len(workload.summary_jobs())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "policy", [FCFSScheduler, EasyBackfillScheduler, ConservativeBackfillScheduler]
    )
    def test_closed_replay(self, policy, seed):
        workload = self._closed_workload(seed)
        result = simulate(workload, policy(), machine_size=self.SIZE, honor_dependencies=True)
        self._assert_accounted(workload, result)
        released = [j for j in workload.summary_jobs() if j.has_dependency]
        assert released and any(j.run_time == 0 for j in result.jobs)

    @pytest.mark.parametrize("restart", [True, False])
    def test_outage_aware_replay_with_kills(self, restart):
        workload = self._closed_workload(1)
        outages = generate_outages(
            self.SIZE,
            int(workload.span()) + 3600,
            model=OutageModel(mtbf_seconds=600, max_nodes_per_failure=self.SIZE),
            seed=1,
        )
        result = simulate(
            workload,
            ConservativeBackfillScheduler(outage_aware=True),
            machine_size=self.SIZE,
            outages=outages,
            honor_dependencies=True,
            restart_failed_jobs=restart,
        )
        self._assert_accounted(workload, result)
        assert result.outage_kills > 0
        assert any(j.restarts for j in result.jobs) == restart
        assert any(j.killed for j in result.jobs) != restart


class TestUnfinishedJobs:
    """Jobs left when the events run out are listed, not dropped."""

    def _assert_balance(self, workload, result):
        killed = sum(1 for j in result.jobs if j.killed)
        done = len(result.jobs) - killed
        skipped = result.metadata["skipped_too_large"]
        assert done + killed + skipped + len(result.unfinished) == len(workload.summary_jobs())
        assert not set(result.unfinished) & {j.job_id for j in result.jobs}

    def test_a_policy_that_never_selects_leaves_every_job_unfinished(self):
        workload = make_workload(
            [make_job(n, submit=10 * n, processors=4) for n in (3, 1, 2)]
            + [make_job(4, submit=5, processors=64)]
        )

        class Never(Scheduler):
            def select_jobs(self, state):
                return []

        result = simulate(workload, Never(), machine_size=16)
        assert result.jobs == []
        assert result.unfinished == [1, 2, 3]
        assert result.metadata["skipped_too_large"] == 1
        self._assert_balance(workload, result)

    def test_a_chain_whose_predecessor_never_runs(self):
        workload = make_workload(
            [
                make_job(1, submit=0, processors=4),
                make_job(2, submit=10, processors=4, preceding_job=1, think_time=5),
                make_job(3, submit=20, processors=4, preceding_job=2, think_time=5),
                make_job(4, submit=30, processors=4),
            ]
        )

        class AllButJobOne(Scheduler):
            def select_jobs(self, state):
                return [r for r in state.queue if r.job_id != 1]

        result = simulate(workload, AllButJobOne(), machine_size=16, honor_dependencies=True)
        assert [j.job_id for j in result.jobs] == [4]
        # 1 is still queued; 2 waits on 1, and 3 on 2.
        assert result.unfinished == [1, 2, 3]
        self._assert_balance(workload, result)

    def test_a_refused_restart_is_unfinished(self):
        workload = make_workload([make_job(1, submit=0, runtime=100, processors=16)])
        outages = OutageLog(
            [
                OutageRecord(
                    announced_time=10,
                    start_time=10,
                    end_time=20,
                    outage_type=OutageType.CPU_FAILURE,
                    nodes_affected=1,
                )
            ]
        )

        class FirstAttemptOnly(Scheduler):
            def select_jobs(self, state):
                return [] if state.now > 0 else list(state.queue)

        result = simulate(workload, FirstAttemptOnly(), machine_size=16, outages=outages)
        assert result.outage_kills == 1
        assert result.jobs == [] and result.unfinished == [1]
        self._assert_balance(workload, result)


class TestQueueUpkeep:
    def test_non_prefix_selection_removes_exactly_the_started_jobs(self, lublin_workload):
        audit = _Audit(ShortestJobFirstScheduler())
        result = simulate(lublin_workload, audit, machine_size=64)
        assert any(
            picked and picked != queued[: len(picked)] for queued, picked in audit.passes
        ), "SJF never picked out of arrival order; the test exercises nothing"
        _assert_started_jobs_removed(audit.passes)
        assert len(result.jobs) == len(lublin_workload.summary_jobs())

    def test_resized_requests_remove_their_queued_originals(self):
        workload, descriptions = Downey97Model(machine_size=64).generate_moldable(150, seed=3)
        audit = _Audit(MoldableScheduler(descriptions))
        result = simulate(workload, audit, machine_size=64)
        _assert_started_jobs_removed(audit.passes)
        assert sorted(j.job_id for j in result.jobs) == sorted(
            j.job_number for j in workload.summary_jobs()
        )

    def test_policies_read_the_drivers_running_records(self, lublin_workload):
        checked = []

        class Spy(EasyBackfillScheduler):
            def select_jobs(self, state):
                records = sim._space.running.values()
                assert sorted(map(id, state.running)) == sorted(map(id, records))
                for seen in state.running:
                    with pytest.raises(AttributeError):
                        seen.expected_end = 0.0
                checked.append(len(records))
                return super().select_jobs(state)

        sim = MachineSimulation(lublin_workload, Spy(), machine_size=64)
        sim.run()
        assert any(checked)


def _misbehaving(pick):
    """A policy that waits for all three jobs to queue, then picks badly."""

    class Misbehaving(Scheduler):
        name = "misbehaving"

        def select_jobs(self, state):
            return pick(state.queue) if len(state.queue) == 3 else []

    return Misbehaving()


class TestSelectionChecks:
    JOBS = [make_job(i, submit=0, runtime=100, processors=8) for i in (1, 2, 3)]

    @staticmethod
    def run(workload, scheduler, machine_size):
        return simulate(workload, scheduler, machine_size=machine_size)

    def _ghost(self):
        return usable_requests(make_workload([make_job(99, processors=1, runtime=1)]), 1)[0][0]

    @pytest.mark.parametrize(
        "pick",
        [
            pytest.param(lambda q: [q[0], q[0]], id="duplicate-head"),
            pytest.param(lambda q: [q[1], q[1]], id="duplicate-non-prefix"),
            pytest.param(lambda q: [q[0], q[1], q[2], q[0]], id="duplicate-after-whole-queue"),
            pytest.param(lambda q: [q[0], q[1], q[2], q[2]], id="longer-than-queue"),
        ],
    )
    def test_duplicate_selection_raises(self, pick):
        with pytest.raises(RuntimeError, match="not in the wait queue"):
            self.run(make_workload(self.JOBS), _misbehaving(pick), machine_size=64)

    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_not_in_queue_selection_raises(self, position):
        ghost = self._ghost()

        def pick(queue):
            chosen = list(queue)
            chosen.insert(position, ghost)
            return chosen

        with pytest.raises(RuntimeError, match="not in the wait queue"):
            self.run(make_workload(self.JOBS), _misbehaving(pick), machine_size=64)

    @pytest.mark.parametrize(
        "pick",
        [
            pytest.param(lambda q: list(q), id="prefix"),
            pytest.param(lambda q: list(reversed(q)), id="non-prefix"),
        ],
    )
    def test_over_commit_raises(self, pick):
        with pytest.raises(RuntimeError, match="over-committed"):
            self.run(make_workload(self.JOBS), _misbehaving(pick), machine_size=16)


class TestSelectionChecksOnAGridSite(TestSelectionChecks):
    """A grid site runs the same pass, so it makes the same checks."""

    run = staticmethod(simulate_one_site_grid)


def _reference_min_capacity(intervals, size, start, end):
    """Minimum capacity over [start, end) with ``amount`` held back on each (start, end, amount)."""
    boundaries = {start}
    for held_start, held_end, _amount in intervals:
        if held_start < end and start < held_end:
            boundaries.add(max(start, held_start))
    minimum = size
    for t in boundaries:
        held = sum(amount for s, e, amount in intervals if s <= t < e)
        minimum = min(minimum, max(0, size - held))
    return minimum


class TestAnnouncedCapacity:
    def test_pruned_capacity_answers_like_the_full_announced_log(self):
        size = 64
        workload = Lublin99Model(machine_size=size).generate_with_load(300, 0.85, seed=7)
        outages = generate_outages(size, int(workload.span()) + 1, seed=11)
        calls = []

        class Recording(ConservativeBackfillScheduler):
            def select_jobs(self, state):
                inner = state.min_capacity

                def min_capacity(start, end):
                    answer = inner(start, end)
                    calls.append((state.now, start, end, answer))
                    return answer

                state.min_capacity = min_capacity
                return super().select_jobs(state)

        recorded = simulate(workload, Recording(outage_aware=True), machine_size=size, outages=outages)
        plain = simulate(
            workload, ConservativeBackfillScheduler(outage_aware=True), machine_size=size, outages=outages
        )
        assert calls and recorded.outage_kills > 0
        assert [(j.job_id, j.start_time, j.end_time) for j in recorded.jobs] == [
            (j.job_id, j.start_time, j.end_time) for j in plain.jobs
        ]
        for now, start, end, answer in calls:
            assert start >= now
            announced = [
                (r.start_time, r.end_time, r.nodes_affected) for r in outages if r.announced_time <= now
            ]
            assert answer == _reference_min_capacity(announced, size, start, end)

    @pytest.mark.parametrize(
        "policy",
        [FCFSScheduler, EasyBackfillScheduler, lambda: ConservativeBackfillScheduler(outage_aware=True)],
        ids=["fcfs", "easy", "conservative-outage-aware"],
    )
    def test_finished_simulation_is_freed_without_the_cycle_collector(self, policy):
        # Keeping per-run objects out of reference cycles keeps peak memory
        # flat across many short simulations.
        size = 32
        workload = Lublin99Model(machine_size=size).generate_with_load(40, 0.8, seed=1)
        outages = generate_outages(size, int(workload.span()) + 1, seed=2)
        sim = MachineSimulation(workload, policy(), machine_size=size, outages=outages)
        gc.disable()
        try:
            sim.run()
            finished = weakref.ref(sim)
            del sim
            assert finished() is None
        finally:
            gc.enable()

    def test_grid_site_capacity_answers_like_the_reservation_calendar(self):
        size, calls, checked = 64, [], []
        grid = None

        def recording(site_name, policy):
            class Recording(policy):
                def select_jobs(self, state):
                    inner = state.min_capacity
                    calendar = [
                        (start, end, size - free)
                        for start, end, free in grid.sites[site_name].space.calendar.slots()
                        if free < size
                    ]
                    # The site keeps its calendar across passes, advanced to
                    # the pass; it must hold what a rebuild from its holds would.
                    rebuilt = FreeSpace(size, state.now)
                    for start, end, processors in calendar:
                        rebuilt.reserve(start, end, processors)
                    assert state.calendar.slots() == rebuilt.slots()
                    checked.append(len(calendar))

                    def min_capacity(start, end):
                        answer = inner(start, end)
                        calls.append((state.now, start, end, answer, calendar))
                        return answer

                    state.min_capacity = min_capacity
                    return super().select_jobs(state)

            return Recording(outage_aware=True)

        site_seeds = derive_seeds(42, 3)
        sites = [
            Site(
                name=f"s{i}",
                machine_size=size,
                scheduler=recording(f"s{i}", policy),
                local_workload=Lublin99Model(machine_size=size).generate_with_load(120, 0.7, seed=site_seeds[i]),
            )
            for i, policy in enumerate(
                [ConservativeBackfillScheduler, EasyBackfillScheduler, ConservativeBackfillScheduler]
            )
        ]
        meta = generate_meta_jobs(40, coallocation_fraction=0.5, max_components=3, seed=9)
        grid = GridSimulation(sites, meta, LeastLoadedMetaScheduler(), use_reservations=True)
        result = grid.run()
        assert any(r.used_reservation for r in result.meta_results)
        assert any(answer < size for _now, _start, _end, answer, _calendar in calls)
        assert any(checked)
        for now, start, end, answer, calendar in calls:
            assert start >= now
            assert answer == _reference_min_capacity(calendar, size, start, end)
