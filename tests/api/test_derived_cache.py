"""Values derived from a workload are built once and live on the workload.

A ``run()`` with a ``workload=`` override rescales the workload to the
scenario's load and the simulator builds its request list from the copy.
Both are kept on the workload they came from (:meth:`Workload.derived`), so
replications that differ only in policy share them, and they must never
change a result: a cached run equals an unshared one, and a mutation, a
pickle or the shared-workload memo's bound sees no stale or extra copy.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import Scenario, resolve_workload, run
from repro.api import runner as api_runner
from repro.core.swf.workload import Workload
from repro.schedulers.base import usable_requests
from tests.conftest import make_job, make_workload

SPEC = dict(workload="lublin99", jobs=100, machine_size=64, seed=3)


def _workload() -> Workload:
    return resolve_workload(Scenario(**SPEC))


def _schedule(result):
    return [(j.job_id, j.start_time, j.end_time, j.killed) for j in result.jobs]


@pytest.fixture
def scale_calls(monkeypatch):
    calls = []
    original = Workload.scale_load

    def counting(self, factor, name=None):
        calls.append(factor)
        return original(self, factor, name=name)

    monkeypatch.setattr(Workload, "scale_load", counting)
    return calls


class TestRescaleOncePerInput:
    def test_two_runs_rescale_once_and_equal_an_unshared_run(self, scale_calls):
        workload = _workload()
        scenario = Scenario(**SPEC, load=0.8, policy="easy")
        first = run(scenario, workload=workload)
        second = run(scenario.with_(policy="conservative"), workload=workload)
        assert len(scale_calls) == 1
        alone_easy = run(scenario, workload=_workload())
        alone_conservative = run(scenario.with_(policy="conservative"), workload=_workload())
        assert _schedule(first.result) == _schedule(alone_easy.result)
        assert first.report == alone_easy.report
        assert _schedule(second.result) == _schedule(alone_conservative.result)
        assert second.report == alone_conservative.report

    def test_a_different_load_or_machine_size_misses(self, scale_calls):
        workload = _workload()
        scenario = Scenario(**SPEC, load=0.8, policy="fcfs")
        run(scenario, workload=workload)
        run(scenario.with_(load=0.6), workload=workload)
        run(scenario.with_(machine_size=128), workload=workload)
        assert len(scale_calls) == 3
        run(scenario.with_(load=0.6), workload=workload)
        assert len(scale_calls) == 3

    @pytest.mark.parametrize("mutate", ["append", "extend"])
    def test_a_mutation_drops_what_was_derived(self, scale_calls, mutate):
        workload = _workload()
        scenario = Scenario(**SPEC, load=0.8, policy="fcfs")
        before = run(scenario, workload=workload)
        extra = make_job(len(workload) + 1, submit=workload[-1].submit_time + 60, processors=1)
        if mutate == "append":
            workload.append(extra)
        else:
            workload.extend([extra])
        after = run(scenario, workload=workload)
        assert len(scale_calls) == 2
        assert len(after.result.jobs) == len(before.result.jobs) + 1
        requests, _ = usable_requests(workload, 64)
        assert len(requests) == len(workload.summary_jobs())


class TestRequestList:
    def test_built_once_per_machine_size_and_immutable(self):
        workload = _workload()
        first = usable_requests(workload, 64)
        assert usable_requests(workload, 64) is first
        assert usable_requests(workload, 32) is not first
        assert isinstance(first[0], tuple)

    @pytest.mark.parametrize("policy", ["fcfs", "gang"])
    def test_a_repeated_job_number_raises_naming_the_first(self, policy):
        workload = make_workload(
            [make_job(1), make_job(5), make_job(7), make_job(5, submit=500), make_job(7, submit=600)]
        )
        with pytest.raises(ValueError, match="job number 5 appears on more than one summary line"):
            run(Scenario(workload="unused", machine_size=32, policy=policy), workload=workload)

    def test_a_gang_run_leaves_a_space_run_unchanged(self):
        # Equal submit times, listed out of job-number order: a gang run
        # sorts its arrivals by (submit, id), and a space run must still
        # see them in workload order.
        def workload():
            return make_workload(
                [
                    make_job(3, processors=8, runtime=100),
                    make_job(1, processors=8, runtime=50),
                    make_job(2, processors=1, runtime=10),
                ],
                machine_size=8,
            )

        scenario = Scenario(workload="unused", machine_size=8, policy="fcfs")
        shared = workload()
        run(scenario.with_(policy="gang"), workload=shared)
        after_gang = run(scenario, workload=shared)
        alone = run(scenario, workload=workload())
        assert _schedule(after_gang.result) == _schedule(alone.result)
        assert [j.job_id for j in sorted(alone.result.jobs, key=lambda j: j.start_time)] == [3, 1, 2]


class TestPicklesAndMemoBound:
    def test_a_pickle_ships_nothing_derived(self):
        workload = _workload()
        workload.columns()
        before = len(pickle.dumps(workload))
        run(Scenario(**SPEC, load=0.8, policy="fcfs"), workload=workload)
        assert workload.held_jobs() == 2 * len(workload)
        assert len(pickle.dumps(workload)) == before
        copy = pickle.loads(pickle.dumps(workload))
        assert copy == workload and copy.held_jobs() == len(copy)

    def test_derived_copies_count_toward_the_memo_bound(self, monkeypatch):
        def stub(scenario):
            return make_workload([make_job(i, submit=10 * i) for i in range(1, 101)])

        monkeypatch.setattr(api_runner, "_SHARED_WORKLOADS", {})
        monkeypatch.setattr(api_runner, "resolve_workload", stub)
        monkeypatch.setattr(api_runner, "_SHARED_WORKLOADS_MAX_JOBS", 250)
        scenario = Scenario(workload="lublin99", machine_size=32, load=0.5, seed=0)
        workload = api_runner.resolve_workload_shared(scenario)
        api_runner._at_load(scenario, workload)
        assert workload.held_jobs() == 200
        # 100 + 100 held by seed 0 and its rescaled copy, 100 by seed 1: over 250.
        api_runner.resolve_workload_shared(scenario.with_(seed=1))
        assert [key[3] for key in api_runner._SHARED_WORKLOADS] == [1]
