"""Unit tests for the parallel machine model (nodes, allocation, failures)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Machine
from repro.machine.cluster import AllocationError


def busy_count(machine: Machine) -> int:
    """Nodes allocated to jobs, read off the allocator's per-job holdings."""
    return sum(len(node_ids) for node_ids in machine._held.values())


def down_node_ids(machine: Machine) -> list:
    """Ids of the failed nodes, read off the allocator's down set."""
    return sorted(machine._down)


class TestConstruction:
    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Machine(size=0)


class TestAllocation:
    def test_allocate_and_release(self):
        machine = Machine(size=8)
        node_ids = machine.allocate(job_id=1, processors=5)
        assert node_ids == (0, 1, 2, 3, 4)
        assert machine.free_count() == 3
        assert busy_count(machine) == 5
        assert machine.release(1) == node_ids
        assert machine.free_count() == 8

    def test_cannot_overallocate(self):
        machine = Machine(size=4)
        machine.allocate(1, 3)
        with pytest.raises(AllocationError):
            machine.allocate(2, 2)
        assert machine.free_count() == 1

    def test_double_allocation_rejected(self):
        machine = Machine(size=8)
        machine.allocate(1, 2)
        with pytest.raises(AllocationError):
            machine.allocate(1, 2)

    def test_release_unknown_job_rejected(self):
        with pytest.raises(AllocationError):
            Machine(size=4).release(99)

    def test_zero_processor_request_rejected(self):
        with pytest.raises(AllocationError):
            Machine(size=4).allocate(1, 0)


class TestFailures:
    def test_fail_free_nodes_reports_no_victims(self):
        machine = Machine(size=8)
        victims = machine.fail_nodes([6, 7])
        assert victims == []
        assert machine.free_count() == 6
        assert down_node_ids(machine) == [6, 7]

    def test_fail_busy_node_reports_victim_job(self):
        machine = Machine(size=2)
        machine.allocate(7, 2)
        victims = machine.fail_nodes([0])
        assert victims == [7]

    def test_restore_nodes(self):
        machine = Machine(size=4)
        machine.fail_nodes([2, 3])
        machine.restore_nodes([2, 3])
        assert down_node_ids(machine) == []
        assert machine.free_count() == 4
        assert machine.allocate(1, 4) == (0, 1, 2, 3)

    def test_down_nodes_not_allocated(self):
        machine = Machine(size=4)
        machine.fail_nodes([0, 1])
        assert down_node_ids(machine) == [0, 1]
        with pytest.raises(AllocationError):
            machine.allocate(1, 3)
        node_ids = machine.allocate(1, 2)
        assert set(node_ids).isdisjoint({0, 1})

    def test_unknown_node_rejected(self):
        with pytest.raises(AllocationError):
            Machine(size=2).fail_nodes([99])
        with pytest.raises(AllocationError):
            Machine(size=2).restore_nodes([99])

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: restore_nodes does not count overlapping outages; "
        "the fix changes pinned schedules and lands on its own",
    )
    def test_overlapping_outages_keep_a_shared_node_down(self):
        machine = Machine(size=4)
        machine.fail_nodes([1, 2])
        machine.fail_nodes([2, 3])
        machine.restore_nodes([1, 2])
        assert down_node_ids(machine) == [2, 3]

    def test_release_after_failure_keeps_node_down(self):
        machine = Machine(size=2)
        machine.allocate(1, 2)
        machine.fail_nodes([0])
        assert machine.release(1) == (0, 1)
        assert down_node_ids(machine) == [0]
        assert machine.free_count() == 1


class TestFreeListSortedOnDemand:
    """``release`` appends out of order; ``allocate`` still takes the lowest ids."""

    def _three_released_out_of_order(self):
        machine = Machine(size=12)
        for job_id in (1, 2, 3, 4):
            machine.allocate(job_id, 3)
        # ids 0-2, 3-5, 6-8 and 9-11; hand back 6-8, then 0-2, then 3-5
        for job_id in (3, 1, 2):
            machine.release(job_id)
        return machine

    def test_allocate_takes_the_lowest_ids_after_unordered_releases(self):
        machine = self._three_released_out_of_order()
        assert machine.free_count() == 9
        assert machine.allocate(5, 4) == (0, 1, 2, 3)
        assert machine.allocate(6, 5) == (4, 5, 6, 7, 8)

    def test_fail_and_restore_between_release_and_allocate(self):
        machine = self._three_released_out_of_order()
        assert machine.fail_nodes([1, 7]) == []
        assert machine.allocate(5, 2) == (0, 2)
        machine.restore_nodes([7, 1])
        assert machine.allocate(6, 3) == (1, 3, 4)
        machine.release(4)
        assert machine.allocate(7, 6) == (5, 6, 7, 8, 9, 10)


class NaiveMachine:
    """Reference model: one owner slot and one up flag per node."""

    def __init__(self, size: int) -> None:
        self.owner = [None] * size
        self.up = [True] * size

    def free(self):
        return [i for i, (o, up) in enumerate(zip(self.owner, self.up)) if up and o is None]

    def allocate(self, job_id, processors):
        chosen = tuple(self.free()[:processors])
        for node in chosen:
            self.owner[node] = job_id
        return chosen

    def release(self, job_id):
        self.owner = [None if o == job_id else o for o in self.owner]

    def fail(self, node_ids):
        for node in node_ids:
            self.up[node] = False
        return sorted({self.owner[n] for n in node_ids if self.owner[n] is not None})

    def restore(self, node_ids):
        for node in node_ids:
            self.up[node] = True

    def counts(self):
        busy = sum(o is not None for o in self.owner)
        down = self.up.count(False)
        return len(self.free()), busy, down, len(self.up) - down


class TestAgainstNaiveModel:
    @given(st.integers(min_value=1, max_value=12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_operation_sequences_match(self, size, data):
        machine, naive = Machine(size=size), NaiveMachine(size)
        holding, next_job = [], 1
        nodes = st.lists(st.integers(min_value=0, max_value=size - 1), max_size=size)
        ops = st.sampled_from(["allocate", "release", "release", "fail", "restore"])
        for op in data.draw(st.lists(ops, max_size=40)):
            if op == "allocate":
                processors = data.draw(st.integers(min_value=1, max_value=size))
                if processors <= machine.free_count():
                    node_ids = machine.allocate(next_job, processors)
                    assert node_ids == naive.allocate(next_job, processors)
                    holding.append(next_job)
                    next_job += 1
                else:
                    with pytest.raises(AllocationError):
                        machine.allocate(next_job, processors)
            elif op == "release" and holding:
                job_id = holding.pop(data.draw(st.integers(0, len(holding) - 1)))
                machine.release(job_id)
                naive.release(job_id)
            elif op == "fail":
                failed = data.draw(nodes)
                assert machine.fail_nodes(failed) == naive.fail(failed)
            elif op == "restore":
                restored = data.draw(nodes)
                machine.restore_nodes(restored)
                naive.restore(restored)
            down = down_node_ids(machine)
            counts = (machine.free_count(), busy_count(machine), len(down), size - len(down))
            assert counts == naive.counts()
            assert down == [i for i, up in enumerate(naive.up) if not up]
