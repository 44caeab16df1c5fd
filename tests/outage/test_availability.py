"""Outage logs as capacity over time: announced capacity and the utilization denominator.

Both are answered by a :class:`~repro.schedulers.freespace.FreeSpace` with
the outage records reserved on it: the driver's announced-capacity
calendar (``SpaceSharedMachine.calendar``, which policies query through
its ``capacity``) and the available node-seconds that outage-aware
utilization divides by.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.outage import OutageLog, OutageRecord, OutageType
from repro.evaluation.simulator import MachineSimulation, _available_node_seconds, simulate
from repro.schedulers import FCFSScheduler
from tests.conftest import make_job, make_workload


def record(start, end, nodes, announced=0):
    return OutageRecord(
        announced_time=announced,
        start_time=start,
        end_time=end,
        outage_type=OutageType.CPU_FAILURE,
        nodes_affected=nodes,
    )


def announced_capacity(size, records, now=0):
    """The driver's capacity function as a policy sees it at ``now``."""
    sim = MachineSimulation(make_workload([]), FCFSScheduler(), machine_size=size, outages=OutageLog(records))
    sim._announce(now)
    return sim._space.calendar.capacity


def naive_node_seconds(size, records, end):
    """Event sweep over [0, end): capacity is constant between record edges."""
    edges = sorted({0, end} | {t for r in records for t in (r.start_time, r.end_time) if 0 < t < end})
    total = 0
    for left, right in zip(edges, edges[1:]):
        down = sum(r.nodes_affected for r in records if r.start_time <= left < r.end_time)
        total += max(0, size - down) * (right - left)
    return total


class TestCapacity:
    def test_full_capacity_without_outages(self):
        capacity = announced_capacity(64, [])
        assert capacity(0, 0) == 64
        assert capacity(0, 10**9) == 64
        assert _available_node_seconds(64, OutageLog([]), 100) == 6400

    def test_capacity_drops_during_outage(self):
        capacity = announced_capacity(64, [record(100, 200, 16)])
        assert capacity(50, 50) == 64
        assert capacity(100, 100) == 48
        assert capacity(199, 199) == 48
        assert capacity(200, 200) == 64

    def test_overlapping_outages_stack(self):
        records = [record(100, 300, 16), record(200, 400, 16)]
        capacity = announced_capacity(64, records)
        assert capacity(250, 250) == 32
        assert capacity(350, 350) == 48
        # 100 s at 64, 100 at 48, 100 at 32, 100 at 48
        assert _available_node_seconds(64, OutageLog(records), 400) == 6400 + 4800 + 3200 + 4800

    def test_capacity_never_negative(self):
        records = [record(0, 100, 60), record(0, 100, 60)]
        assert announced_capacity(64, records)(50, 50) == 0
        assert _available_node_seconds(64, OutageLog(records), 200) == 64 * 100

    def test_invalid_machine_size_rejected(self):
        with pytest.raises(ValueError):
            _available_node_seconds(0, OutageLog([]), 100)


class TestQueries:
    def test_minimum_capacity_over_window(self):
        capacity = announced_capacity(64, [record(100, 200, 16)])
        assert capacity(0, 50) == 64
        assert capacity(0, 150) == 48
        assert capacity(150, 300) == 48

    def test_unannounced_outage_is_invisible(self):
        records = [record(100, 200, 16, announced=90)]
        assert announced_capacity(64, records, now=50)(50, 150) == 64
        assert announced_capacity(64, records, now=90)(90, 150) == 48

    def test_available_node_seconds(self):
        # 100 s at 10 nodes + 100 s at 6 nodes + 100 s at 10 nodes
        assert _available_node_seconds(10, OutageLog([record(100, 200, 4)]), 300) == 1000 + 600 + 1000

    def test_available_node_seconds_empty_window(self):
        assert _available_node_seconds(10, OutageLog([record(0, 50, 4)]), 0) == 0

    @given(
        nodes=st.integers(min_value=1, max_value=32),
        start=st.integers(min_value=0, max_value=1000),
        duration=st.integers(min_value=1, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_downtime_conservation(self, nodes, start, duration):
        """Node-seconds lost equal the integral deficit of the capacity curve."""
        machine = 32
        horizon = start + duration + 10
        available = _available_node_seconds(machine, OutageLog([record(start, start + duration, nodes)]), horizon)
        assert available == machine * horizon - min(nodes, machine) * duration

    def test_random_logs_match_the_event_sweep(self):
        rng = random.Random(13)
        for _ in range(300):
            size = rng.randint(1, 64)
            records = []
            for _ in range(rng.randint(0, 12)):
                start = rng.randint(0, 2000)
                records.append(record(start, start + rng.randint(0, 800), rng.randint(1, 40)))
            end = rng.randint(0, 3000)
            assert _available_node_seconds(size, OutageLog(records), end) == naive_node_seconds(size, records, end)

    def test_whole_log_is_the_simulation_denominator(self):
        records = [record(50, 400, 6), record(300, 900, 12), record(2000, 2100, 16)]
        jobs = [make_job(i, submit=10 * i, runtime=200 + 50 * i, processors=4) for i in range(1, 9)]
        result = simulate(make_workload(jobs), FCFSScheduler(), machine_size=16, outages=OutageLog(records))
        end = int(result.makespan) + 1
        assert end < 2100
        assert result.available_node_seconds == naive_node_seconds(16, records, end)
