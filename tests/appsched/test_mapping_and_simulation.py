"""Tests for metasystems, graph mappers, the execution simulator, and WARMstones."""

from __future__ import annotations

import pytest

from repro.appsched import (
    GraphError,
    HEFTMapper,
    MaxMinMapper,
    MetaSystem,
    MinMinMapper,
    ProgramGraph,
    Resource,
    RoundRobinMapper,
    Warmstones,
    canonical_systems,
    compute_intensive,
    master_worker,
    pipeline,
    simulate_mapping,
)

ALL_MAPPERS = [RoundRobinMapper, MinMinMapper, MaxMinMapper, HEFTMapper]


def critical_path_seconds(graph: ProgramGraph) -> float:
    """Length of the longest compute-only path: a lower bound on makespan."""
    longest = {}
    for name in graph.topological_order():
        base = max((longest[p] for p in graph.predecessors(name)), default=0.0)
        longest[name] = base + graph.task(name).compute_seconds
    return max(longest.values(), default=0.0)


def two_resource_system(latency=0.1, bandwidth=100.0):
    return MetaSystem(
        name="two",
        resources=[Resource("fast", processors=4, speed=2.0), Resource("slow", processors=4, speed=1.0)],
        default_latency=latency,
        default_bandwidth_mbps=bandwidth,
    )


class TestMetaSystem:
    def test_transfer_costs(self):
        system = two_resource_system(latency=0.5, bandwidth=10.0)
        assert system.transfer_seconds("fast", "fast", 100.0) == 0.0
        assert system.transfer_seconds("fast", "slow", 100.0) == pytest.approx(0.5 + 10.0)

    def test_link_override_is_symmetric(self):
        system = two_resource_system()
        system.set_link("fast", "slow", latency=0.0, bandwidth_mbps=1000.0)
        assert system.transfer_seconds("slow", "fast", 100.0) == pytest.approx(0.1)

    def test_compute_seconds_scales_with_speed(self):
        system = two_resource_system()
        assert system.compute_seconds("fast", 100.0) == 50.0
        assert system.compute_seconds("slow", 100.0) == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MetaSystem("empty", resources=[])
        with pytest.raises(ValueError):
            MetaSystem("dup", resources=[Resource("a", 1), Resource("a", 2)])
        with pytest.raises(ValueError):
            Resource("x", processors=0)
        with pytest.raises(KeyError):
            two_resource_system().set_link("fast", "nope", 0.1, 10.0)

    def test_canonical_systems(self):
        systems = canonical_systems()
        assert len(systems) == 3
        assert {s.name for s in systems} == {
            "cluster",
            "supercomputer+workstations",
            "federated-centers",
        }


class TestMappers:
    @pytest.mark.parametrize("mapper_class", ALL_MAPPERS)
    def test_mapping_covers_every_task(self, mapper_class):
        graph = master_worker(workers=10)
        system = two_resource_system()
        mapping = mapper_class().map(graph, system)
        assert set(mapping) == set(graph.task_names)
        assert set(mapping.values()) <= set(system.resource_names)

    def test_minmin_prefers_the_fast_resource_for_independent_tasks(self):
        graph = compute_intensive(tasks=4, seed=1)
        system = two_resource_system()
        mapping = MinMinMapper().map(graph, system)
        assert all(resource == "fast" for resource in mapping.values())

    def test_heft_places_chain_on_one_fast_resource_when_comm_is_costly(self):
        graph = pipeline(stages=5, megabytes_between=10_000.0)
        system = two_resource_system(latency=1.0, bandwidth=1.0)
        mapping = HEFTMapper().map(graph, system)
        assert len(set(mapping.values())) == 1
        assert set(mapping.values()) == {"fast"}

    def test_round_robin_spreads_tasks(self):
        graph = compute_intensive(tasks=16, seed=2)
        mapping = RoundRobinMapper().map(graph, two_resource_system())
        assert set(mapping.values()) == {"fast", "slow"}


class TestExecutionSimulator:
    def test_independent_tasks_run_in_parallel(self):
        graph = ProgramGraph("par")
        graph.add_task("a", 100)
        graph.add_task("b", 100)
        system = MetaSystem("one", [Resource("r", processors=2, speed=1.0)])
        result = simulate_mapping(graph, system, {"a": "r", "b": "r"})
        assert result.makespan == pytest.approx(100.0)

    def test_processor_contention_serializes_tasks(self):
        graph = ProgramGraph("serial")
        graph.add_task("a", 100)
        graph.add_task("b", 100)
        system = MetaSystem("one", [Resource("r", processors=1, speed=1.0)])
        result = simulate_mapping(graph, system, {"a": "r", "b": "r"})
        assert result.makespan == pytest.approx(200.0)

    def test_dependency_and_communication_delay(self):
        graph = ProgramGraph("chain")
        graph.add_task("a", 100)
        graph.add_task("b", 50)
        graph.add_edge("a", "b", megabytes=100.0)
        system = MetaSystem(
            "two",
            [Resource("x", 1, speed=1.0), Resource("y", 1, speed=1.0)],
            default_latency=1.0,
            default_bandwidth_mbps=10.0,
        )
        result = simulate_mapping(graph, system, {"a": "x", "b": "y"})
        # b starts after a (100) plus latency 1 plus 100/10 transfer = 111.
        assert result.executions["b"].start == pytest.approx(111.0)
        assert result.makespan == pytest.approx(161.0)

    def test_same_resource_communication_is_free(self):
        graph = ProgramGraph("chain")
        graph.add_task("a", 100)
        graph.add_task("b", 50)
        graph.add_edge("a", "b", megabytes=10_000.0)
        system = MetaSystem("one", [Resource("r", 2, speed=1.0)])
        result = simulate_mapping(graph, system, {"a": "r", "b": "r"})
        assert result.makespan == pytest.approx(150.0)

    def test_incomplete_mapping_rejected(self):
        graph = compute_intensive(tasks=3, seed=1)
        system = two_resource_system()
        with pytest.raises(GraphError):
            simulate_mapping(graph, system, {"t0": "fast"})

    def test_unknown_resource_rejected(self):
        graph = compute_intensive(tasks=1, seed=1)
        with pytest.raises(GraphError):
            simulate_mapping(graph, two_resource_system(), {"t0": "nowhere"})

    def test_speedup_and_busy_accounting(self):
        graph = compute_intensive(tasks=8, seed=3)
        system = two_resource_system()
        result = simulate_mapping(graph, system, MinMinMapper().map(graph, system))
        assert result.speedup_over_sequential(graph, system) >= 1.0
        busy = result.resource_busy_seconds()
        assert sum(busy.values()) == pytest.approx(result.total_compute_seconds)

    def test_makespan_never_below_critical_path_on_reference_speed(self):
        graph = master_worker(workers=6)
        system = MetaSystem("uniform", [Resource("r", processors=2, speed=1.0)])
        result = simulate_mapping(graph, system, RoundRobinMapper().map(graph, system))
        assert result.makespan >= critical_path_seconds(graph) - 1e-6


class TestWarmstones:
    def test_scorecard_covers_all_combinations(self):
        environment = Warmstones()
        entries = environment.scorecard()
        expected = len(environment.graphs) * len(environment.systems) * len(environment.mappers)
        assert len(entries) == expected

    def test_best_mapper_for_returns_member_of_roster(self):
        environment = Warmstones()
        graph = environment.graphs[0]
        system = environment.systems[0]
        name, makespan = environment.best_mapper_for(graph, system)
        assert name in {m.name for m in environment.mappers}
        assert makespan > 0

    def test_selection_table_lookup_recommends_known_mapper(self):
        environment = Warmstones()
        environment.build_selection_table()
        recommendation = environment.lookup(master_worker(workers=12), environment.systems[-1])
        assert recommendation in {m.name for m in environment.mappers}

    def test_lookup_builds_table_on_demand(self):
        environment = Warmstones()
        assert environment.lookup(compute_intensive(tasks=8, seed=1), environment.systems[0])
