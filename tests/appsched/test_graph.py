"""Tests for program graphs and the micro-benchmark generators."""

from __future__ import annotations

import pytest

from repro.appsched import (
    GraphError,
    ProgramGraph,
    benchmark_suite,
    communication_intensive,
    compute_intensive,
    fork_join,
    master_worker,
    pipeline,
    random_dag,
)


class TestProgramGraph:
    def build_diamond(self):
        graph = ProgramGraph("diamond")
        for name, cost in (("a", 10), ("b", 20), ("c", 30), ("d", 5)):
            graph.add_task(name, cost)
        graph.add_edge("a", "b", 100)
        graph.add_edge("a", "c", 50)
        graph.add_edge("b", "d", 10)
        graph.add_edge("c", "d", 10)
        return graph

    def test_basic_structure(self):
        graph = self.build_diamond()
        assert len(graph) == 4
        assert set(graph.predecessors("d")) == {"b", "c"}
        assert set(graph.successors("a")) == {"b", "c"}
        assert graph.communication("a", "b") == 100
        assert graph.communication("b", "a") == 0

    def test_totals_and_width(self):
        graph = self.build_diamond()
        assert graph.total_work() == 65
        assert graph.total_communication() == 170
        assert graph.width() == 2

    def test_topological_order_respects_edges(self):
        graph = self.build_diamond()
        order = graph.topological_order()
        assert order.index("a") < order.index("b") < order.index("d")

    def test_cycle_rejected(self):
        graph = ProgramGraph()
        graph.add_task("x", 1)
        graph.add_task("y", 1)
        graph.add_edge("x", "y")
        with pytest.raises(GraphError):
            graph.add_edge("y", "x")
        # The failed edge must not be left behind.
        assert ("y", "x") not in graph.edges

    def test_duplicate_task_rejected(self):
        graph = ProgramGraph()
        graph.add_task("x", 1)
        with pytest.raises(GraphError):
            graph.add_task("x", 2)

    def test_self_edge_and_unknown_task_rejected(self):
        graph = ProgramGraph()
        graph.add_task("x", 1)
        with pytest.raises(GraphError):
            graph.add_edge("x", "x")
        with pytest.raises(GraphError):
            graph.add_edge("x", "missing")

    def test_negative_costs_rejected(self):
        graph = ProgramGraph()
        with pytest.raises(GraphError):
            graph.add_task("x", -1)
        graph.add_task("a", 1)
        graph.add_task("b", 1)
        with pytest.raises(GraphError):
            graph.add_edge("a", "b", megabytes=-5)

    def test_ccr(self):
        graph = self.build_diamond()
        assert graph.communication_to_computation_ratio() == pytest.approx(170 / 65)


class TestGenerators:
    def test_compute_intensive_has_no_edges(self):
        graph = compute_intensive(tasks=10, seed=1)
        assert len(graph) == 10
        assert graph.edges == {}
        assert graph.width() == 10

    def test_communication_intensive_is_heavy_on_edges(self):
        graph = communication_intensive(stages=3, width=4, seed=1)
        assert len(graph) == 12
        assert len(graph.edges) == 2 * 4 * 4
        assert graph.communication_to_computation_ratio() > 0.1

    def test_master_worker_shape(self):
        graph = master_worker(workers=5)
        assert len(graph) == 7
        assert len(graph.successors("master-scatter")) == 5
        assert len(graph.predecessors("master-gather")) == 5

    def test_pipeline_is_a_chain(self):
        graph = pipeline(stages=6)
        assert graph.width() == 1

    def test_fork_join_levels(self):
        graph = fork_join(phases=2, width=3)
        assert len(graph) == 2 * 3 + 2  # tasks plus one barrier per phase
        assert graph.width() == 3

    def test_random_dag_is_acyclic_and_reproducible(self):
        a = random_dag(tasks=25, seed=5)
        b = random_dag(tasks=25, seed=5)
        assert a.topological_order() == b.topological_order()
        assert a.edges == b.edges

    def test_benchmark_suite_contents(self):
        suite = benchmark_suite(seed=0)
        assert len(suite) == 6
        names = {g.name.split("-")[0] for g in suite}
        assert "compute" in names and "pipeline" in names

    def test_generator_argument_validation(self):
        with pytest.raises(ValueError):
            compute_intensive(tasks=0)
        with pytest.raises(ValueError):
            communication_intensive(stages=1)
        with pytest.raises(ValueError):
            master_worker(workers=0)
        with pytest.raises(ValueError):
            random_dag(tasks=5, edge_probability=2.0)
