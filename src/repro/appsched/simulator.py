"""Execution simulation of a mapped program graph on a metasystem.

The WARMstones flow is two-phase: "we will first run the scheduler on the
benchmark suite to produce mappings of programs (graphs) to resources, and
then run the simulator using the resultant mapping and a system configuration
as input."  :func:`simulate_mapping` is that second phase.

The simulation is a deterministic list execution: tasks are processed in
topological order (ties broken by earliest readiness); each task becomes
ready when all its predecessors have finished and their output has crossed
the network, then starts on the earliest-available processor of its mapped
resource.  This is the "simple model and estimate the communication time"
level of detail the paper explicitly allows ("depending on how much precision
is required ... we could simulate every packet ... or assume a simple
model").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.appsched.graph import GraphError, ProgramGraph
from repro.appsched.systems import MetaSystem

__all__ = ["TaskExecution", "GraphExecutionResult", "simulate_mapping"]


@dataclass(frozen=True)
class TaskExecution:
    """Timing of one task in a simulated execution."""

    task: str
    resource: str
    processor: int
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class GraphExecutionResult:
    """Outcome of executing one mapped graph on one metasystem."""

    graph_name: str
    system_name: str
    mapper_name: str
    executions: Dict[str, TaskExecution] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        """Completion time of the last task (seconds)."""
        if not self.executions:
            return 0.0
        return max(e.finish for e in self.executions.values())

    def speedup_over_sequential(self, graph: ProgramGraph, system: MetaSystem) -> float:
        """Sequential time on the fastest single processor divided by the makespan."""
        fastest = max(r.speed for r in system.resources)
        sequential = graph.total_work() / fastest
        return sequential / self.makespan if self.makespan > 0 else 0.0


def simulate_mapping(
    graph: ProgramGraph,
    system: MetaSystem,
    mapping: Dict[str, str],
    mapper_name: str = "mapping",
) -> GraphExecutionResult:
    """Simulate the execution of ``graph`` on ``system`` under ``mapping``.

    Raises :class:`~repro.appsched.graph.GraphError` when the mapping does
    not cover every task or names unknown resources.
    """
    missing = [t for t in graph.task_names if t not in mapping]
    if missing:
        raise GraphError(f"the mapping does not cover tasks: {missing[:5]}")
    unknown = [r for r in set(mapping.values()) if r not in system.resource_names]
    if unknown:
        raise GraphError(f"the mapping names unknown resources: {unknown}")

    # Per-resource processor availability.
    processor_free: Dict[str, List[float]] = {
        r.name: [0.0] * r.processors for r in system.resources
    }
    result = GraphExecutionResult(
        graph_name=graph.name, system_name=system.name, mapper_name=mapper_name
    )

    finish: Dict[str, float] = {}
    for task_name in graph.topological_order():
        resource = mapping[task_name]
        ready = 0.0
        for pred in graph.predecessors(task_name):
            transfer = system.transfer_seconds(
                mapping[pred], resource, graph.communication(pred, task_name)
            )
            ready = max(ready, finish[pred] + transfer)
        duration = system.compute_seconds(resource, graph.task(task_name).compute_seconds)
        frees = processor_free[resource]
        processor = frees.index(min(frees))
        start = max(ready, frees[processor])
        end = start + duration
        frees[processor] = end
        finish[task_name] = end
        result.executions[task_name] = TaskExecution(
            task=task_name, resource=resource, processor=processor, start=start, finish=end
        )
    return result
