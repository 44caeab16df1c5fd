"""Annotated program graphs — the application representation of WARMstones.

Section 4.3: "Rather than executing these applications directly, we will
represent them using annotated graphs, and simulate the execution by
interpreting the graphs.  Legion program graphs are well-suited to this
purpose."  A :class:`ProgramGraph` is a directed acyclic graph whose nodes
(:class:`Task`) carry a compute cost (seconds on a reference-speed processor)
and whose edges carry a communication volume (megabytes) that must be
transferred from producer to consumer before the consumer may start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["Task", "ProgramGraph", "GraphError"]


class GraphError(ValueError):
    """Raised for malformed program graphs (cycles, unknown tasks, bad costs)."""


@dataclass(frozen=True)
class Task:
    """One module of a flexible application."""

    name: str
    compute_seconds: float

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphError("a task needs a non-empty name")
        if self.compute_seconds < 0:
            raise GraphError(f"task {self.name!r} has a negative compute cost")


class ProgramGraph:
    """A DAG of tasks with communication volumes on its edges."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._tasks: Dict[str, Task] = {}
        #: edges as (producer, consumer) -> megabytes
        self._edges: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(self, name: str, compute_seconds: float) -> Task:
        """Add a task; names must be unique."""
        if name in self._tasks:
            raise GraphError(f"duplicate task name {name!r}")
        task = Task(name=name, compute_seconds=float(compute_seconds))
        self._tasks[name] = task
        return task

    def add_edge(self, producer: str, consumer: str, megabytes: float = 0.0) -> None:
        """Add a dependency edge carrying ``megabytes`` of data."""
        for endpoint in (producer, consumer):
            if endpoint not in self._tasks:
                raise GraphError(f"unknown task {endpoint!r}")
        if producer == consumer:
            raise GraphError(f"self-dependency on task {producer!r}")
        if megabytes < 0:
            raise GraphError("communication volume must be non-negative")
        self._edges[(producer, consumer)] = float(megabytes)
        if self._has_cycle():
            del self._edges[(producer, consumer)]
            raise GraphError(
                f"adding edge {producer!r} -> {consumer!r} would create a cycle"
            )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def tasks(self) -> List[Task]:
        return list(self._tasks.values())

    @property
    def task_names(self) -> List[str]:
        return list(self._tasks)

    @property
    def edges(self) -> Dict[Tuple[str, str], float]:
        return dict(self._edges)

    def __len__(self) -> int:
        return len(self._tasks)

    def task(self, name: str) -> Task:
        return self._tasks[name]

    def predecessors(self, name: str) -> List[str]:
        return [p for (p, c) in self._edges if c == name]

    def successors(self, name: str) -> List[str]:
        return [c for (p, c) in self._edges if p == name]

    def communication(self, producer: str, consumer: str) -> float:
        """Megabytes carried on the edge (0 if the edge does not exist)."""
        return self._edges.get((producer, consumer), 0.0)

    def total_work(self) -> float:
        """Sum of compute costs (the sequential execution time)."""
        return sum(t.compute_seconds for t in self._tasks.values())

    def total_communication(self) -> float:
        """Sum of edge volumes in megabytes."""
        return sum(self._edges.values())

    # ------------------------------------------------------------------
    # ordering and structure
    # ------------------------------------------------------------------
    def _has_cycle(self) -> bool:
        try:
            self.topological_order()
            return False
        except GraphError:
            return True

    def topological_order(self) -> List[str]:
        """Kahn's algorithm; raises :class:`GraphError` on a cycle."""
        in_degree = {name: 0 for name in self._tasks}
        for _, consumer in self._edges:
            in_degree[consumer] += 1
        ready = sorted(name for name, deg in in_degree.items() if deg == 0)
        order: List[str] = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            for successor in sorted(self.successors(current)):
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    ready.append(successor)
            ready.sort()
        if len(order) != len(self._tasks):
            raise GraphError("the program graph contains a cycle")
        return order

    def width(self) -> int:
        """Maximum number of tasks with no ordering between them at any depth.

        Computed as the largest antichain level of the longest-path
        level decomposition; an adequate parallelism indicator for the
        micro-benchmark generators and the scheduler-selection table.
        """
        level: Dict[str, int] = {}
        for name in self.topological_order():
            preds = self.predecessors(name)
            level[name] = 1 + max((level[p] for p in preds), default=-1)
        counts: Dict[int, int] = {}
        for l in level.values():
            counts[l] = counts.get(l, 0) + 1
        return max(counts.values(), default=0)

    def communication_to_computation_ratio(self) -> float:
        """Total megabytes per second of compute — the CCR used to classify graphs."""
        work = self.total_work()
        return self.total_communication() / work if work > 0 else 0.0
