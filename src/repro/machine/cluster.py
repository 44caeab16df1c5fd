"""Partitions, allocations, and the :class:`Machine` allocator.

The model is deliberately at the granularity the SWF records: a job asks for
a number of processors (nodes) and, optionally, memory per processor; the
machine either has that many free, non-failed nodes in one partition or it
does not.  Nodes are plain integer ids ``0 .. size-1``; partitions are
contiguous id ranges.  Node identity matters only for outage handling (a
failure takes down *specific* nodes, killing whatever ran there), so the
allocator keeps exactly what that needs and nothing per node:

* a sorted list of free (up and unallocated) ids — ``free_count`` is its
  length, ``allocate`` takes its lowest ids;
* the set of down ids;
* the allocations, keyed by job id.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["Partition", "Allocation", "Machine", "AllocationError"]


class AllocationError(RuntimeError):
    """Raised when an allocation or release request cannot be honoured."""


@dataclass(frozen=True)
class Partition:
    """A named group of nodes (e.g. batch vs interactive sub-machines)."""

    number: int
    node_ids: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.node_ids)


@dataclass(frozen=True)
class Allocation:
    """The set of nodes granted to one job."""

    job_id: int
    node_ids: Tuple[int, ...]
    start_time: float

    @property
    def size(self) -> int:
        return len(self.node_ids)


class Machine:
    """A space-shared parallel machine with failable nodes.

    Parameters
    ----------
    size:
        Number of nodes.
    memory_per_node_kb:
        Memory capacity of each node, in kilobytes (0 = memory not modelled).
    partitions:
        Optional sizes of partitions; must sum to ``size``.  When omitted the
        whole machine is a single partition (number 1).
    """

    def __init__(
        self,
        size: int,
        memory_per_node_kb: int = 0,
        partitions: Optional[Sequence[int]] = None,
        name: str = "machine",
    ) -> None:
        if size < 1:
            raise ValueError("a machine needs at least one node")
        if memory_per_node_kb < 0:
            raise ValueError("memory_per_node_kb must be non-negative")
        self.name = name
        self.size = size
        self.memory_per_node_kb = memory_per_node_kb

        partition_sizes = list(partitions) if partitions else [size]
        if any(p < 1 for p in partition_sizes):
            raise ValueError("partition sizes must be positive")
        if sum(partition_sizes) != size:
            raise ValueError("partition sizes must sum to the machine size")

        self._partitions: List[Partition] = []
        next_id = 0
        for number, psize in enumerate(partition_sizes, start=1):
            ids = tuple(range(next_id, next_id + psize))
            self._partitions.append(Partition(number=number, node_ids=ids))
            next_id += psize

        self._free: List[int] = list(range(size))
        self._down: Set[int] = set()
        self._allocations: Dict[int, Allocation] = {}

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def partitions(self) -> List[Partition]:
        return list(self._partitions)

    @property
    def allocations(self) -> Dict[int, Allocation]:
        """Current allocations, keyed by job id."""
        return dict(self._allocations)

    def _id_range(self, partition: Optional[int]) -> Tuple[int, int]:
        """[first, one past the last) node id of ``partition`` (None: all)."""
        if partition is None:
            return 0, self.size
        if not 1 <= partition <= len(self._partitions):
            return 0, 0
        ids = self._partitions[partition - 1].node_ids
        return ids[0], ids[-1] + 1

    def _free_span(self, partition: Optional[int]) -> Tuple[int, int]:
        """Index range of ``partition``'s ids within the free list."""
        lo, hi = self._id_range(partition)
        return bisect_left(self._free, lo), bisect_left(self._free, hi)

    def free_count(self, partition: Optional[int] = None) -> int:
        """Number of free (up and unallocated) nodes, optionally per partition."""
        if partition is None:
            return len(self._free)
        i, j = self._free_span(partition)
        return j - i

    def up_count(self, partition: Optional[int] = None) -> int:
        """Number of up nodes (free or busy), optionally per partition."""
        lo, hi = self._id_range(partition)
        return hi - lo - sum(1 for n in self._down if lo <= n < hi)

    def busy_count(self) -> int:
        """Number of nodes currently allocated to jobs."""
        return sum(len(a.node_ids) for a in self._allocations.values())

    def down_count(self) -> int:
        """Number of failed / drained nodes."""
        return len(self._down)

    def utilized_fraction(self) -> float:
        """Busy nodes as a fraction of the nominal machine size."""
        return self.busy_count() / self.size

    def can_allocate(
        self,
        processors: int,
        memory_per_node_kb: int = 0,
        partition: Optional[int] = None,
    ) -> bool:
        """Whether a request could be satisfied right now."""
        if processors < 1:
            return False
        if memory_per_node_kb > 0 and self.memory_per_node_kb > 0:
            if memory_per_node_kb > self.memory_per_node_kb:
                return False
        return self.free_count(partition) >= processors

    # ------------------------------------------------------------------
    # allocation / release
    # ------------------------------------------------------------------
    def allocate(
        self,
        job_id: int,
        processors: int,
        start_time: float = 0.0,
        memory_per_node_kb: int = 0,
        partition: Optional[int] = None,
    ) -> Allocation:
        """Allocate the ``processors`` lowest free node ids to ``job_id``.

        Raises :class:`AllocationError` when the request cannot be satisfied
        or the job already holds an allocation.
        """
        if job_id in self._allocations:
            raise AllocationError(f"job {job_id} already holds an allocation")
        if processors < 1:
            raise AllocationError("a job must request at least one processor")
        if memory_per_node_kb > 0 and self.memory_per_node_kb > 0:
            if memory_per_node_kb > self.memory_per_node_kb:
                raise AllocationError(
                    f"job {job_id} requests {memory_per_node_kb} kB per node but nodes "
                    f"have only {self.memory_per_node_kb} kB"
                )
        i, j = self._free_span(partition)
        if j - i < processors:
            raise AllocationError(
                f"job {job_id} requests {processors} nodes but only {j - i} are free"
            )
        chosen = tuple(self._free[i : i + processors])
        del self._free[i : i + processors]
        allocation = Allocation(job_id=job_id, node_ids=chosen, start_time=start_time)
        self._allocations[job_id] = allocation
        return allocation

    def release(self, job_id: int) -> Allocation:
        """Release the allocation held by ``job_id`` and return it.

        Its nodes return to the free list, except those that failed while
        the job held them: they stay down until :meth:`restore_nodes`.
        """
        allocation = self._allocations.pop(job_id, None)
        if allocation is None:
            raise AllocationError(f"job {job_id} holds no allocation")
        down = self._down
        if down:
            self._free.extend(n for n in allocation.node_ids if n not in down)
        else:
            self._free.extend(allocation.node_ids)
        self._free.sort()
        return allocation

    # ------------------------------------------------------------------
    # failures and repairs (outage support)
    # ------------------------------------------------------------------
    def _check_ids(self, node_ids: Iterable[int]) -> Set[int]:
        ids = set()
        for node_id in node_ids:
            if node_id not in range(self.size):
                raise AllocationError(f"node {node_id} does not exist")
            ids.add(int(node_id))
        return ids

    def fail_nodes(self, node_ids: Iterable[int]) -> List[int]:
        """Mark nodes as down; returns the ids of jobs that were running on them.

        The affected jobs keep their allocations (the caller — the evaluation
        driver — decides whether to kill and resubmit them); the failed nodes
        are excluded from future allocations until :meth:`restore_nodes`.
        """
        failed = self._check_ids(node_ids)
        self._down |= failed
        self._free = [n for n in self._free if n not in failed]
        return sorted(
            job_id
            for job_id, allocation in self._allocations.items()
            if not failed.isdisjoint(allocation.node_ids)
        )

    def fail_any(self, count: int) -> Tuple[List[int], List[int]]:
        """Fail ``count`` nodes, preferring free ones (returns (node_ids, victim_jobs)).

        Preferring free nodes models the common case that a failure is noticed
        on an idle node; if not enough free nodes exist, busy nodes fail too
        and their jobs are reported as victims.
        """
        held = self._allocations.values()
        busy = sorted(n for a in held for n in a.node_ids if n not in self._down)
        chosen = (self._free + busy)[:count]
        return chosen, self.fail_nodes(chosen)

    def restore_nodes(self, node_ids: Iterable[int]) -> None:
        """Bring failed nodes back into service."""
        restored = self._check_ids(node_ids) & self._down
        self._down -= restored
        held = {n for a in self._allocations.values() for n in a.node_ids}
        self._free.extend(restored - held)
        self._free.sort()

    def down_node_ids(self) -> List[int]:
        """Ids of all currently-failed nodes."""
        return sorted(self._down)
