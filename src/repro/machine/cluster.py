"""The :class:`Machine` node allocator.

The model is deliberately at the granularity the SWF records: a job asks for
a number of processors (nodes) and the machine either has that many free,
non-failed nodes or it does not.  Nodes are plain integer ids
``0 .. size-1``.  Node identity matters only for outage handling (a failure
takes down *specific* nodes, killing whatever ran there), so the allocator
keeps exactly what that needs and nothing per node:

* a list of free (up and unallocated) ids, sorted on demand —
  ``free_count`` is its length, ``allocate`` takes its lowest ids;
* the set of down ids;
* the node ids each job holds, keyed by job id.

Everything else about a running job (its request, start and expected end)
is the driver's :class:`~repro.schedulers.base.RunningJobInfo`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

__all__ = ["Machine", "AllocationError"]


class AllocationError(RuntimeError):
    """Raised when an allocation or release request cannot be honoured."""


class Machine:
    """A space-shared parallel machine of ``size`` failable nodes.

    The free list is sorted on demand: :meth:`release` and
    :meth:`restore_nodes` append to it and mark it unsorted, and
    :meth:`allocate` sorts it first when it is marked.  Several jobs ending
    before the next start cost one sort, and ends with no start after them
    cost none.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("a machine needs at least one node")
        self.size = size
        self._free: List[int] = list(range(size))
        self._unsorted = False
        self._down: Set[int] = set()
        self._held: Dict[int, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def free_count(self) -> int:
        """Number of free (up and unallocated) nodes."""
        return len(self._free)

    # ------------------------------------------------------------------
    # allocation / release
    # ------------------------------------------------------------------
    def allocate(self, job_id: int, processors: int) -> Tuple[int, ...]:
        """Give the ``processors`` lowest free node ids to ``job_id``; return them.

        Raises :class:`AllocationError` when the request cannot be satisfied
        or the job already holds nodes.
        """
        if job_id in self._held:
            raise AllocationError(f"job {job_id} already holds an allocation")
        if processors < 1:
            raise AllocationError("a job must request at least one processor")
        free = self._free
        if len(free) < processors:
            raise AllocationError(
                f"job {job_id} requests {processors} nodes but only {len(free)} are free"
            )
        if self._unsorted:
            free.sort()
            self._unsorted = False
        self._held[job_id] = chosen = tuple(free[:processors])
        del free[:processors]
        return chosen

    def release(self, job_id: int) -> Tuple[int, ...]:
        """Take back the node ids ``job_id`` holds and return them.

        They return to the free list, except those that failed while the
        job held them: they stay down until :meth:`restore_nodes`.
        """
        node_ids = self._held.pop(job_id, None)
        if node_ids is None:
            raise AllocationError(f"job {job_id} holds no allocation")
        down = self._down
        if down:
            self._free.extend(n for n in node_ids if n not in down)
        else:
            self._free.extend(node_ids)
        self._unsorted = True
        return node_ids

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

        The affected jobs keep their nodes (the caller — the evaluation
        driver — decides whether to kill and resubmit them); the failed nodes
        are excluded from future allocations until :meth:`restore_nodes`.
        """
        failed = self._check_ids(node_ids)
        self._down |= failed
        self._free = [n for n in self._free if n not in failed]
        return sorted(
            job_id
            for job_id, held in self._held.items()
            if not failed.isdisjoint(held)
        )

    def restore_nodes(self, node_ids: Iterable[int]) -> None:
        """Bring failed nodes back into service."""
        restored = self._check_ids(node_ids) & self._down
        self._down -= restored
        held = {n for node_ids in self._held.values() for n in node_ids}
        self._free.extend(restored - held)
        self._unsorted = True
