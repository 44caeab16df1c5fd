"""Model of a space-shared parallel machine.

The machine schedulers in :mod:`repro.schedulers` allocate whole nodes of a
distributed-memory machine (the IBM SP / Paragon / CM-5 class the paper's
workloads come from).  This package provides:

* :class:`Partition` — a contiguous range of node ids,
* :class:`Allocation` — a set of nodes held by a running job,
* :class:`Machine` — the allocator: tracks free / busy / down node ids,
  partitions, and per-node memory, and supports the failure / repair
  transitions the outage experiments need.
"""

from repro.machine.cluster import Allocation, Machine, Partition

__all__ = ["Allocation", "Machine", "Partition"]
