"""Model of a space-shared parallel machine.

The machine schedulers in :mod:`repro.schedulers` allocate whole nodes of a
distributed-memory machine (the IBM SP / Paragon / CM-5 class the paper's
workloads come from).  :class:`Machine` is the allocator: it keeps the free
and down node ids and the node ids each running job holds, and supports the
failure / repair transitions the outage experiments need.
"""

from repro.machine.cluster import Machine

__all__ = ["Machine"]
