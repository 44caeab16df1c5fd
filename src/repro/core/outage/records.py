"""The outage-record standard proposed in Section 2.2 of the paper.

For "every outage that removes any portion of a system from operation" the
paper proposes recording:

* the announced time of the outage (when the scheduler learned about it;
  equal to the start time for unannounced failures),
* the start time,
* the end time,
* the type of outage (CPU failure, network failure, facility/maintenance),
* the number of nodes affected, and
* the specific affected components.

:class:`OutageRecord` captures exactly these six data, in the same
integer-seconds time base as the SWF trace it complements ("the two datasets
should be keyed to each other").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

__all__ = ["OutageType", "OutageRecord"]


class OutageType(str, Enum):
    """Type of outage, following the paper's examples."""

    CPU_FAILURE = "cpu"
    NETWORK_FAILURE = "network"
    DISK_FAILURE = "disk"
    FACILITY = "facility"
    MAINTENANCE = "maintenance"
    DEDICATED_TIME = "dedicated"

    @property
    def is_scheduled(self) -> bool:
        """True for human-generated outages that are planned in advance."""
        return self in (OutageType.MAINTENANCE, OutageType.DEDICATED_TIME, OutageType.FACILITY)


@dataclass(frozen=True)
class OutageRecord:
    """One outage event, keyed to the same time origin as the workload trace.

    Attributes
    ----------
    announced_time:
        When the outage information became available to the scheduler.  For
        an unannounced failure this equals ``start_time`` ("the scheduler
        suddenly detect[s] that there were fewer nodes available"); for
        scheduled maintenance it is earlier.
    start_time, end_time:
        When the affected resources left and rejoined service, in seconds.
    outage_type:
        One of :class:`OutageType`.
    nodes_affected:
        How many nodes were removed from operation.
    components:
        The specific affected components (node numbers); empty means
        "any ``nodes_affected`` nodes", letting the simulator choose.
    """

    announced_time: int
    start_time: int
    end_time: int
    outage_type: OutageType
    nodes_affected: int
    components: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.end_time < self.start_time:
            raise ValueError("an outage must end at or after its start")
        if self.announced_time > self.start_time:
            raise ValueError("an outage cannot be announced after it has started")
        if self.nodes_affected < 1:
            raise ValueError("an outage must affect at least one node")
        if self.components and len(self.components) != self.nodes_affected:
            raise ValueError(
                "when components are listed, their count must equal nodes_affected"
            )
        if isinstance(self.outage_type, str) and not isinstance(self.outage_type, OutageType):
            object.__setattr__(self, "outage_type", OutageType(self.outage_type))

    @property
    def duration(self) -> int:
        """Length of the outage in seconds."""
        return self.end_time - self.start_time

    @property
    def advance_notice(self) -> int:
        """Seconds of warning the scheduler had (zero for unannounced failures)."""
        return self.start_time - self.announced_time

    @property
    def is_announced(self) -> bool:
        """True if the scheduler knew about the outage before it started."""
        return self.advance_notice > 0
