"""Machine-scheduling policies for space-shared parallel machines.

* FCFS and first-fit baselines,
* priority re-ordering policies (SJF, LJF, narrowest/widest first, WFP),
* EASY and conservative backfilling,
* adaptive allocation for moldable jobs,
* gang scheduling (time slicing, fluid Ousterhout-matrix model).

All space-sharing policies implement the
:class:`~repro.schedulers.base.Scheduler` interface consumed by
:func:`repro.evaluation.simulate`; gang scheduling ships its own simulator
because it time-slices rather than space-shares.  FCFS, first-fit, the
priority orders and EASY's first phase share one start rule,
:meth:`~repro.schedulers.base.Scheduler.start_in_order`.
"""

from repro.schedulers.base import (
    JobRequest,
    RunningJobInfo,
    Scheduler,
    SchedulerState,
)
from repro.schedulers.fcfs import FCFSScheduler, FirstFitScheduler
from repro.schedulers.priority import (
    LongestJobFirstScheduler,
    NarrowestFirstScheduler,
    PriorityScheduler,
    ShortestJobFirstScheduler,
    SmallestAreaFirstScheduler,
    WFPScheduler,
    WidestFirstScheduler,
)
from repro.schedulers.backfill import ConservativeBackfillScheduler, EasyBackfillScheduler
from repro.schedulers.gang import GangPolicy, GangSimulation, simulate_gang
from repro.schedulers.moldable import MoldableScheduler

__all__ = [
    "JobRequest",
    "RunningJobInfo",
    "Scheduler",
    "SchedulerState",
    "FCFSScheduler",
    "FirstFitScheduler",
    "PriorityScheduler",
    "ShortestJobFirstScheduler",
    "LongestJobFirstScheduler",
    "NarrowestFirstScheduler",
    "WidestFirstScheduler",
    "SmallestAreaFirstScheduler",
    "WFPScheduler",
    "EasyBackfillScheduler",
    "ConservativeBackfillScheduler",
    "MoldableScheduler",
    "GangPolicy",
    "GangSimulation",
    "simulate_gang",
]

