"""Metacomputing substrate: sites, meta-schedulers, prediction, co-allocation.

Implements the evaluation methodology of Sections 3 and 4: several machine
schedulers (sites) below one or more meta-schedulers, queue-wait-time
prediction as the information channel between the layers, and advance
reservations as the mechanism for co-allocation.

A :class:`SiteView` is the meta-scheduler's snapshot of one site; every
:class:`WaitPredictor` answers ``predict_wait(processors, estimate, site)``
from it.  A site's reservation calendar (a
:class:`~repro.schedulers.freespace.FreeSpace`) is the only record of its
advance reservations: the view carries it, and a claim releases it.
"""

from repro.grid.site import MetaComponent, MetaJob, Site
from repro.grid.workload import generate_meta_jobs
from repro.grid.prediction import (
    CategoryMeanPredictor,
    MeanWaitPredictor,
    ProfilePredictor,
    WaitPredictor,
    prediction_error_summary,
)
from repro.grid.metaschedulers import (
    EarliestStartMetaScheduler,
    LeastLoadedMetaScheduler,
    MetaScheduler,
    SiteView,
)
from repro.grid.simulation import GridResult, GridSimulation, MetaJobResult

__all__ = [
    "MetaComponent",
    "MetaJob",
    "Site",
    "generate_meta_jobs",
    "CategoryMeanPredictor",
    "MeanWaitPredictor",
    "ProfilePredictor",
    "WaitPredictor",
    "prediction_error_summary",
    "EarliestStartMetaScheduler",
    "LeastLoadedMetaScheduler",
    "MetaScheduler",
    "SiteView",
    "GridResult",
    "GridSimulation",
    "MetaJobResult",
]
