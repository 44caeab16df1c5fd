"""Meta-scheduling policies: site selection and co-allocation planning.

The meta-scheduler of Figure 1 does not own any resources; it chooses which
machine schedulers to send requests to.  Policies differ in how much
information they use:

* :class:`LeastLoadedMetaScheduler` — send the job to the site with the most
  free processors (ties broken by shortest queue); information-poor but
  cheap, the baseline;
* :class:`EarliestStartMetaScheduler` — ask a queue-wait predictor for each
  site and send the job where it is predicted to start soonest ("the
  meta-scheduler needs information on how the machine schedulers are going to
  deal with its requests");
* co-allocation planning, used by both policies: pick the sites for each
  component, and — when advance reservations are enabled — agree on a common
  start time from each site's guaranteed-availability profile.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.grid.prediction import WaitPredictor, ProfilePredictor
from repro.grid.site import MetaComponent, MetaJob
from repro.schedulers.base import JobRequest, RunningJobInfo
from repro.schedulers.freespace import FreeSpace

__all__ = ["SiteView", "MetaScheduler", "LeastLoadedMetaScheduler", "EarliestStartMetaScheduler"]


@dataclass
class SiteView:
    """The information a site exposes to the meta-scheduler at one instant.

    This is the "Metacomputing Directory Service"-style snapshot: static
    capacity, current load, the queue as the site reports it, the running
    jobs (a list of the site driver's own immutable
    :class:`~repro.schedulers.base.RunningJobInfo` records, whose
    ``expected_end`` can lie before ``now`` for a meta component held for
    its partners; :meth:`FreeSpace.from_running
    <repro.schedulers.freespace.FreeSpace.from_running>` clamps it), and the
    reservation calendar (as (start, end, processors) triples).
    """

    name: str
    total_processors: int
    free_processors: int
    speed: float
    now: float
    queued: List[JobRequest]
    running: List[RunningJobInfo]
    reservations: List[Tuple[float, float, int]]

    def guaranteed_profile(self) -> FreeSpace:
        """Future free-processor profile from running-job estimates and reservations."""
        profile = FreeSpace.from_running(self.total_processors, self.now, self.running)
        for start, end, processors in self.reservations:
            profile.reserve(start, end, processors)
        return profile

    def earliest_guaranteed_start(self, processors: int, estimate: int) -> float:
        """Earliest time the site can *guarantee* ``processors`` for ``estimate`` seconds.

        Queued local jobs are also accounted for conservatively (they hold
        earlier positions), so the returned instant can be promised to a
        co-allocation partner.
        """
        if processors > self.total_processors:
            return float("inf")
        profile = self.guaranteed_profile()
        for request in self.queued:
            profile.place(min(request.processors, self.total_processors), max(request.estimate, 1))
        return profile.earliest_start(processors, max(estimate, 1))


class MetaScheduler(ABC):
    """Site-selection policy of the meta-scheduler."""

    name: str = "meta"

    @abstractmethod
    def choose_site(self, job: MetaJob, sites: Sequence[SiteView]) -> str:
        """Site for a single-component job (the only component of ``job``)."""

    def plan_coallocation(
        self,
        job: MetaJob,
        sites: Sequence[SiteView],
        use_reservations: bool,
        negotiation_slack: float = 60.0,
    ) -> Tuple[Dict[str, MetaComponent], Optional[float]]:
        """Assign each component to a distinct site; optionally agree a start time.

        Components are placed largest first on the sites with the most free
        capacity (without reservations) or the earliest guaranteed start
        (with reservations).  Returns the site→component mapping and, when
        reservations are used, the common start time (``None`` otherwise).

        Raises ``ValueError`` when the grid has fewer eligible sites than the
        job has components.
        """
        components = sorted(job.components, key=lambda c: -c.processors)
        if len(components) > len(sites):
            raise ValueError(
                f"meta job {job.job_id} needs {len(components)} sites but only "
                f"{len(sites)} exist"
            )
        eligible = [s for s in sites]
        mapping: Dict[str, MetaComponent] = {}
        if not use_reservations:
            ordered = sorted(eligible, key=lambda s: (-s.free_processors, len(s.queued)))
            for component, site in zip(components, ordered):
                if component.processors > site.total_processors:
                    raise ValueError(
                        f"component of {component.processors} processors does not fit "
                        f"site {site.name} ({site.total_processors} processors)"
                    )
                mapping[site.name] = component
            return mapping, None

        # Reservation-based planning: greedily pair each component with the
        # site offering the earliest guaranteed start, then reserve at the
        # latest of those starts (everyone must begin together).
        starts: Dict[str, float] = {}
        remaining = list(eligible)
        for component in components:
            best_site = None
            best_start = float("inf")
            for site in remaining:
                start = site.earliest_guaranteed_start(component.processors, job.estimate)
                if start < best_start:
                    best_start = start
                    best_site = site
            if best_site is None or best_start == float("inf"):
                raise ValueError(f"no site can guarantee a start for meta job {job.job_id}")
            mapping[best_site.name] = component
            starts[best_site.name] = best_start
            remaining.remove(best_site)
        common_start = max(starts.values()) + negotiation_slack
        return mapping, common_start


class LeastLoadedMetaScheduler(MetaScheduler):
    """Pick the site with the most free processors (ties: shortest queue)."""

    name = "least-loaded"

    def choose_site(self, job: MetaJob, sites: Sequence[SiteView]) -> str:
        component = job.components[0]
        eligible = [s for s in sites if s.total_processors >= component.processors]
        if not eligible:
            raise ValueError(f"no site is large enough for meta job {job.job_id}")
        best = max(eligible, key=lambda s: (s.free_processors, -len(s.queued)))
        return best.name


class EarliestStartMetaScheduler(MetaScheduler):
    """Pick the site with the smallest predicted wait for this job."""

    name = "earliest-start"

    def __init__(self, predictor_factory=ProfilePredictor) -> None:
        self._predictor_factory = predictor_factory
        self._predictors: Dict[str, WaitPredictor] = {}

    def predictor_for(self, site_name: str) -> WaitPredictor:
        """The per-site predictor (created on first use, learns from observations)."""
        if site_name not in self._predictors:
            self._predictors[site_name] = self._predictor_factory()
        return self._predictors[site_name]

    def choose_site(self, job: MetaJob, sites: Sequence[SiteView]) -> str:
        component = job.components[0]
        eligible = [s for s in sites if s.total_processors >= component.processors]
        if not eligible:
            raise ValueError(f"no site is large enough for meta job {job.job_id}")
        best_site = eligible[0]
        best_wait = float("inf")
        for site in eligible:
            predictor = self.predictor_for(site.name)
            wait = predictor.predict_wait(
                component.processors,
                job.estimate,
                site.now,
                site.total_processors,
                site.free_processors,
                site.running,
                site.queued,
            )
            if wait < best_wait:
                best_wait = wait
                best_site = site
        return best_site.name
