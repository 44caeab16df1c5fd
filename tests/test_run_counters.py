"""The work counters a run reports, pinned to literal values.

Counters are deterministic facts of the simulated schedule: which keys a
run reports and how large they are depend only on the workload, the
policy and the outage history.  The schedule digests elsewhere would stay
green if a counter stopped reaching ``SimulationResult.counters``, so the
values are pinned here, per policy, on one small seeded workload.  The
dicts are what the driver-owned counts produced when they were captured;
a change to a value is a change to the schedule or to where counting
happens, and should be deliberate.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario, resolve_workload, run
from repro.core.outage import OutageModel, generate_outages

SCENARIO = Scenario(workload="lublin99", jobs=150, machine_size=32, load=0.9, seed=3)

#: the driver's pass counters and the engine's two counters
_LIST = {"events_processed": 300, "jobs_started": 150, "max_queue_depth": 6,
         "peak_event_queue": 8, "sched_passes": 278}
_EASY = {"events_processed": 300, "jobs_backfilled": 93, "jobs_started": 150,
         "max_queue_depth": 24, "peak_event_queue": 7, "sched_passes": 259,
         "shadow_scans": 218}
_CONSERVATIVE = {"events_processed": 300, "jobs_backfilled": 95, "jobs_started": 150,
                 "max_queue_depth": 24, "peak_event_queue": 6, "profile_builds": 1,
                 "profile_patches": 110, "sched_passes": 258, "slots_merged": 323,
                 "slots_split": 1268}

PINNED = {
    "fcfs": {"events_processed": 300, "jobs_started": 150, "max_queue_depth": 62,
             "peak_event_queue": 12, "sched_passes": 250},
    # The list schedulers start whatever fits, so they share one schedule
    # on this workload and report no policy counters.
    "sjf": _LIST,
    "ljf": _LIST,
    "wfp": _LIST,
    "first-fit": _LIST,
    "widest-first": _LIST,
    "narrowest-first": _LIST,
    "smallest-area-first": _LIST,
    "easy": _EASY,
    "backfill": _EASY,
    "conservative": _CONSERVATIVE,
}


@pytest.mark.parametrize("policy", sorted(PINNED))
def test_counts_are_pinned(policy):
    counters = run(SCENARIO.with_(policy=policy)).report.counters
    assert counters == PINNED[policy]
    # Every call site adds a nonzero amount, so no key reads 0.
    assert all(type(value) is int and value > 0 for value in counters.values())


PINNED_UNDER_OUTAGES = {
    "fcfs": ({"events_processed": 324, "jobs_started": 164, "max_queue_depth": 65,
              "peak_event_queue": 30, "sched_passes": 289}, 14),
    "easy": ({"events_processed": 324, "jobs_backfilled": 139, "jobs_started": 165,
              "max_queue_depth": 18, "peak_event_queue": 29, "sched_passes": 302,
              "shadow_scans": 278}, 15),
    "easy:outage_aware=true": ({"events_processed": 324, "jobs_backfilled": 139,
                                "jobs_started": 167, "max_queue_depth": 15,
                                "peak_event_queue": 29, "sched_passes": 302,
                                "shadow_scans": 278}, 17),
    "conservative": ({"events_processed": 324, "jobs_backfilled": 118, "jobs_started": 166,
                      "max_queue_depth": 23, "peak_event_queue": 29, "profile_builds": 1,
                      "profile_patches": 154, "sched_passes": 286, "slots_merged": 127,
                      "slots_split": 1443}, 16),
    "conservative:outage_aware=true": ({"events_processed": 324, "jobs_backfilled": 117,
                                        "jobs_started": 165, "max_queue_depth": 23,
                                        "peak_event_queue": 29, "profile_builds": 1,
                                        "profile_patches": 152, "sched_passes": 286,
                                        "slots_merged": 129, "slots_split": 1438}, 15),
}


@pytest.fixture(scope="module")
def outage_conditions():
    workload = resolve_workload(SCENARIO)
    outages = generate_outages(32, int(workload.span()) + 86400,
                               OutageModel(mtbf_seconds=86400.0), seed=5)
    return workload, outages


@pytest.mark.parametrize("policy", sorted(PINNED_UNDER_OUTAGES))
def test_counts_under_outages_are_pinned(policy, outage_conditions):
    # A killed job restarts, so jobs_started exceeds the job count by the
    # restarts; outage kills are a result field, not a counter.
    workload, outages = outage_conditions
    result = run(SCENARIO.with_(policy=policy), workload=workload, outages=outages)
    counters, kills = PINNED_UNDER_OUTAGES[policy]
    assert result.report.counters == counters
    assert result.result.outage_kills == kills


PINNED_SITES = {
    "fcfs": {
        "site-1": {"jobs_started": 202, "max_queue_depth": 148, "sched_passes": 424},
        "site-2": {"jobs_started": 195, "max_queue_depth": 152, "sched_passes": 416},
    },
    "easy": {
        "site-1": {"jobs_backfilled": 147, "jobs_started": 202, "max_queue_depth": 19,
                   "sched_passes": 428, "shadow_scans": 416},
        "site-2": {"jobs_backfilled": 143, "jobs_started": 195, "max_queue_depth": 23,
                   "sched_passes": 422, "shadow_scans": 417},
    },
    "conservative": {
        "site-1": {"jobs_backfilled": 127, "jobs_started": 154, "max_queue_depth": 116,
                   "profile_builds": 1, "profile_patches": 187, "sched_passes": 379,
                   "slots_merged": 6170, "slots_split": 15034},
        "site-2": {"jobs_backfilled": 52, "jobs_started": 82, "max_queue_depth": 118,
                   "profile_builds": 1, "profile_patches": 108, "sched_passes": 311,
                   "slots_merged": 2578, "slots_split": 10637},
    },
}


@pytest.mark.parametrize("local", sorted(PINNED_SITES))
def test_grid_site_counts_are_pinned(local):
    # Each site's driver owns its counts; the grid run as a whole reports
    # none, and the engine's counters belong to no one site.
    result = run(Scenario(
        workload="lublin99:jobs=120,seed=3",
        policy=f"grid:meta=earliest-start,sites=2,reservations=true,local={local}",
        machine_size=32,
    ))
    assert result.report.counters == {}
    assert {
        name: site.counters for name, site in result.grid.site_results.items()
    } == PINNED_SITES[local]
