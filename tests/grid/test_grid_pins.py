"""Grid schedules pinned to a digest, one per scenario.

``tests/test_run_counters.py`` pins the per-site counters only, which a
changed meta placement or reservation can leave as they were.  Here the
whole outcome of a grid run is pinned: a sha256 over each site's sorted
``(job_id, start_time, end_time, processors, killed)`` tuples, the sorted
meta results ``(job_id, sites, start, end, planned_start,
wasted_node_seconds)``, the rejected and unfinished meta ids, and the
predictor-scoring ``prediction_pairs``.  The scenarios are ``std-grid``'s
three policies at its first seed and the two 3-site reservation scenarios
of the CI grid step.  A changed digest is a changed grid schedule.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import Scenario, run

#: ``std-grid``'s scenario at its first seed (``derive_seeds(1999, 5)[0]``)
STD_GRID = Scenario(workload="lublin99", jobs=150, machine_size=64, seed=1978525947)
#: the CI grid step's scenario
CI_GRID = Scenario(workload="lublin99:jobs=200,seed=3", machine_size=64)

SCENARIOS = {
    "std-grid/least-loaded": STD_GRID.with_(
        policy="grid:meta=least-loaded,sites=2,meta_jobs=40"
    ),
    "std-grid/earliest-start": STD_GRID.with_(
        policy="grid:meta=earliest-start,sites=2,meta_jobs=40"
    ),
    "std-grid/earliest-start+reservations": STD_GRID.with_(
        policy="grid:meta=earliest-start,sites=2,meta_jobs=40,reservations=true"
    ),
    "ci/conservative": CI_GRID.with_(
        policy="grid:meta=earliest-start,sites=3,reservations=true,local=conservative"
    ),
    "ci/easy": CI_GRID.with_(
        policy="grid:meta=earliest-start,sites=3,reservations=true,local=easy"
    ),
}

PINNED = {
    "std-grid/least-loaded": "dc0eb2c2b1a21bfc0bf2c46433e86ca2f453ef8b8cc54f831f9d6e1fd5c10af9",
    "std-grid/earliest-start": "0bb36fb5c935b1be6bd06e1b5e0b65d2af104e8cfd9480b212c25e9bb203e96b",
    "std-grid/earliest-start+reservations": "a3282e60de8ecafbcb5c63191d7dad0533559a6174bdf26f3cba7eeef4dcefe7",
    "ci/conservative": "586276391a5c3c1529de0a63d5dcf254a43d1241b2a634af0728c61abfc74eab",
    "ci/easy": "9eb629377de82c78a128b5551648ee77a3ea49279fff67a828518e0921ab3ce5",
}


def grid_digest(grid) -> str:
    sites = {
        name: sorted(
            (j.job_id, j.start_time, j.end_time, j.processors, j.killed)
            for j in site.jobs
        )
        for name, site in sorted(grid.site_results.items())
    }
    meta = sorted(
        (r.job.job_id, r.sites, r.start_time, r.end_time, r.planned_start, r.wasted_node_seconds)
        for r in grid.meta_results
    )
    outcome = (
        sites,
        meta,
        sorted(grid.rejected_meta_jobs),
        sorted(grid.unfinished_meta_jobs),
        sorted(grid.prediction_pairs.items()),
    )
    return hashlib.sha256(repr(outcome).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_grid_outcome_is_pinned(name):
    assert grid_digest(run(SCENARIOS[name]).grid) == PINNED[name]
