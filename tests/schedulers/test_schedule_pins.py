"""Every space-sharing policy's schedule, pinned to a digest.

The counter pins in ``tests/test_run_counters.py`` cannot tell the list
policies apart: on their small workload every non-FCFS list policy starts
whatever fits and reports the same counts.  Here each spec runs on a
larger, saturated workload where the orders diverge, and the schedule
itself is pinned: a sha256 over the sorted
``(job_id, start_time, end_time, processors, killed)`` tuples.  The
literals were captured from the implementation the policies had before
they shared one start loop; a changed digest is a changed schedule.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import Scenario, resolve_workload, run
from repro.core.outage import OutageModel, generate_outages

SCENARIO = Scenario(workload="lublin99", jobs=300, machine_size=64, load=0.95, seed=7)

PINNED = {
    "conservative": ("conservative-backfill", "ce1a788701c865e23ccaeff7cd8b89ce7e86b753d02aeb772dcc790183282c08"),
    "easy": ("easy-backfill", "5ccd32c5eadfcfd1e882ad53c16cad4eddbe407b6204d0450f1147fd139c061b"),
    "fcfs": ("fcfs", "17284b1d956412adfd3913d7bf0b665537b83af5b4983b0737e859dbb947c380"),
    "first-fit": ("first-fit", "972588e13452b854da5e0c5cddf5b1929c307f34e6e35eeb074b6bf2b8771d77"),
    "ljf": ("ljf", "60f1875226df3465838070ef7e9c6d33affa7205dc92ef5a2fe8d3a940e56abe"),
    "ljf:strict=true": ("ljf", "cf4eceea369ec02d6062dee97d15c6a3a1af78a15b70350ea3e9698947cf192a"),
    "narrowest-first": ("narrowest-first", "53881053e024b089b0147f9b66ff842f48918a0e785cbfce60d526609ec19208"),
    "narrowest-first:strict=true": ("narrowest-first", "53881053e024b089b0147f9b66ff842f48918a0e785cbfce60d526609ec19208"),
    "sjf": ("sjf", "9d194ebf9c06ceb0166acc59364c9e3ac8da8a752a9bd0a49bf0f68f187ec13d"),
    "sjf:strict=true": ("sjf", "30e51130efb82a36e953f81d0b26a144b3ca744ab2aaca7ab62f781b4e540e1c"),
    "smallest-area-first": ("smallest-area-first", "9d194ebf9c06ceb0166acc59364c9e3ac8da8a752a9bd0a49bf0f68f187ec13d"),
    "smallest-area-first:strict=true": ("smallest-area-first", "3b3386b9200e70acab0315f289501a7943b5016160ac128e02e3045734a5b1c0"),
    "wfp": ("wfp3", "baa0c60ed51a3ad8e5a43c02aedf8613729de9803954a9326ad56677ea5dc5fa"),
    "wfp:strict=true": ("wfp3", "6f5c300e1256ecc16c5d95dae4225b1608dbc41f5008650b5705584ad4f74a98"),
    "widest-first": ("widest-first", "38ef33e527252331842d6872b31ff9035a076eee9c017c4a0c07beeddf405472"),
    "widest-first:strict=true": ("widest-first", "f1ee78c1b0c1f58037d99858fcdb6f909b9471172a54f8fa7a20d4bc09ca6868"),
}

#: outage-aware specs next to their plain counterparts, under one outage log
PINNED_UNDER_OUTAGES = {
    "conservative": ("conservative-backfill", "0b9e7d53e858395c718f4c5f85a39dbe192fcb1c1ca4b1f2c162d06cfcc7a240"),
    "conservative:outage_aware=true": ("conservative-backfill", "d1bc9198bef18df0f774b8ffafba91ffb996e3edaabf5f07877577c0690728e1"),
    "easy": ("easy-backfill", "400542a9e0bd0ca0292dd2d72119765b6ada24a076af81d0e460bc82d52115c5"),
    "easy:outage_aware=true": ("easy-backfill", "c97cd57e7c03d9b67ac145e0537c76ad04db029913f5587a2d5610153f0c1241"),
    "fcfs": ("fcfs", "fc9c7b8eac4bf02bd8d5025c35b5c1ab08e9e5ac460d88c425dbbe37a99cf834"),
    "fcfs:outage_aware=true": ("fcfs", "00ec9da9f7730af37eecf1f0c8de16e77812e1cc95b74f5671ba614f13a22e02"),
    "first-fit": ("first-fit", "51b5ef30f2a5489c09d7d28ce80f34183f05f26450d238eb962e2e7dbd3f8c8b"),
    "first-fit:outage_aware=true": ("first-fit", "e321b89447bdb84cac808214cf439dfc6cc038d6767e8eb469f0905af3e83355"),
    "sjf:strict=true": ("sjf", "7cb76feb04ba80dd4725912b9113f54a81d2df66a7c48a63f4881d6495f37d67"),
    "sjf:strict=true,outage_aware=true": ("sjf", "41260a816893ef941d2b3b6d9c43e72182b631dc4b85471d3a4f00bbeb2b1fba"),
}


def schedule_digest(result) -> str:
    rows = sorted(
        (j.job_id, j.start_time, j.end_time, j.processors, j.killed)
        for j in result.result.jobs
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.fixture(scope="module")
def workload():
    return resolve_workload(SCENARIO)


@pytest.fixture(scope="module")
def outages(workload):
    return generate_outages(SCENARIO.machine_size, int(workload.span()) + 86400,
                            OutageModel(mtbf_seconds=86400.0), seed=5)


@pytest.mark.parametrize("policy", sorted(PINNED))
def test_schedule_is_pinned(policy, workload):
    result = run(SCENARIO.with_(policy=policy), workload=workload)
    assert not result.result.unfinished
    assert (result.result.scheduler_name, schedule_digest(result)) == PINNED[policy]


@pytest.mark.parametrize("policy", sorted(PINNED_UNDER_OUTAGES))
def test_schedule_under_outages_is_pinned(policy, workload, outages):
    result = run(SCENARIO.with_(policy=policy), workload=workload, outages=outages)
    assert result.result.outage_kills > 0
    assert (result.result.scheduler_name, schedule_digest(result)) == PINNED_UNDER_OUTAGES[policy]
