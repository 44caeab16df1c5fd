"""Synthetic stand-ins for the Parallel Workloads Archive traces.

The paper's evaluation methodology is anchored to four production logs
(Section 2.1): the NASA Ames iPSC/860, the CTC SP2, the SDSC Paragon, and the
LANL CM-5.  The archive is not reachable from this offline environment, so
this module generates *synthetic archive traces*: SWF workloads whose machine
sizes, size distributions, runtime scales, interactive fractions, and header
descriptions follow the published summary characteristics of those systems.

These are substitutes, not the real logs (DESIGN.md records the
substitution).  What matters for the reproduction is that (a) every generated
trace is a valid SWF file exercised through the same parser / validator /
simulator code path a real archive trace would be, and (b) the four traces
differ from each other along the dimensions the originals do (size, job mix,
interactivity), so cross-trace comparisons remain meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.swf.fields import MISSING
from repro.core.swf.header import SWFHeader
from repro.core.swf.workload import Workload
from repro.simulation.distributions import make_rng
from repro.workloads.feitelson96 import Feitelson96Model
from repro.workloads.jann97 import Jann97Model
from repro.workloads.lublin99 import Lublin99Model

__all__ = [
    "ArchiveSpec",
    "ARCHIVES",
    "ARCHIVE_EPOCH",
    "DEFAULT_ARCHIVE_SEED",
    "synthetic_archive",
    "archive_names",
]

#: Fixed UnixStartTime stamped into every generated archive header:
#: 1999-01-01T00:00:00 UTC, the year of the source paper.  A wall-clock
#: timestamp here would give identical (name, jobs, seed) specs different
#: bytes, which would break the content-addressed trace catalog.
ARCHIVE_EPOCH = 915148800

#: Seed used when the caller passes ``seed=None``.  Canonicalizing the
#: default (instead of drawing OS entropy) makes every spec — including the
#: default one — produce byte-identical SWF files across runs and machines.
DEFAULT_ARCHIVE_SEED = 0


@dataclass(frozen=True)
class ArchiveSpec:
    """Descriptive parameters of one synthetic archive trace."""

    key: str
    computer: str
    installation: str
    machine_size: int
    interactive_fraction: float
    memory_per_node_kb: int
    power_of_two_only: bool
    min_allocation: int
    mean_interarrival: float
    offered_load: float
    description: str


ARCHIVES: Dict[str, ArchiveSpec] = {
    "nasa-ipsc": ArchiveSpec(
        key="nasa-ipsc",
        computer="Intel iPSC/860 (synthetic)",
        installation="NASA Ames Research Center (synthetic stand-in)",
        machine_size=128,
        interactive_fraction=0.55,
        memory_per_node_kb=8 * 1024,
        power_of_two_only=True,
        min_allocation=1,
        mean_interarrival=700.0,
        offered_load=0.47,
        description="Hypercube: power-of-two sub-cubes only, many short interactive jobs.",
    ),
    "ctc-sp2": ArchiveSpec(
        key="ctc-sp2",
        computer="IBM SP2 (synthetic)",
        installation="Cornell Theory Center (synthetic stand-in)",
        machine_size=430,
        interactive_fraction=0.02,
        memory_per_node_kb=128 * 1024,
        power_of_two_only=False,
        min_allocation=1,
        mean_interarrival=1100.0,
        offered_load=0.66,
        description="Batch-dominated SP2 workload with arbitrary (non-power-of-two) sizes.",
    ),
    "sdsc-paragon": ArchiveSpec(
        key="sdsc-paragon",
        computer="Intel Paragon (synthetic)",
        installation="San Diego Supercomputer Center (synthetic stand-in)",
        machine_size=416,
        interactive_fraction=0.15,
        memory_per_node_kb=32 * 1024,
        power_of_two_only=False,
        min_allocation=1,
        mean_interarrival=1000.0,
        offered_load=0.71,
        description="Mesh-partitioned Paragon workload, mixed batch and interactive queues.",
    ),
    "lanl-cm5": ArchiveSpec(
        key="lanl-cm5",
        computer="Thinking Machines CM-5 (synthetic)",
        installation="Los Alamos National Laboratory (synthetic stand-in)",
        machine_size=1024,
        interactive_fraction=0.1,
        memory_per_node_kb=32 * 1024,
        power_of_two_only=True,
        min_allocation=32,
        mean_interarrival=1400.0,
        offered_load=0.74,
        description="CM-5 workload: allocations in power-of-two multiples of 32 nodes, "
        "with per-job memory data (the trace behind the memory-usage study).",
    ),
}


def archive_names() -> List[str]:
    """Keys of the available synthetic archives."""
    return list(ARCHIVES)


def _base_model(spec: ArchiveSpec) -> Lublin99Model:
    """The generator behind every synthetic archive is a tuned Lublin model."""
    return Lublin99Model(
        machine_size=spec.machine_size,
        mean_interarrival=spec.mean_interarrival,
        interactive_probability=spec.interactive_fraction,
        power_of_two_probability=0.95 if spec.power_of_two_only else 0.6,
    )


def synthetic_archive(name: str, jobs: int = 5000, seed: Optional[int] = None) -> Workload:
    """Generate the named synthetic archive trace.

    Parameters
    ----------
    name:
        One of :func:`archive_names` (e.g. ``"ctc-sp2"``).
    jobs:
        Number of jobs to generate.
    seed:
        RNG seed; the same (name, jobs, seed) triple always yields the same
        trace — byte-identical through the SWF writer — so experiments and
        the trace catalog can reference traces reproducibly.  ``None`` is
        canonicalized to :data:`DEFAULT_ARCHIVE_SEED` rather than drawing
        entropy, so even the default spec is content-stable.
    """
    if name not in ARCHIVES:
        raise KeyError(f"unknown archive {name!r}; available: {sorted(ARCHIVES)}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if seed is None:
        seed = DEFAULT_ARCHIVE_SEED
    spec = ARCHIVES[name]
    rng = make_rng(seed)
    workload = _base_model(spec).generate(jobs, seed=seed)

    adjusted = []
    for job in workload:
        size = job.allocated_processors
        if spec.power_of_two_only and size != MISSING:
            size = 1 << max(0, int(round(np.log2(max(size, 1)))))
        if spec.min_allocation > 1 and size != MISSING:
            size = max(spec.min_allocation, int(np.ceil(size / spec.min_allocation)) * spec.min_allocation)
        size = min(size, spec.machine_size) if size != MISSING else size
        memory = MISSING
        if spec.memory_per_node_kb:
            memory = int(rng.uniform(0.05, 0.8) * spec.memory_per_node_kb)
        status = 1 if rng.random() > 0.06 else 0  # a few percent of jobs are killed
        adjusted.append(
            job.replace(
                allocated_processors=size,
                requested_processors=size,
                used_memory=memory,
                requested_memory=memory if memory == MISSING else int(memory * rng.uniform(1.0, 1.5)),
                status=status,
                # Real traces record the wait the original scheduler produced;
                # give a plausible non-negative wait so derived fields exist.
                wait_time=int(rng.exponential(600.0)),
            )
        )

    result = Workload(adjusted, SWFHeader(), name=name).sorted_by_submit().renumbered()
    # Rescale arrivals so the trace matches the published offered load of the
    # machine it stands in for (the size adjustments above change the area).
    # A trace too short to have a load keeps its arrivals.
    try:
        result = result.scale_to_load(spec.offered_load, spec.machine_size)
    except ValueError:
        pass
    # The header is attached last so the EndTime it derives reflects the
    # trace's final (post-rescale) span; its timestamps are fixed constants,
    # keeping identical specs byte-identical (see ARCHIVE_EPOCH).
    header = SWFHeader.standard(
        computer=spec.computer,
        installation=spec.installation,
        max_nodes=spec.machine_size,
        max_runtime=7 * 24 * 3600,
        max_memory=spec.memory_per_node_kb,
        conversion="repro.data.archives synthetic generator",
        acknowledge="Synthetic stand-in for a Parallel Workloads Archive trace (see DESIGN.md)",
        partitions=spec.description,
        notes=[
            f"Synthetic archive trace modelled on the {spec.installation} log.",
            "This is NOT the original archive data; see DESIGN.md substitution table.",
        ],
        unix_start_time=ARCHIVE_EPOCH,
        duration_seconds=result.span(),
    )
    return Workload(result.jobs, header, name=name)
