"""Shared infrastructure for synthetic workload models.

Every model in this package produces a standard-conforming
:class:`~repro.core.swf.workload.Workload`: submit times sorted and
zero-origin, job numbers sequential, users / groups / executables numbered
incrementally, and a header describing the model and machine.  The helpers
here implement that assembly step plus the arrival processes (Poisson and
daily-cycle-modulated Poisson) and the user-population machinery shared by
the models.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.swf.fields import MISSING
from repro.core.swf.header import SWFHeader
from repro.core.swf.records import SWFJob
from repro.core.swf.workload import Workload
from repro.simulation.distributions import Zipf, make_rng

__all__ = [
    "WorkloadModel",
    "PoissonArrivals",
    "DailyCycleArrivals",
    "UserPopulation",
    "assemble_workload",
    "round_to_power_of_two",
]

SECONDS_PER_DAY = 24 * 3600


def round_to_power_of_two(value: float, maximum: int) -> int:
    """Round a positive value to the nearest power of two, clamped to [1, maximum]."""
    if value <= 1:
        return 1
    exponent = int(round(math.log2(value)))
    size = 2 ** max(exponent, 0)
    return max(1, min(size, maximum))


class PoissonArrivals:
    """Homogeneous Poisson arrival process with the given mean interarrival time."""

    def __init__(self, mean_interarrival: float) -> None:
        if mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        self.mean_interarrival = float(mean_interarrival)

    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Return ``count`` arrival times (seconds, ascending, starting near 0)."""
        gaps = rng.exponential(self.mean_interarrival, size=count)
        arrivals = np.cumsum(gaps)
        return arrivals - arrivals[0] if count else arrivals


class DailyCycleArrivals:
    """Poisson arrivals modulated by the daily activity cycle of production logs.

    Submissions peak during working hours and drop overnight; the modulation
    follows a raised cosine with the given peak-to-trough ratio, which is the
    shape reported for the archive traces and used by the Lublin model.
    Arrival times are generated by thinning a homogeneous process.
    """

    def __init__(
        self,
        mean_interarrival: float,
        peak_to_trough: float = 4.0,
        peak_hour: float = 14.0,
    ) -> None:
        if mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if peak_to_trough < 1.0:
            raise ValueError("peak_to_trough must be >= 1")
        self.mean_interarrival = float(mean_interarrival)
        self.peak_to_trough = float(peak_to_trough)
        self.peak_hour = float(peak_hour) % 24

    def intensity(self, time_seconds: float) -> float:
        """Relative arrival intensity at a time of day (average over a day is 1)."""
        hour = (time_seconds / 3600.0) % 24
        # Raised cosine between trough (t) and peak (p) with mean (p + t)/2 = 1.
        ratio = self.peak_to_trough
        peak = 2.0 * ratio / (ratio + 1.0)
        trough = 2.0 / (ratio + 1.0)
        phase = math.cos(2.0 * math.pi * (hour - self.peak_hour) / 24.0)
        return trough + (peak - trough) * (phase + 1.0) / 2.0

    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Return ``count`` arrival times by thinning a homogeneous Poisson process.

        Draw order, part of every seeded workload that uses this process:
        per candidate one ``exponential`` gap, then one ``random`` to accept
        or thin it, until ``count`` are accepted. The two kinds alternate, so
        neither can be drawn as a sized call without changing the stream.
        """
        ratio = self.peak_to_trough
        peak_intensity = 2.0 * ratio / (ratio + 1.0)
        base_rate = 1.0 / self.mean_interarrival
        arrivals: List[float] = []
        t = 0.0
        while len(arrivals) < count:
            t += rng.exponential(1.0 / (base_rate * peak_intensity))
            if rng.random() < self.intensity(t) / peak_intensity:
                arrivals.append(t)
        array = np.asarray(arrivals)
        return array - array[0] if count else array


class UserPopulation:
    """Assigns users, groups, and executables with Zipf-like popularity.

    A small number of heavy users dominate real logs; the default exponent of
    roughly 1 reproduces that concentration.  Group membership is fixed per
    user, and each user draws executables from a personal subset, which gives
    the per-user repetition structure the feedback heuristic relies on.
    """

    def __init__(
        self,
        users: int = 50,
        groups: int = 8,
        executables: int = 150,
        zipf_exponent: float = 1.0,
        executables_per_user: int = 6,
    ) -> None:
        if users < 1 or groups < 1 or executables < 1:
            raise ValueError("population sizes must be >= 1")
        self.users = users
        self.groups = groups
        self.executables = executables
        self.zipf = Zipf(n=users, alpha=zipf_exponent)
        self.executables_per_user = max(1, min(executables_per_user, executables))

    def assign(self, rng: np.random.Generator, count: int):
        """Return (user_ids, group_ids, executable_ids) arrays of length ``count``.

        Draw order, part of every seeded workload that uses a population:
        one Zipf ``choice`` of ``count`` users, one ``integers`` per user for
        its group, ``executables_per_user`` ``integers`` per user for its
        executable pool, then one ``integers`` per job picking a pool slot.
        Each run of same-kind draws is made as one sized call, which numpy
        makes bit-identical to the scalar calls; adding, dropping or
        reordering a draw changes every workload generated after it.
        """
        user_ids = self.zipf.sample_many(rng, count).astype(int)
        group_of_user = rng.integers(1, self.groups + 1, size=self.users)
        exe_pools = rng.integers(
            1, self.executables + 1, size=(self.users, self.executables_per_user)
        )
        # rng.choice(pool) is pool[rng.integers(0, len(pool))].
        slots = rng.integers(0, self.executables_per_user, size=count)
        rows = user_ids - 1
        return user_ids, group_of_user[rows], exe_pools[rows, slots]


def assemble_workload(
    name: str,
    computer: str,
    machine_size: int,
    arrivals: Sequence[float],
    sizes: Sequence[int],
    runtimes: Sequence[float],
    estimates: Optional[Sequence[float]] = None,
    users: Optional[Sequence[int]] = None,
    groups: Optional[Sequence[int]] = None,
    executables: Optional[Sequence[int]] = None,
    queues: Optional[Sequence[int]] = None,
    memory_kb: Optional[Sequence[int]] = None,
    max_runtime: Optional[int] = None,
    notes: Optional[Sequence[str]] = None,
) -> Workload:
    """Assemble model output arrays into a standard-conforming workload.

    Jobs are sorted by arrival time, renumbered 1..N, and their submit times
    shifted so the first is zero.  Missing optional arrays leave the
    corresponding SWF fields at ``-1``, as the standard allows for models.
    """
    n = len(arrivals)
    for label, seq in (("sizes", sizes), ("runtimes", runtimes)):
        if len(seq) != n:
            raise ValueError(f"{label} must have the same length as arrivals")

    arrivals_f = np.asarray(arrivals, dtype=float)
    order = np.argsort(arrivals_f, kind="stable")
    origin = float(arrivals[order[0]]) if n else 0.0

    def _column(seq, default=MISSING):
        """int(round(float(x))) per element, or a constant default column."""
        if seq is None:
            return np.full(n, default, dtype=np.int64)
        return np.rint(np.asarray(seq, dtype=float)).astype(np.int64)

    # Column-wise assembly: every per-job value below reproduces the exact
    # int(round(float(...))) / int(...) coercions of the old scalar loop.
    submit = np.maximum(0, np.rint(arrivals_f - origin)).astype(np.int64)[order]
    runtime = np.maximum(0, _column(runtimes))[order]
    size = np.maximum(1, np.asarray(sizes).astype(np.int64))[order]
    estimate = _column(estimates)[order]
    estimate = np.where(estimate != MISSING, np.maximum(estimate, runtime), estimate)
    user_col = _column(users)[order]
    group_col = _column(groups)[order]
    exe_col = _column(executables)[order]
    queue_col = _column(queues, default=1)[order]
    memory_col = _column(memory_kb)[order]

    jobs: List[SWFJob] = []
    rows = zip(
        submit.tolist(),
        runtime.tolist(),
        size.tolist(),
        estimate.tolist(),
        user_col.tolist(),
        group_col.tolist(),
        exe_col.tolist(),
        queue_col.tolist(),
        memory_col.tolist(),
    )
    for rank, (sub, run, procs, est, user, group, exe, queue, mem) in enumerate(rows, start=1):
        jobs.append(
            SWFJob._from_trusted_fields(
                (
                    rank,       # job_number
                    sub,        # submit_time
                    MISSING,    # wait_time
                    run,        # run_time
                    procs,      # allocated_processors
                    MISSING,    # average_cpu_time
                    mem,        # used_memory
                    procs,      # requested_processors
                    est,        # requested_time
                    MISSING,    # requested_memory
                    MISSING,    # status
                    user,       # user_id
                    group,      # group_id
                    exe,        # executable_id
                    queue,      # queue_number
                    1,          # partition_number
                    MISSING,    # preceding_job
                    MISSING,    # think_time
                )
            )
        )

    header = SWFHeader.standard(
        computer=computer,
        installation=f"synthetic model: {name}",
        max_nodes=machine_size,
        max_runtime=max_runtime,
        notes=list(notes or []) + [f"Generated by the {name} workload model (repro.workloads)."],
    )
    # Already in standard order: submits are a monotone map of the sorted
    # arrivals and jobs are numbered 1..N in that order.
    return Workload(jobs, header, name=name)


class WorkloadModel(ABC):
    """Base class of all synthetic workload models."""

    #: model name used in workload names and experiment tables
    name: str = "model"

    def __init__(self, machine_size: int = 128) -> None:
        if machine_size < 1:
            raise ValueError("machine_size must be >= 1")
        self.machine_size = machine_size

    @abstractmethod
    def generate(self, jobs: int, seed: Optional[int] = None) -> Workload:
        """Generate a workload with ``jobs`` jobs."""

    def generate_with_load(
        self,
        jobs: int,
        target_load: float,
        seed: Optional[int] = None,
    ) -> Workload:
        """Generate and then rescale arrivals to hit a target offered load.

        Raises :class:`ValueError` when the generated workload has no offered
        load to rescale (fewer than two jobs).
        """
        if not 0 < target_load:
            raise ValueError("target_load must be positive")
        workload = self.generate(jobs, seed=seed)
        return workload.scale_to_load(
            target_load, self.machine_size, name=f"{workload.name}@{target_load:.2f}"
        )
