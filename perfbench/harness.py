"""Run one workload: set up, time cold and warm suite passes, check outputs.

A *cold pass* runs the workload's suite against a fresh ``ResultStore``
(every unit simulates and is written); a *warm pass* runs it again against
the previous cold pass's store (every unit is a hit).  The host's speed
halves for seconds at a time, so warm passes run between the units of the
later cold passes, outside the units' timings: warm samples then meet the
host at as many moments as cold units do.  Every measured span (a unit, a
warm pass, a set-up) is bracketed by samples of the host's speed and
reported normalized (:mod:`hostspeed`).  Each pass is checked:

* every simulated schedule passes :func:`validate.check_schedule`;
* its digest equals the first cold pass's (and, at the default seed, the
  pinned one), and the exact work counts equal the first cold pass's;
* a warm pass serves every unit from the store, with the cold reports.

A unit that fails any check counts in ``failed``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from .hostspeed import HostSpeed
from .layers import LayerClock, layer_metrics
from .validate import check_schedule, unit_digest
from .workloads import DEFAULT_SEED, WORKLOADS

PINS_PATH = Path(__file__).with_name("pinned.json")

#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPS = 5
#: at least this many cold passes per run: unit latencies are medians over them
MIN_COLD = 3
#: warm passes take this share of the time cold units take
WARM_SHARE = 0.05

#: counters summed over a pass's units (``SimulationResult.counters``)
SUMMED_COUNTERS = (
    "events_processed",
    "sched_passes",
    "jobs_started",
    "jobs_backfilled",
    "shadow_scans",
    "profile_patches",
    "slots_split",
    "slots_merged",
)
#: counters that are high-water marks, maximized over a pass's units
PEAK_COUNTERS = ("peak_event_queue", "max_queue_depth")


class Capture:
    """Collects every simulation's result together with its inputs."""

    def __init__(self) -> None:
        self.items: List[tuple] = []
        self._original = None

    def __enter__(self) -> "Capture":
        from repro.evaluation.simulator import MachineSimulation

        original = self._original = MachineSimulation.__dict__["run"]
        items = self.items

        def capturing_run(sim):
            result = original(sim)
            items.append((result, sim.workload, sim.machine.size, sim.outages))
            return result

        MachineSimulation.run = capturing_run
        return self

    def __exit__(self, *exc) -> None:
        from repro.evaluation.simulator import MachineSimulation

        MachineSimulation.run = self._original


@dataclass
class PassRecord:
    wall: float
    units: int
    failed: int
    jobs: int = 0
    #: ``perf_counter`` (start, end) of each unit of a cold pass, of a whole warm pass
    spans: List[Tuple[float, float]] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)


def _clear_workload_memo() -> None:
    """Make every cold pass start from the same in-process memo state."""
    from repro.api import runner as api_runner

    memo = getattr(api_runner, "_SHARED_WORKLOADS", None)
    if memo is not None:
        memo.clear()


def _pass_counts(captured: List[tuple], store) -> Dict[str, int]:
    counts: Counter = Counter()
    peaks: Dict[str, int] = {name: 0 for name in PEAK_COUNTERS}
    for result, _workload, _size, _outages in captured:
        for name in SUMMED_COUNTERS:
            counts[name] += int(result.counters.get(name, 0))
        for name in PEAK_COUNTERS:
            peaks[name] = max(peaks[name], int(result.counters.get(name, 0)))
        counts["outage_kills"] += result.outage_kills
    counts.update(peaks)
    counts["store_entries"] = len(store)
    return dict(sorted(counts.items()))


class WorkloadRun:
    """One benchmark run of one workload in a scratch directory."""

    def __init__(self, name: str, seed: int, scratch: Path, sizes: Optional[Dict[str, int]] = None) -> None:
        self.prepare = WORKLOADS[name]
        self.seed = seed
        self.scratch = scratch
        self.sizes = sizes or {}
        self.suite = None
        self.setup_spans: List[Tuple[float, float]] = []
        self.cold: List[PassRecord] = []
        self.warm: List[PassRecord] = []
        self.errors: List[str] = []
        #: the layer clock of a traced run, told which phase each pass is in
        self.clock: Optional[LayerClock] = None
        #: samples of the host's speed; ``None`` in a traced run, which reports raw times
        self.host: Optional[HostSpeed] = HostSpeed()
        self._cold_reports = None
        self._store = None
        self._capture = Capture()
        self._cold_seconds = 0.0  # cold unit time that warm passes could interleave
        self._warm_seconds = 0.0
        pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.is_file() else {}
        self.pinned = pins.get(name) if seed == DEFAULT_SEED and not self.sizes else None

    def _phase(self, name: str) -> None:
        if self.clock is not None:
            self.clock.phase(name)

    def _sample_host(self, always: bool = False) -> None:
        if self.host is not None:
            self.host.sample() if always else self.host.maybe_sample()

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Materialize the inputs ``SETUP_REPS`` times, each into a fresh trace cache."""
        for rep in range(SETUP_REPS):
            self._phase(f"setup{rep}")
            cache_dir = Path(tempfile.mkdtemp(prefix="traces-", dir=self.scratch))
            self._sample_host(always=True)
            started = perf_counter()
            self.suite = self.prepare(self.seed, cache_dir, **self.sizes)
            self.setup_spans.append((started, perf_counter()))
        self._sample_host(always=True)
        os.environ["REPRO_TRACE_CACHE"] = str(cache_dir)

    def cold_pass(self) -> PassRecord:
        from repro.bench import runner as bench_runner
        from repro.bench.store import ResultStore

        _clear_workload_memo()
        previous = self._store
        store = ResultStore(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        spans: List[Tuple[float, float]] = []
        paused = 0.0  # time between units: host samples and warm passes

        def progress(*_):
            nonlocal resumed, paused
            ended = perf_counter()
            spans.append((resumed, ended))
            self._sample_host()
            if previous is not None:
                self._cold_seconds += ended - resumed
                self._warm_up_to_share(previous)
            resumed = perf_counter()
            paused += resumed - ended

        self._capture.items.clear()
        self._phase("cold")
        self._sample_host(always=True)
        with self._capture:
            started = resumed = perf_counter()
            try:
                outcome = bench_runner.run_suite(self.suite, workers=1, store=store, progress=progress)
            except Exception as exc:  # a failing program is a result, not a crash
                self.errors.append(f"cold pass raised {type(exc).__name__}: {exc}")
                units = self.suite.replication_count()
                record = PassRecord(sum(end - start for start, end in spans), units, units)
                self.cold.append(record)
                return record
            wall = perf_counter() - started - paused
        self._sample_host(always=True)
        captured = list(self._capture.items)
        self._capture.items.clear()
        record = PassRecord(
            wall=wall,
            units=len(outcome.replications),
            failed=0,
            jobs=sum(len(result.jobs) for result, *_ in captured),
            spans=spans,
            counts=_pass_counts(captured, store),
        )
        self._check_cold(record, outcome, captured)
        self.cold.append(record)
        self._store = store
        self._cold_reports = [o.report.to_json() for o in outcome.replications]
        return record

    def _check_cold(self, record: PassRecord, outcome, captured: List[tuple]) -> None:
        if outcome.cache_misses != record.units or len(captured) != record.units:
            self.errors.append(
                f"cold pass simulated {len(captured)} of {record.units} units "
                f"({outcome.cache_misses} misses)"
            )
            record.failed = record.units
            return
        reference = self.cold[0].digests if self.cold else self.pinned
        for index, ((result, workload, size, outages), outcome_unit) in enumerate(
            zip(captured, outcome.replications)
        ):
            problems = check_schedule(result, workload, size, outages)
            digest = unit_digest(result, outcome_unit.report)
            record.digests.append(digest)
            if reference is not None and (index >= len(reference) or reference[index] != digest):
                problems.append(f"digest {digest} != expected")
            if problems:
                record.failed += 1
                self.errors.append(f"unit {index} ({outcome_unit.scenario.label}): {problems[0]}")
        if self.cold and record.counts != self.cold[0].counts:
            self.errors.append(f"counts differ between cold passes: {record.counts} != {self.cold[0].counts}")
            record.failed = record.units

    def _warm_up_to_share(self, store) -> None:
        """Warm passes over ``store`` until they took ``WARM_SHARE`` of the cold time."""
        if self._warm_seconds >= WARM_SHARE * self._cold_seconds:
            return
        self._phase("warm")
        if self.clock is None:
            self._warm_batch(store)
        else:
            # A frame of its own, so the cold pass it interrupts is not charged.
            self.clock.call("harness.warm", self._warm_batch, store)
        self._phase("cold")

    def _warm_batch(self, store) -> None:
        self._sample_host(always=True)
        while self._warm_seconds < WARM_SHARE * self._cold_seconds:
            record = self.warm_pass(store)
            self._warm_seconds += record.wall
            if record.failed:
                break
        self._sample_host(always=True)

    def warm_pass(self, store) -> PassRecord:
        from repro.bench import runner as bench_runner

        units = len(self._cold_reports)
        started = perf_counter()
        try:
            outcome = bench_runner.run_suite(self.suite, workers=1, store=store)
        except Exception as exc:
            self.errors.append(f"warm pass raised {type(exc).__name__}: {exc}")
            record = PassRecord(perf_counter() - started, units, units)
            self.warm.append(record)
            return record
        ended = perf_counter()
        record = PassRecord(wall=ended - started, units=units, failed=0, spans=[(started, ended)])
        reports = [o.report.to_json() for o in outcome.replications]
        if outcome.cache_hits != units or reports != self._cold_reports:
            self.errors.append(
                f"warm pass served {outcome.cache_hits} of {units} units, "
                f"reports {'equal' if reports == self._cold_reports else 'differ'}"
            )
            record.failed = units
        self.warm.append(record)
        return record

    def measure(self, seconds: float, min_cold: int) -> Tuple[List[PassRecord], List[PassRecord]]:
        """Cold passes (with warm passes between their units) for ``seconds``.

        A cold pass starts while it is expected to end in time, and at least
        ``min_cold`` run.  Returns the cold and warm records of this call.
        """
        start = perf_counter()
        first_cold, first_warm = len(self.cold), len(self.warm)
        while True:
            done = self.cold[first_cold:]
            if len(done) >= min_cold:
                expected = statistics.mean(p.wall for p in done) * (1 + WARM_SHARE)
                if perf_counter() + expected > start + seconds:
                    break
            if self.cold_pass().failed == self.cold[-1].units:
                break
        self._phase("after")
        return self.cold[first_cold:], self.warm[first_warm:]

    # ------------------------------------------------------------------
    @property
    def attempted(self) -> int:
        return sum(p.units for p in self.cold + self.warm)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.cold + self.warm)

    def end_to_end(self, cold: List[PassRecord], warm: List[PassRecord]) -> Dict[str, float]:
        """End-to-end metrics from host-normalized spans.

        Each unit's latency is its median over the cold passes, and a pass's
        time is the sum of those medians (the unit latencies of one pass add
        up to its wall time).
        """
        normalize = self.host.normalize
        complete = [p for p in cold if len(p.spans) == p.units]
        per_unit = sorted(
            statistics.median(normalize(*p.spans[unit]) for p in complete)
            for unit in range(complete[0].units)
        ) if complete else [0.0]
        return {
            "setup_s": statistics.median(normalize(*span) for span in self.setup_spans),
            "jobs_per_s": complete[0].jobs / sum(per_unit) if complete else 0.0,
            "unit_p50_ms": _quantile(per_unit, 0.50) * 1e3,
            "unit_p90_ms": _quantile(per_unit, 0.90) * 1e3,
            "warm_s": statistics.median(normalize(*p.spans[0]) for p in warm) if warm else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def _quantile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolated quantile of an already sorted list."""
    if not sorted_values:
        return 0.0
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


def run_untraced(run: WorkloadRun, seconds: float) -> Dict[str, float]:
    run.setup()
    cold, warm = run.measure(seconds, MIN_COLD)
    return run.end_to_end(cold, warm)


#: per-layer counts read off the first cold pass's exact counts
COUNT_METRICS = {
    "engine.events": "events_processed",
    "engine.peak_queue": "peak_event_queue",
    "driver.passes": "sched_passes",
    "driver.max_queue_depth": "max_queue_depth",
    "driver.jobs_started": "jobs_started",
    "driver.outage_kills": "outage_kills",
    "policy.jobs_backfilled": "jobs_backfilled",
    "policy.shadow_scans": "shadow_scans",
    "freespace.profile_patches": "profile_patches",
    "freespace.slots_split": "slots_split",
    "freespace.slots_merged": "slots_merged",
    "store.entries": "store_entries",
}


def run_traced(run: WorkloadRun, seconds: float) -> Dict[str, float]:
    """Per-layer metrics: an untraced reference cold pass, then traced passes."""
    clock = run.clock = LayerClock()
    run.host = None
    clock.install_setup()
    try:
        run.setup()
    finally:
        clock.restore()
    start = perf_counter()
    reference = run.cold_pass()
    clock.install()
    try:
        cold, warm = run.measure(max(0.0, seconds - (perf_counter() - start)), 1)
    finally:
        clock.restore()
    observed_cold = clock.phases["cold"]
    metrics = layer_metrics(observed_cold, clock.phases["warm"], len(cold), len(warm))
    metrics.update(
        {name: float(reference.counts.get(count, 0)) for name, count in COUNT_METRICS.items()}
    )
    traced_wall = sum(p.wall for p in cold)
    metrics["traces.materialize_s"] = statistics.median(
        clock.phases[f"setup{rep}"].seconds["traces.materialize"] for rep in range(SETUP_REPS)
    )
    metrics["trace.overhead_frac"] = traced_wall / len(cold) / reference.wall - 1.0
    metrics["trace.unattributed_frac"] = 1.0 - sum(observed_cold.seconds.values()) / traced_wall
    return metrics
