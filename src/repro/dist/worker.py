"""The distributed worker: claim → ``execute_unit`` → release → repeat.

A worker is intentionally almost stateless.  Its entire contract with the
rest of the fleet is:

* a unit is **done** iff its key decodes from the shared result store;
* a unit is **claimed** iff a live lease file exists for its key;
* a worker executes a unit with :func:`repro.bench.runner.execute_unit`,
  the one execute-and-store path a serial ``run_suite`` also takes, so a
  distributed suite is bit-identical to a serial one.

The loop: scan for pending keys (enqueued, not in store), try to claim each
under a lease, re-check the store after winning the claim (someone may have
finished it between scan and claim), run ``execute_unit`` (simulate, then
``store.put``) with a heartbeat refreshing the lease, release.  When every
pending key is leased by someone else the worker naps and rescans; when
nothing is pending it exits.  SIGKILL at *any* point loses at most the unit being
simulated — its lease expires, a later scan reclaims it, and the store is
never left with a torn entry (``put`` is atomic).

Workers publish progress snapshots (``workers/<id>.json``) including the
deterministic ``events_processed`` total summed over the units they
simulated — the CI smoke job compares fleet totals against the store's to
prove no unit was simulated twice.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.bench.runner import WorkUnit, execute_unit
from repro.bench.store import ResultStore
from repro.dist.lease import DEFAULT_TTL_SECONDS, Heartbeat, LeaseBroker
from repro.dist.queue import WorkQueue

__all__ = ["WorkerStats", "run_worker"]


@dataclass
class WorkerStats:
    """One worker's ledger, published as ``workers/<id>.json``."""

    worker_id: str
    #: leases this worker won
    claimed: int = 0
    #: units this worker actually simulated and stored
    simulated: int = 0
    #: pending-scan entries that turned out already stored (resume hits,
    #: or another worker finishing between scan and claim)
    already_stored: int = 0
    #: claim attempts lost to a live competing lease
    contended: int = 0
    #: expired leases reclaimed from presumed-dead workers
    reclaimed: int = 0
    #: unit files that failed to decode (skipped, journaled)
    corrupt_units: int = 0
    #: deterministic simulator events summed over simulated units — the
    #: fleet-wide no-duplicate-simulation proof compares these totals
    events_processed: int = 0
    simulate_seconds: float = 0.0
    #: full pending-scan passes over the queue
    passes: int = 0

    def to_record(self) -> Dict[str, Any]:
        return {
            "worker": self.worker_id,
            "claimed": self.claimed,
            "simulated": self.simulated,
            "already_stored": self.already_stored,
            "contended": self.contended,
            "reclaimed": self.reclaimed,
            "corrupt_units": self.corrupt_units,
            "events_processed": self.events_processed,
            "simulate_seconds": round(self.simulate_seconds, 6),
            "passes": self.passes,
        }

    def summary(self) -> str:
        return (
            f"worker {self.worker_id}: {self.simulated} simulated, "
            f"{self.already_stored} already stored, {self.contended} contended, "
            f"{self.reclaimed} leases reclaimed "
            f"in {self.simulate_seconds:.2f}s simulation"
        )


def _rotate(keys, worker_id: str):
    """Scan order rotated by a stable per-worker offset.

    Every worker sees the same sorted key list; starting them all at index
    0 would pile the whole fleet onto the same lease and pay a contention
    round per unit.  A per-worker rotation spreads first claims out while
    keeping the scan deterministic for a given worker id.
    """
    if not keys:
        return keys
    offset = zlib.crc32(worker_id.encode("utf-8")) % len(keys)
    return keys[offset:] + keys[:offset]


def run_worker(
    queue: WorkQueue,
    store: ResultStore,
    ttl: float = DEFAULT_TTL_SECONDS,
    once: bool = False,
    poll_interval: float = 0.5,
    max_units: Optional[int] = None,
    worker_id: Optional[str] = None,
    progress: Optional[Callable[[WorkerStats, WorkUnit], None]] = None,
) -> WorkerStats:
    """Drain the queue's pending units into ``store``; returns the ledger.

    Exits when no enqueued key is missing from the store (the suite is
    complete), after one full pass with ``once=True``, or after
    ``max_units`` simulations.  ``progress(stats, unit)`` fires after each
    stored unit.  Safe to run any number of copies concurrently against the
    same queue/store — that is the whole point.
    """
    broker = LeaseBroker(queue.leases_dir, ttl=ttl, owner=worker_id)
    stats = WorkerStats(worker_id=broker.owner)
    journal = queue.journal()
    journal.append(
        {"event": "dist.worker_start", "worker": stats.worker_id, "ttl": ttl},
        durable=True,
    )
    try:
        _drain(queue, store, broker, stats, journal, once,
               poll_interval, max_units, progress)
    finally:
        stats.contended = broker.contended
        stats.reclaimed = broker.reclaimed
        queue.write_worker_stats(stats.worker_id, stats.to_record())
        journal.append(
            {
                "event": "dist.worker_exit",
                "worker": stats.worker_id,
                "simulated": stats.simulated,
                "events_processed": stats.events_processed,
            },
            durable=True,
        )
        journal.close()
    return stats


def _drain(
    queue: WorkQueue,
    store: ResultStore,
    broker: LeaseBroker,
    stats: WorkerStats,
    journal,
    once: bool,
    poll_interval: float,
    max_units: Optional[int],
    progress: Optional[Callable[[WorkerStats, WorkUnit], None]],
) -> None:
    # Units whose file failed to decode are skipped for this worker's
    # lifetime: they can never complete, and leaving them in the pending set
    # would wedge the exit condition forever.
    skip: set = set()
    while True:
        pending = [key for key in queue.pending_keys(store) if key not in skip]
        if not pending:
            return
        stats.passes += 1
        progressed = False
        for key in _rotate(pending, stats.worker_id):
            if max_units is not None and stats.simulated >= max_units:
                return
            reclaimed_before = broker.reclaimed
            lease = broker.acquire(key)
            if broker.reclaimed > reclaimed_before:
                journal.append(
                    {"event": "dist.lease_expired", "worker": stats.worker_id,
                     "key": key}
                )
            if lease is None:
                continue
            stats.claimed += 1
            try:
                # The store, not the lease, is the source of truth for
                # "done": someone may have finished this key between our
                # pending scan and the claim (or an earlier fleet already
                # ran it) — decode-consistent membership makes this check
                # exact, so a finished unit is never simulated again.
                if key in store:
                    stats.already_stored += 1
                    progressed = True
                    continue
                unit = queue.unit(key)
                if unit is None:
                    skip.add(key)
                    stats.corrupt_units += 1
                    journal.append(
                        {"event": "dist.unit_corrupt", "worker": stats.worker_id,
                         "key": key}
                    )
                    continue
                journal.append(
                    {"event": "dist.claim", "worker": stats.worker_id,
                     "key": key, "case": unit.case, "suite": unit.suite}
                )
                started = time.perf_counter()
                with Heartbeat(lease):
                    entry = execute_unit(unit, store)
                elapsed = time.perf_counter() - started
                stats.simulated += 1
                stats.simulate_seconds += elapsed
                stats.events_processed += int(
                    entry.report.counters.get("events_processed", 0)
                )
                progressed = True
                journal.append(
                    {"event": "dist.unit_done", "worker": stats.worker_id,
                     "key": key, "case": unit.case, "suite": unit.suite,
                     "seconds": round(elapsed, 6)},
                    durable=True,
                )
                if progress is not None:
                    progress(stats, unit)
            finally:
                lease.release()
            # Publish after every unit, not just at exit: status tooling and
            # the CI assertions read these snapshots while the fleet runs.
            stats.contended = broker.contended
            stats.reclaimed = broker.reclaimed
            queue.write_worker_stats(stats.worker_id, stats.to_record())
        if once:
            return
        if not progressed:
            # Everything pending is leased by live workers (or corrupt).
            # Wait out either a completion or a lease expiry, then rescan.
            time.sleep(poll_interval)
