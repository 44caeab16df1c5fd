"""The file-backed work queue: suite execution sharded across processes.

A queue is a directory (shareable over NFS, exactly like the result store):

.. code-block:: text

    <queue root>/
        units/<key>.json       one file per distinct work unit
        leases/<key>.lease     live claims (see :mod:`repro.dist.lease`)
        suites/<name>.json     per-suite manifest: the key list to gather
        workers/<id>.json      per-worker progress/counter snapshots
        journal.jsonl          append-only event log (enqueue/claim/done)

``enqueue`` writes one file per distinct key of the
:class:`~repro.bench.runner.WorkUnit` list a serial run expands the suite
to, and a worker hands each unit to the same
:func:`~repro.bench.runner.execute_unit` that ``run_suite``'s misses go
through — so a unit's store key, and the entry any worker writes, are what
``run_suite`` would have produced.  Overlapping suites (or duplicate keys
inside one suite) share units the same way they share store entries.

Progress has no central state.  "Done" is defined as *the key decodes from
the shared result store* — the one fact every worker, the status probe, and
``gather`` can all establish independently, which is why crash-resume is
nothing but a rescan for missing keys.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.bench.runner import WorkUnit, _distinct, _expand
from repro.bench.store import ResultStore
from repro.bench.suite import BenchmarkSuite, get_suite
from repro.obs.journal import JobJournal
from repro.util import atomic_write

__all__ = [
    "QUEUE_ENV_VAR",
    "EnqueueResult",
    "SuiteProgress",
    "WorkQueue",
    "default_queue_root",
]

#: Environment variable overriding the default queue location.
QUEUE_ENV_VAR = "REPRO_DIST_QUEUE"


def default_queue_root() -> Path:
    """``$REPRO_DIST_QUEUE`` if set, else ``~/.cache/repro-dist``."""
    override = os.environ.get(QUEUE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-dist"


@dataclass(frozen=True)
class EnqueueResult:
    """What one ``enqueue`` call did."""

    suite: str
    #: replications the suite expands to (duplicate keys included)
    replications: int
    #: distinct work units (one per distinct store key)
    units: int
    #: unit files this call created
    enqueued: int
    #: units whose key already decodes from the store (born finished)
    already_stored: int
    #: unit files that already existed (re-enqueue, or an overlapping suite)
    already_queued: int

    def summary(self) -> str:
        return (
            f"suite {self.suite!r}: {self.units} units "
            f"({self.replications} replications), {self.enqueued} enqueued, "
            f"{self.already_stored} already stored, "
            f"{self.already_queued} already queued"
        )


@dataclass(frozen=True)
class SuiteProgress:
    """Progress of one enqueued suite against the shared store."""

    suite: str
    total: int
    done: int
    #: keys currently under a live (unexpired) lease
    leased: int
    #: keys whose lease has outlived its TTL (owner presumed dead)
    expired: int

    @property
    def pending(self) -> int:
        return self.total - self.done

    @property
    def complete(self) -> bool:
        return self.done >= self.total

    def summary(self) -> str:
        lease = ""
        if self.leased or self.expired:
            lease = f", {self.leased} leased"
            if self.expired:
                lease += f" ({self.expired} expired)"
        state = "complete" if self.complete else f"{self.pending} pending{lease}"
        return f"suite {self.suite!r}: {self.done}/{self.total} done, {state}"


class WorkQueue:
    """One queue directory: units, leases, manifests, worker stats, journal."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_queue_root()

    @property
    def units_dir(self) -> Path:
        return self.root / "units"

    @property
    def leases_dir(self) -> Path:
        return self.root / "leases"

    @property
    def suites_dir(self) -> Path:
        return self.root / "suites"

    @property
    def workers_dir(self) -> Path:
        return self.root / "workers"

    @property
    def journal_path(self) -> Path:
        return self.root / "journal.jsonl"

    def journal(self) -> JobJournal:
        """An append handle on the queue-wide event journal."""
        return JobJournal(self.journal_path)

    # ------------------------------------------------------------------
    # enqueue
    # ------------------------------------------------------------------
    def enqueue_suite(
        self,
        suite: Union[str, BenchmarkSuite],
        store: Optional[ResultStore] = None,
    ) -> EnqueueResult:
        """Expand ``suite`` into unit files; idempotent per key.

        Expansion reuses the serial runner's path, so keys — and the store
        entries workers eventually write — match ``run_suite`` exactly.
        Units whose key already decodes from ``store`` are still enqueued
        (the manifest needs every key for gather), but reported separately:
        a worker recognizes them as done without simulating.
        """
        suite = get_suite(suite) if isinstance(suite, str) else suite
        units = _expand(suite)
        distinct = _distinct(units)

        enqueued = already_queued = already_stored = 0
        for key, unit in distinct.items():
            if store is not None and key in store:
                already_stored += 1
            unit_path = self.units_dir / f"{key}.json"
            if unit_path.is_file():
                already_queued += 1
                continue
            atomic_write(
                unit_path,
                json.dumps(unit.to_record(), sort_keys=True).encode("utf-8"),
            )
            enqueued += 1

        manifest = {
            "suite": suite.name,
            "metrics": list(suite.metrics),
            "replications": len(units),
            "keys": sorted(distinct),
        }
        atomic_write(
            self.suites_dir / f"{suite.name}.json",
            (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8"),
        )
        result = EnqueueResult(
            suite=suite.name,
            replications=len(units),
            units=len(distinct),
            enqueued=enqueued,
            already_stored=already_stored,
            already_queued=already_queued,
        )
        with self.journal() as journal:
            journal.append(
                {
                    "event": "dist.enqueue",
                    "suite": suite.name,
                    "units": result.units,
                    "enqueued": result.enqueued,
                    "already_stored": result.already_stored,
                },
                durable=True,
            )
        return result

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def unit(self, key: str) -> Optional[WorkUnit]:
        """The unit stored under ``key``, or None on miss/corrupt file."""
        try:
            with open(self.units_dir / f"{key}.json", "r", encoding="utf-8") as handle:
                return WorkUnit.from_record(json.load(handle))
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def unit_keys(self) -> List[str]:
        """Every enqueued unit key, sorted (= deterministic scan order)."""
        if not self.units_dir.is_dir():
            return []
        return sorted(path.stem for path in self.units_dir.glob("*.json"))

    def units(self) -> List[WorkUnit]:
        """Every decodable enqueued unit, in key order."""
        loaded = (self.unit(key) for key in self.unit_keys())
        return [unit for unit in loaded if unit is not None]

    def pending_keys(self, store: ResultStore) -> List[str]:
        """Unit keys not yet decodable from ``store`` — the live backlog.

        This *is* the crash-resume scan: a killed worker's claimed-but-
        unfinished units have no store entry, so they reappear here for
        whoever looks next.
        """
        return [key for key in self.unit_keys() if key not in store]

    def manifest(self, suite_name: str) -> Optional[Dict[str, Any]]:
        try:
            with open(
                self.suites_dir / f"{suite_name}.json", "r", encoding="utf-8"
            ) as handle:
                manifest = json.load(handle)
            if not isinstance(manifest, dict) or "keys" not in manifest:
                return None
            return manifest
        except (OSError, ValueError):
            return None

    def suite_names(self) -> List[str]:
        if not self.suites_dir.is_dir():
            return []
        return sorted(path.stem for path in self.suites_dir.glob("*.json"))

    def status(
        self, store: ResultStore, ttl: Optional[float] = None
    ) -> List[SuiteProgress]:
        """Per-suite progress against ``store``, with lease occupancy."""
        from repro.dist.lease import DEFAULT_TTL_SECONDS, LeaseBroker

        broker = LeaseBroker(
            self.leases_dir, ttl=ttl if ttl is not None else DEFAULT_TTL_SECONDS
        )
        leases = broker.active_leases()
        progress = []
        for name in self.suite_names():
            manifest = self.manifest(name)
            if manifest is None:
                continue
            keys = manifest["keys"]
            wanted = set(keys)
            held = [expired for key, expired in leases.items() if key in wanted]
            progress.append(
                SuiteProgress(
                    suite=name,
                    total=len(keys),
                    done=sum(1 for key in keys if key in store),
                    leased=held.count(False),
                    expired=held.count(True),
                )
            )
        return progress

    # ------------------------------------------------------------------
    # worker stats
    # ------------------------------------------------------------------
    def write_worker_stats(self, worker_id: str, stats: Dict[str, Any]) -> Path:
        """Atomically publish one worker's progress snapshot."""
        path = self.workers_dir / f"{worker_id}.json"
        atomic_write(
            path, (json.dumps(stats, sort_keys=True, indent=2) + "\n").encode("utf-8")
        )
        return path

    def worker_stats(self) -> Dict[str, Dict[str, Any]]:
        """Every worker's latest snapshot, by worker id."""
        if not self.workers_dir.is_dir():
            return {}
        out: Dict[str, Dict[str, Any]] = {}
        for path in sorted(self.workers_dir.glob("*.json")):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    stats = json.load(handle)
            except (OSError, ValueError):
                continue
            if isinstance(stats, dict):
                out[path.stem] = stats
        return out
