"""Content-addressed on-disk store for benchmark replication results.

A replication is fully determined by its :class:`~repro.api.scenario.Scenario`
(which round-trips through JSON exactly — PR 1 built that property for
precisely this use), any non-scenario conditions (a generated outage log's
parameters), and the code that ran it.  So the cache key is

    sha256(canonical JSON of {scenario, extra, code version})

and a stored entry can be reused by any later suite run — including a
*different* suite whose cases overlap — without ever re-running the
simulator.  Entries store the lossless :meth:`MetricsReport.to_json` form,
not the rounded display dict, so cached statistics are bit-identical to
freshly computed ones.

Bump :data:`STORE_VERSION` whenever simulator semantics change in a way that
invalidates old results; the package version is folded in as well, so
releases never serve stale entries.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.api.scenario import Scenario
from repro.metrics.basic import MetricsReport
from repro.util import atomic_write, canonical_hash as _canonical_hash

__all__ = [
    "STORE_VERSION",
    "GCStats",
    "ResultStore",
    "StoredResult",
    "result_key",
    "family_key",
    "code_version",
    "default_store_root",
]


@dataclass
class GCStats:
    """What one garbage-collection pass over a content store did.

    Shared by the benchmark result store and the trace cache (both grow
    without bound otherwise); ``removed`` maps each evicted key to the
    reason it went (``stale``, ``expired``, ``corrupt``).
    """

    scanned: int = 0
    kept: int = 0
    freed_bytes: int = 0
    removed: Dict[str, str] = field(default_factory=dict)
    dry_run: bool = False

    def summary(self) -> str:
        reasons: Dict[str, int] = {}
        for reason in self.removed.values():
            reasons[reason] = reasons.get(reason, 0) + 1
        breakdown = (
            " (" + ", ".join(f"{n} {r}" for r, n in sorted(reasons.items())) + ")"
            if reasons
            else ""
        )
        verb = "would remove" if self.dry_run else "removed"
        return (
            f"scanned {self.scanned} entries: kept {self.kept}, {verb} "
            f"{len(self.removed)}{breakdown}, "
            f"{self.freed_bytes / 1024:.1f} KiB freed"
        )

#: Cache-format / simulator-semantics version; bump to invalidate the store.
#: v2: MetricsReport gained the per-run ``counters`` dict — older entries
#: lack it, and the strict ``from_json`` rightly refuses them.
#: v3: slot-set scheduling core — schedules are bit-identical, but the
#: counter set changed (``slots_split``/``slots_merged``/``profile_patches``
#: replace the per-pass ``profile_builds``) and metric aggregation moved to
#: columnar float reductions, so cached reports differ in the last ulp.
STORE_VERSION = "v3"

#: Environment variable overriding the default store location.
STORE_ENV_VAR = "REPRO_BENCH_STORE"


def code_version() -> str:
    """The code-version component of every cache key."""
    from repro import __version__

    return f"{__version__}+bench-{STORE_VERSION}"


def default_store_root() -> Path:
    """``$REPRO_BENCH_STORE`` if set, else ``~/.cache/repro-bench``."""
    override = os.environ.get(STORE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-bench"


def result_key(scenario: Scenario, extra: Optional[Dict[str, Any]] = None) -> str:
    """The content address of one replication: scenario + conditions + code.

    The cosmetic ``name`` label is excluded — it never reaches the
    simulator, and hashing it would stop suites with different case labels
    from sharing entries for identical simulations.
    """
    return _canonical_hash(
        {
            "scenario": scenario.with_(name=None).to_dict(),
            "extra": extra or {},
            "code": code_version(),
        }
    )


def family_key(scenario: Scenario, extra: Optional[Dict[str, Any]] = None) -> str:
    """The content address of a replication *family*: identity minus the seed.

    Entries of one family differ only in replication seed, so aggregating
    them into a mean ± CI is statistically meaningful; mixing families is
    not.  ``bench report`` groups by this.  Seed-bearing extras are reduced
    accordingly: the per-replication outage seed is dropped, and the full
    trace digest (which pins the generation seed for synthetic trace
    sources) yields to the seed-free ``trace_family`` digest — which still
    separates two *different contents* behind one path, exactly like the
    full digest does.
    """
    extra = dict(extra or {})
    if "outages" in extra:
        extra["outages"] = {
            k: v for k, v in extra["outages"].items() if k != "seed"
        }
    extra.pop("trace", None)
    return _canonical_hash(
        {
            "scenario": scenario.with_(name=None, seed=None).to_dict(),
            "extra": extra,
            "code": code_version(),
        }
    )


@dataclass(frozen=True)
class StoredResult:
    """One cached replication: its identity, conditions, and metric report."""

    key: str
    scenario: Scenario
    report: MetricsReport
    #: non-scenario key material (e.g. outage-generation parameters)
    extra: Dict[str, Any]
    #: suite/case labels recorded for ``bench report`` grouping
    suite: str = ""
    case: str = ""
    elapsed_seconds: float = 0.0
    #: code version that produced the entry (filled on load; lets readers
    #: skip stale generations without recomputing keys)
    code: str = ""

    def to_record(self) -> Dict[str, Any]:
        # Preserve the recorded code version when re-serializing a loaded
        # entry (the index rebuild does this); only stamp the current
        # version on freshly produced results.
        return {
            "format": STORE_VERSION,
            "code": self.code or code_version(),
            "key": self.key,
            "suite": self.suite,
            "case": self.case,
            "elapsed_seconds": self.elapsed_seconds,
            "scenario": self.scenario.to_dict(),
            "extra": self.extra,
            "report": self.report.to_json(),
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "StoredResult":
        return cls(
            key=record["key"],
            scenario=Scenario.from_dict(record["scenario"]),
            report=MetricsReport.from_json(record["report"]),
            extra=record.get("extra", {}),
            suite=record.get("suite", ""),
            case=record.get("case", ""),
            elapsed_seconds=record.get("elapsed_seconds", 0.0),
            code=record.get("code", ""),
        )


class ResultStore:
    """Flat content-addressed file store: ``root/<key[:2]>/<key>.json``.

    Writes go through a same-directory temp file + ``os.replace`` so a
    killed run can never leave a half-written entry that later poisons the
    cache.

    Store-wide reads (``bench report``) go through an **index file**
    (``root/index.json``) holding every entry's full record in one place,
    so a report is one file read instead of thousands.  The index is
    rebuilt lazily: ``put`` never touches it (concurrent writers would
    race), and staleness is detected from shard-directory mtimes — any
    entry written, rewritten, or deleted after the index bumps its shard's
    mtime past the index's, and the next :meth:`entries` call rescans and
    rewrites.
    """

    #: Name of the store-wide index file (lives directly under the root).
    INDEX_NAME = "index.json"

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    @property
    def index_path(self) -> Path:
        return self.root / self.INDEX_NAME

    def get(self, key: str) -> Optional[StoredResult]:
        """The stored result under ``key``, or None on miss/corrupt entry."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
            return StoredResult.from_record(record)
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError):
            # A corrupt or stale-format entry is a miss, not an error: the
            # replication reruns and the entry is rewritten.
            return None

    def put(self, entry: StoredResult) -> Path:
        """Persist ``entry`` atomically; returns the file path.

        Atomic per-key publication means two processes sharing a store and
        racing on the same key each write a complete record — last replace
        wins — instead of interleaving.  The index is deliberately *not*
        updated here (concurrent writers would race on it); the write bumps
        the shard directory's mtime, which the next :meth:`entries` call
        detects as staleness.
        """
        path = self.path_for(entry.key)
        atomic_write(
            path, json.dumps(entry.to_record(), sort_keys=True).encode("utf-8")
        )
        return path

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` would be a cache *hit* — decode-consistent with get().

        Membership must never answer "yes" for an entry :meth:`get` would
        treat as a miss (corrupt file, stale record format): a distributed
        worker uses ``key in store`` as its claim check, and a
        file-exists-only answer would let every worker skip a unit whose
        entry can never actually be loaded, wedging the suite forever.
        """
        return self.get(key) is not None

    def __len__(self) -> int:
        """Number of entry files, counted directly off the shard directories.

        Deliberately *not* ``entries()``: that forces a full index rebuild
        (decoding every record) just to produce a count, which turns an
        O(1)-ish progress probe into an O(store) scan — pathological once
        multiple workers poll a shared store.  Corrupt files count here
        (they occupy a key slot on disk); decode-level truth is what
        ``__contains__`` and :meth:`entries` are for.
        """
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    # ------------------------------------------------------------------
    # store-wide reads via the lazy index
    # ------------------------------------------------------------------
    def _shard_mtimes(self) -> Dict[str, int]:
        """Current ``{shard name: mtime_ns}`` of every two-character shard dir."""
        if not self.root.is_dir():
            return {}
        mtimes: Dict[str, int] = {}
        for path in self.root.iterdir():
            if not path.is_dir() or len(path.name) != 2:
                continue
            try:
                mtimes[path.name] = path.stat().st_mtime_ns
            except OSError:  # deleted mid-listing: count it as churn
                mtimes[path.name] = -1
        return mtimes

    def _load_fresh_index(self) -> Optional[list]:
        """The index records, or None when absent/stale/unreadable.

        The index records the exact shard mtime map observed *before* its
        scan started; it is fresh iff the current map is identical.  Any
        entry written, rewritten, or deleted after that snapshot — including
        one that lands mid-rebuild — changes its shard's mtime (or the shard
        set) and invalidates the index, so a concurrent ``put`` can delay an
        index's usefulness but never hide an entry behind a "fresh" one.
        """
        try:
            with open(self.index_path, "r", encoding="utf-8") as handle:
                index = json.load(handle)
            records = index["entries"]
            shards = index["shards"]
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if index.get("format") != STORE_VERSION or not isinstance(shards, dict):
            return None
        if self._shard_mtimes() != shards:
            return None
        return records

    def rebuild_index(self) -> list:
        """Scan every entry file and (re)write the index; returns the records."""
        # Snapshot before scanning: a write that races the scan makes the
        # recorded map stale relative to the post-write reality, forcing the
        # next read to rescan instead of trusting a possibly-partial index.
        shards = self._shard_mtimes()
        records = []
        for path in sorted(self.root.glob("*/*.json")):
            entry = self.get(path.stem)
            if entry is not None:
                records.append(entry.to_record())
        index = {
            "format": STORE_VERSION,
            "shards": shards,
            "entries": records,
        }
        atomic_write(self.index_path, json.dumps(index, sort_keys=True).encode("utf-8"))
        return records

    def entries(self) -> Iterator[StoredResult]:
        """Every readable entry in the store (``bench report`` input).

        Served from the store-wide index when it is fresh; otherwise the
        store is rescanned and the index rewritten.  A record that fails to
        decode is skipped, exactly like a corrupt entry file.
        """
        if not self.root.is_dir():
            return
        records = self._load_fresh_index()
        if records is None:
            records = self.rebuild_index()
        for record in records:
            try:
                yield StoredResult.from_record(record)
            except (ValueError, KeyError, TypeError):
                continue

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def gc(
        self,
        max_age_days: Optional[float] = None,
        drop_stale: bool = True,
        dry_run: bool = False,
    ) -> GCStats:
        """Evict entries by age and by stale code/format version.

        An entry is evicted when (a) ``drop_stale`` and it was written by a
        different code version (package version or :data:`STORE_VERSION`
        bump) — such entries can never be cache hits again, their keys embed
        the version; (b) ``max_age_days`` is set and the entry file is older;
        or (c) the file no longer parses.  ``dry_run`` reports without
        deleting.  Empty shard directories are pruned, and the store-wide
        index self-invalidates through the shard mtimes the deletions bump.
        """
        stats = GCStats(dry_run=dry_run)
        if not self.root.is_dir():
            return stats
        cutoff = (
            time.time() - max_age_days * 86400.0
            if max_age_days is not None
            else None
        )
        current = code_version()
        shards: List[Path] = []
        for path in sorted(self.root.glob("*/*.json")):
            stats.scanned += 1
            reason = None
            entry = self.get(path.stem)
            if entry is None:
                reason = "corrupt"
            elif drop_stale and entry.code != current:
                reason = "stale"
            elif cutoff is not None:
                try:
                    if path.stat().st_mtime < cutoff:
                        reason = "expired"
                except OSError:
                    reason = "corrupt"
            if reason is None:
                stats.kept += 1
                continue
            stats.removed[path.stem] = reason
            try:
                stats.freed_bytes += path.stat().st_size
            except OSError:
                pass
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    pass
                shards.append(path.parent)
        if not dry_run:
            for shard in set(shards):
                try:
                    shard.rmdir()  # only succeeds when the shard emptied
                except OSError:
                    pass
        return stats
