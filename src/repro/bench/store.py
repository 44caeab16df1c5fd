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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.api.scenario import Scenario
from repro.metrics.basic import MetricsReport
from repro.util import GCStats, atomic_write, default_root, gc_sweep
from repro.util import canonical_hash as _canonical_hash

__all__ = [
    "STORE_VERSION",
    "ResultStore",
    "StoredResult",
    "result_key",
    "family_key",
    "code_version",
    "default_store_root",
]


#: Cache-format / simulator-semantics version; bump to invalidate the store.
#: v2: MetricsReport gained the per-run ``counters`` dict — older entries
#: lack it, and the strict ``from_json`` rightly refuses them.
#: v3: slot-set scheduling core — schedules are bit-identical, but the
#: counter set changed (``slots_split``/``slots_merged``/``profile_patches``
#: replace the per-pass ``profile_builds``) and metric aggregation moved to
#: columnar float reductions, so cached reports differ in the last ulp.
#: v4: conservative backfilling keeps its plan across passes — schedules are
#: bit-identical, but its ``slots_split``/``slots_merged``/``profile_patches``
#: counts change and ``anchors_placed`` is new, under unchanged keys.
STORE_VERSION = "v4"

#: Environment variable overriding the default store location.
STORE_ENV_VAR = "REPRO_BENCH_STORE"


def code_version() -> str:
    """The code-version component of every cache key."""
    from repro import __version__

    return f"{__version__}+bench-{STORE_VERSION}"


def default_store_root() -> Path:
    """``$REPRO_BENCH_STORE`` if set, else ``~/.cache/repro-bench``."""
    return default_root(STORE_ENV_VAR, "repro-bench")


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
        # entry; only stamp the current version on freshly produced results.
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

    Each entry is exactly one file, and that file is its only record: no
    store-wide index copies it, so nothing can disagree with it.  Writes go
    through a same-directory temp file + ``os.replace`` so a killed run can
    never leave a half-written entry that later poisons the cache.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

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
        wins — instead of interleaving.
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

        Deliberately *not* ``entries()``: that decodes every record just to
        produce a count, which turns a cheap progress probe into an
        O(store) scan — pathological once multiple workers poll a shared
        store.  Corrupt files count here (they occupy a key slot on disk);
        decode-level truth is what ``__contains__`` and :meth:`entries` are
        for.
        """
        return sum(1 for _ in self.root.glob("*/*.json"))

    def entries(self) -> Iterator[StoredResult]:
        """Every readable entry in the store, in key order (``bench report`` input).

        A scan of the entry files through :meth:`get`, so it sees every
        ``put`` and deletion made before it and skips a corrupt entry
        exactly as ``get`` would.
        """
        for path in sorted(self.root.glob("*/*.json")):
            entry = self.get(path.stem)
            if entry is not None:
                yield entry

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
        deleting.  The sweep itself is :func:`repro.util.gc_sweep`.
        """
        current = code_version()

        def reason(path: Path) -> Optional[str]:
            entry = self.get(path.stem)
            if entry is None:
                return "corrupt"
            if drop_stale and entry.code != current:
                return "stale"
            return None

        return gc_sweep(
            GCStats(dry_run=dry_run),
            sorted(self.root.glob("*/*.json")),
            reason,
            lambda path: (path,),
            max_age_days,
        )
