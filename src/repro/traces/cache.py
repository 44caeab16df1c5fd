"""On-disk cache of materialized traces, keyed by content digest.

Layout mirrors the benchmark result store: under ``root/<digest[:2]>/`` each
digest has up to three files:

* ``<digest>.swf`` — the canonical SWF bytes: the file of record, and what
  the digest addresses;
* ``<digest>.json`` — the meta file, recording the spec and name that
  produced the entry (documentation for humans; the digest alone is the key);
* ``<digest>.fields`` — the fields sidecar, a ``marshal`` blob of the header
  entries and job fields of the strict parse of the ``.swf``, stamped with
  its layout, ``TRACE_FORMAT``, ``marshal.version`` and the sha256 of the
  ``.swf`` bytes it was built from.  A hit loads it instead of parsing SWF
  text when every stamp matches; otherwise the ``.swf`` is parsed and the
  sidecar rewritten.  It is derived data: written by the first read that
  parses (not by :meth:`TraceCache.put`, so building a trace pays nothing
  for it), and never an error or a source of a wrong workload when torn,
  stale, unreadable or unwritable.

Writes are atomic (same-directory temp file + ``os.replace``), so two
processes materializing the same trace concurrently — exactly what
``run_many(workers=N)`` over a cold cache does — each publish a complete
file and the last writer wins with identical bytes.

The root defaults to ``$REPRO_TRACE_CACHE`` or ``~/.cache/repro-traces``.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import mmap
import os
import sys
import time
from array import array
from itertools import chain
from pathlib import Path
from typing import Optional, Union

from repro.core.swf.fields import FIELD_COUNT
from repro.core.swf.header import HeaderEntry, SWFHeader
from repro.core.swf.parser import parse_swf_text
from repro.core.swf.records import SWFJob
from repro.core.swf.workload import Workload
from repro.core.swf.writer import canonical_swf_bytes
from repro.util import atomic_write

__all__ = ["TraceCache", "CACHE_ENV_VAR", "default_cache_root"]

#: Environment variable overriding the default cache location.
CACHE_ENV_VAR = "REPRO_TRACE_CACHE"


def default_cache_root() -> Path:
    """``$REPRO_TRACE_CACHE`` if set, else ``~/.cache/repro-traces``."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-traces"


#: Layout of a fields sidecar's rows: one native-order int64 per field.  The
#: byte order is part of it, so hosts sharing a cache root never misread.
_FIELDS_LAYOUT = f"swf-fields-v1:{FIELD_COUNT}xint64:{sys.byteorder}"


def _fields_stamp(swf_sha: str) -> tuple:
    """What a fields sidecar must record to be served for ``.swf`` bytes hashing to ``swf_sha``."""
    from repro.traces.trace import TRACE_FORMAT

    return (_FIELDS_LAYOUT, TRACE_FORMAT, marshal.version, swf_sha)


def _read_fields(path: Path, swf_sha: str) -> Optional[Workload]:
    """The workload in the fields sidecar at ``path``, or None unless its stamp matches."""
    try:
        with open(path, "rb") as handle:
            record = marshal.load(handle)
        if not isinstance(record, tuple) or record[:-2] != _fields_stamp(swf_sha):
            return None
        entries, values = record[-2:]
        header = SWFHeader([HeaderEntry(label, value) for label, value in entries])
        fields = memoryview(values).cast("q")
    except (OSError, EOFError, ValueError, TypeError):
        return None
    if len(fields) % FIELD_COUNT:
        return None
    # One iterator zipped with itself: consecutive FIELD_COUNT-value rows.
    rows = zip(*[iter(fields)] * FIELD_COUNT)
    return Workload(jobs=map(SWFJob._from_trusted_fields, rows), header=header)


def _write_fields(path: Path, swf_sha: str, workload: Workload) -> None:
    """Record ``workload`` (the strict parse of ``.swf`` bytes hashing to ``swf_sha``) as a sidecar.

    Best effort: a field outside int64 or an unwritable root leaves no
    sidecar, and every later read parses the ``.swf`` instead.
    """
    try:
        fields = array("q", chain.from_iterable(workload.jobs))
        entries = tuple((entry.label, entry.value) for entry in workload.header.entries)
        # marshal writes the array as its raw bytes; no per-row copy is made.
        atomic_write(path, marshal.dumps(_fields_stamp(swf_sha) + (entries, fields)))
    except (OSError, OverflowError):
        pass


class TraceCache:
    """Content-addressed store of materialized traces (canonical SWF files)."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        #: materializations served from disk by this instance
        self.hits = 0
        #: materializations that had to build and write
        self.misses = 0

    def path_for(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.swf"

    def meta_path_for(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def fields_path_for(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.fields"

    def __contains__(self, digest: str) -> bool:
        return self.path_for(digest).is_file()

    def get(self, digest: str, name: Optional[str] = None) -> Optional[Workload]:
        """The cached workload under ``digest``, or None on miss.

        A cache file that fails to parse is treated as a miss (the caller
        rebuilds and overwrites it), never as an error: a torn or truncated
        entry must not be able to wedge every later run.

        The file is read through ``mmap``: canonical SWF bytes enter the OS
        page cache once per digest and are shared by every process on the
        host that maps them — a fleet of distributed workers replaying the
        same trace pays for one resident copy, not one per worker.  Its
        hash picks the fields sidecar, if one matches, over a parse.
        """
        path = self.path_for(digest)
        try:
            with open(path, "rb") as handle:
                if os.fstat(handle.fileno()).st_size == 0:
                    # mmap cannot map an empty file.
                    workload = self._load(digest, b"")
                else:
                    with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as view:
                        workload = self._load(digest, view)
        except (OSError, ValueError):
            return None
        workload.name = name if name is not None else self._cached_name(digest)
        self.hits += 1
        return workload

    def _load(self, digest: str, swf) -> Workload:
        """The workload in ``swf`` (the entry's bytes): from the fields sidecar, else parsed.

        A parse rewrites the sidecar from its result, so the next read of
        the same bytes loads it.
        """
        swf_sha = hashlib.sha256(swf).hexdigest()
        fields_path = self.fields_path_for(digest)
        workload = _read_fields(fields_path, swf_sha)
        if workload is None:
            workload = parse_swf_text(str(swf, "utf-8"), name=digest)
            _write_fields(fields_path, swf_sha, workload)
        return workload

    def _cached_name(self, digest: str) -> str:
        try:
            with open(self.meta_path_for(digest), "r", encoding="utf-8") as handle:
                return str(json.load(handle).get("name", digest[:12]))
        except (OSError, ValueError):
            return digest[:12]

    def put(self, digest: str, workload: Workload, spec: str = "") -> Path:
        """Persist ``workload`` in canonical form under ``digest``."""
        from repro.traces.trace import TRACE_FORMAT

        path = self.path_for(digest)
        atomic_write(path, canonical_swf_bytes(workload))
        meta = {
            "digest": digest,
            "name": workload.name,
            "spec": spec,
            "format": TRACE_FORMAT,
        }
        atomic_write(
            self.meta_path_for(digest),
            (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode("utf-8"),
        )
        self.misses += 1
        return path

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def gc(
        self,
        max_age_days: Optional[float] = None,
        drop_stale: bool = True,
        dry_run: bool = False,
    ):
        """Evict materialized traces by age and by stale ``TRACE_FORMAT``.

        A digest embeds the format version, so an artifact recorded under an
        older format (or with no readable meta file at all — e.g. a crash
        between the SWF and meta writes) can never be looked up again;
        ``drop_stale`` reclaims those.  ``max_age_days`` additionally evicts
        artifacts whose SWF file is older.  An evicted trace takes its meta
        file and fields sidecar with it, and a sidecar whose ``.swf`` is
        gone is always removed (reason ``orphan``): nothing reads it.
        Returns :class:`~repro.bench.store.GCStats`; ``dry_run`` only
        reports.
        """
        from repro.bench.store import GCStats
        from repro.traces.trace import TRACE_FORMAT

        stats = GCStats(dry_run=dry_run)
        if not self.root.is_dir():
            return stats
        cutoff = (
            time.time() - max_age_days * 86400.0
            if max_age_days is not None
            else None
        )
        for path in sorted(self.root.glob("*/*.swf")):
            stats.scanned += 1
            digest = path.stem
            reason = None
            try:
                with open(self.meta_path_for(digest), "r", encoding="utf-8") as handle:
                    meta = json.load(handle)
                if not isinstance(meta, dict):
                    raise ValueError("meta file is not an object")
            except (OSError, ValueError):
                if drop_stale:
                    reason = "corrupt"
            else:
                if drop_stale and meta.get("format") != TRACE_FORMAT:
                    reason = "stale"
            if reason is None and cutoff is not None:
                try:
                    if path.stat().st_mtime < cutoff:
                        reason = "expired"
                except OSError:
                    reason = "corrupt"
            if reason is None:
                stats.kept += 1
                continue
            self._evict(stats, digest, reason)
        for path in sorted(self.root.glob("*/*.fields")):
            digest = path.stem
            if digest in stats.removed or self.path_for(digest).exists():
                continue
            stats.scanned += 1
            self._evict(stats, digest, "orphan")
        return stats

    def _evict(self, stats, digest: str, reason: str) -> None:
        """Remove every file of ``digest`` (unless ``stats.dry_run``), counting its bytes."""
        stats.removed[digest] = reason
        swf = self.path_for(digest)
        for victim in (swf, self.meta_path_for(digest), self.fields_path_for(digest)):
            try:
                stats.freed_bytes += victim.stat().st_size
            except OSError:
                continue
            if not stats.dry_run:
                try:
                    victim.unlink()
                except OSError:
                    pass
        if not stats.dry_run:
            try:
                swf.parent.rmdir()  # only succeeds when the shard emptied
            except OSError:
                pass
