"""On-disk cache of materialized traces, keyed by content digest.

Layout mirrors the benchmark result store: under ``root/<digest[:2]>/`` each
digest has up to three files:

* ``<digest>.swf`` — the canonical SWF bytes: the file of record, and what
  the digest addresses;
* ``<digest>.json`` — the meta file, recording the spec and name that
  produced the entry, its ``TRACE_FORMAT``, and the sha256 of the ``.swf``
  bytes :meth:`TraceCache.put` wrote.  A hit serves the ``.swf`` only when
  its bytes hash to that value, so a truncated, emptied or edited ``.swf``
  — or a meta that is missing, unreadable or has no hash — is a miss, and
  the entry is rebuilt;
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
file and the last writer wins with identical bytes.  :meth:`TraceCache.gc`
evicts through the sweep the result store uses, :func:`repro.util.gc_sweep`.

The root defaults to ``$REPRO_TRACE_CACHE`` or ``~/.cache/repro-traces``.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import mmap
import os
import sys
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
from repro.util import GCStats, atomic_write, default_root, gc_sweep

__all__ = ["TraceCache", "CACHE_ENV_VAR", "default_cache_root"]

#: Environment variable overriding the default cache location.
CACHE_ENV_VAR = "REPRO_TRACE_CACHE"


def default_cache_root() -> Path:
    """``$REPRO_TRACE_CACHE`` if set, else ``~/.cache/repro-traces``."""
    return default_root(CACHE_ENV_VAR, "repro-traces")


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
        """Whether a ``.swf`` file exists under ``digest``; see :meth:`holds`."""
        return self.path_for(digest).is_file()

    def holds(self, digest: str) -> bool:
        """Whether :meth:`get` would serve ``digest``: its ``.swf`` hashes to its meta's sha256.

        ``digest in cache`` only checks that the file exists, so it also
        answers yes for an entry ``get`` treats as a miss (a meta without a
        hash, a truncated or edited ``.swf``).
        """
        meta = self._read_meta(digest)
        recorded_sha = meta.get("sha256") if meta is not None else None
        if not recorded_sha:
            return False
        try:
            with open(self.path_for(digest), "rb") as handle:
                return hashlib.sha256(handle.read()).hexdigest() == recorded_sha
        except OSError:
            return False

    def _read_meta(self, digest: str) -> Optional[dict]:
        """The meta record of ``digest``, or None when it is missing or unreadable."""
        try:
            with open(self.meta_path_for(digest), "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, ValueError):
            return None
        return meta if isinstance(meta, dict) else None

    def get(self, digest: str, name: Optional[str] = None) -> Optional[Workload]:
        """The cached workload under ``digest``, or None on miss.

        The ``.swf`` is served only when its bytes hash to the sha256 its
        meta file records; anything else — a torn, truncated or edited
        file, or a meta that is missing, unreadable or has no hash — is a
        miss (the caller rebuilds and overwrites the entry), never an error
        and never a wrong workload.

        The file is read through ``mmap``: canonical SWF bytes enter the OS
        page cache once per digest and are shared by every process on the
        host that maps them — a fleet of distributed workers replaying the
        same trace pays for one resident copy, not one per worker.  The
        same hash picks the fields sidecar, if one matches, over a parse.
        """
        meta = self._read_meta(digest)
        recorded_sha = meta.get("sha256") if meta is not None else None
        if not recorded_sha:
            return None
        try:
            with open(self.path_for(digest), "rb") as handle:
                if os.fstat(handle.fileno()).st_size == 0:
                    # mmap cannot map an empty file.
                    workload = self._load(digest, b"", recorded_sha)
                else:
                    with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as view:
                        workload = self._load(digest, view, recorded_sha)
        except (OSError, ValueError):
            return None
        workload.name = name if name is not None else str(meta.get("name", digest[:12]))
        self.hits += 1
        return workload

    def _load(self, digest: str, swf, recorded_sha: str) -> Workload:
        """The workload in ``swf`` (the entry's bytes): from the fields sidecar, else parsed.

        Raises ``ValueError`` unless the bytes hash to ``recorded_sha``.  A
        parse rewrites the sidecar from its result, so the next read of the
        same bytes loads it.
        """
        swf_sha = hashlib.sha256(swf).hexdigest()
        if swf_sha != recorded_sha:
            raise ValueError(f"trace {digest[:12]}: .swf bytes do not match its meta file")
        fields_path = self.fields_path_for(digest)
        workload = _read_fields(fields_path, swf_sha)
        if workload is None:
            workload = parse_swf_text(str(swf, "utf-8"), name=digest)
            _write_fields(fields_path, swf_sha, workload)
        return workload

    def put(self, digest: str, workload: Workload, spec: str = "") -> Path:
        """Persist ``workload`` in canonical form under ``digest``.

        The meta file, which records the hash of the ``.swf`` bytes, is
        written second: a ``.swf`` that lands without it is a miss.
        """
        from repro.traces.trace import TRACE_FORMAT

        path = self.path_for(digest)
        data = canonical_swf_bytes(workload)
        atomic_write(path, data)
        meta = {
            "digest": digest,
            "name": workload.name,
            "spec": spec,
            "format": TRACE_FORMAT,
            "sha256": hashlib.sha256(data).hexdigest(),
        }
        atomic_write(
            self.meta_path_for(digest),
            (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode("utf-8"),
        )
        self.misses += 1
        return path

    def gc(
        self,
        max_age_days: Optional[float] = None,
        drop_stale: bool = True,
        dry_run: bool = False,
    ) -> GCStats:
        """Evict materialized traces by age and by stale ``TRACE_FORMAT``.

        A digest embeds the format version, so an artifact recorded under an
        older format (or with no readable meta file at all — e.g. a crash
        between the SWF and meta writes) can never be looked up again;
        ``drop_stale`` reclaims those.  ``max_age_days`` additionally evicts
        artifacts whose SWF file is older.  An evicted trace takes its meta
        file and fields sidecar with it, and a sidecar whose ``.swf`` is
        gone is always removed (reason ``orphan``) by a second sweep:
        nothing reads it.  ``dry_run`` only reports.  The sweep itself is
        :func:`repro.util.gc_sweep`.
        """
        from repro.traces.trace import TRACE_FORMAT

        def reason(path: Path) -> Optional[str]:
            if not drop_stale:
                return None
            meta = self._read_meta(path.stem)
            if meta is None:
                return "corrupt"
            return "stale" if meta.get("format") != TRACE_FORMAT else None

        def files(path: Path) -> tuple:
            digest = path.stem
            return (self.path_for(digest), self.meta_path_for(digest), self.fields_path_for(digest))

        stats = gc_sweep(
            GCStats(dry_run=dry_run),
            sorted(self.root.glob("*/*.swf")),
            reason,
            files,
            max_age_days,
        )
        orphans = [
            path
            for path in sorted(self.root.glob("*/*.fields"))
            if path.stem not in stats.removed and not self.path_for(path.stem).exists()
        ]
        return gc_sweep(stats, orphans, lambda path: "orphan", files)
