"""On-disk cache of materialized traces, keyed by content digest.

Layout mirrors the benchmark result store: ``root/<digest[:2]>/<digest>.swf``
holding the canonical SWF bytes, plus a ``<digest>.json`` sidecar recording
the spec and name that produced the entry (documentation for humans; the
digest alone is the key).  Writes are atomic (same-directory temp file +
``os.replace``), so two processes materializing the same trace concurrently
— exactly what ``run_many(workers=N)`` over a cold cache does — each publish
a complete file and the last writer wins with identical bytes.

The root defaults to ``$REPRO_TRACE_CACHE`` or ``~/.cache/repro-traces``.
"""

from __future__ import annotations

import json
import mmap
import os
import time
from pathlib import Path
from typing import Optional, Union

from repro.core.swf.parser import parse_swf_text
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


def _mapped_text(path: Path) -> str:
    """The file's bytes decoded via a read-only memory map.

    ``mmap`` cannot map an empty file, so zero bytes decode directly (the
    parser then rejects the contents the same way either path would).
    """
    with open(path, "rb") as handle:
        if os.fstat(handle.fileno()).st_size == 0:
            return ""
        with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as view:
            return view[:].decode("utf-8")


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
        same trace pays for one resident copy, not one per worker.
        """
        path = self.path_for(digest)
        try:
            workload = parse_swf_text(_mapped_text(path), name=path.stem)
        except (OSError, ValueError):
            return None
        workload.name = name if name is not None else self._cached_name(digest)
        self.hits += 1
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
        older format (or with no readable sidecar at all — e.g. a crash
        between the SWF and sidecar writes) can never be looked up again;
        ``drop_stale`` reclaims those.  ``max_age_days`` additionally evicts
        artifacts whose SWF file is older.  Returns
        :class:`~repro.bench.store.GCStats`; ``dry_run`` only reports.
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
                    raise ValueError("sidecar is not an object")
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
            stats.removed[digest] = reason
            for victim in (path, self.meta_path_for(digest)):
                try:
                    stats.freed_bytes += victim.stat().st_size
                except OSError:
                    continue
                if not dry_run:
                    try:
                        victim.unlink()
                    except OSError:
                        pass
            if not dry_run:
                try:
                    path.parent.rmdir()  # only succeeds when the shard emptied
                except OSError:
                    pass
        return stats
