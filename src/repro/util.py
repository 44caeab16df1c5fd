"""Small shared utilities: content-store roots, atomic writes, gc sweeps,
canonical hashing, path specs, lazy exports.

These used to be re-implemented privately by the benchmark store, the trace
cache, the work queue, the runner and the lazy package ``__init__`` files;
one copy each means a future fix (fsync discipline, a new trace extension)
lands everywhere at once.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "default_root",
    "atomic_write",
    "GCStats",
    "gc_sweep",
    "canonical_hash",
    "looks_like_swf_path",
    "lazy_exports",
]


def default_root(env_var: str, name: str) -> Path:
    """``$<env_var>`` if set, else ``~/.cache/<name>``: where a content store lives."""
    override = os.environ.get(env_var)
    if override:
        return Path(override)
    return Path.home() / ".cache" / name


def atomic_write(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (same-dir temp + ``os.replace``).

    The temp name is unique per writer, not per target, so two processes
    racing on one path each publish a complete file — last replace wins —
    instead of interleaving writes; a failure cleans up the temp file and
    leaves any existing target untouched.

    The parent directory is created as needed.  A concurrent ``gc`` removes
    the shard directories it empties, so the directory can vanish between
    its creation and the temp file's; the write then retries once.  Once the
    temp file exists the directory is not empty, and ``gc`` leaves it.
    """
    path = Path(path)
    for retry in (False, True):
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem[:8], suffix=".tmp")
            break
        except FileNotFoundError:
            if retry:
                raise
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class GCStats:
    """What one garbage-collection pass over a content store did.

    Shared by the benchmark result store and the trace cache (both grow
    without bound otherwise); ``removed`` maps each evicted key to the
    reason it went (``stale``, ``expired``, ``corrupt``, ``orphan``).
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


def gc_sweep(
    stats: GCStats,
    paths: Iterable[Path],
    reason: Callable[[Path], Optional[str]],
    files: Callable[[Path], Sequence[Path]],
    max_age_days: Optional[float] = None,
) -> GCStats:
    """Evict the store entries at ``paths``, recording what went in ``stats``.

    Each path is one entry's file of record, named ``<key>.<ext>`` inside a
    shard directory.  ``reason(path)`` says why the entry goes (``None``
    keeps it); a kept entry whose file is older than ``max_age_days`` goes
    as ``expired``.  An evicted entry takes every file in ``files(path)``
    with it, and their sizes count as freed.  ``stats.dry_run`` only
    records.  Shard directories the sweep empties are removed.
    """
    cutoff = time.time() - max_age_days * 86400.0 if max_age_days is not None else None
    shards = set()
    for path in paths:
        stats.scanned += 1
        why = reason(path)
        if why is None and cutoff is not None:
            try:
                if path.stat().st_mtime < cutoff:
                    why = "expired"
            except OSError:
                why = "corrupt"
        if why is None:
            stats.kept += 1
            continue
        stats.removed[path.stem] = why
        for victim in files(path):
            try:
                stats.freed_bytes += victim.stat().st_size
            except OSError:
                continue
            if not stats.dry_run:
                try:
                    victim.unlink()
                except OSError:
                    pass
        shards.add(path.parent)
    if not stats.dry_run:
        for shard in shards:
            try:
                shard.rmdir()  # only succeeds when the shard emptied
            except OSError:
                pass
    return stats


def canonical_hash(material: Dict[str, Any]) -> str:
    """sha256 hex digest of the canonical JSON form of ``material``.

    Canonical means sorted keys and minimal separators, so the digest
    depends only on content — never on dict insertion order, whitespace, or
    ``PYTHONHASHSEED``.  Both the benchmark store keys and the trace digests
    are this hash over their respective identity material.
    """
    text = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def looks_like_swf_path(spec: str) -> bool:
    """Whether a workload spec token denotes an SWF file path.

    The one heuristic shared by the scenario runner and the trace catalog —
    they must always classify a spec the same way, or a workload could be
    content-addressed by one layer and name-resolved by the other.
    """
    return (
        "/" in spec
        or "\\" in spec
        or spec.endswith(".swf")
        or spec.endswith(".swf.gz")
    )


def lazy_exports(
    package: str, modules: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` of a package whose names load lazily.

    ``modules`` maps each submodule of ``package`` to the names it exports.
    A name is imported from its submodule on first access (PEP 562), so
    low-level modules can import the package without an import cycle.
    """
    owners = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in owners:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{package}.{owners[name]}"), name)

    def __dir__() -> List[str]:
        return sorted(owners)

    return list(owners), __getattr__, __dir__
