"""Small shared utilities: atomic writes, canonical hashing, path specs, lazy exports.

These used to be re-implemented privately by the benchmark store, the trace
cache, the runner and the lazy package ``__init__`` files; one copy each means a future fix (fsync discipline, a
new trace extension) lands everywhere at once.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple, Union

__all__ = ["atomic_write", "canonical_hash", "looks_like_swf_path", "lazy_exports"]


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
