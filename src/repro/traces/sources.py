"""Where a trace's bytes come from: archives, SWF files, workload models.

A :class:`TraceSource` is the base of a :class:`~repro.traces.trace.Trace`
pipeline, and the only code that turns a workload spec into a base
:class:`Workload`: :func:`repro.api.runner.resolve_workload` builds one for
plain model, archive and SWF-path specs too.  Every source must be
*content-stable*: the same source identity must always materialize to the
same canonical SWF bytes, because the trace digest — the key of the on-disk
cache and of benchmark-store entries — is derived from that identity.

* :class:`ArchiveSource` — a synthetic Parallel-Workloads-Archive stand-in
  (:mod:`repro.data.archives`); deterministic per ``(key, jobs, seed)``.
* :class:`SwfFileSource` — an SWF file on disk.  Its identity embeds the
  sha256 of the file's **canonical** bytes (parse → canonical serialization),
  so the digest tracks trace *content*: editing the file changes the digest
  (and forces benchmark cache misses), while alignment whitespace and
  newline conventions do not.
* :class:`ModelSource` — a registered workload model.  The catalog
  canonicalizes a ``None`` seed to 0 rather than drawing entropy: a trace is
  a pinned artifact, which is exactly what distinguishes ``trace:lublin99``
  from the plain ``lublin99`` model spec, whose unseeded source draws fresh.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.swf.workload import Workload

__all__ = [
    "TraceSource",
    "ArchiveSource",
    "SwfFileSource",
    "ModelSource",
    "file_content_digest",
]

#: In-process memo of file content digests, keyed by (realpath, mtime_ns,
#: size) so an edited file is always re-hashed but repeated digest lookups
#: (benchmark suites compute one per replication) parse the file only once.
_FILE_DIGEST_MEMO: Dict[Tuple[str, int, int], str] = {}


def file_content_digest(path: str) -> str:
    """sha256 hex digest of the canonical bytes of the SWF file at ``path``."""
    from repro.core.swf.parser import parse_swf
    from repro.core.swf.writer import canonical_swf_bytes

    real = os.path.realpath(path)
    stat = os.stat(real)
    memo_key = (real, stat.st_mtime_ns, stat.st_size)
    cached = _FILE_DIGEST_MEMO.get(memo_key)
    if cached is not None:
        return cached
    digest = hashlib.sha256(canonical_swf_bytes(parse_swf(path))).hexdigest()
    _FILE_DIGEST_MEMO[memo_key] = digest
    return digest


class TraceSource:
    """Base class of trace sources (frozen dataclasses)."""

    #: source kind tag used in identities
    kind: str = "source"

    @property
    def label(self) -> str:  # pragma: no cover - abstract
        """Short human name used as the workload/trace name."""
        raise NotImplementedError

    def identity(self, include_seed: bool = True) -> Dict[str, Any]:  # pragma: no cover
        """Canonical JSON-serializable identity hashed into the digest.

        ``include_seed=False`` drops seed-valued parameters; the trace layer
        uses that reduced identity to group *replication families* — traces
        that differ only in generation seed — for benchmark aggregation.
        """
        raise NotImplementedError

    def materialize(self) -> Workload:  # pragma: no cover - abstract
        """Generate or load the base workload."""
        raise NotImplementedError

    def spec_token(self) -> Tuple[str, Dict[str, str]]:  # pragma: no cover - abstract
        """``(name_token, params)`` rendering for the spec grammar."""
        raise NotImplementedError


@dataclass(frozen=True)
class ArchiveSource(TraceSource):
    """One of the synthetic archive traces, content-pinned by (key, jobs, seed)."""

    key: str
    jobs: int = 5000
    seed: int = 0
    kind = "archive"

    def __post_init__(self) -> None:
        from repro.data.archives import ARCHIVES

        if self.key not in ARCHIVES:
            raise KeyError(
                f"unknown archive {self.key!r}; available: {sorted(ARCHIVES)}"
            )
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    @property
    def label(self) -> str:
        return self.key

    def identity(self, include_seed: bool = True) -> Dict[str, Any]:
        identity: Dict[str, Any] = {
            "kind": self.kind,
            "key": self.key,
            "jobs": self.jobs,
        }
        if include_seed:
            identity["seed"] = self.seed
        return identity

    def materialize(self) -> Workload:
        from repro.data.archives import synthetic_archive

        return synthetic_archive(self.key, jobs=self.jobs, seed=self.seed)

    def spec_token(self) -> Tuple[str, Dict[str, str]]:
        return self.key, {"jobs": str(self.jobs), "seed": str(self.seed)}


@dataclass(frozen=True)
class SwfFileSource(TraceSource):
    """An SWF trace on disk, content-addressed by its canonical bytes.

    The digest is computed from the parsed-and-canonicalized file, captured
    at construction: a :class:`~repro.traces.trace.Trace` handle therefore
    pins the content it was built against, and rebuilding the handle after
    the file changed yields a different digest (never a stale cache hit).
    """

    path: str
    #: sha256 of the canonical file bytes; computed at construction when not
    #: provided, so equal handles imply equal content.
    content: str = ""

    kind = "swf"

    def __post_init__(self) -> None:
        if not self.content:
            object.__setattr__(self, "content", file_content_digest(self.path))

    @property
    def label(self) -> str:
        base = os.path.basename(self.path)
        return base[: -len(".swf")] if base.endswith(".swf") else base

    def identity(self, include_seed: bool = True) -> Dict[str, Any]:
        # Deliberately path-free: two copies of one trace share a digest,
        # and renaming a file cannot poison the cache.
        return {"kind": self.kind, "content": self.content}

    def materialize(self) -> Workload:
        from repro.core.swf.parser import parse_swf

        current = file_content_digest(self.path)
        if current != self.content:
            raise ValueError(
                f"trace file {self.path!r} changed since this handle was "
                f"built (content {current[:12]} != pinned {self.content[:12]}); "
                "rebuild the Trace to adopt the new content"
            )
        return parse_swf(self.path)

    def spec_token(self) -> Tuple[str, Dict[str, str]]:
        return self.path, {}


@dataclass(frozen=True)
class ModelSource(TraceSource):
    """A registered workload model, content-pinned by (name, kwargs, jobs, seed)."""

    name: str
    jobs: int = 2000
    seed: int = 0
    machine_size: Optional[int] = None
    #: extra model-constructor kwargs, sorted for canonical identity
    params: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)

    kind = "model"

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    @property
    def label(self) -> str:
        return self.name

    def identity(self, include_seed: bool = True) -> Dict[str, Any]:
        identity: Dict[str, Any] = {
            "kind": self.kind,
            "name": self.name,
            "jobs": self.jobs,
            "machine_size": self.machine_size,
            "params": [list(pair) for pair in self.params],
        }
        if include_seed:
            identity["seed"] = self.seed
        return identity

    def materialize(self) -> Workload:
        from repro.api.registry import model_registry

        kwargs = dict(self.params)
        if self.machine_size is not None:
            kwargs.setdefault("machine_size", self.machine_size)
        model = model_registry.get(self.name)(**kwargs)
        return model.generate(self.jobs, seed=self.seed)

    def spec_token(self) -> Tuple[str, Dict[str, str]]:
        params = {"jobs": str(self.jobs), "seed": str(self.seed)}
        if self.machine_size is not None:
            params["machine_size"] = str(self.machine_size)
        params.update({key: str(value) for key, value in self.params})
        return self.name, params
