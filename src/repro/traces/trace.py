"""The :class:`Trace` handle: a content-addressed, lazily materialized workload.

A trace is ``source + transformation pipeline``, both canonical and
JSON-serializable, hashed into one sha256 **digest**:

    digest = sha256({"format": TRACE_FORMAT,
                     "source": source.identity(),
                     "transforms": [t.identity(), ...]})

Because every source is content-stable (see :mod:`repro.traces.sources`) and
every transform is deterministic (see :mod:`repro.traces.transforms`), the
digest is a true content address for the materialized SWF bytes: equal
digests ⇒ byte-identical canonical traces, across processes and machines.
That is what lets

* :meth:`Trace.materialize` cache built traces on disk
  (``$REPRO_TRACE_CACHE``) and reuse them safely,
* the benchmark store key replications by trace *content* rather than by a
  path string that may point at changed bytes,
* experiments name a workload as a one-line ``trace:`` spec and trust that
  two runs of the spec saw the same jobs.

The ``family_digest`` drops seed-valued source parameters: traces that
differ only in generation seed are *replications of one family*, which is
the grouping benchmark aggregation needs (mean ± CI over seeds is
meaningful inside a family and meaningless across families).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.core.swf.workload import Workload
from repro.traces.cache import TraceCache
from repro.traces.sources import TraceSource
from repro.util import canonical_hash
from repro.traces.transforms import (
    FieldFilter,
    Head,
    Resample,
    ScaleRate,
    ScaleToLoad,
    TimeSlice,
    TraceTransform,
)

__all__ = ["Trace", "TRACE_FORMAT"]

#: Digest-format version: bump when source/transform semantics change in a
#: way that invalidates previously cached materializations.
TRACE_FORMAT = "trace-v1"


@dataclass(frozen=True)
class Trace:
    """A workload source plus an ordered transformation pipeline."""

    source: TraceSource
    transforms: Tuple[TraceTransform, ...] = ()

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def identity(self, include_seed: bool = True) -> Dict[str, Any]:
        """The canonical digest material (JSON-serializable)."""
        return {
            "format": TRACE_FORMAT,
            "source": self.source.identity(include_seed=include_seed),
            "transforms": [t.identity() for t in self.transforms],
        }

    @property
    def digest(self) -> str:
        """sha256 content address of the materialized canonical trace."""
        return canonical_hash(self.identity())

    @property
    def family_digest(self) -> str:
        """Digest of the replication family: identity minus source seeds."""
        return canonical_hash(self.identity(include_seed=False))

    @property
    def name(self) -> str:
        """Readable label: the source plus the pipeline's spec fragments."""
        suffix = "".join(
            f",{key}={value}" for t in self.transforms for key, value in t.spec_items()
        )
        return f"{self.source.label}{suffix}"

    @property
    def spec(self) -> str:
        """The exact ``trace:`` spec string this handle round-trips through."""
        token, params = self.source.spec_token()
        parts = [token]
        parts.extend(f"{key}={value}" for key, value in params.items())
        for t in self.transforms:
            parts.extend(f"{key}={value}" for key, value in t.spec_items())
        return "trace:" + ",".join(parts)

    def __str__(self) -> str:
        return self.spec

    # ------------------------------------------------------------------
    # pipeline construction
    # ------------------------------------------------------------------
    def with_transform(self, transform: TraceTransform) -> "Trace":
        """A new handle with ``transform`` appended to the pipeline."""
        return replace(self, transforms=self.transforms + (transform,))

    def scale_to_load(self, target: float) -> "Trace":
        """Rescale interarrivals to an absolute offered load (``load=``)."""
        return self.with_transform(ScaleToLoad(target=float(target)))

    def scale(self, factor: float) -> "Trace":
        """Multiply the arrival rate by ``factor`` (``scale=``)."""
        return self.with_transform(ScaleRate(factor=float(factor)))

    def slice_window(self, start: int = 0, end: Optional[int] = None) -> "Trace":
        """Keep jobs submitted in ``[start, end)`` seconds (``slice=``)."""
        return self.with_transform(TimeSlice(start=int(start), end=end))

    def filter_field(self, key: str, value: int) -> "Trace":
        """Apply one field filter (``min_size=``, ``max_runtime=``, ...)."""
        return self.with_transform(FieldFilter(key=key, value=int(value)))

    def sample(self, jobs: int, seed: int = 0) -> "Trace":
        """Bootstrap-resample ``jobs`` jobs with replacement (``sample=``)."""
        return self.with_transform(Resample(jobs=int(jobs), seed=int(seed)))

    def head(self, jobs: int) -> "Trace":
        """Keep the first ``jobs`` jobs (``head=``)."""
        return self.with_transform(Head(jobs=int(jobs)))

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def build(self) -> Workload:
        """Materialize without touching any cache: source, then pipeline."""
        workload = self.source.materialize()
        for transform in self.transforms:
            workload = transform.apply(workload)
        workload.name = self.name
        return workload

    def materialize(
        self,
        cache: Optional[TraceCache] = None,
        use_cache: bool = True,
    ) -> Workload:
        """The materialized workload, served from the on-disk cache when possible.

        ``cache=None`` uses the default cache (``$REPRO_TRACE_CACHE`` or
        ``~/.cache/repro-traces``); ``use_cache=False`` builds fresh and
        leaves the cache untouched.  A hit serves the cached canonical SWF
        file: loaded from its fields sidecar when one matches the file's
        bytes, else parsed (which rewrites the sidecar).  The round-trip
        property guarantees either equals the freshly built workload
        job-for-job — so cached and uncached runs simulate identically.
        """
        if not use_cache:
            return self.build()
        if cache is None:
            cache = TraceCache()
        hit = cache.get(self.digest, name=self.name)
        if hit is not None:
            return hit
        workload = self.build()
        cache.put(self.digest, workload, spec=self.spec)
        return workload
