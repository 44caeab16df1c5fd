"""First-class traces: content-addressed handles, transforms, catalog, cache.

The paper's methodology (Section 2.1) anchors evaluation to production
workload logs; this package gives those logs — and their synthetic stand-ins
— the same standing as registered models:

* :mod:`repro.traces.trace`      — the :class:`Trace` handle: source +
  transformation pipeline, sha256 content digest, lazy materialization;
* :mod:`repro.traces.sources`    — archive / SWF-file / model sources, each
  content-stable so digests are true content addresses;
* :mod:`repro.traces.transforms` — the seed-deterministic pipeline: load
  scaling, time-window slicing, field filters, bootstrap resampling,
  machine rescaling;
* :mod:`repro.traces.catalog`    — the trace registry and the one-line
  ``trace:ctc-sp2,load=1.2,slice=0:7d`` spec grammar used by Scenario,
  ``run()``, benchmark suites, and the CLI;
* :mod:`repro.traces.cache`      — the on-disk materialization cache
  (``$REPRO_TRACE_CACHE``), keyed by digest, canonical SWF bytes.

Attributes load lazily (PEP 562, same idiom as :mod:`repro.api`).
"""

from __future__ import annotations

from repro.util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "trace": ("Trace", "TRACE_FORMAT"),
        "sources": (
            "TraceSource",
            "ArchiveSource",
            "SwfFileSource",
            "ModelSource",
            "file_content_digest",
        ),
        "transforms": (
            "TraceTransform",
            "ScaleToLoad",
            "ScaleRate",
            "TimeSlice",
            "FieldFilter",
            "Resample",
            "RescaleMachine",
            "Head",
            "parse_duration",
            "format_duration",
        ),
        "catalog": (
            "trace_registry",
            "register_trace",
            "trace_names",
            "split_trace_spec",
            "trace_from_spec",
            "trace_for_scenario",
            "TRACE_SPEC_PREFIX",
        ),
        "cache": ("TraceCache", "CACHE_ENV_VAR", "default_cache_root"),
    },
)
