"""repro.obs — zero-dependency observability: metrics, logs, profiles.

Six small modules, one purpose — make every layer of the pipeline
measurable without adding a dependency:

* :mod:`repro.obs.telemetry` — a :class:`Telemetry` registry of labelled
  counters / gauges / fixed-bucket histograms for the serve daemon.  A
  simulation's counters are a plain dict its driver owns.
* :mod:`repro.obs.prometheus` — text exposition (format 0.0.4) for the
  serve daemon's ``GET /v1/metrics``.
* :mod:`repro.obs.log` — structured ``key=value`` (or JSON-lines) logging
  behind ``repro --log-level`` / ``--log-format`` / ``REPRO_LOG``.
* :mod:`repro.obs.profile` — cProfile hotspot tables for ``repro profile``.
* :mod:`repro.obs.trace` — hierarchical span timelines with Chrome
  trace-event export (``repro bench run --trace``).
* :mod:`repro.obs.journal` — the serve daemon's append-only job journal.
"""

from .journal import JobJournal, JournalReplay, replay as replay_journal
from .log import (
    configure as configure_logging,
    get_logger,
    resolve_format,
    resolve_level,
)
from .profile import Hotspot, ProfileRun, hotspot_table, profile_call
from .trace import (
    Tracer,
    TraceSpan,
    chrome_trace,
    chrome_trace_text,
    current_span_id,
    current_tracer,
    trace_scope,
    trace_span,
    write_chrome_trace,
)
from .prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE, render as render_prometheus
from .telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    Telemetry,
    TelemetryError,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "Telemetry",
    "TelemetryError",
    "PROMETHEUS_CONTENT_TYPE",
    "render_prometheus",
    "configure_logging",
    "get_logger",
    "resolve_format",
    "resolve_level",
    "Hotspot",
    "ProfileRun",
    "hotspot_table",
    "profile_call",
    "Tracer",
    "TraceSpan",
    "chrome_trace",
    "chrome_trace_text",
    "current_span_id",
    "current_tracer",
    "trace_scope",
    "trace_span",
    "write_chrome_trace",
    "JobJournal",
    "JournalReplay",
    "replay_journal",
]
