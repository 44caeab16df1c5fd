"""The outage-log standard (Section 2.2) and supporting tools.

* :class:`OutageRecord` / :class:`OutageType` — the six proposed fields,
* :class:`OutageLog` with :func:`parse_outage_log` / :func:`write_outage_log`
  — a text format keyed to the workload trace,
* :func:`generate_outages` — synthetic failure + maintenance process.

Schedulers and utilization metrics see an outage log as capacity over time
through :class:`repro.schedulers.freespace.FreeSpace`, the same step
function that backs the free-processor profiles.
"""

from repro.core.outage.records import OutageRecord, OutageType
from repro.core.outage.log import (
    TYPE_CODES,
    OutageLog,
    parse_outage_log,
    parse_outage_log_text,
    write_outage_log,
    write_outage_log_text,
)
from repro.core.outage.generator import OutageModel, generate_outages

__all__ = [
    "OutageRecord",
    "OutageType",
    "TYPE_CODES",
    "OutageLog",
    "parse_outage_log",
    "parse_outage_log_text",
    "write_outage_log",
    "write_outage_log_text",
    "OutageModel",
    "generate_outages",
]
