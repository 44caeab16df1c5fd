"""The outage log: a collection of outage records with standard-format I/O.

The paper proposes that "a standard format for outage data should be created
to compliment the scheduling workload traces".  We adopt the same syntactic
conventions as the SWF itself: ``;`` comments, one record per line,
space-separated fields, ``-1`` for unknown values.  The fields, in order, are

``record_number announced_time start_time end_time type_code nodes_affected components...``

where ``type_code`` indexes :data:`TYPE_CODES` and ``components`` is either
``-1`` (unspecified) or ``nodes_affected`` node numbers.
"""

from __future__ import annotations

import io
import os
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.outage.records import OutageRecord, OutageType

__all__ = ["OutageLog", "TYPE_CODES", "parse_outage_log", "write_outage_log"]

#: Stable numeric codes for outage types in the on-disk format.
TYPE_CODES: Tuple[OutageType, ...] = (
    OutageType.CPU_FAILURE,      # 0
    OutageType.NETWORK_FAILURE,  # 1
    OutageType.DISK_FAILURE,     # 2
    OutageType.FACILITY,         # 3
    OutageType.MAINTENANCE,      # 4
    OutageType.DEDICATED_TIME,   # 5
)


class OutageLog:
    """Ordered collection of :class:`OutageRecord`, sorted by start time."""

    def __init__(self, records: Optional[Iterable[OutageRecord]] = None, name: str = "outages") -> None:
        self._records: List[OutageRecord] = sorted(records or [], key=lambda r: r.start_time)
        self.name = name

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[OutageRecord]:
        return iter(self._records)

    def __getitem__(self, index):
        return self._records[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, OutageLog):
            return NotImplemented
        return self._records == other._records

    @property
    def records(self) -> List[OutageRecord]:
        return list(self._records)

    def add(self, record: OutageRecord) -> None:
        """Insert a record, keeping the log sorted by start time."""
        self._records.append(record)
        self._records.sort(key=lambda r: r.start_time)

    def total_node_downtime(self) -> int:
        """Sum over records of duration x nodes affected (node-seconds lost)."""
        return sum(r.duration * r.nodes_affected for r in self._records)

    def scheduled(self) -> "OutageLog":
        """Only the scheduled (human-generated) outages."""
        return OutageLog([r for r in self._records if r.outage_type.is_scheduled], name=self.name)

    def unscheduled(self) -> "OutageLog":
        """Only the failures (unscheduled outages)."""
        return OutageLog(
            [r for r in self._records if not r.outage_type.is_scheduled], name=self.name
        )


# ----------------------------------------------------------------------
# on-disk format
# ----------------------------------------------------------------------
def _format_record(index: int, record: OutageRecord) -> str:
    type_code = TYPE_CODES.index(record.outage_type)
    components = (
        " ".join(str(c) for c in record.components) if record.components else "-1"
    )
    return (
        f"{index} {record.announced_time} {record.start_time} {record.end_time} "
        f"{type_code} {record.nodes_affected} {components}"
    )


def write_outage_log_text(log: OutageLog) -> str:
    """Render an outage log in the standard text format."""
    lines = [
        "; Outage log in the standard format proposed by Chapin et al. (JSSPP 1999), Section 2.2",
        "; Fields: record announced_time start_time end_time type_code nodes_affected components...",
        "; Type codes: " + ", ".join(f"{i}={t.value}" for i, t in enumerate(TYPE_CODES)),
    ]
    for index, record in enumerate(log, start=1):
        lines.append(_format_record(index, record))
    return "\n".join(lines) + "\n"


def write_outage_log(log: OutageLog, path: Union[str, os.PathLike]) -> None:
    """Write an outage log to disk."""
    path = os.fspath(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_outage_log_text(log))


def parse_outage_log_text(text: str, name: str = "outages") -> OutageLog:
    """Parse an outage log from its standard text format."""
    records: List[OutageRecord] = []
    for line_number, raw in enumerate(io.StringIO(text), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(";"):
            continue
        tokens = stripped.split()
        if len(tokens) < 6:
            raise ValueError(f"line {line_number}: an outage record has at least 6 fields")
        try:
            announced, start, end = int(tokens[1]), int(tokens[2]), int(tokens[3])
            type_code, nodes = int(tokens[4]), int(tokens[5])
        except ValueError as exc:
            raise ValueError(f"line {line_number}: non-integer field") from exc
        if not 0 <= type_code < len(TYPE_CODES):
            raise ValueError(f"line {line_number}: unknown outage type code {type_code}")
        component_tokens = tokens[6:]
        if component_tokens == ["-1"] or not component_tokens:
            components: Tuple[int, ...] = ()
        else:
            components = tuple(int(t) for t in component_tokens)
        records.append(
            OutageRecord(
                announced_time=announced,
                start_time=start,
                end_time=end,
                outage_type=TYPE_CODES[type_code],
                nodes_affected=nodes,
                components=components,
            )
        )
    return OutageLog(records, name=name)


def parse_outage_log(path: Union[str, os.PathLike]) -> OutageLog:
    """Parse an outage log file from disk."""
    path = os.fspath(path)
    name = os.path.splitext(os.path.basename(path))[0]
    with open(path, "r", encoding="utf-8") as handle:
        return parse_outage_log_text(handle.read(), name=name)
