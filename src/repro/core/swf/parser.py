"""Parsing Standard Workload Format files.

The format is line-oriented:

* lines beginning with ``;`` are comments; the leading comment block may
  contain ``;Label: value`` header comments with predefined labels,
* every other non-empty line is a job: whitespace-separated integers, one
  per field, in the standard order, with ``-1`` for unknown values.

Each job line is validated exactly once, here — 18 fields, each an integer
token (or a finite float token, truncated toward zero), and a job number of
at least 1 — and the checked values go straight into an
:class:`~repro.core.swf.records.SWFJob` through its trusted constructor, so
no field is coerced twice on the ingest path every trace replay takes.

The parser is strict by default (a malformed job line raises
:class:`SWFParseError` with the offending line number) but can be run in
``lenient`` mode, in which malformed job lines are collected and skipped —
useful when ingesting historical archive files with known quirks.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field
from typing import List, Optional, TextIO, Tuple, Union

from repro.core.swf.fields import FIELD_COUNT
from repro.core.swf.header import HeaderEntry, SWFHeader
from repro.core.swf.records import SWFJob
from repro.core.swf.workload import Workload

__all__ = ["SWFParseError", "ParseReport", "parse_swf", "parse_swf_text"]


class SWFParseError(ValueError):
    """Raised for malformed SWF input in strict mode."""

    def __init__(self, message: str, line_number: Optional[int] = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


@dataclass
class ParseReport:
    """Summary of a lenient parse: how many lines were kept, skipped, and why."""

    job_lines: int = 0
    comment_lines: int = 0
    blank_lines: int = 0
    skipped: List[Tuple[int, str]] = field(default_factory=list)


def _split_header_comment(text: str) -> Optional[HeaderEntry]:
    """Interpret a comment line as a ``;Label: value`` header entry, if it is one."""
    body = text.lstrip(";").strip()
    if ":" not in body:
        return None
    label, _, value = body.partition(":")
    label = label.strip()
    if not label or " " in label.strip():
        # Header labels are single words (e.g. MaxNodes, StartTime); a colon
        # inside free prose is not a header entry.
        return None
    return HeaderEntry(label=label, value=value.strip())


def _parse_token(token: str, line_number: int) -> int:
    """One field value: an integer token, or a finite float token truncated toward zero."""
    try:
        return int(token)
    except ValueError:
        pass
    # The standard mandates integers; some archive files carry floats (e.g.
    # fractional seconds).  Accept a float token only when it is finite,
    # truncating toward zero, to stay practical while keeping garbage out.
    try:
        return int(float(token))
    except ValueError as exc:
        raise SWFParseError(f"non-numeric field value {token!r}", line_number) from exc
    except OverflowError as exc:
        raise SWFParseError(f"non-finite field value {token!r}", line_number) from exc


def _parse_job_line(tokens: List[str], line_number: int) -> SWFJob:
    """Validate one job line's tokens into a record; the only checks the record gets."""
    if len(tokens) != FIELD_COUNT:
        raise SWFParseError(
            f"expected {FIELD_COUNT} fields, found {len(tokens)}", line_number
        )
    try:
        values = list(map(int, tokens))
    except ValueError:
        values = [_parse_token(token, line_number) for token in tokens]
    if values[0] < 1:
        raise SWFParseError(f"job_number must be >= 1, got {values[0]}", line_number)
    return SWFJob._from_trusted_fields(values)


def parse_swf_stream(
    stream: TextIO,
    name: str = "workload",
    strict: bool = True,
) -> Tuple[Workload, ParseReport]:
    """Parse an open text stream into a :class:`Workload` plus a :class:`ParseReport`.

    Each line is split once: no tokens is a blank line, a first token
    starting with ``;`` a comment, anything else a job line.
    """
    header = SWFHeader()
    jobs: List[SWFJob] = []
    report = ParseReport()
    seen_job = False
    for line_number, raw in enumerate(stream, start=1):
        tokens = raw.split()
        if not tokens:
            report.blank_lines += 1
            continue
        if tokens[0][0] == ";":
            report.comment_lines += 1
            if not seen_job:
                entry = _split_header_comment(raw.strip())
                if entry is not None:
                    header.add(entry.label, entry.value)
            continue
        seen_job = True
        try:
            jobs.append(_parse_job_line(tokens, line_number))
            report.job_lines += 1
        except SWFParseError as exc:
            if strict:
                raise
            report.skipped.append((line_number, str(exc)))
    workload = Workload(jobs=jobs, header=header, name=name)
    return workload, report


def parse_swf_text(
    text: str, name: str = "workload", strict: bool = True
) -> Workload:
    """Parse SWF content given as a string."""
    workload, _ = parse_swf_stream(io.StringIO(text), name=name, strict=strict)
    return workload


def parse_swf(
    path: Union[str, os.PathLike],
    strict: bool = True,
    with_report: bool = False,
):
    """Parse an SWF file from disk.

    Parameters
    ----------
    path:
        File to read.
    strict:
        If true (default) malformed job lines raise :class:`SWFParseError`;
        otherwise they are skipped and recorded in the report.
    with_report:
        If true, return ``(workload, report)`` instead of just the workload.
    """
    path = os.fspath(path)
    name = os.path.splitext(os.path.basename(path))[0]
    with open(path, "r", encoding="utf-8") as handle:
        workload, report = parse_swf_stream(handle, name=name, strict=strict)
    if with_report:
        return workload, report
    return workload
