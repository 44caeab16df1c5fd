"""Aligned text tables for the CLI and the experiment reports."""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

__all__ = ["format_table"]


def format_table(rows: Iterable[Mapping[str, object]], columns: Optional[Sequence[str]] = None) -> str:
    """Render a list of flat dictionaries as an aligned text table.

    Used by the experiment harnesses to print the series each benchmark
    regenerates; keeping it here avoids every experiment re-implementing the
    same formatting.
    """
    rows = [dict(r) for r in rows]
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {c: len(str(c)) for c in columns}
    for row in rows:
        for c in columns:
            widths[c] = max(widths[c], len(str(row.get(c, ""))))
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    separator = "  ".join("-" * widths[c] for c in columns)
    body = [
        "  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns) for row in rows
    ]
    return "\n".join([header, separator] + body)
