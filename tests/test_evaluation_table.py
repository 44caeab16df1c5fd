"""Tests for the aligned text-table formatter."""

from __future__ import annotations

from repro.evaluation import format_table


class TestFormatTable:
    def test_alignment_and_content(self):
        rows = [
            {"name": "fcfs", "wait": 10.5},
            {"name": "easy-backfill", "wait": 3.25},
        ]
        table = format_table(rows)
        lines = table.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert "easy-backfill" in table
        assert lines[0].startswith("name")

    def test_explicit_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        table = format_table(rows, columns=["b"])
        assert "a" not in table.splitlines()[0]

    def test_empty_table(self):
        assert format_table([]) == "(empty table)"

    def test_missing_cells_render_blank(self):
        table = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "3" in table
