"""Unit tests for the outage-record standard, log I/O, and generator."""

from __future__ import annotations

import pytest

from repro.core.outage import (
    OutageLog,
    OutageModel,
    OutageRecord,
    OutageType,
    generate_outages,
    parse_outage_log,
    parse_outage_log_text,
    write_outage_log,
    write_outage_log_text,
)


def record(start=100, end=200, announced=None, nodes=2, outage_type=OutageType.CPU_FAILURE, components=()):
    return OutageRecord(
        announced_time=start if announced is None else announced,
        start_time=start,
        end_time=end,
        outage_type=outage_type,
        nodes_affected=nodes,
        components=tuple(components),
    )


class TestOutageRecord:
    def test_basic_fields_and_duration(self):
        r = record(start=100, end=400, announced=50)
        assert r.duration == 300
        assert r.advance_notice == 50
        assert r.is_announced

    def test_unannounced_failure_has_no_notice(self):
        r = record(start=100, end=200)
        assert r.advance_notice == 0
        assert not r.is_announced

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            record(start=200, end=100)

    def test_announced_after_start_rejected(self):
        with pytest.raises(ValueError):
            record(start=100, end=200, announced=150)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            record(nodes=0)

    def test_component_count_must_match(self):
        with pytest.raises(ValueError):
            record(nodes=2, components=(1, 2, 3))

    def test_scheduled_types(self):
        assert OutageType.MAINTENANCE.is_scheduled
        assert OutageType.DEDICATED_TIME.is_scheduled
        assert not OutageType.CPU_FAILURE.is_scheduled


class TestOutageLog:
    def test_sorted_by_start_time(self):
        log = OutageLog([record(start=500, end=600), record(start=100, end=200)])
        assert [r.start_time for r in log] == [100, 500]

    def test_add_keeps_order(self):
        log = OutageLog([record(start=500, end=600)])
        log.add(record(start=100, end=200))
        assert log[0].start_time == 100

    def test_total_node_downtime(self):
        log = OutageLog([record(start=0, end=100, nodes=2), record(start=0, end=50, nodes=4)])
        assert log.total_node_downtime() == 2 * 100 + 4 * 50

    def test_scheduled_unscheduled_split(self):
        log = OutageLog(
            [record(outage_type=OutageType.MAINTENANCE), record(outage_type=OutageType.CPU_FAILURE)]
        )
        assert len(log.scheduled()) == 1
        assert len(log.unscheduled()) == 1


class TestOutageLogIO:
    def test_round_trip_text(self):
        log = OutageLog(
            [
                record(start=100, end=200, announced=50, nodes=2, components=(3, 7)),
                record(start=500, end=900, outage_type=OutageType.MAINTENANCE, nodes=4),
            ]
        )
        text = write_outage_log_text(log)
        parsed = parse_outage_log_text(text)
        assert parsed == log

    def test_round_trip_file(self, tmp_path):
        log = OutageLog([record()])
        path = tmp_path / "outages.txt"
        write_outage_log(log, path)
        assert parse_outage_log(path) == log

    def test_comment_lines_ignored(self):
        assert len(parse_outage_log_text("; just a comment\n")) == 0

    def test_unknown_type_code_rejected(self):
        with pytest.raises(ValueError):
            parse_outage_log_text("1 0 0 10 99 1 -1\n")

    def test_short_record_rejected(self):
        with pytest.raises(ValueError):
            parse_outage_log_text("1 0 0 10\n")


class TestGenerator:
    def test_reproducible_with_seed(self):
        a = generate_outages(128, 30 * 24 * 3600, seed=1)
        b = generate_outages(128, 30 * 24 * 3600, seed=1)
        assert a == b

    def test_failures_and_maintenance_present(self):
        log = generate_outages(128, 90 * 24 * 3600, seed=2)
        assert len(log.unscheduled()) > 0
        assert len(log.scheduled()) > 0

    def test_maintenance_is_announced_in_advance(self):
        log = generate_outages(64, 60 * 24 * 3600, seed=3)
        for r in log.scheduled():
            assert r.advance_notice > 0

    def test_failures_respect_node_limit(self):
        model = OutageModel(max_nodes_per_failure=2, maintenance_interval_seconds=0)
        log = generate_outages(32, 120 * 24 * 3600, model=model, seed=4)
        assert all(r.nodes_affected <= 2 for r in log)

    def test_all_outages_within_horizon(self):
        horizon = 30 * 24 * 3600
        log = generate_outages(64, horizon, seed=5)
        assert all(r.start_time < horizon for r in log)

    def test_zero_horizon_gives_empty_log(self):
        assert len(generate_outages(64, 0, seed=6)) == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            generate_outages(0, 1000)
        with pytest.raises(ValueError):
            OutageModel(mtbf_seconds=-1)
        with pytest.raises(ValueError):
            OutageModel(maintenance_fraction=0.0)
