"""Unit tests for the SWFJob record and its derived quantities."""

from __future__ import annotations

import copy
import io
import pickle

import pytest

from repro.core.swf import (
    FIELD_COUNT,
    FIELD_NAMES,
    MISSING,
    CompletionStatus,
    SWFJob,
    SWFParseError,
    Workload,
    format_job_line,
)
from repro.core.swf.parser import parse_swf_stream
from tests.conftest import make_job

REFERENCE = make_job(7, submit=100, wait=5, runtime=250, processors=16, preceding_job=3, think_time=9)
#: Two job lines, the second a copy of REFERENCE numbered 0.
NUMBERED_ZERO = (
    format_job_line(REFERENCE) + "\n" + " ".join(map(str, [0] + REFERENCE.to_fields()[1:])) + "\n"
)


def _parsed(job: SWFJob) -> SWFJob:
    workload, _ = parse_swf_stream(io.StringIO(format_job_line(job) + "\n"))
    return workload[0]


class TestConstruction:
    def test_defaults_are_missing(self):
        job = SWFJob(job_number=1)
        for name in FIELD_NAMES[1:]:
            assert getattr(job, name) == MISSING

    def test_job_number_must_be_positive(self):
        with pytest.raises(ValueError):
            SWFJob(job_number=0)

    def test_float_fields_coerced_when_integral(self):
        job = SWFJob(job_number=1, run_time=100.0)
        assert job.run_time == 100

    def test_non_integral_float_rejected(self):
        with pytest.raises(ValueError):
            SWFJob(job_number=1, run_time=100.5)

    def test_string_field_rejected(self):
        with pytest.raises(TypeError):
            SWFJob(job_number=1, run_time="fast")

    def test_bool_field_rejected(self):
        with pytest.raises(TypeError):
            SWFJob(job_number=1, status=True)

    def test_from_fields_round_trip(self):
        job = make_job(7, submit=100, runtime=250, processors=16)
        assert SWFJob.from_fields(job.to_fields()) == job

    def test_from_fields_wrong_length(self):
        with pytest.raises(ValueError):
            SWFJob.from_fields([1] * (FIELD_COUNT - 1))

    def test_replace_creates_modified_copy(self):
        job = make_job(1)
        changed = job.replace(run_time=999)
        assert changed.run_time == 999
        assert job.run_time == 100
        assert changed.job_number == job.job_number

    def test_records_are_hashable_and_frozen(self):
        job = make_job(1)
        with pytest.raises(AttributeError):
            job.run_time = 5  # type: ignore[misc]
        assert len({job, make_job(1)}) == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda job: SWFJob(**dict(zip(FIELD_NAMES, job.to_fields()))),
            lambda job: SWFJob(*job.to_fields()),
            lambda job: SWFJob.from_fields(job.to_fields()),
            lambda job: SWFJob._from_trusted_fields(job.to_fields()),
            _parsed,
        ],
        ids=["kwargs", "positional", "from_fields", "trusted", "parsed"],
    )
    def test_every_constructor_builds_the_same_record(self, build):
        job = build(REFERENCE)
        assert type(job) is SWFJob
        assert job == REFERENCE
        assert hash(job) == hash(REFERENCE)
        assert job.to_fields() == REFERENCE.to_fields()

    @pytest.mark.parametrize("name", ["job_number", "think_time", "not_a_field"])
    def test_attributes_cannot_be_assigned(self, name):
        fields = REFERENCE.to_fields()
        with pytest.raises(AttributeError):
            setattr(REFERENCE, name, 5)
        assert REFERENCE.to_fields() == fields

    @pytest.mark.parametrize(
        "changes, error",
        [
            ({"job_number": 0}, ValueError),
            ({"run_time": 1.5}, ValueError),
            ({"status": True}, TypeError),
            ({"user_id": "alice"}, TypeError),
            ({"not_a_field": 1}, TypeError),
        ],
    )
    def test_replace_revalidates(self, changes, error):
        with pytest.raises(error):
            REFERENCE.replace(**changes)

    @pytest.mark.parametrize(
        "round_trip",
        [lambda job: pickle.loads(pickle.dumps(job)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_copies_round_trip(self, round_trip):
        job = round_trip(REFERENCE)
        assert type(job) is SWFJob
        assert job == REFERENCE and hash(job) == hash(REFERENCE)

    def test_repr_names_every_field(self):
        text = repr(REFERENCE)
        assert text.startswith("SWFJob(job_number=7, submit_time=100,")
        assert all(f"{name}=" in text for name in FIELD_NAMES)

    def test_parsed_job_number_must_be_positive(self):
        with pytest.raises(SWFParseError, match="^line 2: job_number must be >= 1, got 0$") as exc:
            parse_swf_stream(io.StringIO(NUMBERED_ZERO), strict=True)
        assert exc.value.line_number == 2

    def test_parsed_job_number_zero_is_skipped_when_lenient(self):
        workload, report = parse_swf_stream(io.StringIO(NUMBERED_ZERO), strict=False)
        assert workload.jobs == [REFERENCE]
        assert report.job_lines == 1
        assert [line for line, _ in report.skipped] == [2]


class TestDerivedTimes:
    def test_start_end_response(self):
        job = make_job(1, submit=100, wait=50, runtime=200)
        assert job.start_time == 150
        assert job.end_time == 350
        assert job.response_time == 250

    def test_unknown_times_propagate_none(self):
        job = SWFJob(job_number=1, submit_time=10)
        assert job.start_time is None
        assert job.end_time is None
        assert job.response_time is None

    def test_slowdown(self):
        job = make_job(1, wait=100, runtime=100)
        assert job.slowdown() == pytest.approx(2.0)

    def test_slowdown_undefined_for_zero_runtime(self):
        job = make_job(1, wait=100, runtime=0)
        assert job.slowdown() is None

    def test_bounded_slowdown_clamps_short_jobs(self):
        job = make_job(1, wait=100, runtime=1)
        assert job.bounded_slowdown(tau=10.0) == pytest.approx(101 / 10)
        # A long job is unaffected by the bound.
        long_job = make_job(2, wait=100, runtime=1000)
        assert long_job.bounded_slowdown(tau=10.0) == pytest.approx(long_job.slowdown())

    def test_bounded_slowdown_never_below_one(self):
        job = make_job(1, wait=0, runtime=5)
        assert job.bounded_slowdown(tau=10.0) == 1.0

    def test_bounded_slowdown_requires_positive_tau(self):
        with pytest.raises(ValueError):
            make_job(1).bounded_slowdown(tau=0)

    def test_area(self):
        job = make_job(1, runtime=100, processors=8)
        assert job.area == 800

    def test_processors_falls_back_to_requested(self):
        job = SWFJob(job_number=1, requested_processors=32)
        assert job.processors == 32


class TestPredicates:
    def test_completion_status_enum(self):
        assert make_job(1, status=1).completion_status is CompletionStatus.COMPLETED
        assert make_job(1, status=0).completion_status is CompletionStatus.KILLED
        assert make_job(1, status=-1).completion_status is CompletionStatus.UNKNOWN

    def test_out_of_range_status_maps_to_unknown(self):
        assert make_job(1, status=9).completion_status is CompletionStatus.UNKNOWN

    def test_summary_vs_partial_lines(self):
        assert make_job(1, status=1).is_summary_line
        assert not make_job(1, status=2).is_summary_line
        assert CompletionStatus.PARTIAL_LAST_KILLED.is_terminal_partial

    @pytest.mark.parametrize("status", range(-5, 11))
    def test_summary_rule_agrees_with_enum_and_columns(self, status):
        job = make_job(1, status=status)
        columns = Workload([job]).columns()
        assert job.is_summary_line == job.completion_status.is_summary
        assert job.is_summary_line == bool(columns.summary_mask()[0])

    def test_interactive_queue_convention(self):
        assert make_job(1, queue_number=0).is_interactive
        assert not make_job(1, queue_number=1).is_interactive

    def test_dependency_predicate(self):
        assert not make_job(1).has_dependency
        assert make_job(2, preceding_job=1, think_time=30).has_dependency

    def test_requested_or_actual_time(self):
        assert make_job(1, runtime=100, requested_time=300).requested_or_actual_time() == 300
        assert make_job(1, runtime=100, requested_time=MISSING).requested_or_actual_time() == 100
