"""Parser/writer tests, including the property-based round-trip guarantee."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.swf import (
    MISSING,
    SWFJob,
    SWFParseError,
    Workload,
    parse_swf,
    parse_swf_text,
    write_swf,
    write_swf_text,
)
from repro.core.swf.parser import parse_swf_stream
from repro.core.swf.writer import format_job_line
from tests.conftest import make_job, make_workload

SAMPLE = """\
; Version: 2
; Computer: Test MPP
; MaxNodes: 64
; Note: tiny example
;
1 0 10 100 8 90 1024 8 200 2048 1 1 1 1 1 1 -1 -1
2 50 0 60 16 55 512 16 120 1024 1 2 1 2 1 1 -1 -1
3 80 5 30 4 25 256 4 60 512 0 1 1 1 0 1 1 20
"""


class TestParsing:
    def test_parse_sample(self):
        workload = parse_swf_text(SAMPLE, name="sample")
        assert len(workload) == 3
        assert workload.header.max_nodes == 64
        assert workload.header.computer == "Test MPP"
        assert workload[0].run_time == 100
        assert workload[2].preceding_job == 1
        assert workload[2].is_interactive

    def test_job_ids_match_line_numbers(self):
        workload = parse_swf_text(SAMPLE)
        assert [j.job_number for j in workload] == [1, 2, 3]

    def test_comments_and_blank_lines_ignored(self):
        text = "; comment only\n\n" + "1 " + " ".join(["-1"] * 17) + "\n; trailing comment\n"
        workload = parse_swf_text(text)
        assert len(workload) == 1

    def test_wrong_field_count_raises(self):
        with pytest.raises(SWFParseError) as exc:
            parse_swf_text("1 2 3\n")
        assert "line 1" in str(exc.value)

    def test_non_numeric_field_raises(self):
        bad = "1 0 0 abc " + " ".join(["-1"] * 14)
        with pytest.raises(SWFParseError):
            parse_swf_text(bad)

    def test_float_tokens_accepted(self):
        line = "1 0 0 100.0 8 " + " ".join(["-1"] * 13)
        workload = parse_swf_text(line)
        assert workload[0].run_time == 100

    def test_lenient_mode_skips_bad_lines(self):
        import io

        text = SAMPLE + "this is not a job line with 18 fields\n"
        workload, report = parse_swf_stream(io.StringIO(text), strict=False)
        assert len(workload) == 3
        assert len(report.skipped) == 1
        assert report.job_lines == 3

    @pytest.mark.parametrize(
        "token, message",
        [
            ("nan", "non-numeric field value 'nan'"),
            ("inf", "non-finite field value 'inf'"),
            ("-inf", "non-finite field value '-inf'"),
            ("1e400", "non-finite field value '1e400'"),
        ],
    )
    def test_bad_token_names_its_line_in_strict_mode(self, token, message):
        text = SAMPLE + "4 0 0 " + token + " " + " ".join(["-1"] * 14) + "\n"
        with pytest.raises(SWFParseError, match=f"^line 9: {message}$") as exc:
            parse_swf_text(text)
        assert exc.value.line_number == 9

    @pytest.mark.parametrize("token", ["abc", "nan", "inf", "-inf", "1e400"])
    def test_bad_token_line_is_skipped_in_lenient_mode(self, token):
        import io

        text = SAMPLE + "4 0 0 " + token + " " + " ".join(["-1"] * 14) + "\n"
        workload, report = parse_swf_stream(io.StringIO(text), strict=False)
        assert [job.job_number for job in workload] == [1, 2, 3]
        assert report.job_lines == 3
        assert [line for line, _ in report.skipped] == [9]

    def test_header_comments_after_jobs_not_treated_as_header(self):
        text = "1 " + " ".join(["-1"] * 17) + "\n; MaxNodes: 9999\n"
        workload = parse_swf_text(text)
        assert workload.header.max_nodes is None

    def test_parse_file_roundtrip(self, tmp_path, tiny_workload):
        path = tmp_path / "trace.swf"
        write_swf(tiny_workload, path)
        loaded = parse_swf(path)
        assert loaded.jobs == tiny_workload.jobs
        assert loaded.name == "trace"

    def test_parse_file_with_report(self, tmp_path, tiny_workload):
        path = tmp_path / "trace.swf"
        write_swf(tiny_workload, path)
        workload, report = parse_swf(path, with_report=True)
        assert report.job_lines == len(tiny_workload)
        assert report.skipped == []


class TestWriting:
    def test_format_job_line_has_18_fields(self):
        line = format_job_line(make_job(1))
        assert len(line.split()) == 18

    def test_written_header_precedes_jobs(self, tiny_workload):
        text = write_swf_text(tiny_workload)
        lines = text.strip().splitlines()
        job_lines = [l for l in lines if not l.startswith(";")]
        assert len(job_lines) == 4
        assert lines[0].startswith(";")

    def test_aligned_output_parses_identically(self, tiny_workload):
        plain = parse_swf_text(write_swf_text(tiny_workload, align=False))
        aligned = parse_swf_text(write_swf_text(tiny_workload, align=True))
        assert plain.jobs == aligned.jobs

    def test_write_creates_directories(self, tmp_path, tiny_workload):
        path = tmp_path / "nested" / "dir" / "trace.swf"
        write_swf(tiny_workload, path)
        assert path.exists()


# ----------------------------------------------------------------------
# property-based round trip: any valid job survives write -> parse intact
# ----------------------------------------------------------------------
field_value = st.one_of(st.just(MISSING), st.integers(min_value=0, max_value=10**9))


@st.composite
def swf_jobs(draw, number):
    values = [number] + [draw(field_value) for _ in range(17)]
    # Status must be a legal code.
    values[10] = draw(st.sampled_from([-1, 0, 1, 2, 3, 4]))
    return SWFJob.from_fields(values)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_round_trip_preserves_every_field(data):
    count = data.draw(st.integers(min_value=1, max_value=10))
    jobs = [data.draw(swf_jobs(number=i + 1)) for i in range(count)]
    workload = make_workload(jobs)
    reparsed = parse_swf_text(write_swf_text(workload))
    assert reparsed.jobs == workload.jobs
    assert [e.label for e in reparsed.header.entries] == [
        e.label for e in workload.header.entries
    ]
