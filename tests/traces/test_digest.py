"""Tests for trace content digests: stability, sensitivity, content addressing."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.core.swf import canonical_swf_bytes, parse_swf, write_swf, write_swf_text
from repro.data import synthetic_archive
from repro.traces import SwfFileSource, Trace, trace_from_spec

SPEC = "trace:ctc-sp2,jobs=120,seed=2,load=1.1,slice=0:7d"


class TestDigestStability:
    def test_stable_within_a_process(self):
        assert trace_from_spec(SPEC).digest == trace_from_spec(SPEC).digest

    def test_stable_across_processes(self):
        # PYTHONHASHSEED varies between interpreter runs; a digest that
        # leaked `hash()` anywhere would differ here.
        script = (
            "from repro.traces import trace_from_spec;"
            f"print(trace_from_spec({SPEC!r}).digest)"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        assert outputs == {trace_from_spec(SPEC).digest}

    def test_digest_matches_materialized_content(self, tmp_path):
        # Equal digests must mean byte-identical canonical traces.
        a = trace_from_spec(SPEC).build()
        b = trace_from_spec(SPEC).build()
        assert canonical_swf_bytes(a) == canonical_swf_bytes(b)


class TestDigestSensitivity:
    def test_every_ingredient_is_key_material(self):
        base = trace_from_spec(SPEC).digest
        for other in (
            "trace:ctc-sp2,jobs=121,seed=2,load=1.1,slice=0:7d",   # jobs
            "trace:ctc-sp2,jobs=120,seed=3,load=1.1,slice=0:7d",   # seed
            "trace:ctc-sp2,jobs=120,seed=2,load=1.2,slice=0:7d",   # transform param
            "trace:ctc-sp2,jobs=120,seed=2,load=1.1,slice=0:6d",   # other transform
            "trace:ctc-sp2,jobs=120,seed=2,load=1.1",              # pipeline length
            "trace:ctc-sp2,jobs=120,seed=2,slice=0:7d,load=1.1",   # pipeline order
            "trace:nasa-ipsc,jobs=120,seed=2,load=1.1,slice=0:7d",  # source
        ):
            assert trace_from_spec(other).digest != base, other

    def test_family_digest_ignores_only_the_seed(self):
        a = trace_from_spec("trace:ctc-sp2,jobs=120,seed=1")
        b = trace_from_spec("trace:ctc-sp2,jobs=120,seed=2")
        c = trace_from_spec("trace:ctc-sp2,jobs=121,seed=1")
        assert a.digest != b.digest
        assert a.family_digest == b.family_digest
        assert a.family_digest != c.family_digest


class TestFileContentAddressing:
    @pytest.fixture
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.swf"
        write_swf(synthetic_archive("ctc-sp2", jobs=40, seed=1), path)
        return path

    def test_digest_tracks_content_not_path(self, trace_file, tmp_path):
        copy = tmp_path / "renamed.swf"
        copy.write_bytes(trace_file.read_bytes())
        a = Trace(source=SwfFileSource(str(trace_file)))
        b = Trace(source=SwfFileSource(str(copy)))
        assert a.digest == b.digest

    def test_editing_bytes_changes_the_digest(self, trace_file):
        before = Trace(source=SwfFileSource(str(trace_file))).digest
        workload = parse_swf(trace_file)
        edited = workload.copy()
        edited.jobs[0] = edited.jobs[0].replace(run_time=edited.jobs[0].run_time + 1)
        write_swf(edited, trace_file)
        after = Trace(source=SwfFileSource(str(trace_file))).digest
        assert after != before

    def test_alignment_whitespace_is_not_content(self, trace_file, tmp_path):
        aligned = tmp_path / "aligned.swf"
        aligned.write_text(write_swf_text(parse_swf(trace_file), align=True))
        assert (
            Trace(source=SwfFileSource(str(aligned))).digest
            == Trace(source=SwfFileSource(str(trace_file))).digest
        )

    def test_stale_handle_refuses_to_materialize(self, trace_file):
        handle = Trace(source=SwfFileSource(str(trace_file)))
        workload = parse_swf(trace_file)
        edited = workload.copy()
        edited.jobs[0] = edited.jobs[0].replace(run_time=1)
        write_swf(edited, trace_file)
        with pytest.raises(ValueError, match="changed since"):
            handle.build()

    def test_path_spec_is_parsed_once(self, trace_file, monkeypatch):
        # Pinning the content parses the file; materializing hands that
        # parse over instead of reading the file a second time.
        from repro.api import Scenario, resolve_workload
        from repro.core.swf import parser
        from repro.traces import sources

        calls = []
        original = parser.parse_swf_stream

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_swf_stream", counting)
        monkeypatch.setattr(sources, "_FILE_DIGEST_MEMO", {})
        workload = resolve_workload(Scenario(workload=str(trace_file), load=None))
        assert len(calls) == 1
        assert workload == parse_swf(trace_file)

    def test_path_spec_is_parsed_once_on_the_suite_path(self, trace_file, monkeypatch):
        # The memo key's handle pins the content; the workload is
        # materialized through that same handle, not a second one.
        from repro.api import Scenario, runner
        from repro.core.swf import parser
        from repro.traces import sources

        calls = []
        original = parser.parse_swf_stream

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_swf_stream", counting)
        monkeypatch.setattr(sources, "_FILE_DIGEST_MEMO", {})
        monkeypatch.setattr(runner, "_SHARED_WORKLOADS", {})
        scenario = Scenario(workload=str(trace_file), load=0.5, machine_size=64)
        workload = runner.resolve_workload_shared(scenario)
        assert runner.resolve_workload_shared(scenario) is workload
        assert len(calls) == 1
        assert workload == parse_swf(trace_file)

    def test_gzipped_copy_parses_equal_and_shares_the_digest(self, trace_file, tmp_path):
        import gzip

        from repro.api import Scenario, run
        from repro.traces.sources import file_content_digest

        packed = tmp_path / "trace.swf.gz"
        packed.write_bytes(gzip.compress(trace_file.read_bytes()))
        plain, unpacked = parse_swf(trace_file), parse_swf(packed)
        assert unpacked == plain and unpacked.header.entries == plain.header.entries
        assert unpacked.name == plain.name == "trace"
        assert SwfFileSource(str(packed)).label == SwfFileSource(str(trace_file)).label == "trace"
        assert file_content_digest(str(packed)) == file_content_digest(str(trace_file))
        scenario = Scenario(workload=str(trace_file), policy="fcfs", load=None)
        assert (
            run(scenario.with_(workload=str(packed))).report.to_json()
            == run(scenario).report.to_json()
        )

    def test_handed_over_parse_is_dropped(self, trace_file):
        source = SwfFileSource(str(trace_file))
        first = source.materialize()
        second = source.materialize()
        assert first == second and first is not second
