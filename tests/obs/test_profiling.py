"""Tests for the cProfile wrapper and the ``repro profile`` command."""

from __future__ import annotations

from repro.cli import main
from repro.obs.profile import hotspot_table, profile_call


def _workload():
    total = 0
    for i in range(50000):
        total += i * i
    return total


class TestProfileCall:
    def test_returns_result_and_hotspots(self):
        run = profile_call(_workload, top=5)
        assert run.result == sum(i * i for i in range(50000))
        assert 0 < len(run.hotspots) <= 5
        assert run.total_calls > 0
        # hotspots sorted by cumulative time, descending
        cums = [h.cumulative_seconds for h in run.hotspots]
        assert cums == sorted(cums, reverse=True)

    def test_table_has_header_and_rows(self):
        run = profile_call(_workload, top=3)
        table = hotspot_table(run)
        lines = table.splitlines()
        assert "cumsec" in lines[0] and "function" in lines[0]
        assert any("_workload" in line for line in lines)


class TestProfileCommand:
    def test_policy_spec_smoke(self, capsys, tmp_path):
        # A trace file, not a model spec: generating 200 model jobs inside the
        # profiled call costs about as much as simulating them, and its four
        # nested frames could fill the top five.
        trace = str(tmp_path / "lublin99.swf")
        assert main(["generate", "lublin99", trace, "--jobs", "200", "--seed", "3"]) == 0
        capsys.readouterr()
        code = main(["profile", "sjf:strict=true", "--workload", trace, "--top", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "profile of 'sjf:strict=true'" in out
        assert "cumsec" in out
        # the simulation engine should show up as a hotspot
        assert "engine.py" in out

    def test_unknown_policy_fails_cleanly(self, capsys):
        code = main(["profile", "no-such-policy", "--jobs", "50"])
        assert code == 2
        assert capsys.readouterr().err.strip()
