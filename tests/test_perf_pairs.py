"""tools/perf_pairs.py: alternating A/B pairs over two stand-in checkouts."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "perf_pairs.py"

#: a stand-in perfbench/run.py: logs which checkout ran, prints a counts
#: line and a result whose jobs_per_s is the checkout's speed plus the run
#: number (so the parent's runs spread a little)
FAKE_RUN = """\
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
log = here.parent / "order.log"
runs = log.read_text().count(here.name) if log.exists() else 0
with log.open("a") as f:
    f.write(here.name + "\\n")
speed = float((here / "speed").read_text())
print("counts " + (here / "counts").read_text())
print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": {
    "jobs_per_s": {"value": speed + runs, "unit": "1/s"},
    "setup_s": {"value": 1.0, "unit": "s"}}}))
"""

BENCHMARK = {
    "end_to_end": [
        {"name": "jobs_per_s", "better": "higher"},
        {"name": "setup_s", "better": "lower"},
    ]
}


def _load_tool():
    spec = importlib.util.spec_from_file_location("perf_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root: Path, name: str, speed: float, counts: str = '{"jobs": 4}') -> Path:
    checkout = root / name
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(FAKE_RUN)
    (checkout / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (checkout / "speed").write_text(str(speed))
    (checkout / "counts").write_text(counts)
    return checkout


def test_pairs_alternate_and_a_clear_win_is_claimed(tmp_path, capsys):
    tool = _load_tool()
    parent, change = _checkout(tmp_path, "parent", 100.0), _checkout(tmp_path, "change", 120.0)
    out = tmp_path / "report.json"
    status = tool.main([str(parent), str(change), "--workload", "w", "--pairs", "4", "--json", str(out)])
    assert status == 0
    order = (tmp_path / "order.log").read_text().split()
    assert order == ["parent", "change", "change", "parent"] * 2
    rows = {row["metric"]: row for row in json.loads(out.read_text())["w"]["rows"]}
    jobs = rows["jobs_per_s"]
    assert (jobs["parent_median"], jobs["change_median"]) == (101.5, 121.5)
    assert jobs["parent_iqr"] == pytest.approx(1.5)
    assert (jobs["wins"], jobs["claim"]) == (4, True)
    # a tie is no win, and no claim
    assert (rows["setup_s"]["wins"], rows["setup_s"]["claim"]) == (0, False)
    printed = capsys.readouterr().out
    assert "counts identical on both sides: yes" in printed


def test_a_win_inside_the_parents_spread_is_not_claimed():
    tool = _load_tool()

    def result(value):
        return {"metrics": {"jobs_per_s": {"value": value, "unit": "1/s"}}}

    pairs = [{"parent": result(p), "change": result(p + 1)} for p in (100, 104, 108, 112)]
    (row,) = tool.summarize(pairs, {"jobs_per_s": "higher"})
    assert row["wins"] == 4 and row["parent_iqr"] > 1
    assert not row["claim"]


def test_counts_that_differ_fail_the_run(tmp_path, capsys):
    tool = _load_tool()
    parent = _checkout(tmp_path, "parent", 100.0)
    change = _checkout(tmp_path, "change", 100.0, counts='{"jobs": 5}')
    assert tool.main([str(parent), str(change), "--workload", "w", "--pairs", "1"]) == 1
    assert "counts identical on both sides: NO" in capsys.readouterr().out
