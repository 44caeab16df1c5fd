"""A/B comparison of two checkouts on the perfbench workloads, in alternating pairs.

    python3 tools/perf_pairs.py PARENT CHANGE --workload fcfs-backlog --pairs 10 --seconds 10

Each pair runs ``perfbench/run.py`` once in each checkout, one after the
other; the side that runs first alternates from pair to pair, so a metric
that depends on what ran just before (``setup_s`` does) favours neither.
Each run's last stdout line is perfbench's JSON result.  For every metric
the table gives the parent's and the change's median, the parent's
interquartile range, the change's median relative to the parent's, and
in how many pairs the change was better (the direction comes from the
parent's ``BENCHMARK.json``).  ``claim`` says ``yes`` when the change won
at least nine pairs in ten and its median beats the parent's by more than
the parent's IQR.  The ``counts`` line of every run (perfbench's
deterministic work counters) must be the same on both sides; a mismatch
is reported.

Standard library only: the script does not import the code it measures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SIDES = ("parent", "change")


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> Tuple[dict, Optional[str]]:
    """One untraced perfbench run in ``checkout``: its JSON result and its counts line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: perfbench exited {completed.returncode}\n{completed.stderr}")
    counts = next((line for line in lines if line.startswith("counts ")), None)
    return json.loads(lines[-1]), counts


def directions(checkout: Path) -> Dict[str, str]:
    """Metric name -> ``"higher"`` or ``"lower"``, from the checkout's BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}


def iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: List[Dict[str, dict]], better: Dict[str, str]) -> List[dict]:
    """One row per metric over ``pairs`` of ``{"parent": result, "change": result}``."""
    rows = []
    for name in pairs[0]["parent"]["metrics"]:
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1.0 if better.get(name, "lower") == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = statistics.median(values["parent"]), statistics.median(values["change"])
        spread = iqr(values["parent"])
        rows.append(
            {
                "metric": name,
                "unit": pairs[0]["parent"]["metrics"][name]["unit"],
                "parent_median": parent,
                "change_median": change,
                "parent_iqr": spread,
                "relative": change / parent - 1.0 if parent else float("nan"),
                "wins": wins,
                "pairs": len(pairs),
                "claim": wins * 10 >= 9 * len(pairs) and sign * (change - parent) > spread,
            }
        )
    return rows


def print_table(workload: str, rows: List[dict]) -> None:
    print(f"== {workload}")
    print(f"{'metric':14s} {'unit':5s} {'parent':>12s} {'change':>12s} {'parent IQR':>11s} "
          f"{'rel':>8s} {'wins':>6s} claim")
    for row in rows:
        print(
            f"{row['metric']:14s} {row['unit']:5s} {row['parent_median']:12.6g} "
            f"{row['change_median']:12.6g} {row['parent_iqr']:11.4g} {row['relative']:+8.1%} "
            f"{row['wins']:>2d}/{row['pairs']:<3d} {'yes' if row['claim'] else 'no'}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path, help="also write every run's result here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = directions(checkouts["parent"])
    report, status = {}, 0
    for workload in args.workload:
        pairs, counts = [], set()
        for index in range(args.pairs):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                pair[side], counts_line = run_perfbench(checkouts[side], workload, args.seed, args.seconds)
                counts.add(counts_line)
            pairs.append(pair)
            print(f"[{workload}] pair {index + 1}/{args.pairs} ({order[0]} first): "
                  + ", ".join(f"{side} correct={pair[side]['correct']}" for side in SIDES),
                  file=sys.stderr)
        rows = summarize(pairs, better)
        print_table(workload, rows)
        failed = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
        attempted = {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES}
        correct = all(p[side]["correct"] for p in pairs for side in SIDES)
        print(f"correct {correct}; failed/attempted: "
              + ", ".join(f"{side} {failed[side]}/{attempted[side]}" for side in SIDES))
        print(f"counts identical on both sides: {'yes' if len(counts) == 1 else 'NO'}")
        if not correct or len(counts) != 1:
            status = 1
        report[workload] = {"pairs": pairs, "rows": rows}
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
