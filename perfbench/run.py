"""Benchmark entry point.

    python3 perfbench/run.py --workload fcfs-backlog --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) from the root of a checkout, using
the ``repro`` package under ``src/``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a traced run.  Lines
before the last describe the host, the inputs, the exact work counts and each
metric with its unit; the last line is one JSON object::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

``--workload all`` runs every workload in its own process and prints one
table.  ``--write-pins`` records the default seed's unit digests in
``pinned.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _units() -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` defines them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
    }


def run_one(args) -> int:
    from perfbench.harness import WorkloadRun, run_traced, run_untraced
    from perfbench.hostspeed import REFERENCE_SECONDS
    from perfbench.workloads import DEFAULT_SEED

    print("stamp " + json.dumps(stamp(args), sort_keys=True))
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        run = WorkloadRun(args.workload, args.seed, scratch)
        if args.write_pins:
            run.pinned = None
        if args.trace:
            metrics = run_traced(run, args.seconds)
        else:
            metrics = run_untraced(run, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    if run.cold:
        print("counts " + json.dumps(run.cold[0].counts, sort_keys=True))
    for error in run.errors[:20]:
        print("error " + error)
    if args.write_pins and args.seed == DEFAULT_SEED and not run.errors:
        pins_path = HERE / "pinned.json"
        pins = json.loads(pins_path.read_text()) if pins_path.is_file() else {}
        pins[args.workload] = run.cold[0].digests
        pins_path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    passes = f"{len(run.cold)} cold + {len(run.warm)} warm passes"
    print(f"passes {passes}, failed_frac {run.failed / max(1, run.attempted):.4f}")
    if run.host is not None:
        print(
            f"host reference loop: median {run.host.median_seconds() * 1e3:.4f} ms over "
            f"{len(run.host.seconds)} samples; times below are normalized to "
            f"{REFERENCE_SECONDS * 1e3:g} ms"
        )
    units = _units()
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0 and not run.errors,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process), one table."""
    from perfbench.workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            sys.stderr.write(completed.stderr)
            return completed.returncode or 1
        results[name] = json.loads(lines[-1])
        for line in lines[:-1]:
            if line.startswith(("stamp ", "counts ", "error ", "passes ")):
                print(f"[{name}] {line}")
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':36s} {'unit':6s} " + " ".join(f"{n:>22s}" for n in results))
    for metric in names + ["failed_frac"]:
        cells = []
        for result in results.values():
            if metric == "failed_frac":
                value, unit = result["failed"] / max(1, result["attempted"]), "ratio"
            else:
                value, unit = result["metrics"][metric]["value"], result["metrics"][metric]["unit"]
            cells.append(f"{value:22.6g}")
        print(f"{metric:36s} {unit:6s} " + " ".join(cells))
    print(json.dumps({"correct": all(r["correct"] for r in results.values()), "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro package under {SRC}; run from a full checkout\n")
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}\n")
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
