"""Command-line interface for the most common standalone tasks.

The library is primarily used as an API, but the workflows the standard is
meant to ease — validating a trace, summarizing it, converting a raw log,
generating model workloads and outage logs, running scenarios, running an
experiment — are all available from the shell::

    python -m repro.cli validate  trace.swf
    python -m repro.cli stats     trace.swf
    python -m repro.cli convert   accounting.csv converted.swf --computer "IBM SP2"
    python -m repro.cli generate  lublin99 out.swf --jobs 5000 --machine-size 128 --load 0.7
    python -m repro.cli outages   128 2592000 outages.log --seed 1
    python -m repro.cli simulate  trace.swf --policy easy
    python -m repro.cli simulate  lublin99:jobs=2000,seed=1 --policy gang:slots=3 --load 0.8
    python -m repro.cli simulate  trace:ctc-sp2,load=1.2,slice=0:7d --policy easy
    python -m repro.cli run       scenarios.json --workers 4
    python -m repro.cli experiment e03
    python -m repro.cli trace ls
    python -m repro.cli trace info ctc-sp2,load=1.2,slice=0:7d
    python -m repro.cli trace build ctc-sp2,load=1.2 --output week.swf
    python -m repro.cli bench run smoke --workers 2
    python -m repro.cli bench run smoke --timings --trace trace.json
    python -m repro.cli bench compare fcfs backfill --suite std-space
    python -m repro.cli bench report --timings
    python -m repro.cli bench trend --baseline BENCH_bench_smoke.json --suite smoke
    python -m repro.cli bench gc --max-age-days 30
    python -m repro.cli trace gc --dry-run
    python -m repro.cli dist enqueue std-space --queue /shared/queue
    python -m repro.cli dist worker --queue /shared/queue --store /shared/store
    python -m repro.cli dist status --queue /shared/queue
    python -m repro.cli dist gather std-space --queue /shared/queue
    python -m repro.cli serve --port 8765 --workers 2 --queue-limit 8
    python -m repro.cli profile "sjf:strict=true" --jobs 2000 --output profile.txt
    python -m repro.cli --log-level debug --log-format json bench run smoke

Policies and workload models are resolved through the registries in
:mod:`repro.api` — every registered name is reachable, and spec strings
(``sjf:strict=true``) pass constructor arguments straight from the shell.
Every command prints a short human-readable report and exits non-zero on
failure (e.g. an unclean trace), so the tools compose with shell scripts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.api.registry import (
    RegistryError,
    metric_registry,
    model_names,
    scheduler_names,
)
from repro.api.runner import resolve_workload, run, run_many
from repro.api.scenario import Scenario
from repro.core.outage import OutageModel, generate_outages, write_outage_log
from repro.core.swf import (
    SWFParseError,
    convert_accounting_csv,
    parse_swf,
    summarize,
    validate,
    write_swf,
)
from repro.data import archive_names
from repro.evaluation import format_table

__all__ = ["main", "build_parser"]

#: Experiments reachable from ``experiment``.
EXPERIMENTS = (
    "e01", "e02", "e03", "e04", "e05", "e06", "e07", "e08", "e09", "e10", "e11",
)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Benchmarks and standards for the evaluation of parallel job schedulers",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=["debug", "info", "warning", "error"],
        help="structured-log verbosity on stderr (default: $REPRO_LOG, "
        "else info for serve and warning elsewhere)",
    )
    parser.add_argument(
        "--log-format",
        default=None,
        choices=["text", "json"],
        help="log line format: human key=value text (default) or one JSON "
        "object per line for log shippers (default: $REPRO_LOG_FORMAT)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check an SWF file against the consistency rules")
    p_validate.add_argument("trace", help="path to the SWF file")
    p_validate.add_argument("--max-issues", type=int, default=20, help="issues to print")

    p_stats = sub.add_parser("stats", help="summarize an SWF file")
    p_stats.add_argument("trace", help="path to the SWF file")
    p_stats.add_argument("--machine-size", type=int, default=None)

    p_convert = sub.add_parser("convert", help="convert a PBS/NQS-style accounting CSV to SWF")
    p_convert.add_argument("raw", help="path to the accounting CSV")
    p_convert.add_argument("output", help="path of the SWF file to write")
    p_convert.add_argument("--computer", default="unknown parallel machine")
    p_convert.add_argument("--installation", default="unknown installation")
    p_convert.add_argument("--max-nodes", type=int, default=None)

    p_generate = sub.add_parser("generate", help="generate a synthetic workload (model or archive)")
    p_generate.add_argument(
        "source",
        help=f"model spec ({', '.join(model_names())}) or archive ({', '.join(archive_names())})",
    )
    p_generate.add_argument("output", help="path of the SWF file to write")
    p_generate.add_argument("--jobs", type=int, default=5000)
    p_generate.add_argument("--machine-size", type=int, default=128)
    p_generate.add_argument("--load", type=float, default=None, help="target offered load")
    p_generate.add_argument("--seed", type=int, default=None)

    p_outages = sub.add_parser("outages", help="generate a standard-format outage log")
    p_outages.add_argument("machine_size", type=int)
    p_outages.add_argument("horizon_seconds", type=int)
    p_outages.add_argument("output", help="path of the outage log to write")
    p_outages.add_argument("--mtbf-days", type=float, default=7.0)
    p_outages.add_argument("--seed", type=int, default=None)

    p_simulate = sub.add_parser(
        "simulate", help="replay a workload (SWF path or model spec) through a policy"
    )
    p_simulate.add_argument(
        "workload", help="path to an SWF file, or a workload spec like lublin99:jobs=2000"
    )
    p_simulate.add_argument(
        "--policy", "--scheduler", dest="policy", default="easy",
        help=f"policy spec; registered: {', '.join(scheduler_names())}",
    )
    p_simulate.add_argument("--machine-size", type=int, default=None)
    p_simulate.add_argument("--jobs", type=int, default=2000, help="jobs when generating from a model")
    p_simulate.add_argument("--load", type=float, default=None, help="rescale to this offered load")
    p_simulate.add_argument("--seed", type=int, default=None)
    p_simulate.add_argument("--outages", default=None, help="path to a standard outage log")
    p_simulate.add_argument(
        "--feedback", action="store_true",
        help="closed replay: honor the trace's job dependencies and think times",
    )
    p_simulate.add_argument("--max-restarts", type=int, default=10)
    p_simulate.add_argument("--tau", type=float, default=10.0, help="bounded-slowdown threshold")
    p_simulate.add_argument(
        "--metrics", default=None,
        help="comma-separated metric columns to print (default: the standard table)",
    )

    p_run = sub.add_parser(
        "run", help="run scenarios from a JSON file (one object or a list)"
    )
    p_run.add_argument("scenarios", help="path to a JSON scenario file")
    p_run.add_argument("--workers", type=int, default=None, help="fan out over N processes")

    p_experiment = sub.add_parser("experiment", help="run one of the E1..E11 experiment harnesses")
    p_experiment.add_argument("which", choices=EXPERIMENTS)

    p_trace = sub.add_parser(
        "trace",
        help="the trace catalog: content-addressed workload traces with transforms",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    t_ls = trace_sub.add_parser("ls", help="list registered catalog traces")
    t_ls.add_argument("--jobs", type=int, default=None, help="jobs for the shown digests")

    t_info = trace_sub.add_parser(
        "info", help="digest, pipeline, and cache status of a trace spec"
    )
    t_info.add_argument("spec", help="trace spec, with or without the trace: prefix")
    t_info.add_argument("--jobs", type=int, default=None)
    t_info.add_argument("--seed", type=int, default=None)

    t_build = trace_sub.add_parser(
        "build", help="materialize a trace through the cache (reports hit/miss)"
    )
    t_build.add_argument("spec", help="trace spec, with or without the trace: prefix")
    t_build.add_argument("--jobs", type=int, default=None)
    t_build.add_argument("--seed", type=int, default=None)
    t_build.add_argument("--output", default=None, help="also write the SWF here")
    t_build.add_argument(
        "--no-cache", action="store_true", help="build fresh; leave the cache untouched"
    )

    t_gc = trace_sub.add_parser(
        "gc", help="evict cached trace artifacts by age and stale format version"
    )
    t_gc.add_argument(
        "--max-age-days", type=float, default=None,
        help="also evict artifacts older than this many days",
    )
    t_gc.add_argument(
        "--keep-stale", action="store_true",
        help="keep artifacts from other TRACE_FORMAT versions",
    )
    t_gc.add_argument("--dry-run", action="store_true", help="report without deleting")
    t_gc.add_argument(
        "--cache", default=None,
        help="trace-cache directory (default: $REPRO_TRACE_CACHE or ~/.cache/repro-traces)",
    )

    p_bench = sub.add_parser(
        "bench",
        help="standardized benchmark suites: cached replications, CIs, verdicts",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    def _bench_common(sub_parser) -> None:
        sub_parser.add_argument("--workers", type=int, default=None, help="fan out over N processes")
        sub_parser.add_argument(
            "--no-cache", action="store_true",
            help="ignore cached results (fresh runs still refresh the store)",
        )
        sub_parser.add_argument(
            "--store", default=None,
            help="result-store directory (default: $REPRO_BENCH_STORE or ~/.cache/repro-bench)",
        )
        sub_parser.add_argument("--confidence", type=float, default=0.95)
        sub_parser.add_argument("--json", dest="json_out", default=None, help="write the machine-readable result here")
        sub_parser.add_argument("--markdown", dest="markdown_out", default=None, help="write the markdown report here")

    from repro.bench.suite import suite_names

    b_run = bench_sub.add_parser("run", help="run a registered suite with cached replications")
    b_run.add_argument("suite", help=f"suite name; registered: {', '.join(suite_names())}")
    b_run.add_argument(
        "--timings", action="store_true",
        help="also print the wall-clock phase breakdown (cache lookup, "
        "materialize, simulate, metrics, store writes)",
    )
    b_run.add_argument(
        "--trace", dest="trace_out", default=None,
        help="write the run's span timeline here as Chrome trace-event JSON "
        "(opens in Perfetto / chrome://tracing)",
    )
    _bench_common(b_run)

    b_compare = bench_sub.add_parser(
        "compare", help="paired-difference comparison of two policies over a suite"
    )
    b_compare.add_argument("policy_a", help="first policy spec (e.g. fcfs)")
    b_compare.add_argument("policy_b", help="second policy spec (e.g. backfill)")
    b_compare.add_argument("--suite", required=True, help="suite whose contexts and seeds to use")
    _bench_common(b_compare)

    b_report = bench_sub.add_parser(
        "report", help="aggregate everything in the result store (no simulation)"
    )
    b_report.add_argument("--suite", default=None, help="restrict to one suite")
    b_report.add_argument(
        "--store", default=None,
        help="result-store directory (default: $REPRO_BENCH_STORE or ~/.cache/repro-bench)",
    )
    b_report.add_argument("--confidence", type=float, default=0.95)
    b_report.add_argument("--markdown", dest="markdown_out", default=None, help="write the markdown report here")
    b_report.add_argument(
        "--timings", action="store_true",
        help="add a wall-clock column (mean per-replication run seconds)",
    )

    b_trend = bench_sub.add_parser(
        "trend",
        help="compare phase timings against a committed baseline; "
        "exits 1 when a phase regressed beyond tolerance",
    )
    b_trend.add_argument(
        "--baseline", required=True,
        help="baseline JSON: a committed BENCH_*.json trajectory file, a "
        "bench run --json dump, or a bare {phase: seconds} object",
    )
    b_trend.add_argument(
        "--current", default=None,
        help="current-run JSON (same accepted shapes); "
        "alternatively use --suite to run one now",
    )
    b_trend.add_argument(
        "--suite", default=None,
        help="run this suite now and compare its timings (cold: implies --no-cache)",
    )
    b_trend.add_argument(
        "--tolerance", type=float, default=0.5,
        help="relative headroom: current may be up to baseline*(1+tolerance) "
        "(default 0.5, i.e. 50 percent slower)",
    )
    b_trend.add_argument(
        "--min-seconds", type=float, default=0.005,
        help="absolute noise floor: a phase must also be slower by more "
        "than this many seconds to count (default 0.005)",
    )
    _bench_common(b_trend)

    b_gc = bench_sub.add_parser(
        "gc", help="evict result-store entries by age and stale code version"
    )
    b_gc.add_argument(
        "--max-age-days", type=float, default=None,
        help="also evict entries older than this many days",
    )
    b_gc.add_argument(
        "--keep-stale", action="store_true",
        help="keep entries from other code/STORE_VERSION generations",
    )
    b_gc.add_argument("--dry-run", action="store_true", help="report without deleting")
    b_gc.add_argument(
        "--store", default=None,
        help="result-store directory (default: $REPRO_BENCH_STORE or ~/.cache/repro-bench)",
    )

    p_dist = sub.add_parser(
        "dist",
        help="distributed suite execution: a file-backed work queue sharded "
        "across processes/hosts sharing one result store",
    )
    dist_sub = p_dist.add_subparsers(dest="dist_command", required=True)

    def _dist_common(sub_parser) -> None:
        sub_parser.add_argument(
            "--queue", default=None,
            help="work-queue directory (default: $REPRO_DIST_QUEUE or ~/.cache/repro-dist)",
        )
        sub_parser.add_argument(
            "--store", default=None,
            help="result-store directory (default: $REPRO_BENCH_STORE or ~/.cache/repro-bench)",
        )

    d_enqueue = dist_sub.add_parser(
        "enqueue", help="expand a suite into per-key work units on the queue"
    )
    d_enqueue.add_argument("suite", help=f"suite name; registered: {', '.join(suite_names())}")
    _dist_common(d_enqueue)

    d_worker = dist_sub.add_parser(
        "worker", help="claim and simulate pending units until the queue drains"
    )
    _dist_common(d_worker)
    d_worker.add_argument(
        "--ttl", type=float, default=120.0,
        help="lease time-to-live in seconds; an unrefreshed lease older than "
        "this is reclaimable (default 120)",
    )
    d_worker.add_argument(
        "--once", action="store_true",
        help="one pass over the pending units, then exit (no waiting on "
        "units leased elsewhere)",
    )
    d_worker.add_argument(
        "--max-units", type=int, default=None,
        help="exit after simulating this many units",
    )
    d_worker.add_argument(
        "--worker-id", default=None,
        help="stable worker identity for leases/stats (default: host-pid)",
    )
    d_worker.add_argument(
        "--poll-interval", type=float, default=0.5,
        help="seconds to wait between scans when every pending unit is "
        "leased elsewhere (default 0.5)",
    )

    d_status = dist_sub.add_parser(
        "status", help="per-suite progress of the queue against the store"
    )
    _dist_common(d_status)
    d_status.add_argument("--ttl", type=float, default=120.0, help="lease TTL for expiry classification")
    d_status.add_argument("--json", dest="json_out", default=None, help="write the machine-readable status here")

    d_gather = dist_sub.add_parser(
        "gather", help="aggregate a completed suite into a normal suite report"
    )
    d_gather.add_argument("suite", help="enqueued suite name")
    _dist_common(d_gather)
    d_gather.add_argument("--confidence", type=float, default=0.95)
    d_gather.add_argument(
        "--allow-partial", action="store_true",
        help="skip the completeness gate and simulate any remainder locally",
    )
    d_gather.add_argument("--json", dest="json_out", default=None, help="write the machine-readable result here")
    d_gather.add_argument("--markdown", dest="markdown_out", default=None, help="write the markdown report here")

    p_serve = sub.add_parser(
        "serve",
        help="run the evaluation service daemon (coalescing, digest-keyed caching)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765, help="0 binds an ephemeral port")
    p_serve.add_argument(
        "--workers", type=int, default=2, help="concurrent evaluation jobs"
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=8,
        help="admitted-but-waiting jobs before submissions get HTTP 429",
    )
    p_serve.add_argument(
        "--run-workers", type=int, default=None,
        help="processes each job's run_many fan-out may use (default: serial)",
    )
    p_serve.add_argument(
        "--store", default=None,
        help="result-store directory (default: $REPRO_BENCH_STORE or ~/.cache/repro-bench)",
    )
    p_serve.add_argument(
        "--no-cache", action="store_true",
        help="ignore cached results (fresh runs still refresh the store)",
    )
    p_serve.add_argument(
        "--journal", default=None,
        help="job-journal path (default: <store>/journal.jsonl); replayed "
        "on start so finished digests survive restarts",
    )
    p_serve.add_argument(
        "--no-journal", action="store_true",
        help="don't persist or replay the job journal",
    )
    p_serve.add_argument(
        "--dist-queue", default=None,
        help="delegate suite jobs to this distributed work queue directory "
        "instead of running them in-process (external workers must drain it)",
    )

    p_profile = sub.add_parser(
        "profile",
        help="cProfile a suite or a single scenario and print the hotspot table",
    )
    p_profile.add_argument(
        "target",
        help="a registered suite name, or a policy spec (e.g. sjf:strict=true) "
        "to profile one scenario",
    )
    p_profile.add_argument(
        "--workload", default="lublin99",
        help="workload spec when profiling a policy spec (default: lublin99)",
    )
    p_profile.add_argument("--jobs", type=int, default=2000, help="jobs when generating from a model")
    p_profile.add_argument("--machine-size", type=int, default=128)
    p_profile.add_argument("--seed", type=int, default=1)
    p_profile.add_argument("--top", type=int, default=25, help="hotspot rows to print")
    p_profile.add_argument(
        "--output", default=None,
        help="also write the hotspot table (or raw pstats data with --raw) here",
    )
    p_profile.add_argument(
        "--raw", action="store_true",
        help="with --output: dump raw pstats data (for snakeviz et al.) "
        "instead of the text table",
    )

    return parser


# ----------------------------------------------------------------------
# command implementations
# ----------------------------------------------------------------------
def _read_trace(path: str):
    """Parse an SWF file, or report its first malformed line and return None."""
    try:
        return parse_swf(path)
    except SWFParseError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return None


def _cmd_validate(args) -> int:
    workload = _read_trace(args.trace)
    if workload is None:
        return 1
    report = validate(workload)
    print(f"{args.trace}: {len(workload)} jobs, {report.summary()}")
    for issue in report.issues[: args.max_issues]:
        print(f"  {issue}")
    if len(report.issues) > args.max_issues:
        print(f"  ... and {len(report.issues) - args.max_issues} more")
    return 0 if report.is_clean else 1


def _cmd_stats(args) -> int:
    workload = _read_trace(args.trace)
    if workload is None:
        return 1
    stats = summarize(workload, machine_size=args.machine_size)
    print(format_table([stats.as_dict()]))
    return 0


def _cmd_convert(args) -> int:
    with open(args.raw, "r", encoding="utf-8") as handle:
        text = handle.read()
    workload = convert_accounting_csv(
        text,
        computer=args.computer,
        installation=args.installation,
        max_nodes=args.max_nodes,
    )
    report = validate(workload)
    write_swf(workload, args.output)
    print(f"wrote {args.output}: {len(workload)} jobs, {report.summary()}")
    return 0 if report.is_clean else 1


def _cmd_generate(args) -> int:
    # The same resolution path `simulate` and `run` use: model specs
    # (including jobs=/seed= kwargs), archive names, and load rescaling.
    scenario = Scenario(
        workload=args.source,
        machine_size=args.machine_size,
        jobs=args.jobs,
        load=args.load,
        seed=args.seed,
    )
    try:
        workload = resolve_workload(scenario)
    except (RegistryError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    write_swf(workload, args.output)
    print(
        f"wrote {args.output}: {len(workload)} jobs, offered load "
        f"{workload.offered_load():.2f} on {workload.header.max_nodes} nodes"
    )
    return 0


def _cmd_outages(args) -> int:
    log = generate_outages(
        args.machine_size,
        args.horizon_seconds,
        model=OutageModel(mtbf_seconds=args.mtbf_days * 24 * 3600),
        seed=args.seed,
    )
    write_outage_log(log, args.output)
    print(
        f"wrote {args.output}: {len(log)} outages "
        f"({len(log.unscheduled())} failures, {len(log.scheduled())} maintenance windows)"
    )
    return 0


def _print_reports(results, metrics: Optional[str]) -> None:
    if metrics:
        names = [m.strip() for m in metrics.split(",") if m.strip()]
        extractors = [(name, metric_registry.get(name)) for name in names]
        rows = [
            {
                "scenario": sr.scenario.label,
                "scheduler": sr.result.scheduler_name,
                **{name: round(fn(sr.report), 4) for name, fn in extractors},
            }
            for sr in results
        ]
    else:
        rows = [sr.row() for sr in results]
    print(format_table(rows))
    for sr in results:
        # A grid run counts its sites' unfinished jobs in its metadata.
        stranded = sr.result.metadata.get("unfinished", len(sr.result.unfinished))
        if stranded:
            print(
                f"{sr.scenario.label}: {stranded} jobs never finished; "
                "the table counts finished jobs only",
                file=sys.stderr,
            )


def _cmd_simulate(args) -> int:
    scenario = Scenario(
        workload=args.workload,
        policy=args.policy,
        machine_size=args.machine_size,
        jobs=args.jobs,
        load=args.load,
        seed=args.seed,
        outages=args.outages,
        honor_dependencies=args.feedback,
        max_restarts=args.max_restarts,
        tau=args.tau,
    )
    try:
        result = run(scenario)
        _print_reports([result], args.metrics)
    except (RegistryError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _cmd_run(args) -> int:
    try:
        with open(args.scenarios, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if isinstance(data, dict):
            data = [data]
        scenarios = [Scenario.from_dict(item) for item in data]
        results = run_many(scenarios, workers=args.workers)
    except (RegistryError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    _print_reports(results, None)
    return 0


def _write_text(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_trace(args) -> int:
    from repro.traces import TraceCache, trace_from_spec, trace_names, trace_registry

    try:
        if args.trace_command == "gc":
            cache = TraceCache(args.cache)
            stats = cache.gc(
                max_age_days=args.max_age_days,
                drop_stale=not args.keep_stale,
                dry_run=args.dry_run,
            )
            print(f"trace cache {cache.root}: {stats.summary()}")
            return 0

        if args.trace_command == "ls":
            rows = []
            for name in trace_names():
                trace = trace_from_spec(name, jobs=args.jobs)
                factory = trace_registry.get(name)
                rows.append(
                    {
                        "trace": name,
                        "digest": trace.digest[:12],
                        "spec": trace.spec,
                        "description": (factory.__doc__ or "").strip(),
                    }
                )
            print(format_table(rows))
            return 0

        trace = trace_from_spec(args.spec, jobs=args.jobs, seed=args.seed)
        from repro.traces import SwfFileSource

        if isinstance(trace.source, SwfFileSource) and (
            args.jobs is not None or args.seed is not None
        ):
            # A file trace is fully determined by its content; dropping the
            # flags silently would let a user believe they bounded the build.
            print(
                f"{args.spec!r} is a file trace: --jobs/--seed do not apply "
                "(its content is the trace)",
                file=sys.stderr,
            )
            return 2
        cache = TraceCache()
        if args.trace_command == "info":
            cached = trace.digest in cache
            print(f"spec:    {trace.spec}")
            print(f"name:    {trace.name}")
            print(f"digest:  {trace.digest}")
            print(f"family:  {trace.family_digest}")
            print(f"source:  {trace.source.identity()}")
            for i, transform in enumerate(trace.transforms, start=1):
                print(f"step {i}:  {transform.identity()}")
            print(f"cache:   {cache.path_for(trace.digest)}"
                  f" ({'present' if cached else 'absent'})")
            return 0

        # build
        workload = trace.materialize(cache=None if args.no_cache else cache,
                                     use_cache=not args.no_cache)
        served = "built fresh" if args.no_cache else (
            "cache hit" if cache.hits else "built and cached"
        )
        if args.output:
            write_swf(workload, args.output)
        destination = f"; wrote {args.output}" if args.output else ""
        machine = workload.header.max_nodes
        print(
            f"{trace.spec}\ndigest {trace.digest} ({served}): "
            f"{len(workload)} jobs, offered load "
            f"{workload.offered_load(machine):.2f} on {machine} nodes"
            f"{destination}"
        )
        return 0
    except (RegistryError, KeyError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _cmd_bench(args) -> int:
    from repro.bench.report import (
        comparison_json,
        comparison_markdown,
        report_from_store,
        suite_json,
        suite_markdown,
        timings_markdown,
        to_json_text,
    )
    from repro.bench.runner import compare_policies, run_suite
    from repro.bench.store import ResultStore
    from repro.evaluation import format_table
    from repro.obs.log import get_logger

    log = get_logger("bench")
    store = ResultStore(args.store)

    def _progress(done: int, total: int, cached: bool) -> None:
        log.info(
            "progress", done=done, total=total,
            served="cache" if cached else "simulated",
        )

    try:
        if args.bench_command == "run":
            tracer = None
            if args.trace_out:
                from repro.obs.trace import Tracer, trace_scope

                tracer = Tracer()
                scope = trace_scope(tracer)
            else:
                from contextlib import nullcontext

                scope = nullcontext()
            with scope:
                result = run_suite(
                    args.suite,
                    workers=args.workers,
                    store=store,
                    use_cache=not args.no_cache,
                    confidence=args.confidence,
                    progress=_progress,
                )
            print(format_table(result.rows()))
            print(result.summary() + f"; store: {store.root}")
            if tracer is not None:
                from repro.obs.trace import write_chrome_trace

                write_chrome_trace(tracer, args.trace_out)
                print(
                    f"wrote Chrome trace ({len(tracer.spans)} spans) to "
                    f"{args.trace_out} — open in Perfetto or chrome://tracing"
                )
            if args.timings:
                print()
                print(timings_markdown(result.timings))
            _write_text(args.json_out, to_json_text(suite_json(result)))
            _write_text(args.markdown_out, suite_markdown(result))
        elif args.bench_command == "trend":
            from repro.bench.trend import (
                compare_timings,
                load_timings,
                trend_json,
                trend_markdown,
            )

            if bool(args.current) == bool(args.suite):
                print(
                    "bench trend needs exactly one of --current or --suite",
                    file=sys.stderr,
                )
                return 2
            baseline, baseline_label = load_timings(args.baseline)
            if args.current:
                current, current_label = load_timings(args.current)
            else:
                # A live comparison must run cold: cache-served phases
                # report ~0s and would mask any regression.
                result = run_suite(
                    args.suite,
                    workers=args.workers,
                    store=store,
                    use_cache=False,
                    confidence=args.confidence,
                    progress=_progress,
                )
                current = dict(result.timings)
                current_label = f"{args.suite} (live)"
            report = compare_timings(
                baseline,
                current,
                tolerance=args.tolerance,
                min_seconds=args.min_seconds,
                baseline_label=baseline_label,
                current_label=current_label,
            )
            text = trend_markdown(report)
            print(text)
            _write_text(args.markdown_out, text + "\n")
            _write_text(args.json_out, to_json_text(trend_json(report)))
            return report.exit_code()
        elif args.bench_command == "compare":
            result = compare_policies(
                args.suite,
                args.policy_a,
                args.policy_b,
                workers=args.workers,
                store=store,
                use_cache=not args.no_cache,
                confidence=args.confidence,
            )
            print(format_table(result.rows()))
            print(result.summary())
            _write_text(args.json_out, to_json_text(comparison_json(result)))
            _write_text(args.markdown_out, comparison_markdown(result))
        elif args.bench_command == "gc":
            stats = store.gc(
                max_age_days=args.max_age_days,
                drop_stale=not args.keep_stale,
                dry_run=args.dry_run,
            )
            print(f"bench store {store.root}: {stats.summary()}")
        else:  # report
            text = report_from_store(
                store,
                suite=args.suite,
                confidence=args.confidence,
                timings=args.timings,
            )
            print(text)
            _write_text(args.markdown_out, text)
    except (RegistryError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _cmd_dist(args) -> int:
    from repro.bench.store import ResultStore
    from repro.dist import (
        QueueIncompleteError,
        WorkQueue,
        gather,
        run_worker,
    )
    from repro.obs.log import get_logger

    queue = WorkQueue(args.queue)
    store = ResultStore(args.store)
    try:
        if args.dist_command == "enqueue":
            result = queue.enqueue_suite(args.suite, store=store)
            print(result.summary())
            print(f"queue: {queue.root}; store: {store.root}")
        elif args.dist_command == "worker":
            log = get_logger("dist")

            def _progress(stats, unit) -> None:
                log.info(
                    "unit done", worker=stats.worker_id, case=unit.case,
                    simulated=stats.simulated,
                )

            stats = run_worker(
                queue,
                store,
                ttl=args.ttl,
                once=args.once,
                poll_interval=args.poll_interval,
                max_units=args.max_units,
                worker_id=args.worker_id,
                progress=_progress,
            )
            print(stats.summary())
        elif args.dist_command == "status":
            progress = queue.status(store, ttl=args.ttl)
            if not progress:
                print(f"queue {queue.root}: no suites enqueued")
            for suite_progress in progress:
                print(suite_progress.summary())
            workers = queue.worker_stats()
            for worker_id in sorted(workers):
                record = workers[worker_id]
                print(
                    f"  worker {worker_id}: {record.get('simulated', 0)} "
                    f"simulated, {record.get('events_processed', 0)} events"
                )
            if args.json_out:
                payload = {
                    "queue": str(queue.root),
                    "store": str(store.root),
                    "suites": [
                        {
                            "suite": p.suite,
                            "total": p.total,
                            "done": p.done,
                            "pending": p.pending,
                            "leased": p.leased,
                            "expired": p.expired,
                            "complete": p.complete,
                        }
                        for p in progress
                    ],
                    "workers": workers,
                }
                _write_text(args.json_out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        else:  # gather
            from repro.bench.report import suite_json, suite_markdown, to_json_text

            try:
                result = gather(
                    queue,
                    args.suite,
                    store,
                    confidence=args.confidence,
                    allow_partial=args.allow_partial,
                )
            except QueueIncompleteError as exc:
                print(str(exc), file=sys.stderr)
                return 3
            print(format_table(result.rows()))
            print(result.summary() + f"; store: {store.root}")
            _write_text(args.json_out, to_json_text(suite_json(result)))
            _write_text(args.markdown_out, suite_markdown(result))
    except (RegistryError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _cmd_serve(args) -> int:
    from repro.serve.daemon import ServeConfig, serve

    try:
        return serve(
            ServeConfig(
                host=args.host,
                port=args.port,
                workers=args.workers,
                queue_limit=args.queue_limit,
                run_workers=args.run_workers,
                store=args.store,
                use_cache=not args.no_cache,
                journal=args.journal,
                use_journal=not args.no_journal,
                dist_queue=args.dist_queue,
            )
        )
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _cmd_profile(args) -> int:
    from repro.bench.suite import suite_names
    from repro.obs import hotspot_table, profile_call

    if args.raw and not args.output:
        print("--raw needs --output (a path for the pstats dump)", file=sys.stderr)
        return 2
    # numpy loads these on first attribute access; import them before the
    # clock starts, so a first run in the process profiles the simulation
    # rather than the importer.
    import numpy.ma  # noqa: F401
    import numpy.random  # noqa: F401

    try:
        if args.target in suite_names():
            from repro.bench.runner import run_suite

            # No store: a cache-served suite profiles its lookups, not the
            # simulation, which is never what the caller is after.
            profiled = profile_call(
                lambda: run_suite(args.target, store=None, use_cache=False),
                top=args.top,
            )
            subject = f"suite {args.target!r}"
        else:
            scenario = Scenario(
                workload=args.workload,
                policy=args.target,
                machine_size=args.machine_size,
                jobs=args.jobs,
                seed=args.seed,
            )
            profiled = profile_call(lambda: run(scenario), top=args.top)
            subject = f"{args.target!r} on {scenario.label}"
    except (RegistryError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    table = f"profile of {subject}:\n{hotspot_table(profiled)}"
    print(table)
    if args.output:
        if args.raw:
            profiled.dump_stats(args.output)
            print(f"wrote raw pstats dump to {args.output}")
        else:
            _write_text(args.output, table + "\n")
            print(f"wrote hotspot table to {args.output}")
    return 0


def _cmd_experiment(args) -> int:
    from repro import experiments as exp

    module = {
        "e01": exp.e01_entities,
        "e02": exp.e02_swf_roundtrip,
        "e03": exp.e03_metric_ranking,
        "e04": exp.e04_objective_weights,
        "e05": exp.e05_feedback,
        "e06": exp.e06_outages,
        "e07": exp.e07_models,
        "e08": exp.e08_moldable,
        "e09": exp.e09_grid,
        "e10": exp.e10_warmstones,
        "e11": exp.e11_traces,
    }[args.which]
    result = module.run()
    print(format_table(result.rows()))
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "stats": _cmd_stats,
    "convert": _cmd_convert,
    "generate": _cmd_generate,
    "outages": _cmd_outages,
    "simulate": _cmd_simulate,
    "run": _cmd_run,
    "experiment": _cmd_experiment,
    "trace": _cmd_trace,
    "bench": _cmd_bench,
    "dist": _cmd_dist,
    "serve": _cmd_serve,
    "profile": _cmd_profile,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.obs.log import configure, resolve_format, resolve_level

    # serve is the one long-running command where the access log is the
    # point; everything else stays quiet unless asked (--log-level or
    # $REPRO_LOG).
    default_level = "info" if args.command == "serve" else "warning"
    try:
        configure(
            resolve_level(args.log_level, default=default_level),
            fmt=resolve_format(args.log_format),
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
