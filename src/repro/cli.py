"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro run   --nodes 40 --rate 10 --duration 20 --blocks
    python -m repro run   --nodes 20 --trace t.jsonl
    python -m repro sweep fig6_point --param malicious_fraction=0.1,0.2 \
        --param num_nodes=20 --repetitions 4 --workers 4 --out-dir sweep-out
    python -m repro report sweep-out/sweep.json
    python -m repro report t.jsonl --chrome t.chrome.json
    python -m repro run   --admission --until-steady --timeline soak.jsonl
    python -m repro watch soak.jsonl
    python -m repro report soak.jsonl

``run`` drives one network in this process (``--seed``, ``--json PATH``
to dump the raw result object, ``--trace PATH`` for a deterministic
``repro.trace/1`` JSONL trace with the run's timeline series); an
output's missing directory is created.  Every recording (``run --trace``
/ ``--timeline``, ``sweep --task-traces``) ends with the run's wall time
per phase, as ``phase`` records that ``report`` prints as a table.
``sweep`` fans an (experiment x seed x grid) task matrix across one
process per task with crash containment and a deterministic merge:
every figure is a sweep of its registered point (see
``docs/parallelism.md``).  ``report`` prints a
sweep document's figure table, or summarises a trace and converts it
(Chrome trace-event JSON for Perfetto, CSV of the timeline series).
``run --timeline PATH`` publishes its file, marked partial, while the
run goes; ``watch`` follows such a file, or a sweep spool, until it is
finished.
"""

from __future__ import annotations

import argparse
import io
import os
import statistics
import sys
from typing import List, Optional

from repro.obs.export import write_atomic
from repro.obs.report import (
    cache_rows,
    event_counts,
    fault_detection_rows,
    final_counters,
    format_table,
    load_trace,
    phase_rows,
    span_rows,
    timeline_rows,
    write_json,
)


def _checked(convert, ok, what: str):
    """An argparse ``type``: ``convert`` the text, then require ``ok``.

    A value outside the range is a usage error (exit code 2) instead of a
    traceback from the constructor that would reject it later.
    """
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value"
    return parse


_AT_LEAST_ONE = _checked(int, lambda v: v >= 1, ">= 1")
_POSITIVE = _checked(float, lambda v: v > 0, "> 0")
_NON_NEGATIVE = _checked(float, lambda v: v >= 0, ">= 0")
_FRACTION = _checked(float, lambda v: 0 <= v <= 1, "in [0, 1]")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--json", type=str, default=None,
                        help="write the raw result object to this file")
    parser.add_argument("--trace", type=str, default=None, metavar="PATH",
                        help="write a repro.trace/1 JSONL trace of the run:"
                             " its events, spans and timeline series")
    parser.add_argument("--trace-sample", type=_AT_LEAST_ONE, default=1,
                        metavar="N",
                        help="keep every Nth per-message network trace event"
                             " (per message type; other records are never"
                             " sampled)")


# ---------------------------------------------------------------- commands


def cmd_run(args) -> int:
    from repro.core.config import LOConfig
    from repro.experiments.harness import LOSimulation, SimulationParams

    config = LOConfig()
    if args.admission:
        from repro.mempool.admission import AdmissionConfig

        config = LOConfig(admission=AdmissionConfig())
    sim = LOSimulation(
        SimulationParams(
            num_nodes=args.nodes,
            seed=args.seed,
            config=config,
            enable_blocks=args.blocks,
        )
    )
    if args.workload == "node":
        count = sim.inject_workload(rate_per_s=args.rate,
                                    duration_s=args.duration)
    else:
        count = sim.inject_open_loop(
            rate_per_s=args.rate,
            duration_s=args.duration,
            arrivals="bursty" if args.workload == "bursty" else "poisson",
            hot_fraction=args.hot_fraction,
            scale=args.scale,
            rbf_fraction=args.rbf_fraction,
        )
    horizon = args.duration + args.drain
    steady_outcome = None
    if args.until_steady:
        steady_outcome = sim.run_until_steady(horizon)
    else:
        sim.run(horizon)
    latencies = sim.mempool_tracker.all_latencies()
    admission = sim.admission_breakdown()
    rows = [
        ("nodes", args.nodes),
        ("transactions", count),
        ("mean mempool latency (s)",
         f"{statistics.mean(latencies):.2f}" if latencies else "n/a"),
        ("chain height", sim.nodes[0].ledger.height if args.blocks else "off"),
        ("overhead (MB)", f"{sim.total_overhead_bytes() / 1e6:.2f}"),
        ("exposures", sum(len(n.acct.exposed) for n in sim.nodes.values())),
    ]
    if admission:
        from repro.mempool.admission import REJECT_REASONS

        rejected = sum(admission.get(r, 0) for r in REJECT_REASONS)
        rows.append(("admitted", admission.get("accepted", 0)
                     + admission.get("replaced", 0)))
        rows.append(("admission rejects", rejected))
        rows.append(("drained", admission.get("drained", 0)))
    if steady_outcome is not None:
        rows.append(("steady", "yes" if steady_outcome["steady"] else "no"))
        rows.append(("stopped at (s)",
                     f"{steady_outcome['t']:.2f} of"
                     f" {steady_outcome['horizon']:.2f}"))
    print(format_table(("metric", "value"), rows))
    result = {
        "nodes": args.nodes,
        "transactions": count,
        "mean_mempool_latency_s": statistics.mean(latencies) if latencies else None,
        "chain_height": sim.nodes[0].ledger.height if args.blocks else None,
        "overhead_bytes": sim.total_overhead_bytes(),
        "exposures": sum(len(n.acct.exposed) for n in sim.nodes.values()),
        "drop_breakdown": sim.drop_breakdown(),
        "admission_breakdown": admission,
        "wire_violation_totals": sim.wire_violation_totals(),
        "metrics": sim.metrics_snapshot(),
    }
    if steady_outcome is not None:
        result["steady"] = steady_outcome
    if args.json:
        stream = io.StringIO()
        write_json(result, stream, label="run")
        write_atomic(args.json, stream.getvalue())
        print(f"[json written to {args.json}]")
    return 0


def _parse_param_value(text: str):
    """Best-effort scalar literal parsing for ``--param`` grid values."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text


def _parse_grid(params: List[str]):
    """``["nodes=10,20", "rate=5.0"]`` -> ``{"nodes": [10, 20], ...}``.

    A malformed item or an axis given twice is a usage error (exit 2):
    a second ``--param nodes=...`` would silently replace the first.
    """
    grid = {}
    for item in params:
        name, eq, values = item.partition("=")
        if not eq or not name or not values:
            _usage_error(f"--param must look like name=v1,v2,... (got {item!r})")
        if name in grid:
            _usage_error(f"--param {name} given twice; list its values once:"
                         f" {name}=v1,v2,...")
        grid[name] = [_parse_param_value(v) for v in values.split(",")]
    return grid


def _usage_error(message: str) -> None:
    print(f"repro sweep: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def cmd_sweep(args) -> int:
    from repro.exec import derive_tasks, experiment_names, run_sweep

    if args.experiment not in experiment_names():
        print(f"unknown experiment {args.experiment!r};"
              f" have {experiment_names()}", file=sys.stderr)
        return 2
    if args.task_traces and not args.out_dir:
        print("--task-traces requires --out-dir", file=sys.stderr)
        return 2
    if args.resume and not args.spool:
        print("--resume requires --spool DIR", file=sys.stderr)
        return 2
    grid = _parse_grid(args.param or [])
    tasks = derive_tasks(args.experiment, grid, base_seed=args.seed,
                         repetitions=args.repetitions)
    trace_dir = args.out_dir if args.task_traces else None
    if args.spool:
        from repro.exec import SpoolError, run_spool_sweep

        try:
            outcome = run_spool_sweep(
                args.spool, tasks, workers=args.workers,
                max_attempts=args.max_attempts,
                resume=args.resume, timeout_s=args.timeout,
                trace_dir=trace_dir,
                meta={"experiment": args.experiment, "grid": grid,
                      "base_seed": args.seed,
                      "repetitions": args.repetitions},
            )
        except SpoolError as exc:
            print(f"spool error: {exc}", file=sys.stderr)
            return 2
    else:
        outcome = run_sweep(
            tasks, workers=args.workers, timeout_s=args.timeout,
            max_attempts=args.max_attempts, trace_dir=trace_dir,
        )
    rows = [
        (o.task.index, o.task.seed, o.task.repetition,
         " ".join(f"{k}={v}" for k, v in sorted(o.task.params.items())) or "-",
         "ok" if o.ok else ("PARK" if o.parked else "FAIL"),
         f"{o.seconds:.2f}", o.attempts)
        for o in outcome.outcomes
    ]
    print(format_table(
        ("task", "seed", "rep", "params", "status", "task_s", "tries"), rows
    ))
    print(f"[{len(tasks)} tasks, {args.workers} worker(s),"
          f" wall {outcome.wall_seconds:.2f}s,"
          f" {len(outcome.failed())} failed]")
    if outcome.spool is not None:
        s = outcome.spool
        print(f"[spool {args.spool or '(temporary)'}:"
              f" {s['completed']}/{s['tasks_total']}"
              f" completed, {s['attempts']} attempt(s),"
              f" {s['parked']} parked,"
              f" {s.get('worker_restarts', 0)} worker restart(s)]")
    for parked in outcome.parked():
        print(f"  task {parked.task.index} PARKED: {parked.error}",
              file=sys.stderr)
    for failed in outcome.failed():
        if not failed.parked:
            print(f"  task {failed.task.index} failed: {failed.error}",
                  file=sys.stderr)

    if args.out_dir:
        outcome.write_run_dir(args.out_dir)
        print(f"[run directory {args.out_dir}: sweep.json, execution.json"
              + (", task-*.trace.jsonl" if trace_dir else "") + "]")

    code = 1 if outcome.failed() and args.strict else 0
    if args.check_serial:
        import tempfile

        # Tracing perturbs the event count a simulation reports (the
        # timeline's ``telemetry_tick`` is a loop event), so the serial
        # reference must run with the same tracing configuration -- its
        # artifacts go to a throwaway directory rather than clobbering
        # the run dir's.
        with tempfile.TemporaryDirectory() as scratch:
            serial = run_sweep(
                tasks, workers=1, timeout_s=args.timeout,
                trace_dir=scratch if trace_dir else None,
            )
        identical = serial.results_bytes() == outcome.results_bytes()
        speedup = (serial.wall_seconds / outcome.wall_seconds
                   if outcome.wall_seconds > 0 else 0.0)
        print(f"[serial check: wall {serial.wall_seconds:.2f}s vs"
              f" {outcome.wall_seconds:.2f}s parallel;"
              f" speedup {speedup:.2f}x;"
              f" results {'identical' if identical else 'DIFFER'}]")
        if not identical:
            print("serial and parallel sweep results differ", file=sys.stderr)
            code = 1
        if args.min_speedup and speedup < args.min_speedup:
            print(f"speedup {speedup:.2f}x below required"
                  f" {args.min_speedup:.2f}x", file=sys.stderr)
            code = 1
    return code


def load_sweep(path: str):
    """The ``repro.sweep/1`` document at ``path``, or None for any other
    file (a trace is line-JSON, so its first line is a whole record)."""
    import json

    with open(path, "r", encoding="utf-8") as stream:
        if stream.readline().strip() != "{":
            return None
        stream.seek(0)
        try:
            doc = json.load(stream)
        except ValueError:
            return None
    if isinstance(doc, dict) and doc.get("schema") == "repro.sweep/1":
        return doc
    return None


def cmd_report(args) -> int:
    from repro.obs.export import export_chrome, export_csv
    from repro.obs.schema import validate_trace_file

    doc = load_sweep(args.trace) if os.path.isfile(args.trace) else None
    if doc is not None:
        from repro.experiments.tables import render_sweep

        if args.chrome or args.csv:
            print("--chrome and --csv convert a trace, not a sweep document",
                  file=sys.stderr)
            return 2
        print(render_sweep(doc, args.trace))
        return 0
    errors = validate_trace_file(args.trace)
    if errors:
        for error in errors[:20]:
            print(error, file=sys.stderr)
        print(f"[{len(errors)} schema error(s) in {args.trace}]",
              file=sys.stderr)
        return 1
    meta, records = load_trace(args.trace)
    print(f"trace: {args.trace}  (schema repro.trace/1,"
          f" {len(records)} records)")
    if meta:
        print(format_table(
            ("meta", "value"), sorted((k, v) for k, v in meta.items())
        ))
    print()

    headers = ("span", "node", "count", "total_s", "mean_s", "max_s")
    aggregate = span_rows(records, per_node=False)
    if aggregate:
        print("span durations (all nodes)")
        print(format_table(headers, aggregate))
        print()
    else:
        print("no spans recorded")
        print()
    per_node = span_rows(records, per_node=True)
    if per_node:
        shown = per_node[: args.limit]
        print(f"span durations per node"
              f" ({len(shown)} of {len(per_node)} rows)")
        print(format_table(headers, shown))
        print()

    counts = event_counts(records)
    if counts:
        print("events")
        print(format_table(("event", "count"), counts))
        print()
    else:
        print("no events recorded")
        print()

    faults = fault_detection_rows(records)
    if faults:
        print("fault -> detection latency")
        print(format_table(
            ("node", "fault", "fault_t", "suspicion_t", "exposure_t",
             "latency_s"),
            [(n, k, t, _s(s), _s(e), _s(l)) for n, k, t, s, e, l in faults],
        ))
        print()
    else:
        print("no faults recorded (no chaos crashes, equivocations or"
              " block-policy violations in this trace)")
        print()

    rows = timeline_rows(records)
    if not rows:
        print("no timeline series recorded")
    else:
        print(f"timeline series ({len(rows)})")
        print(format_table(
            ("series", "kind", "bins", "bin_s", "total/last", "spark"), rows,
        ))
        print()
        counters = final_counters(records)
        caches = cache_rows(counters)
        if caches:
            print("cache effectiveness")
            print(format_table(("cache counter", "value"), caches))
            print()
        print("final counters")
        print(format_table(
            ("counter", "value"),
            [(name, value) for name, value in counters.items()
             if not name.startswith("caches.")],
        ))
        print()

    phases = phase_rows(records)
    if phases:
        print("wall time per phase")
        print(format_table(
            ("phase", "calls", "self_s", "incl_s", "self_frac"),
            [(p, c, f"{s:.4f}", f"{i:.4f}", f"{f:.1%}")
             for p, c, s, i, f in phases],
        ))
    else:
        print("no phases recorded")

    if args.chrome:
        written = export_chrome(records, args.chrome, meta)
        print(f"[chrome trace written to {args.chrome} ({written} events)]")
    if args.csv:
        written = export_csv(records, args.csv)
        print(f"[timeline csv written to {args.csv} ({written} rows)]")
    return 0


def detect_watch_target(target: str) -> str:
    """Classify a ``watch`` target: ``"spool"``, ``"trace"`` or ``""``.

    A directory holding a spool ``manifest.json`` is a sweep spool; any
    other file is read as a ``repro.trace/1`` file (a ``run --timeline``
    file while the run goes).  Empty string means neither was found.
    """
    if os.path.isfile(os.path.join(target, "manifest.json")):
        return "spool"
    if os.path.isfile(target):
        return "trace"
    return ""


def cmd_watch(args) -> int:
    import time as wall_time

    from repro.exec.spool import spool_is_finished, spool_status, \
        spool_watch_rows

    while True:
        kind = detect_watch_target(args.target)
        headers = ("field", "value")
        done = False
        if kind == "spool":
            status = spool_status(args.target)
            rows = spool_watch_rows(status)
            done = spool_is_finished(status)
        elif kind == "trace":
            try:
                meta, records = load_trace(args.target)
            except ValueError as exc:
                print(f"{args.target}: {exc}", file=sys.stderr)
                return 2
            done = not meta.get("partial")
            if not done:
                kind = "trace (partial)"
            headers = ("series", "kind", "bins", "bin_s", "total/last",
                       "spark")
            rows = timeline_rows(records)
        else:
            if args.once:
                print(f"{args.target}: no repro.trace/1 file or spool"
                      " manifest.json found", file=sys.stderr)
                return 2
            rows = [("status", "waiting for target to appear")]
        print(f"[watch {kind or 'pending'}: {args.target}]")
        print(format_table(headers, rows))
        if args.once or done:
            return 0
        print()
        wall_time.sleep(args.interval)


def _s(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.2f}"


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LO accountable-mempool reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a plain LO network")
    p.add_argument("--nodes", type=_checked(int, lambda v: v >= 2, ">= 2"),
                   default=30)
    p.add_argument("--rate", type=_POSITIVE, default=10.0)
    p.add_argument("--duration", type=_POSITIVE, default=20.0)
    p.add_argument("--drain", type=_NON_NEGATIVE, default=10.0)
    p.add_argument("--blocks", action="store_true")
    p.add_argument("--admission", action="store_true",
                   help="enable the production admission pipeline (fee"
                        " floor, RBF, nonce FIFOs, eviction, rate limits)"
                        " at every node's client ingress")
    p.add_argument("--workload", choices=["node", "poisson", "bursty"],
                   default="node",
                   help="'node': legacy node-minted injection;"
                        " 'poisson'/'bursty': open-loop client workload"
                        " with per-account keys and nonces (bursty ="
                        " two-state MMPP arrivals)")
    p.add_argument("--hot-fraction", type=_FRACTION, default=0.0,
                   help="fraction of open-loop traffic funnelled through"
                        " a handful of hot sender accounts (0 = pure Zipf)")
    p.add_argument("--scale", type=_AT_LEAST_ONE, default=1,
                   help="superpose this many replicas of the open-loop"
                        " trace (disjoint account ranges) for heavy traffic")
    p.add_argument("--rbf-fraction", type=_FRACTION, default=0.0,
                   help="probability an open-loop client re-submits its"
                        " previous nonce (exercises replace-by-fee)")
    p.add_argument("--timeline", type=str, default=None, metavar="PATH",
                   help="write a repro.trace/1 file of the run's"
                        " fixed-memory timeline series and its wall time"
                        " per phase, published (marked partial) while the"
                        " run goes; follow it with 'python -m repro watch"
                        " PATH', print it with 'python -m repro report"
                        " PATH'")
    p.add_argument("--until-steady", action="store_true",
                   help="stop as soon as the mean fee floor and pool"
                        " occupancy stop drifting (12 timeline bins within"
                        " 5%%) instead of always running to duration+drain")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "sweep",
        help="fan (experiment x seed x grid-point) tasks across worker"
             " processes; the merged results are byte-identical to a"
             " serial run (see docs/parallelism.md)",
    )
    p.add_argument("experiment", type=str,
                   help="registered experiment name (e.g. fig6_point, run,"
                        " fig9_point, fig10_point, memory_point)")
    p.add_argument("--param", action="append", metavar="NAME=V1,V2,...",
                   help="one grid axis; repeat for a cartesian product")
    p.add_argument("--repetitions", type=_AT_LEAST_ONE, default=1,
                   help="derived seeds per grid point (paper: 10)")
    p.add_argument("--seed", type=int, default=42,
                   help="base seed for derive_seeds")
    p.add_argument("--workers", type=_AT_LEAST_ONE, default=1,
                   help="task processes run at once (1 = serial,"
                        " in-process)")
    p.add_argument("--timeout", type=_POSITIVE, default=None, metavar="S",
                   help="per-task wall-clock budget, enforced in the task's"
                        " process; with --workers > 1 a task process still"
                        " running after 2 x S + 5s is killed. Timed-out"
                        " tasks are retried, then parked")
    p.add_argument("--spool", type=str, default=None, metavar="DIR",
                   help="durable spool directory: tasks, attempt counts"
                        " and results live as atomically-published files,"
                        " so the sweep survives task-process and"
                        " coordinator crashes (see docs/parallelism.md)")
    p.add_argument("--resume", action="store_true",
                   help="continue an interrupted --spool run: completed"
                        " and parked task indices are skipped")
    p.add_argument("--max-attempts", type=_AT_LEAST_ONE, default=3,
                   help="per-task attempt budget of a --spool or parallel"
                        " sweep: a task whose process crashed or timed out"
                        " this many times is parked (default 3)")
    p.add_argument("--out-dir", type=str, default=None,
                   help="run directory for sweep.json + execution.json"
                        " (+ per-task traces with --task-traces)")
    p.add_argument("--task-traces", action="store_true",
                   help="write a repro.trace/1 JSONL per task into --out-dir")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero if any task failed")
    p.add_argument("--check-serial", action="store_true",
                   help="re-run serially and verify byte-identical results")
    p.add_argument("--min-speedup", type=float, default=None,
                   help="with --check-serial: require at least this"
                        " parallel-over-serial wall-clock speedup")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "report",
        help="print a sweep document's figure table, or validate,"
             " summarise and convert a repro.trace/1 JSONL trace"
             " (span durations, fault->detection latency, timeline series,"
             " final counters, wall time per phase)",
    )
    p.add_argument("trace", type=str,
                   help="a sweep.json, or a --trace or --timeline JSONL"
                        " file")
    p.add_argument("--limit", type=_AT_LEAST_ONE, default=40,
                   help="max per-node span rows to print")
    p.add_argument("--chrome", type=str, default=None, metavar="OUT",
                   help="also write the trace as Chrome/Perfetto"
                        " trace-event JSON")
    p.add_argument("--csv", type=str, default=None, metavar="OUT",
                   help="also write the timeline series as a flat"
                        " series,kind,bin_s,t,value CSV")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "watch",
        help="tail a running run's --timeline file or a"
             " sweep --spool directory without disturbing it",
    )
    p.add_argument("target", type=str,
                   help="repro.trace/1 file or spool directory")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit (for scripts/CI)")
    p.add_argument("--interval", type=_POSITIVE, default=2.0,
                   help="poll interval in wall seconds (default 2)")
    p.set_defaults(func=cmd_watch)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    A command that writes a recording (``--trace`` / ``--timeline``) runs
    under a :class:`~repro.obs.tracer.Tracer` (``--trace`` only), a
    :class:`~repro.obs.timeline.TimelineRecorder` (publishing the
    ``--timeline`` file while the command runs) and a
    :class:`~repro.obs.phases.PhaseProfiler`, and each file is written
    afterwards with the profiler's ``phase`` records last.
    ``--until-steady`` alone installs the timeline it reads.  Otherwise
    every slot stays off and each instrumented site costs one attribute
    check.
    """
    args = build_parser().parse_args(argv)
    if args.command in ("report", "watch"):
        # report/watch only read artifacts.
        return args.func(args)
    trace_path = getattr(args, "trace", None)
    timeline_path = getattr(args, "timeline", None)
    if not (trace_path or timeline_path
            or getattr(args, "until_steady", False)):
        return args.func(args)

    from repro import obs

    meta = {
        "command": args.command,
        "seed": getattr(args, "seed", None),
    }
    tracer = profiler = None
    if trace_path:
        tracer = obs.Tracer(sample_every=args.trace_sample)
        meta["sample_every"] = args.trace_sample
    if trace_path or timeline_path:
        profiler = obs.PhaseProfiler()
    timeline = obs.TimelineRecorder(path=timeline_path, meta=meta)
    with obs.recording(tracer, timeline, profiler):
        code = args.func(args)
    for kind, path, records_of in (("trace", trace_path, tracer),
                                   ("timeline", timeline_path, None)):
        if path:
            written = obs.export_jsonl(records_of, path, meta,
                                       timeline=timeline, profiler=profiler)
            print(f"[{kind} written to {path} ({written} records)]")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
