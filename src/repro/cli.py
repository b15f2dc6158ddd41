"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro run   --nodes 40 --rate 10 --duration 20 --blocks
    python -m repro fig6  --nodes 50 --fractions 0.1 0.2 0.3
    python -m repro fig7  --nodes 80 --rate 20
    python -m repro fig8  --nodes 40 --sizes 20 40 60
    python -m repro fig9  --nodes 60
    python -m repro fig10 --workloads 60 180 420
    python -m repro memory --workloads 120 600
    python -m repro cpu   --difference 128
    python -m repro fig6  --nodes 20 --fractions 0.2 --trace t.jsonl
    python -m repro sweep fig6_point --param malicious_fraction=0.1,0.2 \
        --param num_nodes=20 --repetitions 4 --workers 4 --out-dir sweep-out
    python -m repro report t.jsonl --chrome t.chrome.json

``run`` and every figure verb share one option group (``--seed``,
``--json PATH`` to dump the raw result object, ``--trace PATH`` for a
deterministic ``repro.trace/1`` JSONL trace with the run's timeline
series) and run in this process.  ``sweep`` is the one parallel verb: it
fans an (experiment x seed x grid) task matrix across spool worker
processes with crash containment and a deterministic merge, and each
figure's parallel form is a sweep of its registered point (see
``docs/parallelism.md``).  ``report`` summarises a trace and converts it
(Chrome trace-event JSON for Perfetto, CSV of the timeline series).
"""

from __future__ import annotations

import argparse
import statistics
import sys
from typing import List, Optional

from repro.obs.report import (
    cache_rows,
    event_counts,
    fault_detection_rows,
    final_counters,
    format_table,
    load_trace,
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


def _emit(result, args, label: str) -> None:
    if args.json:
        with open(args.json, "w", encoding="utf-8") as stream:
            write_json(result, stream, label=label)
        print(f"[json written to {args.json}]")


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
    sim.finalize_telemetry()
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
    profiler = getattr(args, "_profiler", None)
    if profiler is not None:
        result["phases"] = profiler.as_dict()
    _emit(result, args, "run")
    return 0


def cmd_fig6(args) -> int:
    from repro.experiments.fig6_detection import run_fig6

    result = run_fig6(num_nodes=args.nodes, fractions=args.fractions,
                      seed=args.seed)
    rows = [
        (
            f"{p.malicious_fraction:.0%}",
            p.num_malicious,
            _s(p.suspicion_convergence_at),
            _s(p.exposure_convergence_at),
            _s(p.exposure_spread_s),
        )
        for p in result.points
    ]
    print(format_table(
        ("malicious", "count", "suspicion_s", "exposure_s", "spread_s"), rows
    ))
    _emit(result, args, "fig6")
    return 0


def cmd_fig7(args) -> int:
    from repro.experiments.fig7_mempool_latency import run_fig7

    result = run_fig7(num_nodes=args.nodes, tx_rate_per_s=args.rate,
                      workload_duration_s=args.duration, seed=args.seed,
                      repetitions=args.repetitions)
    rows = [(k, f"{v:.3f}") for k, v in result.summary.items()]
    print(format_table(("metric", "value"), rows))
    _emit(result, args, "fig7")
    return 0


def cmd_fig8(args) -> int:
    from repro.experiments.fig8_block_latency import run_fig8

    result = run_fig8(num_nodes=args.nodes, size_sweep=args.sizes,
                      tx_rate_per_s=args.rate,
                      workload_duration_s=args.duration, seed=args.seed)
    rows = []
    for policy in (result.fifo, result.highest_fee):
        s = policy.summary
        rows.append((policy.policy, f"{s['mean']:.2f}", f"{s['p50']:.2f}",
                     f"{s['p90']:.2f}", f"{s['p99']:.2f}", f"{s['std']:.2f}"))
    print(format_table(("policy", "mean", "p50", "p90", "p99", "std"), rows))
    if result.size_sweep:
        print()
        print(format_table(
            ("nodes", "fifo_mean_s"),
            [(n, f"{s['mean']:.2f}") for n, s in sorted(result.size_sweep.items())],
        ))
    _emit(result, args, "fig8")
    return 0


def cmd_fig9(args) -> int:
    from repro.experiments.fig9_bandwidth import run_fig9

    result = run_fig9(num_nodes=args.nodes, tx_rate_per_s=args.rate,
                      workload_duration_s=args.duration, seed=args.seed)
    rows = [
        (r.protocol, f"{r.overhead_bytes / 1e6:.2f}",
         f"{r.ratio_vs_lo:.1f}x", f"{r.mean_latency_s:.2f}")
        for r in result.rows
    ]
    print(format_table(("protocol", "overhead_MB", "vs_LO", "latency_s"), rows))
    _emit(result, args, "fig9")
    return 0


def cmd_fig10(args) -> int:
    from repro.experiments.fig10_reconciliations import run_fig10

    result = run_fig10(workloads_tx_per_minute=args.workloads,
                       num_nodes=args.nodes, duration_s=args.duration,
                       seed=args.seed)
    rows = [
        (f"{p.tx_per_minute:.0f}",
         f"{p.reconciliations_per_node_per_min:.1f}",
         f"{p.failure_fraction:.1%}")
        for p in result.points
    ]
    print(format_table(("tx/min", "recon/node/min", "failure_frac"), rows))
    _emit(result, args, "fig10")
    return 0


def cmd_memory(args) -> int:
    from repro.experiments.sec65_memory import run_memory_sweep

    result = run_memory_sweep(workloads_tx_per_minute=args.workloads,
                              num_nodes=args.nodes,
                              duration_s=args.duration, seed=args.seed)
    rows = [
        (f"{p.tx_per_minute:.0f}", f"{p.avg_commitment_bytes:.0f}",
         f"{p.extrapolated_10k_nodes_mb:.1f}")
        for p in result.points
    ]
    print(format_table(("tx/min", "avg_commitment_B", "10k_nodes_MB"), rows))
    _emit(result, args, "memory")
    return 0


def cmd_cpu(args) -> int:
    from repro.experiments.sec65_cpu import run_cpu_comparison, run_cpu_sweep

    if args.differences:
        result = run_cpu_sweep(args.differences,
                               partition_capacity=args.capacity,
                               seed=args.seed)
        points = result.points
    else:
        result = run_cpu_comparison(difference=args.difference,
                                    partition_capacity=args.capacity,
                                    seed=args.seed)
        points = [result]
    rows = [(p.difference, f"{p.naive_seconds:.3f}",
             f"{p.partitioned_seconds:.3f}", f"{p.speedup:.1f}x")
            for p in points]
    print(format_table(
        ("difference", "naive_s", "partitioned_s", "speedup"), rows
    ))
    _emit(result, args, "cpu")
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
    """``["nodes=10,20", "rate=5.0"]`` -> ``{"nodes": [10, 20], ...}``."""
    grid = {}
    for item in params:
        name, eq, values = item.partition("=")
        if not eq or not name or not values:
            raise SystemExit(
                f"--param must look like name=v1,v2,... (got {item!r})"
            )
        grid[name] = [_parse_param_value(v) for v in values.split(",")]
    return grid


def cmd_sweep(args) -> int:
    from repro.exec import (SpoolConfig, derive_tasks, experiment_names,
                            run_sweep)

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
    config = SpoolConfig(
        heartbeat_s=args.heartbeat,
        lease_timeout_s=args.lease_timeout,
        max_attempts=args.max_attempts,
    )
    if args.spool:
        from repro.exec import SpoolError, run_spool_sweep

        try:
            outcome = run_spool_sweep(
                args.spool, tasks, workers=args.workers, config=config,
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
            config=config, trace_dir=trace_dir,
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
              f" {s['reclaims']} reclaim(s), {s['parked']} parked,"
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
    if args.json:
        with open(args.json, "wb") as stream:
            stream.write(outcome.results_bytes())
        print(f"[json written to {args.json}]")

    code = 1 if outcome.failed() and args.strict else 0
    if args.check_serial:
        import tempfile

        # Tracing perturbs the event count a simulation reports (metric
        # snapshots are loop events), so the serial reference must run
        # with the same tracing configuration -- its artifacts go to a
        # throwaway directory rather than clobbering the run dir's.
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


def cmd_report(args) -> int:
    from repro.obs.export import export_chrome, export_csv
    from repro.obs.schema import validate_trace_file

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

    if args.chrome:
        written = export_chrome(records, args.chrome, meta)
        print(f"[chrome trace written to {args.chrome} ({written} events)]")
    if args.csv:
        written = export_csv(records, args.csv)
        print(f"[timeline csv written to {args.csv} ({written} rows)]")
    return 0


def cmd_watch(args) -> int:
    import time as wall_time

    from repro.obs.live import (
        detect_watch_target,
        read_telemetry,
        spool_is_finished,
        spool_watch_rows,
        telemetry_is_finished,
        telemetry_rows,
    )

    while True:
        kind = detect_watch_target(args.target)
        done = False
        if kind == "spool":
            from repro.exec.spool import spool_status

            status = spool_status(args.target)
            rows = spool_watch_rows(status)
            done = spool_is_finished(status)
        elif kind == "telemetry":
            doc = read_telemetry(args.target)
            if doc is None:
                rows = [("status", "telemetry file not readable yet")]
            else:
                rows = telemetry_rows(doc)
                done = telemetry_is_finished(doc)
        else:
            if args.once:
                print(f"{args.target}: no telemetry.json or spool"
                      " manifest.json found", file=sys.stderr)
                return 2
            rows = [("status", "waiting for target to appear")]
        print(f"[watch {kind or 'pending'}: {args.target}]")
        print(format_table(("field", "value"), rows))
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
    p.add_argument("--nodes", type=int, default=30)
    p.add_argument("--rate", type=float, default=10.0)
    p.add_argument("--duration", type=float, default=20.0)
    p.add_argument("--drain", type=float, default=10.0)
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
    p.add_argument("--hot-fraction", type=float, default=0.0,
                   help="fraction of open-loop traffic funnelled through"
                        " a handful of hot sender accounts (0 = pure Zipf)")
    p.add_argument("--scale", type=int, default=1,
                   help="superpose this many replicas of the open-loop"
                        " trace (disjoint account ranges) for heavy traffic")
    p.add_argument("--rbf-fraction", type=float, default=0.0,
                   help="probability an open-loop client re-submits its"
                        " previous nonce (exercises replace-by-fee)")
    p.add_argument("--timeline", type=str, default=None, metavar="PATH",
                   help="write a repro.trace/1 file of the run's"
                        " fixed-memory timeline series alone")
    p.add_argument("--until-steady", action="store_true",
                   help="stop as soon as the mean fee floor and pool"
                        " occupancy stop drifting (12 timeline bins within"
                        " 5%%) instead of always running to duration+drain")
    p.add_argument("--telemetry-dir", type=str, default=None, metavar="DIR",
                   help="publish a live telemetry.json status document into"
                        " DIR (atomic replace; tail it with"
                        " 'python -m repro watch DIR')")
    p.add_argument("--phases", action="store_true",
                   help="profile wall-clock time per phase (net, reconcile,"
                        " mempool, crypto, ...) and print the table")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("fig6", help="detection times vs malicious fraction")
    p.add_argument("--nodes", type=int, default=50)
    p.add_argument("--fractions", type=float, nargs="+",
                   default=[0.1, 0.2, 0.3])
    _add_common(p)
    p.set_defaults(func=cmd_fig6)

    p = sub.add_parser("fig7", help="mempool inclusion latency density")
    p.add_argument("--nodes", type=int, default=80)
    p.add_argument("--rate", type=float, default=20.0)
    p.add_argument("--duration", type=float, default=20.0)
    p.add_argument("--repetitions", type=_AT_LEAST_ONE, default=1,
                   help="repeat at derived seeds and pool the samples"
                        " (paper: 10)")
    _add_common(p)
    p.set_defaults(func=cmd_fig7)

    p = sub.add_parser("fig8", help="FIFO vs Highest-Fee block latency")
    p.add_argument("--nodes", type=int, default=40)
    p.add_argument("--rate", type=float, default=5.0)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--sizes", type=int, nargs="*", default=[])
    _add_common(p)
    p.set_defaults(func=cmd_fig8)

    p = sub.add_parser("fig9", help="bandwidth overhead across protocols")
    p.add_argument("--nodes", type=int, default=60)
    p.add_argument("--rate", type=float, default=10.0)
    p.add_argument("--duration", type=float, default=15.0)
    _add_common(p)
    p.set_defaults(func=cmd_fig9)

    p = sub.add_parser("fig10", help="reconciliations per minute vs workload")
    p.add_argument("--nodes", type=int, default=40)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--workloads", type=float, nargs="+",
                   default=[60, 180, 420])
    _add_common(p)
    p.set_defaults(func=cmd_fig10)

    p = sub.add_parser("memory", help="commitment sizes vs workload")
    p.add_argument("--nodes", type=int, default=30)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--workloads", type=float, nargs="+",
                   default=[120, 600])
    _add_common(p)
    p.set_defaults(func=cmd_memory)

    p = sub.add_parser("cpu", help="naive vs partitioned decode timing")
    p.add_argument("--difference", type=int, default=128)
    p.add_argument("--differences", type=int, nargs="*", default=[],
                   help="sweep several difference sizes (one row each);"
                        " overrides --difference")
    p.add_argument("--capacity", type=int, default=16)
    _add_common(p)
    p.set_defaults(func=cmd_cpu)

    p = sub.add_parser(
        "sweep",
        help="fan (experiment x seed x grid-point) tasks across worker"
             " processes; the merged results are byte-identical to a"
             " serial run (see docs/parallelism.md)",
    )
    p.add_argument("experiment", type=str,
                   help="registered experiment name (e.g. fig6_point, run,"
                        " fig9, fig10_point, memory_point)")
    p.add_argument("--param", action="append", metavar="NAME=V1,V2,...",
                   help="one grid axis; repeat for a cartesian product")
    p.add_argument("--repetitions", type=_AT_LEAST_ONE, default=1,
                   help="derived seeds per grid point (paper: 10)")
    p.add_argument("--seed", type=int, default=42,
                   help="base seed for derive_seeds")
    p.add_argument("--workers", type=_AT_LEAST_ONE, default=1,
                   help="worker processes (1 = serial)")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="per-task wall-clock budget, enforced in the worker;"
                        " with --workers > 1 a worker still on a task after"
                        " 2 x S + 5s is killed. Timed-out tasks are retried,"
                        " then parked")
    p.add_argument("--spool", type=str, default=None, metavar="DIR",
                   help="durable spool directory: tasks/leases/results live"
                        " as atomically-published files, so the sweep"
                        " survives worker and coordinator crashes and"
                        " multiple hosts can share one directory"
                        " (see docs/parallelism.md)")
    p.add_argument("--resume", action="store_true",
                   help="continue an interrupted --spool run: completed"
                        " task indices are skipped, stale leases reclaimed")
    p.add_argument("--heartbeat", type=float, default=5.0, metavar="S",
                   help="spool lease heartbeat interval (default 5s)")
    p.add_argument("--lease-timeout", type=float, default=None, metavar="S",
                   help="spool lease staleness threshold (default"
                        " 3 x heartbeat)")
    p.add_argument("--max-attempts", type=_AT_LEAST_ONE, default=3,
                   help="per-task attempt budget of a parallel sweep: a task"
                        " whose worker crashed or timed out this many times"
                        " is parked (default 3)")
    p.add_argument("--out-dir", type=str, default=None,
                   help="run directory for sweep.json + execution.json"
                        " (+ per-task traces with --task-traces)")
    p.add_argument("--task-traces", action="store_true",
                   help="write a repro.trace/1 JSONL per task into --out-dir")
    p.add_argument("--json", type=str, default=None,
                   help="write the merged repro.sweep/1 results document")
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
        help="validate, summarise and convert a repro.trace/1 JSONL trace"
             " (span durations, fault->detection latency, timeline series,"
             " final counters)",
    )
    p.add_argument("trace", type=str,
                   help="path to a --trace or --timeline JSONL file")
    p.add_argument("--limit", type=int, default=40,
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
        help="tail a running run --telemetry-dir directory or a"
             " sweep --spool directory without disturbing it",
    )
    p.add_argument("target", type=str,
                   help="telemetry directory/file or spool directory")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit (for scripts/CI)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="poll interval in wall seconds (default 2)")
    p.set_defaults(func=cmd_watch)

    return parser


def _timeline_requested(args) -> bool:
    """Whether the verb's flags ask for a timeline recorder."""
    return bool(
        getattr(args, "trace", None)
        or getattr(args, "timeline", None)
        or getattr(args, "until_steady", False)
        or getattr(args, "telemetry_dir", None)
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    When ``--trace`` is given, a real tracer and a timeline recorder are
    installed for the duration of the command and the collected records
    are exported afterwards; otherwise the process-wide no-op tracer stays
    in place and tracing costs one attribute check per instrumented site.
    The same pattern covers the other telemetry layers: ``--timeline`` /
    ``--until-steady`` / ``--telemetry-dir`` install a
    :class:`~repro.obs.timeline.TimelineRecorder` and ``--phases`` a
    :class:`~repro.obs.phases.PhaseProfiler` for the command's duration.
    """
    args = build_parser().parse_args(argv)
    if args.command in ("report", "watch"):
        # report/watch only read artifacts.
        return args.func(args)
    trace_path = getattr(args, "trace", None)
    wants_timeline = _timeline_requested(args)
    wants_phases = getattr(args, "phases", False)
    if not wants_timeline and not wants_phases:
        return args.func(args)

    from contextlib import ExitStack

    from repro import obs

    meta = {
        "command": args.command,
        "seed": getattr(args, "seed", None),
    }
    tracer = None
    timeline = None
    profiler = None
    with ExitStack() as stack:
        if trace_path:
            tracer = obs.Tracer(sample_every=args.trace_sample)
            meta["sample_every"] = args.trace_sample
            stack.enter_context(obs.use_tracer(tracer))
        if wants_timeline:
            timeline = obs.TimelineRecorder()
            if getattr(args, "telemetry_dir", None):
                timeline.sink = obs.TelemetrySink(args.telemetry_dir)
            stack.enter_context(obs.use_timeline(timeline))
        if wants_phases:
            profiler = obs.PhaseProfiler()
            args._profiler = profiler
            stack.enter_context(obs.use_profiler(profiler))
        code = args.func(args)
    if tracer is not None:
        written = obs.export_jsonl(tracer, trace_path, meta,
                                   timeline=timeline)
        print(f"[trace written to {trace_path} ({written} records)]")
    if getattr(args, "timeline", None):
        written = obs.export_jsonl(None, args.timeline, meta,
                                   timeline=timeline)
        print(f"[timeline written to {args.timeline} ({written} series)]")
    if timeline is not None and timeline.sink is not None:
        print(f"[telemetry published to {timeline.sink.path}"
              f" ({timeline.sink.flushes} flushes)]")
    if profiler is not None:
        print()
        print(format_table(
            ("phase", "calls", "self_s", "incl_s", "self_frac"),
            [(p, c, f"{s:.4f}", f"{i:.4f}", f"{f:.1%}")
             for p, c, s, i, f in profiler.rows()],
        ))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
