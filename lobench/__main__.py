"""``python -m lobench``: the repo's cold, layer-attributed benchmark.

Three ways in:

* ``python -m lobench [--seed 7] [--repeats 5] [--workload NAME] [--out DIR]
  [--quick]`` runs the pre-flight check, then every workload (timed cold
  repeats plus one traced repeat), prints every metric and writes
  ``results.json`` and ``trace-<workload>.json`` into ``--out``.
* ``python -m lobench --workload NAME --seed N --seconds S --trace 0|1`` is
  the ``BENCHMARK.json`` command: one workload, repeats for about ``S``
  seconds, and one JSON object as the last line of output.
* ``python -m lobench --compare A.json B.json`` compares two result files.

Exit code 0 means every run succeeded and every check held.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from lobench import compare, runner


def _format(value: float) -> str:
    return f"{value:.6g}"


def print_workload(result: Dict[str, Any], declared: Dict[str, Any]) -> None:
    """One workload's metrics, by name, with unit, direction and samples."""
    print(f"\n== {result['workload']} (seed {result['seed']}) ==")
    print(f"runs attempted {result['attempted']}, failed {result['failed']}, "
          f"deterministic {result['deterministic']}, "
          f"disturbed repeats {result['disturbed_repeats']}")
    for run in result["runs"] + [result["traced_run"]]:
        if run and "failed" in run:
            print(f"  FAILED: {run['failed']} {run.get('stderr', '')}")
    end_to_end = result.get("end_to_end", {})
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    print(f"{'end-to-end metric':<34}{'unit':<8}{'better':<8}{'median':>12}"
          f"{'min':>12}{'max':>12}{'n':>4}{'bound':>7}")
    for name, summary in end_to_end.items():
        spec = next(m for m in declared["end_to_end"] + declared["per_layer"]
                    if m["name"] == name)
        bound = f"{bounds[name]['bound']:.0%}" if name in bounds else "-"
        print(f"{name:<34}{spec['unit']:<8}{spec['better']:<8}"
              f"{_format(summary['median']):>12}{_format(summary['min']):>12}"
              f"{_format(summary['max']):>12}{summary['n']:>4}{bound:>7}")
    wall = result.get("wall")
    if wall:
        print(f"as the clock read them: setup_s "
              f"{_format(wall['setup_s']['median'])}, run_s "
              f"{_format(wall['run_s']['median'])} at host speed "
              f"{_format(wall['host_speed']['median'])} of the reference")
    per_layer = result.get("per_layer")
    if per_layer is None:
        return
    print(f"{'per-layer metric (traced run)':<52}{'unit':<8}{'better':<8}"
          f"{'value':>14}")
    for spec in declared["per_layer"]:
        if spec["name"] in per_layer:
            print(f"{spec['name']:<52}{spec['unit']:<8}{spec['better']:<8}"
                  f"{_format(per_layer[spec['name']]):>14}")


def run_suite(args: argparse.Namespace, declared: Dict[str, Any]) -> int:
    """Every workload (or the one named), printed and written to ``--out``."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload \
        else [w["name"] for w in declared["workloads"]]
    check = runner.preflight(args.seed)
    print(f"pre-flight decode check: "
          f"{check.get('failed') or 'ok'} ({check.get('pairs', 0)} pairs, "
          f"{check.get('seconds', 0.0):.2f} s)")
    results = {}
    for name in names:
        results[name] = runner.measure_workload(
            name, args.seed, repeats=args.repeats, quick=args.quick,
            out_dir=out_dir,
        )
        print_workload(results[name], declared)
    first = next((run for r in results.values() for run in r["runs"]
                  if "env" in run), {})
    document = {
        "schema": runner.SCHEMA,
        "env": {**runner.environment(args.seed), **first.get("env", {}),
                "repeats": args.repeats, "quick": args.quick},
        "preflight": check,
        "workloads": results,
    }
    with open(out_dir / "results.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    ok = "failed" not in check and all(r["correct"] for r in results.values())
    print(f"\nresults: {out_dir / 'results.json'}  "
          f"({'all runs correct' if ok else 'FAILURES above'})")
    return 0 if ok else 1


def run_driver(args: argparse.Namespace, declared: Dict[str, Any]) -> int:
    """One workload for ``--seconds``; the result is the last output line."""
    traced = args.trace == 1
    check = runner.preflight(args.seed)
    result = runner.measure_workload(
        args.workload, args.seed, seconds=args.seconds, timed=not traced,
        traced=traced, quick=args.quick,
    )
    measured = {name: summary["median"]
                for name, summary in result.get("end_to_end", {}).items()}
    measured.update(result.get("per_layer", {}))
    wanted = declared["per_layer" if traced else "end_to_end"]
    missing = [spec["name"] for spec in wanted if spec["name"] not in measured]
    if missing:
        for run in result["runs"] + [result["traced_run"], check]:
            if run and "failed" in run:
                print(f"FAILED: {run['failed']} {run.get('stderr', '')}",
                      file=sys.stderr)
        print(f"no result: missing {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["correct"] and "failed" not in check,
        "attempted": result["attempted"] + 1,
        "failed": result["failed"] + ("failed" in check),
        "metrics": {
            spec["name"]: {"value": measured[spec["name"]],
                           "unit": spec["unit"]}
            for spec in wanted
        },
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse the command line and dispatch to one of the three modes."""
    parser = argparse.ArgumentParser(prog="python -m lobench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of the generated inputs (default 7)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed cold repeats per workload (default 5)")
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--out", default="lobench-out",
                        help="directory for results.json and trace files")
    parser.add_argument("--quick", action="store_true",
                        help="shrunk workloads, for a smoke test")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two results files and exit")
    parser.add_argument("--seconds", type=float,
                        help="BENCHMARK.json mode: measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="BENCHMARK.json mode: 1 reports per-layer metrics")
    args = parser.parse_args(argv)
    declared = runner.catalogue()
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], declared)
    known = [w["name"] for w in declared["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; one of {known}")
    if not (runner.ROOT / "src" / "repro").is_dir():
        print("no src/repro beside lobench/: nothing to measure",
              file=sys.stderr)
        return 2
    if args.seconds is not None:
        if args.workload is None:
            parser.error("--seconds needs --workload")
        return run_driver(args, declared)
    return run_suite(args, declared)


if __name__ == "__main__":
    sys.exit(main())
