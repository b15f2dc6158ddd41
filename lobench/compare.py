"""``python -m lobench --compare A.json B.json``: is B no worse than A?

For every workload and end-to-end metric both files hold, prints the two
medians, how much worse B is than A as a share of A (negative when B is
better), the metric's bound from ``BENCHMARK.json`` and PASS or FAIL.
Used A/A (two result sets of one commit must agree) and parent/child.
Simulated metrics repeat exactly at equal seed and are comparable only
then.
"""

from __future__ import annotations

import json
from typing import Any, Dict


def worsening(spec: Dict[str, Any], a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    change = (b - a) / a if a else float(b != a)
    return change if spec["better"] == "lower" else -change


def main(path_a: str, path_b: str, declared: Dict[str, Any]) -> int:
    """Print the comparison table; 1 when any row fails, else 0."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    if a["env"]["seed"] != b["env"]["seed"]:
        print(f"note: seeds differ ({a['env']['seed']} vs {b['env']['seed']}):"
              " simulated metrics are comparable only at equal seed")
    failures = 0
    print(f"{'workload':<17}{'metric':<30}{'A median':>12}{'B median':>12}"
          f"{'worse by':>10}{'bound':>7}  verdict")
    for workload in declared["workloads"]:
        name = workload["name"]
        in_a, in_b = a["workloads"].get(name), b["workloads"].get(name)
        if in_a is None or in_b is None:
            continue
        for label, result in (("A", in_a), ("B", in_b)):
            if not result["correct"]:
                failures += 1
                print(f"{name:<17}{label} has failed runs or checks"
                      f"{'':>41}  FAIL")
        for spec in declared["end_to_end"]:
            metric = spec["name"]
            if metric not in in_a.get("end_to_end", {}) \
                    or metric not in in_b.get("end_to_end", {}):
                continue
            median_a = in_a["end_to_end"][metric]["median"]
            median_b = in_b["end_to_end"][metric]["median"]
            worse = worsening(spec, median_a, median_b)
            passed = worse <= spec["bound"]
            failures += not passed
            print(f"{name:<17}{metric:<30}{median_a:>12.6g}{median_b:>12.6g}"
                  f"{worse:>+10.2%}{spec['bound']:>7.0%}  "
                  f"{'PASS' if passed else 'FAIL'}")
    print("all rows pass" if not failures else f"{failures} row(s) FAIL")
    return 1 if failures else 0
