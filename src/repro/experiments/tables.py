"""A figure's table, rendered from its committed sweep document.

A figure is one ``python -m repro sweep <entry> --param ... --out-dir
results/<name>`` run; ``python -m repro report results/<name>/sweep.json``
prints its table through :func:`render_sweep`.  The module of each
registered entry's runner has a ``table(tasks)`` that turns the
document's successful tasks into sections of ``(title, headers, rows)``.  Arithmetic across tasks lives there: Fig. 7
pools its repetitions, Fig. 8 sets each size's policies side by side and
Fig. 9 divides by the LO row of the same seed.  Every other table, and the
``run`` entry's (:mod:`repro.experiments.plain_run`), is one row per task.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Dict, List

from repro.exec.tasks import EXPERIMENTS
from repro.obs.report import format_table


def _values(tasks: List[Dict[str, Any]], name: str) -> List[Any]:
    """The distinct values of one parameter, in task order."""
    seen: List[Any] = []
    for task in tasks:
        if task["params"][name] not in seen:
            seen.append(task["params"][name])
    return seen


def render_sweep(doc: Dict[str, Any], path: str) -> str:
    """The text ``report`` prints for a ``repro.sweep/1`` document: what
    was swept (each parameter's values and the seeds), then the tables of
    its successful tasks.  The table is the ``table`` function of the
    module that defines the experiment's registered runner; an experiment
    with none gets the sweep summary alone.
    """
    tasks = doc["tasks"]
    ok = [task for task in tasks if task["ok"]]
    experiment = tasks[0]["experiment"]
    lines = [
        f"sweep: {path}  (schema repro.sweep/1, {experiment},"
        f" {len(tasks)} tasks, {len(tasks) - len(ok)} failed)",
        format_table(
            ("param", "values"),
            [(name, ", ".join(str(v) for v in _values(tasks, name)))
             for name in sorted(tasks[0]["params"])]
            + [("seed", ", ".join(
                str(s) for s in dict.fromkeys(t["seed"] for t in tasks)))],
        ),
    ]
    runner = EXPERIMENTS.get(experiment)
    table = runner and getattr(import_module(runner.__module__), "table", None)
    if table and ok:
        for title, headers, rows in table(ok):
            lines += ["", title, format_table(headers, rows)]
    return "\n".join(lines)
