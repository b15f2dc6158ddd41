"""Validation for the ``repro.trace/1`` JSONL schema.

Dependency-free structural validation (the container has no jsonschema):
:func:`validate_trace_lines` walks a trace line by line and returns a list
of human-readable errors, empty when the trace conforms.  Used by the
trace regression tests, the ``python -m repro report`` verb and the CI
trace-smoke job.

Schema (one JSON object per line):

* line 1 -- ``{"schema": "repro.trace/1", "meta": {...}}``
* ``{"type": "event", "t": float, "name": str, "node": int|null,
  "attrs": {...}}``
* ``{"type": "span", "name": str, "node": int|null, "t_start": float,
  "t_end": float >= t_start, "span_id": int, "parent_id": int|null,
  "attrs": {...}}``
* ``{"type": "timeline", "name": str, "kind": "counter"|"gauge",
  "bin_s": float > 0, "points": [[t, v], ...]}`` -- one fixed-memory
  series from :mod:`repro.obs.timeline`, timestamps strictly increasing.
* ``{"type": "phase", "name": str, "calls": int >= 0, "self_s": float,
  "incl_s": float}`` -- one phase profiler total
  (:mod:`repro.obs.phases`), the one record type in wall-clock seconds.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, List

from repro.obs.timeline import COUNTER, GAUGE
from repro.obs.tracer import TRACE_SCHEMA


def _is_num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_event(record: dict, where: str, errors: List[str]) -> None:
    if not _is_num(record.get("t")):
        errors.append(f"{where}: event missing numeric 't'")
    if not isinstance(record.get("name"), str) or not record.get("name"):
        errors.append(f"{where}: event missing non-empty 'name'")
    node = record.get("node")
    if node is not None and not isinstance(node, int):
        errors.append(f"{where}: event 'node' must be int or null")
    if not isinstance(record.get("attrs"), dict):
        errors.append(f"{where}: event missing 'attrs' object")


def _check_span(record: dict, where: str, errors: List[str]) -> None:
    if not isinstance(record.get("name"), str) or not record.get("name"):
        errors.append(f"{where}: span missing non-empty 'name'")
    start, end = record.get("t_start"), record.get("t_end")
    if not _is_num(start) or not _is_num(end):
        errors.append(f"{where}: span missing numeric 't_start'/'t_end'")
    elif end < start:
        errors.append(f"{where}: span ends before it starts")
    if not isinstance(record.get("span_id"), int):
        errors.append(f"{where}: span missing integer 'span_id'")
    parent = record.get("parent_id")
    if parent is not None and not isinstance(parent, int):
        errors.append(f"{where}: span 'parent_id' must be int or null")
    node = record.get("node")
    if node is not None and not isinstance(node, int):
        errors.append(f"{where}: span 'node' must be int or null")
    if not isinstance(record.get("attrs"), dict):
        errors.append(f"{where}: span missing 'attrs' object")


def _check_timeline(record: dict, where: str, errors: List[str]) -> None:
    if not isinstance(record.get("name"), str) or not record.get("name"):
        errors.append(f"{where}: timeline missing non-empty 'name'")
    if record.get("kind") not in (COUNTER, GAUGE):
        errors.append(f"{where}: timeline 'kind' must be counter|gauge")
    bin_s = record.get("bin_s")
    if not _is_num(bin_s) or bin_s <= 0:
        errors.append(f"{where}: timeline missing positive 'bin_s'")
    points = record.get("points")
    if not isinstance(points, list):
        errors.append(f"{where}: timeline missing 'points' list")
        return
    previous = None
    for point in points:
        if (not isinstance(point, list) or len(point) != 2
                or not all(_is_num(x) for x in point)):
            errors.append(f"{where}: timeline point {point!r} is not [t, v]")
            return
        if previous is not None and point[0] <= previous:
            errors.append(f"{where}: timeline timestamps not increasing")
            return
        previous = point[0]


def _check_phase(record: dict, where: str, errors: List[str]) -> None:
    if not isinstance(record.get("name"), str) or not record.get("name"):
        errors.append(f"{where}: phase missing non-empty 'name'")
    calls = record.get("calls")
    if not isinstance(calls, int) or isinstance(calls, bool) or calls < 0:
        errors.append(f"{where}: phase missing non-negative integer 'calls'")
    if not _is_num(record.get("self_s")) or not _is_num(record.get("incl_s")):
        errors.append(f"{where}: phase missing numeric 'self_s'/'incl_s'")


_CHECKS = {
    "event": _check_event,
    "span": _check_span,
    "timeline": _check_timeline,
    "phase": _check_phase,
}


def validate_trace_lines(lines: Iterable[str]) -> List[str]:
    """Validate an iterable of JSONL lines; returns (possibly empty) errors."""
    errors: List[str] = []
    saw_header = False
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"line {lineno}"
        try:
            record = json.loads(line)
        except ValueError as exc:
            errors.append(f"{where}: not valid JSON ({exc})")
            continue
        if not isinstance(record, dict):
            errors.append(f"{where}: record is not a JSON object")
            continue
        if not saw_header:
            saw_header = True
            if record.get("schema") != TRACE_SCHEMA:
                errors.append(
                    f"{where}: header schema is {record.get('schema')!r},"
                    f" expected {TRACE_SCHEMA!r}"
                )
            if not isinstance(record.get("meta"), dict):
                errors.append(f"{where}: header missing 'meta' object")
            continue
        kind = record.get("type")
        check = _CHECKS.get(kind) if isinstance(kind, str) else None
        if check is None:
            errors.append(
                f"{where}: unknown record type {kind!r}"
                f" (expected one of {tuple(_CHECKS)})"
            )
        else:
            check(record, where, errors)
    if not saw_header:
        errors.append("trace is empty (no header line)")
    return errors


def validate_trace_file(path: str) -> List[str]:
    """Validate a trace file on disk; returns (possibly empty) errors."""
    with open(path, "r", encoding="utf-8") as stream:
        return validate_trace_lines(stream)
