"""Trace exporters: ``repro.trace/1`` JSONL, and conversions of its records.

JSONL is the one recording format (one JSON object per line, documented
in ``docs/observability.md`` and validated by :mod:`repro.obs.schema`).
The first line is a header carrying the schema tag and run metadata;
every later line is one record: the tracer's events and spans in
emission order, then the timeline's series, then the phase profiler's
totals.  Serialisation uses sorted keys and fixed separators, so a
deterministic simulation produces a byte-identical file but for its
``phase`` records, the one record type that holds wall-clock seconds.

The other formats are made from a trace's loaded records
(``python -m repro report TRACE --chrome OUT`` / ``--csv OUT``):

* Chrome trace-event JSON, the subset Perfetto / ``chrome://tracing``
  understand: complete ("X") events for spans, instant ("i") events for
  events, and one counter ("C") track per timeline series.  Sim seconds
  become microseconds (the viewers' native unit); node ids become thread
  ids so each node gets its own swimlane.
* a flat ``series,kind,bin_s,t,value`` CSV of the timeline series.

Both skip ``phase`` records: they carry no simulated time.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.obs.tracer import TRACE_SCHEMA, Tracer


def write_atomic(path: str, data: Union[str, bytes]) -> None:
    """Publish ``data`` at ``path`` via a temp file and ``os.replace``.

    A reader sees the old file or the new one, never a torn write; the
    sweep spool's files go through here too.  Creates ``path``'s directory.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    with open(tmp, "wb") as stream:
        stream.write(data)
    os.replace(tmp, path)


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def trace_lines(tracer: Optional[Tracer],
                meta: Optional[Dict[str, Any]] = None,
                timeline=None, profiler=None) -> List[str]:
    """The JSONL export as a list of lines (header first, no newlines).

    ``timeline`` may be a :class:`repro.obs.timeline.TimelineRecorder`;
    its series are appended as ``timeline`` records after the tracer's
    emission-ordered stream (they summarise the whole run, so they have
    no single emission point).  With ``tracer=None`` the file holds no
    events or spans (``run --timeline``).  ``profiler`` may be a
    :class:`repro.obs.phases.PhaseProfiler`; its totals come last, as
    ``phase`` records.
    """
    header = {"schema": TRACE_SCHEMA, "meta": meta or {}}
    lines = [_dumps(header)]
    if tracer is not None:
        lines.extend(_dumps(record) for record in tracer.records)
    if timeline is not None:
        lines.extend(_dumps(record)
                     for record in timeline.timeline_records())
    if profiler is not None:
        lines.extend(_dumps(record) for record in profiler.phase_records())
    return lines


def export_jsonl(tracer: Optional[Tracer], path: str,
                 meta: Optional[Dict[str, Any]] = None,
                 timeline=None, profiler=None) -> int:
    """Write the JSONL export to ``path``; returns the record count."""
    lines = trace_lines(tracer, meta, timeline=timeline, profiler=profiler)
    write_atomic(path, "".join(line + "\n" for line in lines))
    return len(lines) - 1


# ----------------------------------------------------------- conversions


def chrome_trace(records: Iterable[Dict[str, Any]],
                 meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The Chrome trace-event object (``{"traceEvents": [...]}``).

    Each decimated bin of a ``timeline`` record becomes one sample of its
    counter track, so Perfetto charts a whole soak run at O(bins) points
    per series.
    """
    trace_events: List[Dict[str, Any]] = []
    for record in records:
        kind = record["type"]
        if kind == "span":
            trace_events.append({
                "name": record["name"],
                "ph": "X",
                "ts": record["t_start"] * 1e6,
                "dur": (record["t_end"] - record["t_start"]) * 1e6,
                "pid": 0,
                "tid": record["node"] if record["node"] is not None else -1,
                "args": record["attrs"],
            })
        elif kind == "event":
            trace_events.append({
                "name": record["name"],
                "ph": "i",
                "ts": record["t"] * 1e6,
                "s": "t",
                "pid": 0,
                "tid": record["node"] if record["node"] is not None else -1,
                "args": record["attrs"],
            })
        elif kind == "timeline":
            name = f"timeline.{record['name']}"
            for t, value in record["points"]:
                trace_events.append({
                    "name": name,
                    "ph": "C",
                    "ts": t * 1e6,
                    "pid": 0,
                    "args": {record["kind"]: value},
                })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": TRACE_SCHEMA, "meta": meta or {}},
    }


def export_chrome(records: Iterable[Dict[str, Any]], path: str,
                  meta: Optional[Dict[str, Any]] = None) -> int:
    """Write the Chrome trace JSON to ``path``; returns the event count."""
    payload = chrome_trace(records, meta)
    write_atomic(path, _dumps(payload) + "\n")
    return len(payload["traceEvents"])


def export_csv(records: Iterable[Dict[str, Any]], path: str) -> int:
    """Write the timeline records as ``series,kind,bin_s,t,value`` rows.

    Returns the row count; records of other types are skipped.
    """
    rows = ["series,kind,bin_s,t,value\n"]
    for record in records:
        if record["type"] != "timeline":
            continue
        for t, value in record["points"]:
            rows.append(f"{record['name']},{record['kind']},"
                        f"{record['bin_s']:g},{t:g},{value:g}\n")
    write_atomic(path, "".join(rows))
    return len(rows) - 1
