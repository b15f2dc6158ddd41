"""Trace-driven run reports: span-duration and fault→detection summaries.

``python -m repro report TRACE`` loads a ``repro.trace/1`` JSONL file,
validates it, and prints:

* per-node span-duration tables (count / total / mean simulated seconds
  per span name per node, plus an aggregate per span name);
* a fault → detection latency summary that lines up injected faults
  (chaos crashes, observed equivocations, block-policy violations) with
  the first suspicion / exposure raised against the same node -- the
  causal chain behind the paper's section 5.2 detection claims;
* the timeline series, and the run's final counters read off them
  (cache effectiveness, byte counters, drops);
* the wall time per phase (net, reconcile, sketch, crypto, ...) from the
  ``phase`` records.

Everything here is pure data-in/rows-out so tests can drive it without a
terminal; the CLI glue lives in :mod:`repro.cli`.  The same module renders
every table the CLI prints (:func:`format_table`) and writes every result
file (:func:`to_jsonable`, :func:`write_json`).
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict
from typing import IO, Any, Dict, Iterable, List, Optional, Sequence, Tuple

# Events that mark an injected or detected fault, keyed by the attr that
# names the node at fault.
FAULT_EVENTS: Dict[str, str] = {
    "chaos.crash": "_node",            # the crashed node is the event's node
    "acct.equivocation": "accused",
    "inspect.violation": "creator",
}
DETECTION_EVENTS: Dict[str, str] = {
    "acct.suspicion": "accused",
    "acct.exposure": "accused",
}


def load_trace(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a JSONL trace; returns ``(meta, records)``.

    Raises ``ValueError`` on a file that is not even line-JSON; schema
    conformance is the validator's job (:mod:`repro.obs.schema`).
    """
    records: List[Dict[str, Any]] = []
    meta: Dict[str, Any] = {}
    with open(path, "r", encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON ({exc})")
            if lineno == 1 and "schema" in record:
                meta = record.get("meta", {}) or {}
                continue
            records.append(record)
    return meta, records


# ------------------------------------------------------------- span tables


def span_rows(
    records: List[Dict[str, Any]], per_node: bool = True
) -> List[Tuple[Any, ...]]:
    """Span-duration rows: ``(name, node, count, total_s, mean_s, max_s)``.

    With ``per_node=False`` the node column is collapsed to ``"*"`` and
    durations aggregate across the whole population.
    """
    acc: Dict[Tuple[str, Any], List[float]] = defaultdict(list)
    for record in records:
        if record.get("type") != "span":
            continue
        node = record.get("node") if per_node else "*"
        duration = record["t_end"] - record["t_start"]
        acc[(record["name"], node)].append(duration)
    rows: List[Tuple[Any, ...]] = []
    for (name, node), durations in sorted(
        acc.items(), key=lambda item: (item[0][0], str(item[0][1]))
    ):
        total = sum(durations)
        rows.append((
            name,
            node,
            len(durations),
            round(total, 6),
            round(total / len(durations), 6),
            round(max(durations), 6),
        ))
    return rows


def event_counts(records: List[Dict[str, Any]]) -> List[Tuple[str, int]]:
    """``(event name, count)`` rows sorted by name."""
    counts: Dict[str, int] = defaultdict(int)
    for record in records:
        if record.get("type") == "event":
            counts[record["name"]] += 1
    return sorted(counts.items())


# ----------------------------------------------------- fault -> detection


def _fault_node(record: Dict[str, Any], attr: str) -> Optional[int]:
    if attr == "_node":
        node = record.get("node")
    else:
        node = record.get("attrs", {}).get(attr)
    return node if isinstance(node, int) else None


def fault_detection_rows(
    records: List[Dict[str, Any]]
) -> List[Tuple[Any, ...]]:
    """Rows ``(node, fault, fault_t, suspicion_t, exposure_t, latency_s)``.

    For every node with at least one fault event, the earliest fault is
    paired with the first suspicion and first exposure raised against that
    node at or after the fault time; ``latency_s`` is the gap to whichever
    detection came first (``None`` when the trace holds no detection).
    """
    first_fault: Dict[int, Tuple[float, str]] = {}
    detections: Dict[str, Dict[int, List[float]]] = {
        name: defaultdict(list) for name in DETECTION_EVENTS
    }
    for record in records:
        if record.get("type") != "event":
            continue
        name = record.get("name")
        if name in FAULT_EVENTS:
            node = _fault_node(record, FAULT_EVENTS[name])
            if node is not None:
                when = record["t"]
                if node not in first_fault or when < first_fault[node][0]:
                    first_fault[node] = (when, name)
        elif name in DETECTION_EVENTS:
            node = _fault_node(record, DETECTION_EVENTS[name])
            if node is not None:
                detections[name][node].append(record["t"])

    rows: List[Tuple[Any, ...]] = []
    for node in sorted(first_fault):
        fault_t, fault_name = first_fault[node]
        first_suspicion = _first_at_or_after(
            detections["acct.suspicion"].get(node, []), fault_t
        )
        first_exposure = _first_at_or_after(
            detections["acct.exposure"].get(node, []), fault_t
        )
        candidates = [t for t in (first_suspicion, first_exposure)
                      if t is not None]
        latency = round(min(candidates) - fault_t, 6) if candidates else None
        rows.append((
            node,
            fault_name,
            round(fault_t, 6),
            round(first_suspicion, 6) if first_suspicion is not None else None,
            round(first_exposure, 6) if first_exposure is not None else None,
            latency,
        ))
    return rows


def _first_at_or_after(times: List[float], when: float) -> Optional[float]:
    eligible = [t for t in times if t >= when]
    return min(eligible) if eligible else None


# -------------------------------------------------------------- counters


def final_counters(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Each ``timeline`` series' end-of-run value, sorted by name.

    A counter's value is its total, a gauge's its last reading.  A
    cache's ``hit_rate`` is recomputed from its ``hits`` and ``misses``
    totals: the last reading describes only the run's last simulation.
    """
    values: Dict[str, Any] = {}
    for record in records:
        if record.get("type") != "timeline" or not record["points"]:
            continue
        if record["kind"] == "counter":
            values[record["name"]] = sum(v for _t, v in record["points"])
        else:
            values[record["name"]] = record["points"][-1][1]
    for name in values:
        if name.endswith(".hit_rate"):
            prefix = name[: -len("hit_rate")]
            hits = values.get(prefix + "hits", 0)
            lookups = hits + values.get(prefix + "misses", 0)
            values[name] = hits / lookups if lookups else 0.0
    return dict(sorted(values.items()))


def cache_rows(counters: Dict[str, Any]) -> List[Tuple[str, Any]]:
    """The ``caches.*`` entries of :func:`final_counters`, sorted."""
    return [(name, value) for name, value in counters.items()
            if name.startswith("caches.")]


# ----------------------------------------------------------------- phases


def phase_rows(
    records: List[Dict[str, Any]]
) -> List[Tuple[str, int, float, float, float]]:
    """``(phase, calls, self_s, incl_s, self_fraction)`` rows of the
    ``phase`` records, by descending self time.

    ``self_fraction`` is the phase's share of the summed self time; the
    self times of all phases sum to the profiled wall clock, so the
    fractions sum to 1.
    """
    phases = sorted((r for r in records if r.get("type") == "phase"),
                    key=lambda r: (-r["self_s"], r["name"]))
    total = sum(r["self_s"] for r in phases) or 1.0
    return [(r["name"], r["calls"], r["self_s"], r["incl_s"],
             r["self_s"] / total) for r in phases]


# -------------------------------------------------------------- timelines

#: Eight-level block characters used by :func:`sparkline`.
SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: List[float], width: int = 32) -> str:
    """Render ``values`` as a fixed-width unicode sparkline.

    Longer series are downsampled by averaging consecutive chunks so the
    overall shape survives; a flat series renders as a flat baseline.

    >>> sparkline([0.0, 1.0, 2.0, 3.0], width=4)
    '▁▃▅█'
    """
    if not values:
        return ""
    if len(values) > width:
        chunked = []
        for i in range(width):
            lo = i * len(values) // width
            hi = max(lo + 1, (i + 1) * len(values) // width)
            chunk = values[lo:hi]
            chunked.append(sum(chunk) / len(chunk))
        values = chunked
    low, high = min(values), max(values)
    span = high - low
    if span <= 0:
        return SPARK_CHARS[0] * len(values)
    top = len(SPARK_CHARS) - 1
    return "".join(
        SPARK_CHARS[int((value - low) / span * top)] for value in values
    )


def timeline_rows(
    records: List[Dict[str, Any]], width: int = 32
) -> List[Tuple[Any, ...]]:
    """Sparkline table rows for ``timeline`` records.

    One row per series: ``(name, kind, bins, bin_s, total_or_last,
    spark)`` where the fifth column is the conserved total for counters
    and the final value for gauges.
    """
    rows: List[Tuple[Any, ...]] = []
    for record in sorted(records, key=lambda r: r.get("name", "")):
        if record.get("type") != "timeline":
            continue
        values = [value for _t, value in record.get("points", [])]
        if record.get("kind") == "counter":
            summary = round(sum(values), 6)
        else:
            summary = round(values[-1], 6) if values else None
        rows.append((
            record.get("name"),
            record.get("kind"),
            len(values),
            record.get("bin_s"),
            summary,
            sparkline(values, width=width),
        ))
    return rows


# ------------------------------------------------------------ rendering


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render an aligned plain-text table (no trailing blanks, so a table
    pasted into a document survives an editor that strips them)."""
    rows = [tuple(str(c) for c in row) for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
    ]
    rule = "-" * len(lines[0])
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.insert(1, rule)
    return "\n".join(line.rstrip() for line in lines)


def to_jsonable(value: Any) -> Any:
    """Recursively convert dataclasses/bytes/sets for JSON export."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, set):
        return sorted(to_jsonable(v) for v in value)
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, float):
        return value if value == value else None  # NaN -> null
    return value


def write_json(result: Any, stream: IO[str], label: Optional[str] = None) -> None:
    """Serialize an experiment result object to a JSON stream."""
    payload = to_jsonable(result)
    if label is not None:
        payload = {"experiment": label, "result": payload}
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")
