"""Result reporting: aligned tables and JSON export.

Used by the command-line interface.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, IO, Iterable, Optional, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render an aligned plain-text table."""
    rows = [tuple(str(c) for c in row) for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
    ]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


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
