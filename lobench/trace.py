"""Layer tracing installed from outside the program.

``Tracer.install()`` re-binds the entry points of each layer (class
attributes; module-level functions in every module that imported them)
to timing wrappers, and ``uninstall()`` restores the originals; nothing
under ``src/`` is edited.  A layer is a module name.  Each wrapper opens
a span; the stack of open spans gives every span its parent, so a
layer's **self time** is its spans' duration minus the part their child
spans cover.  A call into the layer that is already on top of the stack
(``send_many`` falling back to ``send``, a subclass ``on_message``
calling the base one) stays inside the open span.

Spans are aggregated in memory per (layer, parent); raw spans are kept
only for ``sketch.decode``.  Whatever runs outside every span is the
event loop itself: ``sim.loop`` self time is the traced ``run_s`` minus
the top-level spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Parent of every span opened straight from an event-loop callback.
ROOT = "sim.loop"

#: (layer, module, class or None for a module-level function, attributes).
TARGETS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("sketch.decode", "repro.sketch.pinsketch", "PinSketch", ("decode",)),
    ("sketch.update", "repro.sketch.pinsketch", "PinSketch",
     ("add", "add_all", "xor_accumulate", "xor_accumulate_many",
      "from_packed", "truncated", "serialize", "deserialize")),
    ("net.send", "repro.net.network", "Network",
     ("send", "send_many", "send_fanout")),
    ("core.node.on_message", "repro.core.node", "LONode", ("on_message",)),
    ("core.node.tick", "repro.core.node", "LONode", ("_sync_tick",)),
    ("core.inspection", "repro.core.inspection", "BlockInspector",
     ("inspect",)),
    ("core.blockbuilder", "repro.core.blockbuilder", "BlockBuilder",
     ("build", "build_highest_fee")),
    ("crypto", "repro.crypto.keys", "KeyPair", ("sign",)),
    ("crypto", "repro.crypto.keys", None, ("verify",)),
    ("bloomclock", "repro.bloomclock.clock", "BloomClock",
     ("add", "add_all", "copy", "compare", "dominates", "flagged_cells",
      "estimate_difference", "serialize", "deserialize")),
    ("mempool.txlog", "repro.mempool.txlog", "TransactionLog",
     ("append", "append_many", "add_content", "sketch_for_cells",
      "full_sketch", "items_in_cells", "subset_sketch")),
    ("mempool.admit", "repro.mempool.admission", "Mempool", ("admit",)),
    ("mempool.drain", "repro.mempool.admission", "Mempool", ("drain",)),
)


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


class Tracer:
    """Span stack, per-(layer, parent) aggregates and the installed patches."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: List[List[Any]] = []  # open spans: [layer, child seconds]
        self._patches: List[Tuple[Any, str, Any]] = []
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.top_level_s = 0.0
        #: ``sketch.decode`` spans: (start, end, parent, degree, cache miss);
        #: degree is -1 when the decode raised.
        self.decodes: List[Tuple[float, float, str, int, bool]] = []
        self.msgs_by_type: Counter = Counter()

    def clear(self) -> None:
        """Forget every recorded span (open spans keep running)."""
        self.calls.clear()
        self.self_s.clear()
        self.top_level_s = 0.0
        self.decodes.clear()
        self.msgs_by_type.clear()

    # ------------------------------------------------------------- spans

    def _close(self, frame: List[Any], start: float, end: float) -> str:
        """Pop ``frame`` and charge it; returns the parent layer."""
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent_layer = parent[0]
        else:
            parent_layer = ROOT
            self.top_level_s += duration
        key = (frame[0], parent_layer)
        self.calls[key] += 1
        self.self_s[key] += duration - frame[1]
        return parent_layer

    def wrap(self, layer: str, fn: Callable[..., Any],
             on_enter: Optional[Callable[..., None]] = None,
             ) -> Callable[..., Any]:
        """``fn`` timed as one span of ``layer``.

        ``on_enter`` (called with the wrapped call's arguments) runs once
        per span, not for calls folded into an already-open span.
        """
        stack, clock, close = self._stack, self.clock, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, start, clock())

        return wrapper

    def _wrap_decode(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``PinSketch.decode`` with a raw span per call."""
        from repro.metrics.caches import register_cache

        cache = register_cache("sketch.decode")  # the existing counters
        stack, clock, close = self._stack, self.clock, self._close
        decodes = self.decodes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = ["sketch.decode", 0.0]
            stack.append(frame)
            misses = cache.misses
            degree = -1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                degree = len(result)
                return result
            finally:
                end = clock()
                parent = close(frame, start, end)
                decodes.append(
                    (start, end, parent, degree, cache.misses != misses)
                )

        return wrapper

    def _count_message(self, node, message) -> None:
        self.msgs_by_type[message.msg_type] += 1

    # ----------------------------------------------------------- patching

    def _patch(self, owner: Any, name: str, layer: str) -> None:
        raw = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        fn = raw.__func__ if kind else raw
        if layer == "sketch.decode":
            wrapped = self._wrap_decode(fn)
        elif layer == "core.node.on_message":
            wrapped = self.wrap(layer, fn, on_enter=self._count_message)
        else:
            wrapped = self.wrap(layer, fn)
        self._patches.append((owner, name, raw))
        setattr(owner, name, kind(wrapped) if kind else wrapped)

    def install(self) -> None:
        """Re-bind every target to its timing wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, module_name, class_name, names in TARGETS:
            module = importlib.import_module(module_name)
            if class_name is not None:
                cls = getattr(module, class_name)
                for name in names:
                    self._patch(cls, name, layer)
                    for sub in _subclasses(cls):
                        if name in sub.__dict__:
                            self._patch(sub, name, layer)
                continue
            for name in names:
                original = getattr(module, name)
                # `from module import name` copied the function into each
                # importer's globals; re-bind every copy.
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("repro") \
                            and other.__dict__.get(name) is original:
                        self._patch(other, name, layer)

    def uninstall(self) -> None:
        """Restore every original attribute."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    # ------------------------------------------------------------ summary

    def layers(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls": n, "self_s": seconds}}`` over all parents."""
        out: Dict[str, Dict[str, float]] = {}
        for (layer, _parent), calls in self.calls.items():
            row = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            row["calls"] += calls
            row["self_s"] += self.self_s[(layer, _parent)]
        return out

    def to_json(self) -> Dict[str, Any]:
        """Everything recorded, for ``trace-<workload>.json``."""
        degree_hist = Counter(span[3] for span in self.decodes)
        return {
            "layers": self.layers(),
            "edges": [
                {"layer": layer, "parent": parent, "calls": calls,
                 "self_s": self.self_s[(layer, parent)]}
                for (layer, parent), calls in sorted(self.calls.items())
            ],
            "top_level_s": self.top_level_s,
            "msgs_by_type": dict(sorted(self.msgs_by_type.items())),
            "decode_degree_hist": {
                str(degree): degree_hist[degree] for degree in sorted(degree_hist)
            },
            "decode_spans": [list(span) for span in self.decodes],
        }
