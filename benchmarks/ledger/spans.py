"""Harness-side spans: one record around every call the benchmark makes
into a layer of ``src/repro``.

``src/`` is untouched by the benchmark, so the spans live here: a
:class:`Recorder` wraps the harness's own calls, keeps the records in
memory and the ledger writes them out when the run ends.  A span is
``{name, layer, start, end, parent, op}``; ``parent`` is the index of
the enclosing span (``-1`` for a root) and ``op`` the operation the span
belongs to, so the spans of one op share an identifier.

A layer's *self time* is its spans' duration minus the part of that
interval their child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List

__all__ = ["NULL", "Recorder", "Span", "self_times", "total_by_name"]

Span = Dict[str, object]


class Recorder:
    """In-memory span log.  ``Recorder(enabled=False)`` records nothing
    and costs one attribute test per call site — the untraced window
    runs on it."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record: Span = {
            "name": name, "layer": layer, "start": 0.0, "end": 0.0,
            "parent": self._stack[-1] if self._stack else -1,
            "op": self.op,
        }
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, layer: str, start: float, end: float,
            op: int, parent: int = -1) -> int:
        """Append a span measured elsewhere and return its index (the
        serve clients time their requests on their own threads and hand
        the log over)."""
        self.spans.append({"name": name, "layer": layer, "start": start,
                           "end": end, "parent": parent, "op": op})
        return len(self.spans) - 1


#: the shared do-nothing recorder
NULL = Recorder(enabled=False)


def _self_seconds(spans: List[Span]) -> List[float]:
    out = [float(s["end"]) - float(s["start"]) for s in spans]
    for s in spans:
        parent = int(s["parent"])
        if parent >= 0:
            out[parent] -= float(s["end"]) - float(s["start"])
    return out


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Self seconds per layer over *spans*."""
    out: Dict[str, float] = {}
    for s, own in zip(spans, _self_seconds(spans)):
        layer = str(s["layer"])
        out[layer] = out.get(layer, 0.0) + own
    return out


def total_by_name(spans: List[Span]) -> Dict[str, float]:
    """Total (not self) seconds per span name."""
    out: Dict[str, float] = {}
    for s in spans:
        name = str(s["name"])
        out[name] = out.get(name, 0.0) + float(s["end"]) - float(s["start"])
    return out
