"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls that the benchmark's own code makes into the
``tempocorr`` layers.  Each span has a name, a start, an end, a parent (the
span open when it began) and the id of the op that caused it.  Nothing is
written until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from pathlib import Path


class Tracer:
    """Records nested spans; a span opened outside any op belongs to no op."""

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_op = 0

    @contextlib.contextmanager
    def op(self, kind: str):
        op_id = self._next_op
        self._next_op += 1
        with self._open(f"op.{kind}", op_id):
            yield

    def span(self, name: str):
        op_id = self._stack[-1]["op"] if self._stack else None
        return self._open(name, op_id)

    @contextlib.contextmanager
    def _open(self, name: str, op_id):
        rec = {
            "id": len(self.spans),
            "op": op_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n")


class NullTracer:
    """Stands in for :class:`Tracer` when tracing is off."""

    enabled = False

    def op(self, kind: str):
        return contextlib.nullcontext()

    def span(self, name: str):
        return contextlib.nullcontext()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_of(name: str) -> str:
    """Layer a span belongs to: its first name component; op spans are the
    benchmark's own code."""
    head = name.split(".", 1)[0]
    return "bench" if head == "op" else head


def summarize(spans: list[dict]) -> dict:
    """Per span name: calls, busy seconds and median duration; per layer:
    self seconds."""
    durations: dict[str, list[float]] = {}
    for s in spans:
        durations.setdefault(s["name"], []).append(s["end"] - s["start"])
    by_name = {
        name: {"calls": len(d), "busy_s": sum(d), "p50_s": statistics.median(d)}
        for name, d in sorted(durations.items())
    }
    layer_self: dict[str, float] = {}
    selfs = self_times(spans)
    for s in spans:
        layer = layer_of(s["name"])
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[s["id"]]
    return {"by_name": by_name, "self_s": dict(sorted(layer_self.items()))}


def nesting_errors(spans: list[dict]) -> list[str]:
    """Spans that do not sit inside their parent or carry another op id."""
    by_id = {s["id"]: s for s in spans}
    errors = []
    for s in spans:
        if s["parent"] is None:
            if not s["name"].startswith("op.") and s["op"] is not None:
                errors.append(f"span {s['id']} ({s['name']}) has an op id but no parent")
            continue
        p = by_id[s["parent"]]
        if s["op"] != p["op"]:
            errors.append(f"span {s['id']} ({s['name']}) has op {s['op']}, parent has {p['op']}")
        if not (p["start"] <= s["start"] <= s["end"] <= p["end"]):
            errors.append(f"span {s['id']} ({s['name']}) lies outside its parent {p['id']}")
    return errors
