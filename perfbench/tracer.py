"""Spans around calls into the program's layers, recorded from outside.

A span is taken at each layer boundary by replacing a function in the
namespace its caller looks it up in (``calibdist.cli`` for ``calib
measure``, the benchmark's own call table for ``chain-small``).  Spans are
kept in memory and written out when the run ends.  A layer's self time is
the duration of its spans minus the part their child spans cover; CPU time
is taken the same way, and ``wait`` is self wall time minus self CPU time.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

LAYERS = ("cli", "binning", "interval", "smooth", "lowerdist", "kernel")


class Tracer:
    def __init__(self):
        # [id, name, layer, op, parent, start, end, cpu_start, cpu_end]
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self.sizes: dict[str, float] = {}

    def begin(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, layer, self.op, parent,
                time.perf_counter(), None, time.process_time(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def end(self, span: list) -> None:
        span[6] = time.perf_counter()
        span[8] = time.process_time()
        self._stack.pop()

    def wrap(self, fn, name: str, layer: str, sizer=None):
        """``fn`` inside a span; ``sizer(args, result)`` runs later, outside every span."""

        def traced(*args, **kwargs):
            span = self.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if sizer is not None:
                self._pending.append((sizer, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, namespace, attr: str, layer: str, sizer=None) -> bool:
        """Replace ``namespace.attr`` by its traced form; False if it is absent."""
        fn = getattr(namespace, attr, None)
        if fn is None:
            return False
        setattr(namespace, attr, self.wrap(fn, attr, layer, sizer))
        return True

    def count_sizes(self) -> dict[str, float]:
        """Run the sizers queued since the last call and return their summed counts."""
        counts: dict[str, float] = {}
        for sizer, args, result in self._pending:
            for key, value in sizer(args, result).items():
                counts[key] = counts.get(key, 0) + value
        self._pending.clear()
        return counts

    def layer_totals(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Per-layer self wall, self CPU and calls over spans[first:last]."""
        child_wall: dict[int, float] = {}
        child_cpu: dict[int, float] = {}
        for sid, _, _, _, parent, t0, t1, c0, c1 in self.spans[first:last]:
            if parent is not None:
                child_wall[parent] = child_wall.get(parent, 0.0) + (t1 - t0)
                child_cpu[parent] = child_cpu.get(parent, 0.0) + (c1 - c0)
        out = {layer: {"self_s": 0.0, "cpu_s": 0.0, "calls": 0} for layer in LAYERS}
        for sid, _, layer, _, _, t0, t1, c0, c1 in self.spans[first:last]:
            if layer not in out:
                continue
            agg = out[layer]
            agg["self_s"] += (t1 - t0) - child_wall.get(sid, 0.0)
            agg["cpu_s"] += (c1 - c0) - child_cpu.get(sid, 0.0)
            agg["calls"] += 1
        return out

    def span_cost_s(self, calls: int = 20_000) -> float:
        """Wall time one traced call adds, measured on a function that does nothing."""
        saved = self.spans
        self.spans = []
        probe = self.wrap(lambda: None, "probe", "probe")
        t0 = time.perf_counter()
        for _ in range(calls):
            probe()
        cost = (time.perf_counter() - t0) / calls
        self.spans = saved
        return cost

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "layer", "op", "parent", "start", "end", "cpu_start", "cpu_end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def per_layer_metrics(tracer: Tracer, rounds: list[tuple[int, int]]) -> dict[str, float]:
    """Medians over traced rounds of each layer's per-pass self, CPU and wait time."""
    totals = [tracer.layer_totals(a, b) for a, b in rounds]
    out: dict[str, float] = {}
    for layer in LAYERS:
        wall = [t[layer]["self_s"] for t in totals]
        cpu = [t[layer]["cpu_s"] for t in totals]
        out[f"{layer}.self_s"] = statistics.median(wall)
        out[f"{layer}.cpu_s"] = statistics.median(cpu)
        out[f"{layer}.wait_s"] = statistics.median(w - c for w, c in zip(wall, cpu))
        out[f"{layer}.calls"] = statistics.median_low(t[layer]["calls"] for t in totals)
    return out
