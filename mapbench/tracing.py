"""Spans around the public calls of ddesim's layers, recorded from outside the package.

`instrument` swaps each listed function, in every loaded ddesim module that
holds it, for a wrapper that records a span: name, start, end, parent and a
tag inherited from the enclosing span (the boson truncation n_max of the
cell). Spans stay in memory; the benchmark writes them out when it ends.

Cells of a process pool run in forked workers, which inherit the wrappers.
A worker sends the spans of each cell back with the cell's result, inside
the float run_sweep already returns as that cell's seconds, and the
run_sweep wrapper in the parent process adds them to its own record.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time

# (module, function): the public calls of each layer that a map cell makes
LAYER_FUNCTIONS = (
    ("cli", "main"),
    ("config", "parse_config"),
    ("sweep", "run_sweep"),
    ("models", "build_full_model"),
    ("liouvillian", "build_liouvillian"),
    ("liouvillian", "steady_state"),
    ("operators", "partial_trace"),
    ("observables", "concurrence"),
    ("observables", "g2_zero"),
    ("observables", "g2_trace"),
    ("observables", "default_tau_max"),
    ("observables", "extract_timescale"),
)
CELL = "cell"  # span of one grid cell or one ladder step


class ShippedSeconds(float):
    """A cell's seconds, carrying the spans a pool worker recorded for it."""

    def __new__(cls, seconds: float, spans: list[dict]):
        obj = super().__new__(cls, seconds)
        obj.spans = spans
        return obj

    def __reduce__(self):
        return ShippedSeconds, (float(self), self.spans)


class Tracer:
    """In-memory span record of one process (and of its forked pool workers)."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[tuple[str, object]] = []
        self._count = 0

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        parent, parent_tag = self._stack[-1] if self._stack else (None, None)
        self._count += 1
        span_id = f"{os.getpid()}:{self._count}"
        record = {"id": span_id, "parent": parent, "name": name,
                  "tag": parent_tag if tag is None else tag}
        self._stack.append((span_id, record["tag"]))
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if name == "liouvillian.build_liouvillian":
                    record["bytes"] = result.superop.nbytes
                return result
        return traced

    def _wrap_run_sweep(self, fn):
        traced = self._wrap("sweep.run_sweep", fn)

        @functools.wraps(fn)
        def run_sweep(*args, **kwargs):
            result = traced(*args, **kwargs)
            for seconds in result.cell_seconds:
                if isinstance(seconds, ShippedSeconds):
                    self.spans.extend(seconds.spans)
            return result
        return run_sweep

    def _wrap_cell(self, fn):
        @functools.wraps(fn)
        def evaluate_cell(job):
            mark = len(self.spans)
            with self.span(CELL, tag=job[0].n_max):
                cell, seconds = fn(job)
            if os.getpid() == self.pid:
                return cell, seconds
            shipped = self.spans[mark:]
            del self.spans[mark:]
            return cell, ShippedSeconds(seconds, shipped)
        return evaluate_cell


def instrument(tracer: Tracer) -> None:
    """Route every listed ddesim call, and sweep's cell evaluation, through tracer."""
    loaded = [m for name, m in sys.modules.items()
              if name == "ddesim" or name.startswith("ddesim.")]
    targets = [(f"ddesim.{mod}", fn) for mod, fn in LAYER_FUNCTIONS]
    targets.append(("ddesim.sweep", "_evaluate_cell"))
    for mod_name, fn_name in targets:
        original = getattr(importlib.import_module(mod_name), fn_name)
        if fn_name == "_evaluate_cell":
            wrapper = tracer._wrap_cell(original)
        elif fn_name == "run_sweep":
            wrapper = tracer._wrap_run_sweep(original)
        else:
            wrapper = tracer._wrap(f"{mod_name.split('.')[1]}.{fn_name}", original)
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - _covered(
                [(max(a, s["start"]), min(b, s["end"]))
                 for a, b in children.get(s["id"], []) if b > s["start"] and a < s["end"]])
            for s in spans}


def layer_samples(spans: list[dict], workers: int) -> dict[str, list[float]]:
    """Per-layer samples of one process's spans, keyed by per-layer metric name.

    Function self times are in ms, one sample per call; build_liouvillian and
    steady_state are keyed per truncation rung, as is the superoperator size.
    """
    own = self_times(spans)
    out: dict[str, list[float]] = {}

    def add(key, value):
        out.setdefault(key, []).append(value)

    cell_total = cell_self = 0.0
    for s in spans:
        name, wall = s["name"], s["end"] - s["start"]
        if name == CELL:
            add("cell_ms", 1e3 * wall)
            cell_total += wall
            cell_self += own[s["id"]]
        elif name in ("liouvillian.build_liouvillian", "liouvillian.steady_state"):
            add(f"{name}_ms.nmax{s['tag']}", 1e3 * own[s["id"]])
            if "bytes" in s:
                add(f"liouvillian.superop_mb.nmax{s['tag']}", s["bytes"] / 1e6)
        elif name == "sweep.run_sweep":
            cells = [c for c in spans if c["parent"] == s["id"] and c["name"] == CELL]
            busy = sum(c["end"] - c["start"] for c in cells)
            add("sweep.overhead_s", wall - busy / workers)
            add("sweep.busy_share", busy / (workers * wall))
        elif name == "cli.main":
            inner = sum(c["end"] - c["start"] for c in spans
                        if c["parent"] == s["id"] and c["name"] == "sweep.run_sweep")
            add("cli.self_s", wall - inner)
        elif name != "config.parse_config":
            add(f"{name}_ms", 1e3 * own[s["id"]])
    if cell_total > 0:
        add("cell.unattributed_share", cell_self / cell_total)
    return out

