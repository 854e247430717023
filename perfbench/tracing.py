"""In-memory spans around the package's public functions, and the layer table.

A span is (name, start, end, parent).  Spans are recorded only while a
`Tracer.installed(...)` block is active: it replaces each target attribute
with a timing wrapper and puts the original back on exit, so untraced runs
execute the package exactly as shipped.  Wrappers sit in the caller's
namespace (`opucz.mc.roots`, not `opucz.zerocount.roots`), because that is the
name the caller looks up at call time.  Spans are named after the module that
defines the function, which is the layer the time belongs to.
"""
from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    error: Optional[str] = None  # exception type name when the call raised
    info: Optional[dict] = None  # facts read off the return value


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self.t0 = perf_counter()

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, 0.0, 0.0, parent))
        self._open.append(idx)
        return idx

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        spans, stack, enter = self.spans, self._open, self._enter

        def traced(*args, **kwargs):
            span = spans[enter(name)]
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if on_result is not None:
                span.info = on_result(out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark itself (a pass, a set-up)."""
        span = self.spans[self._enter(name)]
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._open.pop()

    @contextmanager
    def installed(self, targets):
        """Wrap every (owner, attribute, span name, result hook) target."""
        saved = []
        try:
            for owner, attr, name, hook in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, hook))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "start_s": s.start - self.t0, "end_s": s.end - self.t0,
                    "error": s.error, "info": s.info}) + "\n")


class SpanIndex:
    """Durations, self times and roots of a finished trace.

    Self time is a span's duration minus the time its direct child spans
    cover; the program is single-threaded while traced, so children of one
    span never overlap.
    """

    def __init__(self, spans: list):
        self.spans = spans
        n = len(spans)
        self.dur = np.array([s.end - s.start for s in spans])
        child = np.zeros(n)
        self.root = np.empty(n, dtype=np.int64)
        self.by_name = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s.name].append(i)
            # a parent is always opened, so appended, before its children
            self.root[i] = i if s.parent < 0 else self.root[s.parent]
            if s.parent >= 0:
                child[s.parent] += self.dur[i]
        self.self_time = self.dur - child

    def select(self, name: str, root: str = "bench.pass",
               parent: Optional[str] = None) -> np.ndarray:
        """Indices of spans called `name` below a root called `root`."""
        spans = self.spans
        return np.array([
            i for i in self.by_name.get(name, ())
            if spans[self.root[i]].name == root
            and (parent is None or (spans[i].parent >= 0
                                    and spans[spans[i].parent].name == parent))],
            dtype=np.int64)

    def roots(self, name: str) -> np.ndarray:
        return np.array([i for i in self.by_name.get(name, ())
                         if self.spans[i].parent < 0], dtype=np.int64)

    def total_under(self, name: str, root_idx: int) -> float:
        """Summed duration of `name` spans below one given root span."""
        return float(sum(self.dur[i] for i in self.by_name.get(name, ())
                         if self.root[i] == root_idx))


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0.0 when the layer never ran."""
    return float(np.quantile(values, q)) if len(values) else 0.0


def layer_table(index: SpanIndex, passes: int, overhead: float) -> list:
    """One row per span name below the timed passes, plus the overhead row."""
    pass_wall = float(index.dur[index.roots("bench.pass")].sum())
    names = sorted({s.name for s in index.spans if s.name != "bench.setup"})
    rows = []
    for name in names:
        ids = index.select(name) if name != "bench.pass" \
            else index.roots("bench.pass")
        if ids.size == 0:
            continue
        d = index.dur[ids]
        rows.append({
            "layer": name, "calls_per_pass": ids.size / passes,
            "p50_us": quantile(d, 0.5) * 1e6, "p99_us": quantile(d, 0.99) * 1e6,
            "max_us": float(d.max()) * 1e6, "total_s": float(d.sum()),
            "self_s": float(index.self_time[ids].sum()),
            "self_share": float(index.self_time[ids].sum()) / pass_wall,
        })
    rows.sort(key=lambda r: -r["self_share"])
    rows.append({"layer": "trace.overhead", "overhead_ratio": overhead})
    return rows


def format_table(rows: list) -> str:
    head = (f"{'layer':<42}{'calls/pass':>11}{'p50_us':>12}{'p99_us':>12}"
            f"{'self_s':>10}{'self_share':>11}")
    lines = [head]
    for r in rows:
        if "overhead_ratio" in r:
            lines.append(f"{r['layer']:<42}overhead_ratio {r['overhead_ratio']:.4f}"
                         " (median over passes of traced / untraced wall - 1)")
            continue
        lines.append(f"{r['layer']:<42}{r['calls_per_pass']:>11.1f}"
                     f"{r['p50_us']:>12.1f}{r['p99_us']:>12.1f}"
                     f"{r['self_s']:>10.3f}{r['self_share']:>11.3f}")
    return "\n".join(lines)
