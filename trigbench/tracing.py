"""Outside-in layer tracing: spans recorded around the program's functions.

The tracer replaces module attributes of the program with wrappers that
record a span per call (name, start, end, thread, parent span, request
id, plus counts read off the call) and restores them on uninstall.
Spans stay in memory; self times and per-layer metrics are derived from
them after the traced pass.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from functools import wraps

from workloads import composition_terms


class Span:
    __slots__ = ("id", "name", "start", "end", "thread", "parent", "request", "attrs", "error")

    def __init__(self, span_id, name, thread, parent, request):
        self.id = span_id
        self.name = name
        self.thread = thread
        self.parent = parent
        self.request = request
        self.attrs = None
        self.error = None
        self.end = None
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Records spans from any thread; worker-thread spans hang under the main thread's open span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        top = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(next(self._ids), name, threading.get_ident(), top.id if top else None, self.request)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def patch(self, module, attr: str, name: str, describe=None) -> None:
        """Replace module.attr by a traced wrapper; `describe(args, result)` gives span counts."""
        original = getattr(module, attr)
        tracer = self

        @wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if describe is not None:
                span.attrs = describe(args, result)
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


class TracedStream:
    """stdout stand-in that records a `cli.write` span per write and flush."""

    def __init__(self, stream, tracer: Tracer):
        self._stream = stream
        self._tracer = tracer

    def write(self, text: str) -> int:
        span = self._tracer.open("cli.write")
        try:
            return self._stream.write(text)
        finally:
            self._tracer.close(span)

    def flush(self) -> None:
        span = self._tracer.open("cli.write")
        try:
            self._stream.flush()
        finally:
            self._tracer.close(span)


ITERATION_SCALARS = ("dottie", "iterate", "cos_range", "sin_envelope")


def install(tracer: Tracer, trigiter) -> None:
    """Wrap every layer boundary the per-layer metrics are derived from."""
    from trigiter import _kernels, cli, derivatives, fractal, iteration, series

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "scan_raw", "fractal.scan_raw", lambda a, r: {"survivors": len(r)})
    tracer.patch(fractal, "scan_raw", "fractal.scan_raw", lambda a, r: {"survivors": len(r)})
    tracer.patch(cli, "format_points", "fractal.format_points", lambda a, r: {"lines": len(a[0])})
    tracer.patch(fractal, "_cumulative_axis", "fractal.axis")
    tracer.patch(
        _kernels, "survive", "kernels.survive",
        lambda a, r: {"cells": len(a[0]) * len(a[1]), "iterations": a[5]},
    )
    tracer.patch(series, "compose", "series.compose")
    calls = [
        (series, "iterated_series", None),
        (derivatives, "product_nth_derivative", lambda a, r: {"terms": composition_terms(len(a[0]), a[1])}),
        (derivatives, "iterated_derivative", None),
        (iteration, "dottie_digits", None),
    ] + [(iteration, name, None) for name in ITERATION_SCALARS]
    for module, attr, describe in calls:
        # library calls go through the package namespace, which re-exports them
        tracer.patch(trigiter, attr, f"{module.__name__.split('.')[-1]}.{attr}", describe)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer totals over the traced pass."""
    children = defaultdict(list)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    def self_time(span: Span) -> float:
        inside = [(max(c.start, span.start), min(c.end, span.end)) for c in children[span.id]]
        return span.duration - _covered([iv for iv in inside if iv[0] < iv[1]])

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def count(name: str, key: str) -> int:
        return sum(s.attrs[key] for s in by_name[name] if s.attrs)

    busy = walls = 0.0
    imbalance = []
    for scan in by_name["fractal.scan_raw"]:
        chunks = [c for c in children[scan.id] if c.name == "kernels.survive"]
        if not chunks:
            continue
        durations = [c.duration for c in chunks]
        busy += sum(durations)
        walls += max(c.end for c in chunks) - min(c.start for c in chunks)
        imbalance.append(max(durations) / statistics.fmean(durations))
    cells = count("kernels.survive", "cells")
    cell_steps = sum(s.attrs["cells"] * s.attrs["iterations"] for s in by_name["kernels.survive"])
    survivors = count("fractal.scan_raw", "survivors")
    return {
        "cli.parse_s": sum(self_time(s) for s in by_name["cli.main"]),
        "cli.write_s": total("cli.write"),
        "fractal.axis_s": total("fractal.axis"),
        "fractal.assembly_s": sum(self_time(s) for s in by_name["fractal.scan_raw"]),
        "fractal.survivors": survivors,
        "fractal.survivor_share": survivors / cells if cells else 0.0,
        "fractal.format_s": total("fractal.format_points"),
        "fractal.format_lines": count("fractal.format_points", "lines"),
        "kernels.busy_s": busy,
        "kernels.wall_s": walls,
        "kernels.chunk_imbalance": statistics.median(imbalance) if imbalance else 0.0,
        "kernels.cells": cells,
        "kernels.cell_steps": cell_steps,
        "series.iterated_series_s": total("series.iterated_series"),
        "series.compose_s": total("series.compose"),
        "series.compose_calls": len(by_name["series.compose"]),
        "derivatives.product_nth_derivative_s": total("derivatives.product_nth_derivative"),
        "derivatives.composition_terms": count("derivatives.product_nth_derivative", "terms"),
        "derivatives.iterated_derivative_s": total("derivatives.iterated_derivative"),
        "iteration.dottie_digits_s": total("iteration.dottie_digits"),
        "iteration.scalar_s": sum(total(f"iteration.{name}") for name in ITERATION_SCALARS),
    }
