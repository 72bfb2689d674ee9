"""Span recording around the public functions of each cfstcol layer.

Each function is wrapped where its callers look it up: every cfstcol module
whose namespace binds the name to the original function gets the wrapper,
so ``dataset.predict`` (used by the row loop) and ``capacity.predict`` (used
by ``predict_all``) record the same span.  Spans live in flat arrays while
the run lasts and are written out once at the end.  A span's self time is
its duration minus the time its direct children cover.
"""

from __future__ import annotations

import importlib
import math
from array import array
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "dataset", "section", "capacity", "materials", "response", "cards")

# (defining module, function) pairs whose calls become spans
WRAPPED = (
    ("dataset", "parse_dataset"),
    ("dataset", "evaluate_dataset"),
    ("dataset", "column_from_record"),
    ("section", "convert_strength"),
    ("section", "section_areas"),
    ("section", "section_second_moments"),
    ("capacity", "check_applicability"),
    ("capacity", "predict_all"),
    ("materials", "steel_curve_params"),
    ("materials", "confined_concrete_params"),
    ("materials", "sample_grid"),
    ("materials", "sample_concrete_curve"),
    ("materials", "cdpm_parameters"),
    ("response", "response_curve"),
    ("cards", "render_cdpm_card"),
)


class Tracer:
    """In-memory span store: name, start, end, parent span and request id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.name = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.counts: dict[str, int] = {}
        self.request_id = -1
        self._stack = [-1]

    def _ix(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        i = len(self.start)
        self.name.append(self._ix(name))
        self.start.append(perf_counter())
        self.end.append(math.nan)
        self.parent.append(self._stack[-1])
        self.request.append(self.request_id)
        self._stack.append(i)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()

    def aggregate(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        durations = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += durations[i]
        totals: dict[int, list[float]] = {}
        for i, ix in enumerate(self.name):
            t = totals.setdefault(ix, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += durations[i]
            t[2] += durations[i] - child[i]
        return {self.names[ix]: (int(c), inc, own) for ix, (c, inc, own) in totals.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\trequest\n")
            t0 = self.start[0] if self.start else 0.0
            for ix, s, e, p, r in zip(self.name, self.start, self.end, self.parent, self.request):
                fh.write(f"{self.names[ix]}\t{s - t0:.9f}\t{e - t0:.9f}\t{p}\t{r}\n")


def _modules():
    return {name: importlib.import_module(f"cfstcol.{name}") for name in LAYERS}


def _patch(modules, original, wrapper, patched) -> None:
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                patched.append((mod, attr, value))
                setattr(mod, attr, wrapper)


# counts read off a wrapped function's result: span -> (counter, result -> n)
RESULT_COUNTS = {
    "dataset.parse_dataset": ("row_errors", lambda r: len(r.errors)),
    "dataset.evaluate_dataset": ("row_errors", lambda r: sum(row.error is not None for row in r[0])),
    "response.response_curve": ("stress_evals", lambda r: 2 * len(r.points)),
    "materials.sample_concrete_curve": ("stress_evals", lambda r: len(r.points)),
}


def _wrapper(tracer: Tracer, span: str, fn):
    counter = RESULT_COUNTS.get(span)
    # the batch row loop builds one column per record, in record order
    starts_request = span == "dataset.column_from_record"

    def wrapper(*args, **kwargs):
        if starts_request:
            tracer.request_id += 1
        result = tracer.call(span, fn, *args, **kwargs)
        if counter is not None:
            tracer.count(counter[0], counter[1](result))
        return result
    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Install span wrappers on every layer for the duration of the block."""
    modules = _modules()
    patched: list = []
    try:
        for layer, fname in WRAPPED:
            fn = getattr(modules[layer], fname, None)
            if fn is None:
                continue
            _patch(modules, fn, _wrapper(tracer, f"{layer}.{fname}", fn), patched)
        predict = getattr(modules["capacity"], "predict", None)
        if predict is not None:
            def traced_predict(column, method, *args, **kwargs):
                pred = tracer.call(f"capacity.predict.{method.value}", predict, column, method, *args, **kwargs)
                tracer.count(f"predicted.{method.value}")
                if pred.applicability.applicable:
                    tracer.count(f"applicable.{method.value}")
                return pred
            _patch(modules, predict, traced_predict, patched)
        yield tracer
    finally:
        for mod, attr, value in reversed(patched):
            setattr(mod, attr, value)
