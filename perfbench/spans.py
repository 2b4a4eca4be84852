"""Spans around the public functions of monotonize, recorded from outside.

install() wraps each function named in TRACED and re-binds every module
attribute of the monotonize package that holds it (callers import by name,
so both estimators.fit and montecarlo.fit are replaced).  A span is
(name, start, end, parent, thread, phase, failed, counts); spans stay in
memory until the caller takes them.  layer_metrics() turns a span list into
the per-layer figures that BENCHMARK.json lists.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
from collections import defaultdict

TRACED = {
    "cli": ("main",),
    "csvio": (
        "read_grid_function", "read_band", "read_dataset", "read_draws",
        "write_grid_function", "write_band", "write_dataset", "write_draws",
    ),
    "rearrange": ("rearrange_average", "rearrange_pi"),
    "isotonic": ("isotonize_average", "pava", "blend"),
    "grid": ("lp_distance",),
    "bands": ("assemble_band", "monotonize_band", "covers", "critical_value_max_t"),
    "estimators": ("fit", "bootstrap", "fit_quantile_process"),
    "montecarlo": ("simulate_rep", "run_experiment"),
}

# csvio functions are grouped into the read/write layers the metrics name
_CSV_GROUP = {
    "read_grid_function": "csvio.read", "read_band": "csvio.read",
    "read_dataset": "csvio.read", "read_draws": "csvio.read_draws",
    "write_grid_function": "csvio.write", "write_band": "csvio.write",
    "write_dataset": "csvio.write", "write_draws": "csvio.write_draws",
}

class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "phase", "failed", "counts")


def dump_spans(spans: list) -> list:
    """Spans as JSON-ready rows, with the parent given by its row index."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [[s.name, s.start, s.end, index.get(id(s.parent)), s.thread,
             s.phase, s.failed, s.counts] for s in spans]


def load_spans(rows: list) -> list:
    spans = []
    for name, start, end, parent, thread, phase, failed, counts in rows:
        s = Span()
        s.name, s.start, s.end, s.thread = name, start, end, thread
        s.phase, s.failed, s.counts = phase, failed, counts
        s.parent = None if parent is None else spans[parent]
        spans.append(s)
    return spans


class Tracer:
    """Collects spans; one stack of open spans per thread gives the parents."""

    def __init__(self):
        self.spans = []
        self.phase = "serial"
        self.main_thread = threading.get_ident()
        self._local = threading.local()

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    def call(self, name, fn, args, kwargs, counts_before, counts_after):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span()
        span.name = name
        span.parent = stack[-1] if stack else None
        span.thread = threading.get_ident()
        span.phase = self.phase
        span.failed = False
        span.counts = counts_before(args, kwargs) if counts_before else {}
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if counts_after:
                span.counts.update(counts_after(args, kwargs))


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _naming(module: str, func: str):
    """Span name (fixed or from the arguments) and count hooks for one function."""
    if module == "estimators" and func == "fit":
        def name(args, kwargs):
            spec = _arg(args, kwargs, 1, "spec")
            return f"estimators.fit.{spec.method}.{spec.loss.kind}"
        return name, None, None
    if module == "csvio":
        group = _CSV_GROUP[func]
        if func.startswith("read"):
            size = lambda a, k: {"bytes": _size(_arg(a, k, 0, "path"))}
            return group, size, None
        size = lambda a, k: {"bytes": _size(_arg(a, k, 1, "path"))}
        return group, None, size
    if func in ("rearrange_average", "isotonize_average"):
        nodes = lambda a, k: {"nodes": _arg(a, k, 0, "f").values.size}
        return f"{module}.{func}", nodes, None
    return f"{module}.{func}", None, None


def _wrap(tracer, module, func, fn):
    name, before, after = _naming(module, func)
    if callable(name):
        def wrapper(*args, **kwargs):
            return tracer.call(name(args, kwargs), fn, args, kwargs, before, after)
    else:
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, before, after)
    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function and re-bind each attribute that holds it."""
    mods = {m: importlib.import_module(f"monotonize.{m}") for m in TRACED}
    package = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "monotonize" or n.startswith("monotonize."))]
    for module, funcs in TRACED.items():
        mod = mods[module]
        for func in funcs:
            fn = getattr(mod, func)
            wrapper = _wrap(tracer, module, func, fn)
            for holder in package:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, wrapper)


# --- per-layer figures ------------------------------------------------------

def layer_metrics(spans: list, main_thread: int | None = None) -> dict:
    """Sum calls, self time and counts per span name.

    Spans of the serial phase give the layer figures.  Spans of the pool
    phase give only montecarlo.pool.wall_s (the pooled run_experiment calls)
    and montecarlo.pool.busy_s (time inside top-level spans of worker
    threads).  Self time is a span's duration minus its child spans', which
    nest on the span's own thread.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] += s.end - s.start
    out = defaultdict(float)
    for s in spans:
        dur = s.end - s.start
        if s.phase == "pool":
            if s.name == "montecarlo.run_experiment":
                out["montecarlo.pool.wall_s"] += dur
            elif s.parent is None and s.thread != main_thread:
                out["montecarlo.pool.busy_s"] += dur
            continue
        out[s.name + ".calls"] += 1
        out[s.name + ".self_s"] += dur - child_time[id(s)]
        for key, value in s.counts.items():
            out[f"{s.name}.{key}"] += value
        if s.name.startswith("estimators.fit.") and s.parent is not None:
            if s.parent.name == "estimators.bootstrap":
                out["estimators.bootstrap.fits"] += 1
                out["estimators.bootstrap.redraws"] += int(s.failed)
    return dict(out)


def parse_importtime(stderr: str) -> dict:
    """Cumulative import time of monotonize and of the scipy modules it loads.

    -X importtime prints one line per module in post-order, indented by
    depth; a scipy line counts when the line that imported it is not scipy.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if not parts[1].strip().isdigit():
            continue  # the header line
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(parts[1]) * 1e-6))
    total = scipy = 0.0
    for i, (depth, name, cum) in enumerate(rows):
        parent = next((r[1] for r in rows[i + 1:] if r[0] < depth), None)
        if name == "monotonize" and parent is None:
            total = cum
        top = name.split(".")[0]
        if top == "scipy" and (parent is None or parent.split(".")[0] != "scipy"):
            scipy += cum
    return {"cli.import_s": total, "cli.import.scipy_s": scipy}
