"""Spans recorded from outside the library, around the public functions of
each gramdist module.

`install` replaces every public function of the traced modules, and every
alias of it that ``from .x import f`` left in another gramdist module, by a
wrapper that records a span. Spans stay in memory as lists
``[name, start, end, parent, work, label]`` until `summarize` turns them
into per-op counts and self times. Installing is one-way: a process that
installs the wrappers is used for traced runs only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

MODULES = ("csvio", "linalg", "qr", "distance", "regression", "rng", "verify", "cli")

# Public methods that do a layer's work. The per-draw parts of the generator
# (mix64 and SplitMix64.uniform, complex_disc, next_u64, ...) are left out:
# they run over a hundred thousand times per verify op, and a span around
# each would swamp what it measures. Their time counts as self time of the
# array method or suite that drew.
PER_DRAW = {"rng.mix64"}
METHODS = {
    "csvio": {"CsvTable": ("matrix", "column")},
    "rng": {
        "SplitMix64": (
            "real_matrix",
            "complex_matrix",
            "real_vector",
            "complex_vector",
            "permutation",
        )
    },
}

NAME, START, END, PARENT, WORK, LABEL = range(6)


def householder_flops(a) -> int:
    """Real flops of the reflector applications of an m x n Householder QR.

    Step k updates an (m-k) x (n-k) block twice (u* W, then the rank-1
    update): 2 mult-adds per entry, 2 real flops each for real input and 8
    for complex input. Computed from the shape alone; the column-norm
    updates of pivoting are not counted.
    """
    m, n = np.shape(a)
    per_madd = 8 if np.iscomplexobj(a) else 2
    return 2 * per_madd * sum((m - k) * (n - k) for k in range(min(m, n)))


def _csv_cells(args, kwargs, table) -> int:
    return len(table.rows) * table.width


def _qr_flops(args, kwargs, result) -> int:
    return householder_flops(args[0] if args else kwargs["a"])


def _suite_label(args, kwargs, result) -> str:
    return "verify." + (args[0] if args else kwargs["name"])


# Optional notes taken from a finished call: work counts units of work done,
# a label names a group whose inclusive time is reported on its own.
WORK_OF = {"csvio.parse_csv": _csv_cells, "qr.householder_qr": _qr_flops}
LABEL_OF = {"verify.run_suite": _suite_label}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans.clear()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        work, label = WORK_OF.get(name), LABEL_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[WORK] = work(args, kwargs, result)
            if label is not None:
                span[LABEL] = label(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> tuple[list[str], list[str]]:
    """Wrap the public functions of MODULES and the methods in METHODS.

    Returns the names wrapped and the names in METHODS that no longer
    exist; a missing name is reported, not raised.
    """
    wrappers = {}
    wrapped, absent = [], []
    for layer in MODULES:
        mod = importlib.import_module(f"gramdist.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in PER_DRAW:
                continue
            wrappers[obj] = tracer.wrap(name, obj)
            wrapped.append(name)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name, None)
            for meth in methods:
                name = f"{layer}.{cls_name}.{meth}"
                fn = None if cls is None else cls.__dict__.get(meth)
                if not inspect.isfunction(fn):
                    absent.append(name)
                    continue
                setattr(cls, meth, tracer.wrap(name, fn))
                wrapped.append(name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "gramdist" and not mod_name.startswith("gramdist."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    return wrapped, absent


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap and their summed
    duration is the part of the parent's interval they cover.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def summarize(spans, ops: int) -> dict:
    """Per-op calls, self time, inclusive time and work per span name, plus
    per-op module rollups of self time and per-op labelled inclusive time.
    A span whose name is not a gramdist layer, such as the per-op root span,
    is kept under its own name and enters no rollup."""
    per = {}
    labels = {}
    for s, own in zip(spans, self_times(spans)):
        rec = per.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0})
        rec["calls"] += 1
        rec["self_s"] += own
        rec["total_s"] += s[END] - s[START]
        rec["work"] += s[WORK]
        if s[LABEL] is not None:
            labels[s[LABEL]] = labels.get(s[LABEL], 0.0) + s[END] - s[START]
    modules = {m: 0.0 for m in MODULES}
    for name, rec in per.items():
        layer = name.split(".", 1)[0]
        if layer in modules:
            modules[layer] += rec["self_s"]
    return {
        "functions": {
            name: {
                "calls": rec["calls"] / ops,
                "self_s": rec["self_s"] / ops,
                "total_s": rec["total_s"] / ops,
                "work": rec["work"] / ops,
            }
            for name, rec in per.items()
        },
        "modules": {m: v / ops for m, v in modules.items()},
        "labels": {k: v / ops for k, v in labels.items()},
    }
