"""Outside-in span tracing of oodlab's layers, without touching the package.

A layer is one module of the package. The tracer wraps each layer's public
functions at the calls that cross module boundaries: it replaces the
defining module's attribute and every ``from ... import`` binding of the same
object in another module, so calls from every caller go through the wrapper.
Which functions cross a boundary is read from the package source (module
aliases such as ``criteria.id_loss`` and ``from .x import name`` bindings),
so a function added later is traced without editing this file.

Spans live in flat in-memory arrays (function id, parent span, start, end,
rows) and are written out once, after the traced pass. A span's self time is
its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import os
import time
import types
from array import array

import numpy as np

PACKAGE = "oodlab"
LAYERS = ("config", "gda", "linalg", "backbone", "heads", "criteria", "metrics", "trainer", "shiftsim", "cli")

# Public functions called only inside their own module that mark a phase the
# per-layer metrics separate out: SGD steps, eval scoring, snapshot statistics.
PHASE_FUNCTIONS = {
    "trainer": ("batch_gradients", "score_samples", "evaluate", "accuracy"),
    "shiftsim": ("shift_stats",),
}
# Methods called on instances from other modules, which call-site analysis
# of module aliases cannot see.
METHODS = {"gda": (("LabeledSet", "to_csv"), ("LabeledSet", "from_csv"))}
# The entry point the benchmark itself calls.
ENTRY = ("cli", "main")

# Functions whose ``path`` argument names a file they write or read; its size
# after the call is added to the named byte counter.
FILE_BYTES = {
    ("trainer", "save_checkpoint"): "trainer.checkpoint_bytes",
    ("shiftsim", "trajectory_to_csv"): "shiftsim.csv_bytes",
    ("shiftsim", "stats_to_csv"): "shiftsim.csv_bytes",
    ("gda", "to_csv"): "gda.csv_bytes",
    ("gda", "from_csv"): "gda.csv_bytes",
}

# Trainer functions whose spans are eval scoring; backbone rows forwarded
# under them are eval-forward rows.
EVAL_MARKERS = ("score_", "evaluate", "accuracy")


def _batch_rows(args) -> int:
    """Rows in the first array argument: its leading dimension, or 1 for a vector."""
    for arg in args:
        if isinstance(arg, np.ndarray):
            return arg.shape[0] if arg.ndim > 1 else 1
    return 0


def _set_rows(args) -> int:
    """Rows across every labelled-set argument (anything with ``features``)."""
    return sum(len(arg) for arg in args if hasattr(arg, "features"))


def rows_counter(layer: str, name: str):
    if layer in ("criteria", "backbone"):
        return _batch_rows
    if (layer, name) == ("trainer", "evaluate"):
        return _set_rows
    return None


def cross_module_calls(src_dir: str) -> set[tuple[str, str]]:
    """(module, name) pairs that one layer module references in another."""
    pairs: set[tuple[str, str]] = set()
    for layer in LAYERS:
        with open(os.path.join(src_dir, PACKAGE, layer + ".py")) as fh:
            tree = ast.parse(fh.read())
        aliases: dict[str, str] = {}
        found: set[tuple[str, str]] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        found.add((node.module, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                found.add((aliases[node.value.id], node.attr))
        pairs |= {(module, name) for module, name in found if module != layer}
    return pairs


class Tracer:
    """Flat span arrays plus per-file byte counters for one traced pass."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []
        self.fn = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("l")
        self.stack = [-1]
        self.bytes: dict[str, int] = {}

    def wrap(self, layer: str, name: str, func):
        fid = len(self.names)
        self.names.append((layer, name))
        fn, parent, start, end, rows, stack = self.fn, self.parent, self.start, self.end, self.rows, self.stack
        count_rows = rows_counter(layer, name)
        byte_key = FILE_BYTES.get((layer, name))
        path_index = list(inspect.signature(func).parameters).index("path") if byte_key else -1
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(start)
            fn.append(fid)
            parent.append(stack[-1])
            rows.append(count_rows(args) if count_rows else 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                path = (kwargs["path"] if "path" in kwargs else args[path_index]) if byte_key else None
                if path is not None and os.path.exists(path):
                    self.bytes[byte_key] = self.bytes.get(byte_key, 0) + os.path.getsize(path)

        return traced

    def install(self, src_dir: str) -> None:
        """Wrap every traced function of the package, at every binding of it."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        targets = set(cross_module_calls(src_dir)) | {ENTRY}
        targets |= {(layer, name) for layer, names in PHASE_FUNCTIONS.items() for name in names}
        for layer, name in sorted(targets):
            if layer not in modules or name.startswith("_"):
                continue
            func = getattr(modules[layer], name, None)
            if not (isinstance(func, types.FunctionType) and func.__module__ == modules[layer].__name__):
                continue
            traced = self.wrap(layer, name, func)
            for other in modules.values():
                for attr, value in list(vars(other).items()):
                    if value is func:
                        setattr(other, attr, traced)
        for layer, methods in METHODS.items():
            for cls_name, name in methods:
                cls = getattr(modules[layer], cls_name)
                raw = cls.__dict__[name]
                if isinstance(raw, classmethod):
                    setattr(cls, name, classmethod(self.wrap(layer, name, raw.__func__)))
                else:
                    setattr(cls, name, self.wrap(layer, name, raw))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fn": np.asarray(self.fn, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "rows": np.asarray(self.rows, dtype=np.int64),
        }

    def write(self, path: str) -> None:
        """Dump every span as one tab-separated line: id, parent, layer, function, start, end, rows."""
        with open(path, "w") as fh:
            fh.write("span\tparent\tlayer\tfunction\tstart_s\tend_s\trows\n")
            for idx in range(len(self.fn)):
                layer, name = self.names[self.fn[idx]]
                fh.write(f"{idx}\t{self.parent[idx]}\t{layer}\t{name}\t{self.start[idx]!r}\t{self.end[idx]!r}\t{self.rows[idx]}\n")


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed duration of its direct children."""
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def under_marker(parent: np.ndarray, marked: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """For each span in ``spans``, whether it or an ancestor is ``marked``."""
    out = np.zeros(len(spans), dtype=bool)
    for i, span in enumerate(spans):
        cur = int(span)
        while cur >= 0 and not marked[cur]:
            cur = int(parent[cur])
        out[i] = cur >= 0
    return out


# Per-function self-time buckets: (metric, layer, substrings of the function name).
PHASE_MS = (
    ("heads.forward_ms", "heads", ("forward",)),
    ("heads.backward_ms", "heads", ("backward",)),
    ("heads.confidence_ms", "heads", ("confidence",)),
    ("backbone.forward_ms", "backbone", ("forward",)),
    ("backbone.backward_ms", "backbone", ("backward",)),
    ("metrics.report_ms", "metrics", ("report",)),
    ("metrics.records_ms", "metrics", ("records",)),
    ("metrics.histogram_ms", "metrics", ("histogram",)),
    ("trainer.score_ms", "trainer", EVAL_MARKERS),
    ("trainer.checkpoint_write_ms", "trainer", ("save_checkpoint",)),
    ("trainer.checkpoint_read_ms", "trainer", ("load_checkpoint",)),
    ("shiftsim.stats_ms", "shiftsim", ("shift_stats",)),
    ("shiftsim.csv_ms", "shiftsim", ("_csv",)),
    ("gda.sample_ms", "gda", ("sample",)),
    ("gda.fit_ms", "gda", ("fit",)),
    ("gda.csv_write_ms", "gda", ("to_csv",)),
    ("gda.csv_read_ms", "gda", ("from_csv",)),
    ("config.load_ms", "config", ("load_config",)),
)


def _matches(names: list[tuple[str, str]], layer: str, parts: tuple[str, ...]) -> np.ndarray:
    return np.array([lay == layer and any(p in name for p in parts) for lay, name in names], dtype=bool)


def layer_metrics(names: list[tuple[str, str]], spans: dict[str, np.ndarray], file_bytes: dict[str, int]) -> dict[str, float]:
    """Per-layer self times (ms) and counts from one pass's spans.

    Every ``*_ms`` figure is self time: work a layer's own code did, with the
    time of wrapped calls into other layers (or deeper into its own) removed,
    so the figures of all layers add up to the traced pass.
    """
    fn, parent, rows = spans["fn"], spans["parent"], spans["rows"]
    self_ms = 1e3 * self_times(parent, spans["start"], spans["end"])
    fn_self = np.bincount(fn, weights=self_ms, minlength=len(names))
    fn_calls = np.bincount(fn, minlength=len(names)).astype(float)
    fn_rows = np.bincount(fn, weights=rows, minlength=len(names))
    layer_of = np.array([layer for layer, _ in names])

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = float(fn_self[layer_of == layer].sum())
    for metric, layer, parts in PHASE_MS:
        out[metric] = float(fn_self[_matches(names, layer, parts)].sum())

    out["criteria.calls"] = float(fn_calls[layer_of == "criteria"].sum())
    out["criteria.rows"] = float(fn_rows[layer_of == "criteria"].sum())
    out["criteria.calls_per_row"] = out["criteria.calls"] / out["criteria.rows"] if out["criteria.rows"] else 0.0
    out["heads.confidence_calls"] = float(fn_calls[_matches(names, "heads", ("confidence",))].sum())
    out["linalg.calls"] = float(fn_calls[layer_of == "linalg"].sum())
    forward_fns = _matches(names, "backbone", ("forward",))
    out["backbone.rows"] = float(fn_rows[forward_fns].sum())
    out["metrics.calls"] = float(fn_calls[layer_of == "metrics"].sum())

    # Eval waste: backbone rows forwarded under eval scoring, per row scored.
    forward_spans = np.nonzero(forward_fns[fn])[0]
    eval_forward = under_marker(parent, _matches(names, "trainer", EVAL_MARKERS)[fn], forward_spans)
    eval_forward_rows = float(rows[forward_spans[eval_forward]].sum())
    scored_rows = float(fn_rows[_matches(names, "trainer", ("evaluate",))].sum())
    out["trainer.eval_forward_rows_per_row"] = eval_forward_rows / scored_rows if scored_rows else 0.0

    for key in ("trainer.checkpoint_bytes", "shiftsim.csv_bytes", "gda.csv_bytes"):
        out[key] = float(file_bytes.get(key, 0))
    out["trace.spans"] = float(len(fn))
    return out
