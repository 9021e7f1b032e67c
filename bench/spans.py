"""In-memory span recorder that wraps srmlab's public functions from outside.

The benchmark never edits the library. For a traced pass it replaces every
public module-level function of the six srmlab modules with a wrapper, in
every module namespace that holds it, so calls made through names one module
imported from another (``srmlab.analysis.fast_srm``) are traced too. The
numpy factorizations the library calls (``eigh``, ``eigvalsh``, ``svd``) are
counted with their computed operation count, but recorded as events inside
the calling span rather than as child spans, so a srmlab function's self
time includes the factorizations it runs.

A span is ``(id, parent, op, name, start, end, failed)``. Every span of one
benchmark op carries that op's number, and every op has a root span named
``op`` in the ``bench`` layer, so the first library call of an op has a
parent. Self time is a span's duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("linalg", "constellations", "gus", "srm", "analysis", "cli")
NUMPY_FACTORIZATIONS = ("eigh", "eigvalsh", "svd")


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its children.

    Child intervals are clipped to the parent's interval before the union is
    taken, so overlapping or overhanging children are not subtracted twice.
    """
    children = defaultdict(list)
    for sid, parent, _op, _name, start, end, _failed in spans:
        children[parent].append((start, end))
    result = {}
    for sid, _parent, _op, _name, start, end, _failed in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[sid] = (end - start) - covered
    return result


def _operation_count(kind: str, matrix) -> int:
    shape = getattr(matrix, "shape", ())
    if len(shape) < 2:
        return 0
    rows, cols = int(shape[-2]), int(shape[-1])
    batch = 1
    for extent in shape[:-2]:
        batch *= int(extent)
    if kind == "svd":
        return batch * rows * cols * min(rows, cols)
    return batch * cols**3


class Tracer:
    """Records spans and numpy factorization counts for one traced pass."""

    def __init__(self):
        self.active = False
        self.op = 0
        self._stack: list[int] = []
        self._names: list[str] = []
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget the spans and counts recorded so far."""
        self.spans: list[tuple] = []
        self.eig_calls = 0
        self.eig_n3 = 0
        self.eig_seconds = 0.0
        # factorizations made while a function (at any depth) was running
        self.eig_inside: dict[str, int] = defaultdict(int)

    def _open(self, name: str) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        self._names.append(name)
        return sid, parent

    def _close(self, sid, parent, name, start, end, failed) -> None:
        self._stack.pop()
        self._names.pop()
        self.spans.append((sid, parent, self.op, name, start, end, failed))

    def run_op(self, op_number: int, call, *args):
        """Run one benchmark op under a root span, with tracing switched on."""
        self.op = op_number
        sid, parent = self._open("op")
        start = time.perf_counter()
        failed = True
        self.active = True
        try:
            result = call(*args)
            failed = False
            return result
        finally:
            self.active = False
            self._close(sid, parent, "op", start, time.perf_counter(), failed)

    def _wrap_function(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid, parent = tracer._open(name)
            start = time.perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                tracer._close(sid, parent, name, start, time.perf_counter(), failed)

        return traced

    def _wrap_factorization(self, kind: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(matrix, *args, **kwargs):
            if not tracer.active:
                return fn(matrix, *args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(matrix, *args, **kwargs)
            finally:
                tracer.eig_seconds += time.perf_counter() - start
                tracer.eig_calls += 1
                tracer.eig_n3 += _operation_count(kind, matrix)
                for name in set(tracer._names):
                    tracer.eig_inside[name] += 1

        return counted

    def install(self) -> None:
        """Swap wrappers into every srmlab module namespace and numpy.linalg."""
        import numpy as np

        modules = [importlib.import_module(f"srmlab.{layer}") for layer in LAYERS]
        module_names = {module.__name__ for module in modules}
        wrappers = {}
        for module in modules:
            for value in vars(module).values():
                if (
                    inspect.isfunction(value)
                    and value.__module__ in module_names
                    and not value.__name__.startswith("_")
                    and id(value) not in wrappers
                ):
                    layer = value.__module__.rsplit(".", 1)[1]
                    wrappers[id(value)] = self._wrap_function(f"{layer}.{value.__name__}", value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        for kind in NUMPY_FACTORIZATIONS:
            original = getattr(np.linalg, kind)
            self._patched.append((np.linalg, kind, original))
            setattr(np.linalg, kind, self._wrap_factorization(kind, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Per-function and per-layer totals of the spans recorded since reset."""
        selfs = self_times(self.spans)
        functions: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "failed": 0})
        for sid, _parent, _op, name, _start, _end, failed in self.spans:
            if name == "op":
                continue
            entry = functions[name]
            entry["calls"] += 1
            entry["self_s"] += selfs[sid]
            entry["failed"] += int(failed)
        layers = {layer: {"self_s": 0.0, "failed": 0} for layer in LAYERS}
        for name, entry in functions.items():
            layer = layers[name.split(".", 1)[0]]
            layer["self_s"] += entry["self_s"]
            layer["failed"] += entry["failed"]
        return {
            "functions": dict(functions),
            "layers": layers,
            "eig_calls": self.eig_calls,
            "eig_n3": self.eig_n3,
            "eig_seconds": self.eig_seconds,
            "eig_inside": dict(self.eig_inside),
        }
