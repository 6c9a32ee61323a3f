"""In-memory span tracing of qgsync's public functions, and self-time arithmetic.

`Tracer.install` wraps every public function of the traced modules at every
module that binds its name (so `from .operators import bilinear_b` in
`dynamics` and `cli` is traced too), plus a few methods on their classes.
Each call records one span: key, parent span, start and end.  Spans stay in
memory; `summarize` reduces them when the run ends.  `Tracer.restore` puts
every original object back.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np

LAYERS = ("fields", "operators", "noise", "dynamics", "analysis", "config", "cli")

# methods patched on their classes: (module, class, attribute)
CLASS_METHODS = (
    ("fields", "Field", "__init__"),
    ("noise", "NoiseStream", "normals"),
    ("noise", "OUKernel", "__init__"),
)


def public_functions(module) -> dict:
    """Functions a module defines itself whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Records nested spans of wrapped callables into flat in-memory arrays."""

    def __init__(self):
        self.keys: list[str] = []
        self.key_id: dict[str, int] = {}
        self.key_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.normals_drawn = 0
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, key: str) -> int:
        if key not in self.key_id:
            self.key_id[key] = len(self.keys)
            self.keys.append(key)
        return self.key_id[key]

    def wrap(self, fn, key: str):
        """Return a callable that runs `fn` inside a span named `key`."""
        kid = self._id(key)
        clock = time.perf_counter
        stack = self.stack
        key_of, parent, start, end = self.key_of, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            i = len(start)
            key_of.append(kid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _count_normals(self, fn):
        def counted(stream, step, count):
            self.normals_drawn += count
            return fn(stream, step, count)

        return counted

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self, modules: dict) -> None:
        """Wrap the public functions of `modules` ({layer: module}) everywhere they are bound.

        `modules` may hold extra entries (such as the package itself) that
        only re-bind names; every entry is searched for bindings.
        """
        wrappers = {}
        for layer in LAYERS:
            for name, fn in public_functions(modules[layer]).items():
                wrappers[id(fn)] = (fn, self.wrap(fn, f"{layer}.{name}"))
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, name, hit[1])
        for layer, cls_name, attr in CLASS_METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = vars(cls)[attr]
            if attr == "normals":
                fn = self._count_normals(fn)
            self._patch(cls, attr, self.wrap(fn, f"{layer}.{cls_name}.{attr}"))

    def restore(self) -> None:
        """Put back every patched binding, newest first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def spans(self):
        """(keys, key index, parent index, start, end) as numpy arrays."""
        return (
            list(self.keys),
            np.frombuffer(self.key_of, dtype=np.uint16).astype(np.int64),
            np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly (a single thread), so the children of a span cover
    disjoint parts of its interval and their durations add up.
    """
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def summarize(keys, key_idx, parent, start, end) -> dict:
    """Per key: call count, inclusive seconds and self seconds; per layer: self seconds.

    The layer of a key is its text before the first dot.  qgsync's public
    functions do not recurse, so summing inclusive durations per key counts
    no interval twice.
    """
    dur = end - start
    own = self_times(parent, start, end)
    n = len(keys)
    calls = np.bincount(key_idx, minlength=n)
    incl = np.bincount(key_idx, weights=dur, minlength=n)
    selfs = np.bincount(key_idx, weights=own, minlength=n)
    per_key = {
        k: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(selfs[i])}
        for i, k in enumerate(keys)
    }
    per_layer = {}
    for k, v in per_key.items():
        layer = k.split(".", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + v["self_s"]
    return {"keys": per_key, "layer_self_s": per_layer}
