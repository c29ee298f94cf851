"""Span tracing of the chgeom layers, installed from outside the package.

Every public function of the library modules, a few named methods and
every registered property function gets a wrapper that records one span
(id, name, start, end, parent id) per call.  Modules that bound a
function through ``from ... import`` hold their own reference to it, so
``install`` swaps each binding in every chgeom namespace, and
``uninstall`` puts the originals back.  Spans stay in memory; ``aggregate`` turns one
pass worth of them into calls, inclusive and self time per span name, and
``write_spans`` saves the last pass to an ``.npz`` file.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from pathlib import Path

import numpy as np

LIBRARY_MODULES = ("core", "projective", "circles", "foliation", "ortho",
                   "tangent", "sampling")
MODULES = LIBRARY_MODULES + ("properties", "harness")

# methods traced under a span name of their own: (module, class, attribute, name)
METHODS = (
    ("projective", "MoebiusMap", "__call__", "moebius_call"),
    ("projective", "MoebiusMap", "__matmul__", "moebius_matmul"),
    ("projective", "MoebiusMap", "inverse", "moebius_inverse"),
    ("circles", "CCircle", "membership_residual", "ccircle_member"),
    ("circles", "RCircle", "membership_residual", "rcircle_member"),
)


def _public_functions(mod):
    """Public callables defined in ``mod`` itself (classes excluded)."""
    for name, obj in vars(mod).items():
        if (not name.startswith("_") and callable(obj) and not inspect.isclass(obj)
                and getattr(obj, "__module__", None) == mod.__name__):
            yield name, obj


class Tracer:
    """Span-recording wrappers, built once and swapped in and out.

    One instance per traced run; ``install`` and ``uninstall`` may
    alternate any number of times.
    """

    def __init__(self, lib):
        self.lib = lib
        self.names: list[str] = []
        self.spans: list[tuple] = []      # (id, name index, start ns, end ns, parent id)
        self._stack: list[int] = []
        self._next = [0]
        self._patches: list[tuple] = []   # (owner, attribute, original, wrapper)
        namespaces = [getattr(lib, m) for m in MODULES] + [lib.package]
        for modname in LIBRARY_MODULES:
            for fname, fn in list(_public_functions(getattr(lib, modname))):
                wrapper = self._wrap(f"{modname}.{fname}", fn)
                for ns in namespaces:
                    for key, value in vars(ns).items():
                        if value is fn:
                            self._patches.append((ns, key, fn, wrapper))
        for modname, cls_name, attr, span in METHODS:
            cls = getattr(getattr(lib, modname), cls_name)
            fn = vars(cls)[attr]
            self._patches.append((cls, attr, fn, self._wrap(f"{modname}.{span}", fn)))
        run_suite = lib.harness.run_suite
        self._patches.append((lib.harness, "run_suite", run_suite,
                              self._wrap("harness.run_suite", run_suite)))
        self._registry = list(lib.properties.REGISTRY)
        self._traced_registry = [
            dataclasses.replace(p, fn=self._wrap(f"properties.{p.name}", p.fn))
            for p in self._registry
        ]

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, counter = self.spans, self._stack, self._next
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = counter[0]
            counter[0] = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, nid, t0, t1, parent))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.lib.properties.REGISTRY[:] = self._traced_registry

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.lib.properties.REGISTRY[:] = self._registry

    def reset(self) -> None:
        """Drop the recorded spans; call between passes."""
        self.spans.clear()
        self._stack.clear()
        self._next[0] = 0

    def aggregate(self):
        """(calls, inclusive ns, self ns) per span name for the recorded spans.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        n_names = len(self.names)
        if not self.spans:
            zeros = np.zeros(n_names)
            return zeros.astype(np.int64), zeros, zeros
        arr = np.array(self.spans, dtype=np.int64)
        order = np.argsort(arr[:, 0])
        arr = arr[order]
        dur = (arr[:, 3] - arr[:, 2]).astype(float)
        parent = arr[:, 4]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(arr))
        self_t = dur - child[: len(arr)]
        names = arr[:, 1]
        calls = np.bincount(names, minlength=n_names)
        incl = np.bincount(names, weights=dur, minlength=n_names)
        selft = np.bincount(names, weights=self_t, minlength=n_names)
        return calls, incl, selft

    def write_spans(self, path: Path) -> None:
        """Save the recorded spans (ids, name index, start, end, parent) and names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arr = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        np.savez_compressed(path, spans=arr[np.argsort(arr[:, 0])],
                            names=np.array(self.names))

