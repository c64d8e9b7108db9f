"""Span tracing of thresholdgame's public functions, installed from outside.

``Tracer.install`` replaces the listed functions and ``MixedCdf`` methods
with thin wrappers that record one span per call: name, start, end, parent
span and operation id, plus the number of array elements passed in (for
``simulate``, the number of ``CHUNK_TRIALS``-sized chunks it runs).  Spans
live in flat in-memory arrays and are written out once, at the end of a run.
``Tracer.uninstall`` puts every original object back where it was found.

Self time of a span is its duration minus the durations of its direct child
spans; time in unwrapped helpers counts toward the nearest wrapped caller.

Only the standard library is imported at module level, so that loading the
tracer does not move numpy's import out of ``import thresholdgame``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from array import array

#: ``MixedCdf`` methods wrapped as ``dists.<method>``.
DIST_METHODS = ("cdf", "cdf_integral", "left_limit", "inverse", "support_contains")

#: Module-level functions wrapped as ``<module>.<function>``.
FUNCTIONS = (
    ("equilibrium", "equilibrium_interval"),
    ("equilibrium", "verify_equilibrium"),
    ("equilibrium", "selection_probabilities"),
    ("inversion", "inversion_iid"),
    ("analysis", "search_best_interval"),
    ("engine", "simulate"),
    ("cli", "main"),
)


def _size(value) -> int:
    return int(getattr(value, "size", 1))


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.elems = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, label, elems_of, rename=None):
        """Wrap ``fn``; ``label(args, kwargs)`` names the span before the call,
        ``rename(result)`` may rename it after the call returns."""
        names, parents, ops, elems = self.name, self.parent, self.op, self.elems
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(label(args, kwargs))
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            elems.append(elems_of(args, kwargs))
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if rename is not None:
                names[idx] = rename(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the functions of every thresholdgame module already imported."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        from thresholdgame.dists import MixedCdf

        for method in DIST_METHODS:
            original = MixedCdf.__dict__[method]
            span = self.name_id(f"dists.{method}")
            wrapper = self._wrap(original, lambda a, k, s=span: s,
                                 lambda a, k: _size(a[1]) if len(a) > 1 else 1)
            self._patched.append((MixedCdf, method, original))
            setattr(MixedCdf, method, wrapper)

        for module_name, func_name in FUNCTIONS:
            module = sys.modules.get(f"thresholdgame.{module_name}")
            if module is None:
                continue
            original = getattr(module, func_name)
            wrapper = self._wrapper_for(module_name, func_name, original)
            for holder in _package_modules():
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def _wrapper_for(self, module_name, func_name, original):
        base = f"{module_name}.{func_name}"
        if func_name == "inversion_iid":
            def family(args, kwargs):
                dist = args[0] if args else kwargs["d"]
                kind = dist.family[0] if dist.family is not None else "other"
                return self.name_id(f"{base}.{kind}")
            return self._wrap(original, family, lambda a, k: 1)
        if func_name == "simulate":
            engine = sys.modules["thresholdgame.engine"]
            signature = inspect.signature(original)
            span = self.name_id(base)

            def chunks(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return math.ceil(bound.arguments["trials"] / engine.CHUNK_TRIALS)

            return self._wrap(original, lambda a, k: span, chunks,
                              rename=lambda r: self.name_id(f"{base}.n{r.n_firms}"))
        span = self.name_id(base)
        if func_name == "selection_probabilities":
            return self._wrap(original, lambda a, k: span,
                              lambda a, k: _size(a[0] if a else k["thetas"]))
        return self._wrap(original, lambda a, k: span, lambda a, k: 1)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, elements, self seconds and total seconds."""
        import numpy as np

        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        elems = np.asarray(self.elems)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        elem_sum = np.bincount(name, weights=elems.astype(float), minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        total_s = np.bincount(name, weights=dur, minlength=k)
        return {
            n: {"calls": int(calls[i]), "elems": int(elem_sum[i]),
                "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            for i, n in enumerate(self.names) if calls[i]
        }

    def write(self, prefix: str) -> None:
        """Write the raw spans to ``prefix.npz`` and their summary to ``prefix.json``."""
        import numpy as np

        np.savez(
            prefix + ".npz",
            names=np.array(self.names, dtype=str),
            name=np.asarray(self.name),
            parent=np.asarray(self.parent),
            op=np.asarray(self.op),
            elems=np.asarray(self.elems),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
        with open(prefix + ".json", "w") as fh:
            json.dump(self.summary(), fh)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "thresholdgame" or name.startswith("thresholdgame."))]
