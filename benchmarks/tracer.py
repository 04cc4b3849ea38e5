"""Span recorder installed around the public functions of the normframes modules.

Every public module-level function of ``expr``, ``geometry``,
``derivation``, ``matops``, ``curvature``, ``frames`` and ``cli`` is
replaced, in every ``normframes.*`` namespace that binds it, by a wrapper
that records one span per call: name, start, end, parent span, op id and
whether it is the outermost active span of its name.  The callables that
``expr.compile_exprs`` returns are wrapped too (span name
``expr.compiled``), so each evaluation of a compiled component matrix is
counted.  Spans stay in flat arrays in memory; aggregation and writing
happen after the traced passes.  No span is recorded inside the program:
the boundaries are the module functions as callers see them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("expr", "geometry", "derivation", "matops", "curvature", "frames", "cli")
COMPILED = "expr.compiled"


class SpanRecorder:
    def __init__(self, domain_error: type):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.active: list[int] = []
        self.op_id = -1
        self.recording = False
        self.domain_errors = 0
        self._last_error = None
        self._domain_error = domain_error
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
            self.active.append(0)
        return self._label_ids[label]

    def wrap(self, fn, label: str):
        name_id = self.label_id(label)
        rec = self
        names, parents, ops, outers = self.name, self.parent, self.op, self.outer
        starts, ends, stack, active = self.start, self.end, self.stack, self.active
        clock = time.perf_counter
        domain_error = self._domain_error

        def span(*args, **kwargs):
            if not rec.recording:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(rec.op_id)
            outers.append(active[name_id] == 0)
            ends.append(0.0)
            active[name_id] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except domain_error as err:
                rec._count_domain_error(err)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                active[name_id] -= 1

        functools.update_wrapper(span, fn)
        return span

    def _count_domain_error(self, err):
        # one exception unwinding through nested spans is counted once
        if err is not self._last_error:
            self._last_error = err
            self.domain_errors += 1

    def mark(self) -> int:
        """Index of the next span, to delimit a pass."""
        return len(self.start)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function of the seven modules in every
        ``normframes.*`` namespace that binds it."""
        originals: dict[int, tuple[object, str]] = {}
        for short in MODULES:
            mod = sys.modules[f"normframes.{short}"]
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and not attr.startswith("_") and val.__module__ == mod.__name__:
                    originals[id(val)] = (val, f"{short}.{attr}")
        wrappers: dict[int, object] = {}
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "normframes" or n.startswith("normframes."))]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                entry = originals.get(id(val))
                if entry is None or entry[0] is not val:
                    continue
                if id(val) not in wrappers:
                    fn, label = entry
                    if label == "expr.compile_exprs":
                        fn = self._compile_and_wrap(fn)
                    wrappers[id(val)] = self.wrap(fn, label)
                setattr(ns, attr, wrappers[id(val)])
                self._patched.append((ns, attr, val))
        self.label_id(COMPILED)

    def _compile_and_wrap(self, compile_exprs):
        def compile_traced(*args, **kwargs):
            return self.wrap(compile_exprs(*args, **kwargs), COMPILED)

        functools.update_wrapper(compile_traced, compile_exprs)
        return compile_traced

    def uninstall(self):
        for ns, attr, val in reversed(self._patched):
            setattr(ns, attr, val)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Zero-copy views of the span columns; take them only after recording."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "outer": np.frombuffer(self.outer, dtype=np.int8).view(bool),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path, bounds):
        """Write the spans compactly: start offsets and durations in float32."""
        spans = self.arrays()
        t0 = spans["start"][0] if len(spans["start"]) else 0.0
        np.savez(
            path,
            labels=np.array(self.labels),
            bounds=np.asarray(bounds, dtype=np.int64),
            name=spans["name"].astype(np.int16),
            parent=spans["parent"].astype(np.int32),
            op=spans["op"].astype(np.int16),
            outer=spans["outer"],
            start_s=(spans["start"] - t0).astype(np.float32),
            duration_s=(spans["end"] - spans["start"]).astype(np.float32),
        )

    def aggregate(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per-name calls, self time and total time of the spans [lo, hi).

        Self time is a span's duration minus the durations of its direct
        children; total time sums only the outermost span of each name, so
        recursion is not counted twice.
        """
        spans = self.arrays()
        name = spans["name"][lo:hi]
        parent = spans["parent"][lo:hi] - lo
        outer = spans["outer"][lo:hi]
        dur = spans["end"][lo:hi] - spans["start"][lo:hi]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_t = dur - child
        count = len(self.labels)
        calls = np.bincount(name, minlength=count)
        self_s = np.bincount(name, weights=self_t, minlength=count)
        total_s = np.bincount(name[outer], weights=dur[outer], minlength=count)
        return {
            label: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            for i, label in enumerate(self.labels)
        }
