"""Spans around the library's public functions, recorded from outside the
package by rebinding module attributes while a traced pass runs.

A span is (name, start, end, parent span, operation id). Spans stay in
flat arrays until the run ends; self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import math
import sys
import time
from array import array

import numpy as np

# Wrapped functions per package module. ``errors`` does no work.
TARGETS = {
    "algebra": ["poly_roots", "poly_gcd", "poly_resultant", "mobius_from_triples",
                "Poly.__mul__", "RationalMap.__call__", "Mobius.__call__"],
    "quaddiff": ["schwarzian", "pole_report", "laurent_at", "critical_points"],
    "primitivity": ["condition_determinant", "series_obstruction", "classify_holonomy",
                    "check_rational_criterion", "check_polynomial_criterion"],
    "fiber": ["solve_fiber", "wronskian", "wronskian_jacobian", "coords_to_map",
              "local_primitive", "local_g"],
    "cubic": ["cross_ratio", "is_regular_tetrahedron", "cubic_fiber_explicit",
              "four_group", "lift_correspondence"],
    "jsonio": ["decode_rational", "decode_poly", "encode_fiber_report"],
    "cli": ["main"],
}
FUNCTIONS = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]
OP = "op"
NAMES = FUNCTIONS + [OP]
_ID = {name: i for i, name in enumerate(NAMES)}

# Work counts taken from arguments and results, beyond call counts.
COUNTERS = ("quaddiff.laurent_at.terms", "fiber.starts", "fiber.solutions")


def _laurent_terms(args, kwargs, result, counts):
    counts["quaddiff.laurent_at.terms"] += kwargs["order"] if "order" in kwargs else args[2]


def _fiber_starts(args, kwargs, report, counts):
    counts["fiber.starts"] += report.attempts
    counts["fiber.solutions"] += len(report.solutions)


_AFTER = {"quaddiff.laurent_at": _laurent_terms, "fiber.solve_fiber": _fiber_starts}


class Tracer:
    def __init__(self):
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._op_id = -1
        self._undo = []
        self.last_op_span = -1

    def _open(self, name_id):
        ix = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(math.nan)
        self._stack.append(ix)
        self.start.append(time.perf_counter())
        return ix

    def _close(self, ix):
        self.end[ix] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        name_id = _ID[name]
        after = _AFTER.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op_id < 0:  # input generation between operations
                return fn(*args, **kwargs)
            ix = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(ix)
            if after is not None:
                after(args, kwargs, result, tracer.counts)
            return result

        return traced

    def install(self):
        """Rebind every wrapped function in every ``schwarzian`` module that
        holds it, so ``from .x import f`` bindings are traced too."""
        import schwarzian.cli  # noqa: F401  (loads every package module)

        modules = [m for n, m in list(sys.modules.items())
                   if n == "schwarzian" or n.startswith("schwarzian.")]
        for name in FUNCTIONS:
            mod_name, attr = name.split(".", 1)
            owner = sys.modules[f"schwarzian.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                traced = self._wrap(name, orig)
                for key, value in list(vars(cls).items()):  # __rmul__ is __mul__
                    if value is orig:
                        self._undo.append((cls, key, value))
                        setattr(cls, key, traced)
                continue
            orig = getattr(owner, attr)
            traced = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, traced)

    def uninstall(self):
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)

    def begin(self, op_id):
        """Record spans from now on under this operation id, with no root span
        (a child process whose spans the parent absorbs under its own)."""
        self._op_id = op_id

    def run_op(self, op_id, fn, *args):
        """fn(*args) under a root span of its own operation id."""
        self._op_id = op_id
        ix = self.last_op_span = self._open(_ID[OP])
        try:
            return fn(*args)
        finally:
            self._close(ix)
            self._op_id = -1

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(NAMES), counts_keys=np.array(COUNTERS),
                            counts=np.array([self.counts[k] for k in COUNTERS]),
                            **self.arrays())

    def absorb(self, path, op_id, parent_of_roots):
        """Append the spans and counts a child process saved with ``save``;
        its root spans become children of span ``parent_of_roots``."""
        data = np.load(path)
        base = len(self.start)
        parent = data["parent"]
        self.name_id.extend(data["name_id"].tolist())
        self.start.extend(data["start"].tolist())
        self.end.extend(data["end"].tolist())
        self.parent.extend(np.where(parent >= 0, parent + base, parent_of_roots).tolist())
        self.op.extend([op_id] * len(parent))
        for key, value in zip(data["counts_keys"].tolist(), data["counts"].tolist()):
            self.counts[key] += int(value)

    def summary(self):
        """Calls and self time (ms) per span name, plus the work counts."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_s = dur - covered
        calls = np.bincount(a["name_id"], minlength=len(NAMES))
        self_ms = np.bincount(a["name_id"], weights=self_s, minlength=len(NAMES)) * 1e3
        out = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_ms"] = float(self_ms[i])
        out.update(self.counts)
        return out

    def durations(self, name):
        """Durations in seconds of every span with this name, by operation id."""
        a = self.arrays()
        sel = a["name_id"] == _ID[name]
        return dict(zip(a["op"][sel].tolist(), (a["end"] - a["start"])[sel].tolist()))
