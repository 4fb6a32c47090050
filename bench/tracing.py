"""Span recorder for the traced run, installed from outside numsemi.

``Tracer.install()`` replaces each layer-boundary function below with a
wrapper, in every numsemi module that holds a reference to it (so
``numsemi.relation.gap_set`` and ``numsemi.cli.frobenius3`` are wrapped as
well as ``numsemi.core.gap_set``), and spans nest the way the calls do.
A span is recorded only while an operation is open; warm-up and output
checks pass straight through.

Spans are kept in flat arrays (operation id, name, parent, start, end, error)
and written out once, at the end of the run.  Self time is a span's duration
minus that of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("core", "polynomial", "relation", "closedform", "bounds", "genera",
          "sparsity", "diagrams", "uniformscan", "cli")

FUNCTIONS = {   # span name: (module, function)
    "core.validate": ("numsemi.core", "validate_generators"),
    "core.gap_set": ("numsemi.core", "gap_set"),
    "core.is_symmetric_gapset": ("numsemi.core", "is_symmetric_gapset"),
    "core.hilbert_numerator": ("numsemi.core", "hilbert_numerator"),
    "relation.relation_matrix": ("numsemi.relation", "relation_matrix"),
    "relation.classify": ("numsemi.relation", "classify"),
    "closedform.frobenius3": ("numsemi.closedform", "frobenius3"),
    "closedform.closed_form": ("numsemi.closedform", "closed_form"),
    "closedform.symmetric_closed": ("numsemi.closedform", "symmetric_closed"),
    "bounds.lower_bounds": ("numsemi.bounds", "lower_bounds"),
    "bounds.conjecture_bound_check": ("numsemi.bounds", "conjecture_bound_check"),
    "bounds.counterexample_family": ("numsemi.bounds", "counterexample_family"),
    "bounds.critical_l": ("numsemi.bounds", "critical_l"),
    "genera.genera": ("numsemi.genera", "genera"),
    "sparsity.sparsity_check": ("numsemi.sparsity", "sparsity_check"),
    "diagrams.delta2_grid": ("numsemi.diagrams", "delta2_grid"),
    "diagrams.delta3_via_diagram": ("numsemi.diagrams", "delta3_via_diagram"),
    "diagrams.lambda_set": ("numsemi.diagrams", "lambda_set"),
    "diagrams.render_diagram": ("numsemi.diagrams", "render_diagram"),
    "uniformscan.scan_uniform": ("numsemi.uniformscan", "scan_uniform"),
    "cli.main": ("numsemi.cli", "main"),
}
METHODS = {"polynomial.mul": "__mul__", "polynomial.add": "__add__"}
CLASSMETHODS = {"polynomial.from_exponents": "from_exponents",
                "polynomial.geometric": "geometric"}
OP = "bench.op"


def sylvester_bound(d):
    """Bound the gap-set DP allocates its mask to (numsemi.core._gap_bound)."""
    pairs = [a * b - a - b for i, a in enumerate(d) for b in d[i + 1:]
             if math.gcd(a, b) == 1]
    return min(pairs) if pairs else 4 * d[-1] ** 2


def replace_everywhere(original, replacement):
    """Rebind every numsemi module attribute that is ``original``.

    Returns the (module, name, value) triples that undo the change.
    """
    undo = []
    for name, mod in list(sys.modules.items()):
        if name != "numsemi" and not name.startswith("numsemi."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, key, value))
                setattr(mod, key, replacement)
    return undo


# counters computed from a call's arguments and result, after its span closes
def _count_gap_set(c, args, result):
    c["core.gap_set.gaps_out"] += len(result.gaps)
    c["core.gap_set.mask_bits"] += sylvester_bound(args[0].elements) + 1


def _count_mul(c, args, result):
    if not isinstance(args[1], int):
        c["polynomial.mul.term_pairs"] += args[0].num_monomials() * args[1].num_monomials()


def _count_grid(c, args, result):
    c["diagrams.grid_cells"] += (args[0] - 1) * (args[1] - 1) // 2


def _count_scan(c, args, result):
    c["uniformscan.hits"] += len(result)
    c["uniformscan.candidates"] += math.comb(args[1] - 2, 3) if args[1] >= 5 else 0


COUNTERS = {"core.gap_set": _count_gap_set, "polynomial.mul": _count_mul,
            "diagrams.delta2_grid": _count_grid,
            "uniformscan.scan_uniform": _count_scan}
# "computed" counts are derived from arguments, not observed inside numsemi
COUNTER_UNITS = {"core.gap_set.gaps_out": "count/op",
                 "core.gap_set.mask_bits": "computed/op",
                 "polynomial.mul.term_pairs": "computed/op",
                 "diagrams.grid_cells": "computed/op",
                 "uniformscan.hits": "count/op",
                 "uniformscan.candidates": "computed/op"}
# spans reported one by one, besides the per-layer totals
SELF_TIMED = ("core.validate", "core.gap_set", "core.hilbert_numerator",
              "polynomial.mul", "relation.relation_matrix", "relation.classify",
              "cli.main")
CALLS_COUNTED = ("core.gap_set", "polynomial.mul", "relation.relation_matrix", "cli.main")


class Tracer:
    def __init__(self):
        self.names = [OP, *FUNCTIONS, *METHODS, *CLASSMETHODS]
        self.op = -1
        self.stack = []
        self.span_op = array("i")
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.counters = defaultdict(int)
        self._undo = []

    # --- recording -----------------------------------------------------------

    def _open(self, name_id):
        idx = len(self.start)
        self.span_op.append(self.op)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.error.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def begin_op(self, op_id):
        self.op = op_id
        self._open(0)

    def end_op(self):
        self._close(self.stack[-1])
        self.op = -1

    def _wrap(self, name, fn):
        tracer, name_id, count = self, self.names.index(name), COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.error[idx] = 1
                raise
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counters, args, result)
            return result
        return traced

    # --- installing ----------------------------------------------------------

    def install(self):
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            self._undo += replace_everywhere(original, self._wrap(name, original))
        cls = sys.modules["numsemi.polynomial"].SparsePolynomial
        self._undo.append((cls, "__rmul__", cls.__dict__["__rmul__"]))
        for name, attr in METHODS.items():
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        cls.__rmul__ = cls.__mul__
        for name, attr in CLASSMETHODS.items():
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, classmethod(self._wrap(name, original.__func__)))
        return self

    def uninstall(self):
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)

    # --- results -------------------------------------------------------------

    def self_times(self):
        start, end = self.start, self.end
        children = array("d", bytes(8 * len(start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += end[i] - start[i]
        return array("d", (e - s - c for s, e, c in zip(start, end, children)))

    def metrics(self, ops):
        """Per-layer metrics, each per operation, from the recorded spans."""
        names = self.names
        self_s = self.self_times()
        by_name = defaultdict(float)
        calls = defaultdict(int)
        errors = defaultdict(int)
        for i, n in enumerate(self.span_name):
            name = names[n]
            by_name[name] += self_s[i]
            calls[name] += 1
            p = self.parent[i]
            layer = name.split(".")[0]
            if self.error[i] and (p < 0 or names[self.span_name[p]].split(".")[0] != layer):
                errors[layer] += 1
        classify = names.index("relation.classify")
        gap_set = names.index("core.gap_set")
        checked = {p for n, p in zip(self.span_name, self.parent)
                   if n == gap_set and p >= 0 and self.span_name[p] == classify}
        per_op = 1 / ops
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for layer in ("bench",) + LAYERS:
            put(f"{layer}.self_s", per_op * sum(
                v for k, v in by_name.items() if k.split(".")[0] == layer), "s/op")
        for name in SELF_TIMED:
            put(f"{name}.self_s", by_name[name] * per_op, "s/op")
        for name in CALLS_COUNTED:
            put(f"{name}.calls", calls[name] * per_op, "count/op")
        for name, unit in COUNTER_UNITS.items():
            put(name, self.counters[name] * per_op, unit)
        put("relation.classify.cross_check_ratio",
            len(checked) / calls["relation.classify"] if calls["relation.classify"] else 0.0,
            "ratio")
        candidates = self.counters["uniformscan.candidates"]
        put("uniformscan.hit_ratio",
            self.counters["uniformscan.hits"] / candidates if candidates else 0.0, "ratio")
        for layer in LAYERS:
            put(f"{layer}.errors", errors[layer] * per_op, "count/op")
        put("trace.spans", len(self.start) * per_op, "count/op")
        return out

    def write(self, path, header):
        """All spans as gzipped CSV, times in microseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(f"# {header}\nop,span,parent,name,start_us,end_us,error\n")
            for i in range(len(self.start)):
                f.write(f"{self.span_op[i]},{i},{self.parent[i]},"
                        f"{self.names[self.span_name[i]]},"
                        f"{(self.start[i] - t0) * 1e6:.1f},{(self.end[i] - t0) * 1e6:.1f},"
                        f"{self.error[i]}\n")
