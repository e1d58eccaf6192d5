"""Layer tracing from outside the program: wrappers around each module's
public functions, spans kept in memory, per-layer aggregation, and exact
Fraction-call counts from a cProfile counting pass.

A span is opened where a call crosses a layer boundary, and at every call
of a function reported on its own (FUNCTION_METRICS). Any other call from a
function of layer L into a public function of L stays inside the caller's
span: ``kernel_basis`` includes its ``rref`` and ``coadjoint_rep`` its
``adjoint_rep``, while the ``check_metric`` that ``nilpotent_extension``
makes is a span of its own.
"""
from __future__ import annotations

import cProfile
import fnmatch
import functools
import json
import pstats
import sys
import types
from time import perf_counter

LAYERS = ("cli", "fileio", "homlie", "reps", "bialgebra", "prelie",
          "yangbaxter", "symplectic", "exactlin")

# Per-scalar and per-vector helpers, called up to a million times per cycle
# (mostly from Mat methods, which are not wrapped). A span each would cost
# more than the work it measures, so their time stays in the caller's span.
UNWRAPPED = frozenset({
    "exactlin.rat", "exactlin.rat_str", "exactlin.dense", "exactlin.sparse_of",
    "exactlin.unit_vec", "exactlin.vec_add_into", "homlie.bracket_vec",
})

# Function groups reported on their own: self time summed over the spans
# whose name matches one of the group's patterns.
FUNCTION_METRICS = {
    "reps.check_representation": ("reps.check_representation",),
    "reps.coadjoint_rep": ("reps.coadjoint_rep",),
    "symplectic.check_metric": ("symplectic.check_metric",),
    "homlie.check_algebra": ("homlie.check_algebra",),
    "homlie.derivation_space": ("homlie.derivation_space",),
    "exactlin.kernel_basis": ("exactlin.kernel_basis",),
    "bialgebra.check_matched_pair": ("bialgebra.check_matched_pair",),
    "prelie.check_o_operator": ("prelie.check_o_operator",),
    "fileio.load": ("fileio.load_*", "fileio.*_from_doc"),
    "fileio.dump": ("fileio.dump", "fileio.dumps", "fileio.*_to_doc"),
}


class Tracer:
    """Installs span-recording wrappers into the ``homlie3`` package.

    Spans are lists ``[id, parent, name, layer, t0, t1]``; the benchmark opens
    one root span per op (layer ``op``), so all spans of an op share its
    root. Recording happens only while ``on`` is true.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.stack: list = []
        self.on = False
        self._undo: list = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        pkg = self.package
        mods = [pkg] + [getattr(pkg, layer) for layer in LAYERS]
        for layer in LAYERS:
            mod = getattr(pkg, layer)
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__
                        or f"{layer}.{name}" in UNWRAPPED):
                    continue
                qualname = f"{layer}.{name}"
                named = any(fnmatch.fnmatchcase(qualname, pat)
                            for group in FUNCTION_METRICS.values() for pat in group)
                wrapper = self._wrap(layer, qualname, named, fn)
                # patch every namespace where callers look the name up
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._undo):
            setattr(m, attr, fn)
        self._undo.clear()

    def _wrap(self, layer: str, qualname: str, named: bool, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not tracer.on or (not named and stack[-1][3] == layer):
                return fn(*args, **kwargs)
            span = [len(tracer.spans), stack[-1][0] if stack else None,
                    qualname, layer, perf_counter(), 0.0]
            tracer.spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()
        return wrapper

    # ------------------------------------------------------------ op spans

    def call(self, name: str, fn):
        """Run one op under a root span with recording on."""
        span = [len(self.spans), None, name, "op", perf_counter(), 0.0]
        self.spans.append(span)
        self.stack.append(span)
        self.on = True
        try:
            return fn()
        finally:
            self.on = False
            span[5] = perf_counter()
            self.stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    # ------------------------------------------------------------ aggregate

    def layer_metrics(self, cycles: int) -> dict:
        """Per-cycle calls, busy time and self time for each layer, plus the
        self time of each group in FUNCTION_METRICS."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[1] is not None:
                child[s[1]] += s[5] - s[4]
        calls = dict.fromkeys(LAYERS, 0)
        busy = dict.fromkeys(LAYERS, 0.0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        fn_self = dict.fromkeys(FUNCTION_METRICS, 0.0)
        for s in spans:
            layer = s[3]
            if layer == "op":
                continue
            own = s[5] - s[4] - child[s[0]]
            calls[layer] += 1
            self_s[layer] += own
            p = s[1]
            while p is not None and spans[p][3] != layer:
                p = spans[p][1]
            if p is None:  # outermost span of its layer: counts toward busy
                busy[layer] += s[5] - s[4]
            for metric, group in FUNCTION_METRICS.items():
                if any(fnmatch.fnmatchcase(s[2], pat) for pat in group):
                    fn_self[metric] += own
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] / cycles
            out[f"{layer}.busy_s"] = busy[layer] / cycles
            out[f"{layer}.self_s"] = self_s[layer] / cycles
        for metric, v in fn_self.items():
            out[f"{metric}.self_s"] = v / cycles
        return out


class FractionCounter:
    """Counts calls into ``fractions.py`` (Fraction construction and
    arithmetic, comparisons and properties) with the stdlib profiler."""

    def __init__(self):
        self.profile = cProfile.Profile()

    def call(self, fn):
        self.profile.enable()
        try:
            return fn()
        finally:
            self.profile.disable()

    def fraction_calls(self) -> int:
        stats = pstats.Stats(self.profile, stream=sys.stderr).stats
        return sum(nc for (path, _, _), (_, nc, _, _, _) in stats.items()
                   if path.endswith("fractions.py"))
