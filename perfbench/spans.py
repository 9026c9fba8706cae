"""Span and counter recording around hkforms' public functions.

The tracer wraps functions from outside the program: for each listed
function it replaces every module attribute (and every value of a
module-level dict, such as ``suites._RUNNERS``) that is bound to the same
object, so calls made through ``from ... import`` bindings and through
imports inside method bodies are all seen.  Methods are wrapped on their
class.  Everything is restored on exit.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span or -1, ``op`` the operation id the benchmark set when the call
started.  Spans stay in memory and are written out by the caller at the end.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# (metric prefix, module, attribute path); each of these gets a span per call
SPANNED = (
    ("nahm.ivp_tangent", "hkforms.nahm", "ivp_tangent"),
    ("nahm.contraction_identity", "hkforms.nahm", "contraction_identity"),
    ("nahm.nahm_residual", "hkforms.nahm", "nahm_residual"),
    ("nahm.bump_gauge_path", "hkforms.nahm", "bump_gauge_path"),
    ("numerics.grid_derivative", "hkforms.numerics", "grid_derivative"),
    ("numerics.adaptive_simpson", "hkforms.numerics", "adaptive_simpson"),
    ("numerics.exterior_derivative_at", "hkforms.numerics", "exterior_derivative_at"),
    ("exterior.lie_closure_dimension", "hkforms.exterior.operators", "lie_closure_dimension"),
    ("exterior.verify_so5", "hkforms.exterior.operators", "verify_so5"),
    ("exterior.middle_kernel", "hkforms.exterior.operators", "middle_kernel"),
    ("exterior.type_components", "hkforms.exterior.operators", "type_components"),
    ("exterior.wedge", "hkforms.exterior.forms", "wedge"),
    ("exterior.hodge_star", "hkforms.exterior.forms", "hodge_star"),
    ("exterior.inner", "hkforms.exterior.forms", "inner"),
    ("bianchi.classify_l2", "hkforms.bianchi", "classify_l2"),
    ("quotient.QuotientChart.closedness_residual", "hkforms.quotient",
     "QuotientChart.closedness_residual"),
    ("quotient.QuotientChart.omegas_relation_residuals", "hkforms.quotient",
     "QuotientChart.omegas_relation_residuals"),
    ("quotient.QuotientChart.beta_exactness_residual", "hkforms.quotient",
     "QuotientChart.beta_exactness_residual"),
    ("gibbons_hawking.cutoff_cross_term", "hkforms.gibbons_hawking", "cutoff_cross_term"),
    ("gibbons_hawking.ddtheta_residual", "hkforms.gibbons_hawking", "ddtheta_residual"),
    ("report.emit_json", "hkforms.report", "emit_json"),
    ("report.emit_profile_csv", "hkforms.report", "emit_profile_csv"),
    ("suites.run_algebra", "hkforms.suites", "run_algebra"),
    ("suites.run_taubnut", "hkforms.suites", "run_taubnut"),
    ("suites.run_bianchi", "hkforms.suites", "run_bianchi"),
    ("suites.run_quotient", "hkforms.suites", "run_quotient"),
    ("suites.run_nahm", "hkforms.suites", "run_nahm"),
)

# called too often for a span each; only their calls are counted
COUNTED = (
    ("exterior.LefschetzAlgebra.L_matrix", "hkforms.exterior.operators",
     "LefschetzAlgebra.L_matrix"),
    ("bianchi.ClosednessSolution.exponent_integral", "hkforms.bianchi",
     "ClosednessSolution.exponent_integral"),
    ("quotient.QuotientChart.representative", "hkforms.quotient",
     "QuotientChart.representative"),
    ("quotient.QuotientChart.chart_tangents", "hkforms.quotient",
     "QuotientChart.chart_tangents"),
)

# the callable argument whose calls count as evaluations, by position and name
EVALUATED = {
    "numerics.adaptive_simpson": (0, "f"),
    "numerics.exterior_derivative_at": (0, "components"),
}

SUITE_PREFIX = "suites."


class Tracer:
    """Records spans and counts while installed (use as a context manager)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        evaluated = EVALUATED.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if evaluated is not None:
                args, kwargs = self._count_evals(name, evaluated, args, kwargs)
            if name == "nahm.ivp_tangent":
                state = args[0] if args else kwargs["state"]
                counts[name + ".nodes"] += int(state.s.size)
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if name == "report.emit_json":
                counts[name + ".bytes"] += len(result)
            return result

        return wrapper

    def _count_evals(self, name, where, args, kwargs):
        pos, key = where
        counts = self.counts
        key_evals = name + ".evals"

        def counted(fn):
            def inner(*a, **k):
                counts[key_evals] += 1
                return fn(*a, **k)
            return inner

        if len(args) > pos:
            args = args[:pos] + (counted(args[pos]),) + args[pos + 1:]
        else:
            kwargs = dict(kwargs, **{key: counted(kwargs[key])})
        return args, kwargs

    def _counted(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------------

    def _install(self, name, module_name, path, make):
        module = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            owner = getattr(module, owner_path)
            self._patch_attr(owner, attr, make(name, getattr(owner, attr)))
            return
        original = getattr(module, attr)
        wrapped = make(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hkforms" or mod_name.startswith("hkforms.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch_attr(mod, key, wrapped)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._undo.append((value, dkey, dvalue, True))
                            value[dkey] = wrapped

    def _patch_attr(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def __enter__(self):
        importlib.import_module("hkforms.cli")
        for name, module_name, path in SPANNED:
            self._install(name, module_name, path, self._spanned)
        for name, module_name, path in COUNTED:
            self._install(name, module_name, path, self._counted)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, key, original, is_dict = self._undo.pop()
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        return False


# -- attribution --------------------------------------------------------------------

def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[str, float]:
    """Per-name sum of span duration minus the part its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - _covered(children.get(idx, ()))
    return dict(out)


def total_times(spans) -> dict[str, float]:
    """Per-name sum of span durations, children included."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, _, _ in spans:
        out[name] += end - start
    return dict(out)


def coverage(spans, wall: float) -> float:
    """Share of `wall` covered by layer spans (every span but the suite runners)."""
    layer = [(s, e) for name, s, e, _, _ in spans if not name.startswith(SUITE_PREFIX)]
    return _covered(layer) / wall if wall > 0 else 0.0
