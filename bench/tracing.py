"""Spans around xlbp's layer entry points, recorded from outside the package.

`Tracer.install` replaces each entry point with a wrapper in every xlbp
module namespace that holds it (and on the class, for polynomial methods), so
callers that imported the name directly are traced too.  Spans stay in memory
as flat arrays until `write` saves them; `layer_stats` turns them into calls
and self time (span duration minus the time covered by child spans).

A layer whose entry points a later version no longer has is listed in
`absent` instead of raising, and so is the integrand counter.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from fractions import Fraction

OP_SPAN = "bench.op"

# (span name, module, attribute); methods are written "Class.method"
ENTRY_POINTS = (
    ("exact_core.poly_mul", "xlbp.exact_core", "Poly.__mul__"),
    ("exact_core.poly_mul", "xlbp.exact_core", "LaurentPoly.__mul__"),
    ("exact_core.poly_divmod", "xlbp.exact_core", "Poly.__divmod__"),
    ("exact_core.poly_divmod", "xlbp.exact_core", "LaurentPoly.__divmod__"),
    ("exact_core.solve_exact", "xlbp.exact_core", "solve_exact"),
    ("hr_classical.hr_poly", "xlbp.hr_classical", "hr_poly"),
    ("hr_classical.expand_in_hr_basis", "xlbp.hr_classical", "expand_in_hr_basis"),
    ("hr_classical.verify_identity", "xlbp.hr_classical", "verify_identity"),
    ("hr_classical.inner_product", "xlbp.hr_classical", "inner_product"),
    ("darboux.backward_apply", "xlbp.darboux", "backward_apply"),
    ("xhr.x_poly", "xlbp.xhr", "x_poly"),
    ("recurrence.certify", "xlbp.recurrence", "certify"),
    ("recurrence.a_coeffs_solver", "xlbp.recurrence", "a_coeffs_solver"),
    ("quadrature.classical_quad", "xlbp.quadrature", "classical_quad"),
    ("quadrature.exceptional_quad", "xlbp.quadrature", "exceptional_quad"),
    ("cli.main", "xlbp.cli", "main"),
)


def _dense_coeffs(p):
    """Coefficients of a polynomial object, or None for a scalar."""
    coeffs = getattr(p, "coeffs", None)
    if coeffs is not None:
        return coeffs
    items = getattr(p, "items", None)
    if items is None:
        return None
    return [c for _, c in items()]


def _dense_length(p) -> int:
    if hasattr(p, "coeffs"):
        return len(p.coeffs)
    return 0 if p.is_zero else p.max_exp - p.min_exp + 1


def _bits(c) -> int:
    q = Fraction(c)
    return q.numerator.bit_length() + q.denominator.bit_length()


def _poly_mul_hook(tracer, args, kwargs, result):
    left, right = args[0], args[1]
    if _dense_coeffs(right) is None:
        return
    tracer.counters["exact_core.poly_mul.coeff_products"] += _dense_length(left) * _dense_length(right)
    bits = max((_bits(c) for p in (left, right) for c in _dense_coeffs(p)), default=0)
    if bits > tracer.counters["exact_core.poly_mul.max_bits"]:
        tracer.counters["exact_core.poly_mul.max_bits"] = bits


def _solve_exact_hook(tracer, args, kwargs, result):
    matrix = args[0]
    cols = len(matrix[0]) if len(matrix) else 0
    tracer.counters["exact_core.solve_exact.cells"] += len(matrix) * (cols + 1)
    tracer.counters["exact_core.solve_exact.nullity"] += len(result.nullspace)


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


HOOKS = {
    "exact_core.poly_mul": _poly_mul_hook,
    "exact_core.solve_exact": _solve_exact_hook,
}


class Tracer:
    """In-memory span recorder plus the counters measured at the same calls."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.op = array("i")
        self.stack: list = []
        self.op_index = -1
        self.counters: dict = {
            "exact_core.poly_mul.coeff_products": 0,
            "exact_core.poly_mul.max_bits": 0,
            "exact_core.solve_exact.cells": 0,
            "exact_core.solve_exact.nullity": 0,
            "quadrature.integrand_evals": 0,
        }
        self.absent: list = []
        self._patches: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn, hook=None):
        nid = self._name_id(name)
        start, end, parent, names, ops, stack = (
            self.start, self.end, self.parent, self.name, self.op, self.stack
        )
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and names[stack[-1]] == nid:
                # the layer calling into itself stays one span
                return fn(*args, **kwargs)
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            ops.append(tracer.op_index)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def run_op(self, index: int, fn):
        """Run one benchmark operation as a root span."""
        self.op_index = index
        return self._wrap(OP_SPAN, fn)()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "xlbp" or mod_name.startswith("xlbp.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self):
        found = set()
        for span_name, mod_name, attr in ENTRY_POINTS:
            module = _module(mod_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(method) if owner is not None else None
            if original is None:
                continue
            found.add(span_name)
            wrapper = self._wrap(span_name, original, HOOKS.get(span_name))
            if owner_name:
                self._patch(owner, method, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        self.absent += sorted({span for span, _, _ in ENTRY_POINTS} - found)
        self._install_integrand_counter()

    def _install_integrand_counter(self):
        """Count integrand evaluations by wrapping the refinement loop's callback."""
        quadrature = _module("xlbp.quadrature")
        original = vars(quadrature).get("_integrate_levels") if quadrature is not None else None
        if original is None:
            self.absent.append("quadrature.integrand_evals")
            return
        counters = self.counters

        @functools.wraps(original)
        def counting(make_term, *args, **kwargs):
            def term(z, zbar):
                counters["quadrature.integrand_evals"] += 1
                return make_term(z, zbar)

            return original(term, *args, **kwargs)

        self._patch(quadrature, "_integrate_levels", counting)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_stats(self) -> dict:
        """name -> (calls, self seconds)."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = {name: [0, 0.0] for name in self.names}
        for i, nid in enumerate(self.name):
            entry = stats[self.names[nid]]
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i]
        return stats

    def write(self, path):
        """Save every span: name index, parent span, operation, start, end."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "op": self.op.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                },
                fh,
            )
