"""Spans around the library's public entry points, recorded from outside.

The benchmark never edits the library.  ``Tracer.installed()`` swaps each
traced function for a recording wrapper in every ``gridring`` namespace that
binds it: ``localeq`` imports ``paired_basis`` and ``realize`` by name, the
package re-exports most functions, and ``_gf2.solve`` is looked up as a
module attribute (also by ``_gf2.solve_unit``), so replacing one binding
would miss calls.  On exit the original bindings are restored, so untraced
passes run the library exactly as shipped.

``ring`` is deliberately not traced: its calls take about a microsecond, so
a wrapper would cost more than the work it times.  Ring time shows up as
self time of the callers.

A span is ``[name, start, end, parent span index, input id, info]``.  Spans
stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# Traced entry points per module; a span is named "module.attribute".
# ``LocalMapCert.to_json`` is a method and is patched on its class.
TRACED = {
    "_gf2": ["solve", "solve_unit"],
    "complexes": [
        "validate", "validate_fuv", "base_change", "reduce", "tensor", "dual",
        "shift_gradings", "paired_basis", "tower_functional", "quotient_homology",
        "is_knotlike", "normalize",
    ],
    "standard": [
        "make_spec", "realize", "read_params", "lex_compare", "dual_spec",
        "format_spec", "parse_spec",
    ],
    "localeq": [
        "extant_coefficients", "find_local_map", "check_certificate", "standardize",
        "standard_representative", "is_locally_equivalent", "order_compare_complexes",
    ],
    "invariants": ["report", "additivity_check"],
    "io_json": [
        "complex_to_document", "document_to_complex", "spec_to_document",
        "document_to_spec", "load_document", "dump_json",
    ],
    "examples": ["example_zhou", "example_cable"],
}


def _solve_info(args, _kwargs, out, _ctx):
    rows = args[0]
    used = 0
    for r in rows:
        used |= r
    return {"rows": len(rows), "unknowns": used.bit_length(), "inconsistent": out is None}


def _extant_info(_args, _kwargs, out, _ctx):
    return {"pool": len(out.u_coeffs) + len(out.v_coeffs)}


def _reduce_info(_args, _kwargs, out, _ctx):
    return {"gens_out": out.n_gens()}


def _standardize_prepare(args, kwargs):
    """Read the search through the public ``trace=`` argument."""
    if len(args) > 1:
        args, kwargs = args[:1], dict(kwargs, trace=args[1])
    if kwargs.get("trace") is None:
        kwargs = dict(kwargs, trace=[])
    return args, kwargs, kwargs["trace"]


def _standardize_info(_args, _kwargs, _out, trace):
    return {
        "trials": len(trace),
        "steps": len({k for k, _p, _ok in trace}),
        "feasible": sum(1 for _k, _p, ok in trace if ok),
    }


HOOKS = {
    "_gf2.solve": (None, _solve_info),
    "localeq.extant_coefficients": (None, _extant_info),
    "localeq.standardize": (_standardize_prepare, _standardize_info),
    "complexes.reduce": (None, _reduce_info),
}


class Tracer:
    def __init__(self, package):
        self.package = package  # the imported ``gridring`` package
        self.spans = []
        self.stack = []
        self.input_id = None
        self._originals = []

    def _wrap(self, name, fn):
        prepare, info = HOOKS.get(name, (None, None))
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = None
            if prepare is not None:
                args, kwargs, ctx = prepare(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.input_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, out, ctx)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        namespaces = [
            mod for key, mod in list(sys.modules.items())
            if key == self.package.__name__ or key.startswith(self.package.__name__ + ".")
        ]
        try:
            for modname, attrs in TRACED.items():
                module = getattr(self.package, modname)
                for attr in attrs:
                    orig = getattr(module, attr)
                    wrapped = self._wrap("%s.%s" % (modname, attr), orig)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is orig:
                                self._patch(ns, key, wrapped)
            cert = self.package.localeq.LocalMapCert
            self._patch(cert, "to_json", self._wrap("localeq.LocalMapCert.to_json", cert.to_json))
            yield self
        finally:
            while self._originals:
                target, key, value = self._originals.pop()
                setattr(target, key, value)

    def _patch(self, target, key, wrapped):
        self._originals.append((target, key, vars(target)[key]))
        setattr(target, key, wrapped)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children.

    Spans are recorded by one thread, so a span's children never overlap
    and their durations add up to the part of the interval they cover.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _iid, _info in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[k] for k, (_n, start, end, _p, _i, _x) in enumerate(spans)]
