"""Span tracing around the package's public functions, from outside it.

:meth:`Tracer.install` replaces each listed function or method with a
wrapper that records a span (name, start, end, parent span, op id); it
patches every ``polydiff`` module namespace that bound the same object, so
``cli`` and ``pricing`` see the wrappers too.  The ``Polynomial``
arithmetic dunders are only counted.  Self time is a span's duration minus
that of its direct children, accumulated as spans close; the spans
themselves stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# span name -> (module, attribute path) of what it wraps
FUNCTIONS = {
    "specfile.load_model_spec": ("polydiff.specfile", "load_model_spec"),
    "specfile.load_instrument": ("polydiff.specfile", "load_instrument"),
    "polynomial.divide_exact": ("polydiff.polynomial", "divide_exact"),
    "basis.monomial_basis": ("polydiff.basis", "monomial_basis"),
    "generator.generator_matrix": ("polydiff.generator", "generator_matrix"),
    "generator.matrix_exp": ("polydiff.generator", "matrix_exp"),
    "generator.conditional_moment": ("polydiff.generator", "conditional_moment"),
    "generator.joint_moment": ("polydiff.generator", "joint_moment"),
    "conditions.validate_params": ("polydiff.conditions", "validate_params"),
    "conditions.check_necessary": ("polydiff.conditions", "check_necessary"),
    "conditions.check_sufficient": ("polydiff.conditions", "check_sufficient"),
    "conditions.classify_boundary": ("polydiff.conditions", "classify_boundary"),
    "conditions.uniqueness_report": ("polydiff.conditions", "uniqueness_report"),
    "simulate.simulate_paths": ("polydiff.simulate", "simulate_paths"),
    "simulate.dispersion": ("polydiff.simulate", "dispersion"),
    "simulate.mc_moment": ("polydiff.simulate", "mc_moment"),
    "simulate.boundary_hit_stats": ("polydiff.simulate", "boundary_hit_stats"),
    "pricing.bond_price": ("polydiff.pricing", "bond_price"),
    "pricing.short_rate": ("polydiff.pricing", "short_rate"),
    "pricing.variance_swap_rate": ("polydiff.pricing", "variance_swap_rate"),
    "pricing.swaption_price_mc": ("polydiff.pricing", "swaption_price_mc"),
    "pricing.fit_index_payoff": ("polydiff.pricing", "fit_index_payoff"),
    "pricing.constituent_option_price": ("polydiff.pricing", "constituent_option_price"),
}

# span name -> (module, class names, method); one span name may cover
# several classes, each patched where it defines the method
METHODS = {
    "basis.coordinates": ("polydiff.basis", ("Basis",), "coordinates"),
    "basis.evaluate": ("polydiff.basis", ("Basis",), "evaluate"),
    "generator.a_eval": ("polydiff.generator", ("ModelCoefficients",), "a_eval"),
    "generator.b_eval": ("polydiff.generator", ("ModelCoefficients",), "b_eval"),
    "statespace.project": ("polydiff.statespace", ("FullSpace", "Quadric", "BoxOrthant", "Simplex"), "project"),
    "statespace.contains": ("polydiff.statespace", ("StateSpace",), "contains"),
    "statespace.samples": ("polydiff.statespace",
                           ("StateSpace", "FullSpace", "Quadric", "BoxOrthant", "Simplex"),
                           ("interior_samples", "boundary_samples", "all_samples")),
    "simulate.csv_text": ("polydiff.simulate", ("PathSet",), "csv_text"),
    "pricing.PricingModel.init": ("polydiff.pricing", ("PricingModel",), "__post_init__"),
    "pricing.SimplexIndexModel.init": ("polydiff.pricing", ("SimplexIndexModel",), "__post_init__"),
}

# counted, not timed: Polynomial dunder -> counter
COUNTED = {"__mul__": "polynomial.mul_calls", "__rmul__": "polynomial.mul_calls",
           "__add__": "polynomial.add_calls", "__radd__": "polynomial.add_calls",
           "__call__": "polynomial.eval_calls"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._builds: set = set()
        self.g_stats: list[tuple[int, float]] = []  # (N, density) per generator build

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run fn inside a span called ``name``."""
        idx = len(self.span_start)
        self.span_name.append(self.name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self._stack.append(idx)
        self._child.append(0.0)
        t0 = time.perf_counter()
        self.span_start.append(t0)
        self.span_end.append(t0)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter()
            self.span_end[idx] = t1
            self._stack.pop()
            dur = t1 - t0
            self.self_s[name] += dur - self._child.pop()
            self.calls[name] += 1
            if self._child:
                self._child[-1] += dur

    # -- patching ------------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = tracer.call(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def install(self) -> None:
        after = {"generator.generator_matrix": self._after_generator,
                 "simulate.simulate_paths": self._after_simulate,
                 "simulate.csv_text": self._after_csv}
        modules = [m for n, m in list(sys.modules.items()) if n == "polydiff" or n.startswith("polydiff.")]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, after.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)
        for name, (module, classes, methods) in METHODS.items():
            for cls_name in classes:
                cls = getattr(sys.modules[module], cls_name)
                for method in (methods if isinstance(methods, tuple) else (methods,)):
                    if method in vars(cls):
                        self._set(cls, method, self._wrap(name, vars(cls)[method], after.get(name)))
        poly = sys.modules["polydiff.polynomial"].Polynomial
        for method, counter in COUNTED.items():
            self._set(poly, method, self._counter(counter, vars(poly)[method]))

    def _counter(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def uninstall(self) -> None:
        for owner, attr, value, had in reversed(self._patches):
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- per-layer counters ----------------------------------------------------------

    def _after_generator(self, args, kwargs, gm) -> None:
        model, basis = args[0], args[1]
        key = (model, repr(basis.statespace.spec_dict()), basis.degree)
        self.counts["generator.repeat_builds"] += key in self._builds
        self._builds.add(key)
        n = gm.matrix.shape[0]
        self.g_stats.append((n, float(np.count_nonzero(gm.matrix)) / (n * n)))

    def _after_simulate(self, args, kwargs, ps) -> None:
        self.counts["simulate.path_steps"] += ps.n_paths * ps.n_steps

    def _after_csv(self, args, kwargs, text) -> None:
        self.counts["simulate.csv_bytes"] += len(text)

    # -- results ---------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values: ``<span>.self_s`` and ``<span>.calls`` for every
        span name, plus the counters."""
        out: dict[str, float] = {}
        for name in list(FUNCTIONS) + list(METHODS):
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
        for counter in ("polynomial.mul_calls", "polynomial.add_calls", "polynomial.eval_calls",
                        "simulate.path_steps", "simulate.csv_bytes"):
            out[counter] = self.counts[counter]
        builds = self.calls["generator.generator_matrix"]
        out["generator.generator_matrix.repeat_frac"] = (
            self.counts["generator.repeat_builds"] / builds if builds else 0.0)
        n_max, density = max(self.g_stats, default=(0, 0.0))
        out["generator.basis_size_max"] = n_max
        out["generator.G_density"] = density
        return out

    def dump(self, path: str) -> None:
        """Write every span to a compressed .npz file."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end))
