"""The benchmark's span tracer (perfbench/spans.py) wraps public names of the
package from outside it.  These tests install and uninstall it against the
package, so that renaming or dropping a traced name fails here and not only
in ``perfbench/run.py --trace 1`` runs."""

import importlib.util
import inspect
import os
import sys

import numpy as np

import polydiff
import polydiff.cli  # noqa: F401  (the tracer patches every loaded polydiff module)
from polydiff import Polynomial

from conftest import jacobi_model, simplex_x2_form_model

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_namespaces():
    """Every polydiff module and every class defined in one, as name -> dict copy."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "polydiff" or name.startswith("polydiff."):
            out[name] = dict(vars(module))
            for attr, value in vars(module).items():
                if inspect.isclass(value) and value.__module__ == name:
                    out[f"{name}.{attr}"] = dict(vars(value))
    return out


def test_every_traced_name_exists():
    spans = load_spans()
    for name, (module, attr) in spans.FUNCTIONS.items():
        assert callable(getattr(sys.modules[module], attr)), name
    for name, (module, classes, methods) in spans.METHODS.items():
        methods = methods if isinstance(methods, tuple) else (methods,)
        owners = [getattr(sys.modules[module], cls) for cls in classes]
        for method in methods:
            assert any(method in vars(cls) for cls in owners), f"{name}: no class defines {method}"
    for method in spans.COUNTED:
        assert method in vars(Polynomial), method


def test_install_records_spans_and_uninstall_restores():
    spans = load_spans()
    before = package_namespaces()
    tracer = spans.Tracer()
    tracer.install()
    try:
        # through the package namespace, where the tracer put its wrappers
        model, space = jacobi_model()
        got = polydiff.conditional_moment(model, space, 2, Polynomial.variable(0, 1) ** 2, [0.25], 0.5)
        assert polydiff.check_necessary(model, space, samples=20).verdict == "pass"
        polydiff.classify_boundary(model, space, space.inequalities[0], samples=20)
        # the simplex certificate divides modulo the mass equality
        simplex_model, simplex = simplex_x2_form_model()
        assert polydiff.classify_boundary(simplex_model, simplex, simplex.inequalities[0], samples=20).h is not None
    finally:
        tracer.uninstall()
    after = package_namespaces()
    assert after.keys() == before.keys()
    for key, names in before.items():
        assert after[key].keys() == names.keys(), key
        assert all(after[key][attr] is value for attr, value in names.items()), key
    metrics = tracer.metrics()
    assert metrics["generator.conditional_moment.calls"] == 1
    assert metrics["generator.generator_matrix.calls"] == 1
    assert metrics["conditions.check_necessary.calls"] == 1
    assert metrics["conditions.classify_boundary.calls"] == 2
    assert metrics["polynomial.divide_exact.calls"] > 0
    assert metrics["basis.evaluate.calls"] >= 1
    assert metrics["polynomial.eval_calls"] > 0
    assert np.isfinite(got)
    assert got == polydiff.conditional_moment(model, space, 2, Polynomial.variable(0, 1) ** 2, [0.25], 0.5)
