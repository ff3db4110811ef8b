"""End-to-end exercises of the command-line interface.

The exit-code contract is load-bearing: 0 for success or a Valid verdict,
1 for domain-negative outcomes (Invalid verdicts, points outside the state
space, degree overruns), 2 for unreadable or malformed input.  Click maps
its own usage errors to 2 as well, which is exactly what we want.
"""

import copy
import gzip
import hashlib
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import time
import warnings
import zlib

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import polydiff
from polydiff import Polynomial
from polydiff.cli import (_BASIS_SIZE, _FIT_SIZE, _MC_PATH_STEPS, _SAMPLES, _SIM_PATH_STEPS, _SIM_ROWS,
                          _check_simulation_size, main)
from polydiff.pricing import _SWAPTION_PATHS, _SWAPTION_SIZE, PricingModel, bond_price, variance_swap_rate
from polydiff.simulate import simulate_paths
from polydiff.specfile import load_schema, parse_model_spec

from conftest import json_mutants, paths_csv_by_format

CIR_DOC = {
    "dimension": 1,
    "state_space": {"family": "box_orthant", "m": 0, "n": 1},
    "coefficients": {"kind": "family", "params": {
        "gamma": [], "alpha": [[0.0]], "phi": [1.0], "psi": [],
        "pi": [[0.0]], "beta": [0.5], "B": [[-0.5]]}},
    "pricing": {
        "p": {"dim": 1, "terms": [{"e": [0], "c": 1.0}, {"e": [1], "c": 1.0}]},
        "alpha_rate": 0.05,
        "degree": 4,
    },
}

JACOBI_DOC = {
    "dimension": 1,
    "state_space": {"family": "box_orthant", "m": 1, "n": 0},
    "coefficients": {"kind": "family", "params": {
        "gamma": [1.0], "alpha": [], "phi": [], "psi": [],
        "pi": [], "beta": [0.5], "B": [[-1.0]]}},
}

RAW_FULL_DOC = {
    "dimension": 1,
    "state_space": {"family": "full"},
    "coefficients": {"kind": "raw",
                     "a": [[{"dim": 1, "terms": [{"e": [0], "c": 1.0}]}]],
                     "b": [{"dim": 1, "terms": []}]},
}

SIMPLEX_PRICING_DOC = {
    "dimension": 2,
    "state_space": {"family": "simplex"},
    "coefficients": {"kind": "family", "params": {
        "alpha": [[0.0, 1.0], [1.0, 0.0]],
        "beta": [0.5, 0.5],
        "B": [[-1.5, 0.5], [0.5, -1.5]]}},
    "pricing": {
        "p": {"dim": 2, "terms": [{"e": [0, 0], "c": 1.0}]},
        "alpha_rate": 0.0,
        "degree": 6,
    },
}

# the identity diffusion does not descend to the simplex quotient
RAW_SIMPLEX_DOC = {
    "dimension": 2,
    "state_space": {"family": "simplex"},
    "coefficients": {"kind": "raw",
                     "a": [[{"dim": 2, "terms": [{"e": [0, 0], "c": 1.0}]},
                            {"dim": 2, "terms": []}],
                           [{"dim": 2, "terms": []},
                            {"dim": 2, "terms": [{"e": [0, 0], "c": 1.0}]}]],
                     "b": [{"dim": 2, "terms": []}, {"dim": 2, "terms": []}]},
}

# the simplex Jacobi model with x2 - x2^2 written for x1*x2, its value on E
_S = [{"e": [0, 1], "c": 1.0}, {"e": [0, 2], "c": -1.0}]
_NEG_S = [{"e": e["e"], "c": -e["c"]} for e in _S]
RAW_SIMPLEX_X2_DOC = {
    "dimension": 2,
    "state_space": {"family": "simplex"},
    "coefficients": {"kind": "raw",
                     "a": [[{"dim": 2, "terms": _S}, {"dim": 2, "terms": _NEG_S}],
                           [{"dim": 2, "terms": _NEG_S}, {"dim": 2, "terms": _S}]],
                     "b": [{"dim": 2, "terms": [{"e": [0, 0], "c": 1.0}, {"e": [1, 0], "c": -2.0}]},
                           {"dim": 2, "terms": [{"e": [0, 0], "c": 1.0}, {"e": [0, 1], "c": -2.0}]}]},
}

# 3-d simplex with a drift tangent to the mass constraint in exact arithmetic
SIMPLEX3_DOC = {
    "dimension": 3,
    "state_space": {"family": "simplex"},
    "coefficients": {"kind": "family", "params": {
        "alpha": [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
        "beta": [0.25, 0.25, 0.25],
        "B": [[-1.25, 0.25, 0.25], [0.25, -1.25, 0.25], [0.25, 0.25, -1.25]]}},
}

# 4-d simplex whose drift is tangent only up to rounding: 3 * (1/6) != 1/2
SIMPLEX4_DOC = {
    "dimension": 4,
    "state_space": {"family": "simplex"},
    "coefficients": {"kind": "family", "params": {
        "alpha": [[0.0 if i == j else 0.125 for j in range(4)] for i in range(4)],
        "beta": [0.25] * 4,
        "B": [[-1.5 if i == j else 1 / 6 for j in range(4)] for i in range(4)]}},
}

# the 3-d simplex with B[0, 0] moved by +0.9 t and B[0, 2] by -0.9 t, t = 2.25e-12 =
# 1e-12 (1 + max|B| + max|beta|): B'1 + (beta'1)1 stays under t, but G q reduced on
# the manifold does not vanish
_T = 2.25e-12
SIMPLEX3_OFF_DOC = {
    "dimension": 3,
    "state_space": {"family": "simplex"},
    "coefficients": {"kind": "family", "params": {
        "alpha": [[0.0 if i == j else 0.125 for j in range(3)] for i in range(3)],
        "beta": [0.25] * 3,
        "B": [[-1.0 + 0.9 * _T, 0.125, 0.125 - 0.9 * _T], [0.125, -1.0, 0.125], [0.125, 0.125, -1.0]]}},
}

# dX = (1/4 - X) dt + dW in R^4 as raw coefficients
FULL4_DOC = {
    "dimension": 4,
    "state_space": {"family": "full"},
    "coefficients": {"kind": "raw",
                     "a": [[{"dim": 4, "terms": [{"e": [0, 0, 0, 0], "c": 1.0}] if i == j else []}
                            for j in range(4)] for i in range(4)],
                     "b": [{"dim": 4, "terms": [{"e": [0, 0, 0, 0], "c": 0.25},
                                                {"e": [int(k == i) for k in range(4)], "c": -1.0}]}
                           for i in range(4)]},
}

# the unit disk, whose diffusion gets a correction c(x) from gamma
DISK_DOC = {
    "dimension": 2,
    "state_space": {"family": "quadric", "Q": [[1.0, 0.0], [0.0, 1.0]]},
    "coefficients": {"kind": "family", "params": {
        "alpha": [[1.0, 0.0], [0.0, 1.0]], "gamma": [[0.5]], "beta": [0.0, 0.0],
        "B": [[-1.0, 0.0], [0.0, -1.0]]}},
}

# the unbounded solid hyperboloid x1^2 - x2^2 <= 1, gamma left to its default 0
HYPERBOLOID_DOC = {
    "dimension": 2,
    "state_space": {"family": "quadric", "Q": [[1.0, 0.0], [0.0, -1.0]], "orientation": "inside"},
    "coefficients": {"kind": "family", "params": {
        "alpha": [[1.0, 0.0], [0.0, 1.0]], "beta": [0.0, 0.0], "B": [[-1.0, 0.0], [0.0, -1.0]]}},
}


def _variant(doc, **params):
    out = copy.deepcopy(doc)
    out["coefficients"]["params"].update(params)
    return out


DOCS = {
    "cir": CIR_DOC,
    "cir_attain": _variant(CIR_DOC, beta=[0.3]),
    "cir_invalid": _variant(CIR_DOC, beta=[-0.5]),
    "jacobi": JACOBI_DOC,
    "raw_full": RAW_FULL_DOC,
    "simplex_plain": {k: v for k, v in SIMPLEX_PRICING_DOC.items() if k != "pricing"},
    "simplex_pricing": SIMPLEX_PRICING_DOC,
    "raw_simplex": RAW_SIMPLEX_DOC,
    "raw_simplex_x2": RAW_SIMPLEX_X2_DOC,
    "simplex3": SIMPLEX3_DOC,
    "simplex4": SIMPLEX4_DOC,
    "full4": FULL4_DOC,
    "disk": DISK_DOC,
    "hyperboloid": HYPERBOLOID_DOC,
}


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    paths = {}
    for name, doc in DOCS.items():
        p = root / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    bad = root / "malformed.json"
    bad.write_text('{\n  "dimension": 1,\n  ,\n}')
    paths["malformed"] = str(bad)
    return paths


@pytest.fixture()
def instrument(tmp_path):
    def write(doc):
        p = tmp_path / "instrument.json"
        p.write_text(json.dumps(doc))
        return str(p)
    return write


def run(args, **kwargs):
    return CliRunner().invoke(main, [str(a) for a in args], **kwargs)


def check_report(doc, defs_key):
    schema = load_schema("reports.schema.json")
    jsonschema.validate(doc, {"$defs": schema["$defs"], **schema["$defs"][defs_key]})


def cir_pricing_model():
    spec = parse_model_spec(CIR_DOC)
    return spec, PricingModel(spec.model, spec.statespace, degree=spec.pricing.degree,
                              p=spec.pricing.p, alpha=spec.pricing.alpha_rate)


class TestValidate:
    def test_valid_model_exits_zero(self, specs):
        r = run(["validate", specs["cir"]])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        check_report(doc, "validate_report")
        assert doc["verdict"] == "Valid"
        assert doc["family"] == "box_orthant"
        assert doc["sufficient"]["verdict"] == "pass"

    def test_invalid_model_exits_one(self, specs):
        r = run(["validate", specs["cir_invalid"]])
        assert r.exit_code == 1
        doc = json.loads(r.output)
        check_report(doc, "validate_report")
        assert doc["verdict"] == "Invalid"
        fails = [c["id"] for c in doc["parameter_conditions"]["conditions"]
                 if c["status"] == "fail"]
        assert fails == ["box.drift_orthant"]

    def test_raw_model_has_no_parameter_block(self, specs):
        r = run(["validate", specs["raw_full"]])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        check_report(doc, "validate_report")
        assert doc["parameter_conditions"] is None
        assert doc["verdict"] == "Valid"

    def test_certificate_modulo_the_mass_equality(self, specs):
        r = run(["validate", specs["raw_simplex_x2"]])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert doc["verdict"] == "Valid"
        cert = [c for c in doc["sufficient"]["conditions"] if c["id"] == "sufficient.gradient_certificate[0]"]
        assert cert[0]["status"] == "pass"

    # sha256 and length of the whole report, and its sampled PSD minimum: for
    # d = 2 that minimum is a closed form, so these bytes do not depend on LAPACK
    GOLDEN = {
        "disk": ("23ef03e1408ca1cd8cc4e366cdc41a3c032e6a618febe9ce4790e9450a514837", 1642, "-4.02456e-16"),
        "simplex_plain": ("8a6952e0dedef496ebeef8c65e3fac2fb9d0f15d58b02ab5aae1588bbd4ab6e9", 2754, "0"),
        "hyperboloid": ("4d8bae15b4149b188a6ded0875e1b49f8226b9418430f0c60076d9489cd62811", 1602, "-1.16415e-10"),
    }

    @pytest.mark.pinned_bits
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_report(self, specs, name):
        digest, size, psd = self.GOLDEN[name]
        r = run(["validate", specs[name]])
        assert r.exit_code == 0, r.stderr
        (cond,) = [c for c in json.loads(r.output)["sufficient"]["conditions"] if c["id"] == "sufficient.diffusion_psd"]
        assert cond["detail"] == f"min diffusion eigenvalue on E samples is {psd}"
        data = r.output.encode()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (digest, size)

    @pytest.mark.pinned_bits
    @pytest.mark.parametrize("family, alpha", [(DISK_DOC, 1e8), (HYPERBOLOID_DOC, 10.0)],
                             ids=["disk_alpha_1e8", "hyperboloid_alpha_10"])
    def test_large_raw_diffusion_is_not_a_false_fail(self, tmp_path, family, alpha):
        # as raw coefficients, whose verdict is the sufficient battery's: the PSD
        # minima -4.26e-08 and -1.86e-09 are rounding, within the shift 1e-9 sum |terms of a|
        model = parse_model_spec(_variant(family, alpha=[[alpha, 0.0], [0.0, alpha]])).model
        doc = {**family, "coefficients": {"kind": "raw", "a": [[p.to_json_dict() for p in row] for row in model.a],
                                          "b": [p.to_json_dict() for p in model.b]}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        r = run(["validate", path])
        assert r.exit_code == 0, r.stderr
        report = json.loads(r.output)
        status = {c["id"]: c["status"] for c in report["sufficient"]["conditions"] + report["necessary"]["conditions"]}
        assert report["verdict"] == "Valid" and status["sufficient.diffusion_psd"] == "pass"
        # the boundary samples sit off {p = 0} by rounding, which a grad p scales up; the
        # tolerance 1e-9 sum |terms of (a grad p)_i| at each sample covers it
        assert status["necessary.a_gradp_zero[0]"] == "pass"

    @pytest.mark.pinned_bits
    def test_large_family_diffusion_is_not_a_false_fail(self, tmp_path):
        # the disk at alpha = 1e8 I: a grad p and the PSD minimum are rounding, each
        # within 1e-9 times the term sums at its sample, so every condition passes
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_variant(DISK_DOC, alpha=[[1e8, 0.0], [0.0, 1e8]])))
        r = run(["validate", path])
        assert r.exit_code == 0, r.stderr
        report = json.loads(r.output)
        conds = {c["id"]: c for block in ("parameter_conditions", "necessary", "sufficient")
                 for c in report[block]["conditions"]}
        assert report["verdict"] == "Valid" and {c["status"] for c in conds.values()} == {"pass"}
        assert conds["necessary.a_gradp_zero[0]"]["detail"] == "max |a grad p| on stratum 0 is 8.9407e-08"
        assert conds["sufficient.diffusion_psd"]["detail"] == "min diffusion eigenvalue on E samples is -4.55865e-08"

    def test_missing_file_exits_two(self, specs):
        r = run(["validate", specs["cir"] + ".nope"])
        assert r.exit_code == 2

    def test_malformed_json_exits_two_with_location(self, specs):
        r = run(["validate", specs["malformed"]])
        assert r.exit_code == 2
        assert "line 3" in r.stderr

    def test_out_redirects_report(self, specs, tmp_path):
        target = tmp_path / "report.json"
        r = run(["--out", target, "validate", specs["cir"]])
        assert r.exit_code == 0
        assert r.output == ""
        doc = json.loads(target.read_text())
        check_report(doc, "validate_report")
        assert doc["verdict"] == "Valid"


class TestMoments:
    POLY_X = json.dumps({"dim": 1, "terms": [{"e": [1], "c": 1.0}]})

    def test_mean_matches_closed_form(self, specs):
        r = run(["moments", specs["cir"], "--degree", 4, "--x", "0.8",
                 "--tau", 1.0, "--poly", self.POLY_X])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        check_report(doc, "moments_report")
        # linear drift 0.5 - 0.5 x integrates to 1 + (x - 1) e^{-tau/2}
        expected = 1.0 + (0.8 - 1.0) * math.exp(-0.5)
        assert doc["value"] == pytest.approx(expected, rel=1e-12)

    def test_output_is_deterministic(self, specs):
        args = ["moments", specs["cir"], "--degree", 4, "--x", "0.8",
                "--tau", 0.7, "--poly", self.POLY_X]
        assert run(args).output == run(args).output

    def test_verify_reports_ode_agreement(self, specs):
        r = run(["--verify", "moments", specs["cir"], "--degree", 4, "--x", "0.8",
                 "--tau", 1.0, "--poly", self.POLY_X])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        check_report(doc, "moments_report")
        assert doc["verify"]["abs_diff"] <= 1e-8

    def test_verify_with_monte_carlo(self, specs):
        r = run(["--verify", "--seed", 11, "moments", specs["cir"], "--degree", 4,
                 "--x", "0.8", "--tau", 0.5, "--poly", self.POLY_X,
                 "--mc-paths", 600, "--dt", 0.01])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        check_report(doc, "moments_report")
        v = doc["verify"]
        assert v["mc_paths"] == 600
        assert v["mc_standard_error"] > 0
        assert abs(v["mc_value"] - doc["value"]) < 6 * v["mc_standard_error"] + 0.05

    @pytest.mark.parametrize("extra, code", [(0, 0), (1, 1)])
    def test_monte_carlo_cap_counts_path_steps(self, specs, extra, code):
        # 1000 steps of 1e-3 to tau = 1: the cap's worth of paths runs, one more is refused
        r = run(["--verify", "moments", specs["cir"], "--degree", 4, "--x", "0.8", "--tau", 1.0,
                 "--poly", self.POLY_X, "--mc-paths", _MC_PATH_STEPS // 1000 + extra, "--dt", 1e-3])
        assert r.exit_code == code, r.stderr
        if code:
            assert r.stdout == ""
            assert r.stderr == (f"error: --mc-paths: {_MC_PATH_STEPS // 1000 + 1} paths of 1000 steps exceed the "
                                f"Monte Carlo cap of {_MC_PATH_STEPS} path-steps; use fewer paths or a larger --dt\n")

    def test_monte_carlo_check_is_refused_before_it_runs(self, specs):
        # a constant payoff leaves the series oracle nothing to step, so only
        # the Monte Carlo check's 1e9 steps of 1e-3 could make this run long
        poly = json.dumps({"dim": 1, "terms": [{"e": [0], "c": 2.0}]})
        done = TestMalformedInput._fresh_python(
            "from polydiff.cli import main\n"
            f"main({['--verify', 'moments', specs['cir'], '--degree', '2', '--x', '0.8', '--tau', '1e6', '--poly', poly, '--mc-paths', '2', '--dt', '1e-3']!r})")
        assert done.returncode == 1
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: --mc-paths: 2 paths of 1e+09 steps")

    def test_verify_checks_the_leading_block_against_the_series_oracle(self, specs):
        # the closed form exponentiates the 5 x 5 linear block of G under
        # the degree-8 bound; the oracle steps the Taylor series of the
        # linear payoff in Polynomial arithmetic, with no G
        poly = json.dumps({"dim": 4, "terms": [{"e": [0, 0, 0, 0], "c": 0.5},
                                                {"e": [1, 0, 0, 0], "c": 1.0},
                                                {"e": [0, 0, 0, 1], "c": -0.75}]})
        r = run(["--verify", "moments", specs["full4"], "--degree", 8, "--x", "0.5,-0.25,0.125,1",
                 "--tau", 0.5, "--poly", poly])
        assert r.exit_code == 0, r.stderr
        doc = json.loads(r.output)
        check_report(doc, "moments_report")
        assert doc["verify"]["abs_diff"] <= 1e-9
        mean = 0.25 + (np.array([0.5, 1.0]) - 0.25) * math.exp(-0.5)
        assert doc["value"] == pytest.approx(0.5 + mean[0] - 0.75 * mean[1], rel=1e-13)

    def test_non_finite_value_exits_one(self, specs):
        # 1e308 (E[X] + 1) overflows: JSON has no token for inf
        poly = json.dumps({"dim": 1, "terms": [{"e": [1], "c": 1e308}, {"e": [0], "c": 1e308}]})
        r = run(["moments", specs["cir"], "--degree", 2, "--x", "0.8", "--tau", 1.0, "--poly", poly])
        assert r.exit_code == 1
        assert r.stdout == ""
        assert r.stderr == "error: report.value: result inf is not a finite number\n"

    def test_poly_from_file(self, specs, tmp_path):
        p = tmp_path / "poly.json"
        p.write_text(self.POLY_X)
        r = run(["moments", specs["cir"], "--degree", 4, "--x", "0.8",
                 "--tau", 1.0, "--poly", f"@{p}"])
        assert r.exit_code == 0

    def test_wrong_point_dimension_exits_two(self, specs):
        r = run(["moments", specs["cir"], "--degree", 4, "--x", "0.8,0.1",
                 "--tau", 1.0, "--poly", self.POLY_X])
        assert r.exit_code == 2
        assert "--x" in r.stderr

    def test_bad_poly_json_exits_two(self, specs):
        r = run(["moments", specs["cir"], "--degree", 4, "--x", "0.8",
                 "--tau", 1.0, "--poly", "{not json"])
        assert r.exit_code == 2

    def test_point_outside_exits_one(self, specs):
        r = run(["moments", specs["cir"], "--degree", 4, "--x", "-0.5",
                 "--tau", 1.0, "--poly", self.POLY_X])
        assert r.exit_code == 1

    def test_degree_overrun_exits_one(self, specs):
        quintic = json.dumps({"dim": 1, "terms": [{"e": [5], "c": 1.0}]})
        r = run(["moments", specs["cir"], "--degree", 4, "--x", "0.8",
                 "--tau", 1.0, "--poly", quintic])
        assert r.exit_code == 1

    def test_missing_required_option_exits_two(self, specs):
        r = run(["moments", specs["cir"], "--degree", 4, "--x", "0.8",
                 "--poly", self.POLY_X])
        assert r.exit_code == 2


class TestSimplexMoments:
    def test_mass_identity_in_serialized_term_order(self, specs):
        # to_json_dict lists the x_3^2 term before the x_3 terms
        total = sum((Polynomial.variable(i, 3) for i in range(3)), Polynomial.zero(3))
        poly = json.dumps((total * total).to_json_dict())
        r = run(["moments", specs["simplex3"], "--degree", 2, "--x", "0.2,0.3,0.5",
                 "--tau", 0.7, "--poly", poly])
        assert r.exit_code == 0, r.stderr
        assert json.loads(r.output)["value"] == pytest.approx(1.0, abs=1e-14)

    def test_validate_sufficient_and_moments_agree(self, specs):
        r = run(["validate", specs["simplex4"]])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert doc["verdict"] == "Valid"
        status = {c["id"]: c["status"] for c in doc["sufficient"]["conditions"]}
        assert status["sufficient.manifold_drift[0]"] == "pass"
        assert status["sufficient.manifold_diffusion[0]"] == "pass"
        x1 = json.dumps({"dim": 4, "terms": [{"e": [1, 0, 0, 0], "c": 1.0}]})
        r = run(["moments", specs["simplex4"], "--degree", 2, "--x", "0.1,0.2,0.3,0.4",
                 "--tau", 0.8, "--poly", x1])
        assert r.exit_code == 0, r.stderr
        # E[X_tau] from the affine (d+1) block expm(tau [[B, beta], [0, 0]])
        params = SIMPLEX4_DOC["coefficients"]["params"]
        M = np.zeros((5, 5))
        M[:4, :4] = params["B"]
        M[:4, 4] = params["beta"]
        mean = expm(0.8 * M)[:4] @ [0.1, 0.2, 0.3, 0.4, 1.0]
        assert json.loads(r.output)["value"] == pytest.approx(mean[0], rel=1e-13)

    def test_validate_and_moments_agree_off_tangency(self, tmp_path):
        spec = tmp_path / "simplex3_off.json"
        spec.write_text(json.dumps(SIMPLEX3_OFF_DOC))
        r = run(["validate", spec])
        assert r.exit_code == 1
        doc = json.loads(r.output)
        assert doc["verdict"] == "Invalid"
        status = {c["id"]: c["status"] for block in ("parameter_conditions", "necessary", "sufficient")
                  for c in doc[block]["conditions"]}
        assert status["simplex.drift_mass"] == "fail"
        assert status["necessary.gq_zero[0]"] == "fail"
        assert status["sufficient.manifold_drift[0]"] == "fail"
        x1 = json.dumps({"dim": 3, "terms": [{"e": [1, 0, 0], "c": 1.0}]})
        r = run(["moments", spec, "--degree", 1, "--x", "0.2,0.3,0.5", "--tau", 0.5, "--poly", x1])
        assert r.exit_code == 1
        assert r.stderr.startswith("error: G q = ")


X_POLY = json.dumps({"dim": 1, "terms": [{"e": [1], "c": 1.0}]})


class TestMalformedInput:
    """Malformed input exits 2 and domain failures exit 1, each with a single
    ``error:`` line and never a traceback."""

    CASES = {
        "tau_negative": (["moments", "cir", "--degree", 4, "--x", "0.8", "--tau", -1,
                          "--poly", X_POLY], 2),
        "tau_nan": (["moments", "cir", "--degree", 4, "--x", "0.8", "--tau", "nan",
                     "--poly", X_POLY], 2),
        "tau_inf": (["moments", "cir", "--degree", 4, "--x", "0.8", "--tau", "1e309",
                     "--poly", X_POLY], 2),
        "tau_overflow": (["moments", "cir", "--degree", 4, "--x", "0.8", "--tau", "1e308",
                          "--poly", X_POLY], 1),
        "degree_negative": (["moments", "cir", "--degree", -1, "--x", "0.8", "--tau", 1.0,
                             "--poly", X_POLY], 2),
        "x_nan_full_space": (["moments", "raw_full", "--degree", 2, "--x", "nan", "--tau", 1.0,
                              "--poly", X_POLY], 2),
        "x_inf": (["moments", "cir", "--degree", 4, "--x", "inf", "--tau", 1.0,
                   "--poly", X_POLY], 2),
        "basis_dump_degree_negative": (["basis-dump", "cir", "--degree", -1], 2),
        "simulate_x0_nan": (["--out", "paths.csv", "simulate", "jacobi", "--x0", "nan",
                             "--t-end", 0.5], 2),
        "simulate_dt_nan": (["--out", "paths.csv", "simulate", "jacobi", "--x0", "0.2",
                             "--dt", "nan", "--t-end", 0.5], 2),
        "simulate_dt_zero": (["--out", "paths.csv", "simulate", "jacobi", "--x0", "0.2",
                              "--dt", 0, "--t-end", 0.5], 2),
        "simulate_dt_negative": (["--out", "paths.csv", "simulate", "jacobi", "--x0", "0.2",
                                  "--dt", -0.01, "--t-end", 0.5], 2),
        "simulate_t_end_inf": (["--out", "paths.csv", "simulate", "jacobi", "--x0", "0.2",
                                "--t-end", "inf"], 2),
        "simulate_t_end_zero": (["--out", "paths.csv", "simulate", "jacobi", "--x0", "0.2",
                                 "--t-end", 0], 2),
        "simulate_threshold_nan": (["--out", "paths.csv", "simulate", "jacobi", "--x0", "0.2",
                                    "--t-end", 0.5, "--threshold", "nan"], 2),
        "simulate_threshold_inf": (["--out", "paths.csv", "simulate", "jacobi", "--x0", "0.2",
                                    "--t-end", 0.5, "--threshold", "-inf"], 2),
        "simulate_paths_zero": (["--out", "paths.csv", "simulate", "jacobi", "--x0", "0.2",
                                 "--t-end", 0.5, "--paths", 0], 2),
        "simulate_paths_negative": (["--out", "paths.csv", "simulate", "jacobi", "--x0", "0.2",
                                     "--t-end", 0.5, "--paths", -3], 2),
        "simulate_store_stride_zero": (["--out", "paths.csv", "simulate", "jacobi", "--x0", "0.2",
                                        "--t-end", 0.5, "--store-stride", 0], 2),
        "simulate_dt_overflow": (["--out", "paths.csv", "simulate", "full4", "--x0", "0.25,0.25,0.25,0.25",
                                  "--dt", 1e100, "--t-end", 7e100], 1),
        # in d >= 3 the rows of a(x) overflow before the state does
        "simulate_dt_overflow_simplex3": (["--out", "paths.csv", "simulate", "simplex3", "--x0", "0.2,0.3,0.5",
                                           "--paths", 4, "--dt", 1e20, "--t-end", 6.4e21], 1),
        "simulate_dt_overflow_simplex4": (["--out", "paths.csv", "simulate", "simplex4", "--x0",
                                           "0.25,0.25,0.25,0.25", "--dt", 1e40, "--t-end", 7e40], 1),
        "simulate_seed_negative": (["--seed", -1, "--out", "paths.csv", "simulate", "jacobi", "--x0", "0.2",
                                   "--t-end", 0.5], 2),
        "validate_samples_zero": (["--samples", 0, "validate", "jacobi"], 2),
        "boundary_samples_negative": (["--samples", -5, "boundary", "jacobi"], 2),
        "moments_mc_paths_negative": (["--verify", "moments", "jacobi", "--degree", 2, "--x", "0.2",
                                       "--tau", 0.5, "--poly", X_POLY, "--mc-paths", -4], 2),
        "moments_mc_dt_nan": (["--verify", "moments", "jacobi", "--degree", 2, "--x", "0.2",
                              "--tau", 0.5, "--poly", X_POLY, "--mc-paths", 4, "--dt", "nan"], 2),
        "moments_mc_dt_inf": (["--verify", "moments", "jacobi", "--degree", 2, "--x", "0.2",
                              "--tau", 0.5, "--poly", X_POLY, "--mc-paths", 4, "--dt", "inf"], 2),
        "moments_mc_dt_zero": (["--verify", "moments", "jacobi", "--degree", 2, "--x", "0.2",
                               "--tau", 0.5, "--poly", X_POLY, "--mc-paths", 4, "--dt", 0], 2),
        "moments_mc_dt_negative": (["--verify", "moments", "jacobi", "--degree", 2, "--x", "0.2",
                                   "--tau", 0.5, "--poly", X_POLY, "--mc-paths", 4, "--dt", -0.01], 2),
        "validate_malformed": (["validate", "malformed"], 2),
        "poly_exponent_float": (["moments", "jacobi", "--degree", 2, "--x", "0.2", "--tau", 0.5, "--poly",
                                 '{"dim": 1, "terms": [{"e": [1.5], "c": 1}]}'], 2),
        "poly_exponent_bool": (["moments", "jacobi", "--degree", 2, "--x", "0.2", "--tau", 0.5, "--poly",
                                '{"dim": 1, "terms": [{"e": [true], "c": 1}]}'], 2),
        "poly_coefficient_string": (["moments", "jacobi", "--degree", 2, "--x", "0.2", "--tau", 0.5, "--poly",
                                     '{"dim": 1, "terms": [{"e": [1], "c": "2"}]}'], 2),
        "poly_terms_object": (["moments", "jacobi", "--degree", 2, "--x", "0.2", "--tau", 0.5, "--poly",
                               '{"dim": 1, "terms": {}}'], 2),
        "boundary_missing_file": (["boundary", "missing"], 2),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_code_and_one_error_line(self, case, specs, tmp_path):
        args, code = self.CASES[case]
        files = {**specs, "missing": tmp_path / "missing.json", "paths.csv": tmp_path / "paths.csv"}
        r = run([files.get(a, a) if isinstance(a, str) else a for a in args])
        assert r.exit_code == code
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert "Traceback" not in r.stderr
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --poly: " if case.startswith("poly_") else "error: ")

    @pytest.mark.parametrize("case", [c for c in sorted(CASES) if c.startswith("simulate_dt_overflow")])
    def test_overflow_asks_for_a_smaller_dt(self, case, specs, tmp_path):
        files = {**specs, "paths.csv": tmp_path / "paths.csv"}
        r = run([files.get(a, a) if isinstance(a, str) else a for a in self.CASES[case][0]])
        assert r.stderr == "error: a simulated path left the finite doubles; try a smaller dt\n"

    def test_overflowing_tau_names_the_horizon(self, specs):
        # on x the product tau G stays finite and its exponential overflows; on x^3 the product overflows
        for e, message in ((1, "matrix exponential overflowed the floating-point range"),
                           (3, "tau = 1e+308 times the generator overflows the floating-point range")):
            poly = json.dumps({"dim": 1, "terms": [{"e": [e], "c": 1.0}]})
            r = run(["moments", specs["cir"], "--degree", 4, "--x", "0.8", "--tau", "1e308", "--poly", poly])
            assert r.exit_code == 1
            assert r.stderr == f"error: {message}\n"

    def test_negative_seed_names_the_option(self, specs, tmp_path):
        r = run(["--seed", -1, "--out", tmp_path / "paths.csv", "simulate", specs["jacobi"],
                 "--x0", "0.2", "--t-end", 0.5])
        assert r.exit_code == 2
        assert r.stderr == "error: --seed: expected an integer >= 0, got -1\n"

    def test_unknown_pricer_type_names_the_field(self, specs, instrument):
        path = instrument({"kind": "equity_option", "x": [0.3, 0.7],
                           "constituent": 0, "T": 1.0, "K": 0.4, "horizon": 2.0,
                           "pricer": {"type": "tabulated", "strikes": [0.5, 1.0],
                                      "prices": [0.5, 0.1]}})
        r = run(["price", specs["simplex_pricing"], path])
        assert r.exit_code == 2
        assert r.stderr == "error: $.pricer.type: 'tabulated' is not one of ['lognormal', 'table']\n"

    def test_overflowing_table_price_is_one_error_line(self, specs, tmp_path):
        # JSON reads 1e999 as inf: the finite-number check names it before any pricer is built
        path = tmp_path / "instrument.json"
        path.write_text('{"kind": "equity_option", "x": [0.3, 0.7], "constituent": 0, "T": 1.0, "K": 0.4, '
                        '"horizon": 2.0, "pricer": {"type": "table", "strikes": [0.5, 1.0], "prices": [0.5, 1e999]}}')
        r = run(["price", specs["simplex_pricing"], path])
        assert r.exit_code == 2
        assert r.stderr == "error: instrument.pricer.prices[1]: expected a finite number, got inf\n"

    @staticmethod
    def _fresh_python(code):
        src = os.path.dirname(os.path.dirname(polydiff.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)

    def test_import_leaves_scipy_stats_out(self):
        done = self._fresh_python("import sys, polydiff.cli; sys.exit('scipy.stats' in sys.modules)")
        assert done.returncode == 0, done.stderr

    def test_index_option_leaves_scipy_interpolate_out(self):
        # scipy.interpolate drags in optimize, sparse, spatial and fft: about 20 MB of RSS
        done = self._fresh_python(
            "import sys, polydiff.cli\n"
            "from polydiff import LognormalIndexPricer, SimplexIndexModel, TabulatedIndexPricer\n"
            "from polydiff import SimplexParams, constituent_option_price\n"
            "params = SimplexParams(alpha=[[0.0, 1.0], [1.0, 0.0]], beta=[0.5, 0.5], B=[[-1.5, 0.5], [0.5, -1.5]])\n"
            "sim = SimplexIndexModel(params=params, T_star=2.0, degree=4)\n"
            "for pricer in (LognormalIndexPricer(1.0, 0.02, 0.3), TabulatedIndexPricer([0.1, 1.0, 1e6], [0.9, 0.1, 0.0])):\n"
            "    constituent_option_price(sim, pricer, 0, 1.0, 0.4, [0.3, 0.7], residual_warn=1.0)\n"
            "sys.exit('scipy.interpolate' in sys.modules)")
        assert done.returncode == 0, done.stderr

    def test_valid_input_leaves_jsonschema_out(self):
        # the compiled schemas accept valid files; jsonschema only words a rejection
        done = self._fresh_python(
            "import sys, polydiff.cli\n"
            "from polydiff.specfile import _validate_against, parse_instrument, parse_model_spec\n"
            f"parse_model_spec({FULL4_DOC!r}); parse_model_spec({CIR_DOC!r})\n"
            f"parse_instrument({self.EQUITY!r}); _validate_against({json.loads(X_POLY)!r}, "
            "'modelspec.schema.json', 'polynomial')\n"
            "sys.exit('jsonschema' in sys.modules)")
        assert done.returncode == 0, done.stderr
        done = self._fresh_python(
            "import sys, polydiff.cli\n"
            "from polydiff.specfile import SpecError, parse_instrument\n"
            "try:\n    parse_instrument({'kind': 'bond'})\nexcept SpecError:\n    pass\n"
            "sys.exit('jsonschema' not in sys.modules)")
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_instrument_point_exits_two(self, value, specs, tmp_path):
        path = tmp_path / "instrument.json"
        path.write_text('{"kind": "bond", "x": [%s], "t": 0.0, "T": 1.0}' % value)
        r = run(["price", specs["cir"], path])
        assert r.exit_code == 2
        assert r.stderr.startswith("error: instrument.x")

    BOND = {"kind": "bond", "x": [0.8], "t": 0.0, "T": 1.0}
    SWAPTION = {"kind": "swaption", "x": [0.8], "expiry": 0.5, "coupons": [[1.0, 1.0], [1.0, 2.0]],
                "n_paths": 200, "dt": 0.01}
    EQUITY = {"kind": "equity_option", "x": [0.3, 0.7], "constituent": 0, "T": 1.0, "K": 0.4,
              "horizon": 2.0, "pricer": {"type": "lognormal", "spot": 1.0, "rate": 0.02, "vol": 0.3}}
    TABLE = {"type": "table", "strikes": [0.5, 1.0], "prices": [0.5, 0.1]}
    NON_FINITE = {
        "bond_T_nan": ("cir", {**BOND, "T": math.nan}, "T", "nan"),
        "bond_T_inf": ("cir", {**BOND, "T": math.inf}, "T", "inf"),
        "bond_t_nan": ("cir", {**BOND, "t": math.nan}, "t", "nan"),
        "vswap_T_inf": ("cir", {**BOND, "kind": "vswap", "T": math.inf}, "T", "inf"),
        "swaption_expiry_nan": ("cir", {**SWAPTION, "expiry": math.nan}, "expiry", "nan"),
        "swaption_coupon_amount_nan": ("cir", {**SWAPTION, "coupons": [[math.nan, 1.0]]},
                                       "coupons[0][0]", "nan"),
        "swaption_coupon_date_inf": ("cir", {**SWAPTION, "coupons": [[1.0, 1.0], [1.0, math.inf]]},
                                     "coupons[1][1]", "inf"),
        "swaption_dt_nan": ("cir", {**SWAPTION, "dt": math.nan}, "dt", "nan"),
        "equity_T_nan": ("simplex_pricing", {**EQUITY, "T": math.nan}, "T", "nan"),
        "equity_K_inf": ("simplex_pricing", {**EQUITY, "K": math.inf}, "K", "inf"),
        "equity_horizon_nan": ("simplex_pricing", {**EQUITY, "horizon": math.nan}, "horizon", "nan"),
        "equity_pricer_vol_nan": ("simplex_pricing", {**EQUITY, "pricer": {**EQUITY["pricer"], "vol": math.nan}},
                                  "pricer.vol", "nan"),
        "equity_pricer_price_inf": ("simplex_pricing",
                                    {**EQUITY, "pricer": {**TABLE, "prices": [0.5, math.inf]}},
                                    "pricer.prices[1]", "inf"),
    }

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_instrument_number_names_the_field(self, case, specs, instrument):
        spec, doc, field, token = self.NON_FINITE[case]
        r = run(["price", specs[spec], instrument(doc)])  # json.dumps writes NaN / Infinity
        assert r.exit_code == 2
        assert r.stderr == f"error: instrument.{field}: expected a finite number, got {token}\n"

    QUADRIC_PARAMS = {"kind": "family", "params": {"alpha": [[1.0, 0.0], [0.0, 1.0]], "beta": [0.0, 0.0],
                                                   "B": [[-1.0, 0.0], [0.0, -1.0]]}}
    STATE_SPACES = {
        "quadric_not_diagonal": {"dimension": 2, "coefficients": QUADRIC_PARAMS,
                                 "state_space": {"family": "quadric", "Q": [[1.0, 0.5], [0.5, 1.0]]}},
        "quadric_without_plus_one": {"dimension": 2, "coefficients": QUADRIC_PARAMS,
                                     "state_space": {"family": "quadric", "Q": [[-1.0, 0.0], [0.0, -1.0]]}},
        "simplex_dim_1": {"dimension": 1, "state_space": {"family": "simplex"}, "coefficients": {
            "kind": "family", "params": {"alpha": [[0.0]], "beta": [0.0], "B": [[0.0]]}}},
    }

    @pytest.mark.parametrize("case", sorted(STATE_SPACES))
    def test_malformed_state_space_exits_two(self, case, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.STATE_SPACES[case]))
        r = run(["validate", path])
        assert r.exit_code == 2
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: state_space: "), r.stderr

    X1_CUBED = {"dim": 1, "terms": [{"e": [3], "c": 1.0}]}
    X1_SQUARED = {"dim": 1, "terms": [{"e": [2], "c": 1.0}]}
    RAW_COEFFICIENTS = {
        "a_asymmetric": (("full4", "a", 0, 1), {"dim": 4, "terms": [{"e": [1, 0, 0, 0], "c": 1.0}]},
                         "diffusion matrix not symmetric at (0,1)"),
        "a_cubic": (("raw_full", "a", 0, 0), X1_CUBED, "diffusion entry (0,0) has degree 3 > 2"),
        "b_quadratic": (("raw_full", "b", 0), X1_SQUARED, "drift entry 0 has degree 2 > 1"),
    }

    @pytest.mark.parametrize("case", sorted(RAW_COEFFICIENTS))
    def test_raw_coefficients_out_of_class_exit_two(self, case, tmp_path):
        (model, *where), poly, message = self.RAW_COEFFICIENTS[case]
        doc = copy.deepcopy(DOCS[model])
        node = doc["coefficients"]
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = poly
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        r = run(["validate", path])
        assert r.exit_code == 2
        assert r.stderr == f"error: coefficients: {message}\n"

    def test_unreadable_poly_file_is_one_line(self, specs, tmp_path):
        missing = tmp_path / "missing.json"
        r = run(["moments", specs["cir"], "--degree", 4, "--x", "0.8", "--tau", 1.0, "--poly", f"@{missing}"])
        assert r.exit_code == 2
        assert r.stderr == f"error: --poly: [Errno 2] No such file or directory: '{missing}'\n"

    def test_malformed_poly_file_is_one_line(self, specs, tmp_path):
        bad = tmp_path / "poly.json"
        bad.write_text("{not json")
        r = run(["moments", specs["cir"], "--degree", 4, "--x", "0.8", "--tau", 1.0, "--poly", f"@{bad}"])
        assert r.exit_code == 2
        assert r.stderr == ("error: --poly: Expecting property name enclosed in double quotes: "
                            "line 1 column 2 (char 1)\n")

    def test_poly_of_another_dimension_is_one_line(self, specs):
        poly = json.dumps({"dim": 2, "terms": [{"e": [1, 0], "c": 1.0}]})
        r = run(["moments", specs["cir"], "--degree", 4, "--x", "0.8", "--tau", 1.0, "--poly", poly])
        assert r.exit_code == 2
        assert r.stderr == "error: --poly: polynomial dimension 2 does not match model dimension 1\n"

    # an exponent vector of length 2 in a 1-d polynomial: a raw drift entry, or the pricing p
    LONG_EXPONENT = {"dim": 1, "terms": [{"e": [1, 0], "c": 1.0}]}
    MODEL_FILE_ERRORS = {
        "raw_term_exponent": ("raw_full", ("coefficients", "b", 0), LONG_EXPONENT,
                              "coefficients: exponent vector (1, 0) has length 2, expected 1"),
        "pricing_p_exponent": ("cir", ("pricing", "p"), LONG_EXPONENT,
                               "pricing.p: exponent vector (1, 0) has length 2, expected 1"),
        "full_family_params": ("raw_full", ("coefficients",), {"kind": "family", "params": {}},
                               "coefficients: family 'full' has no parameter form; use kind 'raw'"),
        # with n = 0, alpha is checked like phi: [] or shape (0, 0), nothing else
        "empty_orthant_alpha": ("jacobi", ("coefficients", "params", "alpha"), [[5.0, 1.0]],
                                "coefficients.params: alpha must have shape (0, 0), got (1, 2)"),
    }

    @pytest.mark.parametrize("case", sorted(MODEL_FILE_ERRORS))
    def test_model_file_error_is_one_line(self, case, tmp_path):
        model, (*parents, key), value, message = self.MODEL_FILE_ERRORS[case]
        doc = copy.deepcopy(DOCS[model])
        node = doc
        for name in parents:
            node = node[name]
        node[key] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        r = run(["validate", path])
        assert r.exit_code == 2
        assert r.stderr == f"error: {message}\n"

    def test_quiet_leaves_the_warning_filters(self, specs):
        before = list(warnings.filters)
        r = run(["--quiet", "validate", specs["cir"]])
        assert r.exit_code == 0
        assert warnings.filters == before

    def test_zero_state_price_density_is_one_line(self, instrument, tmp_path):
        # p = x1 vanishes at x = 0, where a bond has no state-price density to discount with
        doc = copy.deepcopy(CIR_DOC)
        doc["pricing"]["p"] = {"dim": 1, "terms": [{"e": [1], "c": 1.0}]}
        spec = tmp_path / "model.json"
        spec.write_text(json.dumps(doc))
        r = run(["--quiet", "price", spec, instrument({"kind": "bond", "x": [0.0], "t": 0.0, "T": 1.0})])
        assert r.exit_code == 1
        assert r.stdout == ""
        assert r.stderr == "error: state-price density H(x)'p = 0 <= 0\n"


def gzip_member(data: bytes) -> bytes:
    """The gzip member ``simulate --gzip`` writes, from RFC 1952 without the
    gzip module, whose header byte OS differs between Python versions: the
    header with mtime 0 and OS 255, raw deflate at level 6, crc32 and size."""
    deflate = zlib.compressobj(6, zlib.DEFLATED, -15)
    header = bytes([0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255])
    return header + deflate.compress(data) + deflate.flush() + struct.pack("<II", zlib.crc32(data), len(data))


class TestSimulate:
    def base_args(self, out, spec, seed=7):
        return ["--out", out, "--seed", seed, "simulate", spec, "--x0", "0.2",
                "--paths", 40, "--dt", 0.01, "--t-end", 0.5]

    def test_requires_out(self, specs):
        r = run(["simulate", specs["jacobi"], "--x0", "0.2", "--t-end", 0.5])
        assert r.exit_code == 2
        assert "--out" in r.stderr

    def test_csv_and_summary(self, specs, tmp_path):
        out = tmp_path / "paths.csv"
        r = run(self.base_args(out, specs["jacobi"]))
        assert r.exit_code == 0
        summary = json.loads(r.output)
        check_report(summary, "simulate_summary")
        assert summary["n_paths"] == 40
        assert summary["n_steps"] == 50
        assert summary["seed"] == 7
        # one inequality per face of the unit interval
        assert [s["inequality"] for s in summary["boundary_stats"]] == [0, 1]
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "path_id,step,t,x_1"
        assert len(rows) == 1 + 40 * 51

    def test_reruns_are_bit_identical(self, specs, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        ra = run(self.base_args(a, specs["jacobi"]))
        rb = run(self.base_args(b, specs["jacobi"]))
        assert ra.exit_code == rb.exit_code == 0
        assert a.read_bytes() == b.read_bytes()
        sa, sb = json.loads(ra.output), json.loads(rb.output)
        sa.pop("csv_path"), sb.pop("csv_path")
        assert sa == sb

    def test_seed_changes_paths(self, specs, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(self.base_args(a, specs["jacobi"], seed=7))
        run(self.base_args(b, specs["jacobi"], seed=8))
        assert a.read_bytes() != b.read_bytes()

    def test_store_stride_thins_csv(self, specs, tmp_path):
        out = tmp_path / "paths.csv"
        r = run(self.base_args(out, specs["jacobi"]) + ["--store-stride", 10])
        assert r.exit_code == 0
        # steps 0,10,...,50: the endpoint is a multiple of the stride here,
        # so no extra row is appended; the summary still counts full steps
        assert json.loads(r.output)["n_steps"] == 50
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1 + 40 * 6

    def test_gzip_flag(self, specs, tmp_path):
        plain, packed, packed2 = (tmp_path / n for n in ("p.csv", "a.csv.gz", "b.csv.gz"))
        run(self.base_args(plain, specs["jacobi"]))
        r = run(self.base_args(packed, specs["jacobi"]) + ["--gzip"])
        assert r.exit_code == 0
        assert packed.read_bytes()[:2] == b"\x1f\x8b"
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
        # compression must not break bit-level reproducibility
        run(self.base_args(packed2, specs["jacobi"]) + ["--gzip"])
        assert packed.read_bytes() == packed2.read_bytes()

    @pytest.mark.parametrize("spec, x0, stride", [("jacobi", "0.2", 1), ("simplex3", "0.2,0.3,0.5", 1),
                                                  ("jacobi", "0.2", 7)])
    @pytest.mark.parametrize("use_gzip", [False, True])
    def test_csv_bytes_match_per_value_writer(self, specs, tmp_path, spec, x0, stride, use_gzip):
        out = tmp_path / "paths.csv"
        r = run(["--out", out, "--seed", 7, "simulate", specs[spec], "--x0", x0, "--paths", 12,
                 "--dt", 0.01, "--t-end", 0.5, "--store-stride", stride] + (["--gzip"] if use_gzip else []))
        assert r.exit_code == 0, r.stderr
        loaded = parse_model_spec(DOCS[spec])
        ps = simulate_paths(loaded.model, loaded.statespace, [float(v) for v in x0.split(",")],
                            0.5, 0.01, 12, 7, store_stride=stride)
        want = paths_csv_by_format(ps).encode()
        assert out.read_bytes() == (gzip_member(want) if use_gzip else want)

    def test_gzip_golden_hash(self, specs, tmp_path):
        # sha256 and length of one --gzip member: they depend on zlib's deflate at
        # level 6 alone, so every supported Python writes these bytes
        out = tmp_path / "paths.csv.gz"
        r = run(["--out", out, "--seed", 2026, "simulate", specs["jacobi"], "--x0", "0.2", "--paths", 16,
                 "--dt", 0.01, "--t-end", 0.5, "--gzip"])
        assert r.exit_code == 0, r.stderr
        data = out.read_bytes()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (
            "b47ccccc7c2d68fa7240ed636815d37f7a3e12d85be671feea5d9cca2d2e01aa", 10601)
        # the plain CSV of the same run is TestSimulate.GOLDEN["jacobi"]
        assert hashlib.sha256(gzip.decompress(data)).hexdigest() == self.GOLDEN["jacobi"][3]

    # sha256 and length of the CSV bytes as written by the per-path generator
    # streams; keys, counters, draws and the step kernel all show in them
    GOLDEN = {
        "jacobi": ("jacobi", 2026, ["--x0", "0.2", "--paths", 16, "--dt", 0.01, "--t-end", 0.5],
                   "ac7ec46810b3bebc905b0476dc8bf2b13f27a1f77dd1205c85e7b4f8afc01e9f", 33272),
        # 1100 steps straddle the 1024-step block; the seed has two 32-bit words
        "jacobi_two_blocks": ("jacobi", 2**32 + 1, ["--x0", "0.2", "--paths", 3, "--dt", 0.001,
                                                     "--t-end", 1.1, "--store-stride", 25],
                              "b2e21ecbedc0121e2625cb4693a4a77bc4047dc461ba3dfbb83ad249715c0f59", 5748),
        "simplex2": ("simplex_plain", 2026, ["--x0", "0.3,0.7", "--paths", 16, "--dt", 0.01, "--t-end", 0.5],
                     "2458e7b0c7cff1cd7909e9be34f84f40b2004e42f2e3dbe95b91bc20ce25ead6", 49502),
        "simplex3": ("simplex3", 7, ["--x0", "0.2,0.3,0.5", "--paths", 8, "--dt", 0.01, "--t-end", 0.5],
                     "03c52e2c2113d64784102750958f90d4cb230116595aa35e75a9818d37968de0", 32619),
    }

    @pytest.mark.pinned_bits
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_csv_golden_hash(self, specs, tmp_path, case):
        spec, seed, args, digest, size = self.GOLDEN[case]
        out = tmp_path / "paths.csv"
        r = run(["--out", out, "--seed", seed, "simulate", specs[spec], *args])
        assert r.exit_code == 0, r.stderr
        data = out.read_bytes()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (digest, size)

    def test_uneven_grid_exits_one(self, specs, tmp_path):
        out = tmp_path / "paths.csv"
        r = run(["--out", out, "simulate", specs["jacobi"], "--x0", "0.2",
                 "--paths", 10, "--dt", 0.1, "--t-end", 0.35])
        assert r.exit_code == 1


class TestBoundary:
    def test_critical_drift(self, specs):
        r = run(["boundary", specs["cir"]])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        check_report(doc, "boundary_report")
        entry = doc["inequalities"][0]
        assert entry["verdict"] == "NonAttainCritical"
        assert entry["h"] is not None

    def test_attaining_drift_reports_witness(self, specs):
        r = run(["boundary", specs["cir_attain"]])
        assert r.exit_code == 0
        entry = json.loads(r.output)["inequalities"][0]
        assert entry["verdict"] == "Attain"
        assert entry["witness"] == pytest.approx([0.0], abs=1e-12)

    def test_simplex_certificate_modulo_the_mass_equality(self, specs):
        r = run(["boundary", specs["raw_simplex_x2"]])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert [e["verdict"] for e in doc["inequalities"]] == ["NonAttainStrict"] * 2

    def test_jacobi_has_two_critical_faces(self, specs):
        r = run(["boundary", specs["jacobi"]])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        check_report(doc, "boundary_report")
        assert [e["verdict"] for e in doc["inequalities"]] == ["NonAttainCritical"] * 2

    def test_overflowing_samples_are_judged_without_warnings(self, tmp_path):
        # b = 1e306 x on the hyperboloid: G p = -2e306 on the stratum, and e = 2 G p is
        # NaN at the samples where the evaluation overflows
        def poly(*terms):
            return {"dim": 2, "terms": [{"e": e, "c": c} for e, c in terms]}
        doc = {"dimension": 2, "state_space": HYPERBOLOID_DOC["state_space"],
               "coefficients": {"kind": "raw", "a": [[poly(), poly()], [poly(), poly()]],
                                "b": [poly(([1, 0], 1e306)), poly(([0, 1], 1e306))]}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v, b = run(["validate", path]), run(["boundary", path])
        assert (v.exit_code, v.stderr, json.loads(v.output)["verdict"]) == (1, "", "Invalid")
        assert (b.exit_code, b.stderr) == (0, "")
        detail = json.loads(b.output)["inequalities"][0]["detail"]
        assert detail.startswith("sampled e range [-4e+306, -") and "nan" not in detail, detail

    def test_margin_is_not_an_option(self, specs):
        # the sampled checks' margin is a constant of conditions.py
        r = run(["boundary", specs["cir"], "--margin", "1e-9"])
        assert r.exit_code == 2 and "No such option" in r.stderr and "--margin" in r.stderr, r.stderr


class TestReportSchemas:
    """On every DOCS model, validate and boundary print the library reports'
    own as_json_dict() blocks, and those fit reports.schema.json."""

    @pytest.mark.parametrize("name", sorted(DOCS))
    def test_validate_and_boundary_reports(self, name, specs):
        r = run(["validate", specs[name]])
        assert r.exit_code in (0, 1) and not r.stderr, r.stderr
        check_report(json.loads(r.output), "validate_report")
        r = run(["boundary", specs[name]])
        assert r.exit_code == 0, r.stderr
        doc = json.loads(r.output)
        check_report(doc, "boundary_report")
        assert all(e.keys() == {"index", "verdict", "stratum", "detail", "witness", "h"} for e in doc["inequalities"])


class TestSizeCaps:
    """A basis, a simulation or a swaption simulation past its cap is
    refused with exit 1 and one error: line before it is built.  Only
    requests just above a cap are run; one at the cap would build it."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("built past the cap")

    @pytest.fixture()
    def no_basis(self, monkeypatch):
        monkeypatch.setattr(polydiff.cli, "monomial_basis", self.refuse)
        monkeypatch.setattr(polydiff.generator, "monomial_basis", self.refuse)

    @staticmethod
    def refused(r, message):
        assert r.exception is None or isinstance(r.exception, SystemExit), r.exception
        assert (r.exit_code, r.stdout, r.stderr) == (1, "", f"error: {message}\n")

    @staticmethod
    def basis_message(name, degree, n):
        return (f"{name}: degree {degree} gives a basis of {n} monomials, above the cap of {_BASIS_SIZE}; "
                "use a lower degree")

    def test_basis_dump_degree(self, specs, no_basis):
        # one variable: degree k has k + 1 monomials
        r = run(["basis-dump", specs["cir"], "--degree", _BASIS_SIZE, "--generator"])
        self.refused(r, self.basis_message("--degree", _BASIS_SIZE, _BASIS_SIZE + 1))

    def test_basis_dump_degree_in_four_variables(self, specs, no_basis):
        degree = next(k for k in range(100) if math.comb(4 + k, 4) > _BASIS_SIZE)
        r = run(["basis-dump", specs["full4"], "--degree", degree])
        self.refused(r, self.basis_message("--degree", degree, math.comb(4 + degree, 4)))

    def test_moments_poly_degree(self, specs, no_basis):
        # the closed form builds its basis on Pol_{deg p}: the payoff's degree is capped, not the bound
        poly = json.dumps({"dim": 1, "terms": [{"e": [_BASIS_SIZE], "c": 1.0}]})
        r = run(["moments", specs["cir"], "--degree", _BASIS_SIZE, "--x", "0.8", "--tau", 1.0, "--poly", poly])
        self.refused(r, self.basis_message("--poly", _BASIS_SIZE, _BASIS_SIZE + 1))

    @pytest.mark.parametrize("model, degree", [("cir", 10 * _BASIS_SIZE), ("full4", 17)])
    def test_moments_high_bound_on_a_linear_poly_runs(self, specs, model, degree):
        dim = DOCS[model]["dimension"]
        poly = json.dumps({"dim": dim, "terms": [{"e": [1] + [0] * (dim - 1), "c": 1.0}]})
        r = run(["moments", specs[model], "--degree", degree, "--x", ",".join([str(1 / dim)] * dim),
                 "--tau", 1.0, "--poly", poly])
        assert r.exit_code == 0, r.stderr
        assert math.isfinite(json.loads(r.output)["value"])

    @pytest.mark.parametrize("model, instrument_doc", [
        ("cir", {"kind": "bond", "x": [0.8], "t": 0.0, "T": 1.0}),
        # the simplex basis drops one coordinate: one variable again
        ("simplex_pricing", TestMalformedInput.EQUITY),
    ])
    def test_pricing_degree(self, model, instrument_doc, tmp_path, instrument, no_basis):
        doc = copy.deepcopy(DOCS[model])
        doc["pricing"]["degree"] = _BASIS_SIZE
        spec = tmp_path / "model.json"
        spec.write_text(json.dumps(doc))
        r = run(["price", spec, instrument(instrument_doc)])
        self.refused(r, self.basis_message("pricing.degree", _BASIS_SIZE, _BASIS_SIZE + 1))

    @staticmethod
    def swaption_message(paths, steps, n):
        return (f"a swaption of {paths} paths x ({steps} steps + {n} basis evaluations) exceeds the cap of "
                f"{_SWAPTION_PATHS} paths and {_SWAPTION_SIZE} path-steps plus evaluations; "
                "use fewer n_paths or a larger dt")

    @pytest.mark.parametrize("expiry, paths", [
        (1.0, lambda n: _SWAPTION_SIZE // (1000 + n) + 1),  # 1000 steps of dt
        (1e-10, lambda n: _SWAPTION_PATHS + 1),  # under one step: each path still stores its endpoint
    ])
    def test_swaption_size(self, specs, instrument, monkeypatch, expiry, paths):
        monkeypatch.setattr(polydiff.pricing, "simulate_paths", self.refuse)
        n = len(cir_pricing_model()[1].basis)
        paths = paths(n)
        r = run(["price", specs["cir"], instrument({**TestMalformedInput.SWAPTION, "expiry": expiry,
                                                    "coupons": [[1.0, 2.0]], "n_paths": paths, "dt": 1e-3})])
        self.refused(r, self.swaption_message(paths, 1000 if expiry == 1.0 else 1, n))

    @staticmethod
    def simulate(specs, tmp_path, monkeypatch, *args):
        monkeypatch.setattr(polydiff.cli, "simulate_paths", TestSizeCaps.refuse)
        return run(["--out", tmp_path / "paths.csv", "simulate", specs["jacobi"], "--x0", "0.2", *args])

    def test_simulate_path_steps(self, specs, tmp_path, monkeypatch):
        # one path of one step more than the cap, storing only its two ends
        n = _SIM_PATH_STEPS + 1
        r = self.simulate(specs, tmp_path, monkeypatch, "--paths", 1, "--dt", 1, "--t-end", n, "--store-stride", n)
        self.refused(r, f"--paths: 1 paths of {n} steps exceed the simulation cap of {_SIM_PATH_STEPS} path-steps; "
                        "use fewer paths or a larger --dt")
        assert not (tmp_path / "paths.csv").exists()

    def test_simulate_infinite_step_count(self, specs, tmp_path, monkeypatch):
        r = self.simulate(specs, tmp_path, monkeypatch, "--paths", 1, "--dt", 5e-324, "--t-end", 1)
        self.refused(r, f"--paths: 1 paths of inf steps exceed the simulation cap of {_SIM_PATH_STEPS} path-steps; "
                        "use fewer paths or a larger --dt")

    def test_simulate_stored_states(self, specs, tmp_path, monkeypatch):
        # three stored states a path, 0, 1 and 2: one state more than the cap
        assert _SIM_ROWS % 3 == 2
        paths = (_SIM_ROWS + 1) // 3
        r = self.simulate(specs, tmp_path, monkeypatch, "--paths", paths, "--dt", 1, "--t-end", 2)
        self.refused(r, f"--paths: {paths} paths of 3 stored states exceed the cap of {_SIM_ROWS} stored states; "
                        "use fewer paths or a larger --store-stride")

    @pytest.mark.parametrize("paths, steps, stride", [
        (1, _SIM_PATH_STEPS, _SIM_PATH_STEPS),  # the step cap exactly, two stored states
        (_SIM_ROWS // 2, 1, 1),  # the stored-state cap exactly
        (10**4, 1000, 1),  # the README example: 10^4 paths of 1001 stored states
    ])
    def test_simulate_caps_admit_what_they_bound(self, paths, steps, stride):
        _check_simulation_size(paths, float(steps), stride)

    def test_readme_swaption_prices(self, specs, instrument):
        # 20000 paths x 500 steps, the size of the README example
        path = instrument({"kind": "swaption", "x": [0.8], "expiry": 0.5,
                           "coupons": [[1.0, 1.0], [1.0, 2.0]], "n_paths": 20000, "dt": 0.001})
        r = run(["price", specs["cir"], path])
        assert r.exit_code == 0, r.stderr
        assert math.isfinite(json.loads(r.output)["price"])

    def test_long_swaption_is_refused_at_once(self, specs, instrument, monkeypatch):
        # the library's default 20000 paths over 10^7 steps of 1e-3
        monkeypatch.setattr(polydiff.pricing, "simulate_paths", self.refuse)
        path = instrument({"kind": "swaption", "x": [0.8], "expiry": 10000.0, "coupons": [[1.0, 10001.0]],
                           "dt": 0.001})
        start = time.perf_counter()
        r = run(["price", specs["cir"], path])
        assert time.perf_counter() - start < 2.0
        self.refused(r, self.swaption_message(20000, "1e+07", len(cir_pricing_model()[1].basis)))


class TestPrice:
    def test_bond_at_maturity_is_one(self, specs, instrument):
        path = instrument({"kind": "bond", "x": [0.8], "t": 1.2, "T": 1.2})
        r = run(["price", specs["cir"], path])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        check_report(doc, "price_report")
        assert doc["price"] == pytest.approx(1.0, abs=1e-12)

    def test_bond_matches_library(self, specs, instrument):
        path = instrument({"kind": "bond", "x": [0.8], "t": 0.0, "T": 2.0})
        r = run(["price", specs["cir"], path])
        assert r.exit_code == 0
        spec, pm = cir_pricing_model()
        # 17 significant digits round-trip, so equality is exact
        assert json.loads(r.output)["price"] == bond_price(pm, [0.8], 0.0, 2.0)

    def test_vswap_matches_library(self, specs, instrument):
        path = instrument({"kind": "vswap", "x": [0.8], "t": 0.0, "T": 1.0})
        r = run(["price", specs["cir"], path])
        assert r.exit_code == 0
        spec, pm = cir_pricing_model()
        assert json.loads(r.output)["price"] == variance_swap_rate(pm, [0.8], 0.0, 1.0)

    def test_swaption_deterministic_and_near_bond(self, specs, instrument):
        path = instrument({"kind": "swaption", "x": [0.8], "expiry": 0.5,
                           "coupons": [[1.0, 1.0]], "n_paths": 2000, "dt": 0.01})
        r1 = run(["--seed", 3, "price", specs["cir"], path])
        r2 = run(["--seed", 3, "price", specs["cir"], path])
        assert r1.exit_code == 0
        assert r1.output == r2.output
        doc = json.loads(r1.output)
        check_report(doc, "price_report")
        spec, pm = cir_pricing_model()
        # one positive coupon: the option is always exercised, so the tower
        # property collapses the price to the T=1 bond
        assert abs(doc["price"] - bond_price(pm, [0.8], 0.0, 1.0)) \
            < 5 * doc["standard_error"] + 1e-3

    def test_equity_option(self, specs, instrument):
        path = instrument({"kind": "equity_option", "x": [0.3, 0.7],
                           "constituent": 0, "T": 1.0, "K": 0.4, "horizon": 2.0,
                           "pricer": {"type": "lognormal", "spot": 1.0,
                                      "rate": 0.02, "vol": 0.3}})
        r = run(["--quiet", "price", specs["simplex_pricing"], path])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        check_report(doc, "price_report")
        assert doc["price"] > 0
        assert doc["diagnostics"]["cheb_degree"] == 6
        assert 0 < doc["diagnostics"]["fit_residual"] < 0.05

    def test_equity_option_requires_simplex(self, specs, instrument):
        path = instrument({"kind": "equity_option", "x": [0.8],
                           "constituent": 0, "T": 1.0, "K": 0.4, "horizon": 2.0,
                           "pricer": {"type": "lognormal", "spot": 1.0,
                                      "rate": 0.02, "vol": 0.3}})
        r = run(["price", specs["cir"], path])
        assert r.exit_code == 2

    def test_missing_pricing_block_exits_two(self, specs, instrument):
        path = instrument({"kind": "bond", "x": [0.3, 0.7], "t": 0.0, "T": 1.0})
        r = run(["price", specs["simplex_plain"], path])
        assert r.exit_code == 2
        assert "pricing" in r.stderr

    def test_wrong_state_dimension_exits_two(self, specs, instrument):
        path = instrument({"kind": "bond", "x": [0.8, 0.1], "t": 0.0, "T": 1.0})
        r = run(["price", specs["cir"], path])
        assert r.exit_code == 2

    def test_unknown_kind_exits_two(self, specs, instrument):
        path = instrument({"kind": "future", "x": [0.8], "t": 0.0, "T": 1.0})
        r = run(["price", specs["cir"], path])
        assert r.exit_code == 2

    def test_reversed_times_exit_one(self, specs, instrument):
        path = instrument({"kind": "bond", "x": [0.8], "t": 1.0, "T": 0.5})
        r = run(["price", specs["cir"], path])
        assert r.exit_code == 1

    def test_overflowing_swaption_prints_one_error_line(self, tmp_path, instrument):
        # p = 1e300 (1 + x) and coupons of 1e300 overflow the payoff vector
        doc = copy.deepcopy(CIR_DOC)
        doc["pricing"]["p"] = {"dim": 1, "terms": [{"e": [0], "c": 1e300}, {"e": [1], "c": 1e300}]}
        spec = tmp_path / "cir_huge.json"
        spec.write_text(json.dumps(doc))
        path = instrument({"kind": "swaption", "x": [0.8], "expiry": 0.5,
                           "coupons": [[1e300, 1.0], [1e300, 2.0]], "n_paths": 200, "dt": 0.01})
        # pytest records warnings rather than printing them; raised, they cannot hide
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = run(["price", spec, path])
        assert r.exit_code == 1
        assert r.stderr == "error: report.price: result inf is not a finite number\n"

    def test_omitted_fields_take_the_library_defaults(self, specs, instrument, monkeypatch):
        # the CLI passes an instrument field only when the file gives it
        seen = {}
        real_fit = polydiff.cli.fit_index_payoff

        def fit(*args, **kwargs):
            seen["fit"] = kwargs
            return real_fit(*args, **kwargs)

        def swaption(*args, **kwargs):
            seen["swaption"] = kwargs
            return 0.5, 0.01

        monkeypatch.setattr(polydiff.cli, "fit_index_payoff", fit)
        monkeypatch.setattr(polydiff.cli, "swaption_price_mc", swaption)
        path = instrument({"kind": "equity_option", "x": [0.3, 0.7], "constituent": 0, "T": 1.0, "K": 0.4,
                           "horizon": 2.0, "pricer": {"type": "lognormal", "spot": 1.0, "rate": 0.02, "vol": 0.3}})
        r = run(["--quiet", "price", specs["simplex_pricing"], path])
        assert r.exit_code == 0, r.stderr
        assert seen["fit"] == {}
        assert json.loads(r.output)["diagnostics"]["cheb_degree"] == 6
        path = instrument({"kind": "swaption", "x": [0.8], "expiry": 0.5, "coupons": [[1.0, 1.0]]})
        r = run(["price", specs["cir"], path])
        assert r.exit_code == 0, r.stderr
        assert seen["swaption"] == {"seed": 0}

    def test_swaption_needs_two_paths(self, specs, instrument):
        path = instrument({"kind": "swaption", "x": [0.8], "expiry": 0.5,
                           "coupons": [[1.0, 1.0], [1.0, 2.0]], "n_paths": 1, "dt": 0.01})
        r = run(["price", specs["cir"], path])
        assert r.exit_code == 2
        assert r.stderr == "error: $.n_paths: 1 is less than the minimum of 2\n"


class TestBasisDump:
    def test_monomial_listing(self, specs):
        r = run(["basis-dump", specs["cir"], "--degree", 3])
        assert r.exit_code == 0
        assert r.output == "0\n1\n2\n3\n"

    def test_simplex_listing_drops_last_coordinate(self, specs):
        r = run(["basis-dump", specs["simplex_plain"], "--degree", 2])
        assert r.exit_code == 0
        assert r.output == "0,0\n1,0\n2,0\n"

    def test_generator_matrix_golden(self, specs):
        r = run(["basis-dump", specs["jacobi"], "--degree", 3, "--generator"])
        assert r.exit_code == 0
        assert r.output == ("x0,x1,x2,x3\n"
                            "0,0.5,0,0\n"
                            "0,-1,2,0\n"
                            "0,0,-3,4.5\n"
                            "0,0,0,-6\n")

    def test_generator_must_descend_to_quotient(self, specs):
        r = run(["basis-dump", specs["raw_simplex"], "--degree", 2, "--generator"])
        assert r.exit_code == 1
        assert "manifold" in r.stderr

    def test_out_writes_csv(self, specs, tmp_path):
        target = tmp_path / "basis.csv"
        r = run(["--out", target, "basis-dump", specs["jacobi"], "--degree", 2])
        assert r.exit_code == 0
        assert target.read_text() == "0\n1\n2\n"


# valid instruments, each with the model it is priced on, and valid --poly
# documents: with DOCS, the seeds of the spec-file fuzzing
FUZZ_INSTRUMENTS = {
    "bond": ("cir", {"kind": "bond", "x": [0.8], "t": 0.0, "T": 1.0}),
    "vswap": ("cir", {"kind": "vswap", "x": [0.8], "t": 0.0, "T": 1.0}),
    "swaption": ("cir", {"kind": "swaption", "x": [0.8], "expiry": 0.5,
                         "coupons": [[1.0, 1.0], [-0.9, 2.0]], "n_paths": 64, "dt": 0.05}),
    "equity": ("simplex_pricing", {"kind": "equity_option", "x": [0.3, 0.7], "constituent": 0,
                                   "T": 1.0, "K": 0.4, "horizon": 2.0, "grid_size": 16,
                                   "cheb_degree": 4, "pricer": {"type": "lognormal", "spot": 1.0,
                                                                "rate": 0.02, "vol": 0.3}}),
    "equity_table": ("simplex_pricing", {"kind": "equity_option", "x": [0.3, 0.7], "constituent": 1,
                                         "T": 0.5, "K": 0.4, "horizon": 2.0,
                                         "pricer": {"type": "table", "strikes": [0.5, 1.0],
                                                    "prices": [0.5, 0.1]}}),
}
FUZZ_POLYS = [{"dim": 1, "terms": [{"e": [1], "c": 1.0}]},
              {"dim": 1, "terms": [{"e": [0], "c": 0.5}, {"e": [2], "c": -1.0}]}]


def _moments_args(spec_path, dim, poly=None):
    """A moments command at the point with every coordinate 1/dim, which lies
    in every state space of DOCS; the polynomial defaults to x1."""
    if poly is None:
        poly = {"dim": dim, "terms": [{"e": [1] + [0] * (dim - 1), "c": 1.0}]}
    return ["moments", spec_path, "--degree", 2, "--x", ",".join([str(1 / dim)] * dim),
            "--tau", 0.5, "--poly", json.dumps(poly)]


class TestIntegralFloatFields:
    """The schemas' integers include integral floats, as Draft 2020-12 says;
    each such field reads as its integer spelling."""

    FIELDS = {
        "dimension": ("simplex_plain", None, ("dimension",)),
        "state_space.m": ("cir", None, ("state_space", "m")),
        "state_space.n": ("cir", None, ("state_space", "n")),
        "n_paths": ("cir", "swaption", ("n_paths",)),
        "constituent": ("simplex_pricing", "equity", ("constituent",)),
        "grid_size": ("simplex_pricing", "equity", ("grid_size",)),
        "cheb_degree": ("simplex_pricing", "equity", ("cheb_degree",)),
    }

    @pytest.mark.parametrize("field", sorted(FIELDS))
    def test_reads_as_its_integer(self, field, tmp_path):
        model, instrument, (*parents, key) = self.FIELDS[field]
        doc = copy.deepcopy(DOCS[model] if instrument is None else FUZZ_INSTRUMENTS[instrument][1])
        node = doc
        for name in parents:
            node = node[name]
        assert isinstance(node[key], int)
        runs = []
        for spelling in (node[key], float(node[key])):
            node[key] = spelling
            path = tmp_path / f"{spelling!r}.json"
            path.write_text(json.dumps(doc))
            if instrument is None:
                commands = [["--samples", 16, "validate", path], _moments_args(path, DOCS[model]["dimension"])]
            else:
                spec = tmp_path / "model.json"
                spec.write_text(json.dumps(DOCS[model]))
                commands = [["--quiet", "price", spec, path]]
            runs.append([(r.exit_code, r.output, r.stderr, r.exception) for r in map(run, commands)])
        assert runs[0] == runs[1]
        assert all(code == 0 and exc is None for code, _, _, exc in runs[1])

    def test_polynomial_dim_in_a_model_file(self, tmp_path):
        runs = []
        for spelling in (int, float):
            doc = copy.deepcopy(FULL4_DOC)
            coefficients = doc["coefficients"]
            for poly in [*(entry for row in coefficients["a"] for entry in row), *coefficients["b"]]:
                poly["dim"] = spelling(poly["dim"])
            path = tmp_path / f"{spelling.__name__}.json"
            path.write_text(json.dumps(doc))
            commands = [["--samples", 16, "validate", path], _moments_args(path, 4)]
            runs.append([(r.exit_code, r.output, r.stderr, r.exception) for r in map(run, commands)])
        assert runs[0] == runs[1]
        assert all(code == 0 and exc is None for code, _, _, exc in runs[1])

    def test_polynomial_dim_in_poly(self, specs):
        runs = []
        for dim in (2, 2.0):
            poly = {"dim": dim, "terms": [{"e": [1, 1], "c": 1.0}]}
            r = run(_moments_args(specs["simplex_plain"], 2, poly))
            runs.append((r.exit_code, r.output, r.stderr, r.exception))
        assert runs[0] == runs[1]
        assert runs[1][0] == 0 and runs[1][3] is None


FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=60,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _check_contract(r, command):
    """Exit 0, 1 or 2, no exception but SystemExit, and a failure reported
    on exactly one ``error:`` line; validate's exit 1 is its verdict, with
    the report on stdout."""
    assert r.exit_code in (0, 1, 2), (command, r.output)
    assert r.exception is None or isinstance(r.exception, SystemExit), (command, repr(r.exception))
    if r.exit_code and not (command == "validate" and r.exit_code == 1 and not r.stderr):
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (command, r.stderr)


class TestSpecFileFuzz:
    """Mutated model files, instrument files and --poly documents keep the
    exit-code contract: never a traceback, one ``error:`` line."""

    @pytest.mark.parametrize("name", sorted(DOCS))
    @FUZZ
    @given(data=st.data())
    def test_model_files(self, name, data, tmp_path):
        doc = data.draw(json_mutants([DOCS[name]]))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        dim = DOCS[name]["dimension"]
        _check_contract(run(["--samples", 16, "validate", path]), "validate")
        _check_contract(run(_moments_args(path, dim)), "moments")
        _check_contract(run(["--samples", 16, "boundary", path]), "boundary")
        _check_contract(run(["basis-dump", path, "--degree", 3, "--generator"]), "basis-dump")
        _check_contract(run(["--out", tmp_path / "paths.csv", "simulate", path, "--x0", ",".join([str(1 / dim)] * dim),
                             "--paths", 4, "--dt", 0.25, "--t-end", 1]), "simulate")

    @pytest.mark.parametrize("name", sorted(FUZZ_INSTRUMENTS))
    @FUZZ
    @given(data=st.data())
    def test_instrument_files(self, name, data, specs, tmp_path):
        model, instrument = FUZZ_INSTRUMENTS[name]
        path = tmp_path / "instrument.json"
        path.write_text(json.dumps(data.draw(json_mutants([instrument]))))
        _check_contract(run(["price", specs[model], path]), "price")

    @FUZZ
    @given(poly=json_mutants(FUZZ_POLYS))
    def test_poly_documents(self, poly, specs):
        _check_contract(run(_moments_args(specs["cir"], 1, poly)), "moments")


# option values: any double, nan and the infinities included, or one of moderate size
NUMBERS = st.floats() | st.floats(-4.0, 4.0)
MAX_STEPS = 64  # with at most 16 paths in at most 4 dimensions: about 33 kB of path per example


@st.composite
def point_texts(draw, dim):
    """A --x value: the point every DOCS space holds, dim coordinates near it,
    any numbers of about that count, or free text."""
    near = st.floats(1.0 / dim - 0.05, 1.0 / dim + 0.05)
    coords = draw(st.just([1.0 / dim] * dim) | st.lists(near, min_size=dim, max_size=dim)
                  | st.lists(NUMBERS, max_size=dim + 1))
    return draw(st.just(",".join(map(repr, coords))) | st.text(max_size=8))


@st.composite
def step_grids(draw):
    """(--dt, --t-end): any numbers, except that a positive finite horizon
    spans at most MAX_STEPS positive finite steps, or more than the
    simulation cap of path-steps, which is refused before it runs."""
    dt = draw(NUMBERS | st.floats(1e-3, 0.1) | st.floats(1e6, 1e200))  # the last overflow some models
    if draw(st.booleans()):
        if draw(st.booleans()):
            return 5e-324, draw(st.floats(1.0, 1e300))  # t-end / dt is inf
        return dt, dt * draw(st.integers(_SIM_PATH_STEPS + 1, 4 * _SIM_PATH_STEPS))
    steps = draw(st.integers(1, MAX_STEPS))
    t_end = draw(st.just(steps * dt) | NUMBERS)
    if math.isfinite(dt) and dt > 0 and math.isfinite(t_end) and t_end > 0:
        t_end = min(t_end, MAX_STEPS * dt)
    return dt, t_end


@st.composite
def mc_checks(draw, tau):
    """(--mc-paths, --dt) at horizon tau: a few paths, or more paths than the
    path-step cap allows at any step count; a step that divides a positive
    tau, or any number, raised where needed so a few paths take at most
    MAX_STEPS steps."""
    paths = draw(st.integers(-1, 8) | st.integers(_MC_PATH_STEPS + 1, 4 * _MC_PATH_STEPS))
    if math.isfinite(tau) and tau > 0 and draw(st.booleans()):
        return paths, tau / draw(st.integers(1, MAX_STEPS))
    dt = draw(NUMBERS)
    if paths <= 8 and math.isfinite(dt) and dt > 0 and math.isfinite(tau):
        dt = max(dt, tau / MAX_STEPS)
    return paths, dt


class TestOptionFuzz:
    """Mutated numeric options keep the exit-code contract on every DOCS
    model: never a traceback, one ``error:`` line."""

    @settings(FUZZ, max_examples=120)  # about half of them over the cap
    @given(name=st.sampled_from(sorted(DOCS)), over_cap=st.booleans(), data=st.data())
    def test_moments(self, name, over_cap, data, specs, monkeypatch):
        dim = DOCS[name]["dimension"]
        # the payoff is x1, or x1^k with a basis just over the cap under a --degree that admits it:
        # refused before any basis is built.  None just under the cap: a dense generator on about
        # 5000 monomials is 200 MB
        k, degree = 1, data.draw(st.integers(-1, 5))
        if over_cap:
            m = parse_model_spec(DOCS[name]).statespace.basis_variables
            first = next(n for n in itertools.count(1) if math.comb(m + n, n) > _BASIS_SIZE)
            k = first + data.draw(st.integers(0, 2))
            degree = k + data.draw(st.integers(0, 2))
        # "--x=text" keeps free text that starts with "-" from reading as an option
        # --verify also runs the moment oracle, which ends past its step cap in one error: line
        # and, given --mc-paths, refuses a Monte Carlo check past its path-step cap
        verify = ["--verify"] if data.draw(st.booleans()) else []
        tau = data.draw(NUMBERS | st.floats(0.0, 2.0))  # the second keeps some Monte Carlo checks running
        mc_paths, dt = data.draw(mc_checks(tau))
        args = [*verify, "moments", specs[name], "--degree", degree,
                f"--x={data.draw(point_texts(dim))}", "--tau", tau,
                "--poly", json.dumps({"dim": dim, "terms": [{"e": [k] + [0] * (dim - 1), "c": 1.0}]}),
                "--mc-paths", mc_paths, "--dt", dt]
        if not over_cap:
            _check_contract(run(args), "moments")
            return
        with monkeypatch.context() as patch:
            patch.setattr(polydiff.cli, "monomial_basis", TestSizeCaps.refuse)
            patch.setattr(polydiff.generator, "monomial_basis", TestSizeCaps.refuse)
            r = run(args)
        _check_contract(r, "moments")
        # malformed input exits 2 first; past it, the cap is the only domain error left
        assert r.exit_code == 2 or (r.exit_code == 1 and "above the cap of" in r.stderr), r.stderr

    @settings(FUZZ, max_examples=150)
    @given(name=st.sampled_from(sorted(DOCS)), grid=step_grids(),
           paths=st.integers(1, 16) | st.integers(-1, 16) | st.integers(_SIM_ROWS + 1, 4 * _SIM_ROWS),
           stride=st.integers(1, 8) | st.integers(-1, 8), use_gzip=st.booleans())
    def test_simulate(self, name, grid, paths, stride, use_gzip, specs, tmp_path):
        dim = DOCS[name]["dimension"]
        dt, t_end = grid
        args = ["--out", tmp_path / "paths.csv", "simulate", specs[name], "--x0", ",".join([str(1 / dim)] * dim),
                "--dt", dt, "--t-end", t_end, "--paths", paths, "--store-stride", stride] + ["--gzip"] * use_gzip
        _check_contract(run(args), "simulate")

    @settings(FUZZ, max_examples=30)
    @given(name=st.sampled_from(sorted(DOCS)), command=st.sampled_from(["validate", "boundary"]),
           samples=st.integers(_SAMPLES + 1, _SAMPLES + 8) | st.integers(_SAMPLES + 1, 2**62))
    def test_samples_over_the_cap(self, name, command, samples, specs, monkeypatch):
        with monkeypatch.context() as patch:
            for check in ("validate_params", "check_necessary", "check_sufficient", "classify_boundary"):
                patch.setattr(polydiff.cli, check, TestSizeCaps.refuse)
            r = run(["--samples", samples, command, specs[name]])
        TestSizeCaps.refused(r, f"--samples: {samples} samples exceed the cap of {_SAMPLES}; use fewer samples")

    @settings(FUZZ, max_examples=20)
    @given(cheb=st.none() | st.integers(1, 6), over=st.integers(1, 8) | st.integers(1, 2**40))
    def test_grid_size_over_the_cap(self, cheb, over, specs, instrument, monkeypatch):
        # nodes x coefficients just over the cap; the default Chebyshev degree is the model's 6
        k = 7 if cheb is None else cheb + 1
        grid = _FIT_SIZE // k + over
        doc = {**TestMalformedInput.EQUITY, "grid_size": grid, **({} if cheb is None else {"cheb_degree": cheb})}
        with monkeypatch.context() as patch:
            patch.setattr(polydiff.cli, "fit_index_payoff", TestSizeCaps.refuse)
            r = run(["price", specs["simplex_pricing"], instrument(doc)])
        TestSizeCaps.refused(r, f"instrument.grid_size: {grid} nodes x {k} Chebyshev coefficients exceed the fit "
                                f"cap of {_FIT_SIZE}; use a smaller grid_size")
