"""``cli``: the ``polydiff`` commands, run in-process on files written ahead.

Every command gets its own seed-generated model file, so no (model,
degree) pair recurs and a process-wide cache that a real CLI process would
never see earns nothing.  The mix stresses spec loading and schema checks,
condition checks, large-N generator assembly (full space in R^4 and the
simplex in R^5, N = 126..495), path CSV serialization and report
formatting, plus the documented error exits (1 for a point outside the
state space, 2 for malformed JSON).
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os

import numpy as np

import reference as ref
import polydiff as pd
from common import Op, close, swaption_check
from models import (ball, box_product, cir, full_ou, interior_point, jacobi, linear_terms, simplex,
                    with_pricing)

ROOT_SPAN = "cli"

# Each op kind has an odd number of templates, so its median falls inside
# one template's cost class instead of between two.  The second-costliest
# class (simplex5 at degree 6) has two of the 21 templates, so p90 falls
# inside it, not on the edge between two classes.
TEMPLATES = (
    "validate:cir", "moments:full4:6:linear", "price:bond", "boundary:jacobi", "simulate:csv:jacobi",
    "moments:simplex5:5:mass", "price:vswap", "validate:simplex3", "error:outside",
    "moments:simplex5:6:linear", "price:equity", "simulate:gzip:jacobi", "boundary:prod2",
    "moments:simplex5:6:linear", "price:bond2", "validate:ball2", "simulate:csv:simplex3",
    "moments:full4:8:linear", "price:swaption", "boundary:simplex3", "error:malformed",
)

_FAMILIES = {"cir": cir, "jacobi": jacobi, "prod2": lambda rng: box_product(rng, 1, "prod2"),
             "simplex3": lambda rng: simplex(rng, 3, "simplex3"), "ball2": lambda rng: ball(rng, 2, "ball2")}

ALPHA = 0.0625


def _fmt(x) -> str:
    return ",".join(format(float(v), ".17g") for v in np.atleast_1d(x))


def invoke(args) -> tuple[int, str, str]:
    """Run ``polydiff <args>`` in this process; returns (exit code, stdout, stderr)."""
    from polydiff.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=[str(a) for a in args], prog_name="polydiff", standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, out.getvalue(), err.getvalue()


class Cli:
    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng([seed, 2])
        self.dir = workdir
        self._validators = None
        self._models = set()

    def _fresh(self, make, *args):
        """A model no earlier command of this run has read."""
        while True:
            case = make(self.rng, *args)
            key = json.dumps(case.doc, sort_keys=True)
            if key not in self._models:
                self._models.add(key)
                return case

    def _write(self, i: int, tag: str, doc) -> str:
        path = os.path.join(self.dir, f"{i}-{tag}.json")
        with open(path, "w") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        return path

    def op(self, i: int) -> Op:
        kind, *rest = TEMPLATES[i % len(TEMPLATES)].split(":")
        op = getattr(self, "_" + kind)(i, *rest)
        op.model = f"cli-{i}"  # every command reads a model of its own
        return op

    def warmup_ops(self) -> list[Op]:
        # one cheap command per code path; negative indices keep files apart
        return [self._validate(-1, "cir"), self._boundary(-2, "cir"), self._price(-3, "bond"),
                self._moments(-4, "full4", "2", "linear"), self._simulate(-5, "gzip", "jacobi", paths=8),
                self._error(-6, "malformed")]

    # -- checks ------------------------------------------------------------------

    def _report(self, out, code: int, defs: str):
        """Exit code and schema checks; returns (failure, parsed report)."""
        got, stdout, stderr = out
        if got != code:
            return f"exit {got}, expected {code}: {stderr.strip()[:200]}", None
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"report is not JSON: {exc}", None
        errors = list(self.validator(defs).iter_errors(report))
        if errors:
            return f"report fails {defs}: {errors[0].message}", None
        return None, report

    def validator(self, defs: str):
        if self._validators is None:
            import jsonschema
            from polydiff.specfile import load_schema

            schema = load_schema("reports.schema.json")
            self._validators = {
                key: jsonschema.Draft202012Validator({"$defs": schema["$defs"], **schema["$defs"][key]})
                for key in schema["$defs"]}
        return self._validators[defs]

    # -- templates ---------------------------------------------------------------

    def _validate(self, i, name) -> Op:
        case = self._fresh(_FAMILIES[name])
        args = ["validate", self._write(i, "model", case.doc)]

        def check(out):
            bad, rep = self._report(out, 0, "validate_report")
            return bad or (None if rep["verdict"] == "Valid" else f"validate {name}: {rep['verdict']}")

        return Op("validate", name, lambda: invoke(args), check)

    def _boundary(self, i, name) -> Op:
        case = self._fresh(_FAMILIES[name])
        args = ["boundary", self._write(i, "model", case.doc)]

        def check(out):
            bad, rep = self._report(out, 0, "boundary_report")
            if bad:
                return bad
            got = [e["verdict"] for e in rep["inequalities"]]
            return None if got == case.boundary else f"boundary {name}: {got}, expected {case.boundary}"

        return Op("boundary", name, lambda: invoke(args), check)

    def _moments(self, i, family, degree, query) -> Op:
        rng = self.rng
        d = 4 if family == "full4" else 5
        case = self._fresh(full_ou if family == "full4" else simplex, d)
        x = interior_point(rng, case)
        # one horizon for all: the expm's squaring count depends on tau
        tau = 0.5
        if query == "mass":
            # E[(x_1 + ... + x_d)^3] = 1 on the simplex.  Terms are listed by
            # ascending power of x_d: the grlex order of to_json_dict() makes
            # the package raise (known defect 3 in NOTES.md).
            p = sum((pd.Polynomial.variable(j, d) for j in range(d)), pd.Polynomial.zero(d)) ** 3
            poly = p.to_json_dict()
            poly["terms"].sort(key=lambda t: t["e"][-1])
            want = lambda: 1.0
        else:
            coef = [float(v) for v in rng.integers(-4, 5, d) / 4]
            poly = pd.Polynomial(d, linear_terms(d, 0.5, coef)).to_json_dict()
            want = lambda: ref.linear_expectation(case.drift, coef, 0.5, x, tau)
        args = ["moments", self._write(i, "model", case.doc), "--degree", degree, "--x", _fmt(x),
                "--tau", tau, "--poly", json.dumps(poly)]

        def check(out):
            bad, rep = self._report(out, 0, "moments_report")
            return bad or close(rep["value"], want(), f"moments {family} degree {degree}")

        return Op("moments", family, lambda: invoke(args), check)

    def _price(self, i, kind) -> Op:
        rng = self.rng
        if kind == "equity":
            return self._equity(i)
        if kind == "bond2":
            case = self._fresh(_FAMILIES["prod2"])
            coef, degree = [0.0, 1.0], 4
        else:
            case = self._fresh(cir)
            coef, degree = [1.0], 4
        x = interior_point(rng, case)
        if kind == "vswap":
            # spot variance p = 1/16 + x/2; VS = (1/T) int_0^T E p(X_s) ds
            doc = with_pricing(case.doc, {(0,): 0.0625, (1,): 0.5}, 0.0, degree)
            T = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
            inst = {"kind": "vswap", "x": x.tolist(), "t": 0.0, "T": T}
            want = lambda: 0.0625 + 0.5 * ref.first_moment_integral(case.drift, x, T)[0] / T
        elif kind == "swaption":
            return self._swaption(i, case, x)
        else:
            doc = with_pricing(case.doc, linear_terms(case.dim, 1.0, coef), ALPHA, degree)
            T = float(rng.choice([0.25, 0.5, 1.0, 2.0, 5.0]))
            inst = {"kind": "bond", "x": x.tolist(), "t": 0.0, "T": T}
            want = lambda: (np.exp(-ALPHA * T) * ref.linear_expectation(case.drift, coef, 1.0, x, T)
                            / (1.0 + float(np.dot(coef, x))))
        args = ["price", self._write(i, "model", doc), self._write(i, "inst", inst)]

        def check(out):
            bad, rep = self._report(out, 0, "price_report")
            return bad or close(rep["price"], want(), f"price {kind}")

        return Op("price", kind, lambda: invoke(args), check)

    def _swaption(self, i, case, x) -> Op:
        rng = self.rng
        expiry, dt = 0.25, 1 / 64
        c = float(rng.choice([0.0625, 0.125, 0.25]))
        coupons = [(-1.0, expiry), (c, expiry + 0.25), (1.0 + c, expiry + 0.5)]
        doc = with_pricing(case.doc, {(0,): 1.0, (1,): 1.0}, ALPHA, 4)
        inst = {"kind": "swaption", "x": x.tolist(), "expiry": expiry,
                "coupons": [list(cp) for cp in coupons], "n_paths": 256, "dt": dt}
        args = ["--seed", int(rng.integers(2**31)), "price", self._write(i, "model", doc),
                self._write(i, "inst", inst)]
        bounds = swaption_check(case, ALPHA, x, coupons, expiry, dt, n_paths=256)

        def check(out):
            bad, rep = self._report(out, 0, "price_report")
            return bad or bounds((rep["price"], rep["standard_error"]))

        return Op("price", "swaption", lambda: invoke(args), check, path_steps=256 * 16)

    def _equity(self, i) -> Op:
        """g(xi) = xi C(K/xi) is convex and at most xi C(K) (see the desk option)."""
        rng = self.rng
        case = self._fresh(simplex, 3)
        x = interior_point(rng, case)
        j = int(rng.integers(0, 3))
        T = float(rng.choice([0.25, 0.5, 0.75]))
        K = float(rng.choice([0.25, 0.375, 0.5]))
        spot, rate, vol = 1.0, 0.02, 0.25
        doc = with_pricing(case.doc, {(0, 0, 0): 1.0}, 0.0, 6)
        inst = {"kind": "equity_option", "x": x.tolist(), "constituent": j, "T": T, "K": K,
                "horizon": 1.0, "grid_size": 64, "cheb_degree": 6,
                "pricer": {"type": "lognormal", "spot": spot, "rate": rate, "vol": vol}}
        args = ["price", self._write(i, "model", doc), self._write(i, "inst", inst)]

        def check(out):
            bad, rep = self._report(out, 0, "price_report")
            if bad:
                return bad
            residual = rep["diagnostics"]["fit_residual"]
            xi = ref.index_weight_mean(case.drift, x, T, 1.0, j)
            lo = xi * ref.lognormal_call(spot, rate, vol, T, K / xi)
            hi = xi * ref.lognormal_call(spot, rate, vol, T, K)
            tol = 2.0 * residual + 1e-9
            if residual <= 0.05 and lo - tol <= rep["price"] <= hi + tol:
                return None
            return f"equity option: {rep['price']!r} outside [{lo!r}, {hi!r}] +- {tol!r}"

        return Op("price", "equity", lambda: invoke(args), check)

    def _simulate(self, i, mode, family, paths: int = 128) -> Op:
        rng = self.rng
        case = self._fresh(_FAMILIES[family])
        x0 = interior_point(rng, case)
        dt, T = 1 / 64, 1.0
        csv = os.path.join(self.dir, f"{i}-paths.csv" + (".gz" if mode == "gzip" else ""))
        args = ["--out", csv, "--seed", int(rng.integers(2**31)), "simulate",
                self._write(i, "model", case.doc), "--x0", _fmt(x0), "--paths", paths,
                "--dt", dt, "--T", T] + (["--gzip"] if mode == "gzip" else [])
        steps = int(round(T / dt))

        def check(out):
            bad, rep = self._report(out, 0, "simulate_summary")
            if bad:
                return bad
            opener = gzip.open if mode == "gzip" else open
            with opener(csv, "rt") as fh:
                lines = fh.read().splitlines()
            header = "path_id,step,t," + ",".join(f"x_{k + 1}" for k in range(case.dim))
            if lines[0] != header or len(lines) != 1 + paths * (steps + 1):
                return f"simulate {mode}: header {lines[0]!r}, {len(lines)} lines"
            if len(rep["boundary_stats"]) != len(case.boundary):
                return f"simulate {mode}: {len(rep['boundary_stats'])} boundary stats"
            return None

        return Op("simulate", mode, lambda: invoke(args), check, path_steps=paths * steps)

    def _error(self, i, mode) -> Op:
        if mode == "malformed":
            args, code = ["validate", self._write(i, "model", '{\n  "dimension": 1,\n  ,\n}')], 2
        else:
            case = self._fresh(cir)
            args = ["moments", self._write(i, "model", case.doc), "--degree", 4, "--x", "-0.5",
                    "--tau", 0.5, "--poly", '{"dim": 1, "terms": [{"e": [1], "c": 1.0}]}']
            code = 1

        def check(out):
            got, stdout, stderr = out
            if got != code or not stderr.startswith("error: ") or "Traceback" in stderr:
                return f"error path {mode}: exit {got}, stderr {stderr[:200]!r}"
            return None

        return Op("error", mode, lambda: invoke(args), check)

