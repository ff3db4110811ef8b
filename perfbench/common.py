"""Operations and output checks shared by the library workloads.

An :class:`Op` is one closed-loop request: ``fn`` runs it and returns what
the check needs, ``check`` runs after the timed loop and returns a failure
message or None.  Op kinds name the CLI command or the library call behind
it: moments, price, validate, boundary, simulate (plus error for the CLI's
documented failure paths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import polydiff as pd
import reference as ref
from models import Case, build, linear_terms

# Monte Carlo estimates must lie within this many standard errors of the
# closed form, plus the exactly computable bias of the unprojected Euler
# scheme at the simulated step size.  The standard error is the exact
# standard deviation over sqrt(paths), not the sample one: with 16 paths of
# a skewed law the sample value is too often far too small.
MC_SIGMAS = 6.0


@dataclass
class Op:
    kind: str
    model: str  # identity of the model the op runs on (for the reuse share)
    fn: Callable[[], object]
    check: Callable[[object], str | None]
    path_steps: int = 0


def close(value, expected, what: str, rtol: float = 1e-8, atol: float = 1e-10) -> str | None:
    if abs(value - expected) <= atol + rtol * abs(expected):
        return None
    return f"{what}: got {value!r}, closed form {expected!r}"


def within_se(value, se, expected, bias, what: str) -> str | None:
    if abs(value - expected) <= MC_SIGMAS * se + abs(bias) + 1e-12:
        return None
    return f"{what}: MC {value!r}, standard error {se!r}, closed form {expected!r} (Euler bias {bias!r})"


def linear_sd(case: Case, coef, x0, T: float) -> float:
    """Exact standard deviation of coef . X_T for the simulated models."""
    if case.scalar is not None:
        return abs(coef[0]) * ref.scalar_sd(case.scalar, float(x0[0]), T)
    if "x1" in case.extra:  # simplex in R^2: coef . x = coef_2 + (coef_1 - coef_2) x_1
        return abs(coef[0] - coef[1]) * ref.scalar_sd(case.extra["x1"], float(x0[0]), T)
    return ref.ball_linear_sd(*case.extra["ball"], coef, x0, T)


def validate_op(case: Case) -> Op:
    """The library calls behind ``polydiff validate``."""
    space, model, params = build(case)

    def fn():
        pr = pd.validate_params(space, params) if params is not None else None
        nec = pd.check_necessary(model, space, samples=1000)
        suf = pd.check_sufficient(model, space, samples=1000)
        pd.uniqueness_report(model, space)
        return (pr.verdict if pr else "Valid", nec.verdict, suf.verdict)

    def check(out):
        if out != ("Valid", "pass", "pass"):
            return f"validate {case.name}: {out}, model is admissible by construction"
        return None

    return Op("validate", case.name, fn, check)


def boundary_op(case: Case) -> Op:
    """The library calls behind ``polydiff boundary``."""
    space, model, _ = build(case)

    def fn():
        return [pd.classify_boundary(model, space, p, samples=1000).verdict
                for p in space.inequalities]

    def check(out):
        if out != case.boundary:
            return f"boundary {case.name}: {out}, expected {case.boundary}"
        return None

    return Op("boundary", case.name, fn, check)


def simulate_op(case: Case, x0, n_paths: int, steps: int, dt: float, seed: int) -> Op:
    """Endpoint-only simulation; checks the mean endpoint coordinate-wise."""
    space, model, _ = build(case)
    T = steps * dt

    def fn():
        ps = pd.simulate_paths(model, space, x0, T, dt, n_paths, seed, store_stride=steps)
        return ps.paths[:, -1, :].mean(axis=0)

    def check(mean):
        exact = ref.first_moment(case.drift, x0, T)
        bias = exact - ref.euler_first_moment(case.drift, x0, dt, steps)
        for i in range(case.dim):
            se = linear_sd(case, np.eye(case.dim)[i], x0, T) / math.sqrt(n_paths)
            bad = within_se(mean[i], se, exact[i], bias[i], f"simulate {case.name} E[x_{i + 1}]")
            if bad:
                return bad
        return None

    return Op("simulate", case.name, fn, check, path_steps=n_paths * steps)


def mc_moment_op(case: Case, x0, coef, const: float, n_paths: int, steps: int, dt: float,
                 seed: int) -> Op:
    """Simulate, then ``mc_moment`` of the linear polynomial const + coef . x."""
    space, model, _ = build(case)
    T = steps * dt
    p = pd.Polynomial(case.dim, linear_terms(case.dim, const, coef))

    def fn():
        ps = pd.simulate_paths(model, space, x0, T, dt, n_paths, seed, store_stride=steps)
        return pd.mc_moment(ps, p, T)

    def check(out):
        est, se_sample = out
        if not se_sample >= 0.0:
            return f"mc_moment {case.name}: standard error {se_sample!r}"
        exact = ref.linear_expectation(case.drift, coef, const, x0, T)
        euler = const + np.dot(coef, ref.euler_first_moment(case.drift, x0, dt, steps))
        se = linear_sd(case, coef, x0, T) / math.sqrt(n_paths)
        return within_se(est, se, exact, exact - euler, f"mc_moment {case.name}")

    return Op("moments", case.name, fn, check, path_steps=n_paths * steps)


def hit_stats_op(case: Case, x0, n_paths: int, steps: int, dt: float, seed: int,
                 threshold: float) -> Op:
    """Simulate, then ``boundary_hit_stats`` on every inequality."""
    space, model, _ = build(case)
    T = steps * dt

    def fn():
        ps = pd.simulate_paths(model, space, x0, T, dt, n_paths, seed, store_stride=steps)
        return [pd.boundary_hit_stats(ps, space, p, threshold) for p in space.inequalities]

    def check(out):
        for k, (p, st) in enumerate(zip(space.inequalities, out)):
            start = float(p(np.asarray(x0, dtype=float)))
            qs = [st[q] for q in ("min", "q05", "q25", "median", "q75", "max")]
            if not 0.0 <= st["hit_fraction"] <= 1.0:
                return f"hit stats {case.name}[{k}]: hit fraction {st['hit_fraction']}"
            if any(b < a for a, b in zip(qs, qs[1:])) or qs[0] < -1e-9 or qs[-1] > start + 1e-12:
                return (f"hit stats {case.name}[{k}]: running minima {qs} must be ordered "
                        f"and lie in [0, p(x0) = {start}]")
            if (qs[0] >= threshold) != (st["hit_fraction"] == 0.0):
                return f"hit stats {case.name}[{k}]: hit fraction disagrees with the minimum"
        return None

    return Op("boundary", case.name, fn, check, path_steps=n_paths * steps)


def swaption_check(case: Case, alpha: float, x0, coupons, expiry: float, dt: float, n_paths: int):
    """Bounds for a Monte Carlo swaption on a 1-d model priced with p = 1 + x.

    With V = sum_i c_i exp(-alpha T_i) E[p(X_{T_i}) | X_T], Jensen gives
    max(E V, 0) <= E V^+ <= sum_i |c_i| exp(-alpha T_i) E p(X_{T_i});
    both bounds are closed forms in the affine drift block.  V is affine in
    X_T, so sd(V^+) <= sqrt(E V^2) is exact too and sets the tolerance.
    """
    steps = int(round(expiry / dt))
    denom = 1.0 + float(x0[0])

    def leg(x_T, absolute):
        total = 0.0
        for c, Ti in coupons:
            # E[X_{T_i} | X_T] is affine in X_T, so the mean of X_T can be plugged in
            m = ref.first_moment(case.drift, x_T, Ti - expiry)[0]
            total += (abs(c) if absolute else c) * math.exp(-alpha * Ti) * (1.0 + m)
        return total / denom

    def check(out):
        price, se_sample = out
        mean_T = ref.first_moment(case.drift, x0, expiry)
        euler_T = ref.euler_first_moment(case.drift, x0, dt, steps)
        lo, hi = max(leg(mean_T, False), 0.0), leg(mean_T, True)
        bias = max(abs(leg(mean_T, False) - leg(euler_T, False)), abs(hi - leg(euler_T, True)))
        # V = P + Q X_T in state-price units
        P = leg(np.zeros(1), False) * denom
        Q = leg(np.ones(1), False) * denom - P
        m = ref.scalar_moments(case.scalar, 2, float(x0[0]), expiry)
        se = math.sqrt(max(P * P + 2 * P * Q * m[1] + Q * Q * m[2], 0.0) / n_paths) / denom
        slack = MC_SIGMAS * se + bias + 1e-12
        if not (lo - slack <= price <= hi + slack) or not se_sample >= 0.0:
            return f"swaption {case.name}: {price!r} (standard error {se_sample!r}) outside [{lo!r}, {hi!r}] +- {slack!r}"
        return None

    return check


def swaption_op(case: Case, pm, x0, coupons, expiry: float, n_paths: int, dt: float,
                seed: int) -> Op:
    """Monte Carlo swaption through ``swaption_price_mc``."""

    def fn():
        return pd.swaption_price_mc(pm, coupons, expiry, x0, n_paths=n_paths, seed=seed, dt=dt)

    return Op("price", case.name, fn, swaption_check(case, pm.alpha, x0, coupons, expiry, dt, n_paths),
              path_steps=n_paths * int(round(expiry / dt)))
