"""``desk``: one library user querying a few calibrated models many times.

The models are built once at set-up (1-3 dimensions, N <= 84), and the
stream cycles through a fixed sequence of query templates whose points,
horizons and monomials come from the seed.  Every moment and price query
rebuilds the basis and generator inside the package, so this is where a
(model, basis) cache or a cheaper small expm would show.  A small share
of validate, boundary and simulate calls on the same models keeps every
op kind measured.
"""

from __future__ import annotations

import numpy as np

import polydiff as pd
import reference as ref
from common import Op, boundary_op, close, simulate_op, validate_op
from models import ball, box_product, build, cir, interior_point, jacobi, linear_terms, ou, simplex

ROOT_SPAN = None

# basis degree per model: N = 11, 11, 9, 84, 45, 28
DEGREE = {"cir": 10, "jacobi": 10, "ou": 8, "prod3": 6, "simplex3": 8, "ball2": 6}

# Each op kind has an odd number of templates, so its median falls inside
# one template's cost class instead of between two.
TEMPLATES = (
    "cm:cir", "bond:cir", "cm:prod3", "jm:jacobi", "short:prod3", "cm:simplex3:linear",
    "validate:cir", "vswap:cir", "cm:ball2", "boundary:jacobi", "cm:ou", "jm:cir",
    "simulate:cir", "bond:prod3", "cm:jacobi", "validate:jacobi", "vswap:prod3", "short:cir",
    "boundary:cir", "cm:prod3", "option:simplex3", "simulate:jacobi", "jm:ou", "validate:ou",
    "cm:simplex3:mass", "boundary:prod3", "simulate:ball2",
)


class Desk:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 1])
        # The desk's calibrated models are the same for every seed: their
        # parameters set the generator's norm and with it the number of
        # squarings in each expm, so drawing them per seed would move every
        # latency by a seed-dependent step.  The seed draws the queries.
        rng = np.random.default_rng([0, 1])
        self.cases = {"cir": cir(rng), "jacobi": jacobi(rng), "ou": ou(rng),
                      "prod3": box_product(rng, 2, "prod3"), "simplex3": simplex(rng, 3, "simplex3"),
                      "ball2": ball(rng, 2, "ball2")}
        for c in self.cases.values():
            build(c)
        c, prod = self.cases["cir"], self.cases["prod3"]
        self.alpha = 0.0625
        # bonds and short rates discount with p = 1 + x (1 + x_2 + x_3 on prod3)
        self.pm = {"cir": _pricing(c, 6, 1.0, [1.0], self.alpha),
                   "prod3": _pricing(prod, 4, 1.0, [0.0, 1.0, 1.0], self.alpha)}
        # variance swaps take p as the spot variance
        self.vs = {"cir": _pricing(c, 4, 0.0625, [0.5]),
                   "prod3": _pricing(prod, 3, 0.0625, [0.25, 0.25, 0.0])}
        # a quoted call table wide enough that K / xi never leaves it
        strikes = np.geomspace(0.01, 1e7, 49)
        prices = [ref.lognormal_call(1.0, 0.02, 0.25, 0.5, k) for k in strikes]
        self.index = pd.SimplexIndexModel(build(self.cases["simplex3"])[2], 1.0, 6,
                                          pd.TabulatedIndexPricer(strikes, prices))
        self._residual = {}  # payoff fit residual per (constituent, T, K), for the checks

    def op(self, i: int) -> Op:
        kind, name, *variant = TEMPLATES[i % len(TEMPLATES)].split(":")
        return getattr(self, "_" + kind)(self.cases[name], *variant)

    def warmup_ops(self) -> list[Op]:
        return [self.op(i) for i in range(len(TEMPLATES))]

    # -- moments -------------------------------------------------------------

    def _cm(self, case, query="monomial") -> Op:
        rng, d, deg = self.rng, case.dim, DEGREE[case.name]
        space, model, _ = build(case)
        x = interior_point(rng, case)
        tau = float(rng.choice([0.125, 0.25, 0.5, 1.0, 2.0]))
        if case.scalar is not None or case.name == "prod3":
            e = [int(k) for k in rng.multinomial(int(rng.integers(1, deg + 1)), np.ones(d) / d)]
            p = pd.Polynomial.monomial(e)
            if case.scalar is not None:
                want = lambda: ref.scalar_moments(case.scalar, e[0], x[0], tau)[e[0]]
            else:
                want = lambda: ref.product_moment(case.extra["factors"], x, e, tau)
        elif query == "mass":
            k = int(rng.integers(1, deg + 1))
            p = sum((pd.Polynomial.variable(i, d) for i in range(d)), pd.Polynomial.zero(d)) ** k
            want = lambda: 1.0
        else:
            coef = [float(v) for v in rng.integers(-4, 5, d) / 4]
            p = pd.Polynomial(d, linear_terms(d, 0.5, coef))
            want = lambda: ref.linear_expectation(case.drift, coef, 0.5, x, tau)
        fn = lambda: pd.conditional_moment(model, space, deg, p, x, tau)
        return Op("moments", case.name, fn, lambda v: close(v, want(), f"moment {case.name} {p}"))

    def _jm(self, case) -> Op:
        rng, deg = self.rng, DEGREE[case.name]
        space, model, _ = build(case)
        x = interior_point(rng, case)
        times = sorted(float(t) for t in rng.choice([0.125, 0.25, 0.5, 1.0], 2, replace=False))
        k1 = int(rng.integers(1, deg))
        k2 = int(rng.integers(1, deg - k1 + 1))
        fn = lambda: pd.joint_moment(model, space, deg, x, times, [(k1,), (k2,)])
        want = lambda: ref.scalar_joint(case.scalar, x[0], times, [k1, k2])
        return Op("moments", case.name, fn,
                  lambda v: close(v, want(), f"joint moment {case.name} {times} {(k1, k2)}"))

    # -- prices ----------------------------------------------------------------

    def _bond(self, case) -> Op:
        rng = self.rng
        coef, _, pm = self.pm[case.name]
        x = interior_point(rng, case)
        t = float(rng.choice([0.0, 0.25]))
        T = t + float(rng.choice([0.25, 0.5, 1.0, 2.0, 5.0]))

        def want():
            px = 1.0 + float(np.dot(coef, x))
            return np.exp(-self.alpha * (T - t)) * ref.linear_expectation(case.drift, coef, 1.0, x, T - t) / px

        return Op("price", case.name, lambda: pd.bond_price(pm, x, t, T),
                  lambda v: close(v, want(), f"bond {case.name}"))

    def _short(self, case) -> Op:
        coef, _, pm = self.pm[case.name]
        x = interior_point(self.rng, case)

        def want():
            b0, B = case.drift
            return self.alpha - float(np.dot(coef, b0 + B @ x)) / (1.0 + float(np.dot(coef, x)))

        return Op("price", case.name, lambda: pd.short_rate(pm, x),
                  lambda v: close(v, want(), f"short rate {case.name}"))

    def _vswap(self, case) -> Op:
        rng = self.rng
        coef, const, pm = self.vs[case.name]
        x = interior_point(rng, case)
        t = 0.0
        T = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        want = lambda: const + float(np.dot(coef, ref.first_moment_integral(case.drift, x, T))) / T
        return Op("price", case.name, lambda: pd.variance_swap_rate(pm, x, t, T),
                  lambda v: close(v, want(), f"variance swap {case.name}"))

    def _option(self, case) -> Op:
        """Constituent option: g(xi) = xi C(K/xi) is convex and, as K/xi >= K,
        g <= xi C(K); so g(E xi) <= price <= C(K) E xi up to the fit residual."""
        rng, sim = self.rng, self.index
        x = interior_point(rng, case)
        i = int(rng.integers(0, case.dim))
        T = float(rng.choice([0.25, 0.5, 0.75]))
        K = float(rng.choice([0.25, 0.375, 0.5]))
        fn = lambda: pd.constituent_option_price(sim, None, i, T, K, x, grid_size=64, cheb_degree=6)

        def check(v):
            if (i, T, K) not in self._residual:
                self._residual[i, T, K] = pd.fit_index_payoff(sim, None, i, T, K, grid_size=64,
                                                             cheb_degree=6)[1]
            residual = self._residual[i, T, K]
            xi = ref.index_weight_mean(case.drift, x, T, sim.T_star, i)
            lo = xi * sim.pricer(T, K / xi)
            hi = sim.pricer(T, K) * xi
            tol = 2.0 * residual + 1e-9
            if lo - tol <= v <= hi + tol:
                return None
            return f"option {case.name}[{i}] T={T} K={K}: {v!r} outside [{lo!r}, {hi!r}] +- {tol!r}"

        return Op("price", case.name, fn, check)

    # -- validate, boundary, simulate ------------------------------------------

    def _validate(self, case) -> Op:
        return validate_op(case)

    def _boundary(self, case) -> Op:
        return boundary_op(case)

    def _simulate(self, case) -> Op:
        rng = self.rng
        return simulate_op(case, interior_point(rng, case), 128, 16, 1 / 64, int(rng.integers(2**31)))


def _pricing(case, degree: int, const: float, coef, alpha: float = 0.0):
    """(coef, const, PricingModel) with p = const + coef . x."""
    space, model, _ = build(case)
    p = pd.Polynomial(case.dim, linear_terms(case.dim, const, coef))
    return coef, const, pd.PricingModel(model, space, degree, p, alpha)
