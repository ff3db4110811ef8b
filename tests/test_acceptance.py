"""Acceptance gate: one test per release-blocking criterion.

Every test prints a single pass/fail line with its measured numbers (visible
with -s, and in the failure report otherwise), then asserts at the stated
tolerance.  Fixtures with free parameters (starting points, seeds,
mean-reversion slopes) are pinned here so the gate is deterministic.
"""

import json
import math
import time
import warnings

import numpy as np
from click.testing import CliRunner

from polydiff import (
    Polynomial,
    PricingModel,
    bond_price,
    boundary_hit_stats,
    classify_boundary,
    conditional_moment,
    generator_matrix,
    h_factor,
    mc_moment,
    moment_by_ode,
    monomial_basis,
    short_rate,
    simulate_paths,
    validate_params,
    variance_swap_rate,
)
from polydiff.cli import main
from polydiff.generator import matrix_exp
from polydiff.pricing import (
    LognormalIndexPricer,
    SimplexIndexModel,
    constituent_option_price,
    fit_index_payoff,
    index_weights,
)
from scipy.integrate import quad

from conftest import (
    MODEL_MATRIX,
    MATRIX_POINTS,
    cir_model,
    jacobi_model,
    ou_model,
    simplex_params,
    simplex_jacobi_model,
    unit_ball_model,
)
from test_conditions import (
    REJECTIONS,
    _cir_valid,
    _jacobi_valid,
    _quadric_valid,
    _simplex_valid,
)

SEED = 2026


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_01_moment_formula_agrees_with_ode_oracle():
    # six-model matrix, every basis monomial up to degree 6, three horizons
    t0 = time.perf_counter()
    worst = 0.0
    for name, make in MODEL_MATRIX.items():
        model, space = make()
        x = MATRIX_POINTS[name]
        for mono in monomial_basis(space, 6).monomials:
            p = Polynomial.monomial(mono)
            for tau in (0.1, 1.0, 2.0):
                closed = conditional_moment(model, space, 6, p, x, tau)
                ode = moment_by_ode(model, space, 6, p, x, tau)
                worst = max(worst, abs(closed - ode))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-7 and elapsed < 30.0,
           f"worst |closed - ode| {worst:.3e} (tol 1e-07), {elapsed:.1f}s (< 30s)")


def test_02_monte_carlo_matches_first_four_moments():
    model, space = jacobi_model()
    x0, T, dt = [0.2], 1.0, 1e-3
    t0 = time.perf_counter()
    ps = simulate_paths(model, space, x0, T, dt, 100_000, SEED,
                        store_stride=round(T / dt))
    zs = []
    for k in range(1, 5):
        p = Polynomial.monomial((k,))
        est, se = mc_moment(ps, p, T)
        exact = conditional_moment(model, space, 4, p, x0, T)
        zs.append(abs(est - exact) / se)
    elapsed = time.perf_counter() - t0
    report(2, max(zs) <= 3.0 and elapsed < 60.0,
           f"moment errors {['%.2f' % z for z in zs]} SE (<= 3), {elapsed:.1f}s (< 60s)")


def test_03_square_root_boundary_trichotomy():
    checks = []
    for b0, expected in ((0.3, "Attain"), (0.5, "NonAttainCritical"),
                         (0.6, "NonAttainStrict")):
        model, space = cir_model(b0, -0.25)
        verdict = classify_boundary(model, space, space.inequalities[0]).verdict
        checks.append(verdict == expected)
    # empirical companions: a sub-critical drift must visibly hit zero, a
    # super-critical one started at its stationary mean must never get close
    fractions = []
    for b0, x0, threshold in ((0.25, 2.0, 1e-6), (1.0, 4.0, 1e-9)):
        model, space = cir_model(b0, -0.25)
        ps = simulate_paths(model, space, [x0], 2.0, 1e-4, 10_000, SEED,
                            store_stride=2000)
        st = boundary_hit_stats(ps, space, space.inequalities[0], threshold)
        fractions.append(st["hit_fraction"])
    checks += [fractions[0] > 0.01, fractions[1] == 0.0]
    report(3, all(checks),
           f"verdicts {'exact' if all(checks[:3]) else 'WRONG'}, "
           f"hit fractions {fractions[0]:.3f} (> 0.01) / {fractions[1]:.3f} (= 0)")


def test_04_validator_fixtures_and_rejections():
    valid_ok = []
    for make in (_quadric_valid, _cir_valid, _jacobi_valid, _simplex_valid):
        space, params = make()
        valid_ok.append(validate_params(space, params).verdict == "Valid")
    rejected = []
    for cond_id, space, make in REJECTIONS:
        rep = validate_params(space, make())
        rejected.append(rep.verdict == "Invalid" and cond_id in rep.failed_ids())
    report(4, all(valid_ok) and all(rejected) and len(REJECTIONS) >= 8,
           f"{sum(valid_ok)}/4 valid fixtures accepted, "
           f"{sum(rejected)}/{len(REJECTIONS)} perturbations rejected with correct ids")


def test_05_gradient_certificates_are_coefficient_exact():
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    cases = []

    model, space = cir_model(sigma2=1.7)
    cases.append(h_factor(model, space, space.inequalities[0])
                 == [Polynomial.constant(1, 1.7)])

    model, space = unit_ball_model()
    cases.append(h_factor(model, space, space.inequalities[0])
                 == [-2.0 * x1, -2.0 * x2])

    model, space = simplex_jacobi_model()
    cases.append(h_factor(model, space, space.inequalities[0]) == [x2, -1.0 * x2])

    report(5, all(cases), f"{sum(cases)}/3 h certificates reproduced exactly")


def test_06_semigroup_and_mass_conservation():
    worst_semi, worst_mass = 0.0, 0.0
    for name, make in MODEL_MATRIX.items():
        model, space = make()
        gm = generator_matrix(model, monomial_basis(space, 6))
        for s, t in ((0.1, 0.5), (0.5, 1.5), (1.0, 1.0)):
            gap = np.linalg.norm(
                gm.propagator(s + t) - gm.propagator(s) @ gm.propagator(t), 2)
            worst_semi = max(worst_semi, gap)
        one = Polynomial.one(space.dim)
        for tau in (0.1, 1.0, 2.0):
            m = conditional_moment(model, space, 6, one, MATRIX_POINTS[name], tau)
            worst_mass = max(worst_mass, abs(m - 1.0))
    report(6, worst_semi <= 1e-8 and worst_mass <= 1e-12,
           f"semigroup gap {worst_semi:.3e} (tol 1e-08), "
           f"moment of 1 off by {worst_mass:.3e} (tol 1e-12)")


def test_07_pricing_identities():
    checks = []

    model, space = jacobi_model()
    pm = PricingModel(model, space, degree=5,
                      p=Polynomial.one(1) + Polynomial.variable(0, 1), alpha=0.05)
    worst = max(abs(bond_price(pm, [x], t, t) - 1.0)
                for x in (0.2, 0.6) for t in (0.0, 1.5))
    checks.append(("P(t,t)-1", worst, 1e-12))

    # centered difference of -log P; the tau = -h leg extends the curve
    # through the propagator
    h = 1e-5

    def neg_log_p(x, tau):
        H = pm.basis.evaluate(np.asarray(x, dtype=float))
        value = math.exp(-pm.alpha * tau) * float(H @ pm.gm.propagator(tau) @ pm.pvec)
        return -math.log(value / float(H @ pm.pvec))

    worst = max(abs(short_rate(pm, [x]) -
                    (neg_log_p([x], h) - neg_log_p([x], -h)) / (2.0 * h))
                for x in (0.2, 0.6))
    checks.append(("short rate vs FD", worst, 1e-6))

    model, space = ou_model()
    vpm = PricingModel(model, space, degree=6,
                       p=Polynomial.constant(1, 0.1) + Polynomial.monomial((2,)))
    x = [0.4]
    worst = 0.0
    for tau in (0.5, 2.0):
        def integrand(s):
            return conditional_moment(vpm.model, vpm.statespace, vpm.degree,
                                      vpm.p, x, s)
        want, _ = quad(integrand, 0.0, tau, limit=200, epsabs=1e-12, epsrel=1e-12)
        worst = max(worst, abs(variance_swap_rate(vpm, x, 0.0, tau) - want / tau))
    checks.append(("vswap vs quadrature", worst, 1e-8))

    sim = SimplexIndexModel(params=simplex_params(), T_star=2.0, degree=6,
                            pricer=LognormalIndexPricer(1.0, 0.02, 0.3))
    grid = np.linspace(0.0, 1.0, 1000)
    worst = max(abs(index_weights(sim, [g, 1.0 - g], t).sum() - 1.0)
                for t in (0.0, 0.7, 2.0) for g in grid)
    checks.append(("index weight sum", worst, 1e-10))

    x0, T, K, i = np.array([0.3, 0.7]), 1.0, 0.4, 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the degree-6 fit residual is known
        price = constituent_option_price(sim, None, i, T, K, x0)
        _, residual = fit_index_payoff(sim, None, i, T, K)
    ps = simulate_paths(sim.model, sim.statespace, x0, T, 1e-3, 15_000, SEED,
                        store_stride=1000)
    d = sim.dim
    M = np.zeros((d + 1, d + 1))
    M[:d, :d] = sim.params.B
    M[:d, d] = sim.params.beta
    E = matrix_exp((sim.T_star - T) * M)
    Y = E[:d, d] + ps.paths[:, -1, :] @ E[:d, :d].T
    payoff = Y[:, i] * sim.pricer(T, K / Y[:, i])
    mc, se = payoff.mean(), payoff.std(ddof=1) / math.sqrt(len(payoff))
    checks.append(("constituent option vs MC", abs(price - mc),
                   max(3.0 * se, residual)))

    ok = all(got <= tol for _, got, tol in checks)
    report(7, ok, "; ".join(f"{name} {got:.2e} (tol {tol:.0e})"
                            for name, got, tol in checks))


def test_08_simulation_is_bit_reproducible(tmp_path):
    doc = {
        "dimension": 1,
        "state_space": {"family": "box_orthant", "m": 1, "n": 0},
        "coefficients": {"kind": "family", "params": {
            "gamma": [1.0], "alpha": [], "phi": [], "psi": [],
            "pi": [], "beta": [0.5], "B": [[-1.0]]}},
    }
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps(doc))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.csv"
        r = CliRunner().invoke(main, ["--out", str(out), "--seed", "99",
                                      "simulate", str(spec), "--x0", "0.2",
                                      "--paths", "200", "--dt", "0.001",
                                      "--t-end", "0.2"])
        assert r.exit_code == 0
        outs.append(out.read_bytes())
    report(8, outs[0] == outs[1],
           f"two runs, {len(outs[0])} CSV bytes each, "
           f"{'identical' if outs[0] == outs[1] else 'DIFFERENT'}")
