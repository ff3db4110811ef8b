"""The single closed-form expectation path: point check, propagation step,
augmented exponential, and the manifold tangency test they rely on."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from polydiff import (
    LognormalIndexPricer,
    ModelCoefficients,
    NotPolynomialOnE,
    PointOutsideStateSpace,
    Polynomial,
    PricingModel,
    Simplex,
    SimplexIndexModel,
    SimplexParams,
    assemble_model,
    bond_price,
    check_sufficient,
    conditional_moment,
    constituent_option_price,
    fit_index_payoff,
    generator_matrix,
    index_weights,
    joint_moment,
    monomial_basis,
    price_cashflow,
    simulate_paths,
    swaption_payoff_vector,
    validate_params,
    variance_swap_rate,
)
from polydiff.generator import check_point, manifold_defects

from conftest import (
    augmented_exp,
    jacobi_model,
    oracle_a_grad,
    oracle_apply_generator,
    oracle_reduce,
    ou_model,
    simplex_params,
)
from test_generator import FAMILY_MODELS, full_ou4, non_dyadic_model


@pytest.fixture(scope="module")
def jacobi_pm():
    model, space = jacobi_model()
    return PricingModel(model, space, degree=5, p=Polynomial.one(1) + Polynomial.variable(0, 1),
                        alpha=0.05)


@pytest.fixture(scope="module")
def index_model():
    return SimplexIndexModel(params=simplex_params(), T_star=2.0, degree=6,
                             pricer=LognormalIndexPricer(spot=1.0, rate=0.02, vol=0.3))


def _calls(jacobi_pm, index_model):
    model, space = jacobi_model()
    x_one = Polynomial.variable(0, 1)
    return {
        "conditional_moment": lambda x: conditional_moment(model, space, 3, x_one, x, 0.5),
        "joint_moment": lambda x: joint_moment(model, space, 3, x, [0.5], [(1,)]),
        "bond_price": lambda x: bond_price(jacobi_pm, x, 0.0, 1.0),
        "constituent_option_price": lambda x: constituent_option_price(
            index_model, None, 0, 1.0, 1.0, x, cheb_degree=6, residual_warn=1.0),
        "simulate_paths": lambda x: simulate_paths(model, space, x, 0.1, 0.05, 4, 0),
    }


class TestPointCheck:
    CALLS = ["conditional_moment", "joint_moment", "bond_price", "constituent_option_price",
             "simulate_paths"]

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("kind", ["nan", "inf", "wrong_shape"])
    def test_bad_point_raises(self, name, kind, jacobi_pm, index_model):
        call = _calls(jacobi_pm, index_model)[name]
        dim = 2 if name == "constituent_option_price" else 1
        x = {"nan": [math.nan] * dim, "inf": [math.inf] * dim,
             "wrong_shape": [0.25] * (dim + 1)}[kind]
        expected = ValueError if kind == "wrong_shape" else PointOutsideStateSpace
        with pytest.raises(expected):
            call(x)

    def test_nan_on_full_space_is_rejected(self):
        model, space = ou_model()
        with pytest.raises(PointOutsideStateSpace):
            conditional_moment(model, space, 2, Polynomial.variable(0, 1), [math.nan], 1.0)

    def test_accepted_point_is_a_float_vector(self):
        x = check_point(Simplex(3), [0.2, 0.3, 0.5])
        assert x.dtype == float and x.shape == (3,)


class TestPropagationStep:
    def test_expectation_is_h_expm_v(self):
        model, space = jacobi_model()
        gm = generator_matrix(model, monomial_basis(space, 4))
        v = np.array([0.3, -1.0, 2.0, 0.5, 0.25])
        want = float(gm.basis.evaluate([0.2]) @ expm(0.9 * gm.matrix) @ v)
        assert gm.expectation(gm.basis.evaluate([0.2]), 0.9, v) == pytest.approx(want, rel=1e-14)


def dense_expectation(gm, x, tau, v):
    """The full-size route: H(x)' expm(tau G) v with the dense exponential of all of G."""
    return float(gm.basis.evaluate(x) @ gm.propagator(tau) @ v)


def dense_joint_moment(model, space, degree, x, times, exponents):
    basis = monomial_basis(space, degree)
    gm = generator_matrix(model, basis)
    monomial = lambda e: Polynomial.monomial(e, dim=space.dim)
    v = basis.coordinates(monomial(exponents[-1]))
    for k in range(len(times) - 1, 0, -1):
        v = gm.propagator(times[k] - times[k - 1]) @ v
        v = basis.coordinates(basis.polynomial(v) * monomial(exponents[k - 1]))
    return dense_expectation(gm, x, times[0], v)


ORACLE_MODELS = {**FAMILY_MODELS, "full_ou4": full_ou4}


def oracle_case(name):
    model, space = ORACLE_MODELS[name]()
    return model, space, space.interior_samples(3)[1]


class TestDenseOracle:
    """Every trimmed caller against the dense exponential of the whole
    degree-5 basis."""

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_conditional_moment(self, name):
        model, space, x = oracle_case(name)
        d = space.dim
        gm = generator_matrix(model, monomial_basis(space, 5))
        base = Polynomial.one(d) + 0.5 * Polynomial.variable(0, d) - 0.25 * Polynomial.variable(d - 1, d)
        for k in range(4):
            p = base ** k
            for tau in (0.3, 1.1):
                want = dense_expectation(gm, x, tau, gm.basis.coordinates(p))
                assert conditional_moment(model, space, 5, p, x, tau) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_joint_moment(self, name):
        model, space, x = oracle_case(name)
        d = space.dim
        first, last = (1,) + (0,) * (d - 1), (0,) * (d - 1) + (1,)
        for times, exps in (([0.4, 0.9], [first, last]), ([0.2, 0.5, 1.0], [first, first, last])):
            want = dense_joint_moment(model, space, 5, x, times, exps)
            assert joint_moment(model, space, 5, x, times, exps) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_pricing(self, name):
        model, space, x = oracle_case(name)
        d = space.dim
        pm = PricingModel(model, space, degree=5, p=Polynomial.one(d) + Polynomial.variable(0, d) ** 2,
                          alpha=0.05)
        H = pm.basis.evaluate(x)
        denom = float(H @ pm.pvec)
        q = Polynomial.variable(0, d) + Polynomial.constant(d, 2.0)
        for T in (0.5, 2.0):
            want = math.exp(-0.05 * T) * dense_expectation(pm.gm, x, T, pm.basis.coordinates(pm.p)) / denom
            assert bond_price(pm, x, 0.0, T) == pytest.approx(want, rel=1e-12)
            want = (math.exp(-0.05 * (T - 0.25))
                    * dense_expectation(pm.gm, x, T - 0.25, pm.basis.coordinates(pm.p * q)) / denom)
            assert price_cashflow(pm, q, x, 0.25, T) == pytest.approx(want, rel=1e-12)
            _, integral = augmented_exp(pm.gm.matrix, pm.pvec, T)
            assert variance_swap_rate(pm, x, 0.0, T) == pytest.approx(float(H @ integral) / T, rel=1e-12)
        coupons = [(0.5, 1.0), (-1.0, 1.5), (1.5, 2.5)]
        want = sum(c * math.exp(-0.05 * T_i) * (pm.gm.propagator(T_i - 0.75) @ pm.pvec) for c, T_i in coupons)
        got = swaption_payoff_vector(pm, coupons, 0.75)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("cheb_degree", [2, 4, 6])
    def test_constituent_option_price(self, index_model, cheb_degree):
        x0 = np.array([0.35, 0.65])
        payoff, _ = fit_index_payoff(index_model, None, 1, 1.0, 0.6, cheb_degree=cheb_degree)
        want = dense_expectation(index_model.gm, x0, 1.0, index_model.basis.coordinates(payoff))
        got = constituent_option_price(index_model, None, 1, 1.0, 0.6, x0, cheb_degree=cheb_degree,
                                       residual_warn=1.0)
        assert got == pytest.approx(want, rel=1e-12)


class TestAugmentedExp:
    def test_matches_blocks_and_quadrature(self):
        A = np.array([[-1.0, 0.4], [0.2, -0.7]])
        c = np.array([0.3, -0.5])
        tau = 1.7
        E, phi = augmented_exp(A, c, tau)
        assert np.allclose(E, expm(tau * A), rtol=1e-14, atol=1e-15)
        for i in range(2):
            want, _ = quad(lambda s: (expm(s * A) @ c)[i], 0.0, tau, epsabs=1e-14, epsrel=1e-13)
            assert phi[i] == pytest.approx(want, rel=1e-11)

    def test_variance_swap_matches_the_2n_block(self):
        # the (N+1) block and the old 2N block expm(tau [[G, I], [0, 0]]) agree
        # up to rounding
        model, space = ou_model()
        v = Polynomial.constant(1, 0.1) + Polynomial.monomial((2,))
        pm = PricingModel(model, space, degree=6, p=v)
        n = len(pm.basis)
        for tau in (0.5, 2.0, 5.0):
            M = np.zeros((2 * n, 2 * n))
            M[:n, :n] = pm.gm.matrix
            M[:n, n:] = np.eye(n)
            J = expm(tau * M)[:n, n:]
            want = float(pm.basis.evaluate([0.4]) @ J @ pm.pvec) / tau
            assert variance_swap_rate(pm, [0.4], 0.0, tau) == pytest.approx(want, rel=1e-14)

    def test_index_weights_are_the_mean_of_the_state(self, index_model):
        # E[X_T | X_t = x] solves the affine drift ODE: the (d+1) block of (B, beta), not G
        x = np.array([0.35, 0.65])
        params = index_model.params
        for t in (0.0, 0.8):
            Y = index_weights(index_model, x, t)
            E, phi = augmented_exp(params.B, params.beta, 2.0 - t)
            assert Y == pytest.approx(E @ x + phi, rel=1e-12)


def rounding_simplex(d=4):
    # drift tangent to the mass constraint only up to rounding: 3 * (1/6) != 0.5
    off = np.ones((d, d)) - np.eye(d)
    return SimplexParams(alpha=off / 8, beta=np.full(d, 0.25), B=off / 6 - 1.5 * np.eye(d))


def oracle_defects(model, space):
    """manifold_defects by Polynomial arithmetic: the reduced G q and the first
    reduced (a grad q)_i with a coefficient above 1e-12 (1 + largest model
    coefficient), per equality q."""
    coefs = [abs(c) for p in model.b + tuple(c for row in model.a for c in row) for c in p.terms.values()]
    tol = 1e-12 * (1.0 + max(coefs, default=0.0))

    def defect(r):
        return max((abs(c) for c in r.terms.values()), default=0.0) > tol

    out = []
    for q in space.equalities:
        gq = oracle_reduce(space, oracle_apply_generator(model, q))
        reduced = [(i, oracle_reduce(space, c)) for i, c in enumerate(oracle_a_grad(model, q))]
        out.append((q, gq if defect(gq) else None, next(((i, r) for i, r in reduced if defect(r)), None)))
    return out


def tangency_cases():
    """rounding_simplex, its drifting variant, and the 18 non-dyadic simplex
    models with one drift and one diffusion perturbation each."""
    space = Simplex(4)
    params = rounding_simplex()
    cases = {"rounding": (assemble_model(space, params), space)}
    params.beta = params.beta + 1e-6
    cases["rounding_perturbed"] = (assemble_model(space, params), space)
    for seed in range(6):
        for scale in (1.0, 1e3, 1e-3):
            model, space = non_dyadic_model("simplex", seed, scale)
            bump = Polynomial.constant(model.dim, 1e-6 * scale)
            a = [list(row) for row in model.a]
            a[1][1] = a[1][1] + bump
            cases[f"simplex_{seed}_{scale:g}"] = (model, space)
            cases[f"simplex_{seed}_{scale:g}_drift"] = (ModelCoefficients(model.a, (model.b[0] + bump,) + model.b[1:]),
                                                         space)
            cases[f"simplex_{seed}_{scale:g}_diffusion"] = (ModelCoefficients(a, model.b), space)
    return cases


TANGENCY_CASES = tangency_cases()


def verdicts(defects):
    return [(drift is None, None if diffusion is None else diffusion[0]) for _, drift, diffusion in defects]


class TestTangency:
    @pytest.mark.parametrize("name", sorted(TANGENCY_CASES))
    def test_verdicts_match_the_polynomial_route(self, name):
        model, space = TANGENCY_CASES[name]
        got, want = manifold_defects(model, space), oracle_defects(model, space)
        assert verdicts(got) == verdicts(want)
        # (drift vanishes, first diffusion component that does not)
        expected = {"perturbed": (False, None), "drift": (False, None), "diffusion": (True, 1)}
        assert verdicts(got) == [expected.get(name.rsplit("_", 1)[-1], (True, None))]
        q, drift, diffusion = want[0]
        if drift is None and diffusion is None:
            generator_matrix(model, monomial_basis(space, 3))
            return
        # the residual in the drift message may differ in rounding-level terms
        message = ("G q = .* does not vanish on the manifold " + re.escape(f"(q = {q})") if drift is not None
                   else re.escape(f"(a grad q)_{diffusion[0]} does not vanish on the manifold (q = {q})"))
        with pytest.raises(NotPolynomialOnE, match=message):
            generator_matrix(model, monomial_basis(space, 3))

    def test_rounding_level_drift_is_tangent_everywhere(self):
        params = rounding_simplex()
        space = Simplex(4)
        model = assemble_model(space, params)
        assert validate_params(space, params).verdict == "Valid"
        suf = {c.id: c.status for c in check_sufficient(model, space, samples=50).conditions}
        assert suf["sufficient.manifold_drift[0]"] == "pass"
        assert suf["sufficient.manifold_diffusion[0]"] == "pass"
        assert manifold_defects(model, space)[0][1:] == (None, None)
        x = np.full(4, 0.25)
        tau = 0.8
        got = conditional_moment(model, space, 2, Polynomial.variable(0, 4), x, tau)
        E, phi = augmented_exp(params.B, params.beta, tau)
        assert got == pytest.approx((E @ x + phi)[0], rel=1e-13)

    def test_real_defect_still_rejected(self):
        params = rounding_simplex()
        params.beta = params.beta + 1e-6  # mass drifts by 4e-6 per unit time
        space = Simplex(4)
        model = assemble_model(space, params)
        q, drift, diffusion = manifold_defects(model, space)[0]
        assert drift is not None and diffusion is None
        suf = {c.id: c.status for c in check_sufficient(model, space, samples=50).conditions}
        assert suf["sufficient.manifold_drift[0]"] == "fail"
        assert validate_params(space, params).verdict == "Invalid"
