"""Discounted cashflow pricing, variance swaps, and simplex index options."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.special import ndtr

from polydiff import (
    DegreeTooHigh,
    FullSpace,
    InvalidStatePriceDensity,
    LognormalIndexPricer,
    ModelCoefficients,
    PointOutsideStateSpace,
    Polynomial,
    PricingModel,
    SimplexIndexModel,
    TabulatedIndexPricer,
    bond_price,
    conditional_moment,
    constituent_option_price,
    fit_index_payoff,
    index_weights,
    mc_moment,
    price_cashflow,
    short_rate,
    simulate_paths,
    swaption_payoff_vector,
    swaption_price_mc,
    variance_swap_rate,
)
import polydiff.generator
import polydiff.pricing
from polydiff.pricing import _SWAPTION_PATHS, _SWAPTION_SIZE
from polydiff.statespace import SimplexParams

from conftest import cir_model, jacobi_model, ou_model, simplex_params


@pytest.fixture(scope="module")
def jacobi_pm():
    model, space = jacobi_model()
    p = Polynomial.one(1) + Polynomial.variable(0, 1)
    return PricingModel(model, space, degree=5, p=p, alpha=0.05)


@pytest.fixture(scope="module")
def ou_variance_pm():
    # spot variance v(x) = 0.1 + x^2, strictly positive
    model, space = ou_model()
    v = Polynomial.constant(1, 0.1) + Polynomial.monomial((2,))
    return PricingModel(model, space, degree=6, p=v)


class TestPricingModel:
    def test_negative_density_rejected(self):
        model, space = jacobi_model()
        p = Polynomial.variable(0, 1) - Polynomial.constant(1, 0.5)
        with pytest.raises(InvalidStatePriceDensity):
            PricingModel(model, space, degree=4, p=p)

    def test_density_touching_zero_flagged(self):
        model, space = jacobi_model()
        with pytest.warns(UserWarning, match="zero"):
            pm = PricingModel(model, space, degree=4, p=Polynomial.variable(0, 1))
        assert pm.positivity == "inconclusive"

    def test_positive_density_clean(self, jacobi_pm):
        assert jacobi_pm.positivity == "pass"

    def test_state_validation(self, jacobi_pm):
        with pytest.raises(PointOutsideStateSpace):
            bond_price(jacobi_pm, [1.4], 0.0, 1.0)
        with pytest.raises(ValueError):
            bond_price(jacobi_pm, [0.2, 0.3], 0.0, 1.0)


class TestBondsAndRates:
    def test_bond_at_maturity_is_one(self, jacobi_pm):
        for x in ([0.1], [0.5], [0.9]):
            assert abs(bond_price(jacobi_pm, x, 0.75, 0.75) - 1.0) < 1e-12

    def test_bond_is_unit_cashflow(self, jacobi_pm):
        a = bond_price(jacobi_pm, [0.3], 0.0, 2.0)
        b = price_cashflow(jacobi_pm, Polynomial.one(1), [0.3], 0.0, 2.0)
        assert a == b  # bit-identical by construction

    def test_bond_depends_on_tenor_only(self, jacobi_pm):
        assert bond_price(jacobi_pm, [0.3], 0.0, 1.0) == pytest.approx(
            bond_price(jacobi_pm, [0.3], 2.0, 3.0), rel=1e-14)

    def test_bond_positive(self, jacobi_pm):
        for T in (0.1, 1.0, 5.0):
            assert bond_price(jacobi_pm, [0.4], 0.0, T) > 0.0

    def test_short_rate_differentiates_the_curve(self, jacobi_pm):
        # r = -d/dtau log P at tau = 0, by a centered difference; the tau = -h
        # leg extends the curve through the propagator
        pm, h = jacobi_pm, 1e-5

        def neg_log_p(x, tau):
            H = pm.basis.evaluate(np.asarray(x, dtype=float))
            value = math.exp(-pm.alpha * tau) * float(H @ pm.gm.propagator(tau) @ pm.pvec)
            return -math.log(value / float(H @ pm.pvec))

        for x in ([0.2], [0.6]):
            fd = (neg_log_p(x, h) - neg_log_p(x, -h)) / (2.0 * h)
            assert abs(short_rate(pm, x) - fd) < 1e-6

    def test_reversed_times_rejected(self, jacobi_pm):
        with pytest.raises(ValueError):
            price_cashflow(jacobi_pm, Polynomial.one(1), [0.3], 1.0, 0.5)

    def test_degree_overflow_rejected(self, jacobi_pm):
        q = Polynomial.monomial((5,))
        with pytest.raises(DegreeTooHigh):
            price_cashflow(jacobi_pm, q, [0.3], 0.0, 1.0)


class TestCashflowOracle:
    def test_matches_moment_transform(self, jacobi_pm):
        q = Polynomial.variable(0, 1)
        x, tau = [0.3], 1.25
        want = (math.exp(-jacobi_pm.alpha * tau)
                * conditional_moment(jacobi_pm.model, jacobi_pm.statespace, 5,
                                     jacobi_pm.p * q, x, tau)
                / jacobi_pm.p(x))
        assert price_cashflow(jacobi_pm, q, x, 0.0, tau) == pytest.approx(want, rel=1e-13)

    def test_matches_monte_carlo(self, jacobi_pm):
        q = Polynomial.variable(0, 1)
        x, tau = [0.3], 1.0
        got = price_cashflow(jacobi_pm, q, x, 0.0, tau)
        ps = simulate_paths(jacobi_pm.model, jacobi_pm.statespace, x, tau, 1e-3,
                            20_000, seed=42, store_stride=1000)
        mean, se = mc_moment(ps, jacobi_pm.p * q, tau)
        mc = math.exp(-jacobi_pm.alpha * tau) * mean / jacobi_pm.p(np.asarray(x))
        assert abs(got - mc) < 4.0 * se + 1e-3


class TestVarianceSwap:
    def test_matches_quadrature(self, ou_variance_pm):
        pm = ou_variance_pm
        x = [0.4]
        for tau in (0.5, 2.0, 5.0):
            rate = variance_swap_rate(pm, x, 0.0, tau)

            def integrand(s):
                return conditional_moment(pm.model, pm.statespace, pm.degree, pm.p, x, s)

            want, err = quad(integrand, 0.0, tau, limit=200, epsabs=1e-12, epsrel=1e-12)
            assert abs(rate - want / tau) < 1e-8

    def test_short_horizon_limit(self, ou_variance_pm):
        pm = ou_variance_pm
        x = [0.4]
        assert abs(variance_swap_rate(pm, x, 0.0, 1e-8) - pm.p(np.asarray(x))) < 1e-7

    def test_frozen_model_returns_spot(self):
        space = FullSpace(1)
        zero = Polynomial.zero(1)
        model = ModelCoefficients([[zero]], [zero])
        v = Polynomial.constant(1, 0.2) + Polynomial.monomial((2,))
        pm = PricingModel(model, space, degree=4, p=v)
        for tau in (0.5, 3.0):
            assert variance_swap_rate(pm, [0.7], 0.0, tau) == pytest.approx(v([0.7]), rel=1e-12)

    def test_degenerate_window_rejected(self, ou_variance_pm):
        with pytest.raises(ValueError):
            variance_swap_rate(ou_variance_pm, [0.4], 1.0, 1.0)

    def test_linear_variance_exponentiates_one_three_by_three_block(self, monkeypatch):
        # CIR dX = (0.5 - 0.5 X) dt + sqrt(X) dW: E[X_s] = 1 + (x - 1) exp(-s / 2), and p = x
        # spans the constants and x, so only their Van Loan block [[G_2, p_2], [0, 0]] is formed
        model, space = cir_model()
        with pytest.warns(UserWarning, match="within 0 of zero"):
            pm = PricingModel(model, space, degree=4, p=Polynomial.variable(0, 1))
        shapes = []
        inner = polydiff.generator.matrix_exp

        def recorded(A):
            shapes.append(np.shape(A))
            return inner(A)

        monkeypatch.setattr(polydiff.generator, "matrix_exp", recorded)
        got = variance_swap_rate(pm, [0.4], 0.0, 2.0)
        assert shapes == [(3, 3)]
        assert got == pytest.approx(1.0 - 0.6 * (1.0 - math.exp(-1.0)), rel=1e-13)


class TestSwaptions:
    def test_payoff_vector_linearity(self, jacobi_pm):
        w1 = swaption_payoff_vector(jacobi_pm, [(1.0, 1.0)], 0.5)
        w2 = swaption_payoff_vector(jacobi_pm, [(2.0, 1.0), (0.5, 2.0)], 0.5)
        w3 = swaption_payoff_vector(jacobi_pm, [(0.5, 2.0)], 0.5)
        assert np.allclose(w2, 2.0 * w1 + w3, atol=1e-15)

    def test_coupon_before_expiry_rejected(self, jacobi_pm):
        with pytest.raises(ValueError):
            swaption_payoff_vector(jacobi_pm, [(1.0, 0.25)], 0.5)

    def test_single_positive_coupon_is_a_bond(self, jacobi_pm):
        # the payoff is positive a.s., so the option price collapses to the
        # discounted expectation, which the tower property turns into P(0, 1)
        price, se = swaption_price_mc(jacobi_pm, [(1.0, 1.0)], 0.5, [0.3],
                                      n_paths=20_000, seed=3)
        want = bond_price(jacobi_pm, [0.3], 0.0, 1.0)
        assert abs(price - want) < 4.0 * se + 1e-3
        assert se < 5e-3

    def test_worthless_positions(self, jacobi_pm):
        price, se = swaption_price_mc(jacobi_pm, [(0.0, 1.0)], 0.5, [0.3],
                                      n_paths=500, seed=0)
        assert (price, se) == (0.0, 0.0)
        price, _ = swaption_price_mc(jacobi_pm, [(-1.0, 1.0)], 0.5, [0.3],
                                     n_paths=500, seed=0)
        assert price == 0.0

    def test_deterministic_in_seed(self, jacobi_pm):
        args = (jacobi_pm, [(1.0, 1.0), (-0.9, 2.0)], 0.5, [0.3])
        a = swaption_price_mc(*args, n_paths=2000, seed=11)
        b = swaption_price_mc(*args, n_paths=2000, seed=11)
        assert a == b

    @pytest.mark.parametrize("n_paths", [1, 0])
    def test_one_path_has_no_standard_error(self, jacobi_pm, n_paths):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n_paths must be >= 2"):
                swaption_price_mc(jacobi_pm, [(1.0, 1.0)], 0.5, [0.3], n_paths=n_paths, seed=0)

    def test_two_paths_are_enough(self, jacobi_pm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            price, se = swaption_price_mc(jacobi_pm, [(1.0, 1.0)], 0.5, [0.3], n_paths=2, seed=0)
        assert np.isfinite(price) and np.isfinite(se)

    @pytest.mark.parametrize("n_paths, expiry", [
        (_SWAPTION_PATHS + 1, 1e-10),  # a step count under one still stores each path's endpoint
        (10**15, 1e-10),
        (20_000, 10_000.0),  # the default paths over 10^7 steps of the default dt
    ])
    def test_simulation_past_the_caps_is_refused_before_it_runs(self, jacobi_pm, n_paths, expiry, monkeypatch):
        def simulate(*args, **kwargs):
            raise AssertionError("simulated past the cap")
        monkeypatch.setattr(polydiff.pricing, "simulate_paths", simulate)
        steps = max(expiry / 1e-3, 1.0)
        assert n_paths > _SWAPTION_PATHS or n_paths * (steps + len(jacobi_pm.basis)) > _SWAPTION_SIZE
        with pytest.raises(ValueError, match=f"a swaption of {n_paths} paths x .* exceeds the cap"):
            swaption_price_mc(jacobi_pm, [(1.0, expiry + 1.0)], expiry, [0.3], n_paths=n_paths, seed=0)


@pytest.fixture(scope="module")
def index_model():
    return SimplexIndexModel(params=simplex_params(), T_star=2.0, degree=6,
                             pricer=LognormalIndexPricer(spot=1.0, rate=0.02, vol=0.3))


class TestIndexWeights:
    def test_sum_to_one_on_grid(self, index_model):
        xs = np.linspace(0.0, 1.0, 1000)
        for t in (0.0, 0.7, 2.0):
            for x1 in xs:
                Y = index_weights(index_model, [x1, 1.0 - x1], t)
                assert abs(Y.sum() - 1.0) <= 1e-10

    def test_terminal_weights_are_the_state(self, index_model):
        x = np.array([0.35, 0.65])
        assert np.allclose(index_weights(index_model, x, 2.0), x, atol=1e-14)

    def test_frozen_dynamics_keep_weights(self):
        params = SimplexParams(alpha=[[0.0, 1.0], [1.0, 0.0]], beta=np.zeros(2), B=np.zeros((2, 2)))
        with pytest.warns(UserWarning, match="simplex parameters"):
            sim = SimplexIndexModel(params=params, T_star=1.0, degree=4)
        x = np.array([0.2, 0.8])
        for t in (0.0, 0.5, 1.0):
            assert np.allclose(index_weights(sim, x, t), x, atol=1e-14)

    def test_time_window_enforced(self, index_model):
        with pytest.raises(ValueError):
            index_weights(index_model, [0.5, 0.5], -0.1)
        with pytest.raises(ValueError):
            index_weights(index_model, [0.5, 0.5], 2.5)

    @pytest.mark.parametrize("T_star", [math.nan, -1.0, math.inf, -math.inf])
    def test_model_rejects_a_bad_horizon(self, T_star):
        with pytest.raises(ValueError, match=f"^T_star must be finite and >= 0, got {T_star}$"):
            SimplexIndexModel(params=simplex_params(), T_star=T_star, degree=4)

    def test_model_needs_degree_one_for_the_weights(self):
        with pytest.raises(ValueError, match="^degree must be >= 1 to hold the index weights, got 0$"):
            SimplexIndexModel(params=simplex_params(), T_star=1.0, degree=0)

    def test_units_are_the_coordinates_of_each_x_i(self, index_model):
        # the unit vectors hold x_1 and x_2 = 1 - x_1 on the free coordinate
        assert [u.tolist()[:2] for u in index_model.units] == [[0.0, 1.0], [1.0, -1.0]]
        assert all(not u[2:].any() for u in index_model.units)


class TestPayoffFit:
    def test_linear_payoff_is_exact(self, index_model):
        # a constant index price makes g(xi) = c xi, inside the fit space
        c = 0.37
        payoff, residual = fit_index_payoff(index_model, lambda T, K: c, 0, 0.5, 1.0)
        assert residual < 1e-12
        for x1 in (0.0, 0.3, 0.9):
            x = np.array([x1, 1.0 - x1])
            Y = index_weights(index_model, x, 0.5)
            assert payoff(x) == pytest.approx(c * Y[0], abs=1e-10)

    def test_lognormal_fit_quality(self, index_model):
        _, residual = fit_index_payoff(index_model, None, 0, 1.0, 1.0)
        assert 0.0 < residual < 0.02

    def test_argument_validation(self, index_model):
        with pytest.raises(DegreeTooHigh):
            fit_index_payoff(index_model, None, 0, 1.0, 1.0, cheb_degree=7)
        with pytest.raises(ValueError):
            fit_index_payoff(index_model, None, 0, 1.0, 1.0, grid_size=4, cheb_degree=6)
        with pytest.raises(ValueError):
            fit_index_payoff(index_model, None, 0, 1.0, -1.0)
        with pytest.raises(ValueError):
            fit_index_payoff(index_model, None, 5, 1.0, 1.0)
        with pytest.raises(ValueError):
            fit_index_payoff(index_model, None, 0, 3.0, 1.0)

    @pytest.mark.parametrize("K", [0.0, math.nan, math.inf])
    def test_strike_must_be_positive_and_finite(self, index_model, K):
        with pytest.raises(ValueError, match="^need 0 < K < inf$"):
            fit_index_payoff(index_model, None, 0, 1.0, K)


class TestConstituentOption:
    def test_constant_pricer_prices_expected_weight(self, index_model):
        c, T = 0.42, 0.75
        got = constituent_option_price(index_model, lambda T, K: c, 0, T, 1.0, [0.3, 0.7])
        # oracle: c E[Y_0] from the affine weight map and the state mean
        m = np.array([conditional_moment(index_model.model, index_model.statespace, 6,
                                         Polynomial.variable(j, 2), [0.3, 0.7], T)
                      for j in range(2)])
        d = index_model.dim
        M = np.zeros((d + 1, d + 1))
        M[:d, :d] = index_model.params.B
        M[:d, d] = index_model.params.beta
        from polydiff import matrix_exp
        E = matrix_exp((index_model.T_star - T) * M)
        want = c * (E[0, d] + E[0, :d] @ m)
        assert got == pytest.approx(want, rel=1e-10)

    def test_degree_six_fit_exponentiates_two_blocks(self, index_model, monkeypatch):
        # the weight x_1 -> Y^1_T propagates the 2x2 block of degree <= 1; the degree-6
        # payoff in the free coordinate x_1 meets the 7x7 block of degree <= 6
        shapes = []
        inner = polydiff.generator.matrix_exp

        def recorded(A):
            shapes.append(np.shape(A))
            return inner(A)

        monkeypatch.setattr(polydiff.generator, "matrix_exp", recorded)
        constituent_option_price(index_model, None, 0, 1.0, 1.0, [0.4, 0.6], cheb_degree=6, residual_warn=1.0)
        assert shapes == [(2, 2), (7, 7)]

    def test_monotone_in_strike(self, index_model):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the deg-6 fit residual is known
            prices = [constituent_option_price(index_model, None, 0, 1.0, K, [0.4, 0.6])
                      for K in (0.6, 0.8, 1.0, 1.3)]
        assert all(a > b for a, b in zip(prices, prices[1:]))

    def test_crude_fit_warns(self, index_model):
        with pytest.warns(UserWarning, match="residual"):
            constituent_option_price(index_model, None, 0, 1.0, 1.0, [0.4, 0.6],
                                     cheb_degree=2)

    def test_point_outside_rejected(self, index_model):
        with pytest.raises(PointOutsideStateSpace):
            constituent_option_price(index_model, None, 0, 1.0, 1.0, [0.4, 0.4])

    def test_matches_direct_monte_carlo(self, index_model):
        T, K, x0 = 0.5, 0.9, np.array([0.3, 0.7])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the deg-6 fit residual is known
            got = constituent_option_price(index_model, None, 0, T, K, x0)
        _, residual = fit_index_payoff(index_model, None, 0, T, K)
        ps = simulate_paths(index_model.model, index_model.statespace, x0, T, 1e-3,
                            5000, seed=21, store_stride=500)
        XT = ps.paths[:, -1, :]
        d = index_model.dim
        M = np.zeros((d + 1, d + 1))
        M[:d, :d] = index_model.params.B
        M[:d, d] = index_model.params.beta
        from polydiff import matrix_exp
        E = matrix_exp((index_model.T_star - T) * M)
        Y = E[:d, d] + XT @ E[:d, :d].T
        yi = np.maximum(Y[:, 0], 1e-12)
        vals = yi * index_model.pricer(T, K / yi)
        mc, se = vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(got - mc) < 4.0 * se + residual + 2e-3


class TestIndexPricers:
    def test_lognormal_intrinsic_and_forward(self):
        pr = LognormalIndexPricer(spot=1.0, rate=0.0, vol=0.2)
        assert pr(0.0, 0.7) == pytest.approx(0.3)
        assert pr(1.0, -0.5) == pytest.approx(1.5)
        assert pr(1.0, 1.0) > pr(0.25, 1.0) > 0.0

    def test_tabulated_interpolates(self):
        table = TabulatedIndexPricer([0.5, 1.0, 1.5], [0.52, 0.12, 0.01])
        assert table(1.0, 1.0) == pytest.approx(0.12)
        assert table(1.0, 0.75) < table(1.0, 0.6)

    def test_tabulated_flat_table_builds_without_warnings(self):
        # a wide quoted table whose far-out prices are zero or subnormal: PCHIP's
        # 1/slope overflows there, on purpose, inside scipy
        strikes = np.geomspace(0.01, 1e7, 49)
        prices = [LognormalIndexPricer(spot=1.0, rate=0.02, vol=0.25)(0.5, k) for k in strikes]
        assert min(prices) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = TabulatedIndexPricer(strikes, prices)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference = PchipInterpolator(strikes, prices, extrapolate=True)
        K = np.geomspace(0.005, 2e7, 1000)
        assert np.array_equal([table(0.5, k) for k in K], reference(K))

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            TabulatedIndexPricer([1.0, 1.0], [0.1, 0.1])
        with pytest.raises(ValueError):
            TabulatedIndexPricer([1.0], [0.1])
        with pytest.raises(ValueError):
            TabulatedIndexPricer([1.0, 2.0], [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("strikes, prices", [
        ([0.5, math.nan, 1.5], [0.5, 0.1, 0.0]),
        ([0.5, 1.0, math.inf], [0.5, 0.1, 0.0]),
        ([0.5, 1.0, 1.5], [0.5, math.inf, 0.0]),
        ([0.5, 1.0, 1.5], [math.nan, 0.1, 0.0]),
    ])
    def test_tabulated_rejects_non_finite_tables(self, strikes, prices):
        with pytest.raises(ValueError, match="finite"):
            TabulatedIndexPricer(strikes, prices)

    @pytest.mark.parametrize("spot, rate, vol", [
        (1.0, 0.02, -0.3), (1.0, 0.02, 0.0), (1.0, 0.02, math.nan), (1.0, 0.02, math.inf),
        (0.0, 0.02, 0.3), (-1.0, 0.02, 0.3), (math.nan, 0.02, 0.3), (math.inf, 0.02, 0.3),
        (1.0, math.nan, 0.3), (1.0, -math.inf, 0.3),
    ])
    def test_lognormal_rejects_invalid_fields(self, spot, rate, vol):
        # a negative vol used to price a call at -0.1084
        with pytest.raises(ValueError, match="must be finite"):
            LognormalIndexPricer(spot, rate, vol)

    STRIKES = np.array([-0.5, 0.0, 0.01, 0.5, 0.75, 1.0, 1.5, 3.0, 1e4, math.nan])

    @pytest.mark.parametrize("pricer", [
        LognormalIndexPricer(spot=1.0, rate=0.02, vol=0.3),
        TabulatedIndexPricer([0.5, 1.0, 1.5, 2.0], [0.52, 0.12, 0.01, 0.0]),
    ], ids=["lognormal", "table"])
    @pytest.mark.parametrize("T", [0.0, 0.5])
    def test_scalar_strike_gives_float_and_array_gives_array(self, pricer, T):
        # nonpositive, tiny, on-node, off-table and NaN strikes, with warnings as errors
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalars = [pricer(T, k) for k in self.STRIKES]
            assert all(type(v) is float for v in scalars)
            assert type(pricer(T, 1)) is float
            got = pricer(T, self.STRIKES)
            grid = pricer(T, self.STRIKES[:-1].reshape(3, 3))
        assert isinstance(got, np.ndarray) and got.shape == self.STRIKES.shape
        assert np.array_equal(got, scalars, equal_nan=True)
        assert math.isnan(got[-1]) and np.isfinite(got[:-1]).all()
        assert np.array_equal(grid, got[:-1].reshape(3, 3))

    def test_lognormal_arrays_keep_the_scalar_formula(self):
        # the closed form term by term with libm's functions; numpy's SIMD log
        # differs from libm's in the last bit on about 2 in 10^4 of these strikes
        spot, rate, vol, T = 1.0, 0.02, 0.3, 0.75
        K = np.exp(np.random.default_rng(7).uniform(-3.0, 14.0, 40_000))
        sig = vol * math.sqrt(T)
        fwd = spot * math.exp(rate * T)
        want = []
        for k in K:
            d1 = (math.log(fwd / k) + 0.5 * sig * sig) / sig
            want.append(math.exp(-rate * T) * (fwd * float(ndtr(d1)) - k * float(ndtr(d1 - sig))))
        assert np.array_equal(LognormalIndexPricer(spot, rate, vol)(T, K), want)

    @staticmethod
    def _random_table(rng, n):
        strikes = np.cumsum(rng.uniform(0.01, 1.0, n)) * rng.choice([1e-3, 1.0, 1e3])
        kind = rng.integers(4)
        if kind == 0:  # a decreasing call table running into zero prices
            prices = np.maximum(np.sort(rng.uniform(-0.5, 1.0, n))[::-1], 0.0)
        elif kind == 1:  # slopes of both signs
            prices = rng.normal(size=n)
        elif kind == 2:  # flat runs between jumps
            prices = np.repeat(rng.normal(size=n), rng.integers(1, 4, n))[:n]
        else:  # near-flat steps whose inverse slopes overflow
            prices = rng.choice([0.0, 5e-324, 1e-300, 1.0], n)
        return strikes, prices

    def test_tabulated_matches_scipy_pchip(self):
        rng = np.random.default_rng(20240917)
        for trial in range(300):
            n = 2 + trial % 12
            strikes, prices = self._random_table(rng, n)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = TabulatedIndexPricer(strikes, prices)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                reference = PchipInterpolator(strikes, prices, extrapolate=True)
            span = strikes[-1] - strikes[0]
            K = np.concatenate([strikes, (strikes[1:] + strikes[:-1]) / 2,
                                rng.uniform(strikes[0] - span, strikes[-1] + span, 50), [math.nan]])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = reference(K)
            assert np.array_equal(table(0.5, K), want, equal_nan=True), (trial, strikes, prices)
