"""Pricing on polynomial diffusion models.

A pricing model discounts with exp(-alpha t) p(X_t) for a polynomial p that
is positive on the state space; bond prices, short rates, and swaption
payoffs then reduce to moment formulas in the generator matrix.  Variance
swap rates integrate the propagated spot-variance polynomial in closed form,
and index options on a simplex model are priced by fitting the transformed
payoff with a Chebyshev polynomial and pushing it through the same moment
machinery.  The index weights Y_t = E[X_{T*} | X_t] are degree-1 moments of
that model's generator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev
from scipy.special import ndtr

from .basis import DegreeTooHigh
from .conditions import validate_params
from .generator import ModelCoefficients, _basis_and_generator, check_point
from .polynomial import Polynomial
from .simulate import simulate_paths
from .statespace import Simplex, SimplexParams, StateSpace, assemble_model

__all__ = [
    "InvalidStatePriceDensity",
    "PricingModel",
    "SimplexIndexModel",
    "LognormalIndexPricer",
    "TabulatedIndexPricer",
    "price_cashflow",
    "bond_price",
    "short_rate",
    "swaption_payoff_vector",
    "swaption_price_mc",
    "variance_swap_rate",
    "index_weights",
    "fit_index_payoff",
    "constituent_option_price",
]


# the fit of g(xi) = xi C(T, K/xi) starts at this xi > 0, where K/xi stays finite
_FIT_EPS = 1e-6
# the largest swaption simulation: at most _SWAPTION_PATHS paths (about 180 MB on a 1-d
# basis of 5), and at most _SWAPTION_SIZE path-steps plus basis evaluations, n_paths x
# (steps + basis size); the default 20000 paths of dt 0.001 to expiry 0.5 are 20000 x (500 + N)
_SWAPTION_PATHS = 10**6
_SWAPTION_SIZE = 2 * 10**7


class InvalidStatePriceDensity(ValueError):
    """The state-price density is nonpositive where it must divide."""


@dataclass
class PricingModel:
    """Model plus the discounting pair (alpha, p).

    Construction runs a sampled positivity check of p on the state space;
    a clear violation raises, values within margin of zero are only flagged
    (``positivity`` attribute) with a warning.
    """

    model: ModelCoefficients
    statespace: StateSpace
    degree: int
    p: Polynomial
    alpha: float = 0.0
    positivity: str = field(init=False, default="pass")

    def __post_init__(self):
        self.basis, self.gm = _basis_and_generator(self.model, self.statespace, self.degree)
        self.pvec = self.basis.coordinates(self.p)
        X = self.statespace.all_samples(1000)
        vals = self.p(X)
        low = float(vals.min())
        if low < -1e-9:
            raise InvalidStatePriceDensity(
                f"p is negative on the state space (sampled minimum {low:.6g})")
        if low <= 1e-9:
            # touches zero (e.g. a spot variance vanishing on the boundary)
            self.positivity = "inconclusive"
            warnings.warn(f"p comes within {low:.3g} of zero on sampled points; "
                          "density division may be unstable near the boundary")


def _denominator(pm: PricingModel, H: np.ndarray) -> float:
    denom = float(H @ pm.pvec)
    if denom <= 0.0:
        raise InvalidStatePriceDensity(f"state-price density H(x)'p = {denom:.6g} <= 0")
    return denom


def price_cashflow(pm: PricingModel, q: Polynomial, x, t: float, T: float) -> float:
    """Time-t price of the cashflow q(X_T):
    exp(-alpha (T-t)) H(x)' expm((T-t) G) (p q)vec / (H(x)' pvec)."""
    if T < t:
        raise ValueError("need T >= t")
    x = check_point(pm.statespace, x)
    pq = pm.basis.coordinates(pm.p * q)  # DegreeTooHigh if p*q leaves the space
    H = pm.basis.evaluate(x)
    denom = _denominator(pm, H)
    return math.exp(-pm.alpha * (T - t)) * pm.gm.expectation(H, T - t, pq) / denom


def bond_price(pm: PricingModel, x, t: float, T: float) -> float:
    """Zero-coupon bond: the unit cashflow at T."""
    return price_cashflow(pm, Polynomial.one(pm.statespace.dim), x, t, T)


def short_rate(pm: PricingModel, x) -> float:
    """r = alpha - H(x)' G pvec / H(x)' pvec."""
    x = check_point(pm.statespace, x)
    H = pm.basis.evaluate(x)
    denom = _denominator(pm, H)
    return pm.alpha - float(H @ pm.gm.matrix @ pm.pvec) / denom


def swaption_payoff_vector(pm: PricingModel, coupons, T: float) -> np.ndarray:
    """Coordinates of the swap value seen from exercise time T:
    w = sum_i c_i exp(-alpha T_i) expm((T_i - T) G) pvec."""
    w = np.zeros(len(pm.basis))
    for c_i, T_i in coupons:
        if T_i < T:
            raise ValueError("coupon dates must not precede the exercise date")
        with np.errstate(over="ignore", invalid="ignore"):  # the caller reports a non-finite price
            w += float(c_i) * math.exp(-pm.alpha * T_i) * pm.gm.propagate(T_i - T, pm.pvec)
    return w


def swaption_price_mc(
    pm: PricingModel,
    coupons,
    expiry: float,
    x0,
    n_paths: int = 20000,
    seed: int = 0,
    dt: float = 1e-3,
) -> tuple[float, float]:
    """Monte Carlo swaption price E[(H(X_T)'w)^+] / (H(x0)'pvec), with its
    standard error.  The payoff vector w is exact; only X_T is simulated."""
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for a standard error, got {n_paths}")
    x0 = check_point(pm.statespace, x0)
    w = swaption_payoff_vector(pm, coupons, expiry)
    steps = max(expiry / dt, 1.0)  # simulate_paths stores at least the endpoint of each path
    if n_paths > _SWAPTION_PATHS or n_paths * (steps + len(w)) > _SWAPTION_SIZE:
        raise ValueError(f"a swaption of {n_paths} paths x ({steps:.6g} steps + {len(w)} basis evaluations) "
                         f"exceeds the cap of {_SWAPTION_PATHS} paths and {_SWAPTION_SIZE} path-steps plus "
                         "evaluations; use fewer n_paths or a larger dt")
    # store only the endpoint; the payoff needs X_T alone
    paths = simulate_paths(pm.model, pm.statespace, x0, expiry, dt, n_paths, seed,
                           store_stride=max(int(round(expiry / dt)), 1))
    XT = paths.paths[:, -1, :]
    denom = _denominator(pm, pm.basis.evaluate(x0))
    with np.errstate(over="ignore", invalid="ignore"):  # the caller reports a non-finite price
        vals = np.maximum(pm.basis.evaluate(XT) @ w, 0.0)
        price = float(vals.mean()) / denom
        se = float(vals.std(ddof=1) / np.sqrt(len(vals))) / denom
    return price, se


def variance_swap_rate(pm: PricingModel, x, t: float, T: float) -> float:
    """Annualized expected integrated spot variance: here pm.p is the spot
    variance polynomial and VS(t,T) = H(x)'(int_0^{T-t} expm(sG) ds) pvec / (T-t)."""
    if T <= t:
        raise ValueError("need T > t")
    x = check_point(pm.statespace, x)
    return pm.gm.integral_expectation(pm.basis.evaluate(x), T - t, pm.pvec) / (T - t)


# ---------------------------------------------------------------------------
# stock indices on the simplex
# ---------------------------------------------------------------------------


@dataclass
class LognormalIndexPricer:
    """Flat-volatility lognormal call prices C(T, K) for the index; K is a
    scalar (a float is returned) or an ndarray (an ndarray is returned)."""

    spot: float
    rate: float
    vol: float

    def __post_init__(self):
        if not (0.0 < self.spot < math.inf and 0.0 < self.vol < math.inf):
            raise ValueError("spot and vol must be finite and > 0")
        if not math.isfinite(self.rate):
            raise ValueError("rate must be finite")

    def __call__(self, T: float, K):
        K = np.asarray(K, dtype=float)
        if T <= 0.0:
            price = np.maximum(self.spot - K, 0.0)
        else:
            disc = math.exp(-self.rate * T)
            sig = self.vol * math.sqrt(T)
            fwd = self.spot * math.exp(self.rate * T)
            forward = K <= 0.0  # a nonpositive strike is a forward; NaN stays on the formula
            Kp = np.where(forward, 1.0, K)
            with np.errstate(over="ignore"):  # fwd / K overflows to inf at a tiny K, giving the forward
                ratio = (fwd / Kp).ravel()
            # libm's log, not numpy's SIMD one, which can differ in the last bit
            log_ratio = np.fromiter(map(math.log, ratio), float, ratio.size).reshape(Kp.shape)
            d1 = (log_ratio + 0.5 * sig * sig) / sig
            d2 = d1 - sig
            price = np.where(forward, self.spot - K * disc, disc * (fwd * ndtr(d1) - Kp * ndtr(d2)))
        return float(price) if K.ndim == 0 else price


def _pchip_derivatives(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Node derivatives of the monotone cubic through points with spacings h
    and secant slopes m (Fritsch & Carlson), as scipy's PchipInterpolator
    takes them: zero where the slope changes sign or vanishes, else the
    weighted harmonic mean; a shape-kept one-sided estimate at the ends; the
    secant on a 2-point table."""
    if len(m) == 1:
        return np.array([m[0], m[0]])
    # 1/slope -> inf at a zero or tiny slope gives the zero derivative PCHIP intends
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        ends = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(ends) > 3.0 * np.abs(m0))
    ends = np.where(np.sign(ends) != np.sign(m0), 0.0, np.where(overshoot, 3.0 * m0, ends))
    return np.concatenate((ends[:1], np.where(flat, 0.0, inner), ends[1:]))


class TabulatedIndexPricer:
    """Index call prices interpolated in strike from a table by the monotone
    cubic (PCHIP), extrapolated from the end intervals.  Values match scipy's
    PchipInterpolator bit for bit: the same derivatives, power-form
    coefficients and term order.  K is a scalar (a float is returned) or an
    ndarray (an ndarray is returned)."""

    def __init__(self, strikes, prices):
        strikes = np.asarray(strikes, dtype=float)
        prices = np.asarray(prices, dtype=float)
        if strikes.ndim != 1 or strikes.shape != prices.shape or len(strikes) < 2:
            raise ValueError("need matching 1-d strike and price tables with at least 2 points")
        if not (np.isfinite(strikes).all() and np.isfinite(prices).all()):
            raise ValueError("strikes and prices must be finite")
        h = np.diff(strikes)
        if np.any(h <= 0.0):
            raise ValueError("strikes must be strictly increasing")
        m = np.diff(prices) / h
        d = _pchip_derivatives(h, m)
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite derivative stays infinite
            t = (d[:-1] + d[1:] - 2 * m) / h
            self._coef = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], prices[:-1]))
        self._strikes = strikes

    def __call__(self, T: float, K):
        K = np.asarray(K, dtype=float)
        # intervals closed on the left, the last one on both sides; NaN lands in the last
        i = np.clip(np.searchsorted(self._strikes, K, side="right") - 1, 0, len(self._strikes) - 2)
        c0, c1, c2, c3 = self._coef[:, i]
        s = K - self._strikes[i]
        with np.errstate(over="ignore", invalid="ignore"):  # far extrapolation overflows to +-inf
            price = c3 + c2 * s + c1 * (s * s) + c0 * ((s * s) * s)
        return float(price) if K.ndim == 0 else price


@dataclass
class SimplexIndexModel:
    """Simplex diffusion whose coordinates are discounted constituent weights.

    The index weights at time t are the degree-1 moments Y^i_t = E[X^i_{T*} | X_t]
    = H(X_t)' expm((T*-t) G) e_i, where e_i (``units``) holds the coordinates of
    x_i on the basis (x_d = 1 - x_1 - ... - x_{d-1}); they sum to one because the
    drift is tangent to the mass constraint.  Needs 0 <= T* < inf and degree >= 1.
    """

    params: SimplexParams
    T_star: float
    degree: int
    pricer: object = None  # default callable (T, K) -> index call price

    def __post_init__(self):
        if not 0.0 <= self.T_star < math.inf:
            raise ValueError(f"T_star must be finite and >= 0, got {self.T_star}")
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1 to hold the index weights, got {self.degree}")
        self.statespace = Simplex(self.params.dim)
        self.model = assemble_model(self.statespace, self.params)
        self.basis, self.gm = _basis_and_generator(self.model, self.statespace, self.degree)
        self.units = [self.basis.coordinates(Polynomial.variable(i, self.dim)) for i in range(self.dim)]
        report = validate_params(self.statespace, self.params)
        if report.verdict != "Valid":
            warnings.warn(f"simplex parameters are {report.verdict}: {report.failed_ids()}")

    @property
    def dim(self) -> int:
        return self.params.dim


def index_weights(sim: SimplexIndexModel, x, t: float) -> np.ndarray:
    """Y_t given X_t = x."""
    if not 0.0 <= t <= sim.T_star:
        raise ValueError("need 0 <= t <= T*")
    H = sim.basis.evaluate(check_point(sim.statespace, x))
    return np.array([sim.gm.expectation(H, sim.T_star - t, u) for u in sim.units])


def _cheb_degree(sim: SimplexIndexModel, cheb_degree: int | None) -> int:
    """The degree of the payoff fit: as given, else the basis degree capped at 10."""
    return min(sim.degree, 10) if cheb_degree is None else cheb_degree


def fit_index_payoff(
    sim: SimplexIndexModel,
    index_pricer,
    constituent: int,
    T: float,
    K: float,
    grid_size: int = 256,
    cheb_degree: int | None = None,
) -> tuple[Polynomial, float]:
    """Chebyshev fit of g(xi) = xi C(T, K/xi) on [_FIT_EPS, 1], composed with the
    affine map x -> Y^i_T(x).  Returns the payoff polynomial in the simplex
    coordinates and the max abs fit residual on a dense reference grid.

    ``index_pricer(T, K)`` (default ``sim.pricer``) is called once on the
    array of fit nodes and once on the reference grid, so K is an ndarray
    there: a custom pricer must broadcast over K and return an array (or a
    scalar, for a price that does not depend on K)."""
    if index_pricer is None:
        index_pricer = sim.pricer
    if not 0 <= constituent < sim.dim:
        raise ValueError("constituent index out of range")
    if not 0.0 <= T <= sim.T_star:
        raise ValueError("need 0 <= T <= T*")
    cheb_degree = _cheb_degree(sim, cheb_degree)
    if cheb_degree < 1:
        raise ValueError("cheb_degree must be >= 1")
    if cheb_degree > sim.degree:
        raise DegreeTooHigh(f"Chebyshev degree {cheb_degree} exceeds the basis degree {sim.degree}")
    if grid_size <= cheb_degree:
        raise ValueError("grid_size must exceed cheb_degree")
    if not 0.0 < K < math.inf:
        raise ValueError("need 0 < K < inf")

    def g(xi):
        return xi * index_pricer(T, K / xi)

    # least-squares fit at mapped Chebyshev nodes, residual on a uniform grid
    nodes = np.cos(np.pi * (2 * np.arange(grid_size) + 1) / (2 * grid_size))
    xs_fit = _FIT_EPS + (1.0 - _FIT_EPS) * (nodes + 1.0) / 2.0
    fit = chebyshev.Chebyshev.fit(xs_fit, g(xs_fit), deg=cheb_degree, domain=[_FIT_EPS, 1.0])
    xs_ref = np.linspace(_FIT_EPS, 1.0, max(512, 2 * grid_size))
    residual = float(np.abs(fit(xs_ref) - g(xs_ref)).max())

    # compose with the weight xi(x) = Y^i_T(x), a degree-1 moment, rescaled to the
    # Chebyshev variable on [-1, 1], and expand in powers by Horner's rule
    affine = sim.basis.polynomial(sim.gm.propagate(sim.T_star - T, sim.units[constituent]))
    a, b = fit.domain
    t_poly = (2.0 * affine - (a + b)) * (1.0 / (b - a))
    payoff = Polynomial.zero(sim.dim)
    for c in chebyshev.cheb2poly(fit.coef)[::-1]:
        payoff = payoff * t_poly + float(c)
    return payoff, residual


def constituent_option_price(
    sim: SimplexIndexModel,
    index_pricer,
    constituent: int,
    T: float,
    K: float,
    x0,
    grid_size: int = 256,
    cheb_degree: int | None = None,
    residual_warn: float = 1e-4,
) -> float:
    """Price E[Y^i_T C(T, K / Y^i_T)] by the moment formula applied to the
    Chebyshev payoff surrogate.  Warns when the fit residual is large; use
    fit_index_payoff directly for the residual diagnostics."""
    x0 = check_point(sim.statespace, x0)
    payoff, residual = fit_index_payoff(sim, index_pricer, constituent, T, K,
                                        grid_size=grid_size, cheb_degree=cheb_degree)
    if residual > residual_warn:
        warnings.warn(f"Chebyshev payoff fit residual {residual:.3g} exceeds {residual_warn:.1g}")
    return sim.gm.expectation(sim.basis.evaluate(x0), T, sim.basis.coordinates(payoff))
