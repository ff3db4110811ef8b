"""Closed-form references that never touch the package's generator matrix.

* Scalar models: the moment recursion G x^k = k b(x) x^(k-1) + k(k-1)/2 a(x)
  x^(k-2) gives a lower-triangular system per degree, propagated here with
  its own small matrix exponential.
* Any dimension: first moments follow the affine (d+1) drift block
  expm(tau [[B, b0], [0, 0]]), and their time integrals the doubled block.
* Simplex: E[(x_1 + ... + x_d)^k] = 1.
* Monte Carlo tolerances use exact standard deviations: scalar moments in
  dimension 1 (and for x_1 on the simplex in R^2), and for the isotropic
  unit ball the closed system of E[x_i^2], E|x|^2 and E[x_i x_j].
* Boundary attainment of the strict families is decided by the sign of
  2 G p - h . grad p at the vertices of each face (see :mod:`models`).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg


def scalar_generator(coeffs, n: int) -> np.ndarray:
    """Columns are the images of 1, x, ..., x^n under a scalar generator."""
    a0, a1, a2, b0, b1 = coeffs
    L = np.zeros((n + 1, n + 1))
    for k in range(1, n + 1):
        c = 0.5 * k * (k - 1)
        L[k, k] = k * b1 + c * a2
        L[k - 1, k] = k * b0 + c * a1
        if k >= 2:
            L[k - 2, k] = c * a0
    return L


def scalar_moments(coeffs, n: int, x: float, tau: float) -> np.ndarray:
    """E[X_tau^k | X_0 = x] for k = 0..n."""
    P = scipy.linalg.expm(tau * scalar_generator(coeffs, n))
    return (x ** np.arange(n + 1)) @ P


def scalar_joint(coeffs, x: float, times, powers) -> float:
    """E[prod_k X_{t_k}^{powers_k} | X_0 = x] by backward conditioning."""
    n = int(sum(powers))
    L = scalar_generator(coeffs, n)
    v = np.zeros(n + 1)
    v[powers[-1]] = 1.0
    for k in range(len(times) - 1, 0, -1):
        v = scipy.linalg.expm((times[k] - times[k - 1]) * L) @ v
        v = np.concatenate([np.zeros(powers[k - 1]), v[: n + 1 - powers[k - 1]]])
    v = scipy.linalg.expm(times[0] * L) @ v
    return float((x ** np.arange(n + 1)) @ v)


def product_moment(factors, x, exponents, tau: float) -> float:
    """Mixed moment of independent scalar coordinates."""
    out = 1.0
    for coeffs, xi, k in zip(factors, x, exponents):
        out *= scalar_moments(coeffs, int(k), float(xi), tau)[int(k)]
    return out


def scalar_sd(coeffs, x: float, tau: float) -> float:
    """Standard deviation of X_tau given X_0 = x for a scalar model."""
    m = scalar_moments(coeffs, 2, x, tau)
    return math.sqrt(max(m[2] - m[1] ** 2, 0.0))


def ball_linear_sd(s: float, k: float, coef, x, tau: float) -> float:
    """Standard deviation of coef . X_tau on the unit ball in R^d with
    a = (1 - |x|^2) s I and b = -k x.

    G x_i = -k x_i, G x_i x_j = -2k x_i x_j (i != j),
    G x_i^2 = -2k x_i^2 + s (1 - |x|^2), G |x|^2 = d s - (2k + d s) |x|^2.
    """
    x = np.asarray(x, dtype=float)
    coef = np.asarray(coef, dtype=float)
    d = len(x)
    # state (E x_i^2, E|x|^2, 1)
    M = np.array([[-2 * k, -s, s], [0.0, -(2 * k + d * s), d * s], [0.0, 0.0, 0.0]])
    P = scipy.linalg.expm(tau * M)
    r2 = float(x @ x)
    second = np.outer(x, x) * math.exp(-2 * k * tau)
    for i in range(len(x)):
        second[i, i] = P[0] @ np.array([x[i] ** 2, r2, 1.0])
    mean = x * math.exp(-k * tau)
    var = coef @ (second - np.outer(mean, mean)) @ coef
    return math.sqrt(max(var, 0.0))


def _affine_block(drift) -> np.ndarray:
    b0, B = drift
    d = len(b0)
    M = np.zeros((d + 1, d + 1))
    M[:d, :d] = B
    M[:d, d] = b0
    return M


def first_moment(drift, x, tau: float) -> np.ndarray:
    """E[X_tau | X_0 = x] from the affine drift block."""
    d = len(x)
    return (scipy.linalg.expm(tau * _affine_block(drift)) @ np.append(x, 1.0))[:d]


def first_moment_integral(drift, x, tau: float) -> np.ndarray:
    """int_0^tau E[X_s | X_0 = x] ds from the doubled affine block."""
    M = _affine_block(drift)
    n = M.shape[0]
    W = np.zeros((2 * n, 2 * n))
    W[:n, :n] = M
    W[:n, n:] = np.eye(n)
    J = scipy.linalg.expm(tau * W)[:n, n:]
    return (J @ np.append(x, 1.0))[: len(x)]


def linear_expectation(drift, coef, const: float, x, tau: float) -> float:
    """E[const + coef . X_tau | X_0 = x]."""
    return float(const + np.dot(coef, first_moment(drift, x, tau)))


def euler_first_moment(drift, x, dt: float, steps: int) -> np.ndarray:
    """Mean of the unprojected Euler scheme after ``steps`` steps."""
    b0, B = drift
    m = np.asarray(x, dtype=float)
    for _ in range(steps):
        m = m + (b0 + B @ m) * dt
    return m


def lognormal_call(spot: float, rate: float, vol: float, T: float, K: float) -> float:
    """Black-Scholes call, the benchmark's own copy for payoff bounds."""
    if T <= 0.0:
        return max(spot - K, 0.0)
    sig = vol * math.sqrt(T)
    fwd = spot * math.exp(rate * T)
    d1 = (math.log(fwd / K) + 0.5 * sig * sig) / sig
    d2 = d1 - sig
    cdf = lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0))
    return math.exp(-rate * T) * (fwd * cdf(d1) - K * cdf(d2))


def index_weight_mean(drift, x0, T: float, T_star: float, i: int) -> float:
    """E[Y^i_T] with Y_t = Phi(T* - t) + Psi(T* - t) X_t."""
    E = scipy.linalg.expm((T_star - T) * _affine_block(drift))
    return float(E[i, :-1] @ first_moment(drift, x0, T) + E[i, -1])
