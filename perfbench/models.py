"""Seeded model cases for the benchmark workloads.

Every case carries three views of one polynomial diffusion:

* ``doc``: the model spec file as a JSON-able dict (what the CLI reads);
* ``space``/``model``/``params``: the package objects (what library users
  build), made lazily by :func:`build`;
* ``drift`` and, in dimension 1, ``scalar``: the raw coefficients that
  :mod:`reference` uses to compute closed forms without the package's
  generator matrix.

Parameters are drawn on dyadic grids (multiples of 1/64), so sums
such as the simplex mass constraint hold exactly in floating point.  Each
family draws inside a fixed admissibility regime (strict Feller-type
inequalities with slack) and with a fixed sparsity pattern (no coefficient
drawn as zero), so a seed changes the numbers but neither which branch of
validation or boundary classification runs nor how many polynomial terms
the package carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def dyadic(rng: np.random.Generator, lo: float, hi: float, step: float = 1 / 64) -> float:
    """A multiple of ``step`` drawn uniformly from [lo, hi]."""
    k = rng.integers(math.ceil(lo / step - 1e-9), math.floor(hi / step + 1e-9) + 1)
    return float(k * step)


def signed(rng: np.random.Generator, lo: float, hi: float) -> float:
    """A nonzero dyadic value with |value| in [lo, hi] and a random sign."""
    return dyadic(rng, lo, hi) * float(rng.choice([-1.0, 1.0]))


@dataclass
class Case:
    """One model: spec document plus the coefficients references need."""

    name: str
    family: str
    dim: int
    doc: dict
    drift: tuple  # (b0, B): b(x) = b0 + B x
    scalar: tuple | None = None  # (a0, a1, a2, b0, b1) in dimension 1
    boundary: list | None = None  # expected verdict per inequality
    extra: dict = field(default_factory=dict)  # family data some references need
    objects: tuple | None = None  # (space, model, params), see build()


def _poly(dim: int, terms: dict) -> dict:
    return {"dim": dim, "terms": [{"e": list(e), "c": float(c)} for e, c in terms.items() if c != 0.0]}


def _mono(dim: int, *idx: int) -> tuple:
    e = [0] * dim
    for i in idx:
        e[i] += 1
    return tuple(e)


def linear_terms(dim: int, const: float, coef) -> dict:
    """{exponents: coefficient} of const + coef . x."""
    terms = {_mono(dim): float(const)}
    for i, c in enumerate(coef):
        terms[_mono(dim, i)] = float(c)
    return terms


def _box_doc(m, n, gamma, alpha, phi, psi, pi, beta, B) -> dict:
    return {
        "dimension": m + n,
        "state_space": {"family": "box_orthant", "m": m, "n": n},
        "coefficients": {"kind": "family", "params": {
            "gamma": list(gamma), "alpha": [list(r) for r in alpha], "phi": list(phi),
            "psi": [list(r) for r in psi], "pi": [list(r) for r in pi],
            "beta": list(beta), "B": [list(r) for r in B]}},
    }


def cir(rng, name="cir") -> Case:
    """dX = (b0 + b1 X) dt + sqrt(phi X) dW on [0, inf), 2 b0 - phi >= 1/4."""
    phi = dyadic(rng, 0.25, 0.75)
    b0 = dyadic(rng, phi / 2 + 0.125, 1.0)
    b1 = -dyadic(rng, 0.25, 1.0)
    doc = _box_doc(0, 1, [], [[0.0]], [phi], [[]], [[0.0]], [b0], [[b1]])
    return Case(name, "box_orthant", 1, doc, (np.array([b0]), np.array([[b1]])),
                scalar=(0.0, phi, 0.0, b0, b1), boundary=["NonAttainStrict"])


def jacobi(rng, name="jacobi") -> Case:
    """dX = (b0 + b1 X) dt + sqrt(g X (1 - X)) dW on [0, 1], inward with slack."""
    g = dyadic(rng, 0.25, 0.75)
    b0 = dyadic(rng, g / 2 + 0.125, g / 2 + 0.5)
    b1 = -dyadic(rng, b0 + g / 2 + 0.125, b0 + g / 2 + 0.5)
    doc = _box_doc(1, 0, [g], [], [], [], [], [b0], [[b1]])
    return Case(name, "box_orthant", 1, doc, (np.array([b0]), np.array([[b1]])),
                scalar=(0.0, g, -g, b0, b1), boundary=["NonAttainStrict", "NonAttainStrict"])


def ou(rng, name="ou") -> Case:
    """dX = (b0 + b1 X) dt + sqrt(a0) dW on R, as raw polynomial coefficients."""
    a0 = dyadic(rng, 0.25, 1.0)
    b0 = signed(rng, 0.125, 0.5)
    b1 = -dyadic(rng, 0.25, 1.0)
    doc = {"dimension": 1, "state_space": {"family": "full"},
           "coefficients": {"kind": "raw", "a": [[_poly(1, {(0,): a0})]],
                            "b": [_poly(1, {(0,): b0, (1,): b1})]}}
    return Case(name, "full", 1, doc, (np.array([b0]), np.array([[b1]])),
                scalar=(a0, 0.0, 0.0, b0, b1), boundary=[])


def box_product(rng, n: int, name="boxprod") -> Case:
    """[0, 1] x R^n_+ with one Jacobi and n CIR coordinates, all decoupled,
    so every mixed moment is a product of scalar moments."""
    parts = [jacobi(rng)] + [cir(rng) for _ in range(n)]
    d = 1 + n
    g = parts[0].scalar[1]
    phi = [c.scalar[1] for c in parts[1:]]
    b0 = np.array([c.scalar[3] for c in parts])
    B = np.diag([c.scalar[4] for c in parts])
    doc = _box_doc(1, n, [g], np.zeros((n, n)).tolist(), phi, np.zeros((n, 1)).tolist(),
                   np.zeros((n, n)).tolist(), b0.tolist(), B.tolist())
    return Case(name, "box_orthant", d, doc, (b0, B), boundary=["NonAttainStrict"] * (d + 1),
                extra={"factors": [c.scalar for c in parts]})


def simplex(rng, d: int, name="simplex") -> Case:
    """Unit simplex in R^d with dyadic parameters: the drift is tangent to
    the mass constraint in exact arithmetic, and every face is strictly
    non-attained (2 beta_i + 2 B_ij - alpha_ij >= 1/2 on each vertex).
    In R^2, x_1 alone is a scalar Jacobi diffusion (x_2 = 1 - x_1)."""
    alpha = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            alpha[i, j] = alpha[j, i] = dyadic(rng, 0.125, 0.25)
    beta = np.array([dyadic(rng, 0.25, 0.5) for _ in range(d)])
    B = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            if i != j:
                B[i, j] = dyadic(rng, 0.125, 0.25)
    for j in range(d):
        B[j, j] = -beta.sum() - (B[:, j].sum() - B[j, j])
    doc = {"dimension": d, "state_space": {"family": "simplex"},
           "coefficients": {"kind": "family", "params": {
               "alpha": alpha.tolist(), "beta": beta.tolist(), "B": B.tolist()}}}
    extra = {}
    if d == 2:
        extra["x1"] = (0.0, alpha[0, 1], -alpha[0, 1], beta[0] + B[0, 1], B[0, 0] - B[0, 1])
    return Case(name, "simplex", d, doc, (beta, B), boundary=["NonAttainStrict"] * d, extra=extra)


def ball(rng, d: int, name="ball") -> Case:
    """Unit ball: a = (1 - |x|^2) s I, b = -k x with k - s >= 1/8."""
    s = dyadic(rng, 0.25, 0.5)
    k = dyadic(rng, s + 0.125, s + 0.75)
    doc = {"dimension": d, "state_space": {"family": "quadric", "Q": np.eye(d).tolist()},
           "coefficients": {"kind": "family", "params": {
               "alpha": (s * np.eye(d)).tolist(), "beta": [0.0] * d,
               "B": (-k * np.eye(d)).tolist()}}}
    return Case(name, "quadric", d, doc, (np.zeros(d), -k * np.eye(d)),
                boundary=["NonAttainStrict"], extra={"ball": (s, k)})


def full_ou(rng, d: int, name="full") -> Case:
    """Coupled Ornstein-Uhlenbeck model on R^d: a = I/4 + u u' (constant),
    b = b0 + B x with every entry nonzero."""
    u = np.array([signed(rng, 0.125, 0.5) for _ in range(d)])
    A = 0.25 * np.eye(d) + np.outer(u, u)
    B = np.array([[signed(rng, 0.125, 0.125) for _ in range(d)] for _ in range(d)])
    np.fill_diagonal(B, [-dyadic(rng, 0.5, 1.0) for _ in range(d)])
    b0 = np.array([signed(rng, 0.125, 0.5) for _ in range(d)])
    a = [[_poly(d, {_mono(d): A[i, j]}) for j in range(d)] for i in range(d)]
    b = [_poly(d, linear_terms(d, b0[i], B[i])) for i in range(d)]
    doc = {"dimension": d, "state_space": {"family": "full"},
           "coefficients": {"kind": "raw", "a": a, "b": b}}
    return Case(name, "full", d, doc, (b0, B), boundary=[])


def build(case: Case):
    """(space, model, params) through the package's own spec parser."""
    if case.objects is None:
        from polydiff.specfile import parse_model_spec

        spec = parse_model_spec(case.doc)
        case.objects = (spec.statespace, spec.model, spec.params)
    return case.objects


def with_pricing(doc: dict, p_terms: dict, alpha_rate: float, degree: int) -> dict:
    """Copy of a model doc with a pricing block (p given as {exponents: c})."""
    out = dict(doc)
    out["pricing"] = {"p": _poly(doc["dimension"], p_terms), "alpha_rate": alpha_rate,
                      "degree": degree}
    return out


def interior_point(rng, case: Case) -> np.ndarray:
    """A fresh interior point of the case's state space (dyadic coordinates)."""
    d = case.dim
    if case.name.startswith("simplex"):
        w = rng.dirichlet(np.ones(d) * 4.0)
        x = np.round(w * 64) / 64
        x[-1] = 1.0 - x[:-1].sum()
        return x if x.min() > 0.0 else np.full(d, 1.0 / d)
    if case.family == "quadric":
        u = rng.standard_normal(d)
        return np.round(u / np.linalg.norm(u) * dyadic(rng, 0.0, 0.75) * 64) / 64
    if case.family == "full":
        return np.array([dyadic(rng, -1.0, 1.0, 1 / 16) for _ in range(d)])
    m = case.doc["state_space"]["m"]
    return np.array([dyadic(rng, 0.125, 0.875, 1 / 16) if i < m else dyadic(rng, 0.125, 1.5, 1 / 16)
                     for i in range(d)])
