"""State-space geometry for polynomial diffusion models.

Each state space is cut out of R^d by polynomial inequalities ``p >= 0``
(the ``inequalities`` list) inside an algebraic manifold ``q = 0`` (the
``equalities`` list).  Four families are built in: the whole space, a
quadric solid, the mixed unit-box/orthant product, and the unit simplex.

``_PARAMS`` names each family's parameter type (raw ``ModelCoefficients``
on the whole space); ``assemble_model``, ``validate_params`` and the spec
parser all read it.

All samplers are deterministic: they draw from fixed-seed generators and
structured log grids, so repeated runs see identical points.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .basis import monomial_exponents
from .generator import ModelCoefficients
from .polynomial import DivisionFailure, Exponents, Polynomial, _summed, _term_arrays, divide_exact

__all__ = [
    "StateSpace",
    "FullSpace",
    "Quadric",
    "BoxOrthant",
    "Simplex",
    "QuadricParams",
    "BoxOrthantParams",
    "SimplexParams",
    "assemble_model",
    "skew_symmetric_basis",
    "MEMBERSHIP_TOL",
]

MEMBERSHIP_TOL = 1e-9

_SAMPLER_SEED = 20240917
_LOG_RANGE = (-3.0, 3.0)  # unbounded directions are probed on [1e-3, 1e3]


def _rng(*salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(_SAMPLER_SEED, spawn_key=salt))


def _unit_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    z = rng.standard_normal((count, dim))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return z / norms


class StateSpace(ABC):
    """Base class: polynomial membership, deterministic samplers, projection."""

    dim: int
    family: str
    inequalities: tuple[Polynomial, ...]
    equalities: tuple[Polynomial, ...]

    # number of free coordinates used by monomial bases (dim, or dim-1 when
    # one coordinate is eliminated through an affine equality)
    @property
    def basis_variables(self) -> int:
        return self.dim

    def reduce(self, p: Polynomial) -> Polynomial:
        """Canonical representative of p modulo the equality ideal."""
        if p.dim != self.dim:
            raise ValueError(f"polynomial dimension {p.dim} != state space dimension {self.dim}")
        return p

    def reduce_terms(self, exps: np.ndarray, coefs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Terms (exps: (m, dim) ints, coefs: m floats) rewritten one by one into
        canonical representatives, unsummed: output i comes from input source[i]."""
        return exps, coefs, np.arange(len(coefs))

    def divide(self, f: Polynomial, p: Polynomial) -> Polynomial:
        """Exact quotient h with f = h p on the manifold {equalities = 0}.

        Raises DivisionFailure, naming f, p and the number of equalities, when
        no exact quotient is found; that is a cannot-certify signal.
        """
        try:
            return divide_exact(f, p)
        except DivisionFailure as exc:
            raise DivisionFailure(f"{exc} modulo {len(self.equalities)} generator(s)") from None

    @abstractmethod
    def violation(self, x) -> np.ndarray | float:
        """Max constraint violation at x (0 for points inside).  Batched."""

    def contains(self, x) -> bool | np.ndarray:
        return self.violation(x) <= MEMBERSHIP_TOL

    @abstractmethod
    def project(self, x) -> np.ndarray:
        """Closed-form (near-)metric projection onto the state space.  Batched."""

    @abstractmethod
    def interior_samples(self, count: int) -> np.ndarray:
        """Deterministic points of E, shape (count, dim)."""

    def boundary_samples(self, index: int, count: int) -> np.ndarray:
        """Deterministic points of E intersected with {inequalities[index] = 0}."""
        raise IndexError(f"state space {self.family} has no boundary stratum {index}")

    def all_samples(self, count: int) -> np.ndarray:
        """Interior plus every boundary stratum, for whole-space sampled checks."""
        parts = [self.interior_samples(count)]
        per = max(count // max(len(self.inequalities), 1), 8)
        for k in range(len(self.inequalities)):
            parts.append(self.boundary_samples(k, per))
        return np.vstack(parts)

    @property
    def is_compact(self) -> bool:
        return False

    def spec_dict(self) -> dict:
        """The model file's ``state_space`` block; its ``dimension`` is the model's."""
        return {"family": self.family}

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class FullSpace(StateSpace):
    """All of R^d: no inequalities, no equalities."""

    family = "full"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.inequalities = ()
        self.equalities = ()

    def violation(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1]) if x.ndim > 1 else 0.0

    def project(self, x):
        return np.asarray(x, dtype=float)

    def interior_samples(self, count: int) -> np.ndarray:
        rng = _rng(1)
        u = _unit_vectors(rng, count, self.dim)
        radii = np.concatenate([[0.0], np.geomspace(10.0 ** _LOG_RANGE[0], 10.0 ** _LOG_RANGE[1], count - 1)])
        return u * radii[:, None]


class Quadric(StateSpace):
    """Solid quadric {x'Qx <= 1} (orientation "inside") or its complement
    closure {x'Qx >= 1} ("outside"), with Q diagonal with entries +-1."""

    family = "quadric"

    def __init__(self, Q, orientation: str = "inside"):
        Q = np.array(Q, dtype=float)  # a copy: the caller's array may change later
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be a square matrix")
        d = Q.shape[0]
        if not np.array_equal(Q, np.diag(np.diag(Q))) or not np.all(np.abs(np.diag(Q)) == 1.0):
            raise ValueError("Q must be diagonal with entries +1/-1 (normalized form)")
        if not np.any(np.diag(Q) == 1.0):
            raise ValueError("Q needs at least one +1 diagonal entry, else {x'Qx = 1} is empty")
        if orientation not in ("inside", "outside"):
            raise ValueError("orientation must be 'inside' or 'outside'")
        self.dim = d
        Q.flags.writeable = False
        self.Q = Q
        self.orientation = orientation
        p = _summed(d, [(_exps(d), 1.0), *((_exps(d, i, i), -Q[i, i]) for i in range(d))])  # 1 - x'Qx
        self.inequalities = (p if orientation == "inside" else -p,)
        self.equalities = ()
        self._q = np.diag(Q).copy()
        self._plus = np.flatnonzero(self._q == 1.0)
        self._minus = np.flatnonzero(self._q == -1.0)

    def _qform(self, x):
        x = np.asarray(x, dtype=float)
        return np.add.reduce(x * x * self._q, axis=-1)  # np.sum's arithmetic, without its wrapper

    def violation(self, x):
        q = self._qform(x)
        v = q - 1.0 if self.orientation == "inside" else 1.0 - q
        return np.maximum(v, 0.0)

    def project(self, x):
        """Rows outside scale radially onto the quadric; the input is copied
        only when a row lies outside, else returned as it is."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = x if x.ndim >= 2 else x.reshape(1, -1)
        q = self._qform(X)
        bad = q > 1.0 if self.orientation == "inside" else q < 1.0
        if np.count_nonzero(bad):
            X = X.copy()
            if self.orientation == "inside":
                X[bad] /= np.sqrt(q[bad])[:, None]
            else:
                pos = bad & (q > 1e-12)
                if pos.any():
                    X[pos] /= np.sqrt(q[pos])[:, None]
                rest = bad & ~pos
                if rest.any():
                    # radial scaling undefined near the cone x'Qx <= 0: push along
                    # the first +1 coordinate until the quadric is reached
                    i = self._plus[0]
                    xi = X[rest, i]
                    t = -xi + np.sqrt(xi * xi + 1.0 - q[rest])
                    X[rest, i] = xi + t
        return X[0] if single else X

    def boundary_samples(self, index: int, count: int) -> np.ndarray:
        if index != 0:
            raise IndexError("quadric has a single boundary stratum")
        rng = _rng(2)
        d_plus, d_minus = len(self._plus), len(self._minus)
        u = _unit_vectors(rng, count, d_plus)
        X = np.zeros((count, self.dim))
        if d_minus == 0:
            X[:, self._plus] = u
            return X
        w = _unit_vectors(rng, count, d_minus)
        radii = np.concatenate([np.zeros(max(count // 4, 1)), np.geomspace(1e-3, 1e3, count - max(count // 4, 1))])
        X[:, self._minus] = w * radii[:, None]
        X[:, self._plus] = u * np.sqrt(1.0 + radii * radii)[:, None]
        return X

    def interior_samples(self, count: int) -> np.ndarray:
        rng = _rng(3)
        if self.orientation == "inside":
            if len(self._minus) == 0:
                u = _unit_vectors(rng, count, self.dim)
                r = rng.random(count) ** (1.0 / self.dim)
                x = u * r[:, None]
                x[0] = 0.0
                return x
            # unbounded solid: points on inner shells of the boundary sampler
            shells = self.boundary_samples(0, count)
            scales = np.linspace(0.0, 0.95, count)
            return shells * scales[:, None]
        shells = self.boundary_samples(0, count)
        scales = np.concatenate([np.ones(1), np.geomspace(1.001, 1e3, count - 1)])
        return shells * scales[:, None]

    @property
    def is_compact(self) -> bool:
        return self.orientation == "inside" and len(self._minus) == 0

    def spec_dict(self) -> dict:
        return {"family": "quadric", "Q": self.Q.tolist(), "orientation": self.orientation}


class BoxOrthant(StateSpace):
    """Product [0,1]^m x R^n_+ with the box block first."""

    family = "box_orthant"

    def __init__(self, m: int, n: int):
        if m < 0 or n < 0 or m + n < 1:
            raise ValueError("need m >= 0, n >= 0, m + n >= 1")
        self.m = m
        self.n = n
        self.dim = m + n
        d = self.dim
        ineq: list[Polynomial] = []
        descr: list[tuple[str, int]] = []
        for i in range(m):
            ineq.append(Polynomial.variable(i, d))
            descr.append(("low", i))
            ineq.append(Polynomial.one(d) - Polynomial.variable(i, d))
            descr.append(("high", i))
        for j in range(m, d):
            ineq.append(Polynomial.variable(j, d))
            descr.append(("low", j))
        self.inequalities = tuple(ineq)
        self.stratum_descriptors = tuple(descr)
        self.equalities = ()

    def violation(self, x):
        x = np.asarray(x, dtype=float)
        v = np.maximum(-x[..., : self.dim], 0.0).max(axis=-1)
        if self.m:
            v = np.maximum(v, np.maximum(x[..., : self.m] - 1.0, 0.0).max(axis=-1))
        return v

    def project(self, x):
        x = np.asarray(x, dtype=float)
        out = np.maximum(x, 0.0)
        if self.m:
            out[..., : self.m] = np.minimum(out[..., : self.m], 1.0)
        return out

    def _fill_free(self, X: np.ndarray, rng: np.random.Generator, skip: int | None = None) -> None:
        count = X.shape[0]
        lo, hi = _LOG_RANGE
        for c in range(self.dim):
            if c == skip:
                continue
            if c < self.m:
                X[:, c] = rng.random(count)
            else:
                X[:, c] = 10.0 ** rng.uniform(lo, hi, count)
        # a deterministic tail of near-corner points so binding constraints
        # show up as witnesses
        tail = max(count // 4, 1)
        for c in range(self.dim):
            if c == skip:
                continue
            if c < self.m:
                X[-tail:, c] = rng.integers(0, 2, tail).astype(float)
            else:
                X[-tail:, c] = rng.choice([0.0, 1e-3, 1.0, 1e3], tail)

    def boundary_samples(self, index: int, count: int) -> np.ndarray:
        side, coord = self.stratum_descriptors[index]
        rng = _rng(4, index)
        X = np.empty((count, self.dim))
        self._fill_free(X, rng, skip=coord)
        X[:, coord] = 0.0 if side == "low" else 1.0
        return X

    def interior_samples(self, count: int) -> np.ndarray:
        rng = _rng(5)
        X = np.empty((count, self.dim))
        self._fill_free(X, rng)
        return X

    @property
    def is_compact(self) -> bool:
        return self.n == 0

    def spec_dict(self) -> dict:
        return {"family": "box_orthant", "m": self.m, "n": self.n}


class Simplex(StateSpace):
    """Unit simplex {x >= 0, x_1 + ... + x_d = 1}."""

    family = "simplex"

    def __init__(self, dim: int):
        if dim < 2:
            raise ValueError("simplex needs dim >= 2")
        self.dim = dim
        d = dim
        self.inequalities = tuple(Polynomial.variable(i, d) for i in range(d))
        self.equalities = (Polynomial.one(d) - sum(self.inequalities, Polynomial.zero(d)),)
        self._powers = (np.zeros((0, d), dtype=np.int64), np.zeros(0), np.zeros(1, dtype=np.int64))

    @property
    def basis_variables(self) -> int:
        return self.dim - 1

    def _power_table(self, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(exps, coefs, start): rows start[k]:start[k+1] are the terms of
        (1 - x_1 - ... - x_{d-1})^k, k <= top; each power is expanded once and kept."""
        exps, coefs, start = self._powers
        for k in range(len(start) - 1, top + 1):
            new = monomial_exponents(self.dim - 1, self.dim, k)
            # k! / ((k - |a|)! a_1! ... a_d!) with the sign of (-1)^|a|
            w = [(-1) ** sum(e) * math.factorial(k) // math.prod(map(math.factorial, (k - sum(e), *e))) for e in new]
            exps, coefs = np.concatenate([exps, new]), np.concatenate([coefs, np.array(w, dtype=float)])
            start = np.append(start, len(coefs))
        self._powers = (exps, coefs, start)
        return self._powers

    def reduce_terms(self, exps, coefs):
        """Replace each term c x'^a x_d^k, in input order, by the terms of
        c x'^a (1 - x_1 - ... - x_{d-1})^k."""
        last = self.dim - 1
        k = exps[:, last]
        table, weight, start = self._power_table(int(k.max(initial=0)))
        counts = start[k + 1] - start[k]
        source = np.repeat(np.arange(len(k)), counts)
        # table row of each output term: its power's first row plus its place in its block
        pos = np.arange(len(source)) + np.repeat(start[k] - np.cumsum(counts) + counts, counts)
        head = exps[source]
        head[:, last] = 0
        with np.errstate(over="ignore"):  # callers reject non-finite sums
            return head + table[pos], coefs[source] * weight[pos], source

    def reduce(self, p: Polynomial) -> Polynomial:
        """Eliminate the last coordinate via x_d = 1 - x_1 - ... - x_{d-1}."""
        exps, coefs, _ = self.reduce_terms(*_term_arrays(super().reduce(p)))
        return _summed(self.dim, zip(map(tuple, exps.tolist()), coefs.tolist()))

    def divide(self, f: Polynomial, p: Polynomial) -> Polynomial:
        """The plain quotient of f by p when there is one, since that is the
        certificate reports print; else the quotient of the normal forms that
        ``reduce`` gives.  Those live in the quotient ring, polynomials in
        x_1..x_{d-1}, where one division decides divisibility."""
        try:
            return super().divide(f, p)
        except DivisionFailure as plain:
            try:
                return divide_exact(self.reduce(f), self.reduce(p))
            except DivisionFailure:
                raise plain from None

    def violation(self, x):
        x = np.asarray(x, dtype=float)
        v = np.maximum(-x, 0.0).max(axis=-1)
        return np.maximum(v, np.abs(1.0 - x.sum(axis=-1)))

    def project(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = np.atleast_2d(x)
        out = _project_segment(X) if self.dim == 2 else _project_sorted(X)
        return out[0] if single else out

    def boundary_samples(self, index: int, count: int) -> np.ndarray:
        if not 0 <= index < self.dim:
            raise IndexError("simplex stratum index out of range")
        rng = _rng(6, index)
        d = self.dim
        X = np.zeros((count, d))
        rest = [i for i in range(d) if i != index]
        if len(rest) == 1:
            X[:, rest[0]] = 1.0
            return X
        X[:, rest] = rng.dirichlet(np.ones(len(rest)), count)
        # vertices of the face
        for k, i in enumerate(rest[: min(len(rest), count)]):
            X[-1 - k] = 0.0
            X[-1 - k, i] = 1.0
        return X

    def interior_samples(self, count: int) -> np.ndarray:
        rng = _rng(7)
        X = rng.dirichlet(np.ones(self.dim), count)
        X[0] = 1.0 / self.dim
        return X

    @property
    def is_compact(self) -> bool:
        return True


def _project_sorted(X: np.ndarray) -> np.ndarray:
    """Euclidean projection of the rows of X onto the unit simplex: shift by
    the threshold theta found from the coordinates sorted in decreasing order,
    then clip at zero."""
    d = X.shape[1]
    u = np.sort(X, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    ks = np.arange(1, d + 1)
    cond = u - css / ks > 0.0
    rho = d - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(X.shape[0]), rho] / (rho + 1.0)
    return np.maximum(X - theta[:, None], 0.0)


def _project_segment(X: np.ndarray) -> np.ndarray:
    """``_project_sorted`` for d = 2, the segment from (1, 0) to (0, 1): the sort of
    two coordinates is their max and min, and theta is the same arithmetic, so
    the result is bit for bit the same."""
    hi = np.maximum(X[:, 0], X[:, 1])
    lo = np.minimum(X[:, 0], X[:, 1])
    top = hi - 1.0
    half = (X[:, 0] + X[:, 1] - 1.0) / 2.0
    # theta = half unless only the larger coordinate stays positive
    theta = np.where((lo - half > 0.0) | ~(hi - top > 0.0), half, top)
    return np.maximum(X - theta[:, None], 0.0)


# ---------------------------------------------------------------------------
# parameter bundles and model assembly
# ---------------------------------------------------------------------------


def skew_symmetric_basis(d: int) -> list[np.ndarray]:
    """Basis E_ij - E_ji of the skew-symmetric matrices, (i, j) in lex order."""
    out = []
    for i in range(d):
        for j in range(i + 1, d):
            S = np.zeros((d, d))
            S[i, j] = 1.0
            S[j, i] = -1.0
            out.append(S)
    return out


def _as_matrix(x, shape, name):
    a = np.asarray(x, dtype=float)
    if a.shape != shape:
        # accept [] for any zero-size block so JSON specs need no shaped empties
        if a.size == 0 and int(np.prod(shape)) == 0:
            return np.zeros(shape)
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def _beta_dim(beta) -> int:
    """The length of the vector beta, which sets the dimension of the quadric
    and simplex parameter families."""
    shape = np.asarray(beta, dtype=float).shape
    if len(shape) != 1:
        raise ValueError(f"beta must be a vector, got shape {shape}")
    return shape[0]


def _require_symmetric(a, name):
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(a).max(initial=0.0))):
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (a + a.T)


@dataclass(eq=False)
class QuadricParams:
    """Diffusion/drift parameters for a quadric state space.

    a(x) = (1 - x'Qx) alpha + c(x) with c built from the coefficient matrix
    ``gamma`` over the skew-symmetric basis, and b(x) = beta + B x.
    """

    alpha: np.ndarray
    beta: np.ndarray
    B: np.ndarray
    gamma: np.ndarray | None = None

    def __post_init__(self):
        d = _beta_dim(self.beta)
        self.alpha = _require_symmetric(_as_matrix(self.alpha, (d, d), "alpha"), "alpha")
        self.beta = _as_matrix(self.beta, (d,), "beta")
        self.B = _as_matrix(self.B, (d, d), "B")
        k = d * (d - 1) // 2
        if self.gamma is None:
            self.gamma = np.zeros((k, k))
        self.gamma = _require_symmetric(_as_matrix(self.gamma, (k, k), "gamma"), "gamma")

    @property
    def dim(self) -> int:
        return self.beta.shape[0]


@dataclass(eq=False)
class BoxOrthantParams:
    """Parameters on [0,1]^m x R^n_+.

    Box coordinates i carry a_ii = gamma_i x_i (1 - x_i); orthant coordinates
    j carry a_jj = alpha_jj x_j^2 + x_j (phi_j + psi_j . x_I + pi_j . x_J) and
    a_jk = alpha_jk x_j x_k.  Drift b(x) = beta + B x.
    """

    m: int
    n: int
    gamma: np.ndarray
    alpha: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    pi: np.ndarray
    beta: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        m, n = int(self.m), int(self.n)
        d = m + n
        self.gamma = _as_matrix(self.gamma, (m,), "gamma")
        self.alpha = _require_symmetric(_as_matrix(self.alpha, (n, n), "alpha"), "alpha")
        self.phi = _as_matrix(self.phi, (n,), "phi")
        self.psi = _as_matrix(self.psi, (n, m), "psi")
        self.pi = _as_matrix(self.pi, (n, n), "pi")
        self.beta = _as_matrix(self.beta, (d,), "beta")
        self.B = _as_matrix(self.B, (d, d), "B")

    @property
    def dim(self) -> int:
        return self.m + self.n


@dataclass(eq=False)
class SimplexParams:
    """Parameters on the unit simplex: a_ij = -alpha_ij x_i x_j off-diagonal
    (rows summing to zero) and b(x) = beta + B x."""

    alpha: np.ndarray
    beta: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        d = _beta_dim(self.beta)
        self.alpha = _require_symmetric(_as_matrix(self.alpha, (d, d), "alpha"), "alpha")
        self.beta = _as_matrix(self.beta, (d,), "beta")
        self.B = _as_matrix(self.B, (d, d), "B")

    @property
    def dim(self) -> int:
        return self.beta.shape[0]


def _exps(d: int, *coords: int) -> Exponents:
    """The exponent tuple of the product of x_i over ``coords`` in d variables."""
    e = [0] * d
    for i in coords:
        e[i] += 1
    return tuple(e)


def _linear_drift(beta: np.ndarray, B: np.ndarray) -> list[Polynomial]:
    """b_i = beta_i + sum_j B_ij x_j."""
    d = beta.shape[0]
    return [_summed(d, [(_exps(d), beta[i]), *((_exps(d, j), B[i, j]) for j in range(d))]) for i in range(d)]


def _quadric_c_tensor(space: Quadric, gamma: np.ndarray) -> np.ndarray:
    """The (d, d, d, d) array M with c_ij(x) = x' M[i, j] x, where
    c_ij(x) = sum_kl gamma_kl (Q S_k x)_i (Q S_l x)_j over the skew-symmetric
    basis S.  Q S_k has entries 0 and +-1, so the outer products are exact."""
    d = space.dim
    QS = [space.Q @ s for s in skew_symmetric_basis(d)]
    M = np.zeros((d, d, d, d))
    for k in range(len(QS)):
        for l in range(len(QS)):
            if gamma[k, l] != 0.0:
                M += gamma[k, l] * np.einsum("iu,jv->ijuv", QS[k], QS[l])
    return M


# each family's parameter type; a full space takes raw coefficients
_PARAMS = {Quadric: QuadricParams, BoxOrthant: BoxOrthantParams, Simplex: SimplexParams, FullSpace: ModelCoefficients}


def _check_params(space: StateSpace, params) -> type:
    """The parameter type of the space's family; ValueError unless params
    has that type and the space's shape: (m, n) on the box, else (dim,)."""
    kind = next((k for s, k in _PARAMS.items() if isinstance(space, s)), None)
    if kind is None:
        raise ValueError(f"unknown state space family {type(space).__name__}")
    box = kind is BoxOrthantParams
    want = (space.m, space.n) if box else (space.dim,)
    got = isinstance(params, kind) and ((params.m, params.n) if box else (params.dim,))
    if got != want:
        raise ValueError(f"{space.family} state space of shape {want} needs {kind.__name__} of the same shape, "
                         f"got {type(params).__name__}" + (f" of shape {got}" if got else ""))
    return kind


def assemble_model(space: StateSpace, params) -> ModelCoefficients:
    """Build the polynomial diffusion coefficients (a, b) for a family.

    Raises ValueError on structural violations (wrong family, bad shapes,
    negative box factors, pi with negative entries or nonzero diagonal).
    Inequality-type admissibility conditions are the validator's job.
    """
    _check_params(space, params)
    if isinstance(space, Quadric):
        d = space.dim
        p = space.inequalities[0] if space.orientation == "inside" else -space.inequalities[0]
        M = _quadric_c_tensor(space, params.gamma)
        a = [[p * params.alpha[i, j] + _summed(d, [(_exps(d, u, v), M[i, j, u, v])
                                                   for u in range(d) for v in range(d) if M[i, j, u, v] != 0.0])
              for j in range(d)] for i in range(d)]
        return ModelCoefficients(a, _linear_drift(params.beta, params.B))

    if isinstance(space, BoxOrthant):
        if np.any(params.gamma < 0.0):
            raise ValueError("box factors gamma must be nonnegative")
        if np.any(params.pi < 0.0) or np.any(np.diag(params.pi) != 0.0):
            raise ValueError("pi must be entrywise nonnegative with zero diagonal")
        m, n, d = space.m, space.n, space.dim
        gamma, alpha, phi, psi, pi = params.gamma, params.alpha, params.phi, params.psi, params.pi
        a = [[Polynomial.zero(d) for _ in range(d)] for _ in range(d)]
        for i in range(m):
            # gamma_i x_i (1 - x_i)
            a[i][i] = _summed(d, [(_exps(d, i), gamma[i]), (_exps(d, i, i), -gamma[i])])
        for j in range(n):
            cj = m + j
            # alpha_jj x_j^2 + x_j (phi_j + sum_i psi_ji x_i + sum_k pi_jk x_{m+k}), pi_jj = 0
            a[cj][cj] = _summed(d, [(_exps(d, cj, cj), alpha[j, j]), (_exps(d, cj), phi[j]),
                                    *((_exps(d, cj, i), psi[j, i]) for i in range(m)),
                                    *((_exps(d, cj, m + k), pi[j, k]) for k in range(n))])
            for k in range(j + 1, n):
                a[cj][m + k] = a[m + k][cj] = _summed(d, [(_exps(d, cj, m + k), alpha[j, k])])
        return ModelCoefficients(a, _linear_drift(params.beta, params.B))

    if isinstance(space, Simplex):
        d, alpha = space.dim, params.alpha
        # a_ii = sum_{j != i} alpha_ij x_i x_j and a_ij = -alpha_ij x_i x_j
        a = [[_summed(d, [(_exps(d, i, k), alpha[i, k]) for k in range(d) if k != i]) if j == i
              else _summed(d, [(_exps(d, i, j), -alpha[i, j])]) for j in range(d)] for i in range(d)]
        return ModelCoefficients(a, _linear_drift(params.beta, params.B))

    return params  # a full space's raw ModelCoefficients
