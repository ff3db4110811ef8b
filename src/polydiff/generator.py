"""Infinitesimal generator of a polynomial diffusion and closed-form moments.

A model is a pair of coefficient families: a symmetric matrix ``a`` of
polynomials of degree <= 2 and a drift vector ``b`` of polynomials of degree
<= 1.  The generator G f = tr(a Hess f)/2 + b . grad f maps polynomials of
degree <= n to polynomials of degree <= n, so on a monomial basis it is a
finite matrix and conditional moments are matrix exponentials:

    E[p(X_{t+tau}) | X_t = x] = H(x)' expm(tau G) pvec.

Because G maps Pol_k into Pol_k for every k, it is block upper-triangular by
degree on the graded basis, and expm(tau G) pvec only involves the leading
block of G on Pol_{deg p}.  GeneratorMatrix is the one owner of that choice:
propagate, expectation and integral_expectation (H' int_0^tau expm(sG) ds v,
from the Van Loan block of G and v) pick the block, and one private method
exponentiates it, for every moment, price and index weight of the package.
A degree bound such as the CLI's ``--degree`` caps the payoff degree but
does not size the exponential.

moment_by_ode cross-checks that route without it: a stepped Taylor series of
expm(tau G) p, with G p formed by Polynomial arithmetic on a and b, so no
coefficient table, basis or matrix is shared.

One closed form on term arrays (_image_terms, over a table of the coefficient
terms built with the model) serves G, G p, a grad p and the manifold check.

G depends on the model, the state space and the basis degree alone, so the
moment and pricing routes build basis and G through _basis_and_generator,
which keeps them in a process-wide least-recently-used cache keyed by value
and bounded in bytes.  The public generator_matrix always builds G afresh;
the tangency decision it shares with the condition checks, manifold_defects,
is kept by value in a second cache of the same kind.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

from .basis import Basis, DegreeTooHigh, _csv_text, monomial_basis
from .polynomial import Polynomial, _evaluator, _summed, _term_arrays

__all__ = [
    "ModelCoefficients",
    "GeneratorMatrix",
    "NotPolynomialOnE",
    "PointOutsideStateSpace",
    "a_grad",
    "apply_generator",
    "check_point",
    "generator_matrix",
    "manifold_defects",
    "matrix_exp",
    "conditional_moment",
    "joint_moment",
    "moment_by_ode",
]


class NotPolynomialOnE(ValueError):
    """The coefficients do not define a generator of the polynomial space on E."""


class PointOutsideStateSpace(ValueError):
    """Evaluation point violates the state-space constraints beyond tolerance."""


# G and a grad in closed form, one row (label, i, j, f, w) per coefficient term c x^f:
# it sends x^e to w e_i (e_j - same) x^(e + shift) in G x^e (label -1) or in
# (a grad x^e)_label, with same = delta_ij and shift = f - 1_i - 1_j.  A first-order
# row has j = d, a coordinate standing for the constant 1: e_j - same = 1, 1_j = 0.
_TermTable = namedtuple("_TermTable", "label i j same shift f w")


class ModelCoefficients:
    """Symmetric polynomial diffusion matrix ``a`` (degree <= 2) and affine
    drift ``b`` (degree <= 1) in a common dimension.

    Two models are equal when their coefficients list the same terms in the
    same order: term order is the order in which G sums them, so equal models
    have bit-identical generator matrices."""

    __slots__ = ("_a", "_b", "_dim", "_table", "_parts", "_key", "_hash")

    def __init__(self, a: Sequence[Sequence[Polynomial]], b: Sequence[Polynomial]):
        b = tuple(b)
        if not b:
            raise ValueError("empty drift vector")
        d = b[0].dim
        if len(b) != d or any(p.dim != d for p in b):
            raise ValueError("drift must be a d-vector of polynomials in d variables")
        a = tuple(tuple(row) for row in a)
        if len(a) != d or any(len(row) != d for row in a):
            raise ValueError("diffusion matrix must be d x d")
        if any(p.dim != d for row in a for p in row):
            raise ValueError("diffusion entries must live in the model dimension")
        # every coefficient term (i, j, e, c) of a, row by row; the checks run on these rows
        terms = [(i, j, e, c) for i, row in enumerate(a) for j, p in enumerate(row) for e, c in p.terms.items()]
        coef = {(i, j, e): c for i, j, e, c in terms}
        # the first fault in row-major order, symmetry before degree within an entry:
        # a term of a_ij without its equal in a_ji makes both entries asymmetric
        faults = [(min((i, j), (j, i)), 0) for i, j, e, c in terms if coef.get((j, i, e)) != c]
        faults += [((i, j), 1) for i, j, e, c in terms if sum(e) > 2]
        if faults:
            (i, j), rank = min(faults)
            raise ValueError(f"diffusion entry ({i},{j}) has degree {a[i][j].degree} > 2" if rank else
                             f"diffusion matrix not symmetric at ({i},{j})")
        b_terms = [(i, e, c) for i, p in enumerate(b) for e, c in p.terms.items()]
        if over := [i for i, e, c in b_terms if sum(e) > 1]:
            raise ValueError(f"drift entry {over[0]} has degree {b[over[0]].degree} > 1")
        self._a, self._b, self._dim = a, b, d
        # rows of G first: b_i gives (-1, i, d, f, c) and a_ij, i <= j, gives (-1, i, j, f, w)
        # with w = c/2 on the diagonal and w = c off it, where a_ij and a_ji give c/2 each
        g_rows = [(-1, i, d, f, c) for i, f, c in b_terms]
        g_rows += [(-1, i, j, f, (0.5 if i == j else 1.0) * c) for i, j, f, c in terms if i <= j]
        # then a grad by component: a_kj gives (k, j, d, f, c)
        rows = g_rows + [(k, j, d, f, c) for k, j, f, c in terms]
        # by column: numpy parses a list of ints far faster than a list of tuples
        label, i, j, f, w = list(zip(*rows)) or [()] * 5
        label, i, j = (np.array(c, dtype=np.int64) for c in (label, i, j))
        f = np.fromiter(chain.from_iterable(f), np.int64, len(rows) * d).reshape(len(rows), d)
        unit = np.eye(d + 1, d, dtype=np.int64)  # row d is zero
        self._table = _TermTable(label, i, j, (i == j)[:, None].astype(np.int64), f - unit[i] - unit[j], f,
                                 np.array(w, dtype=float))
        # the table lists every coefficient term in order, so it is the model's value
        t = self._table
        self._key = (d, t.label.tobytes(), t.i.tobytes(), t.j.tobytes(), t.f.tobytes(), t.w.tobytes())
        self._hash = hash(self._key)
        # the table and its two parts as views, each with the labels of its rows
        split = len(g_rows)
        self._parts = {None: (self._table, range(-1, d)),
                       "G": (_TermTable(*(c[:split] for c in self._table)), range(-1, 0)),
                       "a grad": (_TermTable(*(c[split:] for c in self._table)), range(0, d))}

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def a(self) -> tuple[tuple[Polynomial, ...], ...]:
        return self._a

    @property
    def b(self) -> tuple[Polynomial, ...]:
        return self._b

    def a_eval(self, x) -> np.ndarray:
        """Diffusion matrix at x, exactly symmetric; batch shape (..., d) gives (..., d, d)."""
        x = np.asarray(x, dtype=float)
        d = self._dim
        upper = [(i, j) for i in range(d) for j in range(i, d)]
        out = np.empty(x.shape[:-1] + (d, d))
        for (i, j), v in zip(upper, _evaluator([self._a[i][j] for i, j in upper])(x)):
            out[..., i, j] = out[..., j, i] = v
        return out

    def b_eval(self, x) -> np.ndarray:
        return np.stack(_evaluator(self._b)(x), axis=-1)

    def __eq__(self, other):
        if not isinstance(other, ModelCoefficients):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ModelCoefficients(dim={self._dim})"


def _image_terms(table: _TermTable, exps: np.ndarray, coefs: np.ndarray):
    """The closed form on term arrays: row t of the table sends the term c x^e
    at index ``source`` to w_t (c factor) x^(e + shift_t), with the integer
    factor e_i (e_j - same_t).  Returns the unsummed image terms (row, source,
    exps, values), ordered by row and then by source, without zero factors."""
    t, (n, d) = table, exps.shape
    E = np.ones((d + 1, n), dtype=np.int64)
    E[:d] = exps.T
    factor = E[t.i] * (E[t.j] - t.same)
    row, source = np.nonzero(factor)
    with np.errstate(over="ignore", invalid="ignore"):  # callers reject non-finite values
        values = t.w[row] * (coefs[source] * factor[row, source])
    return row, source, exps[source] + t.shift[row], values


def _images(model: ModelCoefficients, p: Polynomial, space=None, part: str | None = None) -> list[Polynomial]:
    """[G p, (a grad p)_0, ..., (a grad p)_{d-1}]: the image terms of each label summed
    in order, after StateSpace.reduce_terms when a state space is given.  ``part``
    "G" or "a grad" runs the closed form on that part's table rows and returns its entries."""
    if p.dim != model.dim:
        raise ValueError(f"polynomial dimension {p.dim} != model dimension {model.dim}")
    table, labels = model._parts[part]
    row, _, exps, values = _image_terms(table, *_term_arrays(p))
    if space is not None:
        exps, values, source = space.reduce_terms(exps, values)
        row = row[source]
    # the rows are ordered by label, so each label's terms are one slice
    cut = np.searchsorted(table.label[row], np.arange(labels.start, labels.stop + 1)).tolist()
    exps, values = list(map(tuple, exps.tolist())), values.tolist()
    return [_summed(model.dim, zip(exps[lo:hi], values[lo:hi])) for lo, hi in zip(cut, cut[1:])]


def apply_generator(model: ModelCoefficients, p: Polynomial) -> Polynomial:
    """G p = tr(a Hess p)/2 + b . grad p."""
    return _images(model, p, part="G")[0]


def a_grad(model: ModelCoefficients, p: Polynomial) -> list[Polynomial]:
    """The vector a grad p."""
    return _images(model, p, part="a grad")


def _max_coeff(p: Polynomial) -> float:
    return max((abs(c) for c in p.terms.values()), default=0.0)


def manifold_defects(model: ModelCoefficients, space) -> list[tuple]:
    """For each equality q of the state space, (q, drift, diffusion): drift is
    the reduced G q and diffusion the first (i, reduced (a grad q)_i) that does
    not vanish on the manifold, each None when it does.  A reduced residual
    vanishes when its coefficients are below 1e-12 times one plus the largest
    model coefficient, so rounding in the parameters is not a defect.

    The reduction runs once per (model, space) by value: its result is kept in
    _defects, a cache bounded like that of _basis_and_generator but apart from
    it, under the model and the space's type, dimension and spec_dict().  Each
    call returns a new list; a reduction that raises is not stored."""
    if not space.equalities:
        return []
    key = (model, type(space), space.dim, repr(space.spec_dict()))
    found = _defects.get(key)
    if found is None:
        found = _defects.put(key, tuple(_reduced_defects(model, space)), _ENTRY_BYTES)
    return list(found)


def _reduced_defects(model: ModelCoefficients, space) -> list[tuple]:
    """manifold_defects without the cache."""
    # the first-order rows carry the model's coefficients as given: b in G, a in a grad
    tol = 1e-12 * (1.0 + np.abs(model._table.w[model._table.j == model.dim]).max(initial=0.0))
    out = []
    for q in space.equalities:
        gq, *agq = _images(model, q, space)
        drift = gq if _max_coeff(gq) > tol else None
        diffusion = next(((i, r) for i, r in enumerate(agq) if _max_coeff(r) > tol), None)
        out.append((q, drift, diffusion))
    return out


def check_point(statespace, x) -> np.ndarray:
    """The conditioning point as a float vector of the state-space dimension.

    Raises ValueError on a wrong shape and PointOutsideStateSpace when a
    coordinate is not finite or the point violates the constraints."""
    x = np.asarray(x, dtype=float)
    if x.shape != (statespace.dim,):
        raise ValueError(f"state must have shape ({statespace.dim},)")
    if not (np.isfinite(x).all() and statespace.contains(x)):
        raise PointOutsideStateSpace(f"point {x.tolist()} violates constraints beyond tolerance")
    return x


@dataclass
class GeneratorMatrix:
    """Matrix of the generator on a monomial basis (columns are images)."""

    basis: Basis
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        n = len(self.basis)
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({n}, {n})")

    def propagator(self, tau: float) -> np.ndarray:
        """expm(tau G) on the whole basis, the dense reference for propagate."""
        return self._exp(tau, len(self.basis), lambda E: E)

    def leading(self, v) -> int:
        """n_m, the number of basis monomials of degree <= m, where m is the
        degree of the last nonzero entry of v (0 when v = 0).  G maps Pol_m
        into Pol_m, so G[n_m:, :n_m] = 0 and v only meets the leading block."""
        nonzero = np.flatnonzero(v)
        degrees = self.basis.degrees
        m = degrees[nonzero[-1]] if nonzero.size else 0
        return int(np.searchsorted(degrees, m, side="right"))

    def propagate(self, tau: float, v) -> np.ndarray:
        """expm(tau G) v as expm(tau G[:n, :n]) v[:n] for n = leading(v),
        padded with exact zeros."""
        v = np.asarray(v, dtype=float)
        n = self.leading(v)
        out = np.zeros(len(v))
        out[:n] = self._exp(tau, n, lambda E: E @ v[:n])
        return out

    def expectation(self, H, tau: float, v) -> float:
        """H(x)' expm(tau G) v: the expectation at tau of the polynomial with
        coordinates v, given the basis row H = H(x) of a checked point x."""
        n = self.leading(v)
        return float(self._exp(tau, n, lambda E: H[:n] @ (E @ v[:n])))

    def integral_expectation(self, H, tau: float, v) -> float:
        """H(x)' (int_0^tau expm(s G) ds) v: the expectation of the polynomial
        with coordinates v integrated over [0, tau], given H = H(x) as above."""
        n = self.leading(v)
        return float(self._exp(tau, n, lambda E: H[:n] @ E[:n, n], column=v[:n]))

    def _exp(self, tau: float, n: int, apply, column=None):
        """apply(expm(tau A)) for the leading block A = G[:n, :n] or, given a
        column c, for the Van Loan block A = [[G[:n, :n], c], [0, 0]], whose
        exponential holds int_0^tau expm(s G[:n, :n]) ds c above its corner
        (IEEE TAC 1978).  Every exponential of G is formed here.  A huge finite
        tau overflows tau A to inf, which is an OverflowError naming tau; the
        caller reports a non-finite applied value."""
        A = self.matrix[:n, :n]
        if column is not None:
            A = np.zeros((n + 1, n + 1))
            A[:n, :n] = self.matrix[:n, :n]
            A[:n, n] = column
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                E = matrix_exp(tau * A)
            except ValueError:
                if math.isfinite(tau) and np.isfinite(A).all():  # only the product left the doubles
                    raise OverflowError(f"tau = {tau:g} times the generator overflows "
                                        "the floating-point range") from None
                raise
            return apply(E)

    def csv_text(self) -> str:
        """Row-major CSV with monomial-exponent headers."""
        header = ",".join("x" + " ".join(str(k) for k in e) for e in self.basis.monomials)
        return _csv_text(self.matrix, header)


def generator_matrix(model: ModelCoefficients, basis: Basis) -> GeneratorMatrix:
    """Represent the generator on the basis, reducing by the equality ideal.

    With equalities, G must be well defined on the quotient: G q and a grad q
    have to vanish on the manifold for each equality q (manifold_defects), or
    NotPolynomialOnE is raised.  The columns G x^e are the image terms of the
    basis monomials under the G rows of the coefficient table, whose terms are
    rewritten into representatives first (StateSpace.reduce_terms, a ring
    homomorphism, so it commutes with forming the images).  Each image term is
    a basis monomial, placed by its rank (Basis.rows): deg a <= 2, deg b <= 1, a
    nonzero factor needs e_i > 0 (and e_j > 0), and no term has an eliminated coordinate."""
    space = basis.statespace
    if model.dim != space.dim:
        raise ValueError("model and basis dimensions differ")
    for q, drift, diffusion in manifold_defects(model, space):
        if drift is not None:
            raise NotPolynomialOnE(f"G q = {drift} does not vanish on the manifold (q = {q})")
        if diffusion is not None:
            raise NotPolynomialOnE(f"(a grad q)_{diffusion[0]} does not vanish on the manifold (q = {q})")
    t, _ = model._parts["G"]
    f, w, source = space.reduce_terms(t.f, t.w)
    n = len(basis)
    # each reduced term keeps its row's derivative, so shift moves with f
    table = _TermTable(*(c[source] for c in t[:4]), f + (t.shift - t.f)[source], f, w)
    _, col, target, value = _image_terms(table, basis.exponents, np.ones(n))  # an overflow raises below
    G = np.bincount(basis.rows(target) * n + col, weights=value, minlength=n * n).reshape(n, n)
    if not np.all(np.isfinite(G)):
        raise ValueError("generator matrix entries overflow the floating-point range")
    return GeneratorMatrix(basis, G)


# The cache of _basis_and_generator holds at most this many bytes.  Each entry is
# charged its G plus _ENTRY_BYTES for the basis, model and key it keeps alive.
_CACHE_BYTES = 1 << 20
_ENTRY_BYTES = 16 << 10


class _ByteLRU:
    """A least-recently-used map holding at most ``budget`` bytes: each value is
    stored with its size, the oldest entries go first, and a value larger than
    the whole budget is not kept.  The bookkeeping runs under a lock."""

    def __init__(self, budget: int):
        self.budget, self.held = budget, 0
        self._entries: OrderedDict = OrderedDict()  # key -> (value, nbytes)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The value stored under key, or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key, value, nbytes: int):
        """Store value under key unless it is too large, and return the stored
        value: the earlier one when key is already present."""
        with self._lock:
            if key in self._entries:
                return self._entries[key][0]
            if nbytes <= self.budget:
                self._entries[key] = (value, nbytes)
                self.held += nbytes
                while self.held > self.budget:
                    self.held -= self._entries.popitem(last=False)[1][1]
            return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.held = 0


_cache = _ByteLRU(_CACHE_BYTES)
# manifold_defects' results, each charged _ENTRY_BYTES, kept apart so that _cache holds G's alone
_defects = _ByteLRU(_CACHE_BYTES)


def _basis_and_generator(model: ModelCoefficients, statespace, degree: int) -> tuple[Basis, GeneratorMatrix]:
    """monomial_basis(statespace, degree) and its generator_matrix, shared through a
    process-wide cache.

    The key is by value: the model's terms, the state space's type, dimension
    and spec_dict(), and the degree, so equal models on equal spaces share one
    entry, and a model on a space of another dimension still fails its build.
    The arrays of the pair are read-only.  A build that raises is not stored,
    so a repeat call raises the same exception again."""
    key = (model, type(statespace), statespace.dim, repr(statespace.spec_dict()), degree)
    try:
        found = _cache.get(key)
    except TypeError:  # an unhashable argument: build without the cache, and fail as that does
        key = found = None
    if found is not None:
        return found
    basis = monomial_basis(statespace, degree)
    gm = generator_matrix(model, basis)
    for array in (gm.matrix, basis.exponents, basis.degrees, basis._binom):
        array.flags.writeable = False
    return (basis, gm) if key is None else _cache.put(key, (basis, gm), gm.matrix.nbytes + _ENTRY_BYTES)


def matrix_exp(A) -> np.ndarray:
    """Matrix exponential (scaling and squaring with Pade order 13).

    Raises ValueError for a non-square or non-finite A, and OverflowError when
    the result leaves the floating-point range.  Both checks are needed: expm
    maps some non-finite inputs, such as [[-inf]], to finite outputs."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix_exp needs a square matrix")
    if not np.isfinite(A).all():
        raise ValueError("matrix_exp needs finite entries")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        out = scipy.linalg.expm(A)
    if not np.isfinite(out).all():
        raise OverflowError("matrix exponential overflowed the floating-point range")
    return out


def conditional_moment(model: ModelCoefficients, statespace, degree: int, p: Polynomial, x, tau: float) -> float:
    """E[p(X_{t+tau}) | X_t = x] through the generator-matrix exponential.

    ``degree`` bounds the payoff degree (DegreeTooHigh above it); the
    generator is built and exponentiated on Pol_{deg p} alone."""
    if not 0.0 <= tau < math.inf:
        raise ValueError("tau must be finite and >= 0")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    x = check_point(statespace, x)
    q = statespace.reduce(p)
    if q.degree > degree:
        raise DegreeTooHigh(f"degree {q.degree} exceeds basis degree {degree}")
    basis, gm = _basis_and_generator(model, statespace, max(q.degree, 0))
    return gm.expectation(basis.evaluate(x), tau, basis.reduced_coordinates(q))


def joint_moment(
    model: ModelCoefficients,
    statespace,
    degree: int,
    x,
    times: Sequence[float],
    exponents: Sequence[Iterable[int]],
) -> float:
    """E[prod_k X_{t_k}^{alpha_k} | X_0 = x] by backward iteration.

    Times must be finite, nonnegative and nondecreasing; each iterated product must
    stay inside the degree bound or DegreeTooHigh is raised.
    """
    times = [float(t) for t in times]
    exps = [tuple(int(k) for k in e) for e in exponents]
    if len(times) != len(exps) or not times:
        raise ValueError("times and exponents must be equal-length and nonempty")
    if not all(0.0 <= t < math.inf for t in times) or any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("times must be finite, nonnegative and nondecreasing")
    x = check_point(statespace, x)
    basis, gm = _basis_and_generator(model, statespace, degree)
    v = basis.coordinates(Polynomial.monomial(exps[-1], dim=statespace.dim))
    for k in range(len(times) - 1, 0, -1):
        v = gm.propagate(times[k] - times[k - 1], v)
        carried = basis.polynomial(v) * Polynomial.monomial(exps[k - 1], dim=statespace.dim)
        v = basis.coordinates(carried)
    return gm.expectation(basis.evaluate(x), times[0], v)


def _apply_generator_by_arithmetic(model: ModelCoefficients, p: Polynomial) -> Polynomial:
    """G p = tr(a Hess p)/2 + b . grad p by Polynomial arithmetic, without the coefficient table."""
    if p.dim != model.dim:
        raise ValueError(f"polynomial dimension {p.dim} != model dimension {model.dim}")
    d = model.dim
    grad = p.grad()
    out = Polynomial.zero(d)
    for i in range(d):
        if not grad[i].is_zero():
            out = out + model.b[i] * grad[i]
        for j in range(d):
            hij = grad[i].partial(j)
            if not hij.is_zero():
                out = out + 0.5 * model.a[i][j] * hij
    return out


_ORACLE_MAX_STEPS = 1000  # moment_by_ode's most series steps; a longer horizon is a ValueError


def moment_by_ode(model: ModelCoefficients, statespace, degree: int, p: Polynomial, x, tau: float) -> float:
    """Independent moment evaluation: u = expm(tau G) p stepped as a polynomial, then u(x).

    Each of m = ceil(tau rate / 2) steps is u <- sum_{k <= K} h^k/k! G^k u, with G u by
    Polynomial arithmetic on a and b, so no coefficient table, basis or matrix takes part.
    rate = n max_i |b_i|_1 + n (n - 1)/2 max_ij |a_ij|_1 bounds the column 1-norms of G on
    Pol_n, n = deg p, and K puts the tail bound s^(K+1)/(K+1)! e^s, s = h rate, below 2^-53.
    p needs no reduction: G maps Pol_n(R^d) into itself and x lies on E."""
    if not 0.0 <= tau < math.inf:
        raise ValueError("tau must be finite and >= 0")
    x = check_point(statespace, x)
    if (q := statespace.reduce(p)).degree > degree:
        raise DegreeTooHigh(f"degree {q.degree} exceeds basis degree {degree}")
    n = max(p.degree, 0)
    b1 = max(sum(map(abs, f.terms.values())) for f in model.b)
    a1 = max(sum(map(abs, f.terms.values())) for row in model.a for f in row)
    rate = n * b1 + n * (n - 1) / 2 * a1
    if tau * rate / 2 > _ORACLE_MAX_STEPS:
        raise ValueError(f"tau = {tau} needs {tau * rate / 2:.3g} moment-oracle steps, more than {_ORACLE_MAX_STEPS}")
    m = math.ceil(tau * rate / 2)
    s = tau * rate / m if m else 0.0
    K = next(k for k in count() if s ** (k + 1) / math.factorial(k + 1) * math.exp(s) <= 2.0 ** -53)
    u = p
    for _ in range(m):
        term = u
        for k in range(1, K + 1):
            term = _apply_generator_by_arithmetic(model, term) * (tau / m / k)
            u = u + term
    with np.errstate(over="ignore", invalid="ignore"):  # the caller reports a non-finite value
        return u(x)
