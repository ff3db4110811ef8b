"""Monomial bases of polynomial spaces over a state space.

The basis lists every monomial of total degree <= n in the free coordinates
of the state space, in ascending graded lexicographic order (constant first).
On the simplex the last coordinate is eliminated through the mass equality,
so its monomials only involve the first d-1 variables.
"""

from __future__ import annotations

import itertools

import numpy as np

from .polynomial import Exponents, Polynomial, _summed, grlex_key

__all__ = ["Basis", "DegreeTooHigh", "monomial_basis", "monomial_exponents"]


def _csv_text(rows: np.ndarray, header: str | None = None) -> str:
    """The optional header line, then one line per row of the 2-d array at 17
    significant digits (integers below 2**53 print as integers)."""
    fmt = ",".join(["%.17g"] * rows.shape[1])
    # one format operation per block of rows; the block bounds the Python floats alive at once
    blocks = (rows[start:start + 4096] for start in range(0, len(rows), 4096))
    chunks = ["\n".join([fmt] * len(block)) % tuple(block.ravel().tolist()) for block in blocks]
    return "\n".join(chunks if header is None else [header, *chunks]) + "\n"


class DegreeTooHigh(ValueError):
    """Polynomial does not live in the spanned space (degree above the bound)."""


def monomial_exponents(free_vars: int, dim: int, degree: int) -> list[Exponents]:
    """All exponent tuples of length ``dim`` over the first ``free_vars``
    coordinates with total degree <= ``degree``, ascending graded lex."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    out = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(free_vars), total):
            e = [0] * dim
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return sorted(out, key=grlex_key)


class Basis:
    """The graded monomial basis of Pol_n(E) in the free coordinates (module docstring)."""

    def __init__(self, statespace, degree: int):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.statespace = statespace
        self.degree = int(degree)
        m = statespace.basis_variables
        self.monomials = tuple(monomial_exponents(m, statespace.dim, self.degree))
        self._index = {e: k for k, e in enumerate(self.monomials)}
        # the monomials as an N x dim int array, row k = monomials[k]
        self.exponents = np.array(self.monomials, dtype=np.int64).reshape(len(self.monomials), self.dim)
        # total degree of each monomial, nondecreasing in graded order
        self.degrees = self.exponents.sum(axis=1)
        # C(r, k) for r < degree + m, k <= m: Pascal's rule summed down each column
        self._binom = np.zeros((self.degree + m, m + 1), dtype=np.int64)
        self._binom[:, 0] = 1
        for k in range(1, m + 1):
            self._binom[1:, k] = np.cumsum(self._binom[:-1, k - 1])

    @property
    def dim(self) -> int:
        return self.statespace.dim

    def __len__(self) -> int:
        return len(self.monomials)

    def evaluate(self, x) -> np.ndarray:
        """Basis vector H(x); batched input of shape (..., dim) gives (..., N)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"point shape {x.shape} does not end in dim {self.dim}")
        # each power x_i^k once, gathered per monomial and multiplied over i
        # in coordinate order; x_i^0 = 1 multiplies exactly
        out = np.ones(x.shape[:-1] + (len(self.monomials),))
        for i, col in enumerate(self.exponents.T):
            if col.any():
                powers = np.stack([np.ones(x.shape[:-1])] + [x[..., i] ** k for k in range(1, col.max() + 1)], axis=-1)
                out = out * powers[..., col]
        return out

    def rows(self, exps) -> np.ndarray:
        """Position of each exponent row, a basis monomial, in the basis.  With m free
        coordinates, t = |e| and r_k = t - sum_{l<k} e_l, it counts C(m+t-1, m) monomials
        of lower degree and sum_k C(r_k+m-k-1, m-k-1) - C(r_k-e_k+m-k-1, m-k-1) lex-below e."""
        m = self.statespace.basis_variables
        e = np.asarray(exps, dtype=np.int64)[:, :m]
        room = e.sum(axis=1)
        row = self._binom[room + m - 1, m]
        for k in range(m):
            row = row + self._binom[room + m - k - 1, m - k - 1] - self._binom[room - e[:, k] + m - k - 1, m - k - 1]
            room = room - e[:, k]
        return row

    def coordinates(self, p: Polynomial) -> np.ndarray:
        """Coordinate vector of p (after reduction by the equality ideal)."""
        if p.dim != self.dim:
            raise ValueError(f"polynomial dimension {p.dim} != basis dimension {self.dim}")
        return self.reduced_coordinates(self.statespace.reduce(p))

    def reduced_coordinates(self, q: Polynomial) -> np.ndarray:
        """Coordinate vector of q, a representative already reduced by the equality ideal."""
        if q.degree > self.degree:
            raise DegreeTooHigh(f"degree {q.degree} exceeds basis degree {self.degree}")
        v = np.zeros(len(self.monomials))
        for e, c in q.terms.items():
            v[self._index[e]] = c
        return v

    def polynomial(self, values) -> Polynomial:
        values = np.asarray(values, dtype=float)
        if values.shape != (len(self.monomials),):
            raise ValueError(f"coordinate vector must have shape ({len(self.monomials)},)")
        return _summed(self.dim, zip(self.monomials, values.tolist()))

    def csv_text(self) -> str:
        """One exponent vector per line, comma-separated."""
        return _csv_text(self.exponents)

    def __repr__(self):
        return f"Basis(dim={self.dim}, degree={self.degree}, size={len(self)})"


def monomial_basis(statespace, degree: int) -> Basis:
    """Basis of all polynomials of degree <= ``degree`` on the state space."""
    return Basis(statespace, degree)

