"""Monomial bases of polynomial spaces over a state space.

The basis lists every monomial of total degree <= n in the free coordinates
of the state space, in ascending graded lexicographic order (constant first).
On the simplex the last coordinate is eliminated through the mass equality,
so its monomials only involve the first d-1 variables.
"""

from __future__ import annotations

import itertools

import numpy as np

from .polynomial import Exponents, Polynomial, grlex_key

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
    """Ordered monomial basis attached to a state space."""

    def __init__(self, statespace, degree: int, monomials: tuple[Exponents, ...] | None = None):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.statespace = statespace
        self.degree = int(degree)
        if monomials is None:
            monomials = tuple(monomial_exponents(statespace.basis_variables, statespace.dim, degree))
        self.monomials = tuple(monomials)
        self._index = {e: k for k, e in enumerate(self.monomials)}
        if len(self._index) != len(self.monomials):
            raise ValueError("duplicate monomials in basis")
        # the monomials as an N x dim int array, row k = monomials[k]
        self.exponents = np.array(self.monomials, dtype=np.int64).reshape(len(self.monomials), self.dim)
        # a monomial in a coordinate past basis_variables is not a representative
        eliminated = np.flatnonzero(self.exponents[:, statespace.basis_variables:].any(axis=1))
        if len(eliminated):
            raise ValueError(f"monomial {self.monomials[eliminated[0]]} involves a coordinate "
                             f"the {statespace.family} state space eliminates")

    @property
    def dim(self) -> int:
        return self.statespace.dim

    @property
    def size(self) -> int:
        return len(self.monomials)

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

    def coordinates(self, p: Polynomial) -> np.ndarray:
        """Coordinate vector of p (after reduction by the equality ideal)."""
        if p.dim != self.dim:
            raise ValueError(f"polynomial dimension {p.dim} != basis dimension {self.dim}")
        q = self.statespace.reduce(p)
        if q.degree > self.degree:
            raise DegreeTooHigh(f"degree {q.degree} exceeds basis degree {self.degree}")
        v = np.zeros(len(self.monomials))
        for e, c in q.terms.items():
            try:
                v[self._index[e]] = c
            except KeyError:
                raise DegreeTooHigh(f"monomial {e} not spanned by this basis") from None
        return v

    def polynomial(self, values) -> Polynomial:
        values = np.asarray(values, dtype=float)
        if values.shape != (len(self.monomials),):
            raise ValueError(f"coordinate vector must have shape ({len(self.monomials)},)")
        return Polynomial(self.dim, {e: v for e, v in zip(self.monomials, values) if v != 0.0})

    def csv_text(self) -> str:
        """One exponent vector per line, comma-separated."""
        return _csv_text(self.exponents)

    def __repr__(self):
        return f"Basis(dim={self.dim}, degree={self.degree}, size={len(self)})"


def monomial_basis(statespace, degree: int) -> Basis:
    """Basis of all polynomials of degree <= ``degree`` on the state space."""
    return Basis(statespace, degree)

