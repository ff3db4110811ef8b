"""Sparse multivariate polynomials with a fixed graded lexicographic order.

Exponent vectors are plain tuples of nonnegative ints, one entry per
coordinate.  Coefficients are floats and exact zeros are pruned on
construction; approximate cleanup is only ever done explicitly through
:meth:`Polynomial.chop`.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "Polynomial",
    "DivisionFailure",
    "divide_exact",
    "grlex_key",
]

Exponents = tuple[int, ...]


def grlex_key(exponents: Exponents) -> tuple[int, Exponents]:
    """Sort key realizing the graded lexicographic order (total degree first)."""
    return (sum(exponents), exponents)


class DivisionFailure(Exception):
    """Raised when no exact polynomial quotient exists under the fixed order."""


def _validate_exponents(e, dim: int) -> Exponents:
    t = tuple(int(k) for k in e)
    if len(t) != dim:
        raise ValueError(f"exponent vector {t} has length {len(t)}, expected {dim}")
    if any(k < 0 for k in t):
        raise ValueError(f"negative exponent in {t}")
    return t


class Polynomial:
    """Immutable sparse polynomial in ``dim`` real variables."""

    __slots__ = ("_dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[Iterable[int], float] | None = None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self._dim = int(dim)
        clean: dict[Exponents, float] = {}
        if terms:
            for e, c in terms.items():
                t = _validate_exponents(e, self._dim)
                c = float(c)
                if not math.isfinite(c):
                    raise ValueError(f"non-finite coefficient {c} for exponent {t}")
                if t in clean:
                    raise ValueError(f"duplicate exponent vector {t}")
                if c != 0.0:
                    clean[t] = c
        self._terms = clean

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value: float) -> "Polynomial":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def one(cls, dim: int) -> "Polynomial":
        return cls.constant(dim, 1.0)

    @classmethod
    def variable(cls, index: int, dim: int) -> "Polynomial":
        """The coordinate polynomial x_index (0-based)."""
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dim {dim}")
        e = [0] * dim
        e[index] = 1
        return cls(dim, {tuple(e): 1.0})

    @classmethod
    def monomial(cls, exponents: Iterable[int], coeff: float = 1.0, dim: int | None = None) -> "Polynomial":
        e = tuple(int(k) for k in exponents)
        return cls(len(e) if dim is None else dim, {e: coeff})

    # -- basic queries ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def terms(self) -> dict[Exponents, float]:
        """Copy of the term map (exponent tuple -> coefficient)."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def coefficient(self, exponents: Iterable[int]) -> float:
        return self._terms.get(_validate_exponents(exponents, self._dim), 0.0)

    def leading_term(self) -> tuple[Exponents, float]:
        """Largest term under graded lex.  Error on the zero polynomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self._terms, key=grlex_key)
        return e, self._terms[e]

    def variables_used(self) -> set[int]:
        used: set[int] = set()
        for e in self._terms:
            used.update(i for i, k in enumerate(e) if k > 0)
        return used

    def homogeneous_part(self, degree: int) -> "Polynomial":
        return Polynomial(self._dim, {e: c for e, c in self._terms.items() if sum(e) == degree})

    # -- arithmetic --------------------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self._dim != other._dim:
            raise ValueError(f"dimension mismatch: {self._dim} vs {other._dim}")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self._dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0.0) + c
        return Polynomial(self._dim, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self._dim, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self._dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(self._dim, {e: c * other for e, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        out: dict[Exponents, float] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0.0) + c1 * c2
        return Polynomial(self._dim, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = Polynomial.one(self._dim)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._dim == other._dim and self._terms == other._terms

    def __hash__(self):
        return hash((self._dim, frozenset(self._terms.items())))

    # -- calculus and evaluation ---------------------------------------------------

    def __call__(self, x):
        """Evaluate at a point of shape (dim,) or a batch of shape (..., dim)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self._dim,):
            raise ValueError(f"point has shape {x.shape}, expected trailing dim {self._dim}")
        out = np.zeros(x.shape[:-1])
        for e, c in self._terms.items():
            term = c
            for i, k in enumerate(e):
                if k:
                    term = term * x[..., i] ** k
            out = out + term
        return float(out) if out.ndim == 0 else out

    def partial(self, index: int) -> "Polynomial":
        """Partial derivative with respect to coordinate ``index``."""
        if not 0 <= index < self._dim:
            raise ValueError("index out of range")
        out: dict[Exponents, float] = {}
        for e, c in self._terms.items():
            k = e[index]
            if k:
                e2 = list(e)
                e2[index] = k - 1
                out[tuple(e2)] = c * k
        return Polynomial(self._dim, out)

    def grad(self) -> list["Polynomial"]:
        return [self.partial(i) for i in range(self._dim)]

    def hessian(self) -> list[list["Polynomial"]]:
        g = self.grad()
        return [[g[i].partial(j) for j in range(self._dim)] for i in range(self._dim)]

    def chop(self, eps: float) -> "Polynomial":
        """Drop terms with |coefficient| <= eps.  The only approximate cleanup."""
        return Polynomial(self._dim, {e: c for e, c in self._terms.items() if abs(c) > eps})

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        ordered = sorted(self._terms, key=grlex_key)
        return {"dim": self._dim, "terms": [{"e": list(e), "c": self._terms[e]} for e in ordered]}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Polynomial":
        if set(data) != {"dim", "terms"}:
            extra = set(data) - {"dim", "terms"}
            missing = {"dim", "terms"} - set(data)
            raise ValueError(f"polynomial object: unknown fields {sorted(extra)}, missing {sorted(missing)}")
        dim = data["dim"]
        if isinstance(dim, float) and dim.is_integer():
            dim = int(dim)  # JSON Schema's integers include 1.0
        if not isinstance(dim, int) or dim < 1:
            raise ValueError(f"polynomial dim must be a positive integer, got {dim!r}")
        terms: dict[Exponents, float] = {}
        for item in data["terms"]:
            if set(item) != {"e", "c"}:
                raise ValueError(f"polynomial term must have exactly fields 'e' and 'c': {item!r}")
            e = _validate_exponents(item["e"], dim)
            if e in terms:
                raise ValueError(f"duplicate exponent vector {list(e)} in polynomial terms")
            terms[e] = float(item["c"])
        return cls(dim, terms)

    def __repr__(self):
        return f"Polynomial({self._dim}, {self!s})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, key=grlex_key):
            c = self._terms[e]
            factors = [f"x{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k]
            if factors:
                body = "*".join(factors)
                parts.append(body if c == 1.0 else f"-{body}" if c == -1.0 else f"{c:g}*{body}")
            else:
                parts.append(f"{c:g}")
        return " + ".join(parts).replace("+ -", "- ")


def _term_arrays(p: Polynomial) -> tuple[np.ndarray, np.ndarray]:
    """The terms of p as arrays (exps: (m, dim) ints, coefs: m floats), in term order."""
    return np.array(list(p._terms), dtype=np.int64).reshape(-1, p.dim), np.array(list(p._terms.values()), dtype=float)


def _summed(exps: np.ndarray, coefs: np.ndarray) -> dict[Exponents, float]:
    """Coefficients of equal exponent rows summed in input order, starting from zero."""
    out: dict[Exponents, float] = {}
    for e, c in zip(map(tuple, exps.tolist()), coefs.tolist()):
        out[e] = out.get(e, 0.0) + c
    return out


def divide_exact(f: Polynomial, p: Polynomial) -> Polynomial:
    """Exact quotient h with f = h*p, by division under the graded lex order.

    One polynomial is a Groebner basis of the ideal it generates, so in exact
    arithmetic one division decides divisibility: p divides f if and only if
    every leading term met is a multiple of p's.  Leading terms are cancelled
    exactly by popping them before the divisor tail is subtracted, so round-off
    never stalls the descent in the monomial order; it can still leave a
    remainder, so :class:`DivisionFailure` is a cannot-certify signal, not a
    proof that no quotient exists.
    """
    if f.dim != p.dim:
        raise ValueError(f"dimension mismatch between dividend ({f.dim}) and divisor ({p.dim})")
    if p.is_zero():
        raise DivisionFailure("division by the zero polynomial")
    le, lc = p.leading_term()
    tail = [(e, c) for e, c in p._terms.items() if e != le]
    quotient: dict[Exponents, float] = {}
    work = dict(f._terms)
    while work:
        e = max(work, key=grlex_key)
        shift = tuple(a - b for a, b in zip(e, le))
        if min(shift) < 0:
            raise DivisionFailure(f"no exact quotient of ({f}) by ({p})")
        q = quotient[shift] = work.pop(e) / lc
        for ge, gc in tail:
            te = tuple(a + b for a, b in zip(ge, shift))
            work[te] = work.get(te, 0.0) - q * gc
            if work[te] == 0.0:
                del work[te]
    return Polynomial(f.dim, quotient)
