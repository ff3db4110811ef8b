"""Sparse multivariate polynomials with a fixed graded lexicographic order.

Exponent vectors are plain tuples of nonnegative ints, one entry per
coordinate.  Coefficients are floats and exact zeros are pruned on
construction.

Every polynomial is built by ``_summed``, which sums the coefficients of
equal exponents in input order and rejects a non-finite sum.  Exponents are
validated only where they come from outside the package: the public
constructor ``Polynomial(dim, terms)`` (and the classmethods that call it)
and ``Polynomial.from_json_dict``, which both reject coefficients that are
not real numbers by one check, ``_coefficient``; arithmetic, derivatives,
reductions and the generator trust the exponents they compute.

Evaluation at points has one implementation, ``_evaluator``: a family of
polynomials compiles once (and is cached by its terms) into a straight-line
program of ufunc calls over registers for the coordinates, their powers and
the distinct terms, each computed once.  A first call on a batch shape runs it
on new arrays; repeated calls on one shape, as in the Euler step, run it in
place on a preallocated register file.  ``Polynomial.__call__`` is that
evaluator over a single polynomial.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
    e = tuple(e)
    if bool in map(type, e):  # operator.index takes True for 1
        raise ValueError(f"exponent vector {e} has a boolean entry")
    try:
        t = tuple(map(operator.index, e))
    except TypeError:
        # integral floats pass, since JSON's integers include 1.0
        if not all(isinstance(k, numbers.Real) and float(k).is_integer() for k in e):
            raise ValueError(f"exponent vector {e} has an entry that is not an integral number") from None
        t = tuple(map(int, e))
    if len(t) != dim:
        raise ValueError(f"exponent vector {t} has length {len(t)}, expected {dim}")
    if any(k < 0 for k in t):
        raise ValueError(f"negative exponent in {t}")
    return t


def _coefficient(c, e: Exponents) -> float:
    """c as a float; ValueError unless it is a real number (a bool is not)."""
    if type(c) is not float and (isinstance(c, (bool, np.bool_)) or not isinstance(c, numbers.Real)):
        raise ValueError(f"coefficient {c!r} for exponent {e} is not a real number")
    return float(c)


class Polynomial:
    """Immutable sparse polynomial in ``dim`` real variables."""

    __slots__ = ("_dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[Iterable[int], float] | None = None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        dim = int(dim)
        checked: dict[Exponents, float] = {}
        for e, c in (terms or {}).items():
            t = _validate_exponents(e, dim)
            if t in checked:
                raise ValueError(f"duplicate exponent vector {t}")
            checked[t] = _coefficient(c, t)
        self._dim, self._terms = dim, _summed(dim, checked.items())._terms

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
        e = tuple(exponents)
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
        return _summed(self._dim, (t for t in self._terms.items() if sum(t[0]) == degree))

    # -- arithmetic --------------------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self._dim != other._dim:
            raise ValueError(f"dimension mismatch: {self._dim} vs {other._dim}")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = _summed(self._dim, [((0,) * self._dim, other)])
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        return _summed(self._dim, [*self._terms.items(), *other._terms.items()])

    __radd__ = __add__

    def __neg__(self):
        return _summed(self._dim, [(e, -c) for e, c in self._terms.items()])

    def __sub__(self, other):
        if not isinstance(other, (int, float, Polynomial)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return _summed(self._dim, [(e, c * other) for e, c in self._terms.items()])
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        return _summed(self._dim, [(tuple(map(operator.add, e1, e2)), c1 * c2)
                                   for e1, c1 in self._terms.items() for e2, c2 in other._terms.items()])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = Polynomial.zero(self._dim) + 1.0
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
        out = _evaluator([self])(x)[0]
        return float(out) if out.ndim == 0 else out

    def partial(self, index: int) -> "Polynomial":
        """Partial derivative with respect to coordinate ``index``."""
        if not 0 <= index < self._dim:
            raise ValueError("index out of range")
        return _summed(self._dim, [(e[:index] + (e[index] - 1,) + e[index + 1:], c * e[index])
                                   for e, c in self._terms.items() if e[index]])

    def grad(self) -> list["Polynomial"]:
        return [self.partial(i) for i in range(self._dim)]

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
            terms[e] = _coefficient(item["c"], e)
        return _summed(dim, terms.items())

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


def _evaluator(polys: Sequence[Polynomial]) -> Callable[[np.ndarray], Sequence[np.ndarray]]:
    """evaluate(x) -> [p(x) for p in polys] at a point (dim,) or a batch (..., dim).

    The one polynomial evaluator: ``polys`` compile into one straight-line
    program of ufunc calls (``_compiled``), which ``_Program`` runs.  Each value
    is c times the term's powers x_i**k for i ascending, term by term, summed
    onto zero; x_i**2 is x_i * x_i, as numpy's ``x ** 2``, and higher powers are
    ``np.power``.  Every value is an ndarray of shape x.shape[:-1] that no other
    value shares.  The first call on a batch shape returns new arrays; later
    calls on it return the rows of the program's register file, valid until the
    next call (see ``_Program``).
    """
    return _Program(_compiled(polys[0].dim, tuple(tuple(p._terms.items()) for p in polys)), len(polys))


class _Code(NamedTuple):
    """A compiled program; see ``_compiled``."""

    dim: int
    registers: int
    consts: tuple  # constant operands; index -1 is the last one
    code: tuple  # (power, a, b, out) over registers: a ** b if power else a * b
    sums: tuple  # (a, b, row): a + b into the row; a None is the row's own value
    fills: tuple  # (row, constant) of each constant polynomial
    copies: tuple  # (row, earlier row) of each repeated polynomial


# a program holds numbers only, so the garbage collector leaves the cached ones alone
@functools.lru_cache(maxsize=256)
def _compiled(dim: int, family: tuple) -> _Code:
    """The program of the polynomials whose term lists, in term order, are ``family``.

    Registers are the coordinates, then each distinct power and term in order
    of first use; the constants follow them, so a negative index finds one.
    Equal powers, terms and polynomials are computed once.  The key keeps the
    term order, which sets the order of the sums.
    """
    slot = {(i, 1): i for i in range(dim)}  # a power (i, k) or a term (e, c) -> its register
    consts = {0.0: -1}  # a constant -> its index, counted back from the end
    code, sums, fills, copies = [], [], [], []
    for i, k in sorted({ik for terms in family for e, _ in terms for ik in enumerate(e) if ik[1] > 1}):
        r = slot[i, k] = len(slot)
        code.append((False, i, i, r) if k == 2 else (True, i, consts.setdefault(float(k), -1 - len(consts)), r))
    done = {}  # a polynomial's terms -> its row
    for row, terms in enumerate(family):
        if terms in done:
            copies.append((row, done[terms]))
            continue
        done[terms] = row
        held = None  # the sum so far: None, a leading constant, or the row (True)
        for e, c in terms:
            factors = [slot[ik] for ik in enumerate(e) if ik[1]]
            if not factors:
                if held is None:
                    held = c
                    continue
                t = consts.setdefault(c, -1 - len(consts))
            elif c == 1.0 and len(factors) == 1:
                t = factors[0]
            else:
                t = slot.get((e, c))
                if t is None:
                    t = slot[e, c] = len(slot)
                    a = factors.pop(0) if c == 1.0 else consts.setdefault(c, -1 - len(consts))
                    for f in factors:
                        code.append((False, a, f, t))
                        a = t
            # the sum starts from zero (constant -1), which turns a leading -0.0 into 0.0
            if held is None:
                sums.append((t, -1, row))
            elif held is True:
                sums.append((None, t, row))
            else:
                sums.append((consts.setdefault(held, -1 - len(consts)), t, row))
            held = True
        if held is not True:
            fills.append((row, 0.0 if held is None else held))
    return _Code(dim, len(slot), tuple(consts)[::-1], tuple(code), tuple(sums), tuple(fills), tuple(copies))


def _frozen(v: float) -> np.ndarray:
    """v as a read-only 0-d array, a constant operand that ufuncs take faster than a float."""
    a = np.array(v)
    a.flags.writeable = False
    return a


class _Program:
    """A compiled program and the register file it runs on.

    A call whose batch shape differs from the last call's runs the program on
    new arrays and returns them.  A second call with the same shape binds the
    program to one preallocated register file, whose last rows hold the values
    in polynomial order, with the constant polynomials filled in once; from
    then on each call of that shape runs there in place, through ufuncs with
    ``out``, and returns that block of rows (at a point, a list of its 0-d
    rows), which the next call overwrites.  So a caller that evaluates many
    batches of one shape, such as the Euler step, binds once, and keeps a copy
    of whatever must outlive the next call.
    """

    __slots__ = ("_code", "_size", "_shape", "_run", "_coords", "_copies", "_values")

    def __init__(self, code: _Code, size: int):
        self._code, self._size = code, size
        self._shape = self._run = None

    def _bind(self, shape: tuple) -> None:
        c = self._code
        R = np.empty((c.registers + self._size,) + shape)
        regs = [R[r, ...] for r in range(c.registers)] + [_frozen(v) for v in c.consts]
        self._coords, self._values = R[:c.dim], R[c.registers:]
        rows = list(self._values) if shape else [self._values[k, ...] for k in range(self._size)]
        for row, v in c.fills:
            rows[row].fill(v)
        self._copies = [(rows[row], rows[src]) for row, src in c.copies]
        self._run = [(np.power if power else np.multiply, regs[a], regs[b], regs[o]) for power, a, b, o in c.code]
        self._run += [(np.add, rows[row] if a is None else regs[a], regs[b], rows[row]) for a, b, row in c.sums]

    def __call__(self, x):
        c = self._code
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (c.dim,):
            raise ValueError(f"point has shape {x.shape}, expected trailing dim {c.dim}")
        shape = x.shape[:-1]
        if shape != self._shape:
            self._shape, self._run = shape, None
            # Python's operators, which at a point take numpy's scalar arithmetic
            regs = [x[..., i] for i in range(c.dim)] + [None] * (c.registers - c.dim) + list(c.consts)
            for power, a, b, o in c.code:
                regs[o] = regs[a] ** regs[b] if power else regs[a] * regs[b]
            values = [None] * self._size
            for a, b, row in c.sums:
                values[row] = (values[row] if a is None else regs[a]) + regs[b]
            for row, v in c.fills:
                values[row] = np.full(shape, v)
            for row, src in c.copies:
                values[row] = values[src].copy()
            # at a point the sums are numpy scalars
            return values if shape else [np.asarray(v) for v in values]
        if self._run is None:
            self._bind(shape)
        np.copyto(self._coords, x.T if x.ndim <= 2 else np.moveaxis(x, -1, 0))
        for f, a, b, o in self._run:
            f(a, b, o)
        for dst, src in self._copies:
            np.copyto(dst, src)
        return self._values if shape else [self._values[k, ...] for k in range(self._size)]


def _term_arrays(p: Polynomial) -> tuple[np.ndarray, np.ndarray]:
    """The terms of p as arrays (exps: (m, dim) ints, coefs: m floats), in term order."""
    return np.array(list(p._terms), dtype=np.int64).reshape(-1, p.dim), np.array(list(p._terms.values()), dtype=float)


def _summed(dim: int, pairs: Iterable[tuple[Exponents, float]]) -> Polynomial:
    """The polynomial with the terms (e, c) of ``pairs``: the coefficients of
    equal exponents summed in input order, each sum starting from zero, and
    zero sums dropped, so the terms keep the order of first appearance.

    The one way terms become a polynomial.  A non-finite sum is a ValueError;
    the exponents are trusted to be tuples of ``dim`` nonnegative ints.
    """
    sums: dict[Exponents, float] = {}
    for e, c in pairs:
        sums[e] = sums.get(e, 0.0) + c
    terms: dict[Exponents, float] = {}
    for e, c in sums.items():
        if c != 0.0:
            c = float(c)
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient {c} for exponent {e}")
            terms[e] = c
    p = object.__new__(Polynomial)
    p._dim, p._terms = dim, terms
    return p


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
    return _summed(f.dim, quotient.items())
