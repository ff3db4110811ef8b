"""Monomial basis construction, ordering, and coordinate maps."""

import math

import numpy as np
import pytest

from polydiff import (
    BoxOrthant,
    DegreeTooHigh,
    FullSpace,
    Polynomial,
    Quadric,
    Simplex,
    monomial_basis,
)
from polydiff.basis import monomial_exponents


def evaluate_by_loop(basis, x):
    """Reference for Basis.evaluate: one product of powers per monomial."""
    x = np.asarray(x, dtype=float)
    cols = []
    for e in basis.monomials:
        term = np.ones(x.shape[:-1])
        for i, k in enumerate(e):
            if k:
                term = term * x[..., i] ** k
        cols.append(term)
    return np.stack(cols, axis=-1)


class TestOrdering:
    def test_constant_first(self):
        for dim in (1, 2, 3):
            b = monomial_basis(FullSpace(dim), 3)
            assert b.monomials[0] == (0,) * dim

    def test_ascending_grlex(self):
        b = monomial_basis(FullSpace(2), 3)
        degrees = [sum(e) for e in b.monomials]
        assert degrees == sorted(degrees)
        # within a degree block, plain lexicographic on the exponent tuple
        assert b.monomials[:6] == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))

    def test_deterministic(self):
        a = monomial_basis(FullSpace(3), 4)
        b = monomial_basis(FullSpace(3), 4)
        assert a.monomials == b.monomials


class TestCounts:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("degree", [0, 1, 2, 4, 6])
    def test_full_space_size(self, dim, degree):
        b = monomial_basis(FullSpace(dim), degree)
        assert len(b) == math.comb(dim + degree, degree)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_simplex_size(self, dim, degree):
        # one coordinate is eliminated by the mass equality
        b = monomial_basis(Simplex(dim), degree)
        assert len(b) == math.comb(dim - 1 + degree, degree)

    def test_degree_zero(self):
        b = monomial_basis(FullSpace(5), 0)
        assert len(b) == 1
        assert b.monomials == ((0, 0, 0, 0, 0),)


class TestSimplexReduction:
    def test_degree_one_monomials(self):
        b = monomial_basis(Simplex(2), 1)
        assert b.monomials == ((0, 0), (1, 0))

    def test_eliminated_coordinate(self):
        # x2 = 1 - x1 on the 2-simplex
        b = monomial_basis(Simplex(2), 1)
        v = b.coordinates(Polynomial.variable(1, 2))
        assert v.tolist() == [1.0, -1.0]

    def test_eliminated_square(self):
        # x2^2 = 1 - 2 x1 + x1^2
        b = monomial_basis(Simplex(2), 2)
        v = b.coordinates(Polynomial.variable(1, 2) ** 2)
        p = b.polynomial(v)
        for x1 in (0.0, 0.3, 1.0):
            assert p([x1, 0.0]) == pytest.approx((1 - x1) ** 2, abs=1e-14)


class TestCoordinates:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        b = monomial_basis(FullSpace(2), 4)
        for _ in range(20):
            v = rng.standard_normal(len(b))
            w = b.coordinates(b.polynomial(v))
            assert np.array_equal(v, w)

    def test_evaluation_consistent(self):
        rng = np.random.default_rng(4)
        b = monomial_basis(FullSpace(3), 3)
        v = rng.standard_normal(len(b))
        p = b.polynomial(v)
        for _ in range(50):
            x = rng.uniform(-1, 1, size=3)
            assert abs(float(b.evaluate(x) @ v) - p(x)) < 1e-10

    def test_degree_too_high(self):
        b = monomial_basis(FullSpace(1), 2)
        with pytest.raises(DegreeTooHigh):
            b.coordinates(Polynomial.monomial((3,)))

    def test_dimension_mismatch(self):
        b = monomial_basis(FullSpace(2), 2)
        with pytest.raises(ValueError):
            b.coordinates(Polynomial.one(3))

    def test_batched_evaluate_shape(self):
        b = monomial_basis(FullSpace(2), 2)
        X = np.zeros((7, 5, 2))
        assert b.evaluate(X).shape == (7, 5, len(b))


class TestEvaluate:
    BASES = {
        "full3": lambda: monomial_basis(FullSpace(3), 4),
        "simplex4": lambda: monomial_basis(Simplex(4), 3),
        "full2_deg5": lambda: monomial_basis(FullSpace(2), 5),
        "full3_deg9": lambda: monomial_basis(FullSpace(3), 9),
    }

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_bit_identical_to_loop(self, name):
        basis = self.BASES[name]()
        rng = np.random.default_rng(12)
        X = rng.uniform(-1.7, 1.7, (6, 5, basis.dim))
        X[0, 0] = 0.0
        X[0, 1] = -0.0
        for x in (X, X[2], X[3, 4]):
            got, want = basis.evaluate(x), evaluate_by_loop(basis, x)
            assert np.array_equal(got, want)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def basis_csv_by_str(basis):
    """Basis.csv_text with one str() call per exponent: the byte reference."""
    return "\n".join(",".join(str(k) for k in e) for e in basis.monomials) + "\n"


class TestCsv:
    @pytest.mark.parametrize("name", sorted(TestEvaluate.BASES))
    def test_bytes_match_per_value_writer(self, name):
        basis = TestEvaluate.BASES[name]()
        assert basis.csv_text() == basis_csv_by_str(basis)


class TestExponentEnumeration:
    def test_free_variable_restriction(self):
        out = monomial_exponents(1, 2, 2)
        assert out == [(0, 0), (1, 0), (2, 0)]

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            monomial_exponents(2, 2, -1)


class TestRows:
    """Basis.rows is the closed-form rank that places the images in G."""

    SPACES = {
        "full": FullSpace,
        "quadric": lambda d: Quadric(np.eye(d)),
        "box_orthant": lambda d: BoxOrthant(d // 2, d - d // 2),
        "simplex": lambda d: Simplex(d + 1),  # d free coordinates
    }

    @pytest.mark.parametrize("family", sorted(SPACES))
    @pytest.mark.parametrize("free", [1, 2, 3, 4, 5, 6])
    def test_rank_of_each_monomial_is_its_position(self, family, free):
        for degree in range(9):
            basis = monomial_basis(self.SPACES[family](free), degree)
            assert basis.statespace.basis_variables == free
            assert np.array_equal(basis.rows(basis.exponents), np.arange(len(basis)))

    def test_rows_of_shuffled_exponents(self):
        basis = monomial_basis(Simplex(4), 5)
        perm = np.random.default_rng(5).permutation(len(basis))
        assert np.array_equal(basis.rows(basis.exponents[perm]), perm)
