import numpy as np
import pytest

from polydiff.polynomial import DivisionFailure, Polynomial, divide_exact, grlex_key


def x(i, dim):
    return Polynomial.variable(i, dim)


def random_poly(rng, dim, degree, n_terms=6, scale=10.0):
    p = Polynomial.zero(dim)
    for _ in range(n_terms):
        e = tuple(int(k) for k in rng.integers(0, degree + 1, size=dim))
        if sum(e) > degree:
            continue
        p = p + Polynomial.monomial(e, float(rng.uniform(-scale, scale)))
    return p


class TestConstruction:
    def test_zero_coefficients_pruned(self):
        p = Polynomial(2, {(1, 0): 0.0, (0, 1): 2.0})
        assert (1, 0) not in p.terms
        assert p.degree == 1

    def test_zero_degree_sentinel(self):
        assert Polynomial.zero(3).degree == -1

    def test_duplicate_exponents_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.from_json_dict({"dim": 1, "terms": [{"e": [1], "c": 1.0},
                                                           {"e": [1], "c": 2.0}]})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(1, {(-1,): 1.0})

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(1, {(1,): float("nan")})


class TestArithmetic:
    def test_add_cancellation(self):
        p = x(0, 1) + Polynomial.one(1)
        q = -1.0 * x(0, 1)
        assert (p + q) == Polynomial.one(1)

    def test_add_identity(self):
        p = x(0, 2) * x(1, 2) + 3.0
        assert p + Polynomial.zero(2) == p

    def test_add_coefficients(self):
        p = x(0, 1) ** 2 + 2.0 * x(0, 1)
        q = 3.0 * x(0, 1) ** 2 - 2.0 * x(0, 1)
        assert p + q == 4.0 * x(0, 1) ** 2

    def test_mul_difference_of_squares(self):
        p = x(0, 1) + 1.0
        q = x(0, 1) - 1.0
        assert p * q == x(0, 1) ** 2 - 1.0

    def test_mul_identity(self):
        p = 2.0 * x(0, 2) + x(1, 2) ** 2
        assert p * Polynomial.one(2) == p

    def test_square_binomial(self):
        p = x(0, 2) + x(1, 2)
        expected = x(0, 2) ** 2 + 2.0 * x(0, 2) * x(1, 2) + x(1, 2) ** 2
        assert p * p == expected

    def test_degree_additive_under_mul(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_poly(rng, 2, 3)
            q = random_poly(rng, 2, 2)
            if p.degree < 0 or q.degree < 0:
                continue
            assert (p * q).degree == p.degree + q.degree

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            x(0, 1) + x(0, 2)
        with pytest.raises(ValueError):
            x(0, 1) * x(0, 2)

    def test_distributivity_sampled(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            p = random_poly(rng, 3, 2)
            q = random_poly(rng, 3, 2)
            r = random_poly(rng, 3, 2)
            lhs = (p + q) * r
            rhs = p * r + q * r
            X = rng.uniform(-2, 2, size=(100, 3))
            a, b = lhs(X), rhs(X)
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12 * (1 + np.abs(a).max()))


class TestEvaluation:
    def test_monomial_at_point(self):
        p = x(0, 2) ** 2 * x(1, 2)
        assert p(np.array([2.0, 3.0])) == 12.0

    def test_constant(self):
        p = Polynomial.constant(3, 5.0)
        assert p(np.array([9.0, -2.0, 0.3])) == 5.0

    def test_unit_circle_point(self):
        p = Polynomial.one(2) - x(0, 2) ** 2 - x(1, 2) ** 2
        assert p(np.array([0.6, 0.8])) == pytest.approx(0.0, abs=1e-15)

    def test_batch_shape(self):
        p = x(0, 2) + x(1, 2)
        X = np.zeros((4, 5, 2))
        assert p(X).shape == (4, 5)


def full_array_eval(p, X):
    """Reference evaluation: every term starts from a full array of its coefficient."""
    X = np.asarray(X, dtype=float)
    out = np.zeros(X.shape[:-1])
    for e, c in p.terms.items():
        term = np.full(X.shape[:-1], c)
        for i, k in enumerate(e):
            if k:
                term = term * X[..., i] ** k
        out = out + term
    return float(out) if out.ndim == 0 else out


class TestEvaluationMatchesReference:
    """``__call__`` does the same multiplications and additions in the same
    order as the full-array reference, so the values agree bit for bit."""

    SHAPES = [(2048,), (16,), (3, 4), ()]

    def _check(self, p, X):
        got, want = p(X), full_array_eval(p, X)
        if np.ndim(X) == 1:
            assert type(got) is float and type(want) is float
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim,degree", [(1, 6), (2, 4), (3, 3)])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_random(self, dim, degree, shape):
        rng = np.random.default_rng([dim, degree, len(shape)])
        X = rng.uniform(-2.0, 2.0, size=shape + (dim,))
        for _ in range(5):
            self._check(random_poly(rng, dim, degree), X)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_constant_and_zero(self, shape):
        X = np.random.default_rng(1).uniform(-1.0, 1.0, size=shape + (2,))
        self._check(Polynomial.constant(2, -0.3), X)
        self._check(Polynomial.zero(2), X)

    def test_single_point_returns_float(self):
        p = random_poly(np.random.default_rng(2), 2, 4)
        for q in (p, Polynomial.constant(2, 1.5), Polynomial.zero(2)):
            value = q(np.array([0.25, -0.75]))
            assert type(value) is float
            assert value == full_array_eval(q, np.array([0.25, -0.75]))


class TestCalculus:
    def test_grad_product_monomial(self):
        p = x(0, 2) ** 2 * x(1, 2)
        g = p.grad()
        assert g[0] == 2.0 * x(0, 2) * x(1, 2)
        assert g[1] == x(0, 2) ** 2

    def test_grad_constant(self):
        g = Polynomial.constant(2, 4.0).grad()
        assert all(gi.is_zero() for gi in g)

    def test_grad_quadric(self):
        p = Polynomial.one(2) - x(0, 2) ** 2 - x(1, 2) ** 2
        g = p.grad()
        assert g[0] == -2.0 * x(0, 2)
        assert g[1] == -2.0 * x(1, 2)

    def test_hessian_cross_term(self):
        H = (x(0, 2) * x(1, 2)).hessian()
        assert H[0][0].is_zero() and H[1][1].is_zero()
        assert H[0][1] == Polynomial.one(2)
        assert H[1][0] == Polynomial.one(2)

    def test_hessian_linear_zero(self):
        H = (2.0 * x(0, 2) - x(1, 2) + 3.0).hessian()
        assert all(H[i][j].is_zero() for i in range(2) for j in range(2))

    def test_hessian_1d(self):
        H = (x(0, 1) ** 2).hessian()
        assert H[0][0] == Polynomial.constant(1, 2.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(10):
            p = random_poly(rng, 2, 4)
            g = p.grad()
            for _ in range(5):
                pt = rng.uniform(-1, 1, size=2)
                for i in range(2):
                    e = np.zeros(2)
                    e[i] = h
                    fd = (p(pt + e) - p(pt - e)) / (2 * h)
                    assert abs(fd - g[i](pt)) < 1e-5


class TestDivision:
    def test_cir_h(self):
        sigma2 = 1.7
        f = sigma2 * x(0, 1)
        h = divide_exact(f, x(0, 1))
        assert h == Polynomial.constant(1, sigma2)

    def test_zero_numerator(self):
        assert divide_exact(Polynomial.zero(2), x(0, 2)).is_zero()

    def test_product_recovery(self):
        ball = Polynomial.one(2) - x(0, 2) ** 2 - x(1, 2) ** 2
        other = Polynomial.constant(2, 3.0) + x(0, 2)
        h = divide_exact(ball * other, ball)
        assert h == other

    def test_failure_signals(self):
        with pytest.raises(DivisionFailure):
            divide_exact(x(0, 1) + 1.0, x(0, 1))

    def test_modulus_rewrite(self):
        # x1*x2 is divisible by x1 trivially; x2 alone needs the simplex relation
        mass = Polynomial.one(2) - x(0, 2) - x(1, 2)
        f = x(0, 2) - x(0, 2) ** 2  # = x1*(1-x1) = x1*x2 mod (1-x1-x2)
        h = divide_exact(f, x(0, 2), modulus=[mass])
        # verify f - h*x1 reduces to zero modulo the mass constraint
        assert not (f - h * x(0, 2)).is_zero() or h == Polynomial.one(2) - x(0, 2)
        resid = f - h * x(0, 2)
        if not resid.is_zero():
            q = divide_exact(resid, mass)
            assert q * mass == resid

    def test_remultiplication_random(self):
        # monic divisors with integer coefficients keep every reduction step
        # exact in floating point, so the round trip must be coefficient-exact
        rng = np.random.default_rng(11)
        for _ in range(10):
            tail = Polynomial.zero(2)
            for _ in range(3):
                e = tuple(int(k) for k in rng.integers(0, 2, size=2))
                tail = tail + Polynomial.monomial(e, float(rng.integers(-5, 6)))
            p = Polynomial.monomial((2, 0)) + tail
            h = Polynomial.zero(2)
            for _ in range(4):
                e = tuple(int(k) for k in rng.integers(0, 3, size=2))
                h = h + Polynomial.monomial(e, float(rng.integers(-5, 6)))
            got = divide_exact(h * p, p)
            assert got * p == h * p


class TestOrderingAndUtilities:
    def test_grlex_key_orders_by_degree_first(self):
        assert grlex_key((0, 2)) < grlex_key((3, 0))
        assert grlex_key((1, 1)) < grlex_key((2, 0))

    def test_leading_term(self):
        p = x(0, 2) ** 2 + x(0, 2) * x(1, 2) + 1.0
        e, c = p.leading_term()
        assert e == (2, 0) and c == 1.0

    def test_chop(self):
        p = x(0, 1) + Polynomial.constant(1, 1e-14)
        assert p.chop(1e-12) == x(0, 1)

    def test_homogeneous_part(self):
        p = x(0, 2) ** 2 + x(0, 2) + 5.0
        assert p.homogeneous_part(2) == x(0, 2) ** 2
        assert p.homogeneous_part(1) == x(0, 2)

    def test_json_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_poly(rng, 3, 3)
            q = Polynomial.from_json_dict(p.to_json_dict())
            assert q == p

    def test_json_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            Polynomial.from_json_dict({"dim": 2, "terms": [{"e": [1], "c": 1.0}]})
        with pytest.raises(ValueError):
            Polynomial.from_json_dict({"dim": 1, "terms": [{"e": [1], "c": 1.0, "x": 2}]})
