import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polydiff.polynomial
from polydiff.basis import monomial_basis
from polydiff.generator import _images
from polydiff.polynomial import DivisionFailure, Polynomial, divide_exact, grlex_key
from polydiff.statespace import (BoxOrthant, BoxOrthantParams, Quadric, QuadricParams, Simplex, SimplexParams,
                                 assemble_model, skew_symmetric_basis)

from conftest import cir_model
from test_statespace import PROPERTY, small_polynomials


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

    @pytest.mark.parametrize("k", [1.5, -0.5, 1e-300, float("inf"), float("-inf"), float("nan"), "1", None])
    def test_non_integral_exponent_rejected(self, k):
        with pytest.raises(ValueError, match="not an integral number"):
            Polynomial(2, {(k, 0): 2.0})
        with pytest.raises(ValueError, match="not an integral number"):
            Polynomial.from_json_dict({"dim": 2, "terms": [{"e": [0, k], "c": 2.0}]})
        with pytest.raises(ValueError, match="not an integral number"):
            Polynomial.monomial((k,))

    def test_integral_float_exponents_read_as_ints(self):
        # JSON's integers include 1.0, so integral floats are exponents
        for p in (Polynomial(2, {(1.0, np.float64(2.0)): 3.0}), Polynomial.monomial((1.0, 2), 3.0),
                  Polynomial.from_json_dict({"dim": 2, "terms": [{"e": [1.0, 2], "c": 3.0}]})):
            assert list(p.terms.items()) == [((1, 2), 3.0)]
            assert [type(k) for k in next(iter(p.terms))] == [int, int]
        with pytest.raises(ValueError, match="duplicate"):
            Polynomial.from_json_dict({"dim": 1, "terms": [{"e": [1], "c": 1.0}, {"e": [1.0], "c": 2.0}]})

    def test_string_coefficient_rejected(self):
        with pytest.raises(ValueError, match="not a real number"):
            Polynomial(1, {(1,): "2.5"})

    @pytest.mark.parametrize("c", [True, False, np.True_])
    def test_bool_coefficient_rejected(self, c):
        with pytest.raises(ValueError, match="not a real number"):
            Polynomial(1, {(1,): c})

    @pytest.mark.parametrize("c", [1 + 2j, np.complex128(1.0), None, [1.0], np.array([1.0])])
    def test_other_non_real_coefficient_rejected(self, c):
        with pytest.raises(ValueError, match="not a real number"):
            Polynomial(1, {(1,): c})

    @pytest.mark.parametrize("k", [True, False])
    def test_bool_exponent_rejected(self, k):
        with pytest.raises(ValueError, match="boolean"):
            Polynomial(2, {(k, 1): 1.0})

    def test_numpy_scalars_pass(self):
        p = Polynomial(2, {(np.int64(1), 0): np.float64(1.5), (0, 2.0): np.int32(2), (0, 0): np.float32(0.25)})
        assert list(p.terms.items()) == [((1, 0), 1.5), ((0, 2), 2.0), ((0, 0), 0.25)]
        assert all(type(c) is float for c in p.terms.values())


# dyadic coefficients k/8 with |k| <= 16 on few, low-degree terms: every sum and
# product the ring laws form is exact in floating point
dyadic_polynomials = st.integers(1, 3).flatmap(lambda d: st.lists(
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * d), st.integers(-16, 16).map(lambda k: k / 8), max_size=5)
    .map(lambda terms: Polynomial(d, terms)), min_size=3, max_size=3))


class TestRingLaws:
    @settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @given(dyadic_polynomials)
    def test_ring_laws_hold_exactly(self, pqr):
        p, q, r = pqr
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p - p).is_zero() and p - p == Polynomial.zero(p.dim)


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

    def test_zero_dividend_dimension_mismatch(self):
        with pytest.raises(ValueError):
            divide_exact(Polynomial.zero(3), x(0, 2))

    def test_modulus_rewrite(self):
        # x1 - x1^2 = x1*(1 - x1), which is x1*x2 on the simplex
        f = x(0, 2) - x(0, 2) ** 2
        space = Simplex(2)
        h = space.divide(f, x(0, 2))
        assert h == Polynomial.one(2) - x(0, 2)
        assert space.reduce(f - h * x(0, 2)).is_zero()

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


def unit_leading(p, sign):
    e, c = p.leading_term()
    return p + Polynomial(p.dim, {e: sign - c})


# integer coefficients and a leading coefficient of +-1 keep every step of the
# division exact, so the round trip holds with ==
division_cases = st.integers(1, 4).flatmap(lambda d: st.tuples(
    small_polynomials(d, 3, 8),
    st.builds(unit_leading, small_polynomials(d, 2, 8).filter(lambda p: not p.is_zero()),
              st.sampled_from([-1.0, 1.0]))))


class TestDivisionProperties:
    @PROPERTY
    @given(division_cases)
    def test_round_trip(self, case):
        h, p = case
        assert divide_exact(h * p, p) == h


class TestOrderingAndUtilities:
    def test_grlex_key_orders_by_degree_first(self):
        assert grlex_key((0, 2)) < grlex_key((3, 0))
        assert grlex_key((1, 1)) < grlex_key((2, 0))

    def test_leading_term(self):
        p = x(0, 2) ** 2 + x(0, 2) * x(1, 2) + 1.0
        e, c = p.leading_term()
        assert e == (2, 0) and c == 1.0

    def test_homogeneous_part(self):
        p = x(0, 2) ** 2 + x(0, 2) + 5.0
        assert p.homogeneous_part(2) == x(0, 2) ** 2
        assert p.homogeneous_part(1) == x(0, 2)

    def test_str_prints_unit_coefficients_bare(self):
        assert str(1.0 - x(0, 2)) == "1 - x1"
        assert str(x(1, 2) - x(0, 2)) == "x2 - x1"
        assert str(-x(0, 1) ** 2 + 1.0) == "1 - x1^2"
        assert str(x(0, 2) ** 2 - x(0, 2)) == "-x1 + x1^2"
        assert str(x(1, 2) - x(0, 2) * x(1, 2)) == "x2 - x1*x2"
        assert str(Polynomial.constant(1, -1.0) + 2.0 * x(0, 1)) == "-1 + 2*x1"
        assert str(-x(0, 1)) == "-x1"

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


def built_terms_are_constructed(p):
    """p, built inside the package, has the terms the validating constructor
    makes of p's term dict: same order, Python floats and ints."""
    items = list(p.terms.items())
    assert list(Polynomial(p.dim, p.terms).terms.items()) == items
    assert all(type(c) is float and c != 0.0 for _, c in items)
    assert all(type(e) is tuple and len(e) == p.dim and all(type(k) is int and k >= 0 for k in e) for e, _ in items)


# float coefficients, signed zeros among them, so sums cancel and round
def float_polynomials(d, top=3, size=8):
    coefficient = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3, allow_nan=False)
    term = st.tuples(st.tuples(*[st.integers(0, top)] * d), coefficient)
    return st.lists(term, max_size=size).map(lambda ts: Polynomial(d, dict(ts)))


class TestBuiltTerms:
    """Every construction inside the package goes through ``_summed``, which
    trusts its exponents: the results equal the validating constructor."""

    @PROPERTY
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(float_polynomials(d), float_polynomials(d),
                                                         st.integers(0, d - 1))),
           st.sampled_from([0.0, -0.0, 2.5, -1.0]) | st.floats(-1e3, 1e3, allow_nan=False))
    def test_arithmetic_matches_the_constructor(self, case, s):
        p, q, i = case
        for r in (p + q, p - q, p * q, -p, p * s, s * p, p + s, s - p, p - s, p ** 2, p.partial(i),
                  p.homogeneous_part(2)):
            built_terms_are_constructed(r)

    @PROPERTY
    @given(st.integers(2, 4).flatmap(lambda d: st.tuples(st.just(Simplex(d)), float_polynomials(d))))
    def test_reductions_match_the_constructor(self, case):
        space, p = case
        built_terms_are_constructed(space.reduce(p))
        basis = monomial_basis(space, max(p.degree, 0))
        built_terms_are_constructed(basis.polynomial(basis.coordinates(p)))

    @PROPERTY
    @given(float_polynomials(1))
    def test_generator_images_match_the_constructor(self, p):
        model, space = cir_model()
        for r in _images(model, p):
            built_terms_are_constructed(r)
        if not p.is_zero():
            built_terms_are_constructed(divide_exact(p * model.a[0][0], model.a[0][0]))

    def test_overflow_raises_the_constructor_message(self):
        big = Polynomial(1, {(1,): 1e200})
        for build in (lambda: big * big, lambda: big * 1e200, lambda: big.partial(0) + 1e308 + 1e308):
            with pytest.raises(ValueError, match=r"non-finite coefficient inf for exponent \(\d+,\)"):
                build()


def family_models(seed):
    """One model of each family and shape from random parameters with zero
    entries (0.0 and -0.0), box-orthant m and n from 0 up."""
    rng = np.random.default_rng(seed)

    def entries(*shape):
        a = rng.standard_normal(shape)
        a[rng.random(shape) < 0.3] = 0.0
        a[rng.random(shape) < 0.1] = -0.0
        return a

    def symmetric(n):
        a = entries(n, n)
        return np.triu(a) + np.triu(a, 1).T

    for d in (1, 2, 3, 4):
        if d > 1:
            yield Simplex(d), SimplexParams(alpha=symmetric(d), beta=entries(d), B=entries(d, d))
        q = np.where(rng.random(d) < 0.4, -1.0, 1.0)
        q[0] = 1.0
        for Q, orientation in ((np.eye(d), "inside"), (np.diag(q), "outside")):
            k = d * (d - 1) // 2
            yield Quadric(Q, orientation), QuadricParams(alpha=symmetric(d), beta=entries(d), B=entries(d, d),
                                                         gamma=symmetric(k))
        for m in range(d + 1):
            n = d - m
            pi = np.abs(symmetric(n))
            np.fill_diagonal(pi, 0.0)
            yield BoxOrthant(m, n), BoxOrthantParams(m=m, n=n, gamma=np.abs(entries(m)), alpha=symmetric(n),
                                                     phi=entries(n), psi=entries(n, m), pi=pi, beta=entries(d),
                                                     B=entries(d, d))


def paper_coefficients(space, params):
    """(a, b) of a family written with Polynomial arithmetic, as in the paper."""
    d = space.dim
    x = [Polynomial.variable(i, d) for i in range(d)]
    zero, one = Polynomial.zero(d), Polynomial.one(d)
    b = []
    for i in range(d):
        p = Polynomial.constant(d, params.beta[i])
        for j in range(d):
            if params.B[i, j] != 0.0:
                p = p + params.B[i, j] * x[j]
        b.append(p)
    a = [[zero] * d for _ in range(d)]
    if isinstance(space, Simplex):
        for i in range(d):
            diag = zero
            for j in range(d):
                if j != i:
                    cross = params.alpha[i, j] * x[i] * x[j]
                    diag = diag + cross
                    a[i][j] = -cross
            a[i][i] = diag
    elif isinstance(space, BoxOrthant):
        m, n = space.m, space.n
        for i in range(m):
            a[i][i] = params.gamma[i] * x[i] * (one - x[i])
        for j in range(n):
            lin = Polynomial.constant(d, params.phi[j])
            for i in range(m):
                if params.psi[j, i] != 0.0:
                    lin = lin + params.psi[j, i] * x[i]
            for k in range(n):
                if params.pi[j, k] != 0.0:
                    lin = lin + params.pi[j, k] * x[m + k]
            a[m + j][m + j] = params.alpha[j, j] * x[m + j] * x[m + j] + x[m + j] * lin
            for k in range(j + 1, n):
                a[m + j][m + k] = a[m + k][m + j] = params.alpha[j, k] * x[m + j] * x[m + k]
    else:
        # a = (1 - x'Qx) alpha + c, c_ij = sum_kl gamma_kl (Q S_k x)_i (Q S_l x)_j over the skew basis S
        p = one
        for i in range(d):
            p = p - space.Q[i, i] * x[i] * x[i]
        QS = [space.Q @ s for s in skew_symmetric_basis(d)]
        for i in range(d):
            for j in range(d):
                M = np.zeros((d, d))
                for k in range(len(QS)):
                    for l in range(len(QS)):
                        if params.gamma[k, l] != 0.0:
                            M += params.gamma[k, l] * np.outer(QS[k][i], QS[l][j])
                c = zero
                for u in range(d):
                    for v in range(d):
                        if M[u, v] != 0.0:
                            c = c + M[u, v] * x[u] * x[v]
                a[i][j] = p * params.alpha[i, j] + c
    return a, b


def bits(p):
    return [(e, float(c).hex()) for e, c in p.terms.items()]


class TestFamilyTermLists:
    """assemble_model writes each family as term lists; the terms equal the
    paper's formulas built with Polynomial arithmetic in order, value and sign."""

    @settings(PROPERTY, max_examples=20)
    @given(st.integers(0, 2**32 - 1))
    def test_terms_match_polynomial_arithmetic(self, seed):
        for space, params in family_models(seed):
            model = assemble_model(space, params)
            a, b = paper_coefficients(space, params)
            assert [bits(p) for p in model.b] == [bits(p) for p in b]
            assert [[bits(p) for p in row] for row in model.a] == [[bits(p) for p in row] for row in a]


class TestValidationAtTheBoundary:
    """Exponents are validated where they enter the package, and nowhere else."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        count = []
        check = polydiff.polynomial._validate_exponents

        def counted(e, dim):
            count.append(e)
            return check(e, dim)

        monkeypatch.setattr(polydiff.polynomial, "_validate_exponents", counted)
        return count

    def test_public_entry_points_validate(self, calls):
        Polynomial(2, {(1, 0): 1.0, (0, 2): 2.0})
        assert len(calls) == 2
        Polynomial.from_json_dict({"dim": 1, "terms": [{"e": [1], "c": 1.0}]})
        assert len(calls) == 3

    @pytest.mark.parametrize("c", ["2", True, None, [1]], ids=["string", "bool", "null", "list"])
    def test_json_coefficients_take_the_constructors_check(self, c):
        with pytest.raises(ValueError, match="is not a real number") as from_json:
            Polynomial.from_json_dict({"dim": 1, "terms": [{"e": [1], "c": c}]})
        with pytest.raises(ValueError) as built:
            Polynomial(1, {(1,): c})
        assert str(from_json.value) == str(built.value)

    def test_package_built_terms_skip_validation(self, calls):
        rng = np.random.default_rng(0)
        p, q = (Polynomial(3, {tuple(int(k) for k in rng.integers(0, 3, 3)): float(c)
                               for c in rng.standard_normal(6)}) for _ in range(2))
        simplex, (model, _), x3 = Simplex(3), cir_model(), Polynomial.variable(0, 1) ** 3
        families = list(family_models(1))
        del calls[:]
        p + q, p * q, p - 1.0, 2.0 * p, -p, p ** 3, p.partial(1)
        simplex.reduce(p * q)
        _images(model, x3)
        for space, params in families:
            assemble_model(space, params)
        assert calls == []
