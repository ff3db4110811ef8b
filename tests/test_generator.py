"""Generator matrices, matrix exponentials, and conditional moments."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polydiff.basis
import polydiff.generator
from polydiff import (
    BoxOrthant,
    BoxOrthantParams,
    DegreeTooHigh,
    FullSpace,
    ModelCoefficients,
    NotPolynomialOnE,
    PointOutsideStateSpace,
    Polynomial,
    Quadric,
    QuadricParams,
    Simplex,
    SimplexParams,
    assemble_model,
    conditional_moment,
    generator_matrix,
    joint_moment,
    matrix_exp,
    moment_by_ode,
    monomial_basis,
)
from polydiff.generator import _images, a_grad, apply_generator

from conftest import (
    MATRIX_POINTS,
    MODEL_MATRIX,
    brownian_model,
    cir_model,
    jacobi_model,
    oracle_a_grad,
    oracle_apply_generator,
    ou_model,
    unit_ball_model,
)

EPS = np.finfo(float).eps

# conftest models whose coefficients are dyadic, so any order of summation is exact
DYADIC = ("brownian", "cir", "jacobi", "simplex_jacobi", "unit_ball")


def generator_matrix_by_images(model, basis):
    """Oracle for generator_matrix: one Polynomial-arithmetic image G x^e per
    basis monomial, reduced by the equality ideal and read off by
    Basis.coordinates."""
    cols = []
    for e in basis.monomials:
        image = oracle_apply_generator(model, Polynomial.monomial(e))
        try:
            cols.append(basis.coordinates(image))
        except DegreeTooHigh as exc:
            raise NotPolynomialOnE(f"image of monomial {e} leaves the basis space: {exc}") from exc
    return np.column_stack(cols)


def generator_csv_by_format(gm):
    """GeneratorMatrix.csv_text with one format() call per entry: the byte
    reference for the shared writer."""
    header = ",".join("x" + " ".join(str(k) for k in e) for e in gm.basis.monomials)
    lines = [header]
    for row in gm.matrix:
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def _random_poly(rng, dim, degree, scale):
    terms = {e: scale * rng.uniform(-1.0, 1.0) for e in monomial_basis(FullSpace(dim), degree).monomials}
    return Polynomial(dim, terms)


def non_dyadic_model(family, seed, scale=1.0):
    """A model of the family with full-mantissa coefficients of size ~scale."""
    rng = np.random.default_rng(seed)

    def sym(n):
        m = scale * rng.uniform(-1.0, 1.0, (n, n))
        return m + m.T

    if family == "full":
        d = 3
        a = [[None] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                a[i][j] = a[j][i] = _random_poly(rng, d, 2, scale)
        return ModelCoefficients(a, [_random_poly(rng, d, 1, scale) for _ in range(d)]), FullSpace(d)
    if family == "quadric":
        space = Quadric(np.diag([1.0, 1.0, -1.0]))
        params = QuadricParams(alpha=sym(3), beta=scale * rng.uniform(-1, 1, 3),
                               B=scale * rng.uniform(-1, 1, (3, 3)), gamma=sym(3))
    elif family == "box_orthant":
        space = BoxOrthant(1, 2)
        params = BoxOrthantParams(m=1, n=2, gamma=scale * rng.uniform(0, 1, 1), alpha=sym(2),
                                  phi=scale * rng.uniform(0, 1, 2), psi=scale * rng.uniform(-1, 1, (2, 1)),
                                  pi=scale * np.array([[0.0, rng.uniform()], [rng.uniform(), 0.0]]),
                                  beta=scale * rng.uniform(-1, 1, 3), B=scale * rng.uniform(-1, 1, (3, 3)))
    else:
        d = 4
        space = Simplex(d)
        alpha = np.abs(sym(d))
        np.fill_diagonal(alpha, 0.0)
        beta = scale * rng.uniform(0, 1, d)
        B = scale * rng.uniform(0, 1, (d, d))
        for j in range(d):
            B[j, j] = -beta.sum() - (B[:, j].sum() - B[j, j])
        model = assemble_model(space, SimplexParams(alpha=alpha, beta=beta, B=B))
        # plus x_d^2 v v' with sum(v) = 0, tangent to the simplex, so that
        # images carry x_d^2 as well as x_d
        v = scale * rng.uniform(-1, 1, d)
        v[-1] = -v[:-1].sum()
        return with_square_of_last(model, v), space
    return assemble_model(space, params), space


def with_square_of_last(model, v):
    """The model with x_d^2 v v' added to its diffusion matrix."""
    d = model.dim
    a = [list(row) for row in model.a]
    for i in range(d):
        for j in range(i, d):
            a[i][j] = a[j][i] = a[i][j] + Polynomial.monomial((0,) * (d - 1) + (2,), v[i] * v[j])
    return ModelCoefficients(a, model.b)


def simplex_square_model():
    # simplex Jacobi model with x_2^2 [[1, -1], [-1, 1]] / 4 added to a
    model, space = MODEL_MATRIX["simplex_jacobi"]()
    return with_square_of_last(model, [0.5, -0.5]), space


class TestApplyGenerator:
    def test_constant_killed(self):
        model, space = brownian_model()
        assert apply_generator(model, Polynomial.constant(1, 5.0)).is_zero()

    def test_brownian_square(self):
        # a = 1, b = 0: G x^2 = 1
        model, space = brownian_model()
        assert apply_generator(model, Polynomial.monomial((2,))) == Polynomial.one(1)

    def test_jacobi_linear(self):
        # G x = b = 1/2 - x
        model, space = jacobi_model()
        got = apply_generator(model, Polynomial.variable(0, 1))
        assert got == Polynomial.constant(1, 0.5) - Polynomial.variable(0, 1)


def first_fault_by_entries(a, b):
    """The ValueError message of a d x d loop over the entries, in row-major
    order and with symmetry before degree: the reference for the checks that
    ModelCoefficients runs on its term rows."""
    d = len(b)
    for i in range(d):
        for j in range(d):
            if a[i][j] != a[j][i]:
                return f"diffusion matrix not symmetric at ({i},{j})"
            if a[i][j].degree > 2:
                return f"diffusion entry ({i},{j}) has degree {a[i][j].degree} > 2"
    for i, p in enumerate(b):
        if p.degree > 1:
            return f"drift entry {i} has degree {p.degree} > 1"
    return None


@functools.cache
def entries(dim, degree):
    """Polynomials of degree <= ``degree`` with a few terms from three coefficients,
    so that two independent draws are often equal."""
    exponents = st.sampled_from(monomial_basis(FullSpace(dim), degree).monomials)
    return st.dictionaries(exponents, st.sampled_from([-1.0, 0.5, 1.0]), max_size=3).map(
        lambda terms: Polynomial(dim, terms))


@st.composite
def coefficient_matrices(draw):
    """(a, b) in 1-4 variables: a symmetric a of degree <= 2 and an affine b,
    with a few entries of either replaced by a draw of one degree more."""
    d = draw(st.integers(1, 4))
    a = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            a[i][j] = a[j][i] = draw(entries(d, 2))
    b = draw(st.lists(entries(d, 1), min_size=d, max_size=d))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        if draw(st.booleans()):
            a[i][j] = draw(entries(d, 3))
        else:
            b[i] = draw(entries(d, 2))
    return a, b


class TestModelChecks:
    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(coefficient_matrices())
    def test_first_fault_as_by_entries(self, ab):
        a, b = ab
        want = first_fault_by_entries(a, b)
        if want is None:
            assert ModelCoefficients(a, b).a == tuple(map(tuple, a))
        else:
            with pytest.raises(ValueError) as exc:
                ModelCoefficients(a, b)
            assert str(exc.value) == want

    def test_entry_in_another_dimension(self):
        one = Polynomial.one(2)
        with pytest.raises(ValueError, match="^diffusion entries must live in the model dimension$"):
            ModelCoefficients([[one, one], [one, Polynomial.one(3)]], [Polynomial.zero(2)] * 2)


def simplex3_model():
    # dyadic drift on the simplex in R^3, tangent to the mass constraint exactly
    alpha = 0.5 * (np.ones((3, 3)) - np.eye(3))
    B = np.full((3, 3), 0.25) - 1.5 * np.eye(3)
    space = Simplex(3)
    return assemble_model(space, SimplexParams(alpha=alpha, beta=[0.25] * 3, B=B)), space


def polynomials(dim, coefficients):
    """Polynomials of degree <= 4 in dim variables, over every coordinate (so
    with powers of x_d on the simplex), with up to eight terms."""
    exponents = st.sampled_from(monomial_basis(FullSpace(dim), 4).monomials)
    return st.dictionaries(exponents, coefficients, max_size=8).map(lambda terms: Polynomial(dim, terms))


DYADIC_COEFFICIENTS = st.integers(-16, 16).map(lambda k: k / 8)
FULL_MANTISSA_COEFFICIENTS = st.floats(1 / 16, 1.0) | st.floats(-1.0, -1 / 16)


def assert_within_ulps(got, want, ulps):
    """The coefficients of got and want differ by at most ulps ulp of want's largest."""
    g, w = got.terms, want.terms
    scale = max((abs(c) for c in w.values()), default=0.0)
    for e in set(g) | set(w):
        assert abs(g.get(e, 0.0) - w.get(e, 0.0)) <= ulps * EPS * scale, e


class TestClosedFormAgainstOracle:
    """apply_generator and a_grad run the closed form on term arrays; the
    Polynomial-arithmetic route in conftest is the oracle."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(st.sampled_from(sorted(DYADIC)
                           + ["simplex_square", "unit_ball3", "simplex3", "full_ou4"]), st.data())
    def test_equal_on_dyadic_models(self, name, data):
        factories = {"simplex_square": simplex_square_model, "unit_ball3": lambda: unit_ball_model(3),
                     "simplex3": simplex3_model, "full_ou4": full_ou4}
        model, space = factories[name]() if name in factories else MODEL_MATRIX[name]()
        p = data.draw(polynomials(model.dim, DYADIC_COEFFICIENTS))
        assert apply_generator(model, p) == oracle_apply_generator(model, p)
        assert a_grad(model, p) == oracle_a_grad(model, p)

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(st.sampled_from(["full", "quadric", "box_orthant", "simplex"]), st.integers(0, 5),
           st.sampled_from([1.0, 1e3, 1e-3]), st.data())
    def test_within_four_ulp_on_non_dyadic_models(self, family, seed, scale, data):
        model, space = non_dyadic_model(family, seed, scale)
        p = data.draw(polynomials(model.dim, FULL_MANTISSA_COEFFICIENTS))
        assert_within_ulps(apply_generator(model, p), oracle_apply_generator(model, p), 4)
        got, want = a_grad(model, p), oracle_a_grad(model, p)
        assert len(got) == len(want) == model.dim
        for g, w in zip(got, want):
            assert_within_ulps(g, w, 4)

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(st.sampled_from(sorted(MODEL_MATRIX)), st.data())
    def test_each_part_equals_its_slice_of_all_images(self, name, data):
        # apply_generator and a_grad run only their own table rows
        model, space = MODEL_MATRIX[name]()
        p = data.draw(polynomials(model.dim, FULL_MANTISSA_COEFFICIENTS))

        def terms(q):
            return [(e, c.hex()) for e, c in q.terms.items()]

        whole = _images(model, p)
        assert terms(apply_generator(model, p)) == terms(whole[0])
        assert [terms(q) for q in a_grad(model, p)] == [terms(q) for q in whole[1:]]

    def test_dimension_mismatch_raises(self):
        model, space = jacobi_model()
        with pytest.raises(ValueError, match="dimension"):
            apply_generator(model, Polynomial.variable(0, 2))
        with pytest.raises(ValueError, match="dimension"):
            a_grad(model, Polynomial.variable(0, 2))


class TestGeneratorMatrix:
    def test_jacobi_degree_one(self):
        model, space = jacobi_model()
        gm = generator_matrix(model, monomial_basis(space, 1))
        assert np.allclose(gm.matrix, [[0.0, 0.5], [0.0, -1.0]])

    def test_brownian_degree_two(self):
        model, space = brownian_model()
        gm = generator_matrix(model, monomial_basis(space, 2))
        expect = np.zeros((3, 3))
        expect[0, 2] = 1.0  # G x^2 = 1
        assert np.allclose(gm.matrix, expect)

    def test_constant_column_zero(self):
        for name in sorted(MODEL_MATRIX):
            model, space = MODEL_MATRIX[name]()
            gm = generator_matrix(model, monomial_basis(space, 3))
            assert np.all(gm.matrix[:, 0] == 0.0)

    def test_graded_block_structure(self):
        # the generator never raises degree, so entries below a column's
        # degree block vanish
        for name in sorted(MODEL_MATRIX):
            model, space = MODEL_MATRIX[name]()
            basis = monomial_basis(space, 4)
            gm = generator_matrix(model, basis)
            degs = [sum(e) for e in basis.monomials]
            for i in range(len(basis)):
                for j in range(len(basis)):
                    if degs[i] > degs[j]:
                        assert gm.matrix[i, j] == 0.0

    def test_rejects_non_invariant_diffusion(self):
        # identity diffusion pushes mass off the simplex hyperplane
        space = Simplex(2)
        one = Polynomial.one(2)
        zero = Polynomial.zero(2)
        model = ModelCoefficients([[one, zero], [zero, one]], [zero, zero])
        with pytest.raises(NotPolynomialOnE):
            generator_matrix(model, monomial_basis(space, 2))

    @pytest.mark.parametrize("family", ["full", "simplex"])
    def test_csv_bytes_match_per_value_writer(self, family):
        model, space = non_dyadic_model(family, 3)
        gm = generator_matrix(model, monomial_basis(space, 3))
        assert (gm.matrix < 0).any() and (gm.matrix != np.round(gm.matrix)).any()
        assert gm.csv_text() == generator_csv_by_format(gm)

    def test_csv_round_trip(self):
        model, space = jacobi_model()
        gm = generator_matrix(model, monomial_basis(space, 2))
        lines = gm.csv_text().strip().split("\n")
        assert len(lines) == 4
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(got, gm.matrix)


class TestAssemblyAgainstImages:
    """generator_matrix builds G from the coefficient terms in one pass; the
    per-monomial Polynomial route is the oracle."""

    @pytest.mark.parametrize("family", ["full", "quadric", "box_orthant", "simplex"])
    @pytest.mark.parametrize("seed, scale", [(0, 1.0), (1, 1e3), (2, 1e-3)])
    def test_matches_oracle_to_rounding(self, family, seed, scale):
        model, space = non_dyadic_model(family, seed, scale)
        for degree in range(7):
            basis = monomial_basis(space, degree)
            got = generator_matrix(model, basis).matrix
            want = generator_matrix_by_images(model, basis)
            assert np.max(np.abs(got - want)) <= 4 * EPS * np.max(np.abs(want))

    @pytest.mark.parametrize("name", DYADIC + ("simplex_square",))
    def test_bit_identical_on_dyadic_models(self, name):
        model, space = simplex_square_model() if name == "simplex_square" else MODEL_MATRIX[name]()
        for degree in range(7):
            basis = monomial_basis(space, degree)
            assert np.array_equal(generator_matrix(model, basis).matrix,
                                  generator_matrix_by_images(model, basis))

    def test_overflowing_entries_raise(self):
        # G x^4 carries 6 a x^2, which overflows for a = 1e308
        model = ModelCoefficients([[Polynomial.monomial((2,), 1e308)]], [Polynomial.zero(1)])
        basis = monomial_basis(FullSpace(1), 4)
        with pytest.raises(ValueError):
            generator_matrix_by_images(model, basis)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                generator_matrix(model, basis)

    def test_full_space_assembly_makes_no_polynomial_products(self, monkeypatch):
        d = 4
        model = ModelCoefficients(
            [[Polynomial.one(d) * float(i == j) + Polynomial.variable(i, d) * Polynomial.variable(j, d)
              for j in range(d)] for i in range(d)],
            [Polynomial.constant(d, 0.25) - Polynomial.variable(i, d) for i in range(d)])
        basis = monomial_basis(FullSpace(d), 8)
        calls = []
        mul = Polynomial.__mul__

        def counted(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", counted)
        monkeypatch.setattr(Polynomial, "__rmul__", counted)
        gm = generator_matrix(model, basis)
        assert calls == []
        assert len(gm.basis) == 495


def full_ou4():
    """dX = (1/4 - X) dt + dW in R^4, whose degree-8 basis has 495 monomials."""
    d = 4
    model = ModelCoefficients(
        [[Polynomial.constant(d, float(i == j)) for j in range(d)] for i in range(d)],
        [Polynomial.constant(d, 0.25) - Polynomial.variable(i, d) for i in range(d)])
    return model, FullSpace(d)


# one model per state-space family, dyadic fixtures and non-dyadic alike
FAMILY_MODELS = {
    **{name: MODEL_MATRIX[name] for name in sorted(MODEL_MATRIX)},
    "simplex_square": simplex_square_model,
    **{f"non_dyadic_{family}": (lambda family=family: non_dyadic_model(family, 0))
       for family in ("full", "quadric", "box_orthant", "simplex")},
}


class TestLeadingBlock:
    """G maps Pol_m into Pol_m: the invariant every trimmed propagation relies on."""

    @pytest.mark.parametrize("name", sorted(FAMILY_MODELS))
    def test_degree_blocks_are_exact(self, name):
        model, space = FAMILY_MODELS[name]()
        for degree in range(9):
            G = generator_matrix(model, monomial_basis(space, degree)).matrix
            for m in range(degree + 1):
                block = monomial_basis(space, m)
                n = len(block)
                assert np.all(G[n:, :n] == 0.0)
                assert np.array_equal(generator_matrix(model, block).matrix, G[:n, :n])

    def test_leading_counts_monomials_up_to_the_last_nonzero_degree(self):
        model, space = full_ou4()
        gm = generator_matrix(model, monomial_basis(space, 3))
        sizes = [len(monomial_basis(space, m)) for m in range(4)]  # 1, 5, 15, 35
        v = np.zeros(35)
        assert gm.leading(v) == 1
        for k in range(35):
            v[:] = 0.0
            v[k] = 1.0
            assert gm.leading(v) == sizes[int(gm.basis.degrees[k])]

    def test_linear_payoff_exponentiates_five_by_five(self, monkeypatch):
        model, space = full_ou4()
        shapes = []
        inner = polydiff.generator.matrix_exp

        def recorded(A):
            shapes.append(np.shape(A))
            return inner(A)

        monkeypatch.setattr(polydiff.generator, "matrix_exp", recorded)
        p = Polynomial.variable(0, 4) - 0.5 * Polynomial.variable(3, 4) + Polynomial.constant(4, 0.5)
        got = conditional_moment(model, space, 8, p, [0.25, -0.5, 0.125, 0.75], 0.5)
        assert shapes == [(5, 5)]
        mean = 0.25 + (np.array([0.25, 0.75]) - 0.25) * np.exp(-0.5)
        assert got == pytest.approx(mean[0] - 0.5 * mean[1] + 0.5, rel=1e-13)

    def test_degree_bound_still_rejects(self):
        model, space = full_ou4()
        with pytest.raises(DegreeTooHigh):
            conditional_moment(model, space, 2, Polynomial.variable(1, 4) ** 3, [0.0] * 4, 1.0)
        with pytest.raises(ValueError, match="degree must be >= 0"):
            conditional_moment(model, space, -1, Polynomial.zero(4), [0.0] * 4, 1.0)

    def test_zero_payoff_runs_on_the_constants(self):
        for name in sorted(MODEL_MATRIX):
            model, space = MODEL_MATRIX[name]()
            assert conditional_moment(model, space, 3, Polynomial.zero(space.dim), MATRIX_POINTS[name], 0.7) == 0.0


PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)

propagation_cases = st.tuples(
    st.sampled_from(sorted(MODEL_MATRIX)), st.integers(0, 4),
    st.lists(st.floats(-1.0, 1.0), min_size=70, max_size=70),
    st.floats(0.0, 1.0), st.floats(0.0, 1.0))


class TestTrimmedPropagation:
    @PROPERTY
    @given(propagation_cases)
    def test_semigroup(self, case):
        name, m, coefs, s, t = case
        model, space = MODEL_MATRIX[name]()
        gm = generator_matrix(model, monomial_basis(space, 4))
        n = len(monomial_basis(space, m))
        v = np.zeros(len(gm.basis))
        v[:n] = coefs[:n]
        lhs = gm.propagate(s + t, v)
        rhs = gm.propagate(s, gm.propagate(t, v))
        assert np.all(lhs[n:] == 0.0) and np.all(rhs[n:] == 0.0)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(lhs), 1.0)

    @pytest.mark.parametrize("name", sorted(FAMILY_MODELS))
    def test_propagate_matches_dense_propagator(self, name):
        model, space = FAMILY_MODELS[name]()
        gm = generator_matrix(model, monomial_basis(space, 5))
        rng = np.random.default_rng(4)
        for m in range(6):
            n = len(monomial_basis(space, m))
            v = np.zeros(len(gm.basis))
            v[:n] = rng.uniform(-1.0, 1.0, n)
            want = gm.propagator(0.7) @ v
            got = gm.propagate(0.7, v)
            # the dense exponential leaves rounding-level entries past the block
            assert np.all(got[n:] == 0.0)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestMatrixExp:
    def test_identity_at_zero(self):
        assert np.array_equal(matrix_exp(np.zeros((4, 4))), np.eye(4))

    def test_nilpotent(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(matrix_exp(A), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_diagonal(self):
        A = np.diag([1.0, -2.0, 0.5])
        assert np.allclose(matrix_exp(A), np.diag(np.exp([1.0, -2.0, 0.5])), rtol=1e-14)

    def test_taylor_oracle_small_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            A = rng.standard_normal((6, 6))
            A *= 0.5 / np.linalg.norm(A, 2)
            series = np.eye(6)
            term = np.eye(6)
            for k in range(1, 30):
                term = term @ A / k
                series = series + term
            assert np.max(np.abs(matrix_exp(A) - series)) < 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            matrix_exp(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            matrix_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("A", [[[-np.inf]], np.diag([-np.inf, 0.0, -1.0]), [[np.inf]]],
                             ids=["minus_inf", "diag_minus_inf", "inf"])
    def test_non_finite_input_raises_even_where_expm_is_finite(self, A):
        # expm maps [[-inf]] to [[0.]] and diag(-inf, 0, -1) to a finite matrix
        with pytest.raises(ValueError, match="finite entries"):
            matrix_exp(A)

    def test_overflow_raises_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                matrix_exp([[800.0]])


class TestSemigroup:
    @pytest.mark.parametrize("name", sorted(MODEL_MATRIX))
    def test_propagator_semigroup(self, name):
        model, space = MODEL_MATRIX[name]()
        gm = generator_matrix(model, monomial_basis(space, 4))
        for s in (0.1, 0.5, 1.0):
            for t in (0.1, 0.5, 1.0):
                lhs = gm.propagator(s + t)
                rhs = gm.propagator(s) @ gm.propagator(t)
                scale = max(np.linalg.norm(lhs), 1.0)
                assert np.linalg.norm(lhs - rhs) / scale < 1e-8

    def test_propagator_zero_is_identity(self):
        model, space = ou_model()
        gm = generator_matrix(model, monomial_basis(space, 3))
        assert np.array_equal(gm.propagator(0.0), np.eye(len(gm.basis)))


class TestConditionalMoment:
    def test_brownian_variance(self):
        model, space = brownian_model()
        p = Polynomial.monomial((2,))
        for x in (0.0, 0.7, -1.3):
            for tau in (0.1, 1.0, 2.5):
                got = conditional_moment(model, space, 2, p, [x], tau)
                assert got == pytest.approx(x * x + tau, rel=1e-12)

    def test_tau_zero_returns_p(self):
        for name in sorted(MODEL_MATRIX):
            model, space = MODEL_MATRIX[name]()
            x = MATRIX_POINTS[name]
            p = Polynomial.variable(0, space.dim) ** 2
            got = conditional_moment(model, space, 4, p, x, 0.0)
            assert got == pytest.approx(p(x), abs=1e-12)

    def test_ou_mean_closed_form(self):
        # b = 0.3 - x reverts to 0.3 at unit rate
        model, space = ou_model()
        p = Polynomial.variable(0, 1)
        for tau in (0.1, 1.0, 3.0):
            got = conditional_moment(model, space, 1, p, [0.4], tau)
            assert got == pytest.approx(0.3 + (0.4 - 0.3) * np.exp(-tau), rel=1e-12)

    def test_cir_mean_closed_form(self):
        b0, beta = 0.5, -0.5
        model, space = cir_model(b0, beta)
        p = Polynomial.variable(0, 1)
        x = 0.8
        for tau in (0.2, 1.0):
            mean = -b0 / beta + (x + b0 / beta) * np.exp(beta * tau)
            got = conditional_moment(model, space, 1, p, [x], tau)
            assert got == pytest.approx(mean, rel=1e-12)

    def test_moment_of_one_is_one(self):
        for name in sorted(MODEL_MATRIX):
            model, space = MODEL_MATRIX[name]()
            x = MATRIX_POINTS[name]
            got = conditional_moment(model, space, 3, Polynomial.one(space.dim), x, 1.7)
            assert abs(got - 1.0) < 1e-12

    def test_point_outside_rejected(self):
        model, space = jacobi_model()
        with pytest.raises(PointOutsideStateSpace):
            conditional_moment(model, space, 2, Polynomial.one(1), [1.5], 1.0)

    def test_negative_tau_rejected(self):
        model, space = brownian_model()
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            conditional_moment(model, space, 2, Polynomial.one(1), [0.0], -0.1)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_tau_rejected(self, tau):
        model, space = brownian_model()
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            conditional_moment(model, space, 2, Polynomial.variable(0, 1), [0.0], tau)

    def test_huge_finite_tau_overflows(self):
        # every input is finite; only the product tau G leaves the doubles
        model, space = cir_model()
        message = r"^tau = 1e\+308 times the generator overflows the floating-point range$"
        with pytest.raises(OverflowError, match=message):
            conditional_moment(model, space, 4, Polynomial.monomial((3,)), [0.8], 1e308)


class TestAnalyticMoments:
    """First two moments against textbook closed forms, which do not use the
    generator matrix."""

    X1, X2 = Polynomial.monomial((1,)), Polynomial.monomial((2,))

    def check(self, model, space, x, tau, mean, second):
        for degree in (2, 4):
            got1 = conditional_moment(model, space, degree, self.X1, [x], tau)
            got2 = conditional_moment(model, space, degree, self.X2, [x], tau)
            assert got1 == pytest.approx(mean, rel=1e-12, abs=1e-14)
            assert got2 == pytest.approx(second, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("x", [0.4, -1.2])
    @pytest.mark.parametrize("tau", [0.1, 1.0, 3.0])
    def test_ornstein_uhlenbeck(self, x, tau):
        # dX = (0.3 - X) dt + sqrt(0.4) dW
        model, space = ou_model()
        mean = 0.3 + (x - 0.3) * np.exp(-tau)
        var = 0.4 * (1.0 - np.exp(-2.0 * tau)) / 2.0
        self.check(model, space, x, tau, mean, var + mean * mean)

    @pytest.mark.parametrize("x", [0.8, 0.05])
    @pytest.mark.parametrize("tau", [0.2, 1.0, 4.0])
    def test_cox_ingersoll_ross(self, x, tau):
        # dX = kappa (theta - X) dt + sigma sqrt(X) dW (Cox, Ingersoll & Ross 1985)
        b0, beta, s2 = 0.75, -0.5, 0.5
        model, space = cir_model(b0, beta, s2)
        kappa, theta = -beta, -b0 / beta
        mean = theta + (x - theta) * np.exp(-kappa * tau)
        var = (x * s2 / kappa * (np.exp(-kappa * tau) - np.exp(-2.0 * kappa * tau))
               + theta * s2 / (2.0 * kappa) * (1.0 - np.exp(-kappa * tau)) ** 2)
        self.check(model, space, x, tau, mean, var + mean * mean)

    @pytest.mark.parametrize("x", [0.2, 0.9])
    @pytest.mark.parametrize("tau", [0.1, 1.0, 3.0])
    def test_jacobi(self, x, tau):
        # dX = kappa (theta - X) dt + sqrt(s2 X (1 - X)) dW with kappa = s2 = 1, theta = 1/2;
        # d E[X^2]/dt = c E[X] - lam E[X^2]
        model, space = jacobi_model()
        kappa, theta, s2 = 1.0, 0.5, 1.0
        lam, c = 2.0 * kappa + s2, 2.0 * kappa * theta + s2
        mean = theta + (x - theta) * np.exp(-kappa * tau)
        second = (np.exp(-lam * tau) * x * x
                  + c * (theta * (1.0 - np.exp(-lam * tau)) / lam
                         + (x - theta) * (np.exp(-kappa * tau) - np.exp(-lam * tau)) / (lam - kappa)))
        self.check(model, space, x, tau, mean, second)

    @pytest.mark.parametrize("name", sorted(MODEL_MATRIX))
    def test_moment_independent_of_degree(self, name):
        model, space = MODEL_MATRIX[name]()
        x = MATRIX_POINTS[name]
        p = Polynomial.variable(0, space.dim) ** 2 - Polynomial.variable(space.dim - 1, space.dim)
        want = conditional_moment(model, space, 2, p, x, 0.9)
        for degree in range(3, 7):
            got = conditional_moment(model, space, degree, p, x, 0.9)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


class TestDynkinIdentity:
    """E f(X_tau) - f(x) = int_0^tau E[(Gf)(X_s)] ds, with Gf from the
    Polynomial-arithmetic oracle and the integral by Gauss-Legendre."""

    NODES, WEIGHTS = np.polynomial.legendre.leggauss(20)

    @pytest.mark.parametrize("name", sorted(MODEL_MATRIX))
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_increment_is_integral_of_generator(self, name, degree):
        model, space = MODEL_MATRIX[name]()
        x, tau, d = MATRIX_POINTS[name], 0.8, space.dim
        f = (Polynomial.variable(0, d) ** degree
             - 0.5 * Polynomial.variable(d - 1, d) ** (degree - 1) * Polynomial.variable(0, d)
             + Polynomial.constant(d, 0.3))
        gf = oracle_apply_generator(model, f)
        s = 0.5 * tau * (self.NODES + 1.0)
        integral = 0.5 * tau * sum(w * conditional_moment(model, space, degree, gf, x, t)
                                   for w, t in zip(self.WEIGHTS, s))
        increment = conditional_moment(model, space, degree, f, x, tau) - f(x)
        assert integral == pytest.approx(increment, rel=1e-12)


class TestJointMoment:
    def test_single_time_reduces_to_conditional(self):
        model, space = jacobi_model()
        got = joint_moment(model, space, 3, [0.2], [0.8], [(2,)])
        want = conditional_moment(model, space, 3, Polynomial.monomial((2,)), [0.2], 0.8)
        assert got == pytest.approx(want, rel=1e-12)

    def test_brownian_covariance(self):
        # E[X_s X_t | X_0 = x] = x^2 + min(s, t)
        model, space = brownian_model()
        x = 0.7
        got = joint_moment(model, space, 2, [x], [0.5, 1.25], [(1,), (1,)])
        assert got == pytest.approx(x * x + 0.5, rel=1e-11)

    def test_three_times(self):
        # E[X_r X_s X_t] for Brownian motion from x:
        # x^3 + x (min(r,s) + min(r,t) + min(s,t))
        model, space = brownian_model()
        x = 0.4
        r, s, t = 0.3, 0.7, 1.1
        got = joint_moment(model, space, 3, [x], [r, s, t], [(1,), (1,), (1,)])
        want = x**3 + x * (r + r + s)
        assert got == pytest.approx(want, rel=1e-11)

    def test_degree_bound_counts_the_exact_product(self):
        # the dense expm(0.5 G) on the degree-3 unit-ball basis leaves entries
        # of order 1e-17 below the linear block; carried into x * v they used to
        # read as degree 4 and raise DegreeTooHigh at degree 3 only
        model, space = MODEL_MATRIX["unit_ball"]()
        got = [joint_moment(model, space, degree, [0.3, -0.4], [0.5, 1.0], [(1, 0), (1, 0)])
               for degree in (2, 3, 4)]
        assert got[1] == pytest.approx(got[0], rel=1e-14)
        assert got[2] == pytest.approx(got[0], rel=1e-14)

    def test_decreasing_times_rejected(self):
        model, space = brownian_model()
        with pytest.raises(ValueError, match="nondecreasing"):
            joint_moment(model, space, 2, [0.0], [1.0, 0.5], [(1,), (1,)])

    @pytest.mark.parametrize("times", [[np.nan, 1.0], [0.5, np.inf], [np.inf, np.inf]])
    def test_non_finite_times_rejected(self, times):
        model, space = brownian_model()
        with pytest.raises(ValueError, match="times must be finite"):
            joint_moment(model, space, 2, [0.0], times, [(1,), (1,)])

    def test_mismatched_lengths_rejected(self):
        model, space = brownian_model()
        with pytest.raises(ValueError):
            joint_moment(model, space, 2, [0.0], [1.0], [(1,), (1,)])


class TestOdeOracle:
    @pytest.mark.parametrize("name", sorted(MODEL_MATRIX))
    def test_matches_matrix_exponential(self, name):
        model, space = MODEL_MATRIX[name]()
        x = MATRIX_POINTS[name]
        p = Polynomial.variable(0, space.dim) ** 2
        a = conditional_moment(model, space, 4, p, x, 1.3)
        b = moment_by_ode(model, space, 4, p, x, 1.3)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-10)

    def test_tau_zero(self):
        model, space = ou_model()
        p = Polynomial.variable(0, 1)
        assert moment_by_ode(model, space, 2, p, [0.4], 0.0) == pytest.approx(0.4)

    @pytest.mark.parametrize("tau", [-1.0, np.nan, np.inf])
    def test_horizon_must_be_finite_and_nonnegative(self, tau):
        model, space = ou_model()
        with pytest.raises(ValueError, match="tau must be finite"):
            moment_by_ode(model, space, 2, Polynomial.variable(0, 1), [0.4], tau)

    def test_degree_above_the_bound_raises(self):
        model, space = ou_model()
        with pytest.raises(DegreeTooHigh):
            moment_by_ode(model, space, 1, Polynomial.variable(0, 1) ** 2, [0.4], 1.0)

    def test_horizon_past_the_step_cap_raises(self):
        # OU with x^2: rate 2 * 1.3 + 0.4 = 3, so tau = 1e8 needs 1.5e8 steps
        model, space = ou_model()
        p = Polynomial.variable(0, 1) ** 2
        cap = polydiff.generator._ORACLE_MAX_STEPS
        assert moment_by_ode(model, space, 2, p, [0.4], 2 * cap / 3.0) == pytest.approx(0.3 ** 2 + 0.2, rel=1e-9)
        with pytest.raises(ValueError, match="moment-oracle steps"):
            moment_by_ode(model, space, 2, p, [0.4], 1e8)

    @pytest.mark.parametrize("name", sorted(MODEL_MATRIX))
    def test_sees_a_row_dropped_from_the_generator_table(self, name):
        """Drop, one at a time, each G row of the coefficient table that the
        degree-6 G reads: conditional_moment then departs from moment_by_ode
        by more than acceptance test_01's 1e-7 on one of its monomials and
        horizons, because the oracle works on model.a and model.b alone."""
        model, space = MODEL_MATRIX[name]()
        x = MATRIX_POINTS[name]
        basis = monomial_basis(space, 6)
        G = generator_matrix(model, basis).matrix
        table, labels = model._parts["G"]
        dropped = 0
        for r in range(len(table.label)):
            broken, _ = MODEL_MATRIX[name]()
            keep = np.arange(len(table.label)) != r
            broken._parts["G"] = (type(table)(*(c[keep] for c in table)), labels)
            if np.array_equal(generator_matrix(broken, basis).matrix, G):
                continue  # a row of the eliminated simplex coordinate, which G never reads
            polydiff.generator._cache.clear()
            dropped += 1
            assert any(abs(conditional_moment(broken, space, 6, p, x, tau) - moment_by_ode(broken, space, 6, p, x, tau))
                       > 1e-7 for p in map(Polynomial.monomial, basis.monomials) for tau in (0.1, 1.0, 2.0)), r
        # off the simplex, G reads every row
        assert dropped == len(table.label) or (space.equalities and dropped)

    @pytest.mark.parametrize("name", sorted(MODEL_MATRIX))
    def test_never_builds_the_generator(self, name, monkeypatch):
        model, space = MODEL_MATRIX[name]()
        x = MATRIX_POINTS[name]
        p = Polynomial.variable(0, space.dim) ** 3
        expected = conditional_moment(model, space, 4, p, x, 1.3)

        def refuse(*args, **kwargs):
            raise AssertionError("the moment oracle took the generator-matrix route")

        for owner, attr in ((polydiff.generator, "generator_matrix"), (polydiff.basis.Basis, "rows"),
                            (polydiff.generator, "_image_terms"), (polydiff.generator, "matrix_exp")):
            monkeypatch.setattr(owner, attr, refuse)
        model._table = model._parts = None
        assert moment_by_ode(model, space, 4, p, x, 1.3) == pytest.approx(expected, rel=1e-12, abs=1e-13)
