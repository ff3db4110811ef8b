"""State spaces: membership, projection, samplers, and family assembly."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydiff import (
    BoxOrthant,
    BoxOrthantParams,
    FullSpace,
    ModelCoefficients,
    Polynomial,
    Quadric,
    QuadricParams,
    Simplex,
    SimplexParams,
    assemble_model,
)
from polydiff.basis import monomial_basis
from polydiff.statespace import _project_segment, _project_sorted, skew_symmetric_basis

PROPERTY = settings(derandomize=True, deadline=None, database=None)

ALL_SPACES = [
    FullSpace(1),
    FullSpace(3),
    Quadric(np.eye(2)),
    Quadric(np.diag([1.0, -1.0]), orientation="outside"),
    Quadric(np.diag([1.0, 1.0, -1.0])),
    BoxOrthant(1, 0),
    BoxOrthant(0, 1),
    BoxOrthant(2, 1),
    Simplex(2),
    Simplex(4),
]


class TestConstruction:
    def test_full_space_needs_positive_dim(self):
        with pytest.raises(ValueError):
            FullSpace(0)

    def test_quadric_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Quadric([[2.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            Quadric([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError):
            Quadric(-np.eye(2))  # empty level set
        with pytest.raises(ValueError):
            Quadric(np.eye(2), orientation="sideways")

    def test_quadric_keeps_its_own_q(self):
        Q = np.eye(2)
        s = Quadric(Q)
        Q[1, 1] = -1.0
        x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        assert s.spec_dict()["Q"] == [[1.0, 0.0], [0.0, 1.0]]
        assert s.inequalities == (Polynomial.one(2) - x1 ** 2 - x2 ** 2,)
        assert s.is_compact
        with pytest.raises(ValueError):
            s.Q[1, 1] = -1.0  # read-only, so the model-file block cannot drift either

    def test_box_orthant_needs_a_coordinate(self):
        with pytest.raises(ValueError):
            BoxOrthant(0, 0)

    def test_simplex_needs_dim_two(self):
        with pytest.raises(ValueError):
            Simplex(1)

    def test_inequality_counts(self):
        assert len(Quadric(np.eye(3)).inequalities) == 1
        assert len(BoxOrthant(2, 1).inequalities) == 5
        assert len(Simplex(3).inequalities) == 3
        assert len(Simplex(3).equalities) == 1
        assert FullSpace(2).inequalities == ()


class TestMembership:
    def test_unit_ball(self):
        ball = Quadric(np.eye(2))
        assert ball.contains([0.6, 0.8])
        assert ball.contains([0.0, 0.0])
        assert not ball.contains([0.8, 0.8])
        assert ball.violation([2.0, 0.0]) == pytest.approx(3.0)

    def test_outside_orientation(self):
        shell = Quadric(np.eye(2), orientation="outside")
        assert shell.contains([2.0, 0.0])
        assert not shell.contains([0.5, 0.0])

    def test_box_orthant(self):
        space = BoxOrthant(1, 1)
        assert space.contains([0.5, 3.0])
        assert not space.contains([1.5, 3.0])
        assert not space.contains([0.5, -0.1])

    def test_simplex_equality_binds(self):
        space = Simplex(3)
        assert space.contains([0.2, 0.3, 0.5])
        assert not space.contains([0.2, 0.3, 0.6])
        assert not space.contains([-0.1, 0.6, 0.5])

    def test_batched(self):
        ball = Quadric(np.eye(2))
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert ball.contains(X).tolist() == [True, False]


class TestProjection:
    @pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: repr(s))
    def test_lands_inside_and_idempotent(self, space):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((200, space.dim)) * 3.0
        P = space.project(X)
        assert np.all(space.contains(P))
        assert np.allclose(space.project(P), P, atol=1e-12)

    @pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: repr(s))
    def test_fixes_members(self, space):
        X = space.interior_samples(50)
        assert np.allclose(space.project(X), X, atol=1e-12)

    def test_simplex_known_point(self):
        space = Simplex(2)
        assert np.allclose(space.project([0.4, 0.8]), [0.3, 0.7])
        assert np.allclose(space.project([-1.0, 0.2]), [0.0, 1.0])

    def test_ball_is_radial(self):
        ball = Quadric(np.eye(3))
        x = np.array([3.0, 0.0, 4.0])
        assert np.allclose(ball.project(x), x / 5.0)

    def test_outside_quadric_near_cone(self):
        # radial scaling is undefined where x'Qx <= 0; the projection must
        # still land on the space
        shell = Quadric(np.diag([1.0, -1.0]), orientation="outside")
        for x in ([0.0, 0.0], [0.1, 0.1], [0.3, 0.9]):
            p = shell.project(np.array(x))
            assert shell.contains(p)


PROJECTED_SPACES = ALL_SPACES + [Quadric(np.eye(3), orientation="outside"), Simplex(3)]


@st.composite
def space_and_points(draw):
    """A state space of every family and a batch of points around it: signed
    zeros, coordinates of both signs up to 100, and points already inside."""
    space = draw(st.sampled_from(PROJECTED_SPACES))
    coord = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                      st.floats(-100.0, 100.0, allow_nan=False, allow_subnormal=False))
    X = np.array(draw(st.lists(st.lists(coord, min_size=space.dim, max_size=space.dim), min_size=1, max_size=8)))
    inside = space.interior_samples(4)
    return space, np.vstack([X, inside[draw(st.integers(0, 3))]])


class TestProjectionProperties:
    """Projection lands in the space, and a second projection moves a point by
    at most a few ulps of its size: each family's map is a closed form in
    floating point, so it is idempotent up to rounding."""

    @PROPERTY
    @given(space_and_points())
    def test_lands_inside(self, case):
        space, X = case
        assert np.all(space.contains(space.project(X)))

    @PROPERTY
    @given(space_and_points())
    def test_idempotent(self, case):
        space, X = case
        P = space.project(X)
        scale = np.maximum(np.abs(P).max(axis=1, keepdims=True), 1.0)
        assert np.all(np.abs(space.project(P) - P) <= 4.0 * np.finfo(float).eps * scale)

    @PROPERTY
    @given(space_and_points())
    def test_one_point_is_a_batch_of_one(self, case):
        space, X = case
        assert np.array_equal(space.project(X[0]), space.project(X)[0])

    @PROPERTY
    @given(st.lists(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)), min_size=1, max_size=16))
    def test_simplex_segment_is_the_sorted_projection(self, rows):
        # the 2-d simplex clips onto its segment with the sort route's arithmetic
        X = np.array(rows)
        with np.errstate(invalid="ignore", over="ignore"):
            assert _project_segment(X).tobytes() == _project_sorted(X).tobytes()


class TestSamplers:
    @pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: repr(s))
    def test_interior_contained(self, space):
        X = space.interior_samples(100)
        assert X.shape == (100, space.dim)
        assert np.all(space.contains(X))

    @pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: repr(s))
    def test_boundary_on_stratum(self, space):
        for k, g in enumerate(space.inequalities):
            X = space.boundary_samples(k, 60)
            assert np.all(space.contains(X, tol=1e-9))
            vals = np.array([g(x) for x in X])
            assert np.max(np.abs(vals)) < 1e-9

    @pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: repr(s))
    def test_deterministic(self, space):
        assert np.array_equal(space.interior_samples(40), space.interior_samples(40))
        assert np.array_equal(space.all_samples(64), space.all_samples(64))

    def test_bad_stratum_index(self):
        with pytest.raises(IndexError):
            Quadric(np.eye(2)).boundary_samples(1, 10)
        with pytest.raises(IndexError):
            FullSpace(2).boundary_samples(0, 10)

    def test_compactness_flags(self):
        assert Quadric(np.eye(2)).is_compact
        assert not Quadric(np.diag([1.0, -1.0])).is_compact
        assert not Quadric(np.eye(2), orientation="outside").is_compact
        assert BoxOrthant(2, 0).is_compact
        assert not BoxOrthant(2, 1).is_compact
        assert Simplex(3).is_compact
        assert not FullSpace(1).is_compact


class TestSimplexReduce:
    def test_eliminates_last_coordinate(self):
        space = Simplex(3)
        p = Polynomial.variable(2, 3) ** 2 * Polynomial.variable(0, 3)
        q = space.reduce(p)
        assert all(e[2] == 0 for e in q.terms)

    def test_agrees_on_the_space(self):
        space = Simplex(3)
        rng = np.random.default_rng(5)
        p = Polynomial.monomial((1, 1, 2), 2.5) + Polynomial.monomial((0, 0, 3), -1.0)
        q = space.reduce(p)
        X = rng.dirichlet(np.ones(3), 50)
        for x in X:
            assert p(x) == pytest.approx(q(x), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("descending", [False, True])
    def test_any_term_order(self, descending):
        # the same polynomial listing higher powers of x_d first or last
        space = Simplex(3)
        terms = {(1, 0, 0): 0.5, (0, 0, 1): 2.0, (1, 0, 2): -1.0, (0, 1, 3): 0.25}
        order = sorted(terms, key=lambda e: e[2], reverse=descending)
        p = Polynomial(3, {e: terms[e] for e in order})
        assert list(p.terms) == order
        q = space.reduce(p)
        assert all(e[2] == 0 for e in q.terms)
        for x in np.random.default_rng(6).dirichlet(np.ones(3), 20):
            assert q(x) == pytest.approx(p(x), rel=1e-12, abs=1e-12)

    def test_mass_identity_in_serialized_order(self):
        space = Simplex(3)
        total = sum((Polynomial.variable(i, 3) for i in range(3)), Polynomial.zero(3))
        p = Polynomial.from_json_dict((total * total).to_json_dict())
        q = space.reduce(p)
        assert set(q.terms) == {(0, 0, 0)}
        assert q.coefficient((0, 0, 0)) == pytest.approx(1.0, abs=1e-15)


def reduce_by_products(space, p):
    """Simplex.reduce by Polynomial products, one per term, with each power
    of 1 - x_1 - ... - x_{d-1} extended from the highest one built so far;
    the reference the term-array substitution must equal bit for bit."""
    d = space.dim
    last = d - 1
    sub = Polynomial.one(d) - sum((Polynomial.variable(i, d) for i in range(last)), Polynomial.zero(d))
    powers = {0: Polynomial.one(d)}
    out = Polynomial.zero(d)
    for e, c in p.terms.items():
        k = e[last]
        if k not in powers:
            base = max(j for j in powers if j < k)
            powers[k] = powers[base] * sub ** (k - base)
        out = out + Polynomial(d, {e[:last] + (0,): c}) * powers[k]
    return out


def random_polynomial(rng, d, terms, top):
    """Up to ``terms`` terms with exponents <= ``top`` and non-dyadic coefficients."""
    exps = {tuple(int(k) for k in rng.integers(0, top + 1, d)) for _ in range(terms)}
    return Polynomial(d, {e: rng.standard_normal() * 10.0 ** rng.integers(-3, 4) for e in exps})


class TestSimplexReduceTerms:
    def test_substitutes_each_term_without_summing(self):
        space = Simplex(3)
        exps = np.array([[1, 0, 2], [0, 1, 0]])
        out, coefs, source = space.reduce_terms(exps, np.array([3.0, 5.0]))
        # 3 x_1 (1 - x_1 - x_2)^2 has six terms, 5 x_2 one
        assert source.tolist() == [0] * 6 + [1]
        got = {}
        for e, c in zip(out.tolist(), coefs.tolist()):
            got[tuple(e)] = got.get(tuple(e), 0.0) + c
        want = space.reduce(Polynomial(3, {(1, 0, 2): 3.0, (0, 1, 0): 5.0}))
        assert got == want.terms
        assert not out[:, 2].any()

    def test_other_spaces_pass_terms_through(self):
        exps, coefs = np.array([[1, 2], [0, 3]]), np.array([1.5, -2.0])
        for space in (FullSpace(2), Quadric(np.eye(2)), BoxOrthant(1, 1)):
            out, c, source = space.reduce_terms(exps, coefs)
            assert out is exps and c is coefs and source.tolist() == [0, 1]


class TestSimplexReduceReference:
    def test_equals_products_bit_for_bit(self):
        rng = np.random.default_rng(44)
        checked = 0
        for d in (2, 3, 4, 5):
            space = Simplex(d)
            for _ in range(61):
                p = random_polynomial(rng, d, int(rng.integers(1, 9)), 4)
                q, want = space.reduce(p), reduce_by_products(space, p)
                assert q.terms == want.terms
                checked += 1
        assert checked >= 200

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_zero_and_last_coordinate_free_inputs(self, d):
        space = Simplex(d)
        assert space.reduce(Polynomial.zero(d)).is_zero()
        rng = np.random.default_rng(d)
        p = random_polynomial(rng, d, 6, 3)
        p = Polynomial(d, {e[:-1] + (0,): c for e, c in p.terms.items()})
        assert space.reduce(p) == p == reduce_by_products(space, p)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            Simplex(3).reduce(Polynomial.variable(0, 2))

    def test_overflowing_coefficient_raises(self):
        # 1e308 x_3^2 carries 2e308 x_1 x_2
        p = Polynomial.monomial((0, 0, 2), 1e308)
        with pytest.raises(ValueError):
            reduce_by_products(Simplex(3), p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                Simplex(3).reduce(p)


# integer coefficients and small exponents keep every sum and product exact,
# so the ring laws hold with ==
def small_polynomials(d, top=4, size=12):
    term = st.tuples(st.tuples(*[st.integers(0, top)] * d), st.integers(-8, 8))
    return st.lists(term, max_size=size).map(lambda ts: Polynomial(d, dict(ts)))


polynomial_pairs = st.integers(2, 5).flatmap(
    lambda d: st.tuples(st.just(Simplex(d)), small_polynomials(d), small_polynomials(d)))


class TestSimplexReduceProperties:
    @PROPERTY
    @given(polynomial_pairs)
    def test_eliminates_last_coordinate(self, case):
        space, p, _ = case
        assert all(e[-1] == 0 for e in space.reduce(p).terms)

    @PROPERTY
    @given(polynomial_pairs)
    def test_idempotent(self, case):
        space, p, _ = case
        r = space.reduce(p)
        assert space.reduce(r) == r

    @PROPERTY
    @given(polynomial_pairs)
    def test_additive(self, case):
        space, p, q = case
        assert space.reduce(p + q) == space.reduce(p) + space.reduce(q)

    @PROPERTY
    @given(polynomial_pairs)
    def test_multiplicative(self, case):
        space, p, q = case
        assert space.reduce(p * q) == space.reduce(space.reduce(p) * space.reduce(q))

    @PROPERTY
    @given(polynomial_pairs)
    def test_basis_coordinates_round_trip(self, case):
        space, p, _ = case
        basis = monomial_basis(space, max(p.degree, 0))
        assert basis.polynomial(basis.coordinates(p)) == space.reduce(p)


class TestSimplexDivideProperties:
    @PROPERTY
    @given(st.integers(2, 4).flatmap(lambda d: st.tuples(
        st.just(Simplex(d)), small_polynomials(d, 2, 6), small_polynomials(d, 2, 6))))
    def test_divides_every_inequality_modulo_the_mass_equality(self, case):
        space, h, g = case
        q = space.equalities[0]
        for p in space.inequalities:
            f = h * p + g * q
            assert space.reduce(f - space.divide(f, p) * p).is_zero()


class TestSkewBasis:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_count_and_antisymmetry(self, d):
        S = skew_symmetric_basis(d)
        assert len(S) == d * (d - 1) // 2
        for M in S:
            assert np.array_equal(M, -M.T)
            assert np.sum(np.abs(M)) == 2.0


class TestAssembly:
    def test_simplex_two_assets(self):
        space = Simplex(2)
        params = SimplexParams(alpha=[[0.0, 1.0], [1.0, 0.0]], beta=[0.1, 0.2], B=np.zeros((2, 2)))
        model = assemble_model(space, params)
        x1x2 = Polynomial.monomial((1, 1), 1.0)
        assert model.a[0][0] == x1x2
        assert model.a[1][1] == x1x2
        assert model.a[0][1] == -1.0 * x1x2
        assert model.a[1][0] == -1.0 * x1x2

    def test_simplex_rows_sum_to_zero(self):
        space = Simplex(3)
        rng = np.random.default_rng(2)
        alpha = np.abs(rng.standard_normal((3, 3)))
        alpha = alpha + alpha.T
        np.fill_diagonal(alpha, 0.0)
        model = assemble_model(space, SimplexParams(alpha=alpha, beta=np.zeros(3), B=np.zeros((3, 3))))
        for i in range(3):
            row = sum((model.a[i][j] for j in range(3)), Polynomial.zero(3))
            assert row.is_zero()

    def test_box_orthant_structure(self):
        space = BoxOrthant(1, 1)
        params = BoxOrthantParams(
            m=1, n=1,
            gamma=[2.0], alpha=[[0.5]], phi=[1.0], psi=[[3.0]], pi=[[0.0]],
            beta=[0.0, 0.25], B=np.zeros((2, 2)),
        )
        model = assemble_model(space, params)
        x1 = Polynomial.variable(0, 2)
        x2 = Polynomial.variable(1, 2)
        assert model.a[0][0] == 2.0 * x1 * (Polynomial.one(2) - x1)
        assert model.a[1][1] == 0.5 * x2 * x2 + x2 * (Polynomial.one(2) + 3.0 * x1)
        assert model.a[0][1].is_zero()
        assert model.b[1] == Polynomial.constant(2, 0.25)

    def test_quadric_plain(self):
        space = Quadric(np.eye(2))
        params = QuadricParams(alpha=np.eye(2), beta=np.zeros(2), B=-np.eye(2))
        model = assemble_model(space, params)
        shell = space.inequalities[0]
        assert model.a[0][0] == shell
        assert model.a[0][1].is_zero()
        assert model.b[0] == -1.0 * Polynomial.variable(0, 2)

    def test_quadric_tangential_term(self):
        # on the boundary circle the alpha part vanishes and the remainder is
        # the rank-one tangential field g (x2, -x1)(x2, -x1)'
        g = 0.7
        space = Quadric(np.eye(2))
        params = QuadricParams(alpha=np.eye(2), beta=np.zeros(2), B=-np.eye(2), gamma=[[g]])
        model = assemble_model(space, params)
        for theta in np.linspace(0.0, 6.0, 13):
            x = np.array([np.cos(theta), np.sin(theta)])
            A = np.array([[model.a[i][j](x) for j in range(2)] for i in range(2)])
            t = np.array([x[1], -x[0]])
            assert np.allclose(A, g * np.outer(t, t), atol=1e-12)

    def test_full_space_passthrough(self):
        space = FullSpace(1)
        raw = ModelCoefficients([[Polynomial.one(1)]], [Polynomial.zero(1)])
        assert assemble_model(space, raw) is raw

    def test_family_mismatch(self):
        with pytest.raises(ValueError):
            assemble_model(Simplex(2), QuadricParams(alpha=np.eye(2), beta=np.zeros(2), B=np.zeros((2, 2))))
        with pytest.raises(ValueError):
            assemble_model(BoxOrthant(1, 0), SimplexParams(alpha=np.zeros((1, 1)), beta=[0.0], B=[[0.0]]))

    def test_structural_rejections(self):
        space = BoxOrthant(0, 2)
        base = dict(m=0, n=2, gamma=[], phi=[0.0, 0.0], psi=np.zeros((2, 0)),
                    beta=[0.1, 0.1], B=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="pi"):
            assemble_model(space, BoxOrthantParams(alpha=np.zeros((2, 2)), pi=[[1.0, 0.0], [0.0, 0.0]], **base))
        with pytest.raises(ValueError, match="pi"):
            assemble_model(space, BoxOrthantParams(alpha=np.zeros((2, 2)), pi=[[0.0, -1.0], [-1.0, 0.0]], **base))
        box = BoxOrthant(1, 0)
        with pytest.raises(ValueError, match="gamma"):
            assemble_model(box, BoxOrthantParams(
                m=1, n=0, gamma=[-1.0], alpha=[], phi=[], psi=np.zeros((0, 1)), pi=[],
                beta=[0.5], B=[[-1.0]]))


class TestParamValidation:
    def test_shape_errors(self):
        with pytest.raises(ValueError, match="shape"):
            QuadricParams(alpha=np.eye(3), beta=np.zeros(2), B=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="psi"):
            BoxOrthantParams(m=1, n=1, gamma=[1.0], alpha=[[1.0]], phi=[0.0],
                             psi=np.zeros((2, 2)), pi=[[0.0]], beta=np.zeros(2), B=np.zeros((2, 2)))

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadricParams(alpha=[[1.0, 0.5], [0.0, 1.0]], beta=np.zeros(2), B=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="symmetric"):
            SimplexParams(alpha=[[0.0, 1.0], [2.0, 0.0]], beta=np.zeros(2), B=np.zeros((2, 2)))

    def test_empty_blocks_accepted(self):
        # JSON specs write [] for zero-size blocks regardless of shape
        p = BoxOrthantParams(m=0, n=1, gamma=[], alpha=[[2.0]], phi=[1.0],
                             psi=[], pi=[[0.0]], beta=[0.3], B=[[-0.5]])
        assert p.psi.shape == (1, 0)
        assert p.gamma.shape == (0,)

    def test_empty_orthant_alpha_is_checked(self):
        # with n = 0, alpha is a (0, 0) block like psi and pi: [] or that shape, nothing else
        with pytest.raises(ValueError, match=r"alpha must have shape \(0, 0\), got \(1, 2\)"):
            BoxOrthantParams(m=1, n=0, gamma=[1.0], alpha=[[5.0, 1.0]], phi=[], psi=[], pi=[],
                             beta=[0.5], B=[[-1.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            SimplexParams(alpha=[[0.0, np.inf], [np.inf, 0.0]], beta=np.zeros(2), B=np.zeros((2, 2)))

    def test_spec_dicts(self):
        # each is a model file's state_space block: Q as its matrix, the dimension left to the file
        assert Quadric(np.eye(2)).spec_dict() == {"family": "quadric", "Q": [[1.0, 0.0], [0.0, 1.0]],
                                                  "orientation": "inside"}
        assert BoxOrthant(2, 1).spec_dict() == {"family": "box_orthant", "m": 2, "n": 1}
        assert Simplex(3).spec_dict() == {"family": "simplex"}
        assert FullSpace(4).spec_dict() == {"family": "full"}
