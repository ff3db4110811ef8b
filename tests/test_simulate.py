"""Path simulation, dispersion, and Monte Carlo statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polydiff.simulate
from polydiff import (
    BoxOrthant,
    FullSpace,
    ModelCoefficients,
    PathSet,
    PointOutsideStateSpace,
    Polynomial,
    Quadric,
    Simplex,
    boundary_hit_stats,
    conditional_moment,
    dispersion,
    mc_moment,
    simulate_paths,
)

from polydiff.polynomial import _evaluator
from polydiff.simulate import _path_keys, _psd_sqrt_batch, _root_times, _uniforms

from conftest import (
    MODEL_MATRIX,
    paths_csv_by_format,
    brownian_model,
    cir_model,
    jacobi_model,
    oracle_eval,
    oracle_simulate_paths,
    simplex3_model,
    simplex_jacobi_model,
    simplex_x2_form_model,
    unit_ball_model,
)


def eigh_root(A):
    """PSD square root through the eigendecomposition, for any d."""
    w, V = np.linalg.eigh(A)
    return np.einsum("...ik,...k,...jk->...ij", V, np.sqrt(np.maximum(w, 0.0)), V)


def reference_stream(seed, k):
    """Path k's stream as the documented contract states it, in numpy alone."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(k,))))


def brownian(d):
    a = [[Polynomial.constant(d, float(i == j)) for j in range(d)] for i in range(d)]
    return ModelCoefficients(a, [Polynomial.zero(d)] * d), FullSpace(d)


# 1, 2, 4, 4, 5 and 8 32-bit words: numpy pads seeds of up to 4 words and
# mixes the words of longer ones in after the pool
SEEDS = [0, 2**32 + 1, 2**96 + 3, 2**128 - 1, 2**130 + 5, 2**255 + 1]
INDICES = [0, 1, 2**32 - 1, 2**32, 2**50]


class TestStreams:
    @pytest.mark.parametrize("seed", SEEDS + [1, 2026, 2**31 - 1, 2**40 + 7])
    def test_keys_match_seed_sequence(self, seed):
        want = [np.random.SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(2, np.uint64)
                for k in INDICES]
        keys = _path_keys(seed, INDICES)
        assert keys.dtype == np.uint64 and keys.shape == (len(INDICES), 2)
        assert np.array_equal(keys, want)
        assert np.array_equal(keys[1], reference_stream(seed, 1).bit_generator.state["state"]["key"])

    def test_keys_of_a_chunk(self):
        idx = np.arange(8190, 8200)
        want = [np.random.SeedSequence(entropy=7, spawn_key=(int(k),)).generate_state(2, np.uint64)
                for k in idx]
        assert np.array_equal(_path_keys(7, idx), want)

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            _path_keys(-1, [0])
        model, space = jacobi_model()
        with pytest.raises(ValueError, match="non-negative"):
            simulate_paths(model, space, [0.2], 0.1, 0.01, 4, seed=-1)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_uniforms_at_any_block_start(self, seed, d):
        keys = _path_keys(seed, INDICES).tolist()
        gen = np.random.Generator(np.random.Philox(0))
        for step, block in [(0, 5), (4, 3), (8, 9), (0, 1)]:
            u = _uniforms(gen, keys, step, block, d)
            for i, k in enumerate(INDICES):
                assert np.array_equal(u[i], reference_stream(seed, k).random((step + block, d))[step:])

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_simulation_draws_the_reference_uniforms(self, monkeypatch, seed, d):
        # blocks of 4 steps and chunks of 3 paths: 11 steps end on a short
        # block, and 7 paths on a short chunk
        monkeypatch.setattr(polydiff.simulate, "_STEP_BLOCK", 4)
        monkeypatch.setattr(polydiff.simulate, "_CHUNK_PATHS", 3)
        drawn = []
        ndtri = polydiff.simulate.ndtri
        monkeypatch.setattr(polydiff.simulate, "ndtri", lambda u: drawn.append(u.copy()) or ndtri(u))
        model, space = brownian(d)
        simulate_paths(model, space, [0.0] * d, 1.375, 0.125, 7, seed)
        assert [u.shape[:2] for u in drawn] == [(c, b) for c in (3, 3, 1) for b in (4, 4, 3)]
        u = np.concatenate([np.concatenate(drawn[i:i + 3], axis=1) for i in (0, 3, 6)])
        want = np.stack([reference_stream(seed, k).random((11, d)) for k in range(7)])
        assert np.array_equal(u, np.clip(want, 1e-300, 1.0 - 2**-53))

    @pytest.mark.parametrize("make", [jacobi_model, simplex_jacobi_model])
    def test_step_block_invisible(self, monkeypatch, make):
        model, space = make()
        x0 = [0.2] if space.dim == 1 else [0.3, 0.7]
        a = simulate_paths(model, space, x0, 0.11, 0.01, 5, seed=3)
        monkeypatch.setattr(polydiff.simulate, "_STEP_BLOCK", 4)
        b = simulate_paths(model, space, x0, 0.11, 0.01, 5, seed=3)
        assert np.array_equal(a.paths, b.paths)
        assert np.array_equal(a.constraint_minima, b.constraint_minima)


class TestDispersion:
    @pytest.mark.parametrize("make", [jacobi_model, cir_model])
    def test_one_dimensional_root_is_the_eigh_root(self, make):
        # a = 0 on the boundary points and slightly negative just outside
        model, _ = make()
        rng = np.random.default_rng(5)
        X = np.concatenate([[0.0, 1.0, -1e-9, 1.0 + 1e-9, -1e-300, -2**-52, 1.0 + 2**-52, 0.5],
                            rng.uniform(-0.01, 1.01, 200)]).reshape(-1, 1)
        A = model.a_eval(X)
        assert (A == 0.0).any() and (A < 0.0).any()
        got = dispersion(model, X)
        assert got.shape == (len(X), 1, 1)
        assert np.array_equal(got, eigh_root(A))
        assert got.tobytes() == eigh_root(A).tobytes()

    def test_cir_scalar(self):
        model, _ = cir_model(0.5, -0.5)
        assert float(dispersion(model, [[4.0]])[0, 0, 0]) == pytest.approx(2.0)

    def test_jacobi_midpoint(self):
        model, _ = jacobi_model()
        assert float(dispersion(model, [[0.5]])[0, 0, 0]) == pytest.approx(0.5)

    def test_reconstructs_diffusion_matrix(self):
        for name in sorted(MODEL_MATRIX):
            model, space = MODEL_MATRIX[name]()
            X = space.all_samples(1000)
            A = model.a_eval(X)
            A = 0.5 * (A + np.swapaxes(A, -1, -2))
            S = dispersion(model, X)
            err = np.abs(np.einsum("kij,kjl->kil", S, S) - A).max()
            assert err < 1e-9, name

    def test_batch_shape(self):
        model, _ = simplex_jacobi_model()
        X = np.full((7, 2), 0.5)
        assert dispersion(model, X).shape == (7, 2, 2)


EPS = np.finfo(float).eps
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=80)

# coefficients that take the evaluator's shortcuts (1.0, constants) and ones that do not
COEFFICIENTS = st.one_of(st.sampled_from([1.0, -1.0, 0.5, 2.0]),
                         st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False).filter(bool))
# coordinates with signed zeros, so a sum that starts from zero shows in the bytes
COORDINATES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def polynomials(draw, d, top):
    exps = draw(st.lists(st.tuples(*[st.integers(0, top)] * d).filter(lambda e: sum(e) <= top),
                         max_size=5, unique=True))
    return Polynomial(d, {e: draw(COEFFICIENTS) for e in exps})


@st.composite
def points(draw, d):
    return np.array(draw(st.lists(st.lists(COORDINATES, min_size=d, max_size=d), min_size=1, max_size=6)))


@st.composite
def kernel_cases(draw):
    """A model with random b (degree <= 1) and symmetric a (degree <= 2), random
    degree <= 2 inequality polynomials, and points, in d = 1..4."""
    d = draw(st.integers(1, 4))
    entries = {(i, j): draw(polynomials(d, 2)) for i in range(d) for j in range(i, d)}
    a = [[entries[min(i, j), max(i, j)] for j in range(d)] for i in range(d)]
    b = [draw(polynomials(d, 1)) for _ in range(d)]
    ineqs = draw(st.lists(polynomials(d, 2), max_size=3))
    return ModelCoefficients(a, b), ineqs, draw(points(d))


FAMILIES = [FullSpace(2), Quadric(np.eye(2)), Quadric(np.diag([1.0, -1.0]), orientation="outside"),
            Quadric(np.diag([1.0, 1.0, -1.0])), Quadric(np.eye(3), orientation="outside"), BoxOrthant(1, 0),
            BoxOrthant(2, 1), BoxOrthant(0, 3), Simplex(2), Simplex(3)]


def assert_evaluator_is_the_oracle(polys, X):
    """The family evaluator and each ``Polynomial.__call__`` against
    ``oracle_eval``, byte for byte."""
    want = [oracle_eval(p, X) for p in polys]
    got = _evaluator(polys)(X)
    assert all(type(v) is np.ndarray and v.shape == X.shape[:-1] for v in got)
    assert [v.tobytes() for v in got] == [w.tobytes() for w in want]
    assert [np.asarray(p(X)).tobytes() for p in polys] == [w.tobytes() for w in want]


def coefficient_family(model, ineqs):
    """b, the upper triangle of a and the inequalities: what one Euler step evaluates."""
    d = model.dim
    return [*model.b, *(model.a[i][j] for i in range(d) for j in range(i, d)), *ineqs]


class TestEvaluator:
    """The one polynomial evaluator, over a family and through
    ``Polynomial.__call__``, gives the term loop's values bit for bit."""

    @PROPERTY
    @given(kernel_cases())
    def test_random_polynomials(self, case):
        model, ineqs, X = case
        assert_evaluator_is_the_oracle(coefficient_family(model, ineqs), X)

    @PROPERTY
    @given(st.sampled_from(FAMILIES).flatmap(lambda space: st.tuples(st.just(space), points(space.dim))))
    def test_state_space_inequalities(self, case):
        space, X = case
        model, _ = brownian(space.dim)
        assert_evaluator_is_the_oracle(coefficient_family(model, space.inequalities),
                                       np.vstack([X, space.all_samples(16)]))

    @pytest.mark.parametrize("name", sorted(MODEL_MATRIX))
    def test_fixture_models(self, name):
        model, space = MODEL_MATRIX[name]()
        assert_evaluator_is_the_oracle(coefficient_family(model, space.inequalities), space.all_samples(64))

    @pytest.mark.parametrize("shape", [(), (3, 4), (0,), (2, 0)], ids=["point", "two_axes", "empty", "empty_axis"])
    def test_batch_shapes(self, shape):
        model, space = simplex3_model()
        X = np.random.default_rng(7).uniform(-2.0, 2.0, size=shape + (3,))
        assert_evaluator_is_the_oracle(coefficient_family(model, space.inequalities), X)

    def test_constant_and_zero_polynomials(self):
        polys = [Polynomial.constant(2, -0.3), Polynomial.zero(2), Polynomial.constant(2, 1.0),
                 Polynomial(2, {(0, 0): 2.0, (1, 0): 1.0})]
        X = np.array([[0.0, -0.0], [-0.0, 1.0], [2.0, 3.0]])
        for Y in (X[0], X, np.stack([X, X[::-1]]), X[:0]):
            assert_evaluator_is_the_oracle(polys, Y)

    def test_non_finite_coordinates(self):
        x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        polys = [x1, -x1, x1 * x2, 1.0 - x1 ** 2 - x2 ** 2, 2.0 * x1 ** 3 * x2 + 0.5, Polynomial.constant(2, 4.0)]
        X = np.array([[np.nan, 1.0], [np.inf, 0.0], [-np.inf, 2.0], [np.inf, -np.inf], [0.5, np.nan], [1.0, 2.0]])
        with np.errstate(invalid="ignore", over="ignore"):
            assert_evaluator_is_the_oracle(polys, X)

    def test_wrong_trailing_dim_raises(self):
        with pytest.raises(ValueError, match="trailing dim 2"):
            _evaluator([Polynomial.variable(0, 2)])(np.zeros((4, 3)))

    @pytest.mark.parametrize("n_paths, chunk", [(7, 8192), (12, 5)])
    def test_simulation_calls_it_once_per_step(self, monkeypatch, n_paths, chunk):
        """One evaluator over the whole family, called once per chunk and step
        (plus once at the start of a chunk), so the shared power table cannot
        split back into one call per polynomial."""
        built, calls = [], []

        def counting(polys):
            evaluate = _evaluator(polys)
            built.append(len(polys))

            def counted(x):
                calls.append(x.shape)
                return evaluate(x)
            return counted

        monkeypatch.setattr(polydiff.simulate, "_evaluator", counting)
        monkeypatch.setattr(polydiff.simulate, "_CHUNK_PATHS", chunk)
        model, space = simplex3_model()
        simulate_paths(model, space, space.interior_samples(2)[1], 0.1, 0.01, n_paths, seed=3)
        chunks = [min(chunk, n_paths - s) for s in range(0, n_paths, chunk)]
        assert built == [3 + 6 + len(space.inequalities)]
        assert calls == [(c, 3) for c in chunks for _ in range(10 + 1)]


def upper(A):
    d = A.shape[-1]
    return [A[:, i, j] for i in range(d) for j in range(i, d)]


def assert_root_close(A, z):
    """_root_times(A, z) against the eigh route of ``dispersion``: sigma sigma'
    within a few ulps of |A|, and sigma z within sqrt(eps |A|) |z|, the
    accuracy of a root of an eigenvalue that is known to an ulp of |A|."""
    norm = np.abs(A).max(axis=(1, 2))
    want = polydiff.simulate._psd_sqrt_batch(A)
    got = _root_times(upper(A), z)
    assert np.all(np.abs(got - np.einsum("cij,cj->ci", want, z)).max(axis=1)
                  <= np.sqrt(EPS * norm) * np.abs(z).max(axis=1))
    sigma = np.stack([_root_times(upper(A), np.tile(e, (len(A), 1))) for e in np.eye(2)], axis=2)
    assert np.all(np.abs(sigma @ sigma - want @ want).max(axis=(1, 2)) <= 8.0 * EPS * norm)


ROOT_KINDS = ["psd", "near_singular", "indefinite", "negative_definite", "negative_rank_one", "zero"]
# single 2x2 matrices and their roots: each branch of the closed form once
ONE_MATRIX = [
    ([[2.0, 0.0], [0.0, -1.0]], [[2.0**0.5, 0.0], [0.0, 0.0]]),  # indefinite, trace > 0
    ([[-3.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]]),  # indefinite, trace < 0
    ([[1.0, 2.0], [2.0, 1.0]], [[0.5 * 3.0**0.5, 0.5 * 3.0**0.5]] * 2),  # eigenvalues 3 and -1
    ([[4.0, 0.0], [0.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]),
    ([[-1.0, 0.0], [0.0, -2.0]], [[0.0, 0.0], [0.0, 0.0]]),
    ([[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),
]


class TestRootTimes:
    @pytest.mark.parametrize("make", [jacobi_model, cir_model])
    def test_one_dimensional_is_the_einsum(self, make):
        model, space = make()
        X = np.concatenate([space.all_samples(64), [[-1e-9], [1.0 + 1e-9], [-2**-52]]])
        z = np.random.default_rng(3).standard_normal((len(X), 1))
        got = _root_times(upper(model.a_eval(X)), z)
        assert np.array_equal(got, np.einsum("cij,cj->ci", dispersion(model, X), z))

    def test_three_dimensional_is_the_einsum(self):
        model, space = unit_ball_model(3)
        X = space.all_samples(64)
        z = np.random.default_rng(4).standard_normal((len(X), 3))
        got = _root_times(upper(model.a_eval(X)), z)
        assert got.tobytes() == np.einsum("cij,cj->ci", dispersion(model, X), z).tobytes()

    @pytest.mark.parametrize("kind", ROOT_KINDS)
    def test_two_dimensional_matches_eigh(self, kind):
        rng = np.random.default_rng(ROOT_KINDS.index(kind))
        n = 2000
        # entries from about 1e-300 to 1e300, where det A = a00 a11 - a01^2 under- or overflows
        M = rng.standard_normal((n, 2, 2)) * 10.0 ** rng.integers(-150, 150, (n, 1, 1))
        v = M[:, 0]
        # eigenvalues of both signs in random directions
        V = np.linalg.qr(rng.standard_normal((n, 2, 2)))[0]
        w = np.abs(M[:, 1]) * [1.0, -1.0]
        A = {"psd": M @ np.swapaxes(M, 1, 2),
             "near_singular": v[:, :, None] * v[:, None, :] * (1.0 + 1e-14 * np.eye(2)),
             "indefinite": np.einsum("cik,ck,cjk->cij", V, w, V),
             "negative_definite": -(M @ np.swapaxes(M, 1, 2)),
             # det A is zero, so rounding makes it negative in many rows
             "negative_rank_one": -(v[:, :, None] * v[:, None, :]),
             "zero": np.zeros((n, 2, 2))}[kind]
        z = rng.standard_normal((n, 2))
        with np.errstate(over="ignore", invalid="ignore"):  # products of the largest entries overflow
            assert_root_close(A, z)
            if kind in ("negative_definite", "zero"):
                assert np.all(_root_times(upper(A), z) == 0.0)
        if kind == "indefinite":
            assert (np.linalg.eigvalsh(A)[:, 0] < 0.0).all()
        if kind == "negative_rank_one":
            with np.errstate(over="ignore"):
                assert (upper(A)[1] ** 2 > upper(A)[0] * upper(A)[2]).sum() > n // 10

    @pytest.mark.parametrize("A, root", ONE_MATRIX)
    def test_two_dimensional_one_matrix(self, A, root):
        # each case alone, so no other row of the batch takes the clipping branch for it
        A = np.array([A])
        sigma = np.stack([_root_times(upper(A), np.array([e])) for e in np.eye(2)], axis=2)[0]
        assert np.allclose(sigma, root, rtol=0.0, atol=4.0 * EPS)

    @pytest.mark.parametrize("scale", [2.0**-1000, 1e-300, 1e-170, 1e160, 1e200, 1e300])
    def test_two_dimensional_far_from_unit_scale(self, scale):
        # det A of these under- or overflows unless the row is rescaled first
        A = scale * np.array([A for A, _ in ONE_MATRIX] + [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 1e-3], [1e-3, 1.0]]])
        roots = np.array([root for _, root in ONE_MATRIX]
                         + [[[0.5**0.5] * 2] * 2, _psd_sqrt_batch(np.array([[[1.0, 1e-3], [1e-3, 1.0]]]))[0]])
        with np.errstate(over="ignore", invalid="ignore"):
            sigma = np.stack([_root_times(upper(A), np.tile(e, (len(A), 1))) for e in np.eye(2)], axis=2)
        assert np.allclose(sigma / np.sqrt(scale), roots, rtol=0.0, atol=4.0 * EPS)

    def test_two_dimensional_non_finite_rows_stay_non_finite(self):
        A = np.array([[[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]], [[np.inf, 0.0], [0.0, 1.0]],
                      [[1.0, 0.0], [0.0, 1.0]]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = _root_times(upper(A), np.ones((4, 2)))
        assert np.isnan(got[:3]).any(axis=1).all()
        assert np.array_equal(got[3], [1.0, 1.0])

    @pytest.mark.parametrize("make", [simplex_jacobi_model, simplex_x2_form_model, unit_ball_model])
    def test_two_dimensional_fixtures(self, make):
        model, space = make()
        X = space.all_samples(500)
        assert_root_close(model.a_eval(X), np.random.default_rng(6).standard_normal((len(X), 2)))


ORACLE_CASES = {**MODEL_MATRIX, "simplex_x2_form": simplex_x2_form_model, "simplex3": simplex3_model,
                "unit_ball3": lambda: unit_ball_model(3)}


class TestAgainstOracle:
    """simulate_paths against the step loop written with the public pieces
    (conftest.oracle_simulate_paths): the same paths and minima bit for bit
    in d = 1 and d >= 3; in d = 2 the closed-form root moves them by rounding."""

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_paths_and_minima(self, monkeypatch, name):
        model, space = ORACLE_CASES[name]()
        # chunks of 5 paths and blocks of 8 steps: both boundaries fall inside the run
        monkeypatch.setattr(polydiff.simulate, "_CHUNK_PATHS", 5)
        monkeypatch.setattr(polydiff.simulate, "_STEP_BLOCK", 8)
        x0 = space.interior_samples(2)[1]
        got = simulate_paths(model, space, x0, 0.5, 0.01, 12, seed=11, store_stride=3)
        want = oracle_simulate_paths(model, space, x0, 0.5, 0.01, 12, seed=11, store_stride=3)
        assert np.array_equal(got.times, want.times)
        if space.dim == 2:
            assert np.abs(got.paths - want.paths).max() <= 1e-8
            if space.inequalities:
                assert np.abs(got.constraint_minima - want.constraint_minima).max() <= 1e-8
        else:
            assert np.array_equal(got.paths, want.paths)
            if space.inequalities:
                assert np.array_equal(got.constraint_minima, want.constraint_minima)


class TestSimulatePaths:
    def test_frozen_model_constant_paths(self):
        space = FullSpace(1)
        model = ModelCoefficients([[Polynomial.zero(1)]], [Polynomial.zero(1)])
        ps = simulate_paths(model, space, [0.7], 1.0, 0.1, 16, seed=1)
        assert np.all(ps.paths == 0.7)

    def test_deterministic_given_seed(self):
        model, space = jacobi_model()
        a = simulate_paths(model, space, [0.2], 0.5, 0.01, 32, seed=7)
        b = simulate_paths(model, space, [0.2], 0.5, 0.01, 32, seed=7)
        assert np.array_equal(a.paths, b.paths)
        assert np.array_equal(a.constraint_minima, b.constraint_minima)

    def test_seed_changes_paths(self):
        model, space = jacobi_model()
        a = simulate_paths(model, space, [0.2], 0.5, 0.01, 32, seed=7)
        b = simulate_paths(model, space, [0.2], 0.5, 0.01, 32, seed=8)
        assert not np.array_equal(a.paths, b.paths)

    def test_chunking_invisible(self, monkeypatch):
        model, space = jacobi_model()
        a = simulate_paths(model, space, [0.2], 0.3, 0.01, 9, seed=3)
        monkeypatch.setattr(polydiff.simulate, "_CHUNK_PATHS", 2)
        b = simulate_paths(model, space, [0.2], 0.3, 0.01, 9, seed=3)
        assert np.array_equal(a.paths, b.paths)

    def test_adding_paths_extends(self):
        model, space = jacobi_model()
        a = simulate_paths(model, space, [0.2], 0.3, 0.01, 5, seed=3)
        b = simulate_paths(model, space, [0.2], 0.3, 0.01, 12, seed=3)
        assert np.array_equal(a.paths, b.paths[:5])

    def test_store_stride_keeps_endpoint(self):
        model, space = jacobi_model()
        ps = simulate_paths(model, space, [0.2], 1.0, 0.01, 4, seed=0, store_stride=7)
        assert ps.times[0] == 0.0
        assert ps.times[-1] == pytest.approx(1.0)
        full = simulate_paths(model, space, [0.2], 1.0, 0.01, 4, seed=0)
        # strided storage is a subsample of the full-resolution run
        for k, t in enumerate(ps.times):
            j = int(round(t / 0.01))
            assert np.array_equal(ps.paths[:, k], full.paths[:, j])

    def test_paths_respect_state_space(self):
        for maker in (jacobi_model, simplex_jacobi_model, unit_ball_model):
            model, space = maker()
            x0 = space.interior_samples(1)[0]
            ps = simulate_paths(model, space, x0, 1.0, 0.01, 64, seed=5)
            flat = ps.paths.reshape(-1, space.dim)
            assert np.all(space.contains(flat, tol=1e-12))

    def test_input_validation(self):
        model, space = jacobi_model()
        with pytest.raises(PointOutsideStateSpace):
            simulate_paths(model, space, [1.4], 1.0, 0.1, 2, seed=0)
        with pytest.raises(ValueError):
            simulate_paths(model, space, [0.2], 1.0, 0.3, 2, seed=0)  # T not multiple
        with pytest.raises(ValueError):
            simulate_paths(model, space, [0.2], 1.0, -0.1, 2, seed=0)
        with pytest.raises(ValueError):
            simulate_paths(model, space, [0.2], 1.0, 0.1, 0, seed=0)
        with pytest.raises(ValueError):
            simulate_paths(model, space, [0.2], 1.0, 0.1, 2, seed=0, store_stride=0)

    def test_csv_layout(self):
        model, space = brownian_model()
        ps = simulate_paths(model, space, [0.0], 0.2, 0.1, 2, seed=0)
        lines = ps.csv_text().strip().split("\n")
        assert lines[0] == "path_id,step,t,x_1"
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert first[:2] == ["0", "0"]
        assert float(first[2]) == 0.0


class TestCsvWriter:
    def test_special_values_match_per_value_writer(self):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308,
                   1.7976931348623157e308, 2.0**53, 2.0**53 + 2, 1 / 3, -0.1, 123456789.0]
        paths = np.array(special * 2).reshape(2, 13, 1)
        ps = PathSet(times=np.arange(13) * 0.1, paths=paths, seed=0, dt=0.1, n_steps=12,
                     store_stride=1, scheme="euler-project", statespace_family="full")
        assert ps.csv_text() == paths_csv_by_format(ps)

    @pytest.mark.parametrize("name", ["jacobi", "simplex_jacobi", "unit_ball"])
    def test_simulated_paths_match_per_value_writer(self, name):
        model, space = MODEL_MATRIX[name]()
        x0 = space.interior_samples(1)[0]
        for stride in (1, 7):
            ps = simulate_paths(model, space, x0, 0.5, 0.01, 6, seed=5, store_stride=stride)
            assert ps.csv_text() == paths_csv_by_format(ps)


class TestMonteCarlo:
    def test_brownian_mean(self):
        model, space = brownian_model()
        ps = simulate_paths(model, space, [0.0], 1.0, 0.1, 100_000, seed=11)
        mean, se = mc_moment(ps, Polynomial.variable(0, 1), 1.0)
        assert abs(mean) < 3.0 * se
        assert se == pytest.approx(1.0 / np.sqrt(100_000), rel=0.02)

    def test_constant_moment_is_exact(self):
        model, space = jacobi_model()
        ps = simulate_paths(model, space, [0.2], 0.5, 0.01, 500, seed=2)
        mean, se = mc_moment(ps, Polynomial.one(1), 0.5)
        assert (mean, se) == (1.0, 0.0)

    def test_off_grid_time_warns(self):
        # a full-resolution grid is never more than half a step away, so the
        # snap warning only fires when storage is strided
        model, space = brownian_model()
        ps = simulate_paths(model, space, [0.0], 1.0, 0.25, 8, seed=0, store_stride=2)
        with pytest.warns(UserWarning, match="snapping"):
            mc_moment(ps, Polynomial.one(1), 0.7)

    def test_jacobi_moments_match_transform(self):
        # moderate-size cross-check of the sampler against the closed-form
        # conditional moments
        model, space = jacobi_model()
        n, dt = 4000, 2e-3
        ps = simulate_paths(model, space, [0.2], 1.0, dt, n, seed=13)
        for k in (1, 2):
            p = Polynomial.monomial((k,))
            want = conditional_moment(model, space, k, p, [0.2], 1.0)
            mean, se = mc_moment(ps, p, 1.0)
            # 4 sigma plus a first-order discretization allowance
            assert abs(mean - want) < 4.0 * se + 2.0 * dt

    def test_weak_error_shrinks_with_dt(self):
        # strong reversion makes the first-order discretization bias of the
        # mean dominate the Monte Carlo noise at the coarse step
        model, space = cir_model(3.0, -2.0)
        p = Polynomial.variable(0, 1)
        want = conditional_moment(model, space, 1, p, [3.0], 1.0)

        def bias(dt):
            means = []
            for seed in range(5):
                ps = simulate_paths(model, space, [3.0], 1.0, dt, 10_000, seed=seed,
                                    store_stride=int(round(1.0 / dt)))
                means.append(mc_moment(ps, p, 1.0)[0])
            return abs(np.mean(means) - want)

        assert bias(0.1) > 3.0 * bias(0.01)


class TestBoundaryStats:
    def test_frozen_paths_never_hit(self):
        space = BoxOrthant(0, 1)
        zero = Polynomial.zero(1)
        model = ModelCoefficients([[zero]], [zero])
        ps = simulate_paths(model, space, [0.5], 1.0, 0.1, 20, seed=0)
        stats = boundary_hit_stats(ps, space, space.inequalities[0], 1e-6)
        assert stats["hit_fraction"] == 0.0
        assert stats["min"] == 0.5
        assert stats["max"] == 0.5

    def test_low_inflow_hits_often(self):
        # strict inequality 2 b0 < sigma^2 forces the origin to be reached
        model, space = cir_model(0.25, -0.5)
        ps = simulate_paths(model, space, [0.1], 2.0, 1e-4, 500, seed=0)
        stats = boundary_hit_stats(ps, space, space.inequalities[0], 1e-6)
        assert stats["hit_fraction"] > 0.01

    def test_threshold_semantics(self):
        model, space = cir_model(0.25, -0.5)
        ps = simulate_paths(model, space, [0.1], 0.5, 1e-3, 200, seed=1)
        loose = boundary_hit_stats(ps, space, space.inequalities[0], 0.5)
        tight = boundary_hit_stats(ps, space, space.inequalities[0], 1e-12)
        assert loose["hit_fraction"] >= tight["hit_fraction"]
        assert loose["threshold"] == 0.5

    def test_quantile_block_ordered(self):
        model, space = jacobi_model()
        ps = simulate_paths(model, space, [0.2], 1.0, 0.01, 100, seed=4)
        stats = boundary_hit_stats(ps, space, space.inequalities[0], 1e-6)
        assert stats["min"] <= stats["q05"] <= stats["q25"] <= stats["median"]
        assert stats["median"] <= stats["q75"] <= stats["max"]

    def test_requires_known_inequality(self):
        model, space = jacobi_model()
        ps = simulate_paths(model, space, [0.2], 0.2, 0.1, 4, seed=0)
        with pytest.raises(ValueError):
            boundary_hit_stats(ps, space, Polynomial.constant(1, 2.0), 1e-6)

    def test_minima_independent_of_stride(self):
        model, space = jacobi_model()
        a = simulate_paths(model, space, [0.2], 0.5, 0.01, 30, seed=9)
        b = simulate_paths(model, space, [0.2], 0.5, 0.01, 30, seed=9, store_stride=25)
        assert np.array_equal(a.constraint_minima, b.constraint_minima)
