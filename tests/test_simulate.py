"""Path simulation, dispersion, and Monte Carlo statistics."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polydiff.simulate
from polydiff import (
    BoxOrthant,
    BoxOrthantParams,
    FullSpace,
    ModelCoefficients,
    PathSet,
    PointOutsideStateSpace,
    Polynomial,
    Quadric,
    QuadricParams,
    Simplex,
    assemble_model,
    boundary_hit_stats,
    conditional_moment,
    dispersion,
    mc_moment,
    simulate_paths,
)

from polydiff.polynomial import _compiled, _evaluator
from polydiff.simulate import (_eigh_root_times, _path_keys, _philox_uniforms, _psd_root_times_3x3, _psd_sqrt_batch,
                               _root_times, _stream)

from conftest import (
    MODEL_MATRIX,
    paths_csv_by_format,
    brownian_model,
    cir_model,
    jacobi_model,
    oracle_eval,
    oracle_simulate_paths,
    reference_stream,
    simplex3_model,
    simplex_jacobi_model,
    simplex_x2_form_model,
    unit_ball_model,
)


def eigh_root(A):
    """PSD square root through the eigendecomposition, for any d."""
    w, V = np.linalg.eigh(A)
    return np.einsum("...ik,...k,...jk->...ij", V, np.sqrt(np.maximum(w, 0.0)), V)


def brownian(d):
    a = [[Polynomial.constant(d, float(i == j)) for j in range(d)] for i in range(d)]
    return ModelCoefficients(a, [Polynomial.zero(d)] * d), FullSpace(d)


# 1, 2, 4, 4, 5 and 8 32-bit words: numpy pads seeds of up to 4 words and
# mixes the words of longer ones in after the pool
SEEDS = [0, 2**32 + 1, 2**96 + 3, 2**128 - 1, 2**130 + 5, 2**255 + 1]
INDICES = [0, 1, 2**32 - 1, 2**32, 2**50]
# padded past the path count of the array route
ROUTE_INDICES = INDICES + list(range(3, 3 + polydiff.simulate._ARRAY_MIN_PATHS))


def count_array_route(monkeypatch):
    """Patch ``_philox_uniforms`` to record the path count of each call; returns the record."""
    taken, philox = [], polydiff.simulate._philox_uniforms
    monkeypatch.setattr(polydiff.simulate, "_philox_uniforms", lambda keys, *a: taken.append(len(keys)) or philox(keys, *a))
    return taken


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
        keys = _path_keys(seed, INDICES)
        gen = np.random.Generator(np.random.Philox(0))
        for step, block in [(0, 5), (4, 3), (8, 9), (0, 1)]:
            u = _stream(gen, keys, d)(step, block)
            for i, k in enumerate(INDICES):
                assert np.array_equal(u[i], reference_stream(seed, k).random((step + block, d))[step:])
            # the array Philox is exact beyond the shapes its route takes
            assert np.array_equal(_philox_uniforms(keys, step, block, d), u)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("route", ["array", "loop"])
    def test_both_routes_draw_the_reference_uniforms(self, monkeypatch, seed, d, route):
        if route == "loop":
            monkeypatch.setattr(polydiff.simulate, "_ARRAY_MIN_PATHS", len(ROUTE_INDICES) + 1)
        taken = count_array_route(monkeypatch)
        keys = _path_keys(seed, ROUTE_INDICES)
        want = np.stack([reference_stream(seed, k).random((1024 + 16, d)) for k in ROUTE_INDICES])
        gen = np.random.Generator(np.random.Philox(0))
        # every block the array route takes, at starts 0 and 1024; most are
        # ragged, block * d not a multiple of 4
        blocks = [(step, block) for step in (0, 1024) for block in range(1, 16 // d + 1)]
        for step, block in blocks:
            assert np.array_equal(_stream(gen, keys, d)(step, block), want[:, step:step + block])
        assert taken == ([len(keys)] * len(blocks) if route == "array" else [])

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
    def test_chunks_across_the_route_boundary(self, monkeypatch, make):
        # 300 paths x 8 steps draw through the array route in one chunk, and
        # through the generator loop in chunks of 7
        model, space = make()
        x0 = [0.2] if space.dim == 1 else [0.3, 0.7]
        taken = count_array_route(monkeypatch)
        a = simulate_paths(model, space, x0, 0.08, 0.01, 300, seed=5)
        monkeypatch.setattr(polydiff.simulate, "_CHUNK_PATHS", 7)
        b = simulate_paths(model, space, x0, 0.08, 0.01, 300, seed=5)
        assert taken == [300]
        assert np.array_equal(a.paths, b.paths)
        assert np.array_equal(a.constraint_minima, b.constraint_minima)

    def test_keys_become_ints_once_a_chunk(self, monkeypatch):
        # 11 steps in blocks of 4 draw three blocks through the generator loop;
        # each chunk converts its keys to Python ints once
        monkeypatch.setattr(polydiff.simulate, "_STEP_BLOCK", 4)
        monkeypatch.setattr(polydiff.simulate, "_CHUNK_PATHS", 3)
        converted = []

        class Keys(np.ndarray):
            def tolist(self):
                converted.append(len(self))
                return super().tolist()

        path_keys = polydiff.simulate._path_keys
        monkeypatch.setattr(polydiff.simulate, "_path_keys", lambda seed, idx: path_keys(seed, idx).view(Keys))
        model, space = brownian(2)
        simulate_paths(model, space, [0.0, 0.0], 1.375, 0.125, 7, seed=5)
        assert converted == [3, 3, 1]

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

    def test_one_dimensional_root_is_the_clipped_sqrt(self):
        # a(x) = x over the whole double range: signed zeros, subnormals, extremes and infinities
        model = ModelCoefficients([[Polynomial.variable(0, 1)]], [Polynomial.zero(1)])
        tiny, huge = np.finfo(float).smallest_subnormal, np.finfo(float).max
        values = np.array([0.0, -0.0, tiny, -tiny, 2**-1022, 1e-300, -1e-300, 1e300, -1e300, huge, -huge,
                           np.inf, -np.inf, 1.0, -1.0])
        scales = 10.0 ** np.arange(-300, 300, 0.6)
        values = np.concatenate([values, np.random.default_rng(6).standard_normal(len(scales)) * scales])
        A = model.a_eval(values[:, None])
        got = dispersion(model, values[:, None])
        assert got.tobytes() == np.sqrt(np.maximum(A, 0.0)).tobytes()

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
    ``oracle_eval``, byte for byte: the first call on the batch shape, which
    runs on new arrays, and the second and third, which run in place on the
    program's register file."""
    want = [oracle_eval(p, X) for p in polys]
    evaluate = _evaluator(polys)
    for _ in range(3):
        got = evaluate(X)
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

    def test_repeated_polynomials_and_shared_terms_are_merged(self):
        x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        p = 1.0 - x1 ** 2 - x2 ** 2
        # p twice, an equal copy of it, and two polynomials that share its terms
        polys = [p, -x1, p, 1.0 - x1 ** 2 - x2 ** 2, p + 3.0 * x1 * x2, 2.0 - x2 ** 2]
        code = _compiled(2, tuple(tuple(q.terms.items()) for q in polys))
        assert [row for row, _ in code.copies] == [2, 3]
        # x1^2 and x2^2, then the terms -x1^2, -x2^2, -x1, 3 x1 x2: each once
        assert code.registers == 2 + 2 + 4
        X = np.random.default_rng(8).uniform(-2.0, 2.0, (5, 2))
        assert_evaluator_is_the_oracle(polys, X)

    @pytest.mark.parametrize("shape", [(), (6,), (2, 3)], ids=["point", "batch", "two_axes"])
    def test_powers_above_two(self, shape):
        x1, x2, x3 = (Polynomial.variable(i, 3) for i in range(3))
        polys = [x1 ** 3, 0.5 * x1 ** 4 * x2 ** 3 - x3 ** 7, x2 ** 5 * x3 ** 2 + 2.0 * x1 ** 3, x3 ** 9 - 1.0]
        X = np.random.default_rng(9).uniform(-3.0, 3.0, shape + (3,)) * 10.0 ** np.arange(-2, 1)
        assert_evaluator_is_the_oracle(polys, X)

    def test_values_are_distinct_arrays(self):
        # the first call's values are new arrays, a repeated polynomial included
        x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        p = x1 * x2 - 1.0
        polys = [p, p, Polynomial.constant(2, 2.0), x1]
        X = np.array([[0.5, 2.0], [3.0, -1.0]])
        evaluate = _evaluator(polys)
        first = evaluate(X)
        assert not any(np.shares_memory(first[i], first[j]) or np.shares_memory(first[i], X)
                       for i in range(4) for j in range(i))
        first[0][:] = 7.0
        assert [v.tolist() for v in first[1:]] == [[0.0, -4.0], [2.0, 2.0], [0.5, 3.0]]
        # later calls on the shape run in place and return rows of one block, each its own row
        second = evaluate(X)
        assert not any(np.shares_memory(second[i], second[j]) for i in range(4) for j in range(i))
        assert not any(np.shares_memory(v, w) for v in first for w in second)
        assert np.shares_memory(evaluate(X + 1.0), second)

    @pytest.mark.parametrize("name", ["simplex_jacobi", "unit_ball", "jacobi"])
    def test_step_minima_own_their_rows(self, monkeypatch, name):
        # the minima stay the running minimum over every step, though each step's
        # values are rows of the register file that the next step overwrites
        monkeypatch.setattr(polydiff.simulate, "_CHUNK_PATHS", 5)
        model, space = MODEL_MATRIX[name]()
        ps = simulate_paths(model, space, space.interior_samples(2)[1], 0.3, 0.01, 12, seed=4)
        for q, p in enumerate(space.inequalities):
            assert ps.constraint_minima[:, q].tobytes() == oracle_eval(p, ps.paths).min(axis=1).tobytes()

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


def unit_ball3_model():
    return unit_ball_model(3)


def unit_ball5_model():
    return unit_ball_model(5)


def ball_radial_model():
    """a(x) = x x' + (1 - |x|^2) I on the unit ball in R^3, with an outward drift:
    projected states sit on the sphere up to rounding, where a(x) has rank one
    and the d = 3 closed form leaves its rows to the eigh route."""
    x = [Polynomial.variable(i, 3) for i in range(3)]
    r2 = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
    return ModelCoefficients([[x[i] * x[j] + ((1.0 - r2) if i == j else 0.0) for j in range(3)] for i in range(3)],
                             x), Quadric(np.eye(3))


def box_orthant3_model():
    """[0, 1] x R_+^2: a Jacobi coordinate and two CIR ones, decoupled, so a(x) is diagonal."""
    space = BoxOrthant(1, 2)
    params = BoxOrthantParams(m=1, n=2, gamma=[1.0], alpha=np.zeros((2, 2)), phi=[0.3, 0.5], psi=np.zeros((2, 1)),
                              pi=np.zeros((2, 2)), beta=[0.5, 0.4, 0.6], B=np.diag([-1.0, -0.5, -0.8]))
    return assemble_model(space, params), space


# R R' against the eigenvalue-clipped a, relative to max |a|, on every row of the d = 3 root
RRT_GATE = 1e-12


def upper(A):
    d = A.shape[-1]
    return [A[:, i, j] for i in range(d) for j in range(i, d)]


def root_matrix(A):
    """The matrix R of ``_root_times`` on the rows of A: its columns are R e_k."""
    return np.stack([_root_times(upper(A), np.tile(e, (len(A), 1))) for e in np.eye(A.shape[-1])], axis=2)


def assert_root_close(A, z, gate=8.0 * EPS):
    """_root_times(A, z) against the eigh route of ``dispersion``: R R' within
    ``gate`` |A| of the eigenvalue-clipped A (a few ulps by default), and R z
    within sqrt(eps |A|) |z|, the accuracy of a root of an eigenvalue that is
    known to an ulp of |A|."""
    norm = np.abs(A).max(axis=(1, 2))
    want = polydiff.simulate._psd_sqrt_batch(A)
    got = _root_times(upper(A), z)
    assert np.all(np.abs(got - np.einsum("cij,cj->ci", want, z)).max(axis=1)
                  <= np.sqrt(EPS * norm) * np.abs(z).max(axis=1))
    sigma = root_matrix(A)
    assert np.all(np.abs(sigma @ np.swapaxes(sigma, 1, 2) - want @ want).max(axis=(1, 2)) <= gate * norm)


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

    @pytest.mark.parametrize("make", [unit_ball3_model, simplex3_model, ball_radial_model])
    def test_three_dimensional_meets_the_gate(self, make):
        model, space = make()
        X = space.all_samples(64)
        assert_root_close(model.a_eval(X), np.random.default_rng(4).standard_normal((len(X), 3)), gate=RRT_GATE)

    def test_four_dimensional_is_the_einsum(self):
        model, space = unit_ball_model(4)
        X = space.all_samples(64)
        z = np.random.default_rng(4).standard_normal((len(X), 4))
        got = _root_times(upper(model.a_eval(X)), z)
        assert got.tobytes() == np.einsum("cij,cj->ci", dispersion(model, X), z).tobytes()

    def test_non_finite_rows_give_nan_in_three_dimensions(self):
        # eigh fails on some of them, e.g. all entries infinite or all NaN;
        # the other rows keep their eigh root bit for bit
        model, space = unit_ball_model(3)
        X = space.all_samples(16)
        z = np.random.default_rng(5).standard_normal((len(X), 3))
        A = model.a_eval(X)
        want = _root_times(upper(A), z)
        A[0, 1, 1] = np.inf
        A[6] = np.inf * np.sign(A[6] + 0.5)
        A[10] = np.nan
        got = _root_times(upper(A), z)
        bad = np.isin(np.arange(len(X)), [0, 6, 10])
        assert np.isnan(got[bad]).all()
        assert got[~bad].tobytes() == want[~bad].tobytes()

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


# eigenvalues of either sign over twelve decades, with zeros, repeats and rounding-sized negatives
EIGENVALUES = st.one_of(st.sampled_from([0.0, 1.0, -1e-17]), st.floats(-1.0, 1.0), st.floats(1e-12, 1.0))


@st.composite
def symmetric_3x3(draw):
    """A batch of symmetric 3x3 matrices V diag(w) V', V a random rotation."""
    w = np.array(draw(st.lists(st.lists(EIGENVALUES, min_size=3, max_size=3), min_size=1, max_size=6)))
    V = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((len(w), 3, 3)))[0]
    return np.einsum("cik,ck,cjk->cij", V, w, V) * 10.0 ** draw(st.integers(-3, 3))


def rrt_error(A):
    """max |R R' - A+| / max |A| row by row, for R the matrix of ``_root_times`` and
    A+ the eigenvalue-clipped A of the eigh route."""
    w, V = np.linalg.eigh(A)
    clipped = np.einsum("cik,ck,cjk->cij", V, np.maximum(w, 0.0), V)
    R = root_matrix(A)
    return np.abs(R @ np.swapaxes(R, 1, 2) - clipped).max(axis=(1, 2)) / np.abs(A).max(axis=(1, 2))


def kept_rows(A):
    """The rows of A that the d = 3 closed form keeps."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _, rest = _psd_root_times_3x3(*upper(A), *np.ones((3, len(A))))
    return np.ones(len(A), dtype=bool) if rest is None else ~rest


class TestRootTimesThreeDimensions:
    """The d = 3 closed form, from +, -, *, / and sqrt alone, and the rows it leaves."""

    @PROPERTY
    @given(symmetric_3x3())
    def test_every_row_meets_the_gate(self, A):
        # kept rows by the closed form, the others by a rank-one root, zero or eigh
        nonzero = np.abs(A).max(axis=(1, 2)) > 0.0
        assert np.all(rrt_error(A[nonzero]) <= RRT_GATE)

    def test_most_random_rows_are_kept(self):
        rng = np.random.default_rng(7)
        V = np.linalg.qr(rng.standard_normal((2000, 3, 3)))[0]
        w = np.exp(rng.uniform(-12.0, 0.0, (2000, 3)))
        A = np.einsum("cik,ck,cjk->cij", V, w, V)
        kept = kept_rows(A)
        assert kept.mean() > 0.9
        assert rrt_error(A[kept]).max() <= RRT_GATE

    @PROPERTY
    @given(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0**-1074]), st.floats(-1e300, 1e300)))
    def test_multiples_of_the_identity(self, q):
        R = root_matrix(q * np.eye(3)[None])[0]
        want = np.sqrt(max(q, 0.0)) * np.eye(3)
        assert np.all(np.abs(R - want) <= 8.0 * EPS * want)

    @PROPERTY
    @given(symmetric_3x3(), st.sampled_from([2.0**-500, 2.0**500]))
    def test_rows_far_from_unit_scale(self, A, scale):
        # rows already below 2^-400 would leave the normal doubles, where R R' itself underflows
        normal = np.abs(A).max(axis=(1, 2)) > 2.0**-400
        assert np.all(rrt_error(scale * A[normal]) <= RRT_GATE)

    @PROPERTY
    @given(symmetric_3x3(), st.integers(0, 5), st.sampled_from([np.inf, -np.inf, np.nan]))
    def test_non_finite_rows_give_nan(self, A, entry, bad):
        z = np.random.default_rng(8).standard_normal((len(A), 3))
        a = upper(A)
        a[entry][0] = bad
        got = _root_times(a, z)
        assert np.isnan(got[0]).all()
        assert got[1:].tobytes() == _root_times([v[1:] for v in a], z[1:]).tobytes()

    def test_rows_do_not_depend_on_their_batch(self):
        # simplex3 rows have rank two and skip Newton alone; beside ball rows, Newton runs
        rng = np.random.default_rng(10)
        rows = [make()[0].a_eval(make()[1].all_samples(16)) for make in (simplex3_model, lambda: unit_ball_model(3))]
        A = np.concatenate(rows)
        z = rng.standard_normal((len(A), 3))
        got = _root_times(upper(A), z)
        alone = [_root_times(upper(rows[0]), z[:len(rows[0])]), _root_times(upper(rows[1]), z[len(rows[0]):])]
        assert got.tobytes() == np.concatenate(alone).tobytes()

    def test_fallback_rows_are_the_eigh_route(self):
        model, space = ball_radial_model()
        ps = simulate_paths(model, space, space.interior_samples(2)[1], 0.4, 0.01, 16, seed=2026)
        X = ps.paths.reshape(-1, 3)
        a = upper(model.a_eval(X))
        z = np.random.default_rng(9).standard_normal((len(X), 3))
        rest = ~kept_rows(model.a_eval(X))
        assert rest.sum() > 10
        got = _root_times(a, z)
        assert got[rest].tobytes() == _eigh_root_times([v[rest] for v in a], z[rest]).tobytes()

    def test_fallback_paths_do_not_depend_on_the_chunk(self, monkeypatch):
        # the eigh sub-batches, and so their einsum, differ between the two chunkings
        rows, eigh = [], polydiff.simulate._eigh_root_times
        monkeypatch.setattr(polydiff.simulate, "_eigh_root_times", lambda a, z: rows.append(len(z)) or eigh(a, z))
        model, space = ball_radial_model()
        runs = []
        for chunk in (5, 8192):
            monkeypatch.setattr(polydiff.simulate, "_CHUNK_PATHS", chunk)
            ps = simulate_paths(model, space, space.interior_samples(2)[1], 0.4, 0.01, 12, seed=2026)
            runs.append((ps.paths.tobytes(), ps.constraint_minima.tobytes()))
        assert sum(rows) > 20
        assert runs[0] == runs[1]

    def test_simplex3_never_calls_eigh(self, monkeypatch):
        # states that projection puts on an edge have rank-one a, which the fallback takes without eigh
        calls, left = [], []
        sqrt_batch, clipped = polydiff.simulate._psd_sqrt_batch, polydiff.simulate._clipped_root_times_3x3
        monkeypatch.setattr(polydiff.simulate, "_psd_sqrt_batch", lambda A: calls.append(len(A)) or sqrt_batch(A))
        monkeypatch.setattr(polydiff.simulate, "_clipped_root_times_3x3",
                            lambda a, z: left.append(len(z)) or clipped(a, z))
        model, space = simplex3_model()
        ps = simulate_paths(model, space, [0.05, 0.05, 0.9], 0.5, 0.02, 32, seed=7)
        assert (ps.paths == 0.0).any(axis=2).sum() > 0 and sum(left) > 0
        assert calls == []

    @pytest.mark.parametrize("make", [unit_ball3_model, simplex3_model, box_orthant3_model])
    def test_no_transcendental_ufuncs(self, monkeypatch, make):
        model, space = make()
        x0 = space.interior_samples(2)[1] if space.family != "box_orthant" else np.array([0.5, 0.5, 0.5])

        def refuse(*args, **kwargs):
            raise AssertionError("a transcendental ufunc, whose bits depend on the CPU")

        for name in ("arccos", "cos", "sin", "cbrt", "exp", "log", "power"):
            monkeypatch.setattr(np, name, refuse)
        ps = simulate_paths(model, space, x0, 0.32, 0.01, 64, seed=5)
        assert np.isfinite(ps.paths).all()


ORACLE_CASES = {**MODEL_MATRIX, "simplex_x2_form": simplex_x2_form_model, "simplex3": simplex3_model,
                "unit_ball3": lambda: unit_ball_model(3), "unit_ball4": lambda: unit_ball_model(4)}


@pytest.mark.pinned_bits
class TestAgainstOracle:
    """simulate_paths against the step loop written with the public pieces
    (conftest.oracle_simulate_paths): the same paths and minima bit for bit
    in d = 1 and d >= 4; in d = 2 and d = 3 the closed-form root moves them by
    rounding."""

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
        if space.dim in (2, 3):
            assert np.abs(got.paths - want.paths).max() <= 1e-8
            if space.inequalities:
                assert np.abs(got.constraint_minima - want.constraint_minima).max() <= 1e-8
        else:
            assert np.array_equal(got.paths, want.paths)
            if space.inequalities:
                assert np.array_equal(got.constraint_minima, want.constraint_minima)

    @pytest.mark.parametrize("make, steps", [(jacobi_model, 8), (unit_ball5_model, 3)])
    def test_a_chunk_on_the_array_route(self, monkeypatch, make, steps):
        model, space = make()
        taken = count_array_route(monkeypatch)
        x0 = space.interior_samples(2)[1]
        got = simulate_paths(model, space, x0, steps * 0.01, 0.01, 300, seed=13)
        want = oracle_simulate_paths(model, space, x0, steps * 0.01, 0.01, 300, seed=13)
        assert taken == [300]
        assert np.array_equal(got.paths, want.paths)
        assert np.array_equal(got.constraint_minima, want.constraint_minima)


def hyperboloid_outside_model():
    """{x1^2 - x2^2 >= 1}, outside the hyperbola, with a drift towards the origin, so projection fires."""
    space = Quadric(np.diag([1.0, -1.0]), orientation="outside")
    return assemble_model(space, QuadricParams(alpha=np.eye(2), beta=np.zeros(2), B=-0.5 * np.eye(2))), space


def ou2_model():
    """A correlated 2-d Ornstein-Uhlenbeck model on the full plane."""
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    c = [[Polynomial.constant(2, 1.0), Polynomial.constant(2, 0.3)],
         [Polynomial.constant(2, 0.3), Polynomial.constant(2, 0.5)]]
    return ModelCoefficients(c, [0.2 - x1, 0.1 * x1 - 0.5 * x2]), FullSpace(2)


def box_orthant_model():
    """[0, 1] x R_+: a Jacobi coordinate and a CIR-like one driven by it."""
    space = BoxOrthant(1, 1)
    params = BoxOrthantParams(m=1, n=1, gamma=[1.0], alpha=[[0.5]], phi=[0.3], psi=[[0.2]], pi=[[0.0]],
                              beta=[0.5, 0.4], B=[[-1.0, 0.0], [0.1, -0.5]])
    return assemble_model(space, params), space


def disk_off_e_model():
    """a(x) = I - x x' on the unit disk, PSD on E and indefinite off it, with an
    outward drift: projected states sit on the circle up to rounding, where
    det a(x) = 1 - |x|^2 takes either sign, so the clipped 2x2 root runs."""
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    a = [[1.0 - x1 * x1, -(x1 * x2)], [-(x1 * x2), 1.0 - x2 * x2]]
    return ModelCoefficients(a, [x1, x2]), Quadric(np.eye(2))


PINNED_MODELS = {"ball2": unit_ball_model, "ball3": lambda: unit_ball_model(3), "simplex2": simplex_jacobi_model,
                 "hyperboloid_outside": hyperboloid_outside_model, "ou2": ou2_model, "box_orthant": box_orthant_model,
                 "disk_off_e": disk_off_e_model}
# starting points other than the second interior sample: away from the hyperbola,
# where its diffusion vanishes
PINNED_X0 = {"hyperboloid_outside": [2.0, 0.5]}
# (paths, steps, chunk): the benchmark's two shapes, a chunk wider than the
# array route's threshold, and chunks of 5 paths that end on a short one
PINNED_SHAPES = {"16x512": (16, 512, None), "2048x8": (2048, 8, None), "257x16": (257, 16, None),
                 "12x40_chunk5": (12, 40, 5)}


@pytest.mark.pinned_bits
class TestPinnedBits:
    """sha256 of ``paths`` and ``constraint_minima`` of d = 2 and d = 3 runs as
    the step kernel computed them when they were recorded.  d = 2 and d = 3
    have no bit-for-bit oracle (the oracle's root is ``eigh``), so these pin
    every rounding of the closed-form roots, the projections and the minima.
    No pinned run reaches LAPACK, so the digests hold on every CPU and BLAS."""

    DIGESTS = {
        ("ball2", "12x40_chunk5"): ("a0ad746b8fbc0f3ce150a78b6ff183c5265904411f161e3a6065156a9f72e607",
                                   "8fc475c569bf4da40cae5a0ec16390648cda5b6e2e83103260d79e770c30bef0"),
        ("ball2", "16x512"): ("1dc7a510777a17e50e2fd92860ba9f7aed786028d93d4c22690b1a33d93d0d78",
                             "483db51c9a607d3349331807dae226b0c146b720ef5aa69dcb27c93d65481ba0"),
        ("ball2", "2048x8"): ("249d6399615a24fe7b9558de8b8e70b8f812e80af47bcf7a3c7223570e4413fc",
                             "76a45c41a86cbd2d0ffae15e83a0f86f453befb42b7750744c00ff09656253ec"),
        ("ball2", "257x16"): ("f2d9103f663b8059de491f71f235842e2b2c062a70cd753daf66e96f81001497",
                             "5639a6776b80c52d3e86858265650957435157eefbb729c7c94d376b0e1c42db"),
        ("ball3", "12x40_chunk5"): ("ba5811c00562c30ea2abde8caa86c0e64615c6dfc58acea1840c61e6008cae30",
                                   "59d885bc0c742e9ea0f210cc0fd31ecf5a60985397c3778183555b24ca8f6d5c"),
        ("ball3", "16x512"): ("1ff93e2caac0a77c2f6211cbe7578077980ccc04e70720e4758afc45c612dfad",
                             "e2d154f9678044be30a4838b899801b89ba1cd9c81e829785e4c8343348b2351"),
        ("ball3", "2048x8"): ("51ed5dd26a2621a36b62ba50ed5871a1aa4c428851d42a89d2bc51d42c0651a8",
                             "31514c19017255cf6a7d7f143a93070b5251526cd9f0de23983535d6e083b571"),
        ("ball3", "257x16"): ("ae2a21f9374760305a5c218c5f252450387fe982924bcba1018efdaa4930dcb9",
                             "fb5478d78c476aef1bbb295747104652c2e4a34db4a350dfbc84cdc1974c43d3"),
        ("box_orthant", "12x40_chunk5"): ("5f3aad379d9f143cdd5b858f3407ee5e8ad3771cfa8acb893657f0d8363f4560",
                                         "a4dabc0625cad1d2971cec1ed1f2f35b62bf5ebf2f5191920d12738d9be60a23"),
        ("box_orthant", "16x512"): ("7d4c8eb3faf9f1982596a2665a55638ba8e5a3139324d0b2861def7e8502a2b6",
                                   "40df195bc601aafade2dfb06bea3b7bbaa3069cec4e33bd4e1ac60ab9d533907"),
        ("box_orthant", "2048x8"): ("754442df1597b01ad5c7cc618304597b072d76b44e065ea2d25926164ff4e312",
                                   "2f11d977a97fcb88b6997b4bda3a78d06d748d7cd53b67cb1b55ed80d5959f75"),
        ("box_orthant", "257x16"): ("e3c7e1adefdab99a2d335a780239291941ba51cc2a4c58b039045901c976cc52",
                                   "35918187346e10686a76f8ae9a55ba3fb0892c19ca7c033f0bd5908beec38372"),
        ("disk_off_e", "12x40_chunk5"): ("18acfe1ca36f38626125a920f38e59df26779dc4b82a39b34034e9223323ab09",
                                        "316e62d931953337d66529382732266b041206501dea66519b7e76124dcd22aa"),
        ("disk_off_e", "16x512"): ("366b991a71622ec549b9b3a100c117694359271ae762240de70fa960f02eb1eb",
                                  "d8b5c59c941a6ccaf47071693926fa6be3bddab723205dfbcdccaa19dd97007f"),
        ("disk_off_e", "2048x8"): ("6ee99ab6d988451a1d3476546014c013357218a35d71124b09e9a3d441e864cd",
                                  "266eebc25b0c85ed976df9ce4debecc5ad93272147bccb829bbc6b7918275f3f"),
        ("disk_off_e", "257x16"): ("7f6a482fec49505de4ef15058201208f10a53c70e9e8b79fdbada6b011a32cb8",
                                  "52efa13a382a8f8b7892093fe9929eb5c3e2952ef9adc47f64d7c661e82506db"),
        ("hyperboloid_outside", "12x40_chunk5"): ("428fae1b9ee598e47be931aaf2c6b2a3cac5ebc7feb17b86d52ed2633fffe730",
                                                 "961b6e06b1711132a061b0fd191ed16b75491236587b209445cc30c4a4bd27af"),
        ("hyperboloid_outside", "16x512"): ("dfc70b6be26e016dfc2c7ef9cdd7370e4e17ca93eebc39526c317deefe34e727",
                                           "155b84f27ee36b0bdf7e291bfe518b96a5da492fccc243abbbe20097edd3311e"),
        ("hyperboloid_outside", "2048x8"): ("d87281b05498a690a7a07782b63288d8b0e837d332c6b8ee4a6e066094305036",
                                           "ac7b4e060c2332c434385bedc040e8fd41aa5b2ce30f4ded659f4f9f7181c675"),
        ("hyperboloid_outside", "257x16"): ("ea9687427fa7982e18847b20370f8b04fd14385d97ab5db77fcf3ff025143f00",
                                           "044404c642d1aa730187b53f7b125da8096dc65c498814f6b395190f4669f39a"),
        ("ou2", "12x40_chunk5"): ("540913f86503e4c1984afdc97f55b33a4f5998de41e8e76f169f9b03802b8d0e",
                                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("ou2", "16x512"): ("8549fd85582921660810851b51a02eed4b4dfdf3beb5de1c63f890872bdd4a53",
                           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("ou2", "2048x8"): ("539b5d20abe5fca5038cdf764b4ab215ee7a69a01ffca01e607503437b104e01",
                           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("ou2", "257x16"): ("0bfeb22c79d1a7285872922f0f98364e121f34ea1be1dbeef10a2b3a135807fb",
                           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("simplex2", "12x40_chunk5"): ("17ed0298ed068a9b1b9eeb228f8107849e9393f245e32933a3e6f0aa8c0b6dfa",
                                      "5d922d8d99ed5b21cad39f5f21a3da74a873a1a35b56b357100378dc3cd72925"),
        ("simplex2", "16x512"): ("a64ef66aa5cc0754373d9c2ae6ccaad8e427a72a85be6577b1320fa42f7e4f59",
                                "466fbd0b205c630b89732ede4fd3b19488af02febf04aef51b723a0f75e25c33"),
        ("simplex2", "2048x8"): ("81d487dc9dbcacd5e754d02ac42bc8d16f3605b86f19aeec067ddcf42e2879e7",
                                "f75272082ce212a34d9cd7b72adef4e033cedbebf68bb04fb63baaf21ccb2c79"),
        ("simplex2", "257x16"): ("66ee64810de1413f06fb55d1c69ed9fbe49a269a9e28ac5148856fa82ad43960",
                                "f96df61d0f4b52b776e78d57065563e483d8d8795a282b0d037a4bfbfd691b59"),
    }

    @pytest.mark.parametrize("shape", sorted(PINNED_SHAPES))
    @pytest.mark.parametrize("name", sorted(PINNED_MODELS))
    def test_paths_and_minima(self, monkeypatch, name, shape):
        model, space = PINNED_MODELS[name]()
        n_paths, steps, chunk = PINNED_SHAPES[shape]
        if chunk is not None:
            monkeypatch.setattr(polydiff.simulate, "_CHUNK_PATHS", chunk)
        x0 = PINNED_X0.get(name, space.interior_samples(2)[1])
        ps = simulate_paths(model, space, x0, steps * 0.01, 0.01, n_paths, seed=2026)
        minima = b"" if ps.constraint_minima is None else ps.constraint_minima.tobytes()
        got = (hashlib.sha256(ps.paths.tobytes()).hexdigest(), hashlib.sha256(minima).hexdigest())
        assert got == self.DIGESTS[name, shape]

    def test_the_clipped_root_runs(self, monkeypatch):
        rows, clipped = [], polydiff.simulate._clipped_root_times
        monkeypatch.setattr(polydiff.simulate, "_clipped_root_times",
                            lambda a00, a01, a11, *z: rows.append(int((a01 * a01 > a00 * a11).sum()))
                            or clipped(a00, a01, a11, *z))
        model, space = disk_off_e_model()
        simulate_paths(model, space, space.interior_samples(2)[1], 1.0, 0.01, 16, seed=2026)
        assert rows and sum(rows) > 0  # indefinite rows among them


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
            assert np.all(space.violation(flat) <= 1e-12)

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

    @pytest.mark.parametrize("n_paths, n_rows", [(300, 20), (5000, 1), (3, 4097)])
    def test_blocks_of_paths_match_per_value_writer(self, n_paths, n_rows):
        # several blocks of paths, one row a path, and one path longer than a block
        rng = np.random.default_rng(n_paths)
        paths = rng.standard_normal((n_paths, n_rows, 2)) * 10.0 ** rng.integers(-300, 300, (n_paths, n_rows, 2))
        ps = PathSet(times=np.arange(n_rows) * 0.1, paths=paths, seed=0, dt=0.1, n_steps=n_rows - 1,
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

    def test_requires_the_running_minima(self):
        # the stored steps alone would give minima that depend on the storage stride
        model, space = jacobi_model()
        ps = simulate_paths(model, space, [0.2], 0.2, 0.1, 4, seed=0)
        ps.constraint_minima = None
        with pytest.raises(ValueError, match="no constraint minima"):
            boundary_hit_stats(ps, space, space.inequalities[0], 1e-6)

    def test_minima_independent_of_stride(self):
        model, space = jacobi_model()
        a = simulate_paths(model, space, [0.2], 0.5, 0.01, 30, seed=9)
        b = simulate_paths(model, space, [0.2], 0.5, 0.01, 30, seed=9, store_stride=25)
        assert np.array_equal(a.constraint_minima, b.constraint_minima)
