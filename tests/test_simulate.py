"""Path simulation, dispersion, and Monte Carlo statistics."""

import numpy as np
import pytest

import polydiff.simulate
from polydiff import (
    BoxOrthant,
    FullSpace,
    ModelCoefficients,
    NotSymmetric,
    PathSet,
    PointOutsideStateSpace,
    Polynomial,
    boundary_hit_stats,
    conditional_moment,
    dispersion,
    mc_moment,
    nearest_psd,
    simulate_paths,
)

from conftest import (
    MODEL_MATRIX,
    paths_csv_by_format,
    brownian_model,
    cir_model,
    jacobi_model,
    simplex_jacobi_model,
    unit_ball_model,
)


class TestNearestPsd:
    def test_psd_fixed_point(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(nearest_psd(A), A, atol=1e-14)

    def test_clips_negative_eigenvalue(self):
        A = np.diag([1.0, -3.0])
        assert np.allclose(nearest_psd(A), np.diag([1.0, 0.0]), atol=1e-14)

    def test_rejects_asymmetry(self):
        with pytest.raises(NotSymmetric):
            nearest_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((5, 5))
        A = M + M.T
        P = nearest_psd(A)
        assert np.array_equal(P, P.T)
        assert np.linalg.eigvalsh(P).min() >= -1e-12

    def test_metric_projection_property(self):
        # the clip is the Frobenius-nearest PSD matrix: no random PSD S may
        # come closer to A than the projection does
        rng = np.random.default_rng(1)
        for _ in range(20):
            M = rng.standard_normal((4, 4))
            A = M + M.T
            P = nearest_psd(A)
            d_proj = np.linalg.norm(A - P)
            for _ in range(5):
                R = rng.standard_normal((4, 4))
                S = R @ R.T
                assert np.linalg.norm(A - S) >= d_proj - 1e-12


class TestDispersion:
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
