"""Admissibility validation, boundary attainment, and uniqueness reports."""

import numpy as np
import pytest

from polydiff import (
    BoxOrthant,
    BoxOrthantParams,
    DivisionFailure,
    FullSpace,
    ModelCoefficients,
    Polynomial,
    Quadric,
    QuadricParams,
    Simplex,
    SimplexParams,
    apply_generator,
    assemble_model,
    check_necessary,
    check_sufficient,
    classify_boundary,
    h_factor,
    uniqueness_report,
    validate_params,
)

from conftest import ball_params, cir_model, cir_params, jacobi_params, simplex_params, simplex_x2_form_model


def _quadric_valid():
    return Quadric(np.eye(2)), ball_params(2)


def _cir_valid():
    return BoxOrthant(0, 1), cir_params(0.5, -0.5)


def _jacobi_valid():
    return BoxOrthant(1, 0), jacobi_params()


def _simplex_valid():
    return Simplex(2), simplex_params()


class TestValidateParams:
    @pytest.mark.parametrize("make", [_quadric_valid, _cir_valid, _jacobi_valid, _simplex_valid],
                             ids=["quadric", "cir", "jacobi", "simplex"])
    def test_valid_fixture(self, make):
        space, params = make()
        report = validate_params(space, params)
        assert report.verdict == "Valid"
        assert report.ok
        assert all(c.status == "pass" for c in report.conditions)

    def test_full_space_constant_diffusion(self):
        space = FullSpace(2)
        model = ModelCoefficients(
            [[Polynomial.one(2), Polynomial.zero(2)], [Polynomial.zero(2), Polynomial.one(2)]],
            [Polynomial.zero(2), Polynomial.zero(2)])
        report = validate_params(space, model)
        assert report.verdict == "Valid"

    def test_full_space_sampled_diffusion_fails_with_witness(self):
        # a(x) = [[1, x1], [x1, 1]] has eigenvalues 1 +- x1: negative where |x1| > 1
        one, x1 = Polynomial.one(2), Polynomial.variable(0, 2)
        model = ModelCoefficients([[one, x1], [x1, one]], [Polynomial.zero(2)] * 2)
        report = validate_params(FullSpace(2), model)
        assert report.verdict == "Invalid" and report.failed_ids() == ["full.diffusion_psd"]
        (cond,) = report.conditions
        assert cond.detail.startswith("diffusion eigenvalue -")
        assert abs(cond.witness[0]) > 1
        assert np.linalg.eigvalsh(model.a_eval(np.array(cond.witness))).min() < 0

    def test_full_space_sampled_diffusion_is_inconclusive(self):
        # a(x) = diag(1 + x1^2, 1 + x2^2) is PD everywhere, but samples cannot certify R^2
        one, (x1, x2) = Polynomial.one(2), (Polynomial.variable(i, 2) for i in range(2))
        zero = Polynomial.zero(2)
        model = ModelCoefficients([[one + x1 * x1, zero], [zero, one + x2 * x2]], [zero, zero])
        report = validate_params(FullSpace(2), model)
        assert report.verdict == "Inconclusive"
        (cond,) = report.conditions
        assert (cond.id, cond.status, cond.witness) == ("full.diffusion_psd", "inconclusive", None)
        assert cond.detail == "sampled PSD check passed but cannot certify all of R^d"

    def test_wrong_params_type(self):
        with pytest.raises(ValueError):
            validate_params(Simplex(2), ball_params(2))

    # per family, parameters of the wrong type and of the wrong shape
    MISFITS = {
        "quadric_type": (Quadric(np.eye(2)), simplex_params()),
        "quadric_dim": (Quadric(np.eye(2)), ball_params(3)),
        "box_type": (BoxOrthant(0, 1), ball_params(1)),
        "box_m_n": (BoxOrthant(0, 1), jacobi_params()),
        "simplex_type": (Simplex(2), ball_params(2)),
        "simplex_dim": (Simplex(2), SimplexParams(alpha=np.zeros((3, 3)), beta=np.zeros(3), B=np.zeros((3, 3)))),
        "full_type": (FullSpace(2), ball_params(2)),
        "full_dim": (FullSpace(2), cir_model()[0]),
    }

    @pytest.mark.parametrize("case", sorted(MISFITS))
    def test_misfit_params_raise_one_message(self, case):
        space, params = self.MISFITS[case]
        with pytest.raises(ValueError, match=f"^{space.family} state space of shape") as validated:
            validate_params(space, params)
        with pytest.raises(ValueError) as assembled:
            assemble_model(space, params)
        assert str(validated.value) == str(assembled.value)

    def test_verdict_and_failed_ids_serialize(self):
        space, params = _simplex_valid()
        report = validate_params(space, params)
        doc = report.as_json_dict()
        # the validate report's parameter_conditions block: the family is the report's top-level key
        assert report.family == "simplex" and set(doc) == {"verdict", "conditions"}
        assert {c["id"] for c in doc["conditions"]} == {
            "simplex.alpha_structure", "simplex.drift_mass", "simplex.drift_corner"}


# one perturbation per named condition; each must flip exactly that condition
REJECTIONS = [
    ("quadric.alpha_psd", Quadric(np.eye(2)),
     lambda: QuadricParams(alpha=np.diag([1.0, -0.1]), beta=np.zeros(2), B=-np.eye(2))),
    ("quadric.gamma_psd", Quadric(np.eye(2)),
     lambda: QuadricParams(alpha=np.eye(2), beta=np.zeros(2), B=-np.eye(2), gamma=[[-1.0]])),
    ("quadric.boundary_drift", Quadric(np.eye(2)),
     lambda: QuadricParams(alpha=np.eye(2), beta=np.zeros(2), B=np.eye(2))),
    ("box.gamma_nonneg", BoxOrthant(1, 0),
     lambda: BoxOrthantParams(m=1, n=0, gamma=[-1.0], alpha=[], phi=[], psi=np.zeros((0, 1)),
                              pi=[], beta=[0.5], B=[[-1.0]])),
    ("box.drift_box", BoxOrthant(1, 0),
     lambda: BoxOrthantParams(m=1, n=0, gamma=[1.0], alpha=[], phi=[], psi=np.zeros((0, 1)),
                              pi=[], beta=[1.5], B=[[-1.0]])),
    ("box.phi_bound", BoxOrthant(1, 1),
     lambda: BoxOrthantParams(m=1, n=1, gamma=[1.0], alpha=[[0.0]], phi=[1.0], psi=[[-2.0]],
                              pi=[[0.0]], beta=[0.5, 1.0], B=np.diag([-1.0, -0.5]))),
    ("box.pi_structure", BoxOrthant(0, 2),
     lambda: BoxOrthantParams(m=0, n=2, gamma=[], alpha=np.zeros((2, 2)), phi=[1.0, 1.0],
                              psi=np.zeros((2, 0)), pi=[[0.0, -1.0], [-1.0, 0.0]],
                              beta=[1.0, 1.0], B=-np.eye(2))),
    ("box.alpha_psd_shifted", BoxOrthant(0, 2),
     lambda: BoxOrthantParams(m=0, n=2, gamma=[], alpha=-np.eye(2), phi=[1.0, 1.0],
                              psi=np.zeros((2, 0)), pi=np.zeros((2, 2)),
                              beta=[1.0, 1.0], B=-np.eye(2))),
    ("box.drift_orthant", BoxOrthant(0, 1),
     lambda: cir_params(0.0, -0.5)),
    ("box.bjj_offdiag", BoxOrthant(0, 2),
     lambda: BoxOrthantParams(m=0, n=2, gamma=[], alpha=np.zeros((2, 2)), phi=[1.0, 1.0],
                              psi=np.zeros((2, 0)), pi=np.zeros((2, 2)),
                              beta=[1.0, 1.0], B=[[-1.0, -0.3], [0.0, -1.0]])),
    ("box.b_structure", BoxOrthant(1, 1),
     lambda: BoxOrthantParams(m=1, n=1, gamma=[1.0], alpha=[[0.0]], phi=[1.0], psi=[[0.0]],
                              pi=[[0.0]], beta=[0.5, 1.0], B=[[-1.0, 0.7], [0.0, -0.5]])),
    ("simplex.alpha_structure", Simplex(2),
     lambda: SimplexParams(alpha=[[0.0, -1.0], [-1.0, 0.0]], beta=[0.5, 0.5],
                           B=[[-1.0, 0.0], [0.0, -1.0]])),
    ("simplex.drift_mass", Simplex(2),
     lambda: SimplexParams(alpha=[[0.0, 1.0], [1.0, 0.0]], beta=[-0.1, 0.5],
                           B=np.zeros((2, 2)))),
    ("simplex.drift_corner", Simplex(2),
     lambda: SimplexParams(alpha=[[0.0, 1.0], [1.0, 0.0]], beta=[0.0, 1.0],
                           B=[[0.0, -1.0], [-1.0, 0.0]])),
]


class TestRejections:
    @pytest.mark.parametrize("cond_id,space,make", REJECTIONS, ids=[r[0] for r in REJECTIONS])
    def test_condition_flips(self, cond_id, space, make):
        report = validate_params(space, make())
        assert report.verdict == "Invalid"
        assert cond_id in report.failed_ids()

    def test_witness_reported_for_sampled_rejection(self):
        space = Quadric(np.eye(2))
        report = validate_params(space, QuadricParams(alpha=np.eye(2), beta=np.zeros(2), B=np.eye(2)))
        bad = [c for c in report.conditions if c.id == "quadric.boundary_drift"][0]
        assert bad.witness is not None
        x = np.asarray(bad.witness)
        assert abs(x @ x - 1.0) < 1e-9  # witness sits on the quadric

    @pytest.mark.parametrize("seed", range(12))
    def test_quadric_boundary_form_is_the_generator_of_p(self, seed):
        # on {x'Qx = 1}, G(1 - x'Qx) = -2 x form, so the reported extreme is
        # that of -G p / 2 on the same samples, for G built from the assembled a and b
        rng = np.random.default_rng(seed)
        d = 1 + seed % 4
        q = rng.choice([-1.0, 1.0], d)
        q[0] = 1.0
        inside = seed % 2 == 0
        space = Quadric(np.diag(q), "inside" if inside else "outside")
        gamma = rng.standard_normal((d * (d - 1) // 2,) * 2)
        params = QuadricParams(alpha=np.eye(d), beta=rng.standard_normal(d), B=rng.standard_normal((d, d)),
                               gamma=gamma + gamma.T)
        cond = validate_params(space, params, samples=200).conditions[-1]
        assert cond.id == "quadric.boundary_drift"
        X = space.boundary_samples(0, 200)
        p = space.inequalities[0] if inside else -space.inequalities[0]
        form = -0.5 * apply_generator(assemble_model(space, params), p)(X)
        reported = float(cond.detail.split("value ")[1].split()[0])
        assert reported == pytest.approx(form.max() if inside else form.min(), rel=1e-5, abs=1e-9)

    def test_inconclusive_frozen_quadric(self):
        # zero drift: the strict boundary form is identically 0, inside the
        # margin band, so sampling must not claim either verdict
        space = Quadric(np.eye(2))
        report = validate_params(space, QuadricParams(alpha=np.eye(2), beta=np.zeros(2),
                                                      B=np.zeros((2, 2))))
        assert report.verdict == "Inconclusive"

    def test_inconclusive_shifted_alpha(self):
        # alpha indefinite but compensated by pi on every sampled direction:
        # no counterexample, no proof
        params = BoxOrthantParams(m=0, n=2, gamma=[], alpha=[[0.0, 0.5], [0.5, 0.0]],
                                  phi=[1.0, 1.0], psi=np.zeros((2, 0)),
                                  pi=[[0.0, 1.0], [1.0, 0.0]], beta=[1.0, 1.0], B=-np.eye(2))
        report = validate_params(BoxOrthant(0, 2), params)
        assert report.verdict == "Inconclusive"
        cond = [c for c in report.conditions if c.id == "box.alpha_psd_shifted"][0]
        assert cond.status == "inconclusive"


class TestNecessary:
    def test_cir_passes(self):
        model, space = cir_model(0.5, -0.5)
        report = check_necessary(model, space)
        assert report.verdict == "pass"
        assert report.ok

    def test_outward_drift_fails_with_witness(self):
        model, space = cir_model(-0.1, -0.5)
        report = check_necessary(model, space)
        assert report.verdict == "fail"
        bad = [c for c in report.conditions if c.id == "necessary.gp_nonneg[0]"][0]
        assert bad.status == "fail"
        assert bad.witness == [0.0]

    def test_non_vanishing_diffusion_fails(self):
        space = BoxOrthant(0, 1)
        model = ModelCoefficients([[Polynomial.one(1)]], [Polynomial.one(1)])
        report = check_necessary(model, space)
        assert "necessary.a_gradp_zero[0]" in [c.id for c in report.conditions if c.status == "fail"]

    def test_simplex_equality_conditions(self):
        model, space = assemble_model(Simplex(2), simplex_params()), Simplex(2)
        report = check_necessary(model, space)
        ids = [c.id for c in report.conditions]
        assert "necessary.a_gradq_zero[0]" in ids
        assert "necessary.gq_zero[0]" in ids
        assert report.verdict == "pass"

    def test_identity_diffusion_breaks_the_manifold(self):
        space = Simplex(2)
        one, zero = Polynomial.one(2), Polynomial.zero(2)
        model = ModelCoefficients([[one, zero], [zero, one]], [zero, zero])
        report = check_necessary(model, space)
        bad = [c.id for c in report.conditions if c.status == "fail"]
        assert "necessary.a_gradq_zero[0]" in bad


class TestSufficient:
    def test_cir_passes_with_certificate(self):
        model, space = cir_model(0.5, -0.5)
        report = check_sufficient(model, space)
        assert report.verdict == "pass"
        cert = [c for c in report.conditions if c.id == "sufficient.gradient_certificate[0]"][0]
        assert cert.status == "pass"

    def test_zero_inflow_is_only_inconclusive(self):
        # G p = beta x vanishes at the origin: strictness cannot be sampled
        model, space = cir_model(0.0, -0.5)
        report = check_sufficient(model, space)
        assert report.verdict == "inconclusive"
        drift = [c for c in report.conditions if c.id == "sufficient.boundary_drift[0]"][0]
        assert drift.status == "inconclusive"

    def test_indefinite_diffusion_fails(self):
        space = FullSpace(1)
        model = ModelCoefficients([[Polynomial.constant(1, -1.0)]], [Polynomial.zero(1)])
        report = check_sufficient(model, space)
        assert report.verdict == "fail"
        bad = [c for c in report.conditions if c.id == "sufficient.diffusion_psd"][0]
        assert bad.witness is not None

    def test_simplex_manifold_conditions(self):
        model = assemble_model(Simplex(2), simplex_params())
        report = check_sufficient(model, Simplex(2))
        assert report.verdict == "pass"
        ids = {c.id for c in report.conditions}
        assert "sufficient.manifold_drift[0]" in ids
        assert "sufficient.manifold_diffusion[0]" in ids

    def test_valid_families_pass_both_batteries(self):
        for space, params in [(_cir_valid()[0], _cir_valid()[1]),
                              (_jacobi_valid()[0], _jacobi_valid()[1]),
                              (_simplex_valid()[0], _simplex_valid()[1]),
                              (_quadric_valid()[0], _quadric_valid()[1])]:
            model = assemble_model(space, params)
            assert check_necessary(model, space).verdict == "pass"
            assert check_sufficient(model, space).verdict == "pass"


class TestHFactor:
    def test_cir(self):
        sigma2 = 1.7
        model, space = cir_model(0.5, -0.5, sigma2)
        h = h_factor(model, space, space.inequalities[0])
        assert h == [Polynomial.constant(1, sigma2)]

    def test_unit_ball(self):
        space = Quadric(np.eye(2))
        model = assemble_model(space, ball_params(2))
        h = h_factor(model, space, space.inequalities[0])
        assert h == [-2.0 * Polynomial.variable(0, 2), -2.0 * Polynomial.variable(1, 2)]

    def test_simplex(self):
        space = Simplex(2)
        model = assemble_model(space, simplex_params())
        h = h_factor(model, space, space.inequalities[0])
        x2 = Polynomial.variable(1, 2)
        assert h == [x2, -1.0 * x2]

    def test_failure_signals(self):
        space = BoxOrthant(0, 1)
        model = ModelCoefficients([[Polynomial.one(1)]], [Polynomial.one(1)])
        with pytest.raises(DivisionFailure):
            h_factor(model, space, space.inequalities[0])

    def test_simplex_certificate_modulo_the_mass_equality(self):
        model, space = simplex_x2_form_model()
        x1 = Polynomial.variable(0, 2)
        assert h_factor(model, space, space.inequalities[0]) == [1.0 - x1, x1 - 1.0]
        assert check_sufficient(model, space).verdict == "pass"
        assert [classify_boundary(model, space, p).verdict for p in space.inequalities] == ["NonAttainStrict"] * 2


class TestBoundaryClassification:
    def test_cir_trichotomy(self):
        for b0, want in [(0.3, "Attain"), (0.5, "NonAttainCritical"), (0.6, "NonAttainStrict")]:
            model, space = cir_model(b0, -0.5)
            out = classify_boundary(model, space, space.inequalities[0])
            assert out.verdict == want, f"b0 = {b0}"
            assert out.stratum == 0

    def test_attain_has_witness(self):
        model, space = cir_model(0.3, -0.5)
        out = classify_boundary(model, space, space.inequalities[0])
        assert out.witness == [0.0]
        assert out.h is not None

    def test_monotone_in_inflow(self):
        # classification can only move away from attainment as b0 grows
        order = {"Attain": 0, "NonAttainCritical": 1, "NonAttainStrict": 2}
        seen = []
        for b0 in np.linspace(0.05, 0.95, 10):
            model, space = cir_model(float(b0), -0.5)
            seen.append(order[classify_boundary(model, space, space.inequalities[0]).verdict])
        assert seen == sorted(seen)

    def test_jacobi_both_faces_critical(self):
        space = BoxOrthant(1, 0)
        model = assemble_model(space, jacobi_params())
        for p in space.inequalities:
            out = classify_boundary(model, space, p)
            assert out.verdict == "NonAttainCritical"

    def test_inconclusive_without_certificate(self):
        space = BoxOrthant(0, 1)
        model = ModelCoefficients([[Polynomial.one(1)]], [Polynomial.one(1)])
        out = classify_boundary(model, space, space.inequalities[0])
        assert out.verdict == "Inconclusive"

    def test_requires_stratum_polynomial(self):
        model, space = cir_model(0.5, -0.5)
        with pytest.raises(ValueError):
            classify_boundary(model, space, Polynomial.variable(0, 1) + Polynomial.one(1))


class TestUniqueness:
    def test_linear_growth(self):
        model, space = cir_model(0.5, -0.5)
        out = uniqueness_report(model, space)
        assert (out.verdict, out.reason) == ("UniqueInLaw", "LinearGrowth")

    def test_compact_space_counts_as_linear_growth(self):
        space = Quadric(np.eye(2))
        model = assemble_model(space, ball_params(2))
        out = uniqueness_report(model, space)
        assert out.verdict == "UniqueInLaw"

    def test_scalar_quadratic(self):
        space = BoxOrthant(0, 1)
        x = Polynomial.variable(0, 1)
        model = ModelCoefficients([[x * x]], [x])
        out = uniqueness_report(model, space)
        assert (out.verdict, out.reason) == ("UniqueInLaw", "Dimension1")

    def test_hierarchical_split(self):
        space = BoxOrthant(0, 2)
        x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        zero = Polynomial.zero(2)
        model = ModelCoefficients([[x1, zero], [zero, x2 * x2]],
                                  [Polynomial.one(2), Polynomial.one(2) + x1])
        out = uniqueness_report(model, space)
        assert (out.verdict, out.reason) == ("UniqueInLaw", "Hierarchical")
        assert out.supported_by_sampling

    def test_square_root_edge_defeats_hierarchical(self):
        # z-block has a square-root singularity at z = 0, so the sampled
        # Lipschitz support must refuse to certify
        space = BoxOrthant(0, 2)
        x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        zero = Polynomial.zero(2)
        model = ModelCoefficients([[x1 * x1, zero], [zero, x2]],
                                  [Polynomial.one(2), Polynomial.one(2)])
        out = uniqueness_report(model, space)
        assert out.verdict == "Unknown"

    def test_unbounded_quadric_unknown(self):
        space = Quadric(np.diag([1.0, -1.0]), orientation="outside")
        params = QuadricParams(alpha=np.eye(2), beta=np.zeros(2), B=-np.eye(2))
        model = assemble_model(space, params)
        out = uniqueness_report(model, space)
        assert out.verdict == "Unknown"
        assert out.reason is None

    def test_report_serializes(self):
        model, space = cir_model(0.5, -0.5)
        doc = uniqueness_report(model, space).as_json_dict()
        assert set(doc) == {"verdict", "reason", "supported_by_sampling", "detail"}
