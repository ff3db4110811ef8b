"""Admissibility validation, boundary attainment, and uniqueness reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydiff import (
    BoxOrthant,
    BoxOrthantParams,
    DivisionFailure,
    FullSpace,
    ModelCoefficients,
    NotPolynomialOnE,
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
    generator_matrix,
    h_factor,
    monomial_basis,
    uniqueness_report,
    validate_params,
)

from polydiff.conditions import _EIG_HIGH, _EIG_LOW, _MARGIN, _batch_eigmin, _sampled, _tolerance

from conftest import (ball_params, cir_model, cir_params, jacobi_params, oracle_a_grad, simplex_params,
                      simplex_x2_form_model)


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

    # (n, alpha, pi, value, witness), the last two as a per-sample loop that built
    # the shifted matrices and took their minima by eigvalsh reported them
    SHIFTED = {
        "negative_identity": (2, -np.eye(2), np.zeros((2, 2)), "-1", [0.36923801341568646, 0.6307619865843135]),
        "n2": (2, [[-0.1, 0.2], [0.2, 0.3]], [[0.0, 0.5], [0.3, 0.0]], "-0.099972",
               [0.999872608143058, 0.000127391856941957]),
        "n3": (3, [[-0.1, 0.2, 0.0], [0.2, 0.3, 0.1], [0.0, 0.1, -0.2]],
               [[0.0, 0.5, 0.1], [0.3, 0.0, 0.2], [0.05, 0.4, 0.0]], "-0.191561",
               [0.06545457040172917, 0.007225310180198616, 0.9273201194180722]),
    }

    @pytest.mark.parametrize("name", sorted(SHIFTED))
    def test_shifted_alpha_fails_as_before_the_broadcast(self, name):
        n, alpha, pi, value, witness = self.SHIFTED[name]
        params = BoxOrthantParams(m=0, n=n, gamma=[], alpha=alpha, phi=[1.0] * n, psi=np.zeros((n, 0)),
                                  pi=pi, beta=[1.0] * n, B=-np.eye(n))
        (cond,) = [c for c in validate_params(BoxOrthant(0, n), params).conditions
                   if c.id == "box.alpha_psd_shifted"]
        assert (cond.status, cond.detail, cond.witness) == (
            "fail", f"alpha + Diag(pi'u)/Diag(u) has eigenvalue {value} < 0", witness)

    def test_indefinite_alpha_fails_outside_the_hyperboloid(self):
        # the outside branch judges -alpha, whose zero diagonal is -0.0
        space = Quadric(np.diag([1.0, -1.0]), orientation="outside")
        params = QuadricParams(alpha=[[0.0, 1.0], [1.0, 0.0]], beta=np.zeros(2), B=-np.eye(2), gamma=[[0.0]])
        (cond,) = [c for c in validate_params(space, params).conditions if c.id == "quadric.alpha_psd"]
        assert (cond.status, cond.detail) == ("fail", "-alpha PSD (min eigenvalue -1)")

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


_EPS = np.finfo(float).eps


@st.composite
def eig_stacks(draw):
    """(n, d, d) symmetric stacks, d = 1 or 2, mixing generic, rank-one, zero,
    indefinite, diagonal, signed-zero-diagonal and non-finite rows at scales
    1e-300 to 1e300."""
    d, rows = draw(st.sampled_from([1, 2])), []
    unit = st.floats(-1.0, 1.0)
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["generic", "rank_one", "zero", "indefinite", "diagonal", "signed_zero",
                                     "non_finite"]))
        a00, a01, a11 = draw(unit), draw(unit), draw(unit)
        if kind == "rank_one":
            sign = draw(st.sampled_from([-1.0, 1.0]))
            a00, a01, a11 = sign * a00 * a00, sign * a00 * a11, sign * a11 * a11
        elif kind == "zero":
            a00 = a01 = a11 = 0.0
        elif kind == "indefinite":
            a01 = 1.0 + abs(a01)  # a01^2 > 1 >= a00 a11
        elif kind == "diagonal":
            a01 = 0.0
        elif kind == "signed_zero":  # m = +-0.0 with a01 != 0
            a00, a11 = draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0]))
        scale = 10.0 ** draw(st.integers(-300, 300))
        row = np.array([[a00, a01], [a01, a11]]) * scale
        if kind == "non_finite":
            i, j = draw(st.sampled_from([(0, 0), (0, 1), (1, 1)]))
            row[i, j] = row[j, i] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        rows.append(row[:d, :d])
    return np.array(rows)


class TestBatchEigmin:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(eig_stacks())
    def test_matches_eigvalsh(self, A):
        got = _batch_eigmin(A)
        want = np.linalg.eigvalsh(A).min(axis=-1)
        size = np.abs(A).max(axis=(1, 2))
        finite = np.isfinite(A).all(axis=(1, 2))
        # each lies within about 2.5 eps max |A| of a 200-bit reference, so the two
        # can differ by up to 5 (4.8 seen over 4e6 random rows)
        with np.errstate(invalid="ignore"):  # inf - inf on the non-finite rows
            assert (np.abs(got - want) <= 5 * _EPS * size)[finite].all()
        if A.shape[-1] == 1:
            assert np.array_equal(got, A[:, 0, 0], equal_nan=True)
            return
        a00, a01, a11 = A[:, 0, 0], A[:, 0, 1], A[:, 1, 1]
        diagonal = (a01 == 0.0) & finite
        assert np.array_equal(got[diagonal], np.minimum(a00, a11)[diagonal])
        scale = np.abs(a00) + np.abs(a11) + np.abs(a01)
        rest = ~((scale >= _EIG_LOW) & (scale <= _EIG_HIGH) | diagonal)
        assert got[rest].tobytes() == want[rest].tobytes()

    def test_far_eigenvalue_does_not_swamp_the_near_one(self):
        # m - hypot((a00 - a11)/2, a01) cancels to 0 here; the smallest eigenvalue is about 1
        A = np.array([[[1e100, 1e-3], [1e-3, 1.0]], [[1e100, 0.0], [0.0, 1.0]]])
        assert _batch_eigmin(A).tolist() == [1.0, 1.0]

    def test_signed_zero_diagonal(self):
        # m = -0.0 gives far its sign bit, so the choice between far and det / far reads that bit too
        A = np.array([[[-0.0, 1.0], [1.0, -0.0]], [[-0.0, -1.0], [-1.0, -0.0]], [[0.0, 1.0], [1.0, -0.0]]])
        assert _batch_eigmin(A).tolist() == [-1.0, -1.0, -1.0]

    def test_stacks_of_three_go_to_eigvalsh(self):
        A = np.random.default_rng(5).standard_normal((6, 3, 3))
        A = A + A.transpose(0, 2, 1)
        assert _batch_eigmin(A).tobytes() == np.linalg.eigvalsh(A).min(axis=-1).tobytes()


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

    def test_simplex_equality_conditions(self, monkeypatch):
        # tangency is decided by ideal reduction, so nothing is drawn on E
        def refuse(self, count):
            raise AssertionError("all_samples drawn")

        monkeypatch.setattr(Simplex, "all_samples", refuse)
        model, space = assemble_model(Simplex(2), simplex_params()), Simplex(2)
        report = check_necessary(model, space)
        ids = [c.id for c in report.conditions]
        assert ids[-2:] == ["necessary.a_gradq_zero[0]", "necessary.gq_zero[0]"]
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

    # the disk and hyperboloid of the CLI tests' DOCS, with alpha scaled up
    @pytest.mark.pinned_bits
    @pytest.mark.parametrize("q2, alpha, gamma, value", [
        (1.0, 1e8, 0.5, "-4.55865e-08"),
        (-1.0, 10.0, 0.0, "-1.86265e-09"),
    ], ids=["disk_alpha_1e8", "hyperboloid_alpha_10"])
    def test_diffusion_psd_margin_grows_with_a(self, q2, alpha, gamma, value):
        # rounding in a large a(x) reads as a small negative eigenvalue, below
        # -1e-9 but inside the shift 1e-9 sum |terms of a| at that sample (the CLI default of 1000)
        space = Quadric(np.diag([1.0, q2]))
        model = assemble_model(space, QuadricParams(alpha=alpha * np.eye(2), beta=np.zeros(2), B=-np.eye(2),
                                                    gamma=[[gamma]]))
        (psd,) = [c for c in check_sufficient(model, space, samples=1000).conditions
                  if c.id == "sufficient.diffusion_psd"]
        assert (psd.status, psd.detail) == ("pass", f"min diffusion eigenvalue on E samples is {value}")
        # the boundary samples sit off {p = 0} by rounding, which a grad p scales up; the
        # tolerance 1e-9 sum |terms of (a grad p)_i| at each sample covers it
        assert check_necessary(model, space).verdict == "pass"

    @pytest.mark.pinned_bits
    @pytest.mark.parametrize("big", [{(2, 0): 1e12}, {(0, 0): 1e12, (2, 0): 1e12}], ids=["x1_squared", "everywhere"])
    def test_large_entry_excuses_no_negative_eigenvalue(self, big):
        # the tolerance at x follows the terms of a at x, row by row: a_00 up to 1e12 does
        # not hide a_11 = -1e-4, at this sample or at another
        zero = Polynomial.zero(2)
        model = ModelCoefficients([[Polynomial(2, big), zero], [zero, Polynomial.constant(2, -1e-4)]], [zero, zero])
        (full,) = validate_params(FullSpace(2), model).conditions
        (disk,) = [c for c in check_sufficient(model, Quadric(np.eye(2))).conditions
                   if c.id == "sufficient.diffusion_psd"]
        assert (full.status, full.detail) == ("fail", "diffusion eigenvalue -0.0001 < 0")
        assert (disk.status, disk.detail) == ("fail", "min diffusion eigenvalue on E samples is -0.0001")

    @pytest.mark.pinned_bits
    def test_overflow_does_not_hide_a_negative_eigenvalue(self):
        # a_00 = 1 + 1e308 (x1^2 - x2^2) is nan (inf - inf) at some samples, where argmin
        # stops; the samples where a_00 is finite and negative must still fail
        one, zero = Polynomial.one(2), Polynomial.zero(2)
        a00 = Polynomial(2, {(0, 0): 1.0, (2, 0): 1e308, (0, 2): -1e308})
        model = ModelCoefficients([[a00, zero], [zero, one]], [zero, zero])
        with np.errstate(over="ignore", invalid="ignore"):
            (cond,) = validate_params(FullSpace(2), model).conditions
        assert (cond.status, cond.detail) == ("fail", "diffusion eigenvalue -1.64291e+308 < 0")
        assert np.isfinite(a00(np.array(cond.witness)))

    @pytest.mark.pinned_bits
    def test_nan_sample_does_not_pass_a_strict_inequality(self):
        # b = 1e306 x: G p = -2e306 on the whole stratum, but x^2 b overflows to inf - inf = nan
        # at the far samples, which argmax once picked, and nan > margin read as pass
        zero = Polynomial.zero(2)
        model = ModelCoefficients([[zero, zero], [zero, zero]],
                                  [Polynomial(2, {(1, 0): 1e306}), Polynomial(2, {(0, 1): 1e306})])
        space = Quadric(np.diag([1.0, -1.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            (drift,) = [c for c in check_sufficient(model, space).conditions if c.id == "sufficient.boundary_drift[0]"]
            assert np.isfinite(apply_generator(model, space.inequalities[0])(np.array(drift.witness)))
        assert (drift.status, drift.detail) == ("fail", "G p > 0 on stratum 0; violated, value -2e+306")

    def test_nan_alone_fails_at_a_nan_sample(self):
        # a_11 = 1 + 1e306 x2^2 overflows at the far samples, where the smallest eigenvalue is
        # nan; no number fails, so the witness is a nan sample, not the first sample (a = I)
        one, zero = Polynomial.one(2), Polynomial.zero(2)
        a11 = Polynomial(2, {(0, 0): 1.0, (0, 2): 1e306})
        model = ModelCoefficients([[one, zero], [zero, a11]], [zero, zero])
        (cond,) = check_sufficient(model, FullSpace(2)).conditions
        assert (cond.status, cond.detail) == ("fail", "min diffusion eigenvalue on E samples is nan")
        with np.errstate(over="ignore"):
            assert a11(np.array(cond.witness)) == np.inf

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


def _perturbed_model(name, alpha):
    space = {"disk": Quadric(np.eye(2)), "hyperboloid": Quadric(np.diag([1.0, -1.0])), "ball3": Quadric(np.eye(3))}[name]
    d = space.dim
    gamma = [[0.5]] if name == "disk" else np.zeros((d * (d - 1) // 2,) * 2)
    return space, assemble_model(space, QuadricParams(alpha=alpha * np.eye(d), beta=np.zeros(d), B=-np.eye(d),
                                                      gamma=gamma))


class TestTermSumTolerance:
    """One tolerance per sample, _MARGIN x max(1, term sum there), judged by _sampled."""

    X = np.array([[0.5], [1e4]])
    SQUARE = [[Polynomial(1, {(2,): 1.0})]]  # term sum x^2: tolerance 1e-9 at 0.5, 0.1 at 1e4

    def test_each_sample_is_judged_by_its_own_term_sum(self):
        values = np.array([-1e-8, -1e-8])
        tol = _tolerance(self.SQUARE, self.X, values)
        assert tol.shape == (2,) and tol.tolist() == [1e-9, 1e-9 * 1e8]
        cond = _sampled("c", values, self.X, "min is {:.6g}", tol=tol)
        assert (cond.status, cond.detail, cond.witness) == ("fail", "min is -1e-08", [0.5])
        assert _sampled("c", values[1:], self.X[1:], "min is {:.6g}", tol=tol[1:]).status == "pass"

    def test_strict_band_names_its_tolerance(self):
        values = np.array([2e-9, 2e-9])
        tol = _tolerance(self.SQUARE, self.X, values, strict=True)
        cond = _sampled("c", values, self.X, "f > 0", tol=tol, strict=True)
        assert (cond.status, cond.detail) == ("inconclusive", "f > 0; extreme sampled value 2e-09 within tolerance 0.1")

    def test_bare_margin_needs_no_scale(self):
        # nothing below -_MARGIN, or nothing near zero in a strict check: _MARGIN itself
        assert _tolerance(self.SQUARE, self.X, np.array([0.0, 5.0])) == _MARGIN == 1e-9
        assert _tolerance(self.SQUARE, self.X, np.array([1.0, 1e8]), strict=True) == _MARGIN


# a real defect is no rounding: a_00 off by a relative 1e-6 in one term breaks
# a grad p = h p on the stratum, at the disk (with the DOCS spec's gamma), the
# hyperboloid and the unit ball in R^3, whatever the scale of a
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(["disk", "hyperboloid", "ball3"]), alpha=st.sampled_from([1.0, 10.0, 1e8]),
       rel=st.sampled_from([1e-6, -1e-6]), data=st.data())
def test_perturbed_diffusion_fails_a_gradp_zero(name, alpha, rel, data):
    space, model = _perturbed_model(name, alpha)
    terms = model.a[0][0].terms
    e = data.draw(st.sampled_from(sorted(terms)))
    terms[e] *= 1.0 + rel
    a = [list(row) for row in model.a]
    a[0][0] = Polynomial(space.dim, terms)
    perturbed = ModelCoefficients(a, model.b)
    (cond,) = [c for c in check_necessary(perturbed, space).conditions if c.id == "necessary.a_gradp_zero[0]"]
    assert cond.status == "fail"
    # at the witness, some entry of a grad p exceeds 1e-9 times its term sum there
    x = np.array(cond.witness)
    agp = oracle_a_grad(perturbed, space.inequalities[0])
    values = [f(x) for f in agp]
    sums = [sum(abs(c) * np.prod(np.abs(x) ** np.array(k)) for k, c in f.terms.items()) for f in agp]
    assert any(abs(v) > 1e-9 * max(1.0, s) for v, s in zip(values, sums))


# column sums of B move by +-c t, t the old mass tolerance scale, so the
# drift misses tangency by about the threshold of manifold_defects
@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 5), data=st.data())
def test_tangency_deciders_agree(d, data):
    dyadic = st.sampled_from([0.0625, 0.125, 0.25, 0.5, 1.0])
    beta, alpha, off = data.draw(dyadic), data.draw(dyadic), data.draw(dyadic)
    B = np.full((d, d), off)
    np.fill_diagonal(B, -d * beta - (d - 1) * off)  # B'1 + (beta'1)1 = 0 exactly
    t = 1e-12 * (1.0 + np.abs(B).max() + beta)
    row = data.draw(st.integers(0, d - 1))
    for j in range(d):
        B[row, j] += data.draw(st.sampled_from([-1.0, 0.0, 1.0])) * data.draw(st.floats(0.1, 10.0)) * t
    space = Simplex(d)
    params = SimplexParams(alpha=np.full((d, d), alpha) - alpha * np.eye(d), beta=[beta] * d, B=B)
    model = assemble_model(space, params)
    status = {c.id: c.status for c in validate_params(space, params).conditions
              + check_necessary(model, space, samples=8).conditions
              + check_sufficient(model, space, samples=8).conditions}
    try:
        generator_matrix(model, monomial_basis(space, 1))
        raised = "pass"
    except NotPolynomialOnE:
        raised = "fail"
    assert {status["simplex.drift_mass"], status["necessary.gq_zero[0]"],
            status["sufficient.manifold_drift[0]"], raised} == {raised}


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

    def test_frozen_model_e_vanishes_on_the_manifold(self):
        # a = 0 and b = 0: h = 0 and e = 0 before any division by p
        space = BoxOrthant(0, 1)
        zero = Polynomial.zero(1)
        out = classify_boundary(ModelCoefficients([[zero]], [zero]), space, space.inequalities[0])
        assert out.verdict == "NonAttainCritical"
        assert out.detail == "e = 2 G p - h . grad p vanishes identically on the manifold"

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

    def test_hierarchical_box_block(self):
        # the quadratic box block is autonomous and compact; the orthant row
        # a = x3^2 is Lipschitz, and B[0, 1] = B[1, 0] rules out m = 1
        space = BoxOrthant(2, 1)
        params = BoxOrthantParams(m=2, n=1, gamma=[1.0, 1.0], alpha=[[1.0]], phi=[0.0], psi=[[0.0, 0.0]],
                                  pi=[[0.0]], beta=[0.5, 0.5, 1.0],
                                  B=[[-1.0, 0.25, 0.0], [0.25, -1.0, 0.0], [0.0, 0.0, -1.0]])
        out = uniqueness_report(assemble_model(space, params), space)
        assert (out.verdict, out.reason) == ("UniqueInLaw", "Hierarchical")
        assert out.detail.startswith("autonomous first block of size 2;")

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
