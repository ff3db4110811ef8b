"""Admissibility, boundary attainment, and uniqueness diagnostics.

Every condition verdict comes from one of six judges.  Exact ones decide
pass or fail outright: ``_exact`` (sign patterns, linear identities,
symbolic reductions) and ``_exact_psd`` (a constant matrix, smallest
eigenvalue >= -1e-12 (1 + max |M|)).  Sampled ones run on deterministic
grids and fail with a witness point: ``_sampled_min`` (values >= -tol) and
``_sampled_zero`` (|values| <= tol) pass otherwise; ``_sampled_sign``, for
a strict inequality, reads a value inside its margin band inconclusive;
and ``_sampled_uncertified``, for a set that sampling cannot exhaust, never
passes.  Sampling therefore never produces a false Valid on the exact
subset and never turns margin-zone noise of a strict inequality into a
rejection.  The gradient certificate of ``check_sufficient``, an exact
division whose failure reads inconclusive, is the one verdict built outside
the judges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .generator import ModelCoefficients, _images, a_grad, manifold_defects
from .polynomial import DivisionFailure, Polynomial, _evaluator
from .simulate import dispersion
from .statespace import (
    BoxOrthant,
    BoxOrthantParams,
    FullSpace,
    Quadric,
    QuadricParams,
    Simplex,
    SimplexParams,
    StateSpace,
    _check_params,
    _quadric_c_tensor,
)

__all__ = [
    "ConditionResult",
    "ValidationReport",
    "CheckReport",
    "BoundaryVerdict",
    "UniquenessReport",
    "validate_params",
    "check_necessary",
    "check_sufficient",
    "h_factor",
    "classify_boundary",
    "uniqueness_report",
]

DEFAULT_MARGIN = 1e-9
_EXACT_TOL = 1e-12
# step lengths from the stratum into the interior at which classify_boundary samples e
_COLLAR = (1e-2, 1e-3, 1e-4)


@dataclass
class ConditionResult:
    """Outcome of a single named admissibility condition."""

    id: str
    status: str  # "pass" | "fail" | "inconclusive"
    detail: str = ""
    witness: list | None = None

    def as_json_dict(self) -> dict:
        out = {"id": self.id, "status": self.status, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _verdict(conditions: list[ConditionResult]) -> str:
    if any(c.status == "fail" for c in conditions):
        return "Invalid"
    if any(c.status == "inconclusive" for c in conditions):
        return "Inconclusive"
    return "Valid"


@dataclass
class ValidationReport:
    """Family-specific parameter validation: verdict plus per-condition detail."""

    family: str
    verdict: str
    conditions: list[ConditionResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.verdict == "Valid"

    def failed_ids(self) -> list[str]:
        return [c.id for c in self.conditions if c.status == "fail"]

    def as_json_dict(self) -> dict:
        """The condition block of the validate report: verdict and conditions."""
        return {"verdict": self.verdict, "conditions": [c.as_json_dict() for c in self.conditions]}


def _exact(cond_id: str, ok: bool, detail: str, witness=None) -> ConditionResult:
    return ConditionResult(cond_id, "pass" if ok else "fail", detail, witness)


def _eigmin(M: np.ndarray):
    """Smallest eigenvalue of the symmetric part of M, or of each matrix of a
    stack; inf for an empty matrix."""
    if M.size == 0:
        return np.inf
    return np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, -1, -2))).min(axis=-1)


def _exact_psd(cond_id: str, M: np.ndarray, name: str) -> ConditionResult:
    """Pass when the constant matrix M is PSD up to rounding."""
    e = _eigmin(M)
    return _exact(cond_id, e >= -_EXACT_TOL * (1.0 + np.abs(M).max(initial=0.0)),
                  f"{name} PSD (min eigenvalue {e:.6g})")


def _sampled_sign(cond_id: str, values: np.ndarray, points: np.ndarray, want: str,
                  margin: float, detail: str) -> ConditionResult:
    """Judge a sampled inequality.  ``want`` is "neg" (values < 0) or "pos"."""
    v = values if want == "neg" else -values
    worst = int(np.argmax(v))
    if v[worst] > margin:
        return ConditionResult(cond_id, "fail", f"{detail}; violated, value {values[worst]:.6g}",
                               witness=np.asarray(points[worst]).tolist())
    if v[worst] > -margin:
        return ConditionResult(cond_id, "inconclusive",
                               f"{detail}; extreme sampled value {values[worst]:.6g} within margin {margin:g}")
    return ConditionResult(cond_id, "pass", f"{detail}; extreme sampled value {values[worst]:.6g}")


def _sampled_min(cond_id: str, values: np.ndarray, points: np.ndarray, tol: float, detail: str) -> ConditionResult:
    """Pass when every sampled value is >= -tol, else fail at the smallest."""
    worst = int(np.argmin(values))
    ok = values[worst] >= -tol
    return _exact(cond_id, ok, f"{detail} is {values[worst]:.6g}", None if ok else points[worst].tolist())


def _sampled_zero(cond_id: str, values: np.ndarray, points: np.ndarray, tol: float, detail: str) -> ConditionResult:
    """Pass when every sampled row of ``values`` is within tol of zero, else fail at the worst point."""
    worst = int(np.argmax(np.abs(values).max(axis=1)))
    bad = np.abs(values[worst]).max()
    return _exact(cond_id, bad <= tol, f"{detail} is {bad:.6g}", None if bad <= tol else points[worst].tolist())


def _sampled_uncertified(cond_id: str, values: np.ndarray, points: np.ndarray, margin: float,
                         failed: str, unsure: str) -> ConditionResult:
    """Judge values >= 0 sampled on a set that sampling cannot exhaust: fail
    below -margin at the first smallest value, else inconclusive, never pass.
    ``failed`` and ``unsure`` are format strings given that value."""
    worst = int(np.argmin(values))
    if values[worst] < -margin:
        return ConditionResult(cond_id, "fail", failed.format(values[worst]), points[worst].tolist())
    return ConditionResult(cond_id, "inconclusive", unsure.format(values[worst]))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _validate_quadric(space: Quadric, params: QuadricParams, samples: int, margin: float) -> ValidationReport:
    inside = space.orientation == "inside"
    # on {x'Qx = 1}, G(1 - x'Qx) = -2 (x'Q b(x) + (1/2) sum_i Q_ii c_ii(x)) with c_ij(x) = x' M[i, j] x
    M = _quadric_c_tensor(space, params.gamma)
    form = params.B.T @ space.Q + 0.5 * np.einsum("i,iiuv->uv", np.diag(space.Q), M)
    X = space.boundary_samples(0, samples)
    vals = X @ (space.Q @ params.beta) + np.einsum("ki,ij,kj->k", X, form, X)
    conds = [_exact_psd("quadric.alpha_psd", params.alpha if inside else -params.alpha,
                        "alpha" if inside else "-alpha"),
             _exact_psd("quadric.gamma_psd", params.gamma, "gamma"),
             _sampled_sign("quadric.boundary_drift", vals, X, "neg" if inside else "pos", margin,
                           f"boundary drift form {'< 0' if inside else '> 0'} on the quadric")]
    return ValidationReport("quadric", _verdict(conds), conds)


def _validate_box_orthant(space: BoxOrthant, params: BoxOrthantParams, samples: int, margin: float) -> ValidationReport:
    conds: list[ConditionResult] = []
    m, n = space.m, space.n
    B = params.B

    if m:
        bad = np.flatnonzero(params.gamma < 0.0)
        conds.append(_exact("box.gamma_nonneg", bad.size == 0,
                            "box diffusion factors gamma_i >= 0" if bad.size == 0
                            else f"gamma[{bad[0]}] = {params.gamma[bad[0]]:.6g} < 0"))
        lower = np.array([np.maximum(-np.delete(B[i, :m], i), 0.0).sum() for i in range(m)])
        upper = np.array([-B[i, i] - np.maximum(np.delete(B[i, :m], i), 0.0).sum() for i in range(m)])
        beta_box = params.beta[:m]
        ok = np.all((lower < beta_box) & (beta_box < upper))
        i_bad = next((i for i in range(m) if not (lower[i] < beta_box[i] < upper[i])), None)
        conds.append(_exact("box.drift_box", bool(ok),
                            "inward drift on both box faces"
                            if ok else f"coordinate {i_bad}: need {lower[i_bad]:.6g} < beta = "
                                       f"{beta_box[i_bad]:.6g} < {upper[i_bad]:.6g}"))
    if n:
        pi_ok = bool(np.all(params.pi >= 0.0) and np.all(np.diag(params.pi) == 0.0))
        conds.append(_exact("box.pi_structure", pi_ok,
                            "pi entrywise >= 0 with zero diagonal" if pi_ok else
                            f"pi = {params.pi.tolist()} breaks nonnegativity/zero-diagonal"))
        psi_neg = np.maximum(-params.psi, 0.0).sum(axis=1)
        ok = np.all(params.phi >= psi_neg)
        j_bad = next((j for j in range(n) if params.phi[j] < psi_neg[j]), None)
        conds.append(_exact("box.phi_bound", bool(ok),
                            "phi_j dominates the negative part of psi_j"
                            if ok else f"phi[{j_bad}] = {params.phi[j_bad]:.6g} < {psi_neg[j_bad]:.6g}"))

        e_alpha = _eigmin(params.alpha)
        if e_alpha >= -_EXACT_TOL * (1.0 + np.abs(params.alpha).max(initial=0.0)):
            conds.append(_exact("box.alpha_psd_shifted", True,
                                f"alpha itself PSD (min eigenvalue {e_alpha:.6g}), shift is nonnegative"))
        else:
            U = np.maximum(np.random.default_rng(711).dirichlet(np.ones(n), samples), 1e-12)
            shifted = np.array([params.alpha + np.diag((params.pi.T @ u) / u) for u in U])
            conds.append(_sampled_uncertified("box.alpha_psd_shifted", _eigmin(shifted), U, margin,
                                              "alpha + Diag(pi'u)/Diag(u) has eigenvalue {:.6g} < 0",
                                              "alpha not PSD alone; sampled shifted minimum {:.6g} "
                                              "cannot certify all of the orthant"))
        beta_orth = params.beta[m:]
        floor = np.maximum(-B[m:, :m], 0.0).sum(axis=1)
        ok = np.all(beta_orth > floor)
        j_bad = next((j for j in range(n) if not beta_orth[j] > floor[j]), None)
        conds.append(_exact("box.drift_orthant", bool(ok),
                            "inward drift on the orthant faces"
                            if ok else f"coordinate {m + j_bad}: need beta = {beta_orth[j_bad]:.6g} > {floor[j_bad]:.6g}"))
        off = B[m:, m:].copy()
        np.fill_diagonal(off, 0.0)
        ok = bool(np.all(off >= 0.0))
        conds.append(_exact("box.bjj_offdiag", ok,
                            "orthant drift coupling entries >= 0" if ok else
                            f"B orthant block has negative off-diagonal {off.min():.6g}"))
    if m and n:
        ok = bool(np.all(B[:m, m:] == 0.0))
        conds.append(_exact("box.b_structure", ok,
                            "box drift decoupled from orthant coordinates" if ok else
                            "B[I, J] block must vanish"))
    return ValidationReport("box_orthant", _verdict(conds), conds)


def _validate_simplex(space: Simplex, params: SimplexParams, samples: int, margin: float) -> ValidationReport:
    conds: list[ConditionResult] = []
    d = space.dim
    off = params.alpha[~np.eye(d, dtype=bool)]
    ok = bool(np.all(off >= 0.0))
    conds.append(_exact("simplex.alpha_structure", ok,
                        "exchange coefficients alpha_ij >= 0" if ok else
                        f"negative exchange coefficient {off.min():.6g}"))
    resid = params.B.T @ np.ones(d) + params.beta.sum() * np.ones(d)
    scale = 1.0 + np.abs(params.B).max(initial=0.0) + np.abs(params.beta).max(initial=0.0)
    ok = bool(np.abs(resid).max() <= _EXACT_TOL * scale)
    conds.append(_exact("simplex.drift_mass", ok,
                        "drift tangent to the mass constraint" if ok else
                        f"B'1 + (beta'1)1 = {resid.tolist()} != 0"))
    worst = np.inf
    worst_ij = (0, 1)
    for i in range(d):
        for j in range(d):
            if i != j:
                v = params.beta[i] + params.B[i, j]
                if v < worst:
                    worst, worst_ij = v, (i, j)
    ok = worst > 0.0
    conds.append(_exact("simplex.drift_corner", bool(ok),
                        f"inward drift at every vertex (min beta_i + B_ij = {worst:.6g} over i != j)"
                        if ok else
                        f"beta[{worst_ij[0]}] + B[{worst_ij[0]},{worst_ij[1]}] = {worst:.6g} <= 0"))
    return ValidationReport("simplex", _verdict(conds), conds)


def _validate_full(space: FullSpace, model: ModelCoefficients, samples: int, margin: float) -> ValidationReport:
    if all(model.a[i][j].degree <= 0 for i in range(space.dim) for j in range(space.dim)):
        cond = _exact_psd("full.diffusion_psd", model.a_eval(np.zeros(space.dim)), "constant diffusion matrix")
    else:
        X = space.interior_samples(samples)
        cond = _sampled_uncertified("full.diffusion_psd", np.linalg.eigvalsh(model.a_eval(X)).min(axis=-1), X,
                                    margin, "diffusion eigenvalue {:.6g} < 0",
                                    "sampled PSD check passed but cannot certify all of R^d")
    return ValidationReport("full", _verdict([cond]), [cond])


_VALIDATORS = {QuadricParams: _validate_quadric, BoxOrthantParams: _validate_box_orthant,
               SimplexParams: _validate_simplex, ModelCoefficients: _validate_full}


def validate_params(space: StateSpace, params, samples: int = 1000, margin: float = DEFAULT_MARGIN) -> ValidationReport:
    """Check the family-specific admissibility conditions of the parameters.

    Exact conditions decide Valid/Invalid outright; conditions quantified
    over infinite sets are sampled with a margin band and may come back
    Inconclusive.  Parameters of the wrong type or shape for the space
    raise the same ValueError as in ``assemble_model``.
    """
    return _VALIDATORS[_check_params(space, params)](space, params, samples, margin)


# ---------------------------------------------------------------------------
# generic coefficient checks against an arbitrary (model, space) pair
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of the necessary or sufficient condition battery."""

    kind: str
    verdict: str
    conditions: list[ConditionResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def as_json_dict(self) -> dict:
        """The condition block of the validate report: verdict and conditions."""
        return {"verdict": self.verdict, "conditions": [c.as_json_dict() for c in self.conditions]}


def _check_verdict(conditions: list[ConditionResult]) -> str:
    return {"Invalid": "fail", "Inconclusive": "inconclusive", "Valid": "pass"}[_verdict(conditions)]


def _eval_vector(polys: list[Polynomial], X: np.ndarray) -> np.ndarray:
    return np.column_stack(_evaluator(polys)(X))


def check_necessary(model: ModelCoefficients, space: StateSpace, samples: int = 400,
                    tol: float = DEFAULT_MARGIN) -> CheckReport:
    """Sampled necessary invariance conditions.

    On each boundary stratum {p = 0}: a grad p = 0 and G p >= 0.  On the
    whole set, for each equality q: a grad q = 0 and G q = 0.  Witness points
    are reported for every violation.
    """
    if model.dim != space.dim:
        raise ValueError("model and state space dimensions differ")
    conds: list[ConditionResult] = []
    for k, p in enumerate(space.inequalities):
        X = space.boundary_samples(k, samples)
        Gp, *agp = _images(model, p)
        conds.append(_sampled_zero(f"necessary.a_gradp_zero[{k}]", _eval_vector(agp, X), X, tol,
                                   f"max |a grad p| on stratum {k}"))
        conds.append(_sampled_min(f"necessary.gp_nonneg[{k}]", Gp(X), X, tol, f"min G p on stratum {k}"))
    if space.equalities:
        X = space.all_samples(samples)
        for k, q in enumerate(space.equalities):
            Gq, *agq = _images(model, q)
            conds.append(_sampled_zero(f"necessary.a_gradq_zero[{k}]", _eval_vector(agq, X), X, tol,
                                       "max |a grad q| on E"))
            conds.append(_sampled_zero(f"necessary.gq_zero[{k}]", _eval_vector([Gq], X), X, tol, "max |G q| on E"))
    return CheckReport("necessary", _check_verdict(conds), conds)


def h_factor(model: ModelCoefficients, space: StateSpace, p: Polynomial) -> list[Polynomial]:
    """Certificate vector h with a grad p = h p on the manifold of the
    state space's equalities, each entry one ``space.divide``.

    In exact arithmetic that division decides whether h exists; rounding can
    still leave a remainder, so DivisionFailure is a cannot-certify signal,
    not a disproof.
    """
    return [space.divide(c, p) for c in a_grad(model, p)]


def check_sufficient(model: ModelCoefficients, space: StateSpace, samples: int = 400,
                     margin: float = DEFAULT_MARGIN) -> CheckReport:
    """Sufficient-condition battery for existence of the diffusion on E.

    The diffusion matrix is sampled for positive semidefiniteness on E; the
    gradient condition a grad p = h p modulo the equalities is certified by
    one exact division (``space.divide``), and a remainder left by rounding
    reads inconclusive, not fail; the strict boundary drift G p > 0 is
    sampled with a margin; and equality invariance (G q and a grad q vanish
    on the manifold) is checked symbolically after ideal reduction, by the
    same test generator_matrix applies.
    """
    if model.dim != space.dim:
        raise ValueError("model and state space dimensions differ")
    X = space.all_samples(samples)
    conds = [_sampled_min("sufficient.diffusion_psd", np.linalg.eigvalsh(model.a_eval(X)).min(axis=-1), X, margin,
                          "min diffusion eigenvalue on E samples")]
    for k, p in enumerate(space.inequalities):
        Gp, *agp = _images(model, p)
        try:
            h = [space.divide(c, p) for c in agp]
            conds.append(ConditionResult(
                f"sufficient.gradient_certificate[{k}]", "pass",
                "a grad p = h p with h = [" + ", ".join(str(c) for c in h) + "]"))
        except DivisionFailure as exc:
            conds.append(ConditionResult(
                f"sufficient.gradient_certificate[{k}]", "inconclusive",
                f"no exact factorization found: {exc}"))
        Xb = space.boundary_samples(k, samples)
        gp = Gp(Xb)
        conds.append(_sampled_sign(f"sufficient.boundary_drift[{k}]", gp, Xb, "pos", margin,
                                   f"G p > 0 on stratum {k}"))
    for k, (q, drift, diffusion) in enumerate(manifold_defects(model, space)):
        conds.append(_exact(f"sufficient.manifold_drift[{k}]", drift is None,
                            "G q vanishes on the manifold" if drift is None else f"G q reduces to {drift}"))
        conds.append(_exact(f"sufficient.manifold_diffusion[{k}]", diffusion is None,
                            "a grad q vanishes on the manifold" if diffusion is None else
                            f"(a grad q)_{diffusion[0]} reduces to {diffusion[1]}"))
    return CheckReport("sufficient", _check_verdict(conds), conds)


# ---------------------------------------------------------------------------
# boundary attainment
# ---------------------------------------------------------------------------


@dataclass
class BoundaryVerdict:
    """Classification of a boundary stratum: does the diffusion reach it?"""

    verdict: str  # "Attain" | "NonAttainStrict" | "NonAttainCritical" | "Inconclusive"
    stratum: int
    detail: str = ""
    witness: list | None = None
    h: list[Polynomial] | None = None

    def as_json_dict(self) -> dict:
        """One entry of the boundary report, less its index; witness and h are null when absent."""
        return {"verdict": self.verdict, "stratum": self.stratum, "detail": self.detail, "witness": self.witness,
                "h": None if self.h is None else [c.to_json_dict() for c in self.h]}


def _collar_points(space: StateSpace, p: Polynomial, X: np.ndarray, deltas) -> np.ndarray:
    """Interior points near the stratum: step inward along the tangentialized
    gradient of p and re-project."""
    G = _eval_vector(p.grad(), X)
    for q in space.equalities:
        Nq = _eval_vector(q.grad(), X)
        nn = np.einsum("ki,ki->k", Nq, Nq)
        nn[nn == 0.0] = 1.0
        G = G - (np.einsum("ki,ki->k", G, Nq) / nn)[:, None] * Nq
    norms = np.linalg.norm(G, axis=1)
    keep = norms > 0.0
    X, G, norms = X[keep], G[keep], norms[keep]
    out = []
    for delta in deltas:
        C = space.project(X + delta * G / norms[:, None])
        vals = p(C)
        out.append(C[vals > 0.0])
    return np.vstack(out) if out else np.empty((0, space.dim))


def classify_boundary(
    model: ModelCoefficients,
    space: StateSpace,
    p: Polynomial,
    samples: int = 400,
    margin: float = DEFAULT_MARGIN,
) -> BoundaryVerdict:
    """Decide whether the stratum {p = 0} is attained by the diffusion.

    Uses the certificate h (a grad p = h p modulo the equalities) and the
    test expression e = 2 G p - h . grad p:  e identically zero on the
    stratum or e >= 0 near the stratum rule attainment out; a boundary point
    with G p >= 0 and e < 0 certifies attainment.  Both the certificate and
    "e vanishes on the stratum" (p divides the reduced e) are one
    ``space.divide`` each, exact in exact arithmetic; a certificate that
    rounding defeats reads Inconclusive, meaning cannot certify.
    """
    try:
        stratum = list(space.inequalities).index(p)
    except ValueError:
        raise ValueError("p must be one of the state-space inequality polynomials") from None
    gp, *agp = _images(model, p)
    try:
        h = [space.divide(c, p) for c in agp]
    except DivisionFailure as exc:
        return BoundaryVerdict("Inconclusive", stratum, f"no gradient certificate: {exc}")
    grad = p.grad()
    e = 2.0 * gp
    for hi, gi in zip(h, grad):
        e = e - hi * gi

    e_red = space.reduce(e)
    if e_red.is_zero():
        return BoundaryVerdict("NonAttainCritical", stratum,
                               "e = 2 G p - h . grad p vanishes identically on the manifold", h=h)
    try:
        space.divide(e_red, p)
        return BoundaryVerdict("NonAttainCritical", stratum,
                               "e = 2 G p - h . grad p vanishes identically on the stratum", h=h)
    except DivisionFailure:
        pass

    Xb = space.boundary_samples(stratum, samples)
    e_vals = e(Xb)
    gp_vals = gp(Xb)
    attain = (gp_vals >= -1e-12) & (e_vals < -margin)
    if np.any(attain):
        w = int(np.flatnonzero(attain)[0])
        return BoundaryVerdict("Attain", stratum,
                               f"boundary point with G p = {gp_vals[w]:.6g} >= 0 and e = {e_vals[w]:.6g} < 0",
                               witness=Xb[w].tolist(), h=h)

    Xc = _collar_points(space, p, Xb, _COLLAR)
    near_vals = np.concatenate([e_vals, e(Xc)]) if len(Xc) else e_vals
    if np.all(near_vals >= margin):
        return BoundaryVerdict("NonAttainStrict", stratum,
                               f"e >= {near_vals.min():.6g} > 0 on the stratum and a collar around it", h=h)
    return BoundaryVerdict("Inconclusive", stratum,
                           f"sampled e range [{near_vals.min():.6g}, {near_vals.max():.6g}] decides neither case",
                           h=h)


# ---------------------------------------------------------------------------
# uniqueness in law
# ---------------------------------------------------------------------------


@dataclass
class UniquenessReport:
    """Which uniqueness criterion, if any, applies to the pair (model, E)."""

    verdict: str  # "UniqueInLaw" | "Unknown"
    reason: str | None = None
    supported_by_sampling: bool = False
    detail: str = ""

    def as_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "supported_by_sampling": self.supported_by_sampling,
            "detail": self.detail,
        }


def _linear_growth(model: ModelCoefficients) -> bool:
    return all(model.a[i][j].homogeneous_part(2).is_zero()
               for i in range(model.dim) for j in range(model.dim))


def _sub_block_compact(space: StateSpace, m: int) -> bool:
    if space.is_compact:
        return True  # continuous projections of compact sets are compact
    if isinstance(space, BoxOrthant) and m <= space.m:
        return True
    return False


def _lipschitz_in_z_supported(model: ModelCoefficients, space: StateSpace, m: int) -> tuple[bool, str]:
    """Sampled local-Lipschitz check of the z-rows of the dispersion."""
    d = model.dim
    rng = np.random.default_rng(1302)
    base = space.interior_samples(48)
    # probe near the lower edge of the z-range too, where square roots blow up
    edge = base.copy()
    edge[:, m:] = np.maximum(edge[:, m:] * 1e-8, 1e-10)
    edge = space.project(edge)
    points = np.vstack([base, edge])
    scales = (1e-1, 1e-3, 1e-6)
    ratios = []
    for scale in scales:
        # positive directions so clipping projections cannot collapse the
        # probe distance and mask a square-root singularity at the edge
        dirs = np.abs(rng.standard_normal((len(points), d - m)))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        moved = points.copy()
        moved[:, m:] = moved[:, m:] + scale * dirs
        moved = space.project(moved)
        same_y = np.abs(moved[:, :m] - points[:, :m]).max(axis=1) if m else np.zeros(len(points))
        dz = np.linalg.norm(moved[:, m:] - points[:, m:], axis=1)
        ok = (same_y <= 1e-14) & (dz > 0.0)
        if not np.any(ok):
            ratios.append(0.0)
            continue
        s1 = dispersion(model, points[ok])[:, m:, :]
        s2 = dispersion(model, moved[ok])[:, m:, :]
        num = np.linalg.norm((s1 - s2).reshape(len(s1), -1), axis=1)
        ratios.append(float(np.max(num / dz[ok])))
    blowup = ratios[-1] > 50.0 * (ratios[0] + 1e-9)
    detail = "dispersion z-rows difference ratios at scales {}: {}".format(
        scales, [f"{r:.3g}" for r in ratios])
    return (not blowup), detail


def uniqueness_report(model: ModelCoefficients, space: StateSpace) -> UniquenessReport:
    """Try the known sufficient criteria for uniqueness in law, in order:
    linear growth of the diffusion matrix (automatic on compact sets), scalar
    state, then a hierarchical split with an autonomous first block."""
    if model.dim != space.dim:
        raise ValueError("model and state space dimensions differ")
    if _linear_growth(model) or space.is_compact:
        return UniquenessReport(
            "UniqueInLaw", "LinearGrowth", False,
            "diffusion matrix grows at most linearly on the state space")
    if model.dim == 1:
        return UniquenessReport("UniqueInLaw", "Dimension1", False, "scalar diffusions are unique in law")
    d = model.dim
    for m in range(1, d):
        y_vars = set(range(m))
        a_ok = all(model.a[i][j].variables_used() <= y_vars for i in range(m) for j in range(m))
        b_ok = all(model.b[i].variables_used() <= y_vars for i in range(m))
        if not (a_ok and b_ok):
            continue
        sub_linear = all(model.a[i][j].homogeneous_part(2).is_zero() for i in range(m) for j in range(m))
        if not (sub_linear or m == 1 or _sub_block_compact(space, m)):
            continue
        supported, detail = _lipschitz_in_z_supported(model, space, m)
        if supported:
            return UniquenessReport(
                "UniqueInLaw", "Hierarchical", True,
                f"autonomous first block of size {m}; {detail}")
    return UniquenessReport("Unknown", None, False, "no sufficient uniqueness criterion applies")
