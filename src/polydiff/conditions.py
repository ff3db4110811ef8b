"""Admissibility, boundary attainment, and uniqueness diagnostics.

Every condition verdict comes from one of three judges.  Exact ones decide
pass or fail outright: ``_exact`` (sign patterns, linear identities,
symbolic reductions) and ``_exact_psd`` (a constant matrix, smallest
eigenvalue >= -1e-12 (1 + max |M|)).  ``_sampled`` judges values sampled on
deterministic grids: one below its tolerance's negative, or a NaN, fails
with a witness point; a strict inequality reads a value within tolerance of
zero inconclusive; a set that sampling cannot exhaust never passes.  The
gradient certificate of ``check_sufficient``, an exact division whose
failure reads inconclusive, is the one verdict built outside the judges.

Every sampled polynomial value has one tolerance, ``_tolerance``: _MARGIN x
max(1, s(x)) at its sample x, where the term sum s(x) = |f|(|x|) bounds the
rounding of f(x) and _MARGIN = 1e-9 is a constant, set by no caller.  The
sampled PSD checks shift a(x) by the tolerance of the rows of a
(``_sampled_eigmin``).  Sampled values are computed with overflow and
invalid-value warnings off: a value that overflows to NaN is judged as
above, not warned about.  Smallest eigenvalues come from
``_batch_eigmin``: the entry for d = 1, a closed form for d = 2, LAPACK
``eigvalsh`` for d >= 3 and for 2x2 matrices of extreme scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .generator import ModelCoefficients, _images, a_grad, manifold_defects
from .polynomial import DivisionFailure, Polynomial, _evaluator, _summed
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
    assemble_model,
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

_MARGIN = 1e-9
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


# a 2x2 row whose |a00| + |a11| + |a01| lies in this range takes the closed form of
# _batch_eigmin: no product of two entries leaves the normal doubles
_EIG_LOW, _EIG_HIGH = 2.0 ** -480, 2.0 ** 480


def _batch_eigmin(A: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue of each symmetric matrix of an (n, d, d) stack.

    d = 1 reads the entry.  d = 2 takes a closed form without cancellation in
    its subtractions: with m = (a00 + a11)/2 and far = m + sign(m) hypot((a00 -
    a11)/2, a01), the eigenvalue farther from zero, the smallest is far when
    m has its sign bit set (m < 0 or m = -0.0, as copysign reads it) and
    det A / far otherwise.  A finite diagonal row, zero included, is
    min(a00, a11), exactly.  Other rows outside _EIG_LOW.._EIG_HIGH (huge,
    tiny or non-finite), and every stack with d >= 3, go to LAPACK ``eigvalsh``."""
    d = A.shape[-1]
    if d == 1:
        return A[:, 0, 0].copy()
    if d > 2:
        return np.linalg.eigvalsh(A).min(axis=-1)
    a00, a01, a11 = A[:, 0, 0], A[:, 0, 1], A[:, 1, 1]
    with np.errstate(all="ignore"):  # the rows that overflow or divide by zero go to eigvalsh
        scale = np.abs(a00) + np.abs(a11) + np.abs(a01)
        m = 0.5 * (a00 + a11)
        far = m + np.copysign(np.hypot(0.5 * (a00 - a11), a01), m)
        out = np.where(np.signbit(m), far, (a00 * a11 - a01 * a01) / far)
    diagonal = a01 == 0.0
    np.copyto(out, np.minimum(a00, a11), where=diagonal)
    rest = ~((scale >= _EIG_LOW) & (scale <= _EIG_HIGH) | diagonal & np.isfinite(scale))
    if rest.any():
        out[rest] = np.linalg.eigvalsh(A[rest]).min(axis=-1)
    return out


def _eigmin(M: np.ndarray):
    """Smallest eigenvalue of the symmetric part of M, or of each matrix of a
    stack; inf for an empty matrix."""
    if M.size == 0:
        return np.inf
    S = 0.5 * (M + np.swapaxes(M, -1, -2))
    return _batch_eigmin(S) if S.ndim == 3 else _batch_eigmin(S[None])[0]


def _tolerance(groups: list[list[Polynomial]], X: np.ndarray, values: np.ndarray,
               strict: bool = False, least: float | None = None) -> float | np.ndarray:
    """_MARGIN x max(1, s(x)) for each value sampled at x: s(x) = sum |c x^e| over the terms of
    its group of polynomials bounds its rounding (_MARGIN where s overflows).  ``values`` is
    1-d for one group, else has a column per group or one for all.  Only values _MARGIN cannot
    decide get a scale: below -_MARGIN (or within _MARGIN of zero if ``strict``), and within
    _MARGIN x max(1, sum |c| M^deg f), M = max(1, max |X|), of zero, as that bounds every s(x).
    With none, the result is _MARGIN itself.  ``least`` is values' minimum, if known."""
    least = values.min(initial=np.inf) if least is None else least
    if not (strict or least < -_MARGIN):
        return _MARGIN
    M = float(np.abs(X).max(initial=1.0))
    bound = [_MARGIN * max(1.0, sum(sum(map(abs, f.terms.values())) * M ** f.degree for f in g)) for g in groups]
    if strict and least > max(bound):
        return _MARGIN
    v, bound = values.reshape(len(X), -1), np.array(bound)
    near = np.flatnonzero(((np.abs(v) <= bound) if strict else (v < -_MARGIN) & (v >= -bound)).any(axis=1))
    tol = np.full((len(X), len(groups)), _MARGIN)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.stack([sum(_evaluator([_summed(X.shape[1], ((e, abs(c)) for e, c in f.terms.items())) for f in g])(
            np.abs(X[near]))) for g in groups], axis=-1)
    tol[near] = _MARGIN * np.maximum(1.0, np.where(np.isfinite(s), s, 1.0))
    return tol if values.ndim == 2 else tol[:, 0]


def _sampled_eigmin(model: ModelCoefficients, X: np.ndarray):
    """The smallest eigenvalue of a(x) at each sample, and the tolerance on it: how far
    D = _MARGIN diag(max(1, sum_j T_ij(x))), the ``_tolerance`` of the rows of a, raises
    it, at least _MARGIN.  a(x) is off by |E_ij| <= a few eps T_ij(x), the term sum of
    a_ij, and a + diag(sum_j |E_ij|) dominates a, so a(x) + D not PSD means a(x) is not."""
    with np.errstate(over="ignore", invalid="ignore"):
        A = model.a_eval(X)
    eigmin = _batch_eigmin(A)
    D = _tolerance(model.a, X, eigmin[:, None])
    if not isinstance(D, np.ndarray):
        return eigmin, _MARGIN
    with np.errstate(over="ignore", invalid="ignore"):
        return eigmin, np.fmax(_batch_eigmin(A + D[:, :, None] * np.eye(model.dim)) - eigmin, _MARGIN)


def _exact_psd(cond_id: str, M: np.ndarray, name: str) -> ConditionResult:
    """Pass when the constant matrix M is PSD up to rounding."""
    e = _eigmin(M)
    return _exact(cond_id, e >= -_EXACT_TOL * (1.0 + np.abs(M).max(initial=0.0)),
                  f"{name} PSD (min eigenvalue {e:.6g})")


def _sampled(cond_id: str, values: np.ndarray, points: np.ndarray, detail, *, tol=None, scale=None,
             strict: bool = False, exhaustive: bool = True, sign: float = 1.0) -> ConditionResult:
    """Judge values that should be >= 0 (> 0 when ``strict``), a row per sample point.

    ``tol`` is the tolerance a PSD check computed; without it, the ``_tolerance`` of ``scale``,
    or _MARGIN.
    The first smallest value below -tol fails as the witness; so does a NaN where no number
    does, unless the set is not ``exhaustive`` (R^d, the orthant): there a NaN is ignored
    and no check passes.  A strict check reads the smallest value within tol inconclusive.
    ``detail`` is a template given sign x value and its tol, or one per status (fail,
    inconclusive, pass), or the name of a strict inequality."""
    v = values.ravel()
    i = int(np.argmin(v))  # the first smallest value, or the first NaN
    if tol is None:
        tol = _MARGIN if scale is None else _tolerance(scale, points, values, strict, v[i])
    scalar = not isinstance(tol, np.ndarray)
    t = tol if scalar else tol.ravel()
    status = "pass" if exhaustive else "inconclusive"
    if not (scalar and (v[i] > t if strict else v[i] >= -t)):  # a scalar tol decides the common case at once
        below = ~(v >= -t) if exhaustive else v < -t
        pick = below if below.any() or not strict else v <= t
        if pick.any():
            status = "fail" if pick is below else "inconclusive"
            # the first smallest picked number; the first picked NaN only when no number is picked
            number = pick & ~np.isnan(v)
            i = int(np.argmin(np.where(number, v, np.inf)) if number.any() else np.argmax(pick))
    if strict:
        detail = f"{detail}; " + {"fail": "violated, value {:.6g}", "inconclusive": "extreme sampled value {:.6g} "
                                  "within tolerance {:.6g}"}.get(status, "extreme sampled value {:.6g}")
    text = detail if isinstance(detail, str) else detail[("fail", "inconclusive", "pass").index(status)]
    return ConditionResult(cond_id, status, text.format(sign * float(v[i]), t if scalar else t[i]),
                           points[np.unravel_index(i, values.shape)[0]].tolist() if status == "fail" else None)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _validate_quadric(space: Quadric, params: QuadricParams, samples: int) -> ValidationReport:
    inside = space.orientation == "inside"
    # on {x'Qx = 1}, G(1 - x'Qx) = -2 (x'Q b(x) + (1/2) sum_i Q_ii c_ii(x)) with c_ij(x) = x' M[i, j] x
    M = _quadric_c_tensor(space, params.gamma)
    form = params.B.T @ space.Q + 0.5 * np.einsum("i,iiuv->uv", np.diag(space.Q), M)
    X = space.boundary_samples(0, samples)
    drift = space.Q @ params.beta
    with np.errstate(over="ignore", invalid="ignore"):
        vals = X @ drift + np.einsum("ki,ij,kj->k", X, form, X)
    # the term sum of vals as computed, |x|' |drift| + |x|' |form| |x|, as d + 1 polynomials
    d, unit = space.dim, np.eye(space.dim, dtype=int)
    scale = [_summed(d, zip(map(tuple, e), c)) for e, c in zip([unit.tolist()] + (unit[:, None] + unit).tolist(),
                                                              [drift.tolist()] + form.tolist())]
    sign = -1.0 if inside else 1.0
    conds = [_exact_psd("quadric.alpha_psd", params.alpha if inside else -params.alpha,
                        "alpha" if inside else "-alpha"),
             _exact_psd("quadric.gamma_psd", params.gamma, "gamma"),
             _sampled("quadric.boundary_drift", sign * vals, X,
                      f"boundary drift form {'< 0' if inside else '> 0'} on the quadric",
                      scale=[scale], strict=True, sign=sign)]
    return ValidationReport("quadric", _verdict(conds), conds)


def _validate_box_orthant(space: BoxOrthant, params: BoxOrthantParams, samples: int) -> ValidationReport:
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
            shifted = np.repeat(params.alpha[None], samples, axis=0)
            shifted[:, range(n), range(n)] += (U @ params.pi) / U
            conds.append(_sampled("box.alpha_psd_shifted", _eigmin(shifted), U,
                                  ("alpha + Diag(pi'u)/Diag(u) has eigenvalue {:.6g} < 0",
                                   "alpha not PSD alone; sampled shifted minimum {:.6g} "
                                   "cannot certify all of the orthant"), exhaustive=False))
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


def _validate_simplex(space: Simplex, params: SimplexParams, samples: int) -> ValidationReport:
    """simplex.drift_mass is the drift verdict of manifold_defects on the assembled model."""
    conds: list[ConditionResult] = []
    d = space.dim
    off = params.alpha[~np.eye(d, dtype=bool)]
    ok = bool(np.all(off >= 0.0))
    conds.append(_exact("simplex.alpha_structure", ok,
                        "exchange coefficients alpha_ij >= 0" if ok else
                        f"negative exchange coefficient {off.min():.6g}"))
    (_, drift, _), = manifold_defects(assemble_model(space, params), space)
    conds.append(_exact("simplex.drift_mass", drift is None,
                        "drift tangent to the mass constraint" if drift is None else
                        f"drift not tangent to the mass constraint: G q reduces to {drift}"))
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


def _validate_full(space: FullSpace, model: ModelCoefficients, samples: int) -> ValidationReport:
    if all(model.a[i][j].degree <= 0 for i in range(space.dim) for j in range(space.dim)):
        cond = _exact_psd("full.diffusion_psd", model.a_eval(np.zeros(space.dim)), "constant diffusion matrix")
    else:
        X = space.interior_samples(samples)
        eigmin, tol = _sampled_eigmin(model, X)
        cond = _sampled("full.diffusion_psd", eigmin, X, ("diffusion eigenvalue {:.6g} < 0",
                        "sampled PSD check passed but cannot certify all of R^d"), tol=tol, exhaustive=False)
    return ValidationReport("full", _verdict([cond]), [cond])


_VALIDATORS = {QuadricParams: _validate_quadric, BoxOrthantParams: _validate_box_orthant,
               SimplexParams: _validate_simplex, ModelCoefficients: _validate_full}


def validate_params(space: StateSpace, params, samples: int = 1000) -> ValidationReport:
    """Check the family-specific admissibility conditions of the parameters.

    Exact conditions decide Valid/Invalid outright; conditions quantified
    over infinite sets are sampled against the term-sum tolerance and may
    come back Inconclusive.  Parameters of the wrong type or shape for the
    space raise the same ValueError as in ``assemble_model``.
    """
    return _VALIDATORS[_check_params(space, params)](space, params, samples)


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


def _tangency(model: ModelCoefficients, space: StateSpace, drift_id: str,
              diffusion_id: str) -> list[tuple[ConditionResult, ConditionResult]]:
    """The (drift, diffusion) results for each equality q, as decided by
    manifold_defects: G q and a grad q vanish on the manifold."""
    return [(_exact(f"{drift_id}[{k}]", drift is None,
                    "G q vanishes on the manifold" if drift is None else f"G q reduces to {drift}"),
             _exact(f"{diffusion_id}[{k}]", diffusion is None,
                    "a grad q vanishes on the manifold" if diffusion is None else
                    f"(a grad q)_{diffusion[0]} reduces to {diffusion[1]}"))
            for k, (_, drift, diffusion) in enumerate(manifold_defects(model, space))]


def check_necessary(model: ModelCoefficients, space: StateSpace, samples: int = 400) -> CheckReport:
    """Necessary invariance conditions: on each boundary stratum {p = 0},
    a grad p = 0 and G p >= 0, sampled against ``_tolerance`` with a
    witness point for every violation; for each equality q, tangency as
    manifold_defects decides it.
    """
    if model.dim != space.dim:
        raise ValueError("model and state space dimensions differ")
    conds: list[ConditionResult] = []
    with np.errstate(over="ignore", invalid="ignore"):  # _sampled fails a value that overflows to NaN
        for k, p in enumerate(space.inequalities):
            X = space.boundary_samples(k, samples)
            Gp, *agp = _images(model, p)
            conds.append(_sampled(f"necessary.a_gradp_zero[{k}]", -np.abs(_eval_vector(agp, X)), X,
                                  f"max |a grad p| on stratum {k} is {{:.6g}}", scale=[[c] for c in agp], sign=-1.0))
            conds.append(_sampled(f"necessary.gp_nonneg[{k}]", Gp(X), X, f"min G p on stratum {k} is {{:.6g}}",
                                  scale=[[Gp]]))
    for drift, diffusion in _tangency(model, space, "necessary.gq_zero", "necessary.a_gradq_zero"):
        conds += [diffusion, drift]
    return CheckReport("necessary", _check_verdict(conds), conds)


def h_factor(model: ModelCoefficients, space: StateSpace, p: Polynomial) -> list[Polynomial]:
    """Certificate vector h with a grad p = h p on the manifold of the
    state space's equalities, each entry one ``space.divide``.

    In exact arithmetic that division decides whether h exists; rounding can
    still leave a remainder, so DivisionFailure is a cannot-certify signal,
    not a disproof.
    """
    return [space.divide(c, p) for c in a_grad(model, p)]


def check_sufficient(model: ModelCoefficients, space: StateSpace, samples: int = 400) -> CheckReport:
    """Sufficient-condition battery for existence of the diffusion on E.

    The diffusion matrix is sampled for positive semidefiniteness on E; the
    gradient condition a grad p = h p modulo the equalities is certified by
    one exact division (``space.divide``), and a remainder left by rounding
    reads inconclusive, not fail; the strict boundary drift G p > 0 is
    sampled against the term-sum tolerance; and equality invariance (G q and
    a grad q vanish on the manifold) is decided by manifold_defects.
    """
    if model.dim != space.dim:
        raise ValueError("model and state space dimensions differ")
    X = space.all_samples(samples)
    eigmin, tol = _sampled_eigmin(model, X)
    conds = [_sampled("sufficient.diffusion_psd", eigmin, X, "min diffusion eigenvalue on E samples is {:.6g}",
                      tol=tol)]
    with np.errstate(over="ignore", invalid="ignore"):
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
            conds.append(_sampled(f"sufficient.boundary_drift[{k}]", Gp(Xb), Xb, f"G p > 0 on stratum {k}",
                                  scale=[[Gp]], strict=True))
    for drift, diffusion in _tangency(model, space, "sufficient.manifold_drift", "sufficient.manifold_diffusion"):
        conds += [drift, diffusion]
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


def _collar_points(space: StateSpace, p: Polynomial, grad: list[Polynomial], samples: np.ndarray) -> np.ndarray:
    """The samples of the stratum, then interior points near them: a step
    inward by each of _COLLAR along the tangentialized gradient ``grad`` of p,
    re-projected."""
    X, G = samples, _eval_vector(grad, samples)
    for q in space.equalities:
        Nq = _eval_vector(q.grad(), X)
        nn = np.einsum("ki,ki->k", Nq, Nq)
        nn[nn == 0.0] = 1.0
        G = G - (np.einsum("ki,ki->k", G, Nq) / nn)[:, None] * Nq
    norms = np.linalg.norm(G, axis=1)
    keep = norms > 0.0
    if not keep.all():
        X, G, norms = X[keep], G[keep], norms[keep]
    out = [samples]
    for delta in _COLLAR:
        C = space.project(X + delta * G / norms[:, None])
        out.append(C[p(C) > 0.0])
    return np.vstack(out)


def classify_boundary(model: ModelCoefficients, space: StateSpace, p: Polynomial,
                      samples: int = 400) -> BoundaryVerdict:
    """Decide whether the stratum {p = 0} is attained by the diffusion.

    Uses the certificate h (a grad p = h p modulo the equalities) and the
    test expression e = 2 G p - h . grad p:  e identically zero on the
    stratum or e >= 0 near the stratum rule attainment out; a boundary point
    with G p >= 0 and e < 0 certifies attainment.  Both the certificate and
    "e vanishes on the stratum" (p divides the reduced e) are one
    ``space.divide`` each, exact in exact arithmetic; a certificate that
    rounding defeats reads Inconclusive, meaning cannot certify.  Sampled
    signs are read against ``_tolerance`` at each point: G p >= -tol and
    e < -tol at a boundary sample attain, and e >= tol at every sample of
    the stratum and of a collar inside it is NonAttainStrict.
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
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN sample neither attains nor rules attainment out
        e_vals, gp_vals = e(Xb), gp(Xb)
        low = e_vals < -_tolerance([[e]], Xb, e_vals)
        attain = low & (gp_vals >= -_tolerance([[gp]], Xb, gp_vals)) if low.any() else low
        if attain.any():
            w = int(np.flatnonzero(attain)[0])
            return BoundaryVerdict("Attain", stratum,
                                   f"boundary point with G p = {gp_vals[w]:.6g} >= 0 and e = {e_vals[w]:.6g} < 0",
                                   witness=Xb[w].tolist(), h=h)

        Xn = _collar_points(space, p, grad, Xb)
        near_vals = np.concatenate([e_vals, e(Xn[len(Xb):])])
    least = near_vals.min()
    if np.all(near_vals >= _tolerance([[e]], Xn, near_vals, True, least)):
        return BoundaryVerdict("NonAttainStrict", stratum,
                               f"e >= {least:.6g} > 0 on the stratum and a collar around it", h=h)
    finite = near_vals[np.isfinite(near_vals)]
    span = f"range [{finite.min():.6g}, {finite.max():.6g}]" if finite.size else "without a finite value"
    return BoundaryVerdict("Inconclusive", stratum, f"sampled e {span} decides neither case", h=h)


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
        # a compact first block: the box part of a box-orthant (compact spaces returned above)
        if not (sub_linear or m == 1 or (isinstance(space, BoxOrthant) and m <= space.m)):
            continue
        supported, detail = _lipschitz_in_z_supported(model, space, m)
        if supported:
            return UniquenessReport(
                "UniqueInLaw", "Hierarchical", True,
                f"autonomous first block of size {m}; {detail}")
    return UniquenessReport("Unknown", None, False, "no sufficient uniqueness criterion applies")
