"""Euler-Maruyama simulation with state-space projection.

Dispersion is the PSD square root of the (projected) diffusion matrix, so
slightly inadmissible coefficients off the constraint set never produce
complex noise.  Randomness comes from counter-based per-path streams: path k
draws from Philox seeded by (seed, k), and normal variates go through the
inverse CDF, so results are bit-identical across runs, platforms, and chunk
sizes, and adding paths never reshuffles existing ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .basis import _csv_text
from .generator import check_point
from .polynomial import Polynomial

__all__ = [
    "NotSymmetric",
    "PathSet",
    "nearest_psd",
    "dispersion",
    "simulate_paths",
    "mc_moment",
    "boundary_hit_stats",
]

_STEP_BLOCK = 1024  # fixed internal step blocking; must not depend on inputs
_CHUNK_PATHS = 8192  # paths simulated together; the paths do not depend on it


class NotSymmetric(ValueError):
    """Matrix asymmetry above tolerance where a symmetric matrix is required."""


def nearest_psd(A, sym_tol: float = 1e-12) -> np.ndarray:
    """Projection onto the PSD cone: clip negative eigenvalues to zero.

    The input must be symmetric up to ``sym_tol`` (relative); it is
    symmetrized before the eigendecomposition and the output is exactly
    symmetric.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("nearest_psd needs a square matrix")
    scale = 1.0 + np.abs(A).max(initial=0.0)
    if np.abs(A - A.T).max(initial=0.0) > sym_tol * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    S = 0.5 * (A + A.T)
    w, V = np.linalg.eigh(S)
    out = (V * np.maximum(w, 0.0)) @ V.T
    return 0.5 * (out + out.T)


def _psd_sqrt_batch(A: np.ndarray) -> np.ndarray:
    """PSD square root of a batch (..., d, d) of symmetric matrices."""
    w, V = np.linalg.eigh(A)
    root = np.sqrt(np.maximum(w, 0.0))
    return np.einsum("...ik,...k,...jk->...ij", V, root, V)


def dispersion(model, x) -> np.ndarray:
    """PSD square root of the projected diffusion matrix a(x).  Batched."""
    return _psd_sqrt_batch(model.a_eval(x))


@dataclass
class PathSet:
    """Simulated trajectories on a uniform time grid.

    ``paths`` holds states at the stored steps (every ``store_stride``-th
    step plus the final one); ``constraint_minima`` tracks the running
    minimum of each state-space inequality at full step resolution, so
    boundary statistics do not depend on the storage stride.
    """

    times: np.ndarray
    paths: np.ndarray
    seed: int
    dt: float
    n_steps: int
    store_stride: int
    scheme: str
    statespace_family: str
    constraint_minima: np.ndarray | None = None

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def dim(self) -> int:
        return self.paths.shape[2]

    def csv_text(self) -> str:
        """Long-format CSV: path_id, step, t, x_1..x_d."""
        header = "path_id,step,t," + ",".join(f"x_{i + 1}" for i in range(self.dim))
        n, m = self.paths.shape[:2]
        rows = np.column_stack([np.repeat(np.arange(n), m), np.tile(np.rint(self.times / self.dt), n),
                                np.tile(self.times, n), self.paths.reshape(n * m, self.dim)])
        return _csv_text(rows, header)


def _path_stream(seed: int, path_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(path_index),))
    return np.random.Generator(np.random.Philox(ss))


def simulate_paths(
    model,
    statespace,
    x0,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
    store_stride: int = 1,
) -> PathSet:
    """Euler-Maruyama with projection back onto the state space each step.

    Parameters
    ----------
    model, statespace : coefficients and the set they must respect.
    x0 : starting state, must satisfy the constraints to tolerance.
    T, dt : horizon and step; T must be an integer multiple of dt.
    n_paths, seed : path count and the master seed of the per-path streams.
    store_stride : keep every stride-th step (the final step is always kept);
        running constraint minima are tracked at full resolution regardless.
    """
    x0 = check_point(statespace, x0)
    if dt <= 0.0 or T <= 0.0:
        raise ValueError("T and dt must be positive")
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError("T must be an integer multiple of dt")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if store_stride < 1:
        raise ValueError("store_stride must be >= 1")
    x0 = statespace.project(x0)
    d = statespace.dim
    ineqs = statespace.inequalities
    stored_steps = sorted(set(range(0, n_steps + 1, store_stride)) | {n_steps})
    stored_pos = {s: i for i, s in enumerate(stored_steps)}
    out = np.empty((n_paths, len(stored_steps), d))
    minima = np.empty((n_paths, len(ineqs))) if ineqs else None
    sqdt = np.sqrt(dt)

    for start in range(0, n_paths, _CHUNK_PATHS):
        stop = min(start + _CHUNK_PATHS, n_paths)
        streams = [_path_stream(seed, k) for k in range(start, stop)]
        c = stop - start
        x = np.tile(x0, (c, 1))
        out[start:stop, 0] = x
        if ineqs:
            mins = np.column_stack([np.full(c, p(x0)) for p in ineqs])
        step = 0
        while step < n_steps:
            block = min(_STEP_BLOCK, n_steps - step)
            u = np.stack([g.random((block, d)) for g in streams])
            # uniform draws live in [0, 1); keep the inverse CDF finite
            z = ndtri(np.clip(u, 1e-300, 1.0 - 2**-53))
            for j in range(block):
                drift = model.b_eval(x)
                sig = dispersion(model, x)
                x = x + drift * dt + sqdt * np.einsum("cij,cj->ci", sig, z[:, j])
                x = statespace.project(x)
                step += 1
                for q, p in enumerate(ineqs):
                    np.minimum(mins[:, q], p(x), out=mins[:, q])
                pos = stored_pos.get(step)
                if pos is not None:
                    out[start:stop, pos] = x
        if ineqs:
            minima[start:stop] = mins

    return PathSet(
        times=np.asarray(stored_steps, dtype=float) * dt,
        paths=out,
        seed=int(seed),
        dt=float(dt),
        n_steps=n_steps,
        store_stride=int(store_stride),
        scheme="euler-project",
        statespace_family=statespace.family,
        constraint_minima=minima,
    )


def mc_moment(paths: PathSet, p: Polynomial, t: float) -> tuple[float, float]:
    """Monte Carlo estimate of E[p(X_t)] with its standard error.

    ``t`` snaps to the nearest stored grid time (with a warning when the gap
    exceeds half a step).
    """
    idx = int(np.argmin(np.abs(paths.times - t)))
    gap = abs(paths.times[idx] - t)
    if gap > 0.5 * paths.dt + 1e-12:
        warnings.warn(f"t = {t} is off the stored grid; snapping to {paths.times[idx]}")
    vals = p(paths.paths[:, idx, :])
    vals = np.atleast_1d(np.asarray(vals, dtype=float))
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return mean, se


def boundary_hit_stats(paths: PathSet, statespace, p: Polynomial, threshold: float) -> dict:
    """Fraction of paths whose running minimum of p(X) dips below threshold,
    plus summary quantiles of the per-path minima."""
    try:
        index = list(statespace.inequalities).index(p)
    except ValueError:
        raise ValueError("p must be one of the state-space inequality polynomials") from None
    if paths.constraint_minima is not None:
        mins = paths.constraint_minima[:, index]
    else:
        vals = p(paths.paths.reshape(-1, paths.dim)).reshape(paths.n_paths, -1)
        mins = vals.min(axis=1)
    qs = np.quantile(mins, [0.0, 0.05, 0.25, 0.5, 0.75, 1.0])
    return {
        "hit_fraction": float(np.mean(mins < threshold)),
        "threshold": float(threshold),
        "min": float(qs[0]),
        "q05": float(qs[1]),
        "q25": float(qs[2]),
        "median": float(qs[3]),
        "q75": float(qs[4]),
        "max": float(qs[5]),
    }
