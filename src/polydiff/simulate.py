"""Euler-Maruyama simulation with state-space projection.

Dispersion is the PSD square root of the (projected) diffusion matrix, so
slightly inadmissible coefficients off the constraint set never produce
complex noise.

Stream contract: path k draws from numpy's ``Philox`` keyed by
``SeedSequence(entropy=seed, spawn_key=(k,))``, one double (u >> 11) * 2**-53
per 64-bit output u, d doubles per step in step order; normal variates go
through the inverse CDF.  So ``Generator(Philox(SeedSequence(entropy=seed,
spawn_key=(k,)))).random((n_steps, d))`` reproduces the uniforms of path k
with numpy alone.  The contract holds across chunk and step-block
boundaries: paths are bit-identical across runs, platforms and chunk sizes,
and adding paths never reshuffles existing ones.
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
# a block of d-dimensional steps is a whole number of 4-word Philox outputs,
# so every block starts on an empty buffer at counter step * d / 4
assert _STEP_BLOCK % 4 == 0

# numpy SeedSequence constants (O'Neill's seed_seq_fe with a 4-word pool)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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
    if A.shape[-1] == 1:
        # a 1x1 eigh returns w = a and V = 1, so this is the same root bit for bit
        return np.sqrt(np.maximum(A, 0.0))
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


def _words(n: int) -> list[np.ndarray]:
    """Little-endian 32-bit words of a non-negative integer ([0] for zero)."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return [np.array([w], dtype=np.uint32) for w in words]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> 16)


def _hash(v: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """One seed_seq_fe hash of the words v; returns them and the next constant."""
    v = v ^ np.uint32(const)
    const = const * mult & _MASK32
    v = v * np.uint32(const)
    return v ^ (v >> 16), const


def _seed_keys(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence`` pool mixing and ``generate_state(2, uint64)`` on word
    arrays: word i of every row is entropy[i], broadcast over rows."""
    const = _INIT_A

    def hashmix(v):
        nonlocal const
        v, const = _hash(v, const, _MULT_A)
        return v

    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w))
    const = _INIT_B
    state = []
    for w in pool:
        w, const = _hash(w, const, _MULT_B)
        state.append(w.astype(np.uint64))
    return np.column_stack([state[0] | state[1] << np.uint64(32), state[2] | state[3] << np.uint64(32)])


def _path_keys(seed: int, indices) -> np.ndarray:
    """Philox keys (n, 2) uint64 of ``SeedSequence(entropy=seed, spawn_key=(k,))``
    for every path index k, all at once."""
    run = _words(int(seed))
    # numpy pads the seed words to the pool size when a spawn key follows
    run += [np.zeros(1, dtype=np.uint32)] * (_POOL_SIZE - len(run))
    idx = np.asarray(indices, dtype=np.uint64).reshape(-1)
    lo = (idx & np.uint64(_MASK32)).astype(np.uint32)
    hi = (idx >> np.uint64(32)).astype(np.uint32)
    keys = np.empty((idx.size, 2), dtype=np.uint64)
    # an index >= 2**32 is a two-word spawn key, which runs one more mixing round
    for two in (False, True):
        rows = (hi != 0) == two
        if rows.any():
            keys[rows] = _seed_keys(run + [lo[rows]] + ([hi[rows]] if two else []))
    return keys


def _uniforms(gen: np.random.Generator, keys: list, step: int, block: int, d: int) -> np.ndarray:
    """Uniforms (len(keys), block, d) of steps [step, step + block) of the
    Philox streams keyed by ``keys``, all drawn through the one generator ``gen``.

    Each path sets its key and counter step * d / 4 on an empty buffer, which
    is where its own fresh stream stands after ``step`` steps whenever
    step * d is a multiple of 4 (Philox counts 4-word outputs).
    """
    u = np.empty((len(keys), block, d))
    bitgen = gen.bit_generator
    state = {"bit_generator": "Philox", "state": {"counter": [step * d // 4, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i, key in enumerate(keys):
        state["state"]["key"] = key
        bitgen.state = state
        gen.random((block, d), out=u[i])
    return u


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
    n_paths, seed : path count and the master seed (an integer >= 0) of the
        per-path streams; see the module docstring for the stream contract.
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
    gen = np.random.Generator(np.random.Philox(0))  # every path overwrites its state

    for start in range(0, n_paths, _CHUNK_PATHS):
        stop = min(start + _CHUNK_PATHS, n_paths)
        keys = _path_keys(seed, np.arange(start, stop)).tolist()
        c = stop - start
        x = np.tile(x0, (c, 1))
        out[start:stop, 0] = x
        if ineqs:
            mins = np.column_stack([np.full(c, p(x0)) for p in ineqs])
        step = 0
        while step < n_steps:
            block = min(_STEP_BLOCK, n_steps - step)
            u = _uniforms(gen, keys, step, block, d)
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
