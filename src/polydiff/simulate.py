"""Euler-Maruyama simulation with state-space projection.

Dispersion is the PSD square root of the (projected) diffusion matrix, so
slightly inadmissible coefficients off the constraint set never produce
complex noise.  Each Euler step makes one call to the polynomial evaluator
over b, the upper triangle of a and the state-space inequalities, so they
share one table of coordinate powers.

Stream contract: path k draws from numpy's ``Philox`` keyed by
``SeedSequence(entropy=seed, spawn_key=(k,))``, one double (u >> 11) * 2**-53
per 64-bit output u, d doubles per step in step order; normal variates go
through the inverse CDF.  So ``Generator(Philox(SeedSequence(entropy=seed,
spawn_key=(k,)))).random((n_steps, d))`` reproduces the uniforms of path k
with numpy alone.  The contract holds across chunk and step-block
boundaries: paths are bit-identical across runs, platforms and chunk sizes,
and adding paths never reshuffles existing ones.

Keys: numpy's entropy for path k is the seed's 32-bit words, zero-padded to
the 4-word pool, then k's one or two words.  So a chunk of paths starts from
numpy's own ``SeedSequence(seed).pool``, mixes in only k's words per path,
and hashes the pool into the two 64-bit Philox key words.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .basis import _csv_text
from .generator import check_point
from .polynomial import Polynomial, _evaluator

__all__ = [
    "PathSet",
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


# a PSD A with tr A between these has entries whose products stay normal doubles
_SCALE_LOW, _SCALE_HIGH = 2.0**-480, 2.0**480


def _root_times(a: list, z: np.ndarray) -> np.ndarray:
    """sigma z, row by row, for sigma the PSD square root of the eigenvalue-clipped
    matrix with upper triangle ``a`` (a_00, a_01, ..., a_11, ...: arrays (n,))
    and z of shape (n, d), without forming sigma where d <= 2.

    d = 1 is sqrt(max(a, 0)) z, bit for bit the 1x1 root times z.  d = 2 is the
    closed form of the 2x2 root, equal to the eigendecomposition route up to
    rounding.  d >= 3 goes through ``eigh``, bit for bit as ``dispersion``.
    """
    d = z.shape[1]
    if d == 1:
        return np.sqrt(np.maximum(a[0], 0.0))[:, None] * z
    if d == 2:
        return _root_times_2x2(*a, z[:, 0], z[:, 1])
    A = np.empty((len(z), d, d))
    k = 0
    for i in range(d):
        for j in range(i, d):
            A[:, i, j] = a[k]
            A[:, j, i] = a[k]
            k += 1
    return np.einsum("cij,cj->ci", _psd_sqrt_batch(A), z)


def _root_times_2x2(a00, a01, a11, z0, z1) -> np.ndarray:
    """The d = 2 case of ``_root_times``.

    A PSD matrix A has the root (A + sI) / sqrt(tr A + 2s), s = sqrt(det A).
    The few rows that closed form leaves go to ``_clipped_root_times``.
    """
    out, rest = _psd_root_times(a00, a01, a11, z0, z1)
    if rest is not None:
        out[rest] = _clipped_root_times(*(v[rest] for v in (a00, a01, a11, z0, z1)))
    return out


def _psd_root_times(a00, a01, a11, z0, z1) -> tuple[np.ndarray, np.ndarray | None]:
    """(A + sI) z / sqrt(tr A + 2s) row by row, and None when every row has
    det A >= 0 and a trace in _SCALE_LOW.._SCALE_HIGH (so A is PSD and no
    product leaves the normal doubles), else the mask of the rows that do not,
    whose values are meaningless."""
    tr = a00 + a11
    diag, off = a00 * a11, a01 * a01
    s = np.sqrt(np.maximum(diag - off, 0.0))
    n = tr + 2.0 * s
    usual = (tr > _SCALE_LOW) & (tr < _SCALE_HIGH) & (off <= diag)
    every = usual.all()
    t = np.sqrt(n if every else np.where(usual, n, 1.0))
    out = np.empty(z0.shape + (2,))
    out[:, 0] = ((a00 + s) * z0 + a01 * z1) / t
    out[:, 1] = (a01 * z0 + (a11 + s) * z1) / t
    return out, None if every else ~usual


def _clipped_root_times(a00, a01, a11, z0, z1) -> np.ndarray:
    """``_root_times_2x2`` on rows that are not PSD or lie far from unit scale.

    Each row is first divided by 4**k, k such that its largest entry falls in
    [1/2, 2), and the result multiplied by 2**k: both are exact, so a row of
    moderate scale gets the same arithmetic as unscaled.  Then PSD rows take the
    closed form; an indefinite one clips to lambda+ v v' with v v' = (A -
    lambda- I) / (lambda+ - lambda-), whose root is sqrt(lambda+) v v'; with
    both eigenvalues <= 0 the root is zero, and a non-finite row gives NaN.
    """
    m = np.maximum(np.maximum(np.abs(a00), np.abs(a11)), np.abs(a01))
    k = np.frexp(m)[1] // 2
    a00, a01, a11 = (np.ldexp(v, -2 * k) for v in (a00, a01, a11))
    out, rest = _psd_root_times(a00, a01, a11, z0, z1)
    if rest is not None:
        out[rest] = 0.0
        indefinite = a01 * a01 > a00 * a11
        if indefinite.any():
            b00, b01, b11, y0, y1 = (v[indefinite] for v in (a00, a01, a11, z0, z1))
            half = 0.5 * (b00 + b11)
            r = np.hypot(0.5 * (b00 - b11), b01)  # (lambda+ - lambda-) / 2 > 0
            low = half - r
            # lambda+ = half + r, which rounding can push below zero for a rank-one -v v'
            w = np.sqrt(np.maximum(half + r, 0.0)) / (2.0 * r)
            out[indefinite, 0] = w * ((b00 - low) * y0 + b01 * y1)
            out[indefinite, 1] = w * (b01 * y0 + (b11 - low) * y1)
        out[~np.isfinite(m)] = np.nan
    return np.ldexp(out, k[:, None])


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


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> 16)


def _hash(v: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """One seed_seq_fe hash of the words v; returns them and the next constant."""
    v = v ^ np.uint32(const)
    const = const * mult & _MASK32
    v = v * np.uint32(const)
    return v ^ (v >> 16), const


def _path_keys(seed: int, indices) -> np.ndarray:
    """Philox keys (n, 2) uint64 of ``SeedSequence(entropy=seed, spawn_key=(k,))``
    for every path index k, all at once (see the module docstring)."""
    pool = np.random.SeedSequence(int(seed)).pool
    # numpy hashed once per pool word, per ordered pair of them, and per pool
    # word for each seed word beyond the pool
    words = max(1, -(-int(seed).bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, _POOL_SIZE * max(words, _POOL_SIZE), _MASK32 + 1) & _MASK32
    idx = np.asarray(indices, dtype=np.uint64).reshape(-1)
    lo = (idx & np.uint64(_MASK32)).astype(np.uint32)
    hi = (idx >> np.uint64(32)).astype(np.uint32)
    two = hi != 0  # an index >= 2**32 is a two-word spawn key
    mixed = np.repeat(pool[:, None], idx.size, axis=1)
    for word, rows in ((lo, slice(None)), (hi[two], two)):
        if word.size:
            for dst in range(_POOL_SIZE):
                v, const = _hash(word, const, _MULT_A)
                mixed[dst, rows] = _mix(mixed[dst, rows], v)
    const = _INIT_B
    for w in mixed:
        w[:], const = _hash(w, const, _MULT_B)
    state = mixed.astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


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


@np.errstate(over="ignore", invalid="ignore")  # a path that overflows raises at the end
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

    Raises FloatingPointError when a stored state or a constraint minimum is
    not finite, as a dt far too large for the model makes it.
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
    evaluate = _evaluator([*model.b, *(model.a[i][j] for i in range(d) for j in range(i, d)), *ineqs])
    hi = d + d * (d + 1) // 2  # values[:d] is b, values[d:hi] the upper triangle of a

    for start in range(0, n_paths, _CHUNK_PATHS):
        stop = min(start + _CHUNK_PATHS, n_paths)
        keys = _path_keys(seed, np.arange(start, stop)).tolist()
        c = stop - start
        x = np.tile(x0, (c, 1))
        out[start:stop, 0] = x
        values = evaluate(x)
        mins = values[hi:]  # the evaluator returns new arrays, so the minima may own them
        drift = np.empty((c, d))
        step = 0
        while step < n_steps:
            block = min(_STEP_BLOCK, n_steps - step)
            u = _uniforms(gen, keys, step, block, d)
            # uniform draws live in [0, 1 - 2**-53]; keep the inverse CDF finite at 0
            z = ndtri(np.maximum(u, 1e-300, out=u))
            for j in range(block):
                for i in range(d):
                    drift[:, i] = values[i]
                x = x + drift * dt + sqdt * _root_times(values[d:hi], z[:, j])
                x = statespace.project(x)
                step += 1
                # one evaluation at the new state serves its constraints and the next step
                values = evaluate(x)
                for m, v in zip(mins, values[hi:]):
                    np.minimum(m, v, out=m)
                pos = stored_pos.get(step)
                if pos is not None:
                    out[start:stop, pos] = x
        if ineqs:
            minima[start:stop] = np.column_stack(mins)

    if not (np.isfinite(out).all() and (minima is None or np.isfinite(minima).all())):
        raise FloatingPointError("a simulated path left the finite doubles; try a smaller dt")
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
