"""Euler-Maruyama simulation with state-space projection.

Dispersion is the PSD square root of the (projected) diffusion matrix, so
slightly inadmissible coefficients off the constraint set never produce
complex noise.  b, the upper triangle of a and the state-space inequalities
compile once per ``simulate_paths`` call into one straight-line program of
ufunc calls (``polynomial._evaluator``).  From a chunk's first step on, that
program runs in place on a register file bound to the chunk, so each Euler
step is the program, the PSD root applied to the noise (in d = 2 and d = 3
a closed form with no reductions), the update formed as rows, and the
projection, which copies only when a state leaves the space.  Every value
keeps the arithmetic and its order of the term-by-term evaluation and the
eigendecomposition-free root, so paths and minima are bit for bit the same.

Which bits the noise has depends on its route (``_root_times``).  In d <= 3
it is built from +, -, *, / and sqrt alone, which IEEE 754 rounds correctly,
so its bits are the same on every CPU and BLAS.  In d >= 4, and on the d = 3
rows the closed form leaves (indefinite, near rank one, far from unit scale
or non-finite), it goes through LAPACK ``eigh``, whose bits depend on the BLAS
kernel.  ``dispersion`` is the ``eigh`` reference for every d.

Stream contract: path k draws from numpy's ``Philox`` keyed by
``SeedSequence(entropy=seed, spawn_key=(k,))``, one double (u >> 11) * 2**-53
per 64-bit output u, d doubles per step in step order; normal variates go
through the inverse CDF.  So ``Generator(Philox(SeedSequence(entropy=seed,
spawn_key=(k,)))).random((n_steps, d))`` reproduces the uniforms of path k
with numpy alone.  The contract holds across chunk and step-block
boundaries: paths are bit-identical across runs and chunk sizes, and across
platforms wherever the noise stays off LAPACK (above), and adding paths never
reshuffles existing ones.

Two producers give these bits, chosen by the block's shape alone.  A chunk of
at least ``_ARRAY_MIN_PATHS`` paths drawing at most ``_ARRAY_MAX_WORDS`` words
per path in a block runs Philox4x64-10 itself, on arrays over all its paths
and counters (``_philox_uniforms``); any other block sets each path's key and
counter on one numpy ``Philox`` and draws through its ``Generator``.

Keys: numpy's entropy for path k is the seed's 32-bit words, zero-padded to
the 4-word pool, then k's one or two words.  So a chunk of paths starts from
numpy's own ``SeedSequence(seed).pool``, mixes in only k's words per path,
and hashes the pool into the two 64-bit Philox key words.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .generator import check_point
from .polynomial import Polynomial, _evaluator, _frozen

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
# blocks of chunks this wide drawing this few words per path take the array
# Philox: on a 2-core x86 VM it cost about 0.2 ms plus 70-100 ns a word, the
# generator loop 2.5-3 us a path, so the array wins on wide chunks of short
# blocks only (the sweep is in CHANGES.md)
_ARRAY_MIN_PATHS = 256
_ARRAY_MAX_WORDS = 16

# numpy SeedSequence constants (O'Neill's seed_seq_fe with a 4-word pool)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Philox4x64-10 (Salmon et al., SC'11) as numpy runs it: the round multipliers
# and key increments of the two lanes (counter words 0 and 2)
_PHILOX_MUL = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_BUMP = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64).reshape(2, 1, 1)
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)
_MUL_LO, _MUL_HI = _PHILOX_MUL & _LOW32, _PHILOX_MUL >> _SHIFT32


def _psd_sqrt_batch(A: np.ndarray) -> np.ndarray:
    """PSD square root of a batch (..., d, d) of symmetric matrices."""
    w, V = np.linalg.eigh(A)
    root = np.sqrt(np.maximum(w, 0.0))
    return np.einsum("...ik,...k,...jk->...ij", V, root, V)


def dispersion(model, x) -> np.ndarray:
    """PSD square root of the projected diffusion matrix a(x).  Batched.

    This is the ``eigh`` reference: the Euler step applies the same root to the
    noise without forming it in d <= 3, equal to this one up to rounding."""
    return _psd_sqrt_batch(model.a_eval(x))


# a PSD A with tr A between these has entries whose products stay normal doubles
_SCALE_LOW, _SCALE_HIGH = 2.0**-480, 2.0**480
# the constants of the step kernel as 0-d arrays, which ufuncs take faster than floats
_LOW, _HIGH, _ZERO, _TWO = map(_frozen, (_SCALE_LOW, _SCALE_HIGH, 0.0, 2.0))
# a 3x3 A with tr A between these has products of three entries that stay normal doubles
_SCALE3_LOW, _SCALE3_HIGH = 2.0**-320, 2.0**320
_NEWTON_STEPS = 5
# in the d = 3 closed form, c3 = det A within _ROUNDING c1 c2 of zero is rank two
# up to rounding (c3 / c2 is about the third eigenvalue, and moves RR' by as much);
# a row is kept when c3 is not below that band, its last Newton step is at most
# _CONVERGED I1, and its I1 I2 - I3, about (u2 + u3) / u1 times I1^3 for the roots
# u1 >= u2 >= u3 of the eigenvalues, is at least _SEPARATED I1^3: rounding of
# det A moves RR' by about eps tr A / _SEPARATED^2
_CONVERGED, _ROUNDING, _SEPARATED = map(_frozen, (2.0**-50, 2.0**-46, 2.0**-6))
_LOW3, _HIGH3, _HALF, _THREE = map(_frozen, (_SCALE3_LOW, _SCALE3_HIGH, 0.5, 3.0))


def _root_times(a: list, z: np.ndarray) -> np.ndarray:
    """sigma z, row by row, for sigma the PSD square root of the eigenvalue-clipped
    matrix with upper triangle ``a`` (a_00, a_01, ..., a_11, ...: arrays (n,))
    and z of shape (n, d), without forming sigma where d <= 3.

    d = 1 is sqrt(max(a, 0)) z, bit for bit the 1x1 root times z.  d = 2 and
    d = 3 are closed forms built from +, -, *, / and sqrt alone, which IEEE 754
    rounds correctly, so their bits do not depend on the CPU or the BLAS; they
    equal the eigendecomposition route up to rounding.  d >= 4, and the d = 3
    rows the closed form leaves, go through LAPACK ``eigh``, bit for bit as
    ``dispersion`` on the same rows (``_eigh_root_times``).
    """
    d = z.shape[1]
    if d == 1:
        return np.sqrt(np.maximum(a[0], 0.0))[:, None] * z
    if d == 2:
        return _root_times_2x2(*a, z[:, 0], z[:, 1])
    if d == 3:
        return _root_times_3x3(a, z)
    return _eigh_root_times(a, z)


def _eigh_root_times(a: list, z: np.ndarray) -> np.ndarray:
    """``_root_times`` through the batched ``eigh`` root of ``dispersion``; a row
    with a non-finite entry, which ``eigh`` cannot take, gives NaN."""
    d = z.shape[1]
    A = np.empty((len(z), d, d))
    k = 0
    for i in range(d):
        for j in range(i, d):
            A[:, i, j] = a[k]
            A[:, j, i] = a[k]
            k += 1
    bad = ~np.isfinite(A).all(axis=(1, 2))
    A[bad] = 0.0
    out = np.einsum("cij,cj->ci", _psd_sqrt_batch(A), z)
    out[bad] = np.nan
    return out


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
    whose values are meaningless.

    The values are the (n, 2) transpose of one C-order (2, n) array, so the
    Euler step reads them as rows.  Whether every row is usual takes three
    counts, no reduction, and the mask is formed only when one is not.
    """
    tr = a00 + a11
    diag, off = a00 * a11, a01 * a01
    every = (np.count_nonzero(np.greater(tr, _LOW)) == tr.size and np.count_nonzero(np.less(tr, _HIGH)) == tr.size
             and np.count_nonzero(np.less_equal(off, diag)) == tr.size)
    s = np.subtract(diag, off)
    np.sqrt(np.maximum(s, _ZERO, out=s), out=s)
    n = np.multiply(_TWO, s)
    np.add(tr, n, out=n)
    if every:
        usual, t = None, np.sqrt(n, out=n)
    else:
        usual = (tr > _SCALE_LOW) & (tr < _SCALE_HIGH) & (off <= diag)
        t = np.sqrt(np.where(usual, n, 1.0))
    out = np.empty((2,) + z0.shape)
    r0, r1 = out
    np.multiply(np.add(a00, s, out=r0), z0, out=r0)
    np.divide(np.add(r0, np.multiply(a01, z1, out=off), out=r0), t, out=r0)
    np.multiply(np.add(a11, s, out=diag), z1, out=diag)
    np.divide(np.add(np.multiply(a01, z0, out=r1), diag, out=r1), t, out=r1)
    return out.T, None if every else ~usual


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


def _root_times_3x3(a: list, z: np.ndarray) -> np.ndarray:
    """The d = 3 case of ``_root_times``.

    Let c1 = tr A, c2 the sum of its principal 2x2 minors and c3 = det A.  The
    PSD root U of a PSD A has the invariants I3 = sqrt(c3), I1 the largest root
    of ((x^2 - c1) / 2)^2 - c2 - 2 I3 x and I2 = (I1^2 - c1) / 2, and then
    U z = ((I1^2 - I2) A z + I1 I3 z - A (A z)) / (I1 I2 - I3) by
    Cayley-Hamilton (Hoger and Carlson, Q. Appl. Math. 1984; Franca, Comput.
    Math. Appl. 1989).  sqrt(c1 + 2 sqrt(c2 + 2 I3 sqrt(3 c1))) is an upper bound
    on I1, exact when c3 = 0: a row whose c3 is within rounding of zero (rank
    two) takes it with I3 = 0, the others take ``_NEWTON_STEPS`` Newton steps
    down from it, which are skipped when no row needs them.  The rows this
    leaves go to ``_clipped_root_times_3x3``.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out, rest = _psd_root_times_3x3(*a, *z.T)
        if rest is not None:
            out[rest] = _clipped_root_times_3x3([v[rest] for v in a], z[rest])
    return out


def _psd_root_times_3x3(a00, a01, a02, a11, a12, a22, z0, z1, z2) -> tuple[np.ndarray, np.ndarray | None]:
    """The closed form of ``_root_times_3x3`` row by row, and None when it keeps
    every row, else the mask of the rows it leaves, whose values are
    meaningless: rows with a trace outside _SCALE3_LOW.._SCALE3_HIGH (which
    holds the non-finite ones), c2 < 0 or c3 < -_ROUNDING c1 c2 (indefinite
    beyond rounding), a Newton step that has not converged, or I1 I2 - I3
    below _SEPARATED I1^3 (near rank 1).

    As in d = 2, the values are the (n, 3) transpose of one C-order (3, n)
    array, and whether every row is kept takes a count, no reduction.
    """
    c1 = a00 + a11 + a22
    m00, m11, m22 = a11 * a22 - a12 * a12, a00 * a22 - a02 * a02, a00 * a11 - a01 * a01
    c2 = m00 + m11 + m22
    c3 = a00 * m00 + a01 * (a02 * a12 - a01 * a22) + a02 * (a01 * a12 - a02 * a11)
    band = _ROUNDING * c1 * c2
    # a c3 within rounding of zero is a rank-two A, whose I1 is the bound itself
    converged = c3 <= band
    i3 = np.sqrt(np.where(converged, _ZERO, c3))
    t = _TWO * i3
    bound = x = np.sqrt(c1 + _TWO * np.sqrt(c2 + t * np.sqrt(_THREE * c1)))
    if np.count_nonzero(i3):
        for _ in range(_NEWTON_STEPS):
            g = _HALF * (x * x - c1)
            step = (g * g - c2 - t * x) / (_TWO * (g * x - i3))
            x = x - step
        x = np.where(converged, bound, x)
        converged |= np.abs(step) <= _CONVERGED * x
    xx = x * x
    i2 = _HALF * (xx - c1)
    den = x * i2 - i3
    kept = ((c1 > _LOW3) & (c1 < _HIGH3) & (c2 >= _ZERO) & (c3 >= -band) & converged
            & (den >= _SEPARATED * (xx * x)))
    k, ell = xx - i2, x * i3
    out = np.empty((3,) + c1.shape)
    az = _symmetric_times(a00, a01, a02, a11, a12, a22, z0, z1, z2)
    for r, v, w, zi in zip(out, az, _symmetric_times(a00, a01, a02, a11, a12, a22, *az), (z0, z1, z2)):
        np.divide(k * v + ell * zi - w, den, out=r)
    return out.T, None if np.count_nonzero(kept) == kept.size else ~kept


def _symmetric_times(a00, a01, a02, a11, a12, a22, v0, v1, v2) -> tuple:
    """The rows of A v, for A the symmetric 3x3 matrix with upper triangle a."""
    return a00 * v0 + a01 * v1 + a02 * v2, a01 * v0 + a11 * v1 + a12 * v2, a02 * v0 + a12 * v1 + a22 * v2


def _clipped_root_times_3x3(a: list, z: np.ndarray) -> np.ndarray:
    """``_root_times_3x3`` on the rows its closed form leaves.  A finite row
    whose Gershgorin discs all lie in x <= 0 has no positive eigenvalue, and
    its root is zero: such are the zero and negative multiples of I that a(x)
    takes on the unit sphere.  A row whose 2x2 minors are all zero and whose
    trace lies in _SCALE3_LOW.._SCALE3_HIGH has rank one, A = l v v', and its
    root is A / sqrt(tr A): such are the states that projection puts on an edge
    of the simplex.  The others go to ``_eigh_root_times``."""
    a00, a01, a02, a11, a12, a22 = a
    c1 = a00 + a11 + a22
    r01, r02, r12 = np.abs(a01), np.abs(a02), np.abs(a12)
    zero = np.isfinite(c1) & (a00 + (r01 + r02) <= 0.0) & (a11 + (r01 + r12) <= 0.0) & (a22 + (r02 + r12) <= 0.0)
    one = (c1 > _SCALE3_LOW) & (c1 < _SCALE3_HIGH)
    for m in (a11 * a22 - a12 * a12, a00 * a22 - a02 * a02, a00 * a11 - a01 * a01,
              a01 * a22 - a02 * a12, a01 * a12 - a02 * a11, a00 * a12 - a01 * a02):
        one &= m == 0.0
    out = np.zeros_like(z)
    if one.any():
        out[one] = np.stack(_symmetric_times(*(v[one] for v in a), *z[one].T), axis=1) / np.sqrt(c1[one])[:, None]
    rest = ~(zero | one)
    if rest.any():
        out[rest] = _eigh_root_times([v[rest] for v in a], z[rest])
    return out


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
        """Long-format CSV: path_id, step, t, x_1..x_d, every value at 17
        significant digits (integers below 2**53 print as integers).

        Each path id and each stored step's (step, t) pair is formatted once;
        only the states are formatted row by row, one format operation per
        block of paths.
        """
        header = "path_id,step,t," + ",".join(f"x_{i + 1}" for i in range(self.dim))
        n, m = self.paths.shape[:2]
        state = ",".join(["%.17g"] * self.dim)
        # the format of a stored step's row after its path id; no formatted number holds a %
        tails = ["%.17g,%.17g," % st + state for st in zip(np.rint(self.times / self.dt).tolist(), self.times.tolist())]
        per = max(1, 4096 // max(m, 1))  # paths per block, which bounds the Python floats alive at once
        chunks = [header]
        for start in range(0, n if tails else 0, per):
            stop = min(start + per, n)
            heads = ["%.17g," % k for k in range(start, stop)]
            fmt = "\n".join(head + ("\n" + head).join(tails) for head in heads)
            chunks.append(fmt % tuple(self.paths[start:stop].ravel().tolist()))
        return "\n".join(chunks) + "\n"


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


def _stream(gen: np.random.Generator, keys: np.ndarray, d: int) -> Callable[[int, int], np.ndarray]:
    """draw(step, block) -> uniforms (len(keys), block, d) of steps
    [step, step + block) of the Philox streams keyed by the rows of ``keys``
    (n, 2) uint64: the blocks of one chunk of paths.

    A block of at least ``_ARRAY_MIN_PATHS`` paths and at most
    ``_ARRAY_MAX_WORDS`` words a path is ``_philox_uniforms``.  Any other draws
    through the one generator ``gen``: each path sets its key and counter
    step * d / 4 on an empty buffer, which is where its own fresh stream stands
    after ``step`` steps whenever step * d is a multiple of 4 (Philox counts
    4-word outputs).  Both give the same bits.  The keys become Python ints
    once, on the first block that draws through ``gen``.
    """
    rows: list = []

    def draw(step: int, block: int) -> np.ndarray:
        if len(keys) >= _ARRAY_MIN_PATHS and block * d <= _ARRAY_MAX_WORDS:
            return _philox_uniforms(keys, step, block, d)
        if not rows:
            rows.extend(keys.tolist())
        u = np.empty((len(keys), block, d))
        bitgen = gen.bit_generator
        state = {"bit_generator": "Philox", "state": {"counter": [step * d // 4, 0, 0, 0], "key": None},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for i, key in enumerate(rows):
            state["state"]["key"] = key
            bitgen.state = state
            gen.random((block, d), out=u[i])
        return u

    return draw


def _philox_uniforms(keys: np.ndarray, step: int, block: int, d: int) -> np.ndarray:
    """A ``_stream`` block computed as numpy's Philox4x64-10 computes it, on arrays
    (2, paths, counters) of the counter words 0 and 2 (the multiplied lanes)
    and 1 and 3, for every path and counter of the block at once.

    numpy counts up before it draws, so the block's first counter is
    step * d / 4 + 1; each 64-bit output u gives (u >> 11) * 2**-53.  The high
    word of a 64 x 64-bit product is summed from 32-bit halves.
    """
    n, words = len(keys), block * d
    counters = -(-words // 4)
    first = step * d // 4 + 1
    key = keys.T.reshape(2, n, 1)
    # round one sees only the counters; the keys widen x to every path after it
    x = np.zeros((2, 1, counters), dtype=np.uint64)
    x[0] = np.arange(first, first + counters, dtype=np.uint64)
    y = np.zeros_like(x)
    for r in range(10):
        if r:
            key = key + _PHILOX_BUMP
        # each partial sum of 32 x 32-bit products stays below 2**64
        low, high = x & _LOW32, x >> _SHIFT32
        mid = _MUL_LO * high + (_MUL_LO * low >> _SHIFT32)
        cross = _MUL_HI * low + (mid & _LOW32)
        hi = _MUL_HI * high + (mid >> _SHIFT32) + (cross >> _SHIFT32)
        x, y = hi[::-1] ^ y ^ key, (_PHILOX_MUL * x)[::-1]
    out = np.stack((x[0], y[0], x[1], y[1]), axis=-1).reshape(n, 4 * counters)[:, :words]
    return ((out >> np.uint64(11)) * 2.0**-53).reshape(n, block, d)


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
    dt0 = _frozen(float(dt))
    sqdt = _frozen(np.sqrt(dt))
    gen = np.random.Generator(np.random.Philox(0))  # every path overwrites its state
    evaluate = _evaluator([*model.b, *(model.a[i][j] for i in range(d) for j in range(i, d)), *ineqs])
    hi = d + d * (d + 1) // 2  # values[:d] is b, values[d:hi] the upper triangle of a

    for start in range(0, n_paths, _CHUNK_PATHS):
        stop = min(start + _CHUNK_PATHS, n_paths)
        draw = _stream(gen, _path_keys(seed, np.arange(start, stop)), d)
        c = stop - start
        x = np.tile(x0, (c, 1))
        out[start:stop, 0] = x
        values = evaluate(x)
        # the minima are their own array: from its second call on a shape, the evaluator
        # returns rows of its register file, which the next call overwrites
        mins = np.array(values[hi:])
        # the update as rows, x' + b dt + sqdt sigma z, one row per coordinate
        xt, noise = np.empty((d, c)), np.empty((d, c))
        step = 0
        while step < n_steps:
            block = min(_STEP_BLOCK, n_steps - step)
            u = draw(step, block)
            # uniform draws live in [0, 1 - 2**-53]; keep the inverse CDF finite at 0
            z = ndtri(np.maximum(u, 1e-300, out=u))
            for j in range(block):
                np.add(x.T, np.multiply(values[:d], dt0, out=xt), out=xt)
                np.add(xt, np.multiply(sqdt, _root_times(values[d:hi], z[:, j]).T, out=noise), out=xt)
                x = statespace.project(xt.T.copy())
                step += 1
                # one evaluation at the new state serves its constraints and the next step
                values = evaluate(x)
                if ineqs:
                    np.minimum(mins, values[hi:], out=mins)
                pos = stored_pos.get(step)
                if pos is not None:
                    out[start:stop, pos] = x
        if ineqs:
            minima[start:stop] = mins.T

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
    """Fraction of paths whose running minimum of p(X), ``paths.constraint_minima``,
    dips below threshold, plus summary quantiles of the per-path minima."""
    try:
        index = list(statespace.inequalities).index(p)
    except ValueError:
        raise ValueError("p must be one of the state-space inequality polynomials") from None
    if paths.constraint_minima is None:
        raise ValueError("paths carry no constraint minima; simulate_paths records them at every step")
    mins = paths.constraint_minima[:, index]
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
