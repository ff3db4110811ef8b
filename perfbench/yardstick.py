"""Machine-speed yardstick: scales wall times to a nominal machine speed.

The shared host this benchmark is sized for changes speed in phases of
30-60 s by up to +-30 % (NOTES.md), with CPU time tracking wall time, so
neither a longer run nor process time averages it out.  A fixed slice of
small numpy work, which uses nothing from polydiff, runs between ops
(outside the loop time).  Every op latency is multiplied
by REF_S over the median slice time around it, so timings read as at the
speed where one slice takes REF_S; a change to the program moves them
exactly as it moves wall time, and the machine's phase largely cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median slice time on the reference machine (2 vCPUs of a shared x86-64
# host, Python 3.11, numpy 2.4, one BLAS thread); only sets the scale
REF_S = 0.7e-3
EVERY_S = 0.025  # wall time between slices in the loop (at least one op between two)
HALF_WINDOW = 25  # local speed: median of the 2 * HALF_WINDOW + 1 nearest slices


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((12, 12)) * 0.1
        self._m = self._a + 3.0 * np.eye(12)
        self.at: list[float] = []  # perf_counter at the end of each slice
        self.dur: list[float] = []
        self.op_end: list[float] = []  # perf_counter at the end of each op, filled by the loop

    def slice(self) -> float:
        """Run one slice and return its duration in seconds."""
        a, m, x = self._a, self._m, self._a
        t0 = time.perf_counter()
        for _ in range(40):
            x = x @ a + a
            np.linalg.solve(m, x[:, 0])
        return time.perf_counter() - t0

    def tick(self) -> None:
        """In the loop: run and record a slice if EVERY_S has passed since the last one."""
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            dur = self.slice()
            self.at.append(time.perf_counter())
            self.dur.append(dur)

    def scales(self, when) -> np.ndarray:
        """REF_S over the local median slice time at each perf_counter value in ``when``."""
        dur = np.asarray(self.dur)
        w = 2 * HALF_WINDOW + 1
        if len(dur) < w:
            local = np.full(len(dur), np.median(dur))
        else:
            med = np.median(np.lib.stride_tricks.sliding_window_view(dur, w), axis=1)
            local = np.concatenate([np.full(HALF_WINDOW, med[0]), med, np.full(HALF_WINDOW, med[-1])])
        idx = np.clip(np.searchsorted(np.asarray(self.at), np.asarray(when)), 0, len(dur) - 1)
        return REF_S / local[idx]

    def median_ms(self) -> float:
        return statistics.median(self.dur) * 1e3
