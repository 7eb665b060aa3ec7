"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of this VM drifts by up to 2x over seconds to
minutes, through load outside it; a run's median wall time then says more
about the host than about frobkern.  The worker therefore times a fixed
kernel right before set-up, between set-up and solve, and right after
solve, and reports each phase's seconds scaled by
`REFERENCE_S / (mean kernel time at the phase's two edges)`.  On a machine
that runs the kernel in `REFERENCE_S`, the scaled seconds are wall
seconds.  The raw wall seconds and the kernel times stay in the record.

The kernel is the benchmark's own code, not frobkern's, so no change to
the program can move it: an elimination mod 7 in numpy row steps driven
by a Python loop, then an int64 matrix product, the two kinds of work
that frobkern's solves consist of.
"""

from __future__ import annotations

import time

import numpy as np

# mean kernel time on the 2-vCPU Xeon VM where the benchmark was defined
REFERENCE_S = 0.003
# kernel runs per calibration, about 0.2 s in all
CALIBRATION_REPS = 60

_A = np.random.default_rng(20091486).integers(0, 7, (48, 48), dtype=np.int64)
_B = np.random.default_rng(20091487).integers(0, 7, (96, 96), dtype=np.int64)


def _kernel() -> None:
    m = _A.copy()
    r = 0
    for c in range(m.shape[1]):
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), 5, 7)) % 7
        col = m[:, c].copy()
        col[r] = 0
        m = (m - np.outer(col, m[r])) % 7
        r += 1
    (_B @ _B) % 7


def calibration_s() -> float:
    """Mean time of the kernel over `CALIBRATION_REPS` back-to-back runs.

    The mean over a fifth of a second follows the speed of the moment the
    phase starts or ends; a single kernel run jumps between the fast and the
    slow states of the host.
    """
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_REPS):
        _kernel()
    return (time.perf_counter() - t0) / CALIBRATION_REPS
